"""End-to-end command line flows, exit codes, and artifact determinism."""

import json
import logging
import re
from collections import Counter

import pytest

import plgg.experiment as experiment
from plgg.cli import _HANDLER, EXIT_OK, EXIT_TASK, EXIT_USAGE, _mu_histogram, main
from plgg.experiment import ExperimentConfig
from plgg.instantiate import instantiate_task, plgg_from_json, plgg_to_json
from plgg.pddl import parse_problem
from plgg.plog import read_plog

from conftest import without_seconds


@pytest.fixture()
def paths(bench_dir):
    def p(name):
        return str(bench_dir / f"{name}.pddl")
    return p


def test_extract_writes_one_file_per_problem(paths, bench_dir, tmp_path):
    out = tmp_path / "lggs"
    code = main(["extract", str(bench_dir / "domain.pddl"),
                 paths("p01"), paths("p02"), paths("p03"), "--out", str(out)])
    assert code == EXIT_OK
    files = sorted(f.name for f in out.glob("*.lgg.json"))
    assert files == ["p01.lgg.json", "p02.lgg.json", "p03.lgg.json"]


def test_extract_is_deterministic(paths, bench_dir, tmp_path):
    argv = ["extract", str(bench_dir / "domain.pddl"), paths("p01")]
    main(argv + ["--out", str(tmp_path / "a")])
    main(argv + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a/p01.lgg.json").read_bytes() == \
        (tmp_path / "b/p01.lgg.json").read_bytes()


def test_extract_unsolvable_task_exits_2(bench_dir, tmp_path, capsys):
    bad = tmp_path / "impossible.pddl"
    bad.write_text("(define (problem impossible) (:domain blocksworld) "
                   "(:objects a - block) "
                   "(:init (ontable a) (clear a) (handempty)) "
                   "(:goal (and (on a a))))")
    code = main(["extract", str(bench_dir / "domain.pddl"), str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_TASK
    assert "impossible" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing written on failure


def test_extract_rejects_repeated_problem_stem(bench_dir, tmp_path, capsys):
    # a/p01.pddl and b/p01.pddl would both write p01.lgg.json
    for sub, source in (("a", "p01"), ("b", "p02")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "p01.pddl").write_text((bench_dir / f"{source}.pddl").read_text())
    code = main(["extract", str(bench_dir / "domain.pddl"), str(tmp_path / "a/p01.pddl"),
                 str(tmp_path / "b/p01.pddl"), "--out", str(tmp_path / "lggs")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("plgg extract: error: problem stem 'p01'")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "lggs").exists()


@pytest.fixture()
def learned(paths, bench_dir, tmp_path):
    lggs = tmp_path / "lggs"
    main(["extract", str(bench_dir / "domain.pddl"),
          paths("p01"), paths("p02"), paths("p03"), paths("p04"),
          "--out", str(lggs)])
    plog = tmp_path / "plog.json"
    code = main(["learn"] + [str(f) for f in sorted(lggs.glob("*.lgg.json"))]
                + ["--out", str(plog), "--domain", "blocksworld"])
    assert code == EXIT_OK
    return plog


def test_learn_contains_certain_edge(learned, capsys):
    payload = json.loads(learned.read_text())
    vertices = [f"{v['pred']}({','.join(v['args'])})" for v in payload["vertices"]]
    certain = [e for e in payload["edges"]
               if vertices[e["src"]] == "clear(?x0)"
               and vertices[e["dst"]] == "holding(?x0)"]
    assert certain and certain[0]["mu"] == 1.0


def test_learn_summary_line(paths, bench_dir, tmp_path, capsys):
    lggs = tmp_path / "lggs"
    main(["extract", str(bench_dir / "domain.pddl"), paths("p01"), "--out", str(lggs)])
    capsys.readouterr()
    main(["learn", str(lggs / "p01.lgg.json"), "--out", str(tmp_path / "p.json")])
    out = capsys.readouterr().out
    assert "vertices:" in out and "mu histogram:" in out
    assert "(0.8,1.0]" in out  # single graph: every edge certain


def test_mu_histogram_buckets_are_right_closed():
    assert _mu_histogram([0.2, 0.4, 0.6, 0.8, 1.0]) == \
        "(0.0,0.2]:1 (0.2,0.4]:1 (0.4,0.6]:1 (0.6,0.8]:1 (0.8,1.0]:1"


def test_learn_rejects_a_file_given_twice(paths, bench_dir, tmp_path, capsys):
    # each LGG file counts once: p01 and p02 give 0.4 and 0.5 where a
    # repeated p01 would give 0.286 and 0.6
    lggs = tmp_path / "lggs"
    main(["extract", str(bench_dir / "domain.pddl"), paths("p01"), paths("p02"),
          "--out", str(lggs)])
    capsys.readouterr()
    p01, p02 = str(lggs / "p01.lgg.json"), str(lggs / "p02.lgg.json")
    for again in (p01, str(lggs / ".." / "lggs" / "p01.lgg.json")):
        code = main(["learn", p01, again, p02, "--out", str(tmp_path / "p.json")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("plgg learn: error: ")
        assert "p01.lgg.json" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "p.json").exists()
    # distinct files may share a stem
    (tmp_path / "copy").mkdir()
    copy = tmp_path / "copy" / "p01.lgg.json"
    copy.write_text((lggs / "p01.lgg.json").read_text())
    assert main(["learn", p01, str(copy), p02, "--out", str(tmp_path / "p.json")]) == EXIT_OK
    assert main(["learn", p01, p02, "--out", str(tmp_path / "q.json")]) == EXIT_OK
    mus = sorted(edge["mu"] for edge in json.loads((tmp_path / "q.json").read_text())["edges"])
    assert {0.4, 0.5} <= set(mus)


def test_learn_without_files_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["learn", "--out", str(tmp_path / "p.json")])
    assert err.value.code == EXIT_USAGE


def test_instantiate_writes_graph_and_dot(learned, bench_dir, paths, tmp_path, capsys):
    out = tmp_path / "p06.plgg.json"
    code = main(["instantiate", str(learned), str(bench_dir / "domain.pddl"),
                 paths("p06"), "--out", str(out), "--dot"])
    assert code == EXIT_OK
    assert out.exists() and out.with_suffix(".dot").exists()
    stdout = capsys.readouterr().out
    assert "grounded landmarks" in stdout and "ms" in stdout
    payload = json.loads(out.read_text())
    names = {(v["pred"], tuple(v["args"])) for v in payload["vertices"]}
    assert ("clear", ("b",)) in names
    assert ("on", ("a", "b")) in names


def test_instantiate_without_out_prints_only_the_graph(learned, bench_dir, paths, make_task,
                                                      capsys):
    code = main(["instantiate", str(learned), str(bench_dir / "domain.pddl"), paths("p06")])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    graph = plgg_from_json(captured.out)
    assert captured.out == plgg_to_json(graph)
    assert captured.out == plgg_to_json(instantiate_task(read_plog(learned), make_task("p06")))
    assert re.fullmatch(r"instantiated in \d+ ms: \d+ grounded landmarks, \d+ lifted, "
                        r"\d+ orderings at threshold 0\.0\n", captured.err)


def test_instantiate_goal_predecessor_edge(learned, bench_dir, paths, tmp_path):
    out = tmp_path / "p06.plgg.json"
    main(["instantiate", str(learned), str(bench_dir / "domain.pddl"),
          paths("p06"), "--out", str(out)])
    payload = json.loads(out.read_text())
    table = [(v["pred"], tuple(v["args"])) for v in payload["vertices"]]
    hits = [e for e in payload["edges"]
            if table[e["src"]] == ("clear", ("b",))
            and table[e["dst"]] == ("on", ("a", "b"))]
    assert hits


def test_instantiate_threshold_one_keeps_only_certainties(learned, bench_dir, paths,
                                                          tmp_path, capsys):
    main(["instantiate", str(learned), str(bench_dir / "domain.pddl"),
          paths("p06"), "--threshold", "1.0", "--out", str(tmp_path / "t.json")])
    stdout = capsys.readouterr().out
    count = int(stdout.split("orderings")[0].rsplit(",", 1)[1].strip())
    from plgg.instantiate import extract_result, read_plgg
    content = extract_result(read_plgg(tmp_path / "t.json"), threshold=1.0)
    assert len(content.orderings) == count
    assert all(mu == 1.0 for mu in content.orderings.values())


def test_instantiate_threshold_sets_only_the_summary(learned, bench_dir, paths, tmp_path,
                                                     capsys):
    # the p-LGG written holds every node and edge; only the summary line's counts move
    outs = [tmp_path / f"{name}.plgg.json" for name in ("all", "high")]
    for out, extra in zip(outs, ([], ["--threshold", "0.9"])):
        assert main(["instantiate", str(learned), str(bench_dir / "domain.pddl"), paths("p06"),
                     "--out", str(out), "--dot", *extra]) == EXIT_OK
    counts = [line.split(": ", 1)[1].split(" at threshold")[0]
              for line in capsys.readouterr().out.splitlines()[::3]]
    assert counts[0] != counts[1]
    for suffix in (".json", ".dot"):
        assert outs[0].with_suffix(suffix).read_bytes() == outs[1].with_suffix(suffix).read_bytes()


def test_instantiate_vocabulary_mismatch_exits_2(learned, tmp_path, capsys):
    other = tmp_path / "other-domain.pddl"
    other.write_text("(define (domain gripper) (:requirements :strips) "
                     "(:predicates (at ?x) (carry ?x)) "
                     "(:action grab :parameters (?x) :precondition (and (at ?x)) "
                     ":effect (and (carry ?x) (not (at ?x)))))")
    problem = tmp_path / "other-p.pddl"
    problem.write_text("(define (problem g1) (:domain gripper) (:objects ball) "
                       "(:init (at ball)) (:goal (and (carry ball))))")
    code = main(["instantiate", str(learned), str(other), str(problem)])
    assert code == EXIT_TASK
    assert "domain" in capsys.readouterr().err


def test_instantiate_undeclared_edge_atom_exits_2(learned, bench_dir, paths, tmp_path,
                                                 capsys):
    # every root is a blocksworld predicate; one edge source is not
    payload = json.loads(learned.read_text())
    payload["vertices"].append({"pred": "bogus", "args": ["?x0", "?x1", "?x2"]})
    payload["edges"].append({"src": len(payload["vertices"]) - 1,
                             "dst": payload["edges"][0]["dst"], "n": 1, "mu": 0.5})
    plog = tmp_path / "bogus.json"
    plog.write_text(json.dumps(payload))
    out = tmp_path / "p06.plgg.json"
    code = main(["instantiate", str(plog), str(bench_dir / "domain.pddl"), paths("p06"),
                 "--out", str(out)])
    assert code == EXIT_TASK
    assert "bogus(?x0, ?x1, ?x2)" in capsys.readouterr().err
    assert not out.exists()


def test_instantiate_dot_requires_out(learned, bench_dir, paths, capsys):
    assert main(["instantiate", str(learned), str(bench_dir / "domain.pddl"),
                 paths("p06"), "--dot"]) == EXIT_USAGE
    assert "plgg instantiate: error: --dot needs --out" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["learn", "instantiate"])
def test_dot_that_would_overwrite_out_exits_1(command, bench_dir, tmp_path, capsys):
    # the inputs do not exist: the clash is reported before any is read
    out = tmp_path / "g.dot"
    inputs = ([str(tmp_path / "p01.lgg.json")] if command == "learn"
              else [str(tmp_path / "plog.json"), str(bench_dir / "domain.pddl"),
                    str(tmp_path / "p06.pddl")])
    assert main([command, *inputs, "--out", str(out), "--dot"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (f"plgg {command}: error: --dot would overwrite --out {out}; "
                            "give --out another suffix\n")
    assert captured.out == ""
    assert not out.exists()


OUT_OF_RANGE = [("top_n", "0"), ("top_n", "-3"), ("threshold", "7"),
                ("threshold", "-0.5"), ("threshold", "nan")]


@pytest.mark.parametrize("field,value", OUT_OF_RANGE)
@pytest.mark.parametrize("command", ["instantiate", "evaluate"])
def test_out_of_range_option_exits_1(command, field, value, learned, bench_dir, paths,
                                     tmp_path, capsys):
    domain = str(bench_dir / "domain.pddl")
    argv = (["instantiate", str(learned), domain, paths("p06"),
             "--out", str(tmp_path / "p06.json")] if command == "instantiate"
            else ["evaluate", domain] + [paths(f"p0{i}") for i in range(1, 7)]
            + ["--train", "4", "--test", "2", "--reps", "1", "--no-oracle"])
    capsys.readouterr()
    assert main(argv + ["--" + field.replace("_", "-"), value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"plgg {command}: error: {field} must") and err.count("\n") == 1
    assert not (tmp_path / "p06.json").exists()


@pytest.mark.parametrize("field,value", OUT_OF_RANGE)
def test_config_rejects_out_of_range_option(field, value, bench_dir, paths):
    config = ExperimentConfig(domain_path=str(bench_dir / "domain.pddl"),
                              problem_paths=[paths(f"p0{i}") for i in range(1, 7)],
                              train_count=4, test_count=2)
    config.validate()
    setattr(config, field, int(value) if field == "top_n" else float(value))
    with pytest.raises(ValueError, match=f"{field} must"):
        config.validate()


@pytest.mark.parametrize("command", ["learn", "instantiate"])
def test_malformed_artifact_exits_2_with_message(command, learned, bench_dir, paths,
                                                 tmp_path, capsys):
    source = tmp_path / "lggs" / "p01.lgg.json" if command == "learn" else learned
    payload = json.loads(source.read_text())
    payload["vertices"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = (["learn", str(bad), "--out", str(tmp_path / "out.json")] if command == "learn"
            else ["instantiate", str(bad), str(bench_dir / "domain.pddl"), paths("p06")])
    capsys.readouterr()
    assert main(argv) == EXIT_TASK
    err = capsys.readouterr().err
    assert err.startswith(f"plgg {command}: error: ") and "(at /vertices)" in err
    assert "Traceback" not in err


# (what is wrong with the input file, the command that reads it); only
# `learn` and `instantiate` read artifacts, which have a schema, and a
# malformed problem is read by `extract` and `evaluate`
UNREADABLE = [(unreadable, command) for unreadable in ("directory", "non-utf8")
              for command in ("extract", "learn", "instantiate")]
UNREADABLE += [("schema", "learn"), ("schema", "instantiate")]
# a malformed problem: p02 with one edit, and the message that names it
BAD_PDDL = {"pddl": (("(:init", "(:init (foo)"),
                     "unknown predicate foo in :init (line 4, column 10)"),
            "pddl-nameless-domain": (("(:domain blocksworld)", "(:domain)"),
                                     ":domain takes exactly one name (line 2, column 3)")}
UNREADABLE += [(unreadable, command) for unreadable in BAD_PDDL
               for command in ("extract", "evaluate")]


@pytest.mark.parametrize("unreadable,command", UNREADABLE)
def test_unreadable_input_exits_2_with_message(command, unreadable, learned, bench_dir,
                                               paths, tmp_path, capsys):
    bad = tmp_path / "bad"
    if unreadable == "directory":
        bad.mkdir()
    elif unreadable == "schema":
        bad.write_text(json.dumps({"vertices": [], "edges": [[0, 0]]}))
    elif unreadable in BAD_PDDL:
        bad.write_text((bench_dir / "p02.pddl").read_text().replace(*BAD_PDDL[unreadable][0]))
    else:
        bad.write_bytes(b"\xff\xfe(define \xc3")
    domain = str(bench_dir / "domain.pddl")
    # the domain is the bad file, except that a malformed problem follows a good domain
    inputs = ([domain, paths("p01"), str(bad)] if unreadable in BAD_PDDL
              else [str(bad), paths("p01")])
    argv = {"extract": ["extract", *inputs, "--out", str(tmp_path / "out")],
            "evaluate": ["evaluate", *inputs, *map(paths, ("p03", "p04", "p05")),
                         "--train", "4", "--test", "1", "--reps", "1"],
            "learn": ["learn", str(bad), "--out", str(tmp_path / "out.json")],
            "instantiate": ["instantiate", str(bad), domain, paths("p06")]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_TASK
    err = capsys.readouterr().err
    assert err.startswith(f"plgg {command}: error: ") and err.count("\n") == 1
    assert err.count(str(bad)) == 1
    if unreadable in BAD_PDDL:
        assert err.endswith(f": error: {bad}: {BAD_PDDL[unreadable][1]}\n")
    assert "Traceback" not in err


def test_deeply_nested_goal_reads_as_the_flat_goal(bench_dir, domain, tmp_path):
    text = (bench_dir / "p01.pddl").read_text()
    nested = "(on b c)"
    for _ in range(5000):
        nested = f"(and {nested})"
    deep = tmp_path / "deep.pddl"
    deep.write_text(text.replace("(and (on a b))", f"(and (on a b) {nested})"))
    flat = parse_problem(text.replace("(and (on a b))", "(and (on a b) (on b c))"), domain)
    assert parse_problem(deep.read_text(), domain) == flat
    assert main(["extract", str(bench_dir / "domain.pddl"), str(deep),
                 "--out", str(tmp_path / "out")]) == EXIT_OK


def test_evaluate_small_protocol(bench_dir, paths, capsys):
    names = ["p01", "p02", "p03", "p04", "p05", "p06"]
    code = main(["evaluate", str(bench_dir / "domain.pddl")]
                + [paths(n) for n in names]
                + ["--train", "4", "--test", "2", "--reps", "2", "--seed", "7"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "landmarks" in out and "orderings" in out
    assert "plgg_recall" in out
    assert "learn" in out


def test_evaluate_json_deterministic_scores(bench_dir, paths, capsys):
    names = ["p01", "p02", "p03", "p04", "p05", "p06"]
    argv = (["evaluate", str(bench_dir / "domain.pddl")] + [paths(n) for n in names]
            + ["--train", "4", "--test", "2", "--reps", "1", "--seed", "3",
               "--json", "--no-oracle"])
    main(argv)
    first = json.loads(capsys.readouterr().out)
    main(argv)
    second = json.loads(capsys.readouterr().out)
    assert first["overall"] == second["overall"]
    assert first["repetitions"][0]["test"] == second["repetitions"][0]["test"]


def test_evaluate_json_with_out_prints_only_the_report(bench_dir, paths, tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["evaluate", str(bench_dir / "domain.pddl")]
                + [paths(n) for n in ["p01", "p02", "p03", "p04", "p05", "p06"]]
                + ["--train", "4", "--test", "2", "--reps", "1", "--no-oracle",
                   "--json", "--out", str(target)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert captured.out == target.read_text()
    assert captured.err == f"wrote {target}\n"


def test_evaluate_task_with_empty_oracle_set(bench_dir, tmp_path, capsys):
    # no init fact and no goal: the oracle finds no landmark, and neither
    # side finds a grounded one, so each recalls the empty set in full
    (tmp_path / "p00.pddl").write_text("(define (problem p00) (:domain blocksworld) "
                                       "(:objects a - block) (:init) (:goal (and)))")
    for name in ("p01", "p02"):
        (tmp_path / f"{name}.pddl").write_text((bench_dir / f"{name}.pddl").read_text())
    # seed 0 shuffles the sorted p00, p01, p02 to p01, p02 | p00
    code = main(["evaluate", str(bench_dir / "domain.pddl")]
                + [str(tmp_path / f"{name}.pddl") for name in ("p00", "p01", "p02")]
                + ["--train", "2", "--test", "1", "--reps", "1", "--json"])
    assert code == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)["oracle_recall"]
    assert row["task"] == "p00"
    assert row["plgg_recall"] == row["native_recall"] == 1.0


def test_evaluate_insufficient_problems(bench_dir, paths, capsys):
    code = main(["evaluate", str(bench_dir / "domain.pddl"), paths("p01"),
                 "--train", "4", "--test", "10"])
    assert code == EXIT_USAGE
    assert "split" in capsys.readouterr().err


def test_evaluate_rejects_repeated_problem_stem(bench_dir, paths, tmp_path, capsys):
    other = tmp_path / "p01.pddl"
    other.write_text((bench_dir / "p02.pddl").read_text())
    for problems in ([paths("p01")] * 5, [paths("p01"), paths("p03"), paths("p04"),
                                          paths("p05"), str(other)]):
        capsys.readouterr()
        code = main(["evaluate", str(bench_dir / "domain.pddl"), *problems,
                     "--train", "4", "--test", "1", "--reps", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("plgg evaluate: error: problem stem 'p01'")
        assert err.count("\n") == 1


def test_evaluate_with_reference_dir(bench_dir, paths, tmp_path, capsys):
    """Scored against the files that `plgg extract` wrote, `evaluate`
    reports what it reports against its own extraction, timings aside, and
    takes no seconds to extract."""
    names = ["p01", "p02", "p03", "p04", "p05", "p06"]
    refs = tmp_path / "refs"
    main(["extract", str(bench_dir / "domain.pddl")] + [paths(n) for n in names]
         + ["--out", str(refs)])
    argv = (["evaluate", str(bench_dir / "domain.pddl")] + [paths(n) for n in names]
            + ["--train", "4", "--test", "2", "--reps", "2", "--json"])
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    native = json.loads(capsys.readouterr().out)
    assert main(argv + ["--reference-dir", str(refs)]) == EXIT_OK
    referenced = json.loads(capsys.readouterr().out)
    assert without_seconds(referenced) == without_seconds(native)
    assert native["oracle_recall"]
    assert [rep["extract_seconds"] for rep in referenced["repetitions"]] == [0.0, 0.0]


def test_evaluate_grounds_extracts_and_labels_each_problem_once(bench_dir, monkeypatch):
    """However many repetitions draw a problem, one run grounds it, extracts
    its graph and computes its oracle landmarks at most once."""
    calls = {fn: Counter() for fn in ("ground_task", "extract_lgg", "oracle_landmarks")}

    def counting(fn, name_of):
        original = getattr(experiment, fn)

        def counted(*args):
            calls[fn][name_of(*args)] += 1
            return original(*args)
        monkeypatch.setattr(experiment, fn, counted)

    counting("ground_task", lambda domain, problem: problem.name)
    counting("extract_lgg", lambda task: task.name)
    counting("oracle_landmarks", lambda task: task.name)
    problems = [str(p) for p in sorted(bench_dir.glob("p*.pddl"))]
    report = experiment.run_experiment(
        ExperimentConfig(domain_path=str(bench_dir / "domain.pddl"), problem_paths=problems))
    assert len(report["repetitions"]) == 5
    tested = {t["task"] for rep in report["repetitions"] for t in rep["tasks"]}
    for fn, counts in calls.items():
        assert counts and max(counts.values()) == 1, fn
    assert len(calls["oracle_landmarks"]) == len(tested)


def test_evaluate_missing_reference_exits_2(bench_dir, paths, tmp_path, capsys):
    refs = tmp_path / "refs"
    refs.mkdir()
    code = main(["evaluate", str(bench_dir / "domain.pddl")]
                + [paths(n) for n in ["p01", "p02", "p03", "p04", "p05", "p06"]]
                + ["--train", "4", "--test", "2", "--reps", "1",
                   "--reference-dir", str(refs)])
    assert code == EXIT_TASK


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


@pytest.fixture()
def unlearned_goal(tmp_path):
    # no ordering learned from p01-p04 ends in ontable(?x0), so the goal
    # side warns about ontable(a)
    path = tmp_path / "odd.pddl"
    path.write_text("(define (problem odd) (:domain blocksworld) "
                    "(:objects a b - block) "
                    "(:init (on a b) (ontable b) (clear a) (handempty)) "
                    "(:goal (and (ontable a))))")
    return str(path)


@pytest.mark.parametrize("level,printed", [([], True), (["--log-level", "warning"], True),
                                           (["--log-level", "error"], False)])
def test_log_level_sets_which_warnings_print(level, printed, learned, bench_dir, unlearned_goal,
                                             tmp_path, capsys, plgg_logger):
    code = main(["instantiate", str(learned), str(bench_dir / "domain.pddl"), unlearned_goal,
                 "--out", str(tmp_path / "odd.plgg.json"), *level])
    assert code == EXIT_OK
    line = "plgg: warning: no learned orderings touch ontable(a); keeping it isolated\n"
    assert (line in capsys.readouterr().err) == printed


def test_repeated_main_calls_keep_one_log_handler(learned, bench_dir, unlearned_goal, tmp_path,
                                                  capsys, plgg_logger):
    argv = ["instantiate", str(learned), str(bench_dir / "domain.pddl"), unlearned_goal,
            "--out", str(tmp_path / "odd.plgg.json")]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert plgg_logger.handlers.count(_HANDLER) == 1
    assert capsys.readouterr().err.count("plgg: warning: ") == 2


def test_default_log_level_lets_warnings_reach_other_handlers(learned, bench_dir, unlearned_goal,
                                                              tmp_path, capsys, plgg_logger):
    # a handler of the caller's, such as the benchmark's log counter, sees
    # every warning that the command line prints
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    plgg_logger.addHandler(handler)
    assert main(["instantiate", str(learned), str(bench_dir / "domain.pddl"), unlearned_goal,
                 "--out", str(tmp_path / "odd.plgg.json")]) == EXIT_OK
    assert [r.getMessage() for r in records] == \
        ["no learned orderings touch ontable(a); keeping it isolated"]


def test_debug_log_level_prints_one_line_per_pass(learned, bench_dir, paths, capsys,
                                                  plgg_logger):
    argv = ["instantiate", str(learned), str(bench_dir / "domain.pddl"), paths("p06")]
    assert main(argv) == EXIT_OK
    default = capsys.readouterr()
    assert main(argv + ["--log-level", "debug"]) == EXIT_OK
    debug = capsys.readouterr()
    assert debug.out == default.out
    passes = [line for line in debug.err.splitlines() if line.startswith("plgg: debug: ")]
    assert passes and all(re.fullmatch(r"plgg: debug: (init|goal) side pass: \d+ landmarks "
                                       r"searched, \d+ bindings reused", line) for line in passes)
    assert "plgg: debug: " not in default.err


VERDICT_RECORD = re.compile(r"plgg: debug: (\w+): verdicts by needed facts \d+, "
                            r"first adders \d+, label pass \d+")


def test_debug_log_level_prints_one_verdict_line_per_extracted_task(paths, bench_dir, tmp_path,
                                                                     capsys, plgg_logger):
    argv = ["extract", str(bench_dir / "domain.pddl"), paths("p01"), paths("p02"), paths("p03"),
            "--out", str(tmp_path / "lggs")]
    assert main(argv) == EXIT_OK
    default = capsys.readouterr()
    assert main(argv + ["--log-level", "debug"]) == EXIT_OK
    debug = capsys.readouterr()
    assert debug.out == default.out
    records = [line for line in debug.err.splitlines() if line.startswith("plgg: debug: ")]
    assert [VERDICT_RECORD.fullmatch(line)[1] for line in records] == ["p01", "p02", "p03"]
    assert "plgg: debug: " not in default.err
