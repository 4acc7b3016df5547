"""End-to-end command line flows, exit codes, and artifact determinism."""

import json

import pytest

from plgg.cli import EXIT_OK, EXIT_TASK, EXIT_USAGE, _mu_histogram, main
from plgg.experiment import ExperimentConfig


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
    with pytest.raises(SystemExit) as err:
        main(["instantiate", str(learned), str(bench_dir / "domain.pddl"),
              paths("p06"), "--dot"])
    assert err.value.code == EXIT_USAGE
    assert "plgg instantiate: error: --dot needs --out" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["extract", "learn", "instantiate"])
@pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
def test_unreadable_input_exits_2_with_message(command, unreadable, learned, bench_dir,
                                               paths, tmp_path, capsys):
    bad = tmp_path / "bad"
    if unreadable == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe(define \xc3")
    domain = str(bench_dir / "domain.pddl")
    argv = {"extract": ["extract", str(bad), paths("p01"), "--out", str(tmp_path / "out")],
            "learn": ["learn", str(bad), "--out", str(tmp_path / "out.json")],
            "instantiate": ["instantiate", str(bad), domain, paths("p06")]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_TASK
    err = capsys.readouterr().err
    assert err.startswith(f"plgg {command}: error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert "Traceback" not in err


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
    names = ["p01", "p02", "p03", "p04", "p05", "p06"]
    refs = tmp_path / "refs"
    main(["extract", str(bench_dir / "domain.pddl")] + [paths(n) for n in names]
         + ["--out", str(refs)])
    capsys.readouterr()
    code = main(["evaluate", str(bench_dir / "domain.pddl")]
                + [paths(n) for n in names]
                + ["--train", "4", "--test", "2", "--reps", "1",
                   "--reference-dir", str(refs), "--no-oracle"])
    assert code == EXIT_OK
    assert "landmarks" in capsys.readouterr().out


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
