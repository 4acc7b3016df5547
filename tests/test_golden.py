"""Golden gates: on the shipped corpus, `plgg evaluate --json`, timing
fields aside, must equal the reference the benchmark checks against, and the
text report, timing lines aside, must equal `tests/golden/corpus-evaluate.txt`.
On the gripper and courier fixtures, whose rewrites add lifted nodes,
`evaluate --json` must equal the reports in `tests/golden/`, with the
defaults, at `--top-n 2`, and at `--threshold 0.6`, where nodes and
orderings are dropped.  On one
held-out task per fixture domain, `plgg instantiate` must print, and write
with `--dot`, the bytes of the p-LGG JSON and DOT files in `tests/golden/`,
and `plgg learn --dot` must write the bytes of the blocksworld p-LOG DOT
file there."""

import json
import re
from pathlib import Path

import pytest

from plgg.cli import EXIT_OK, main

from conftest import BENCH, COURIER, FIXTURE_PLOGS, GRIPPER, without_seconds

REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "references"
             / "corpus-evaluate.json")
GOLDEN = Path(__file__).resolve().parent / "golden"
TEXT_REFERENCE = GOLDEN / "corpus-evaluate.txt"
TIMING_LINE = re.compile(r"^rep\d+: learn .* ms/task\n", re.MULTILINE)


def corpus_argv(bench_dir):
    problems = sorted(str(p) for p in bench_dir.glob("p*.pddl"))
    return ["evaluate", str(bench_dir / "domain.pddl"), *problems]


def test_corpus_evaluate_matches_golden_output(bench_dir, capsys):
    assert main(corpus_argv(bench_dir) + ["--json"]) == EXIT_OK
    report = without_seconds(json.loads(capsys.readouterr().out))
    assert report == json.loads(REFERENCE.read_text())


def test_corpus_evaluate_text_matches_golden_output(bench_dir, capsys):
    assert main(corpus_argv(bench_dir)) == EXIT_OK
    out = capsys.readouterr().out
    assert len(TIMING_LINE.findall(out)) == 5
    assert TIMING_LINE.sub("", out) == TEXT_REFERENCE.read_text()


# (fixture directory, split options) of each fixture domain's evaluation
FIXTURE_SPLITS = {"gripper": (GRIPPER, ["--train", "3", "--test", "3"]),
                  "courier": (COURIER, ["--train", "2", "--test", "3"])}


# golden file suffix -> the options it was written with
OPTIONS = {"": [], "-top-n-2": ["--top-n", "2"]}
# the p-LGG files of `instantiate` do not depend on the threshold, but the
# nodes and orderings that `evaluate` scores do
EVALUATE_OPTIONS = OPTIONS | {"-threshold-0.6": ["--threshold", "0.6"]}


@pytest.mark.parametrize("suffix", sorted(EVALUATE_OPTIONS),
                         ids=["defaults", "threshold-0.6", "top-n-2"])
@pytest.mark.parametrize("name", sorted(FIXTURE_SPLITS))
def test_fixture_evaluate_matches_golden_output(name, suffix, capsys):
    directory, split = FIXTURE_SPLITS[name]
    problems = sorted(str(p) for p in directory.glob("p*.pddl"))
    argv = ["evaluate", str(directory / "domain.pddl"), *problems, *split,
            *EVALUATE_OPTIONS[suffix]]
    assert main(argv + ["--json"]) == EXIT_OK
    report = without_seconds(json.loads(capsys.readouterr().out))
    assert report == json.loads((GOLDEN / f"{name}-evaluate{suffix}.json").read_text())


# golden name -> (domain directory, held-out task) of each instantiate golden;
# the p-LOG is learned from the domain's `FIXTURE_PLOGS` stems
INSTANTIATE_TASKS = {"blocksworld": (BENCH, "p06"), "gripper": (GRIPPER, "p02"),
                     "courier": (COURIER, "p04")}


@pytest.fixture(scope="module")
def plog_path(tmp_path_factory):
    """Golden name -> the p-LOG file that `plgg extract` and `plgg learn
    --dot` write from the domain's training tasks, each built once; its
    Graphviz file lies beside it."""
    cache = {}

    def build(name):
        if name not in cache:
            directory, _ = INSTANTIATE_TASKS[name]
            train = FIXTURE_PLOGS[directory]
            work = tmp_path_factory.mktemp(name)
            problems = [str(directory / f"{stem}.pddl") for stem in train]
            assert main(["extract", str(directory / "domain.pddl"), *problems,
                         "--out", str(work)]) == EXIT_OK
            lggs = [str(work / f"{stem}.lgg.json") for stem in train]
            assert main(["learn", *lggs, "--out", str(work / "plog.json"),
                         "--domain", directory.name, "--dot"]) == EXIT_OK
            cache[name] = work / "plog.json"
        return cache[name]

    return build


def test_blocksworld_learn_dot_matches_golden_output(plog_path):
    dot = plog_path("blocksworld").with_suffix(".dot")
    assert dot.read_text() == (GOLDEN / "blocksworld-plog.dot").read_text()


@pytest.mark.parametrize("suffix", sorted(OPTIONS), ids=["defaults", "top-n-2"])
@pytest.mark.parametrize("name", sorted(INSTANTIATE_TASKS))
def test_fixture_instantiate_matches_golden_output(name, suffix, plog_path, tmp_path, capsys):
    directory, task = INSTANTIATE_TASKS[name]
    argv = ["instantiate", str(plog_path(name)), str(directory / "domain.pddl"),
            str(directory / f"{task}.pddl"), *OPTIONS[suffix]]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / f"{task}.plgg.json"
    assert main(argv + ["--out", str(out), "--dot"]) == EXIT_OK
    golden = GOLDEN / f"{name}-{task}-instantiate{suffix}"
    assert printed == golden.with_name(golden.name + ".plgg.json").read_text()
    assert out.read_text() == printed
    dot = golden.with_name(golden.name + ".dot")
    assert out.with_suffix(".dot").read_text() == dot.read_text()
