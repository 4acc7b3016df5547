"""`tools/ab.py` on a throwaway repository whose benchmark command is a
stub: two commits, each stub printing a fixed result line, so the runner's
checkouts, pairing, order, hash seeds and summary are checked without a
real benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"

BENCHMARK = {
    "command": [sys.executable, "stub.py"],
    "run_seconds": 20,
    "end_to_end": [{"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
                   {"name": "landmark_f1", "unit": "ratio", "better": "higher", "bound": 0.01}],
}

# Logs its side, argv and hash seed, then prints, as perfbench/run.py does,
# the machine speed {speed} and the op_s.p50 it scaled from the measured
# {raw} plus the hash seed / 100, then a result line whose op_s.p50 is {op}
# plus the hash seed / 100, and then runs {tail}.
STUB = """import json, os, sys
with open(os.environ["AB_STUB_LOG"], "a") as log:
    log.write(json.dumps(["{side}", sys.argv[1:], os.environ["PYTHONHASHSEED"]]) + "\\n")
seed = int(os.environ["PYTHONHASHSEED"])
print("a line before the result")
print("  machine speed {speed:g} of the reference (median probe 0.01 s); times below are at "
      "the reference speed")
print(f"  op_s.p50     {{{op} + seed / 100:.6g}} s (measured {{{raw} + seed / 100:.6g}})")
print("  landmark_f1  1 ratio")
print(json.dumps({{"correct": {correct}, "attempted": 3, "failed": {failed}, "metrics": {{
    "op_s.p50": {{"value": {op} + seed / 100, "unit": "s"}},
    "landmark_f1": {{"value": 1.0, "unit": "ratio"}}}}}}))
{tail}
"""


def commit(repo, side, op, correct=True, failed=0, tail="", raw=None, speed=1.0):
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "stub.py").write_text(STUB.format(side=side, op=op, correct=correct, failed=failed,
                                              tail=tail, raw=op if raw is None else raw,
                                              speed=speed))
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.org", "commit",
                    "-q", "-m", side], cwd=repo, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    # the change wins scaled and loses measured: the probe read the parent's
    # runs at 2.5 times the reference speed, and the change's at 0.8
    parent = commit(repo, "parent", 1.0, raw=0.4, speed=2.5)
    change = commit(repo, "change", 0.5, raw=0.6, speed=0.8)
    return repo, parent, change


def run_ab(repo, log, *args, check=True):
    env = {**os.environ, "AB_STUB_LOG": str(log)}
    return subprocess.run([sys.executable, str(AB), *args], cwd=repo, env=env, check=check,
                          capture_output=True, text=True)


def test_pairs_alternate_and_summarize(repo, tmp_path):
    repo, parent, change = repo
    log, out = tmp_path / "log", tmp_path / "bench.json"
    run_ab(repo, log, "HEAD~1", "HEAD", "--workload", "w", "--pairs", "3", "--seconds", "2",
           "--out", str(out))
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(side, seed) for side, _, seed in calls] == [
        ("parent", "1"), ("change", "1"), ("change", "2"), ("parent", "2"),
        ("parent", "3"), ("change", "3")]
    assert {tuple(argv) for _, argv, _ in calls} == {
        ("--workload", "w", "--seed", "1", "--seconds", "2", "--trace", "0")}

    result = json.loads(out.read_text())
    assert list(result) == ["parent", "change", "aa", "how", "workload", "pairs", "seconds",
                            "runs", "metrics"]
    assert (result["parent"], result["change"], result["aa"]) == (parent, change, False)
    assert [run["first"] for run in result["runs"]] == ["parent", "change", "parent"]
    assert all(run[side]["correct"] for run in result["runs"] for side in ("parent", "change"))
    op = result["metrics"]["op_s.p50"]
    assert op["better"] == "lower" and op["change_wins"] == 3
    assert op["parent"] == {"median": 1.02, "quartiles": pytest.approx([1.015, 1.02, 1.025])}
    assert op["change"]["median"] == 0.52
    assert op["ratios"] == pytest.approx([0.51 / 1.01, 0.52 / 1.02, 0.53 / 1.03])
    assert op["ratio_median"] == pytest.approx(0.52 / 1.02)
    f1 = result["metrics"]["landmark_f1"]
    assert f1["change_wins"] == 0 and f1["ratios"] == [1.0, 1.0, 1.0]
    assert "measured" not in f1
    # each run keeps its speed and measured times, and both figures are paired
    assert [(run["parent"]["speed"], run["change"]["speed"]) for run in result["runs"]] == [
        (2.5, 0.8)] * 3
    assert [run["change"]["measured"] for run in result["runs"]] == [
        {"op_s.p50": 0.61}, {"op_s.p50": 0.62}, {"op_s.p50": 0.63}]
    measured = op["measured"]
    assert list(measured) == ["parent", "change", "ratios", "ratio_median", "change_wins"]
    assert measured["parent"] == {"median": 0.42,
                                  "quartiles": pytest.approx([0.415, 0.42, 0.425])}
    assert measured["change"]["median"] == 0.62
    assert measured["ratios"] == pytest.approx([0.61 / 0.41, 0.62 / 0.42, 0.63 / 0.43])
    assert measured["ratio_median"] == pytest.approx(0.62 / 0.42)
    assert measured["change_wins"] == 0


# What perfbench/run.py prints above its result line, traced, as one run gave it
RUN_OUTPUT = """\
workload ladder-extract, seed 1: 36 operations per pass, 2 untraced and 1 traced passes
  machine speed 1.066 of the reference (median probe 0.00844464 s); times below are at the \
reference speed
  setup_s      0.130513 s (measured 0.122459)
  wall_s       0.334175 s (measured 0.313554)
  op_s.p50     0.00694174 s (measured 0.00651339)
  peak_rss_mb  28.0352 MB
  landmark_f1  1 ratio
  ordering_f1  1 ratio
  op samples   72 (behind op_s.p50)
  error_rate   0 (0 of 72 operations)
  pddl.parse_s                   0.000612 s/op
  spans written to perfbench/out/trace-ladder-extract-seed1.json
"""


def test_the_speed_and_measured_times_are_read_from_the_run_output():
    spec = importlib.util.spec_from_file_location("ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    assert ab.read_output(RUN_OUTPUT.splitlines()) == (
        1.066, {"setup_s": 0.122459, "wall_s": 0.313554, "op_s.p50": 0.00651339})
    assert ab.read_output(["a line before the result"]) == (None, {})


def test_the_seed_reaches_every_run(repo, tmp_path):
    repo, _, _ = repo
    log, out = tmp_path / "log", tmp_path / "bench.json"
    run_ab(repo, log, "HEAD~1", "HEAD", "--workload", "w", "--pairs", "2", "--seed", "7",
           "--seconds", "2", "--out", str(out))
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(calls) == 4 and {tuple(argv) for _, argv, _ in calls} == {
        ("--workload", "w", "--seed", "7", "--seconds", "2", "--trace", "0")}
    result = json.loads(out.read_text())
    assert "--seed 7 " in result["how"]


def test_same_commit_is_an_aa_run(repo, tmp_path):
    repo, _, change = repo
    log, out = tmp_path / "log", tmp_path / "bench.json"
    run_ab(repo, log, "HEAD", change, "--workload", "w", "--pairs", "1", "--out", str(out))
    result = json.loads(out.read_text())
    assert (result["parent"], result["change"], result["aa"]) == (change, change, True)
    assert result["how"].startswith("A/A")
    assert result["seconds"] == 20
    assert result["metrics"]["op_s.p50"]["change_wins"] == 0
    assert result["metrics"]["op_s.p50"]["parent"]["quartiles"] == [0.51] * 3


@pytest.mark.parametrize("correct,failed", [(False, 1), (True, 2), (False, 0)])
def test_an_incorrect_run_stops_the_runner(repo, tmp_path, correct, failed):
    repo, _, _ = repo
    commit(repo, "change", 0.5, correct=correct, failed=failed)
    log, out = tmp_path / "log", tmp_path / "bench.json"
    done = run_ab(repo, log, "HEAD~2", "HEAD", "--workload", "w", "--pairs", "3",
                  "--out", str(out), check=False)
    assert done.returncode != 0
    assert "pair 1, change" in done.stderr and "not correct" in done.stderr
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(side, seed) for side, _, seed in calls] == [("parent", "1"), ("change", "1")]
    assert not out.exists()


@pytest.mark.parametrize("last", ["not json", "[1, 2]"])
def test_a_malformed_last_line_stops_the_runner(repo, tmp_path, last):
    repo, _, _ = repo
    commit(repo, "change", 0.5, tail=f"print({last!r})")
    log, out = tmp_path / "log", tmp_path / "bench.json"
    done = run_ab(repo, log, "HEAD~2", "HEAD", "--workload", "w", "--pairs", "3",
                  "--out", str(out), check=False)
    assert done.returncode != 0
    assert "pair 1, change" in done.stderr and "not a JSON object" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()
