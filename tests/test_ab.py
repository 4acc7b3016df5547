"""`tools/ab.py` on a throwaway repository whose benchmark command is a
stub: two commits, each stub printing a fixed result line, so the runner's
checkouts, pairing, order, hash seeds and summary are checked without a
real benchmark run."""

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

# Logs its side, argv and hash seed, then prints a result line whose
# op_s.p50 is {op} plus the hash seed / 100, and then runs {tail}.
STUB = """import json, os, sys
with open(os.environ["AB_STUB_LOG"], "a") as log:
    log.write(json.dumps(["{side}", sys.argv[1:], os.environ["PYTHONHASHSEED"]]) + "\\n")
seed = int(os.environ["PYTHONHASHSEED"])
print("a line before the result")
print(json.dumps({{"correct": {correct}, "attempted": 3, "failed": {failed}, "metrics": {{
    "op_s.p50": {{"value": {op} + seed / 100, "unit": "s"}},
    "landmark_f1": {{"value": 1.0, "unit": "ratio"}}}}}}))
{tail}
"""


def commit(repo, side, op, correct=True, failed=0, tail=""):
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "stub.py").write_text(STUB.format(side=side, op=op, correct=correct, failed=failed,
                                              tail=tail))
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
    parent = commit(repo, "parent", 1.0)
    change = commit(repo, "change", 0.5)
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
