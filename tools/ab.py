#!/usr/bin/env python3
"""Paired A/B runs of the benchmark on two commits.

    tools/ab.py PARENT CHANGE --workload W --pairs N [--seed K] [--seconds S] [--out PATH]

Both commits are exported with ``git archive`` into a temporary directory.
Each run executes the ``command`` of that checkout's ``BENCHMARK.json``,
unchanged, with ``--workload W --seed K --seconds S --trace 0``, from the
checkout's root.  Pair ``i`` (1, 2, ...) runs both sides under
``PYTHONHASHSEED=i``; odd pairs run the parent first, even pairs the change
first.  ``--seed`` picks the workload's tasks and defaults to 1;
``--seconds`` defaults to the benchmark's ``run_seconds``.  When
PARENT and CHANGE name the same commit, the result is an A/A run, which
shows how far two runs of identical code spread.  A run that exits
non-zero, or whose last line is not a JSON object with ``"correct": true``
and ``"failed": 0``, stops the runner with a non-zero exit that names its
pair and side, and no result is written.  Beside that line, each run
records the ``speed`` and the ``measured`` times that ``perfbench/run.py``
prints above it: the machine speed against the reference, by which it
scales every time, and each time before scaling ("(measured X)").

The result, written to ``--out`` (default ``BENCH_ab_<workload>.json``), has
a fixed layout: ``parent`` and ``change`` (the commit ids), ``aa``,
``how``, ``workload``, ``pairs``, ``seconds``, ``runs`` (per pair, the order
and each side's last output line, with its ``speed`` and ``measured``) and
``metrics``.  For each end-to-end
metric of the parent's ``BENCHMARK.json``, ``metrics`` holds ``better``,
each side's median and inclusive quartiles, the per-pair ratios
change / parent with their median, and ``change_wins``, the pairs in which
the change is strictly better.  A metric that every run also measured
unscaled, each time metric of ``perfbench/run.py``, holds the same figures
for the measured values under ``measured``.  The probe's speed moves more
than the program's, so cite both; where they disagree, say so.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# what perfbench/run.py prints above its result line: the machine speed,
# and each scaled time with its measured value
SPEED = re.compile(r"machine speed (\S+) of the reference")
MEASURED = re.compile(r"^\s+(\S+)\s+\S+\s+\S+\s+\(measured (\S+)\)$")


def git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export(repo: Path, commit: str, target: Path) -> None:
    """The files of `commit`, as `git archive` gives them, under `target`."""
    target.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=git("archive", commit, cwd=repo),
                   check=True)


def read_output(lines: list[str]) -> tuple[float | None, dict[str, float]]:
    """The machine speed and the measured times, by metric name, that a
    run printed above its result line; None and {} where it printed none."""
    speeds = [float(m[1]) for m in map(SPEED.search, lines) if m]
    measured = {m[1]: float(m[2]) for m in map(MEASURED.match, lines) if m}
    return (speeds[-1] if speeds else None), measured


def run_once(checkout: Path, workload: str, seed: int, seconds: float, pair: int) -> dict:
    """The last line of one benchmark run in `checkout`, as JSON, with the
    `speed` and `measured` times the run printed above it; a run that
    fails, or whose line is not a JSON object with `"correct": true` and
    `"failed": 0`, ends the A/B run, naming the pair and the side."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    argv = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": str(pair)})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"ab: pair {pair}, {checkout.name}: {' '.join(argv)} exited with "
                 f"{done.returncode}:\n{done.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        sys.exit(f"ab: pair {pair}, {checkout.name}: the last line is not a JSON object:\n"
                 f"{lines[-1][-2000:]}")
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"ab: pair {pair}, {checkout.name}: the run is not correct "
                 f"(correct: {result.get('correct')}, failed: {result.get('failed')}):\n"
                 f"{lines[-1]}")
    result["speed"], result["measured"] = read_output(lines[:-1])
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def paired(parent: list[float], change: list[float], lower: bool) -> dict:
    """Each side's median and quartiles, the per-pair ratios change /
    parent with their median, and the pairs the change wins."""
    ratios = [c / p if p else None for p, c in zip(parent, change)]
    known = [r for r in ratios if r is not None]
    return {
        "parent": {"median": statistics.median(parent), "quartiles": quartiles(parent)},
        "change": {"median": statistics.median(change), "quartiles": quartiles(change)},
        "ratios": ratios,
        "ratio_median": statistics.median(known) if known else None,
        "change_wins": sum(c < p if lower else c > p for p, c in zip(parent, change)),
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, its `paired` figures; a metric that every run
    also measured unscaled has those figures under `measured` too."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        out[name] = {"better": metric["better"], **paired(parent, change, lower)}
        if all(name in run[side]["measured"] for run in runs for side in ("parent", "change")):
            parent = [run["parent"]["measured"][name] for run in runs]
            change = [run["change"]["measured"][name] for run in runs]
            out[name]["measured"] = paired(parent, change, lower)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo).decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}

    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        checkouts = {side: Path(scratch) / side for side in commits}
        for side, commit in commits.items():
            export(repo, commit, checkouts[side])
        benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
        runs = []
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            run = {"pair": pair, "first": order[0]}
            for side in order:
                run[side] = run_once(checkouts[side], args.workload, args.seed, seconds, pair)
                print(f"pair {pair} {side}: {json.dumps(run[side])}", file=sys.stderr)
            runs.append(run)

    aa = commits["parent"] == commits["change"]
    result = {
        "parent": commits["parent"],
        "change": commits["change"],
        "aa": aa,
        "how": (f"{'A/A: the same commit on both sides; ' if aa else ''}each side a git "
                f"archive of its commit; each run is the checkout's BENCHMARK.json command "
                f"with --workload {args.workload} --seed {args.seed} --seconds {seconds:g} "
                f"--trace 0, from the checkout's root; pair i runs both sides under "
                f"PYTHONHASHSEED=i, odd pairs the parent first, even pairs the change first; "
                f"ratios are change / parent per pair; quartiles are inclusive; "
                f"measured blocks hold the times before the machine-speed scaling"),
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": seconds,
        "runs": runs,
        "metrics": summarize(runs, benchmark["end_to_end"]),
    }
    out = Path(args.out or f"BENCH_ab_{args.workload}.json")
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
