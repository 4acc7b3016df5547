"""Golden gate: `plgg evaluate --json` on the shipped corpus, timing fields
aside, must equal the reference the benchmark checks against."""

import json
from pathlib import Path

from plgg.cli import EXIT_OK, main

REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "references"
             / "corpus-evaluate.json")


def without_seconds(value):
    if isinstance(value, dict):
        return {k: without_seconds(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [without_seconds(v) for v in value]
    return value


def test_corpus_evaluate_matches_golden_output(bench_dir, capsys):
    problems = sorted(str(p) for p in bench_dir.glob("p*.pddl"))
    assert main(["evaluate", str(bench_dir / "domain.pddl"), *problems, "--json"]) == EXIT_OK
    report = without_seconds(json.loads(capsys.readouterr().out))
    assert report == json.loads(REFERENCE.read_text())
