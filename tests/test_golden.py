"""Golden gates on the shipped corpus: `plgg evaluate --json`, timing fields
aside, must equal the reference the benchmark checks against, and the text
report, timing lines aside, must equal `tests/golden/corpus-evaluate.txt`."""

import json
import re
from pathlib import Path

from plgg.cli import EXIT_OK, main

REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "references"
             / "corpus-evaluate.json")
TEXT_REFERENCE = Path(__file__).resolve().parent / "golden" / "corpus-evaluate.txt"
TIMING_LINE = re.compile(r"^rep\d+: learn .* ms/task\n", re.MULTILINE)


def without_seconds(value):
    if isinstance(value, dict):
        return {k: without_seconds(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [without_seconds(v) for v in value]
    return value


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
