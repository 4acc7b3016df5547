"""Train/test experiment protocol over one planning domain.

Each repetition shuffles the problem list with its own seeded RNG, learns a
lifted ordering graph from the training split, instantiates a probabilistic
landmark graph for every test task, and scores it against a reference
landmark graph (the built-in extractor by default, or pre-extracted files
from a reference directory).  Reported numbers are arithmetic means, first
within a repetition and then across repetitions.  A second report compares
grounded-landmark recall against the brute-force oracle, side by side for
the instantiated graph and the native extractor.

`run_experiment` returns both as one JSON-ready dict: `overall` means,
`oracle_recall` rows and the `repetitions`, each with its split, timings,
`means` and per-task `report` dicts.  `result_to_json` prints that dict, and
the three text renderers read it.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .lgg import LGG, extract_lgg, oracle_landmarks, read_lgg
from .instantiate import extract_result, instantiate_task
from .metrics import align_columns, compare, mean_reports, render_table, report_to_dict
from .pddl import GroundTask, ground_task, parse_domain, parse_problem, read_text
from .plog import learn_plog


def check_ranges(top_n: int, threshold: float) -> None:
    """Reject a `top_n` below 1 and a `threshold` outside [0, 1], NaN included."""
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")


@dataclass
class ExperimentConfig:
    domain_path: str
    problem_paths: list[str]
    train_count: int = 4
    test_count: int = 10
    repetitions: int = 5
    seed: int = 0
    top_n: int = 1
    threshold: float = 0.0
    reference_dir: str | None = None
    oracle_baseline: bool = True

    def validate(self) -> None:
        stems = Counter(Path(p).stem for p in self.problem_paths)
        for stem, count in sorted(stems.items()):
            if count > 1:
                raise ValueError(f"problem stem {stem!r} is given {count} times; "
                                 "stems name the tasks and must be distinct")
        if self.train_count < 1 or self.test_count < 1:
            raise ValueError("train and test splits must each hold at least one task")
        if self.train_count + self.test_count > len(self.problem_paths):
            raise ValueError(
                f"split needs {self.train_count}+{self.test_count} problems "
                f"but only {len(self.problem_paths)} were given")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        check_ranges(self.top_n, self.threshold)


class _Corpus:
    """Parsed domain plus lazily grounded and scored problems, shared
    across repetitions so overlapping splits never redo work."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.domain = parse_domain(read_text(config.domain_path))
        self.paths = sorted(config.problem_paths)
        self._tasks: dict[str, GroundTask] = {}
        self._native: dict[str, tuple[LGG, float]] = {}
        self._references: dict[str, tuple[LGG, float]] = {}
        self._oracles: dict[str, set] = {}

    def task(self, path: str) -> GroundTask:
        if path not in self._tasks:
            problem = parse_problem(read_text(path), self.domain)
            self._tasks[path] = ground_task(self.domain, problem)
        return self._tasks[path]

    def native_lgg(self, path: str) -> tuple[LGG, float]:
        """The built-in extractor's graph and the seconds it took."""
        if path not in self._native:
            start = time.perf_counter()
            lgg = extract_lgg(self.task(path))
            self._native[path] = (lgg, time.perf_counter() - start)
        return self._native[path]

    def reference_lgg(self, path: str) -> tuple[LGG, float]:
        """The native graph, or the reference directory's file if one is set."""
        if self.config.reference_dir is None:
            return self.native_lgg(path)
        if path not in self._references:
            ref = Path(self.config.reference_dir) / f"{Path(path).stem}.lgg.json"
            if not ref.exists():
                raise FileNotFoundError(f"no reference graph for {path}: {ref}")
            self._references[path] = (read_lgg(ref), 0.0)
        return self._references[path]

    def oracle(self, path: str) -> set:
        if path not in self._oracles:
            self._oracles[path] = oracle_landmarks(self.task(path))
        return self._oracles[path]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the protocol and return its report, the object `result_to_json`
    prints: `overall` means, `oracle_recall` rows and `repetitions`."""
    config.validate()
    corpus = _Corpus(config)
    repetitions = []
    for rep in range(config.repetitions):
        rep_seed = config.seed + rep
        rng = random.Random(rep_seed)
        order = rng.sample(corpus.paths, len(corpus.paths))
        train = order[:config.train_count]
        test = order[config.train_count:config.train_count + config.test_count]

        extract_seconds = 0.0
        train_lggs = []
        for path in train:
            lgg, seconds = corpus.reference_lgg(path)
            extract_seconds += seconds
            train_lggs.append(lgg)
        start = time.perf_counter()
        plog = learn_plog(train_lggs, domain=corpus.domain.name)
        learn_seconds = time.perf_counter() - start

        tasks = []
        for path in test:
            task = corpus.task(path)
            start = time.perf_counter()
            plgg = instantiate_task(plog, task, top_n=config.top_n)
            seconds = time.perf_counter() - start
            content = extract_result(plgg, threshold=config.threshold)
            reference, _ = corpus.reference_lgg(path)
            plgg_recall = native_recall = None
            if config.oracle_baseline:
                oracle = corpus.oracle(path)
                native = set(corpus.native_lgg(path)[0].vertices)
                plgg_recall = len(content.landmarks_grounded & oracle) / len(oracle)
                native_recall = len(native & oracle) / len(oracle)
            tasks.append({"task": Path(path).stem,
                          "instantiate_seconds": seconds,
                          "report": report_to_dict(compare(reference, content)),
                          "plgg_oracle_recall": plgg_recall,
                          "native_oracle_recall": native_recall})
        repetitions.append({"index": rep, "seed": rep_seed,
                            "train": [Path(p).stem for p in train],
                            "test": [Path(p).stem for p in test],
                            "extract_seconds": extract_seconds,
                            "learn_seconds": learn_seconds,
                            "means": mean_reports(t["report"] for t in tasks),
                            "tasks": tasks})
    return {
        "overall": mean_reports(t["report"] for rep in repetitions for t in rep["tasks"]),
        "oracle_recall": [{"repetition": rep["index"], "task": t["task"],
                           "plgg_recall": t["plgg_oracle_recall"],
                           "native_recall": t["native_oracle_recall"]}
                          for rep in repetitions for t in rep["tasks"]
                          if t["plgg_oracle_recall"] is not None],
        "repetitions": repetitions,
    }


# --- reports ------------------------------------------------------------------


def result_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_score_report(report: dict) -> str:
    """Mean scores per repetition plus the overall mean, as a text table."""
    rows = {f"rep{rep['index']}": rep["means"] for rep in report["repetitions"]}
    rows["mean"] = report["overall"]
    return render_table(rows)


def render_oracle_report(report: dict) -> str:
    """Grounded-landmark recall vs the brute-force oracle, per test task."""
    rows = report["oracle_recall"]
    if not rows:
        return "oracle baseline disabled\n"
    lines = [[str(row["repetition"]), row["task"],
              f"{row['plgg_recall']:.3f}", f"{row['native_recall']:.3f}"] for row in rows]
    plgg_mean = sum(r["plgg_recall"] for r in rows) / len(rows)
    native_mean = sum(r["native_recall"] for r in rows) / len(rows)
    lines.append(["mean", "-", f"{plgg_mean:.3f}", f"{native_mean:.3f}"])
    return align_columns("rep  task  plgg_recall  native_recall".split(), lines)


def render_timing_report(report: dict) -> str:
    lines = []
    for rep in report["repetitions"]:
        inst = [t["instantiate_seconds"] for t in rep["tasks"]]
        lines.append(
            f"rep{rep['index']}: learn {rep['learn_seconds'] * 1000:.0f} ms, "
            f"instantiate {min(inst) * 1000:.0f}-{max(inst) * 1000:.0f} ms/task")
    return "\n".join(lines) + "\n"
