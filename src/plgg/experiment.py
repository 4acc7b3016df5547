"""Train/test experiment protocol over one planning domain.

Each repetition shuffles the problem list with its own seeded RNG, learns a
lifted ordering graph from the training split, instantiates a probabilistic
landmark graph for every test task, and scores it against a reference
landmark graph (the built-in extractor by default, or pre-extracted files
from a reference directory).  Reported numbers are arithmetic means, first
within a repetition and then across repetitions.  A second report compares
grounded-landmark recall against the oracle's exact landmark set
(`oracle_landmarks`), side by side for the instantiated graph and the
native extractor.

`run_experiment` returns both as one JSON-ready dict: `overall` means,
`oracle_recall` rows and the `repetitions`, each with its split, timings,
`means` and per-task `report` dicts, each task's exactly as
`plgg.metrics.compare` returned it.  `result_to_json` prints that dict, and
the three text renderers read it.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

from .lgg import LGG, extract_lgg, oracle_landmarks, read_lgg
from .instantiate import extract_result, instantiate_task
from .metrics import _prf, align_columns, compare, mean, mean_reports, render_table
from .pddl import GroundTask, ground_task, parse_domain, parse_problem, read_file
from .plog import learn_plog


class ConfigError(ValueError):
    """An option or a set of inputs that no run accepts: a usage error,
    which the command line reports with exit code 1."""


def check_ranges(top_n: int, threshold: float) -> None:
    """Reject a `top_n` below 1 and a `threshold` outside [0, 1], NaN included."""
    if top_n < 1:
        raise ConfigError(f"top_n must be at least 1, got {top_n}")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")


def check_distinct_stems(problem_paths: list[str]) -> None:
    """Stems name the tasks and their output files, so a repeated one
    raises `ConfigError`."""
    stems = Counter(Path(p).stem for p in problem_paths)
    for stem, count in sorted(stems.items()):
        if count > 1:
            raise ConfigError(f"problem stem {stem!r} is given {count} times; "
                              "stems name the tasks and must be distinct")


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
        check_distinct_stems(self.problem_paths)
        if self.train_count < 1 or self.test_count < 1:
            raise ConfigError("train and test splits must each hold at least one task")
        if self.train_count + self.test_count > len(self.problem_paths):
            raise ConfigError(
                f"split needs {self.train_count}+{self.test_count} problems "
                f"but only {len(self.problem_paths)} were given")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        check_ranges(self.top_n, self.threshold)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the protocol and return its report, the object `result_to_json`
    prints: `overall` means, `oracle_recall` rows and `repetitions`."""
    config.validate()
    domain = read_file(config.domain_path, parse_domain)
    paths = sorted(config.problem_paths)

    # each problem is grounded, extracted, read and labelled at most once a run
    @cache
    def task(path: str) -> GroundTask:
        return ground_task(domain, read_file(path, partial(parse_problem, domain=domain)))

    @cache
    def native_lgg(path: str) -> tuple[LGG, float]:
        """The built-in extractor's graph and the seconds it took."""
        start = time.perf_counter()
        lgg = extract_lgg(task(path))
        return lgg, time.perf_counter() - start

    @cache
    def reference_lgg(path: str) -> tuple[LGG, float]:
        """The native graph, or the reference directory's file if one is set."""
        if config.reference_dir is None:
            return native_lgg(path)
        ref = Path(config.reference_dir) / f"{Path(path).stem}.lgg.json"
        if not ref.exists():
            raise FileNotFoundError(f"no reference graph for {path}: {ref}")
        return read_lgg(ref), 0.0

    oracle = cache(lambda path: oracle_landmarks(task(path)))

    repetitions = []
    for rep in range(config.repetitions):
        rep_seed = config.seed + rep
        rng = random.Random(rep_seed)
        order = rng.sample(paths, len(paths))
        train = order[:config.train_count]
        test = order[config.train_count:config.train_count + config.test_count]

        extract_seconds = 0.0
        train_lggs = []
        for path in train:
            lgg, seconds = reference_lgg(path)
            extract_seconds += seconds
            train_lggs.append(lgg)
        start = time.perf_counter()
        plog = learn_plog(train_lggs, domain=domain.name)
        learn_seconds = time.perf_counter() - start

        tasks = []
        for path in test:
            grounded = task(path)
            start = time.perf_counter()
            plgg = instantiate_task(plog, grounded, top_n=config.top_n)
            seconds = time.perf_counter() - start
            content = extract_result(plgg, threshold=config.threshold)
            reference, _ = reference_lgg(path)
            plgg_recall = native_recall = None
            if config.oracle_baseline:
                landmarks = oracle(path)
                native = set(native_lgg(path)[0].vertices)
                # an empty oracle set is recalled in full by a side that found nothing
                plgg_recall, native_recall = (
                    _prf(len(found & landmarks), len(found), len(landmarks)).recall
                    for found in (content.landmarks_grounded, native))
            tasks.append({"task": Path(path).stem,
                          "instantiate_seconds": seconds,
                          "report": compare(reference, content),
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
    """Grounded-landmark recall per test task against the oracle's landmarks,
    which one `landmark_labels` pass on the task gives."""
    rows = report["oracle_recall"]
    if not rows:
        return "oracle baseline disabled\n"
    lines = [[str(row["repetition"]), row["task"],
              f"{row['plgg_recall']:.3f}", f"{row['native_recall']:.3f}"] for row in rows]
    lines.append(["mean", "-"] + [f"{mean([row[key] for row in rows]):.3f}"
                                  for key in ("plgg_recall", "native_recall")])
    return align_columns("rep  task  plgg_recall  native_recall".split(), lines)


def render_timing_report(report: dict) -> str:
    lines = []
    for rep in report["repetitions"]:
        inst = [t["instantiate_seconds"] for t in rep["tasks"]]
        lines.append(
            f"rep{rep['index']}: learn {rep['learn_seconds'] * 1000:.0f} ms, "
            f"instantiate {min(inst) * 1000:.0f}-{max(inst) * 1000:.0f} ms/task")
    return "\n".join(lines) + "\n"
