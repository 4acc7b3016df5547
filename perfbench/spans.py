"""Spans recorded around the program's public functions, from outside it.

Tracing replaces a function at every module attribute of the ``plgg``
package that holds it, so calls through ``from .lgg import extract_lgg``
and calls inside the defining module are both seen.  Spans carry a parent
link and the operation they belong to; they stay in memory until the run
writes them out.  Removing the wrappers restores the original attributes,
and a run without tracing never installs them.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# (module, function, what to record from its result).  The module is the
# one that defines the function; the layer is the module's last name, with
# the CLI counted as part of the experiment layer.
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("plgg.pddl", "parse_domain", None),
    ("plgg.pddl", "parse_problem", None),
    ("plgg.pddl", "ground_task", lambda t: {"facts": len(t.facts), "actions": len(t.actions)}),
    ("plgg.lgg", "extract_lgg", lambda g: {"vertices": len(g.vertices), "edges": len(g.edges)}),
    ("plgg.lgg", "relaxed_levels", None),
    ("plgg.lgg", "is_landmark_oracle", lambda v: {"accepted": int(v.is_landmark)}),
    ("plgg.lgg", "oracle_landmarks", None),
    ("plgg.lgg", "lgg_to_json", None),
    ("plgg.plog", "learn_plog", lambda p: {"edges": len(p.probs)}),
    ("plgg.plog", "plog_from_json", lambda p: {"edges": len(p.probs)}),
    ("plgg.instantiate", "instantiate_task", lambda p: {"nodes": len(p.nodes)}),
    ("plgg.instantiate", "generate_plgg_goal", None),
    ("plgg.instantiate", "generate_plgg_init", None),
    ("plgg.instantiate", "combine", None),
    ("plgg.instantiate", "instantiation", None),
    ("plgg.instantiate", "search_best_equiv", None),
    ("plgg.instantiate", "apply_instantiation", None),
    ("plgg.instantiate", "extract_result", None),
    ("plgg.instantiate", "plgg_to_json", None),
    ("plgg.metrics", "compare", None),
    ("plgg.experiment", "run_experiment", None),
    ("plgg.experiment", "result_to_json", None),
    ("plgg.cli", "main", None),
]

# Warning emitted by the instantiation rewrite for each binding it drops.
DROPPED_BINDING = "binding %s -> %s violates a distinct-value constraint; skipped"


def layer_of(name: str) -> str:
    layer = name.split(".")[1]
    return "experiment" if layer == "cli" else layer


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the target functions and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = 0

    def wrap(self, name: str, fn: Callable, describe: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.info = describe(result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracing is already installed")
        modules = {n: m for n, m in sys.modules.items()
                   if (n == "plgg" or n.startswith("plgg.")) and m is not None}
        for module_name, fn_name, describe in TARGETS:
            fn = getattr(modules[module_name], fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", fn, describe)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.id, s.parent, s.op, s.name, s.start, s.end, s.info] for s in self.spans]
        path.write_text(json.dumps({"fields": ["id", "parent", "op", "name", "start",
                                               "end", "info"], "spans": rows}) + "\n")


class LogCounter(logging.Handler):
    """Counts the program's log records by message template."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.msg] += 1


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# Per-layer metrics: name -> unit.  Times and counts are per operation.
PER_LAYER_UNITS = {
    "pddl.parse_s": "s/op", "pddl.ground_s": "s/op",
    "pddl.facts": "count/op", "pddl.actions": "count/op",
    "lgg.extract_s": "s/op", "lgg.extract_self_s": "s/op", "lgg.extract_calls": "count/op",
    "lgg.levels_s": "s/op", "lgg.verdict_s": "s/op", "lgg.verdicts": "count/op",
    "lgg.verdict_yield": "ratio", "lgg.oracle_all_s": "s/op",
    "lgg.vertices": "count/op", "lgg.edges": "count/op",
    "plog.learn_s": "s/op", "plog.edges": "count/op", "plog.from_json_s": "s/op",
    "instantiate.goal_side_s": "s/op", "instantiate.init_side_s": "s/op",
    "instantiate.combine_s": "s/op", "instantiate.combine_self_s": "s/op",
    "instantiate.passes": "count/op", "instantiate.equiv_searches": "count/op",
    "instantiate.equiv_s": "s/op", "instantiate.rewrite_s": "s/op",
    "instantiate.nodes": "count/op", "instantiate.bindings_dropped": "count/op",
    "instantiate.extract_result_s": "s/op", "instantiate.to_json_s": "s/op",
    "metrics.compare_s": "s/op", "experiment.self_s": "s/op",
    "trace.spans": "count/op", "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], ops: int, dropped_bindings: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer values from the spans of `ops` traced operations."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    info: Counter = Counter()
    for s in spans:
        short = s.name.split(".")[-1]
        total[short] += s.duration
        calls[short] += 1
        for key, value in s.info.items():
            info[f"{short}.{key}"] += value

    # Verdicts of the back-chaining extractor, not those of oracle_landmarks.
    verdicts = [s for s in spans if s.name == "plgg.lgg.is_landmark_oracle"
                and s.parent is not None and by_id[s.parent].name == "plgg.lgg.extract_lgg"]

    def self_of(pred) -> float:
        return sum(own[s.id] for s in spans if pred(s))

    values = {
        "pddl.parse_s": total["parse_domain"] + total["parse_problem"],
        "pddl.ground_s": total["ground_task"],
        "pddl.facts": info["ground_task.facts"],
        "pddl.actions": info["ground_task.actions"],
        "lgg.extract_s": total["extract_lgg"],
        "lgg.extract_self_s": self_of(lambda s: s.name == "plgg.lgg.extract_lgg"),
        "lgg.extract_calls": calls["extract_lgg"],
        "lgg.levels_s": total["relaxed_levels"],
        "lgg.verdict_s": sum(s.duration for s in verdicts),
        "lgg.verdicts": len(verdicts),
        "lgg.oracle_all_s": total["oracle_landmarks"],
        "lgg.vertices": info["extract_lgg.vertices"],
        "lgg.edges": info["extract_lgg.edges"],
        "plog.learn_s": total["learn_plog"],
        "plog.edges": info["learn_plog.edges"] + info["plog_from_json.edges"],
        "plog.from_json_s": total["plog_from_json"],
        "instantiate.goal_side_s": total["generate_plgg_goal"],
        "instantiate.init_side_s": total["generate_plgg_init"],
        "instantiate.combine_s": total["combine"],
        "instantiate.combine_self_s": self_of(lambda s: s.name == "plgg.instantiate.combine"),
        "instantiate.passes": calls["instantiation"],
        "instantiate.equiv_searches": calls["search_best_equiv"],
        "instantiate.equiv_s": total["search_best_equiv"],
        "instantiate.rewrite_s": total["apply_instantiation"],
        "instantiate.nodes": info["instantiate_task.nodes"],
        "instantiate.bindings_dropped": dropped_bindings,
        "instantiate.extract_result_s": total["extract_result"],
        "instantiate.to_json_s": total["plgg_to_json"],
        "metrics.compare_s": total["compare"],
        "experiment.self_s": self_of(lambda s: s.name.startswith("plgg.")
                                     and layer_of(s.name) == "experiment"),
        "trace.spans": sum(1 for s in spans if s.name.startswith("plgg.")),
    }
    out = {name: value / ops for name, value in values.items()}
    accepted = sum(s.info.get("accepted", 0) for s in verdicts)
    out["lgg.verdict_yield"] = accepted / len(verdicts) if verdicts else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
