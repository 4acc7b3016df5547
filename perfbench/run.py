#!/usr/bin/env python3
"""plgg benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload ladder-extract --seed 1 --seconds 20 --trace 0

A pass runs every operation of the workload once, each starting when the
previous one has finished; passes repeat until about ``--seconds`` have
been measured.  Every output is checked against the references.  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the result carries the per-layer metrics, while the spans are written
to ``perfbench/out/``.  See README.md beside this file.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Duration of one `probe()` on the machine the benchmark was written on, in
# a quiet period.  Times are reported at that machine speed; see `probe`.
PROBE_REFERENCE_S = 0.009

sys.path.insert(0, str(SRC))
try:
    import plgg  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
if not Path(plgg.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: plgg was imported from {plgg.__file__}, not from {SRC}")

from spans import DROPPED_BINDING, PER_LAYER_UNITS, LogCounter, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Prepared, prepare  # noqa: E402

IMPORTED = time.perf_counter()

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_s.p50": "s", "peak_rss_mb": "MB",
    "landmark_f1": "ratio", "ordering_f1": "ratio",
}


def probe() -> float:
    """Time a fixed piece of interpreter-bound work that uses nothing of the
    program: dict, set and tuple building over ints, then a sort.

    The shared machine's speed drifts by a third over minutes, for the probe
    and the program alike.  Scaling every end-to-end time by
    PROBE_REFERENCE_S / (the run's median probe) reports it at one reference
    speed, which removes most of that drift from comparisons between runs.
    Collection is off while it runs, so the program's heap does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        index: dict[int, set] = {}
        for i in range(20000):
            index.setdefault(i % 211, set()).add((i, i % 13))
        sum(len(frozenset(v)) for v in index.values())
        sorted(index.items(), key=lambda kv: (len(kv[1]), kv[0]))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Run:
    """Outcome of the measured passes of one run."""

    def __init__(self):
        self.pass_seconds: dict[bool, list[float]] = {False: [], True: []}
        self.op_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.scores: list[tuple[float, float]] = []   # F1 pair per operation of pass 1
        self.probes: list[float] = []
        self.traced_ops = 0
        self.dropped_bindings = 0


def run_pass(prepared: Prepared, run: Run, tracer: Tracer | None, log: LogCounter) -> None:
    results = []
    dropped_before = log.counts[DROPPED_BINDING]
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    probing = 0.0
    try:
        for op in prepared.ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = op.run()
                else:
                    tracer.op += 1
                    output = tracer.wrap("perfbench.op", op.run)()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, exc
            run.op_seconds.append(time.perf_counter() - t0)
            results.append((op.label, output, error))
            run.probes.append(probe())
            probing += run.probes[-1]
    finally:
        elapsed = time.perf_counter() - started - probing
        if tracer is not None:
            tracer.uninstall()
    run.pass_seconds[tracer is not None].append(elapsed)
    if tracer is not None:
        run.traced_ops += len(results)
        run.dropped_bindings += log.counts[DROPPED_BINDING] - dropped_before

    first_pass = not run.scores
    for label, output, error in results:
        run.attempted += 1
        if error is not None:
            ok, scores = False, (0.0, 0.0)
            print(f"operation {label} raised:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        else:
            ok, *scores = prepared.check(label, output)
            if not ok:
                print(f"operation {label}: output differs from the reference", file=sys.stderr)
        run.failed += not ok
        if first_pass:
            run.scores.append(tuple(scores))


def measure(prepared: Prepared, seconds: float, tracer: Tracer | None,
            log: LogCounter) -> Run:
    """Repeat passes until about `seconds` are measured: another pass
    starts unless it would end more than half a pass late.  With a tracer,
    untraced and traced passes alternate and at least one of each runs."""
    run = Run()
    started = time.perf_counter()
    traced = False
    while True:
        run_pass(prepared, run, tracer if traced else None, log)
        last = run.pass_seconds[traced][-1]
        if tracer is not None:
            traced = not traced
        elapsed = time.perf_counter() - started
        one_of_each = tracer is None or all(run.pass_seconds.values())
        if one_of_each and elapsed + last / 2 >= seconds:
            return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    log = LogCounter()
    logging.getLogger("plgg").addHandler(log)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prepared = prepare(workload, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = (IMPORTED - START) + statistics.median(setups)

    tracer = Tracer() if args.trace else None
    run = measure(prepared, args.seconds, tracer, log)

    untraced = run.pass_seconds[False]
    wall_s = statistics.median(untraced)
    raw_times = {"setup_s": setup_s, "wall_s": wall_s,
                 "op_s.p50": statistics.median(run.op_seconds)}
    speed = PROBE_REFERENCE_S / statistics.median(run.probes)
    end_to_end = {name: value * speed for name, value in raw_times.items()}
    end_to_end.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "landmark_f1": sum(s[0] for s in run.scores) / len(run.scores),
        "ordering_f1": sum(s[1] for s in run.scores) / len(run.scores),
    })

    print(f"workload {workload.name}, seed {args.seed}: {len(prepared.ops)} operations "
          f"per pass, {len(untraced)} untraced and {len(run.pass_seconds[True])} traced passes")
    print(f"  machine speed {speed:.4g} of the reference (median probe "
          f"{statistics.median(run.probes):.6g} s); times below are at the reference speed")
    for name, value in end_to_end.items():
        raw = f" (measured {raw_times[name]:.6g})" if name in raw_times else ""
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}{raw}")
    print(f"  {'op samples':<12} {len(run.op_seconds)} (behind op_s.p50)")
    print(f"  {'error_rate':<12} {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations)")

    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    else:
        overhead = statistics.median(run.pass_seconds[True]) - wall_s
        values = layer_metrics(tracer.spans, run.traced_ops, run.dropped_bindings, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, entry in metrics.items():
            print(f"  {name:<30} {entry['value']:.6g} {entry['unit']}")
        path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(HERE.parent)}")

    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
