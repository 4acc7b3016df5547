"""The benchmark's own checks.  Run with `python3 -m pytest perfbench/tests`."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plgg.lgg as lgg
import plgg.pddl as pddl
from spans import PER_LAYER_UNITS, Span, layer_metrics, self_times
from taskgen import generate_problem, generate_task
from workloads import CORPUS, POOL, WORKLOADS, prepare, task_name, load_references

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
LADDERS = [w for w in WORKLOADS.values() if w.kind != "evaluate"]


def smallest_rung(workload):
    """The workload cut down to every pool task of its smallest rung."""
    return dataclasses.replace(workload, rungs=workload.rungs[:1], per_rung=POOL)


def run_bench(workload, trace, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_generator_is_identical_across_hash_seeds():
    script = ("import hashlib, taskgen\n"
              "for args in [(15, 0, 'tower'), (30, 7, 'tower'), (40, 5, 'single')]:\n"
              "    print(hashlib.sha256(taskgen.generate_task(*args).encode()).hexdigest())\n")
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert len(set(outputs.pop().split())) == 3


@pytest.mark.parametrize("density", ["tower", "single"])
def test_generator_draws_goal_density(density):
    problem = generate_problem(30, 2, density)
    assert {a.pred for a in problem.goal} == {"on"}
    if density == "single":
        assert len(problem.goal) == 1 and not problem.goal & problem.init
    else:
        assert len(problem.goal) == 30 - 30 // 4
    assert generate_task(30, 2, density) != generate_task(30, 3, density)


def test_corpus_reference_reproduces():
    prepared = prepare(WORKLOADS["corpus-evaluate"], seed=0)
    (op,) = prepared.ops
    ok, landmark_f1, ordering_f1 = prepared.check(op.label, op.run())
    assert ok
    assert 0 < ordering_f1 <= landmark_f1 <= 1


@pytest.mark.parametrize("workload", LADDERS, ids=lambda w: w.name)
def test_ladder_references_reproduce_on_smallest_rung(workload):
    prepared = prepare(smallest_rung(workload), seed=0)
    assert len(prepared.ops) == POOL
    for op in prepared.ops:
        ok, landmark_f1, _ = prepared.check(op.label, op.run())
        assert ok, op.label
        assert 0 < landmark_f1 <= 1


@pytest.mark.parametrize("workload", LADDERS, ids=lambda w: w.name)
def test_smallest_rung_reference_vertices_pass_the_oracle(workload):
    """The references must not rest only on the extractor they check."""
    domain = pddl.parse_domain((CORPUS / "domain.pddl").read_text())
    references = load_references(workload)["tasks"]
    blocks = workload.rungs[0]
    for index in range(POOL):
        text = generate_task(blocks, index, workload.density)
        task = pddl.ground_task(domain, pddl.parse_problem(text, domain))
        for key in references[task_name(workload, blocks, index)]["vertices"]:
            pred, *args = key.split()
            verdict = lgg.is_landmark_oracle(task, pddl.Atom(pred, tuple(args)))
            assert verdict.is_landmark, (task.name, key)


def test_self_time_of_a_synthetic_nest():
    spans = [
        Span(0, None, 1, "plgg.lgg.extract_lgg", 0.0, 10.0),
        Span(1, 0, 1, "plgg.lgg.relaxed_levels", 1.0, 4.0),
        Span(2, 1, 1, "plgg.pddl.parse_problem", 2.0, 3.0),
        Span(3, 0, 1, "plgg.lgg.is_landmark_oracle", 5.0, 9.0, {"accepted": 1}),
        Span(4, 0, 1, "plgg.lgg.is_landmark_oracle", 8.0, 9.5, {"accepted": 0}),
        Span(5, None, 2, "plgg.lgg.is_landmark_oracle", 20.0, 21.0, {"accepted": 1}),
    ]
    own = self_times(spans)
    # Children cover [1, 4] and [5, 9.5] of the root: 3 + 4.5 seconds.
    assert own == {0: 2.5, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5, 5: 1.0}

    values = layer_metrics(spans, ops=2, dropped_bindings=3, overhead_s=0.5)
    assert values["lgg.extract_s"] == 5.0
    assert values["lgg.extract_self_s"] == 1.25
    assert values["lgg.verdicts"] == 1.0           # the root-level verdict is not extraction's
    assert values["lgg.verdict_s"] == 2.75
    assert values["lgg.verdict_yield"] == 0.5
    assert values["instantiate.bindings_dropped"] == 1.5
    assert values["trace.overhead_s"] == 0.5
    assert set(values) == set(PER_LAYER_UNITS)


def test_printed_metrics_match_benchmark_json_and_counters_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        rungs = WORKLOADS[entry["name"]].rungs
        assert "/".join(map(str, rungs)) in entry["why"] if rungs else True

    untraced = run_bench("corpus-evaluate", trace=0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}

    traced = [run_bench("corpus-evaluate", trace=1, hash_seed=h) for h in ("1", "2")]
    for result in traced:
        assert result["correct"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["per_layer"]}
    counters = [{n: m["value"] for n, m in r["metrics"].items()
                 if m["unit"] in ("count/op", "ratio")} for r in traced]
    assert counters[0] == counters[1]
    assert counters[0]["lgg.extract_calls"] > 0 and counters[0]["instantiate.passes"] > 0
