"""Acceptance gate: ten checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
check either reproduces a worked example exactly, verifies a qualitative
claim with stated tolerances, or exercises a randomized property suite.
"""

import functools
import random
import time
from collections import Counter

from plgg.pddl import Atom
from plgg.lgg import LGG, extract_lgg, is_landmark_oracle, oracle_landmarks
from plgg.plog import learn_plog, lift_atom, lift_edge
from plgg.instantiate import extract_result, instantiate_task, search_best_equiv
from plgg.metrics import PRF, alpha_prf, compare
from plgg.instantiate import PlggContent

from conftest import (SideGraph, VarConstraintStore, assert_monotone_fixpoint, equivalent_atoms,
                      instantiation_passes, param_distance, side_state, update_distinct_consts)

TRAIN = ("p01", "p02", "p03", "p04")


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:02d} FAIL: {label}")
                raise
            print(f"\ncriterion {num:02d} PASS: {label}")
        return run
    return wrap


@criterion(1, "learned edge structure: mu(clear->holding)=1.0, ontable->holding in (0,1), <1s")
def test_criterion_01_learned_structure(train_lggs, domain):
    start = time.perf_counter()
    plog = learn_plog(train_lggs, domain=domain.name)
    elapsed = time.perf_counter() - start
    probs = {(e.src, e.dst): mu for e, mu in plog.probs.items()}
    certain = probs[(Atom("clear", ("?x0",)), Atom("holding", ("?x0",)))]
    partial = probs[(Atom("ontable", ("?x0",)), Atom("holding", ("?x0",)))]
    assert certain == 1.0
    assert 0.0 < partial < 1.0
    assert elapsed < 1.0


@criterion(2, "worked vertex-likelihood example yields alpha_v = 0.5 exactly")
def test_criterion_02_alpha_v_example():
    reference = LGG(task="t",
                    vertices=(Atom("on", ("b", "a")), Atom("on", ("c", "d")),
                              Atom("ontable", ("a",)), Atom("ontable", ("d",))),
                    edges=())
    predicted = PlggContent(
        landmarks_grounded={Atom("on", ("c", "d")), Atom("ontable", ("d",))},
        landmarks_lifted={Atom("on", ("b", "?x0")), Atom("ontable", ("?x0",))},
        orderings={})
    assert compare(reference, predicted)["landmarks"]["alpha"] == 0.5


@criterion(3, "equivalence search: distances {2,2,1,1,3}, top-1/top-2 bindings as stated")
def test_criterion_03_equivalence_example():
    anchor = Atom("r", ())
    nodes = {
        Atom("p", ("a", "?x0", "?x1")): {anchor: 0.9},
        Atom("p", ("?x2", "b", "?x3")): {anchor: 0.9},
        Atom("p", ("a", "?x4", "c")): {anchor: 0.5},
        Atom("p", ("a", "b", "?x5")): {anchor: 0.25},
        Atom("p", ("?x6", "?x7", "?x8")): {anchor: 0.9},
        anchor: {},
    }
    plgg = SideGraph(nodes=nodes, side="goal", store=VarConstraintStore())
    lm = Atom("p", ("a", "b", "c"))
    found = {node: param_distance(node, lm) for node in plgg.nodes
             if node.variables() and equivalent_atoms(node, lm, plgg.store)}
    assert sorted(found.values()) == [1, 1, 2, 2, 3]
    closest = {node for node, distance in found.items() if distance == 1}
    assert closest == {Atom("p", ("a", "?x4", "c")), Atom("p", ("a", "b", "?x5"))}
    state = side_state(plgg)
    assert search_best_equiv(state, lm, top_n=1) == {"?x4": "b"}
    assert search_best_equiv(state, lm, top_n=2) == {"?x4": "b", "?x5": "c"}


@criterion(4, "distinct-value constraints: objects={a}, variables={?x0,?x1} exactly")
def test_criterion_04_constraint_example():
    store = VarConstraintStore()
    update_distinct_consts(store, Atom("p", ("a", "?x2")), Atom("q", ("a", "?x0", "?x1")))
    assert store.forbidden_objects("?x2") == {"a"}
    assert store.forbidden_variables("?x2") == {"?x0", "?x1"}


@criterion(5, "every extracted landmark on <=5-block tasks passes the oracle, <30s")
def test_criterion_05_oracle_soundness(load, bench_dir, corpus_names):
    start = time.perf_counter()
    checked = 0
    small_tasks = 0
    for name in corpus_names:
        _, problem, task = load(bench_dir, name)
        if len(problem.objects) > 5:
            continue
        small_tasks += 1
        for vertex in extract_lgg(task).vertices:
            assert is_landmark_oracle(task, vertex).is_landmark, (name, vertex)
            checked += 1
    elapsed = time.perf_counter() - start
    assert small_tasks >= 10 and checked > 50
    assert elapsed < 30.0


@criterion(6, "held-out grounded recall vs oracle: p-LGG >= native and >= 0.90")
def test_criterion_06_recall_dominance(make_task, corpus_names, plog):
    held_out = [n for n in corpus_names if n not in TRAIN]
    assert len(held_out) >= 5
    for name in held_out:
        task = make_task(name)
        oracle = oracle_landmarks(task)
        content = extract_result(instantiate_task(plog, task), threshold=0.0)
        plgg_recall = len(content.landmarks_grounded & oracle) / len(oracle)
        native_recall = len(set(extract_lgg(task).vertices) & oracle) / len(oracle)
        assert plgg_recall >= native_recall, name
        assert plgg_recall >= 0.90, (name, plgg_recall)


def random_dataset(rng):
    arity = {"p": rng.choice([1, 2]), "q": rng.choice([0, 1, 2]), "r": 1}
    objects = "abcde"

    def random_atom():
        pred = rng.choice("pqr")
        return Atom(pred, tuple(rng.choice(objects) for _ in range(arity[pred])))

    lggs = []
    for i in range(rng.randint(1, 5)):
        vertices = []
        for _ in range(rng.randint(2, 8)):
            atom = random_atom()
            if atom not in vertices:
                vertices.append(atom)
        edges = []
        for _ in range(rng.randint(0, 10)):
            src, dst = rng.choice(vertices), rng.choice(vertices)
            if src != dst and (src, dst) not in edges:
                edges.append((src, dst))
        lggs.append(LGG(task=f"t{i}", vertices=tuple(vertices), edges=tuple(edges)))
    return lggs


def recount(lggs):
    # independent tally of edge support and per-root graph counts
    n, n_graph = Counter(), Counter()
    for lgg in lggs:
        for vertex in lgg.vertices:
            n_graph[lift_atom(vertex)] += 1
            seen = set()
            for src, dst in lgg.edges:
                if dst == vertex:
                    seen.add(lift_edge(src, dst))
            for edge in seen:
                n[edge] += 1
    return n, n_graph


@criterion(7, "probability laws hold on 1000 random datasets, merges order-invariant")
def test_criterion_07_probability_laws():
    rng = random.Random(20240817)
    for trial in range(1000):
        lggs = random_dataset(rng)
        plog = learn_plog(lggs)
        assert all(0.0 < mu <= 1.0 for mu in plog.probs.values()), trial
        n, n_graph = recount(lggs)
        for edge, mu in plog.probs.items():
            assert mu == n[edge] / n_graph[edge.dst], (trial, edge)
            if n[edge] == n_graph[edge.dst]:
                assert mu == 1.0
        shuffled = list(lggs)
        rng.shuffle(shuffled)
        again = learn_plog(shuffled)
        assert again.probs == plog.probs and again.log_counts == plog.log_counts


@criterion(8, "combination reaches a monotone fixpoint within |facts| rounds")
def test_criterion_08_fixpoint(make_task, corpus_names, domain):
    rng = random.Random(7)
    for _ in range(30):
        train = rng.sample(corpus_names, 4)
        test = rng.choice([n for n in corpus_names if n not in train])
        plog = learn_plog([extract_lgg(make_task(n)) for n in train],
                          domain=domain.name)
        task = make_task(test)
        top_n = rng.choice([1, 2, 3])
        _, passes = instantiation_passes(lambda: instantiate_task(plog, task, top_n=top_n))
        assert_monotone_fixpoint(passes, task, test)


@criterion(9, "grounded-only predictions: alpha = 0 and alpha scores equal classical")
def test_criterion_09_alpha_degeneracy(make_task, corpus_names):
    rng = random.Random(11)
    for _ in range(50):
        task = make_task(rng.choice(corpus_names))
        reference = extract_lgg(task)
        vertices = list(reference.vertices)
        extras = [f for f in sorted(task.facts) if f not in reference.vertices]
        predicted = PlggContent(
            landmarks_grounded=set(rng.sample(vertices, rng.randint(0, len(vertices))))
            | set(rng.sample(extras, rng.randint(0, min(3, len(extras))))),
            landmarks_lifted=set(),
            orderings={e: 1.0 for e in rng.sample(list(reference.edges),
                                                  rng.randint(0, len(reference.edges)))})
        report = compare(reference, predicted)
        for facet in (report["landmarks"], report["orderings"]):
            assert facet["alpha"] == 0.0
            for key in ("precision", "recall", "f1"):
                assert facet["alpha_" + key] == facet[key]
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert alpha_prf(PRF(1.0, 1.0, 1.0), alpha).precision == 1.0


@criterion(10, "timing: learn < 1 s, instantiate < 5 s per task at corpus scale")
def test_criterion_10_timing(make_task, corpus_names, train_lggs, domain):
    assert len(corpus_names) == 14
    start = time.perf_counter()
    plog = learn_plog(train_lggs, domain=domain.name)
    learn_seconds = time.perf_counter() - start
    assert learn_seconds < 1.0
    for name in corpus_names:
        task = make_task(name)
        start = time.perf_counter()
        instantiate_task(plog, task)
        assert time.perf_counter() - start < 5.0, name
