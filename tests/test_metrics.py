"""Classical and likelihood-weighted scoring."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from plgg.pddl import Atom, Problem, ground_task
from plgg.lgg import LGG, extract_lgg
from plgg.instantiate import PlggContent, extract_result, instantiate_task
from plgg.experiment import ExperimentConfig, run_experiment
from plgg.plog import learn_plog
from plgg.metrics import (PRF, alpha_prf, compare, likelihood_atom, likelihood_edge,
                          mean_reports, render_table)

from conftest import reference_compare


def content(grounded=(), lifted=(), orderings=None):
    return PlggContent(landmarks_grounded=set(grounded),
                       landmarks_lifted=set(lifted),
                       orderings=dict(orderings or {}))


ON_BA = Atom("on", ("b", "a"))
ON_BX = Atom("on", ("b", "?x0"))


def alphas(reference, predicted):
    report = compare(reference, predicted)
    return report["landmarks"]["alpha"], report["orderings"]["alpha"]


def scores(facet, prefix=""):
    """A facet's precision, recall and F1 (or their `alpha_` twins) as a `PRF`."""
    return PRF(*(facet[prefix + key] for key in ("precision", "recall", "f1")))


def classical(reference, predicted):
    report = compare(reference, predicted)
    return scores(report["landmarks"]), scores(report["orderings"])


# --- likelihoods ----------------------------------------------------------------


def test_likelihood_single_variable():
    assert likelihood_atom(ON_BX, ON_BA) == 0.5
    assert likelihood_atom(Atom("ontable", ("?x0",)), Atom("ontable", ("a",))) == 0.5


def test_likelihood_grounded_and_nullary():
    assert likelihood_atom(Atom("handempty", ()), Atom("handempty", ())) == 1.0
    assert likelihood_atom(Atom("on", ("b", "a")), ON_BA) == 1.0


def test_likelihood_shrinks_with_open_variables():
    two = likelihood_atom(Atom("p", ("?x0", "?x1", "c")), Atom("p", ("a", "b", "c")))
    one = likelihood_atom(Atom("p", ("a", "?x1", "c")), Atom("p", ("a", "b", "c")))
    assert two < one < 1.0


def test_likelihood_requires_equivalence():
    with pytest.raises(ValueError):
        likelihood_atom(Atom("clear", ("a",)), ON_BA)


def test_likelihood_needs_a_ground_reference():
    lifted_reference = Atom("on", ("?y", "a"))
    with pytest.raises(ValueError):
        likelihood_atom(ON_BA, lifted_reference)
    with pytest.raises(ValueError):
        likelihood_atom(Atom("on", ("?x", "?z")), lifted_reference)
    with pytest.raises(ValueError):
        likelihood_edge((ON_BX, ON_BX), (ON_BA, lifted_reference))
    with pytest.raises(ValueError):
        compare(LGG(task="t", vertices=(lifted_reference,), edges=()), content(lifted=[ON_BX]))


def test_likelihood_edge_is_endpoint_mean():
    grounded = (ON_BA, ON_BA)
    assert likelihood_edge((ON_BX, ON_BA), grounded) == 0.75
    assert likelihood_edge((ON_BA, ON_BA), grounded) == 1.0


# --- alpha values: worked example -------------------------------------------------


def reference_graph():
    return LGG(task="t",
               vertices=(ON_BA, Atom("on", ("c", "d")), Atom("ontable", ("a",)),
                         Atom("ontable", ("d",))),
               edges=())


def test_alpha_v_worked_example():
    predicted = content(
        grounded=[Atom("on", ("c", "d")), Atom("ontable", ("d",))],
        lifted=[ON_BX, Atom("ontable", ("?x0",))])
    alpha_v, alpha_e = alphas(reference_graph(), predicted)
    assert alpha_v == 0.5
    assert alpha_e == 0.0


def test_alpha_zero_without_lifted_content():
    predicted = content(grounded=[Atom("on", ("c", "d"))])
    assert alphas(reference_graph(), predicted) == (0.0, 0.0)


def test_alpha_zero_when_nothing_missed():
    predicted = content(grounded=list(reference_graph().vertices) + [Atom("clear", ("a",))])
    assert alphas(reference_graph(), predicted) == (0.0, 0.0)


def test_alpha_e_uses_componentwise_equivalence():
    ref = LGG(task="t", vertices=(Atom("clear", ("b",)), ON_BA),
              edges=((Atom("clear", ("b",)), ON_BA),))
    predicted = content(orderings={(Atom("clear", ("b",)), ON_BX): 0.8})
    _, alpha_e = alphas(ref, predicted)
    assert alpha_e == pytest.approx((1.0 + 0.5) / 2)


def test_alpha_invariant_under_variable_renaming():
    ref = reference_graph()
    a = content(grounded=[Atom("on", ("c", "d")), Atom("ontable", ("d",))],
                lifted=[ON_BX, Atom("ontable", ("?x0",))])
    b = content(grounded=[Atom("on", ("c", "d")), Atom("ontable", ("d",))],
                lifted=[Atom("on", ("b", "?y9")), Atom("ontable", ("?z3",))])
    assert alphas(ref, a) == alphas(ref, b)


# --- keyed scoring against the missed x extras scan --------------------------------

OBJECTS = ("a", "b", "c")
# two predicate names, each drawn at every arity from 0 to 3
ATOM_ARITIES = st.tuples(st.sampled_from(("p", "q")), st.integers(0, 3))


def atoms(params):
    return ATOM_ARITIES.flatmap(lambda shape: st.lists(
        st.sampled_from(params), min_size=shape[1], max_size=shape[1]).map(
            lambda args: Atom(shape[0], tuple(args))))


GROUND = atoms(OBJECTS)
# ground atoms and extras that match nothing included
ANY = atoms(OBJECTS + ("?x0", "?x1"))


def some_of(data, items):
    items = sorted(items)
    return [item for item, keep in zip(items, data.draw(
        st.lists(st.booleans(), min_size=len(items), max_size=len(items)))) if keep]


def lift_some(data, atom):
    """`atom` with some arguments replaced by variables, repeated ones included."""
    return Atom(atom.pred, tuple(data.draw(st.sampled_from((arg, "?x0", "?x1")))
                                 for arg in atom.args))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_keyed_scoring_equals_the_scan(data):
    vertices = data.draw(st.sets(GROUND, min_size=1, max_size=6))
    edges = data.draw(st.sets(st.tuples(GROUND, GROUND), min_size=1, max_size=6))
    reference = LGG(task="t", vertices=frozenset(vertices), edges=frozenset(edges))
    lifted = ({lift_some(data, v) for v in some_of(data, vertices)}
              | data.draw(st.sets(ANY, max_size=6)))
    # edges mix lifted and ground ends, and some are the reference's own
    orderings = (set(some_of(data, edges))
                 | {(lift_some(data, s), lift_some(data, d)) for s, d in some_of(data, edges)}
                 | data.draw(st.sets(st.tuples(ANY, ANY), max_size=6)))
    grounded = set(some_of(data, vertices)) | data.draw(st.sets(GROUND, max_size=3))
    predicted = content(grounded=grounded, lifted=lifted, orderings=dict.fromkeys(orderings, 0.5))
    assert compare(reference, predicted) == reference_compare(reference, predicted)


@pytest.mark.parametrize("lifted", [Atom("on", ("?x0", "?x0")), Atom("on", ("b", "?x0")),
                                    Atom("on", ("a", "?x0"))])
def test_repeated_and_unmatched_variables_against_the_scan(lifted):
    # a repeated variable stands for each object on its own, as in the scan
    ref = LGG(task="t", vertices=(ON_BA,), edges=((ON_BA, Atom("clear", ("b",))),))
    predicted = content(lifted=[lifted], orderings={(lifted, Atom("clear", ("b",))): 0.5})
    assert compare(ref, predicted) == reference_compare(ref, predicted)


def random_towers(rng, blocks):
    """The blocks shuffled and cut into len // 4 towers, bottom block first."""
    order = list(blocks)
    rng.shuffle(order)
    count = max(1, len(order) // 4)
    cuts = sorted(rng.sample(range(1, len(order)), count - 1))
    return [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(order)])]


def test_keyed_scoring_equals_the_scan_on_a_50_block_tower(domain, plog):
    rng = random.Random(50)
    blocks = [f"b{i}" for i in range(50)]
    init = {Atom("handempty")}
    for tower in random_towers(rng, blocks):
        init |= {Atom("ontable", (tower[0],)), Atom("clear", (tower[-1],))}
        init |= {Atom("on", (upper, lower)) for lower, upper in zip(tower, tower[1:])}
    goal = {Atom("on", (upper, lower)) for tower in random_towers(rng, blocks)
            for lower, upper in zip(tower, tower[1:])}
    task = ground_task(domain, Problem("tower-50", "blocksworld", dict.fromkeys(blocks, "block"),
                                       frozenset(init), frozenset(goal)))
    reference = extract_lgg(task)
    predicted = extract_result(instantiate_task(plog, task))
    grounded_edges = predicted.orderings_grounded()
    lifted_edges = predicted.orderings.keys() - grounded_edges
    # 38 missed orderings, and 608 lifted ones to look up
    assert set(reference.edges) - grounded_edges.keys() - lifted_edges
    assert len(lifted_edges) >= 200
    assert compare(reference, predicted) == reference_compare(reference, predicted)


# --- classical scores -------------------------------------------------------------


def test_prf_worked_example():
    ref = LGG(task="t", vertices=tuple(Atom("p", (c,)) for c in "abcd"), edges=())
    predicted = content(grounded=[Atom("p", (c,)) for c in "abe"])
    vertex, _ = classical(ref, predicted)
    assert vertex.precision == pytest.approx(2 / 3)
    assert vertex.recall == 0.5
    assert vertex.f1 == pytest.approx(4 / 7)


def test_prf_empty_set_conventions():
    empty_ref = LGG(task="t", vertices=(), edges=())
    vertex, edge = classical(empty_ref, content())
    assert vertex == PRF(1.0, 1.0, 1.0) and edge == PRF(1.0, 1.0, 1.0)
    vertex, _ = classical(reference_graph(), content())
    assert vertex.precision == 0.0 and vertex.recall == 0.0 and vertex.f1 == 0.0
    vertex, _ = classical(empty_ref, content(grounded=[ON_BA]))
    assert vertex.precision == 0.0 and vertex.recall == 0.0


def test_prf_swapping_sides_swaps_p_and_r():
    ref = LGG(task="t", vertices=tuple(Atom("p", (c,)) for c in "abcd"), edges=())
    pred_atoms = [Atom("p", (c,)) for c in "abe"]
    forward, _ = classical(ref, content(grounded=pred_atoms))
    flipped, _ = classical(LGG(task="t", vertices=tuple(pred_atoms), edges=()),
                           content(grounded=list(ref.vertices)))
    assert forward.precision == flipped.recall
    assert forward.recall == flipped.precision


# --- alpha folding -----------------------------------------------------------------


def test_alpha_prf_formulas():
    assert alpha_prf(PRF(0.5, 0.5, 0.5), 0.5) == PRF(0.75, 0.75, 0.75)
    full = alpha_prf(PRF(1.0, 1.0, 1.0), 0.9)
    assert full.precision == 1.0 and full.recall == 1.0


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
@settings(max_examples=200)
def test_alpha_prf_monotone_and_degenerate(p, r, alpha):
    base = PRF(p, r, 0.0)
    lifted = alpha_prf(base, alpha)
    assert lifted.precision >= p and lifted.recall >= r
    at_zero = alpha_prf(base, 0.0)
    assert at_zero.precision == p and at_zero.recall == r


def test_grounded_only_prediction_degenerates_to_classical(make_task, plog):
    task = make_task("p05")
    ref = extract_lgg(task)
    predicted = content(grounded=list(ref.vertices)[:3],
                        orderings={e: 1.0 for e in list(ref.edges)[:2]})
    report = compare(ref, predicted)
    for facet in ("landmarks", "orderings"):
        assert report[facet]["alpha"] == 0.0
        assert scores(report[facet], "alpha_") == scores(report[facet])


# --- reporting ---------------------------------------------------------------------


def test_report_round_numbers():
    ref = reference_graph()
    predicted = content(grounded=[Atom("on", ("c", "d")), Atom("ontable", ("d",))],
                        lifted=[ON_BX, Atom("ontable", ("?x0",))])
    d = compare(ref, predicted)
    assert d["landmarks"]["precision"] == 1.0
    assert d["landmarks"]["recall"] == 0.5
    assert d["landmarks"]["alpha"] == 0.5
    assert d["landmarks"]["alpha_recall"] == 0.75
    assert d["landmarks"]["hits"] == 2
    assert d["landmarks"]["misses"] == 2
    table = render_table({"demo": d})
    assert "demo" in table and "0.750" in table
    means = mean_reports([d, d])
    assert means["landmarks"]["alpha_recall"] == 0.75


def test_mean_reports_sum_left_to_right():
    # ten reports of 0.1 sum left to right to 0.9999999999999999; a
    # compensated sum, as Python 3.12's `sum` of floats, gives 1.0, so
    # the JSON report would depend on the interpreter
    facet = dict.fromkeys(["precision", "recall"], 0.1)
    means = mean_reports([{"landmarks": facet, "orderings": facet}] * 10)
    assert means["landmarks"]["precision"] == 0.09999999999999999
    assert means["orderings"]["recall"] == 0.09999999999999999


FACET_KEYS = {"precision", "recall", "f1", "alpha", "alpha_precision", "alpha_recall",
              "alpha_f1", "hits", "misses", "extras"}


def test_compare_returns_the_json_task_report(bench_dir, domain, make_task):
    # the library's scores and the per-task `report` of `evaluate --json` are one layout
    config = ExperimentConfig(domain_path=str(bench_dir / "domain.pddl"),
                              problem_paths=[str(p) for p in sorted(bench_dir.glob("p*.pddl"))],
                              test_count=2, repetitions=1, oracle_baseline=False)
    rep = run_experiment(config)["repetitions"][0]
    plog = learn_plog([extract_lgg(make_task(name)) for name in rep["train"]],
                      domain=domain.name)
    for task in rep["tasks"]:
        ground = make_task(task["task"])
        predicted = extract_result(instantiate_task(plog, ground, top_n=config.top_n),
                                   threshold=config.threshold)
        report = compare(extract_lgg(ground), predicted)
        assert task["report"] == report
        assert list(report) == ["landmarks", "orderings"]
        assert all(set(facet) == FACET_KEYS for facet in report.values())
