"""Classical and likelihood-weighted scoring."""

import pytest
from hypothesis import given, settings, strategies as st

from plgg.pddl import Atom
from plgg.lgg import LGG
from plgg.instantiate import PlggContent
from plgg.metrics import (PRF, alpha_prf, compare, likelihood_atom, likelihood_edge,
                          mean_reports, render_table, report_to_dict)


def content(grounded=(), lifted=(), orderings=None):
    return PlggContent(landmarks_grounded=set(grounded),
                       landmarks_lifted=set(lifted),
                       orderings=dict(orderings or {}))


ON_BA = Atom("on", ("b", "a"))
ON_BX = Atom("on", ("b", "?x0"))


def alphas(reference, predicted):
    report = compare(reference, predicted)
    return report.landmarks.alpha, report.orderings.alpha


def classical(reference, predicted):
    report = compare(reference, predicted)
    return report.landmarks.classical, report.orderings.classical


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
    from plgg.lgg import extract_lgg
    task = make_task("p05")
    ref = extract_lgg(task)
    predicted = content(grounded=list(ref.vertices)[:3],
                        orderings={e: 1.0 for e in list(ref.edges)[:2]})
    report = compare(ref, predicted)
    assert report.landmarks.alpha == 0.0 and report.orderings.alpha == 0.0
    assert report.landmarks.alpha_classical == report.landmarks.classical
    assert report.orderings.alpha_classical == report.orderings.classical


# --- reporting ---------------------------------------------------------------------


def test_report_round_numbers():
    ref = reference_graph()
    predicted = content(grounded=[Atom("on", ("c", "d")), Atom("ontable", ("d",))],
                        lifted=[ON_BX, Atom("ontable", ("?x0",))])
    report = compare(ref, predicted)
    d = report_to_dict(report)
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
