"""Lifting, pooled counts, and the probability laws of learned graphs."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from plgg.pddl import Atom
from plgg.lgg import LGG
from plgg.plog import (LiftedEdge, VocabularyError, learn_plog, lift_atom, lift_edge,
                       plog_from_json, plog_to_dot, plog_to_json)


def test_lift_atom_examples():
    assert lift_atom(Atom("on", ("a", "b"))) == Atom("on", ("?x0", "?x1"))
    assert lift_atom(Atom("on", ("a", "a"))) == Atom("on", ("?x0", "?x0"))
    assert lift_atom(Atom("handempty", ())) == Atom("handempty", ())
    assert lift_atom(Atom("clear", ("c",))) == Atom("clear", ("?x0",))


def test_lift_edge_destination_first():
    # destination parameters claim ?x0... so the dst stays standalone-canonical
    edge = lift_edge(Atom("p", ("c",)), Atom("q", ("d",)))
    assert edge.src == Atom("p", ("?x1",)) and edge.dst == Atom("q", ("?x0",))
    edge = lift_edge(Atom("clear", ("b",)), Atom("on", ("a", "b")))
    assert edge.src == Atom("clear", ("?x1",))
    assert edge.dst == Atom("on", ("?x0", "?x1"))


def test_lift_edge_shared_object_shares_variable():
    edge = lift_edge(Atom("holding", ("a",)), Atom("on", ("a", "b")))
    assert edge.src == Atom("holding", ("?x0",))
    assert edge.dst == Atom("on", ("?x0", "?x1"))


@given(st.text(alphabet="abc", min_size=1, max_size=2),
       st.lists(st.sampled_from("defg"), min_size=0, max_size=4))
@settings(max_examples=200)
def test_lift_atom_inverts(pred, args):
    # substituting each canonical variable back recovers the original atom
    ground = Atom(pred, tuple(args))
    lifted = lift_atom(ground)
    inverse = {v: o for v, o in zip(lifted.args, ground.args)}
    assert lifted.substitute(inverse) == ground


def test_logs_with_one_lifted_root_pool_their_counts():
    # on(a,b) and on(a,c) root two LOGs whose in-edges lift to one pattern
    on_ab, on_ac = Atom("on", ("a", "b")), Atom("on", ("a", "c"))
    lgg = LGG(task="t",
              vertices=(Atom("clear", ("b",)), Atom("clear", ("c",)), on_ab, on_ac,
                        Atom("holding", ("a",))),
              edges=((Atom("clear", ("b",)), on_ab), (Atom("clear", ("c",)), on_ac),
                     (Atom("clear", ("b",)), Atom("holding", ("a",)))))
    plog = learn_plog([lgg])
    on = Atom("on", ("?x0", "?x1"))
    assert plog.log_counts[on] == 2 and plog.log_counts[Atom("clear", ("?x0",))] == 2
    assert plog.edge_counts[LiftedEdge(Atom("clear", ("?x1",)), on)] == 2
    assert plog.edge_counts[LiftedEdge(Atom("clear", ("?x1",)),
                                       Atom("holding", ("?x0",)))] == 1
    assert plog.vertices == {on, Atom("clear", ("?x0",)), Atom("holding", ("?x0",))}


def test_edge_counted_once_within_one_log():
    # two sources of one destination that lift to the same pattern
    dst = Atom("p", ("a",))
    lgg = LGG(task="t", vertices=(Atom("q", ("b",)), Atom("q", ("c",)), dst),
              edges=((Atom("q", ("b",)), dst), (Atom("q", ("c",)), dst)))
    plog = learn_plog([lgg])
    edge = LiftedEdge(Atom("q", ("?x1",)), Atom("p", ("?x0",)))
    assert plog.edge_counts == {edge: 1}
    assert plog.probs == {edge: 1.0}


def test_ngraph_counts_occurrences_not_tasks(train_lggs):
    # every vertex occurrence roots one LOG, so counts exceed the task count
    plog = learn_plog(train_lggs)
    holding = Atom("holding", ("?x0",))
    assert plog.log_counts[holding] == 6
    assert plog.log_counts[Atom("handempty", ())] == 4


def test_learned_probabilities(plog):
    probs = {(str(e.src).replace(" ", ""), str(e.dst).replace(" ", "")): mu
             for e, mu in plog.probs.items()}
    assert probs[("clear(?x0)", "holding(?x0)")] == 1.0
    assert probs[("handempty()", "holding(?x0)")] == 1.0
    assert probs[("ontable(?x0)", "holding(?x0)")] == pytest.approx(5 / 6)
    assert probs[("on(?x0,?x1)", "holding(?x0)")] == pytest.approx(1 / 6)


def test_all_probabilities_in_unit_interval(plog):
    assert all(0.0 < mu <= 1.0 for mu in plog.probs.values())


def test_single_graph_gives_certainty(train_lggs, domain):
    plog = learn_plog(train_lggs[:1], domain=domain.name)
    assert all(mu == 1.0 for mu in plog.probs.values())


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_learning_is_order_invariant(train_lggs, rng):
    shuffled = list(train_lggs)
    rng.shuffle(shuffled)
    a = learn_plog(train_lggs)
    b = learn_plog(shuffled)
    assert a.probs == b.probs and a.log_counts == b.log_counts


def test_arity_conflict_rejected():
    one = LGG(task="one", vertices=(Atom("p", ("a",)),), edges=())
    other = LGG(task="other", vertices=(Atom("p", ("a", "b")),), edges=())
    with pytest.raises(VocabularyError, match="arities"):
        learn_plog([one, other])


def _plog_text(edges, log_counts):
    atoms = [Atom("p", ("?x0",)), Atom("q", ("?x1",))]
    return json.dumps({
        "domain": "d",
        "vertices": [{"pred": a.pred, "args": list(a.args)} for a in atoms],
        "edges": [{"src": s, "dst": d, "n": n, "mu": 0.5} for s, d, n in edges],
        "log_counts": [{"vertex": v, "n_graph": n} for v, n in log_counts]})


def test_count_exceeding_support_rejected():
    with pytest.raises(VocabularyError, match="counted 3 times"):
        plog_from_json(_plog_text(edges=[(1, 0, 3)], log_counts=[(0, 2)]))


def test_destination_without_root_count_rejected():
    with pytest.raises(VocabularyError, match="no graphs recorded"):
        plog_from_json(_plog_text(edges=[(1, 0, 1)], log_counts=[(1, 2)]))


def test_json_roundtrip_preserves_edge_context(plog):
    text = plog_to_json(plog)
    back = plog_from_json(text)
    assert back.probs == plog.probs
    assert back.log_counts == plog.log_counts
    assert back.vertices == plog.vertices
    assert plog_to_json(back) == text
    # source patterns that co-reference the destination survive the format
    payload = json.loads(text)
    args = {tuple(v["args"]) for v in payload["vertices"]}
    assert ("?x0", "?x1") in args


def test_dot_output_marks_lifted_nodes(plog):
    dot = plog_to_dot(plog)
    assert dot.startswith("digraph")
    assert "style=dashed" in dot
    assert "1.00" in dot
