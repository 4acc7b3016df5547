"""Generation, equivalence search, fixpoint combination, and extraction of
task-specific probabilistic landmark graphs."""

import copy
import logging
import re
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import plgg.instantiate as instantiate_module
from plgg.lgg import extract_lgg, lgg_from_json, lgg_to_json
from plgg.pddl import Atom, ground_task, is_variable, parse_problem
from plgg.plog import LiftedEdge, PLog, learn_plog, plog_from_json, plog_to_json
from plgg.instantiate import (SIDE_GOAL, SIDE_INIT, VarSource, _expand, _plan,
                              apply_instantiation, combine, extract_result, generate_plgg_goal,
                              generate_plgg_init, instantiate_task, instantiation,
                              plgg_from_json, plgg_to_dot, plgg_to_json, search_best_equiv)

import conftest
from conftest import (CORPUS, COURIER, COURIER_CORPUS, FIXTURE_PLOGS, GRIPPER, TRAIN, SideGraph,
                      VarConstraintStore, _best_incident_prob, assert_monotone_fixpoint,
                      blocksworld_problems, bucket_key, combined_graph, equivalent_atoms,
                      equivalent_params, fresh_name, fresh_variables, graph_of,
                      instantiation_passes, param_distance, reference_generate,
                      reference_instantiate_task, renamed_shape, side_state,
                      update_distinct_consts)


def sides(plog, task):
    """The goal and init sides of `task`, grown with one name supply, as
    `instantiate_task` grows them."""
    source = VarSource()
    return (generate_plgg_goal(plog, task, var_source=source),
            generate_plgg_init(plog, task, var_source=source))


def parts(graph):
    """What a combined graph holds: its edges and its nodes' ground flags."""
    return graph.edges, graph.nodes


def rewrite(plgg, bindings):
    """The side that `apply_instantiation` makes of a `SideState` of `plgg`."""
    state = side_state(plgg)
    apply_instantiation(state, bindings)
    return state


# --- constraint bookkeeping -----------------------------------------------------


def test_update_distinct_consts_open_variable():
    store = VarConstraintStore()
    pred = Atom("p", ("a", "?x2"))
    lm = Atom("q", ("a", "?x0", "?x1"))
    update_distinct_consts(store, pred, lm)
    assert store.forbidden_objects("?x2") == {"a"}
    assert store.forbidden_variables("?x2") == {"?x0", "?x1"}


def test_update_distinct_consts_shared_variable_exempt():
    # a variable the landmark itself carries is not constrained against it
    store = VarConstraintStore()
    update_distinct_consts(store, Atom("on", ("?x0", "?x1")), Atom("on", ("b", "?x1")))
    assert store.forbidden_objects("?x1") == frozenset()
    assert store.forbidden_objects("?x0") == {"b"}
    assert store.forbidden_variables("?x0") == {"?x1"}


def test_fresh_variables_keep_coreferences():
    source = VarSource()
    edge = LiftedEdge(src=Atom("clear", ("?x1",)), dst=Atom("on", ("?x0", "?x1")))
    renamed = fresh_variables(edge, source)
    assert renamed.dst.args[1] == renamed.src.args[0]
    assert renamed.dst.args[0] != renamed.dst.args[1]
    again = fresh_variables(edge, source)
    assert set(again.dst.args).isdisjoint(set(renamed.dst.args))


EDGE_PARAMS = st.sampled_from(["?x0", "?x1", "?x2", "?x3", "a", "b"])
EDGE_ATOMS = st.builds(Atom, st.sampled_from(["p", "q"]),
                       st.integers(0, 3).flatmap(lambda n: st.tuples(*[EDGE_PARAMS] * n)))


def numbered(atom):
    """`atom`'s variable pattern: the numbers of its `renamed_shape`, and
    -1 for each object."""
    return tuple(-1 if isinstance(p, str) else p for p in renamed_shape(atom)[1])


@given(st.builds(LiftedEdge, EDGE_ATOMS, EDGE_ATOMS), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_edge_matches_renaming_and_substitution(edge, backward, data):
    # variables shared, repeated or missing on either side, and constants,
    # which a p-LOG read from a file may carry
    start = edge.dst if backward else edge.src
    lm = Atom(start.pred, data.draw(st.tuples(*[st.sampled_from(["a", "b", "c", "?x7"])]
                                              * start.arity)))
    renaming, compiled = VarSource(), VarSource()
    for source in (renaming, compiled):
        fresh_name(source)
    renamed = fresh_variables(edge, renaming)
    anchor, other = (renamed.dst, renamed.src) if backward else (renamed.src, renamed.dst)
    expected = other.substitute(dict(zip(anchor.args, lm.args)))
    template, fixed, bucket, own = _plan(edge, backward, numbered(lm))
    neighbour, fresh = _expand(template, lm, compiled)
    assert neighbour == expected
    # the only variables of the neighbour that the expanded atom lacks
    assert sorted(fresh) == sorted(expected.variables() - set(lm.args))
    assert fresh_name(compiled) == fresh_name(renaming)
    # the plan files the neighbour without a look at its arguments
    key = bucket_key(neighbour)
    assert fixed == key[2]
    assert bucket == (None if neighbour.is_ground else key[:3])
    assert own == (neighbour.pred, numbered(neighbour))


# --- equivalence ----------------------------------------------------------------


def test_equivalent_params_clauses():
    store = VarConstraintStore()
    update_distinct_consts(store, Atom("p", ("?x2",)), Atom("q", ("a",)))
    assert equivalent_params("a", "a", store)
    assert not equivalent_params("a", "b", store)
    assert not equivalent_params("?x2", "a", store)
    assert equivalent_params("?x2", "b", store)
    # same forbidden sets, no mutual ban
    update_distinct_consts(store, Atom("p", ("?x3",)), Atom("q", ("a",)))
    assert equivalent_params("?x2", "?x3", store)
    update_distinct_consts(store, Atom("p", ("?x2",)), Atom("q", ("?x3",)))
    assert not equivalent_params("?x2", "?x3", store)
    # differing forbidden sets
    assert not equivalent_params("?x2", "?x4", store)


def test_equivalent_atoms_requires_same_predicate():
    store = VarConstraintStore()
    assert equivalent_atoms(Atom("on", ("?x0", "b")), Atom("on", ("a", "b")), store)
    assert not equivalent_atoms(Atom("clear", ("a",)), Atom("holding", ("a",)), store)
    assert not equivalent_atoms(Atom("on", ("a",)), Atom("on", ("a", "b")), store)


def test_param_distance_counts_mixed_positions():
    assert param_distance(Atom("p", ("a", "?x0", "?x1")), Atom("p", ("a", "b", "c"))) == 2
    assert param_distance(Atom("p", ("a", "b", "c")), Atom("p", ("a", "b", "c"))) == 0
    assert param_distance(Atom("p", ("?x0", "?x1")), Atom("p", ("?x2", "b"))) == 1


def spec_candidates_graph():
    # five candidate nodes around lm = p(a,b,c), ranking probabilities set
    # so that p(a,?x4,c) outranks p(a,b,?x5)
    r = Atom("r", ())
    nodes = {
        Atom("p", ("a", "?x0", "?x1")): {r: 0.9},
        Atom("p", ("?x2", "b", "?x3")): {r: 0.9},
        Atom("p", ("a", "?x4", "c")): {r: 0.5},
        Atom("p", ("a", "b", "?x5")): {r: 0.25},
        Atom("p", ("?x6", "?x7", "?x8")): {r: 0.9},
        r: {},
    }
    return SideGraph(nodes=nodes, side="goal", store=VarConstraintStore())


def test_candidate_distances_match_worked_example():
    plgg = spec_candidates_graph()
    lm = Atom("p", ("a", "b", "c"))
    found = {node: param_distance(node, lm) for node in plgg.nodes
             if node.variables() and equivalent_atoms(node, lm, plgg.store)}
    assert sorted(found.values()) == [1, 1, 2, 2, 3]
    closest = {node for node, distance in found.items() if distance == 1}
    assert closest == {Atom("p", ("a", "?x4", "c")), Atom("p", ("a", "b", "?x5"))}


def test_top_n_binding_selection():
    state = side_state(spec_candidates_graph())
    lm = Atom("p", ("a", "b", "c"))
    assert search_best_equiv(state, lm, top_n=1) == {"?x4": "b"}
    assert search_best_equiv(state, lm, top_n=2) == {"?x4": "b", "?x5": "c"}


def test_search_best_equiv_without_candidates():
    state = side_state(SideGraph(nodes={}, side="goal", store=VarConstraintStore()))
    assert search_best_equiv(state, Atom("p", ("a",))) == {}


def test_search_best_equiv_rejects_a_lifted_landmark():
    state = side_state(spec_candidates_graph())
    with pytest.raises(ValueError, match="ground landmark"):
        search_best_equiv(state, Atom("p", ("a", "?x9", "c")))


def assert_buckets_are_ranked(state):
    """The buckets hold exactly the side's lifted nodes, each once under its
    own key, and each bucket is in (-best, node) order."""
    filed = [(key, node) for key, members in state.buckets.items() for node in members]
    lifted = [node for node in state.nodes if not node.is_ground]
    assert sorted(filed) == sorted((bucket_key(node), node) for node in lifted)
    for members in state.buckets.values():
        assert members == sorted(members, key=lambda n: (-state.best.get(n, 0.0), n))


def assert_kept_bindings_are_fresh(state):
    """Every kept binding equals a new search on the state as it is; the
    new searches leave the kept state as they found it."""
    kept, readers = dict(state.kept), {key: set(r) for key, r in state.readers.items()}
    for (lm, top_n), bindings in kept.items():
        assert search_best_equiv(state, lm, top_n) == bindings, (state.side, lm, top_n)
    state.kept, state.readers = kept, readers
    return len(kept)


def test_buckets_file_nodes_by_object_positions():
    state = side_state(spec_candidates_graph())
    assert state.buckets[("p", 3, (0,), ("a",))] == [Atom("p", ("a", "?x0", "?x1"))]
    assert state.buckets[("p", 3, (), ())] == [Atom("p", ("?x6", "?x7", "?x8"))]
    assert state.buckets[("p", 3, (0, 2), ("a", "c"))] == [Atom("p", ("a", "?x4", "c"))]
    assert len(state.buckets) == 5
    assert_buckets_are_ranked(state)


def test_rewrites_keep_every_bucket_ranked():
    anchor, first, second = Atom("r", ()), Atom("p", ("a", "?x0")), Atom("p", ("a", "?x1"))
    older = Atom("q", ("a", "?x6"))
    nodes = {first: {anchor: 0.5}, second: {anchor: 0.25}, older: {anchor: 0.5},
             Atom("q", ("?x4", "?x5")): {Atom("p", ("?x4", "?x1")): 0.9},
             Atom("p", ("?x4", "?x1")): {}, anchor: {}}
    state = side_state(SideGraph(nodes=nodes, side="goal", store=VarConstraintStore()))
    lm = Atom("p", ("a", "c"))
    assert state.buckets[("p", 2, (0,), ("a",))] == [first, second]
    assert search_best_equiv(state, lm) == {"?x0": "c"}
    assert state.kept == {(lm, 1): {"?x0": "c"}}
    apply_instantiation(state, {"?x4": "a"})
    # q(a, ?x5) joins q(a, ?x6)'s bucket ahead of it, and its edge to
    # p(a, ?x1) raises that node past p(a, ?x0) in a bucket that gains no
    # node, which must drop the bindings kept from it
    assert state.buckets[("p", 2, (0,), ("a",))] == [second, first]
    assert_kept_bindings_are_fresh(state)
    assert state.buckets[("q", 2, (0,), ("a",))] == [Atom("q", ("a", "?x5")), older]
    assert search_best_equiv(state, lm) == {"?x1": "c"}
    assert_buckets_are_ranked(state)


def full_scan_bindings(plgg, lm, top_n):
    """Reference search: scan every node, with the best incident probability
    recomputed for this one landmark."""
    best = _best_incident_prob(plgg.nodes)
    found = sorted((param_distance(node, lm), -best.get(node, 0.0), node)
                   for node in plgg.nodes
                   if node.variables() and equivalent_atoms(node, lm, plgg.store))
    bindings = {}
    for _, _, node in [entry for entry in found if entry[0] == found[0][0]][:top_n]:
        for cand_param, lm_param in zip(node.args, lm.args):
            if is_variable(cand_param) and not is_variable(lm_param):
                bindings.setdefault(cand_param, lm_param)
    return bindings


PARAMS = st.sampled_from(["a", "b", "?x0", "?x1", "?x2"])
ATOMS = st.builds(Atom, st.sampled_from(["p", "q"]),
                  st.integers(0, 2).flatmap(lambda n: st.tuples(*[PARAMS] * n)))
GROUND_ATOMS = st.builds(Atom, st.sampled_from(["p", "q"]),
                         st.lists(st.sampled_from("ab"), max_size=2).map(tuple))


@st.composite
def graphs_and_landmarks(draw):
    nodes = draw(st.lists(ATOMS, min_size=1, max_size=12, unique=True))
    graph = {node: {} for node in nodes}
    for src, dst, mu in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                                                st.sampled_from([0.5, 1.0])),
                                      max_size=16)):
        graph[src][dst] = mu
    store = VarConstraintStore()
    for pred, lm in draw(st.lists(st.tuples(ATOMS, ATOMS), max_size=6)):
        update_distinct_consts(store, pred, lm)
    # landmarks are mostly groundings of nodes, so that candidates compete
    lms = [node.substitute({v: draw(st.sampled_from("ab")) for v in sorted(node.variables())})
           for node in draw(st.lists(st.sampled_from(nodes), max_size=6))]
    lms += draw(st.lists(GROUND_ATOMS, min_size=1, max_size=2))
    return SideGraph(nodes=graph, side="goal", store=store), lms


@given(graphs_and_landmarks())
@settings(max_examples=300, deadline=None)
def test_ranked_pass_matches_full_scan(case):
    plgg, lms = case
    searched = side_state(plgg)
    for top_n in (1, 2, 3):
        expected = {}
        for lm in sorted(lms):
            found = full_scan_bindings(plgg, lm, top_n)
            assert search_best_equiv(searched, lm, top_n) == found
            for var, obj in found.items():
                expected.setdefault(var, obj)
        state = side_state(plgg)
        instantiation(state, lms, top_n)
        assert state.nodes == rewrite(plgg, expected).nodes


OBJECTS = st.sampled_from("abc")
VARIABLES = st.sampled_from(["?x0", "?x1", "?x2", "?x3"])
GROUND_LANDMARKS = st.builds(Atom, st.sampled_from(["p", "q"]),
                             st.integers(1, 3).flatmap(lambda n: st.tuples(*[OBJECTS] * n)))


@st.composite
def lifted_copies(draw, lm):
    """`lm` with some positions, at least one, turned into variables that
    may repeat, so that one landmark has equivalents in several buckets at
    one distance."""
    open_ = draw(st.sets(st.integers(0, lm.arity - 1), min_size=1))
    return Atom(lm.pred, tuple(draw(VARIABLES) if i in open_ else p
                               for i, p in enumerate(lm.args)))


@st.composite
def ground_landmark_cases(draw):
    lms = draw(st.lists(GROUND_LANDMARKS, min_size=1, max_size=4))
    nodes = draw(st.lists(st.sampled_from(lms).flatmap(lifted_copies), min_size=1,
                          max_size=14, unique=True))
    graph = {node: {} for node in nodes}
    for src, dst, mu in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                                                st.sampled_from([0.25, 0.5, 1.0])),
                                      max_size=16)):
        graph[src][dst] = mu
    store = VarConstraintStore()
    for pred, lm in draw(st.lists(st.tuples(st.sampled_from(nodes), GROUND_LANDMARKS),
                                  min_size=1, max_size=4)):
        update_distinct_consts(store, pred, lm)
    lms += draw(st.lists(GROUND_LANDMARKS, max_size=3))
    return SideGraph(nodes=graph, side="goal", store=store), lms


@given(ground_landmark_cases())
@settings(max_examples=300, deadline=None)
def test_bucket_lookup_matches_full_scan_on_ground_landmarks(case):
    # ground landmarks of arity up to 3, repeated node variables, a
    # constraint store that forbids objects, and ties across buckets
    plgg, lms = case
    state = side_state(plgg)
    for top_n in (1, 2, 3, 5):
        for lm in lms:
            assert search_best_equiv(state, lm, top_n) == full_scan_bindings(plgg, lm, top_n)


@st.composite
def rewritten_sides(draw):
    """A side whose rewrites raise nodes inside their buckets: besides
    lifted copies of the landmarks, it holds copies of those copies with
    one variable bound, which a rewrite of the more general copy reaches
    and raises."""
    plgg, lms = draw(ground_landmark_cases())
    general = [node for node in plgg.nodes if len(node.variables()) > 1]
    for node in draw(st.lists(st.sampled_from(general), max_size=4)) if general else ():
        var = draw(st.sampled_from(sorted(node.variables())))
        plgg.nodes.setdefault(node.substitute({var: draw(OBJECTS)}), {})
    nodes = list(plgg.nodes)
    for src, dst, mu in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                                                st.sampled_from([0.25, 0.5, 1.0])),
                                      max_size=8)):
        plgg.nodes[src][dst] = max(mu, plgg.nodes[src].get(dst, 0.0))
    return plgg, lms


def raised_without_a_new_node():
    """A side whose first pass, binding ?x0 to c and ?x4 to a, raises
    p(a, ?x1) past p(a, ?x0) in a bucket that gains no node."""
    anchor, target = Atom("r", ()), Atom("p", ("?x4", "?x1"))
    nodes = {Atom("p", ("a", "?x0")): {anchor: 0.5}, Atom("p", ("a", "?x1")): {anchor: 0.25},
             Atom("q", ("?x4", "?x5")): {target: 0.9}, target: {}, anchor: {}}
    return (SideGraph(nodes=nodes, side="goal", store=VarConstraintStore()),
            [Atom("p", ("a", "c")), Atom("q", ("a", "d"))])


@given(rewritten_sides(), st.integers(1, 3))
@example(raised_without_a_new_node(), 1)
@settings(max_examples=300, deadline=None)
def test_kept_bindings_stay_fresh_over_passes(case, top_n):
    # the rewrites of each pass add nodes and raise best probabilities in
    # buckets that earlier searches read; the ground nodes grow the landmarks
    plgg, lms = case
    state = side_state(plgg)
    for _ in range(4):
        instantiation(state, lms, top_n)
        assert_kept_bindings_are_fresh(state)
        assert_buckets_are_ranked(state)
        lms = sorted(set(lms) | {node for node in state.nodes if node.is_ground})


def test_first_binding_wins_across_landmarks():
    nodes = {Atom("q", ("?x0",)): {Atom("r", ()): 1.0}, Atom("r", ()): {}}
    state = side_state(SideGraph(nodes=nodes, side="goal", store=VarConstraintStore()))
    instantiation(state, [Atom("q", ("a",)), Atom("q", ("b",))])
    assert Atom("q", ("a",)) in state.nodes
    assert Atom("q", ("b",)) not in state.nodes


# --- rewriting ------------------------------------------------------------------


def test_apply_instantiation_copies_edges():
    store = VarConstraintStore()
    lifted = Atom("on", ("b", "?x0"))
    nodes = {lifted: {Atom("clear", ("?x0",)): 0.7}, Atom("clear", ("?x0",)): {}}
    plgg = SideGraph(nodes=nodes, side="goal", store=store)
    out = rewrite(plgg, {"?x0": "a"})
    assert out.nodes[Atom("on", ("b", "a"))] == {Atom("clear", ("a",)): 0.7}
    assert lifted in out.nodes  # the lifted original survives


def test_apply_instantiation_noop_binding():
    store = VarConstraintStore()
    plgg = SideGraph(nodes={Atom("clear", ("a",)): {}}, side="goal", store=store)
    out = rewrite(plgg, {"?x9": "b"})
    assert out.nodes == plgg.nodes


def test_apply_instantiation_respects_constraints(caplog):
    store = VarConstraintStore()
    update_distinct_consts(store, Atom("on", ("b", "?x0")), Atom("clear", ("a",)))
    plgg = SideGraph(nodes={Atom("on", ("b", "?x0")): {}}, side="goal", store=store)
    with caplog.at_level("WARNING"):
        out = rewrite(plgg, {"?x0": "a"})
    assert Atom("on", ("b", "a")) not in out.nodes
    assert any("constraint" in record.message for record in caplog.records)


def test_partial_binding_leaves_disjunctive_node():
    store = VarConstraintStore()
    node = Atom("p", ("?x0", "?x1", "c"))
    plgg = SideGraph(nodes={node: {}}, side="goal", store=store)
    out = rewrite(plgg, {"?x0": "a"})
    assert Atom("p", ("a", "?x1", "c")) in out.nodes


# --- generation -----------------------------------------------------------------


def test_goal_generation_reaches_hand_facts(plog, make_task):
    task = make_task("p06")
    plgg, _ = sides(plog, task)
    assert Atom("on", ("a", "b")) in plgg.nodes
    assert Atom("holding", ("a",)) in plgg.nodes
    assert Atom("clear", ("b",)) in plgg.nodes
    assert Atom("handempty", ()) in plgg.nodes
    # predecessors of the goal carry the learned probability (6 of the 10
    # on-rooted training subgraphs have the holding in-edge)
    assert plgg.nodes[Atom("on", ("a", "b"))][Atom("holding", ("a",))] == pytest.approx(0.6)


def test_goal_generation_stops_at_init_facts(plog, make_task):
    task = make_task("p06")
    plgg, _ = sides(plog, task)
    for fact in task.init:
        if fact in plgg.nodes:
            assert plgg.nodes[fact] == {}


def test_init_generation_covers_initial_state(plog, make_task):
    task = make_task("p06")
    _, plgg = sides(plog, task)
    assert set(task.init) <= set(plgg.nodes)


def test_generation_records_constraints(plog, make_task):
    task = make_task("p06")
    plgg, _ = sides(plog, task)
    constrained = [v for node in plgg.nodes for v in node.variables() if plgg.forbidden.get(v)]
    assert constrained


def test_generation_warns_on_unknown_seed(plog, caplog, domain):
    # the orderings learned from p01-p04 end only in clear, holding and on,
    # so the goal ontable(a) has none
    from plgg.pddl import ground_task, parse_problem
    text = ("(define (problem odd) (:domain blocksworld) "
            "(:objects a b - block) "
            "(:init (on a b) (ontable b) (clear a) (handempty)) "
            "(:goal (and (ontable a))))")
    task = ground_task(domain, parse_problem(text, domain))
    with caplog.at_level("WARNING", logger="plgg"):
        plgg, _ = sides(plog, task)
    assert [r.getMessage() for r in caplog.records] == \
        ["no learned orderings touch ontable(a); keeping it isolated"]
    assert plgg.nodes[Atom("ontable", ("a",))] == {}


@pytest.fixture(scope="module")
def gripper_chain(load):
    """The p-LOG learned from gripper p01, p05 and p06, its LGGs, and the
    p02 task it is instantiated on."""
    lggs = [extract_lgg(load(GRIPPER, name)[2]) for name in ("p01", "p05", "p06")]
    domain, problem, task = load(GRIPPER, "p02")
    return lggs, learn_plog(lggs, domain=domain.name), domain, problem, task


def test_goal_side_expands_each_atom_once_up_to_renaming(gripper_chain):
    # the learned orderings at(?x0, ?x2) -> carry(?x0, ?x1) and
    # carry(?x0, ?x2) -> at(?x0, ?x1) form a cycle
    _, plog, _, _, task = gripper_chain
    goal_side, _ = sides(plog, task)
    expanded = [renamed_shape(node) for node, neighbours in goal_side.nodes.items() if neighbours]
    assert len(expanded) == len(set(expanded))
    # the cycle closes on a renamed copy that keeps its node and its edge
    repeats = [node for node, neighbours in goal_side.nodes.items()
               if not neighbours and node.objects() and renamed_shape(node) in expanded]
    assert repeats
    assert all(any(node in neighbours for neighbours in goal_side.nodes.values())
               for node in repeats)


def test_gripper_chain_stays_in_the_task_vocabulary(gripper_chain):
    lggs, plog, domain, problem, task = gripper_chain
    assert plog.probs and all(0.0 <= mu <= 1.0 for mu in plog.probs.values())
    for lgg in lggs:
        assert lgg_to_json(lgg_from_json(lgg_to_json(lgg))) == lgg_to_json(lgg)
    text = plog_to_json(plog)
    assert plog_to_json(plog_from_json(text)) == text
    plgg = instantiate_task(plog, task)
    text = plgg_to_json(plgg)
    assert plgg_to_json(plgg_from_json(text)) == text
    vocabulary = problem.objects.keys() | domain.constants.keys()
    assert task.goal <= {node for node in plgg.nodes if node.is_ground}
    for node in plgg.nodes:
        assert domain.predicates[node.pred].arity == node.arity, node
        assert node.objects() <= vocabulary, node


def test_courier_chain_stays_in_the_task_vocabulary(load):
    # the learned orderings run through the 3-ary aboard(?p, ?v, ?x)
    lggs = [extract_lgg(load(COURIER, name)[2]) for name in ("p01", "p03", "p05")]
    domain, problem, task = load(COURIER, "p04")
    plog = learn_plog(lggs, domain=domain.name)
    assert any(edge.src.arity == 3 or edge.dst.arity == 3 for edge in plog.probs)
    assert plog.probs and all(0.0 <= mu <= 1.0 for mu in plog.probs.values())
    text = plog_to_json(plog)
    assert plog_to_json(plog_from_json(text)) == text
    plgg = instantiate_task(plog, task)
    text = plgg_to_json(plgg)
    assert plgg_to_json(plgg_from_json(text)) == text
    vocabulary = problem.objects.keys() | domain.constants.keys()
    assert task.goal <= {node for node in plgg.nodes if node.is_ground}
    for node in plgg.nodes:
        assert domain.predicates[node.pred].arity == node.arity, node
        assert node.objects() <= vocabulary, node


@pytest.fixture(scope="module")
def learned(load):
    """(domain directory, training stems) -> the p-LOG learned from them."""
    cache = {}

    def build(directory, train):
        if (directory, train) not in cache:
            lggs = [extract_lgg(load(directory, name)[2]) for name in train]
            cache[directory, train] = learn_plog(lggs, domain=load(directory, train[0])[0].name)
        return cache[directory, train]

    return build


def assert_generates_like_the_reference(plog, task):
    """Both sides of `task`, grown in turn with one name supply, equal the
    per-neighbour reference's, which shares one store between them: the
    same nodes in the same order, the same edge probabilities, the same
    forbidden objects, and the same fresh names drawn.  Each side keeps the
    forbidden objects of exactly the variables of its nodes, so the two
    sides constrain no variable in common.  The state generation builds
    equals the one derived from scratch from the reference's graph: the
    same best incident probabilities, the same buckets with the same
    members in the same rank order, so the same lifted nodes."""
    source = VarSource()
    ref_source, ref_store = VarSource(), VarConstraintStore()
    forbidden = []
    for generate, side in ((generate_plgg_goal, SIDE_GOAL), (generate_plgg_init, SIDE_INIT)):
        fast = generate(plog, task, var_source=source)
        reference = reference_generate(plog, task, side, ref_source, ref_store)
        assert list(fast.nodes) == list(reference.nodes), side
        assert fast.nodes == reference.nodes, side
        derived = side_state(reference)
        assert fast.best == derived.best, side
        assert fast.buckets == derived.buckets, side
        filed = {node for members in fast.buckets.values() for node in members}
        assert {node: node not in filed for node in fast.nodes} == \
            {node: node.is_ground for node in reference.nodes}, side
        assert (fast.side, fast.domain) == (side, plog.domain)
        assert fast.forbidden.keys() == {v for node in fast.nodes for v in node.variables()}, side
        forbidden.append(fast.forbidden)
    goal_forbidden, init_forbidden = forbidden
    assert goal_forbidden.keys().isdisjoint(init_forbidden)
    assert goal_forbidden | init_forbidden == ref_store._objects
    assert fresh_name(source) == fresh_name(ref_source)


@pytest.mark.parametrize("fixture", conftest.ALL_TASKS, ids=lambda t: f"{t[0].name}-{t[1]}")
def test_generation_matches_the_per_neighbour_reference(fixture, learned, load):
    directory, name = fixture
    assert_generates_like_the_reference(learned(directory, FIXTURE_PLOGS[directory]),
                                        load(directory, name)[2])


# predicates of fixed arity; a p-LOG read from a file may hold constants
PLOG_ARITIES = {"s": 0, "p": 1, "q": 2, "r": 3}
PLOG_ATOMS = st.sampled_from(sorted(PLOG_ARITIES)).flatmap(
    lambda pred: st.tuples(*[st.sampled_from(["?x0", "?x1", "?x2", "a", "b"])]
                           * PLOG_ARITIES[pred]).map(lambda args: Atom(pred, args)))
TASK_ATOMS = st.sampled_from(sorted(PLOG_ARITIES)).flatmap(
    lambda pred: st.tuples(*[OBJECTS] * PLOG_ARITIES[pred]).map(lambda args: Atom(pred, args)))


@st.composite
def drawn_plogs(draw):
    edges = draw(st.lists(st.builds(LiftedEdge, PLOG_ATOMS, PLOG_ATOMS), min_size=1,
                          max_size=10, unique=True))
    edge_counts = Counter({edge: draw(st.integers(1, 3)) for edge in edges})
    log_counts = Counter()
    for edge, n in edge_counts.items():
        log_counts[edge.dst] = max(log_counts[edge.dst], n + draw(st.integers(0, 2)))
    return PLog(edge_counts, log_counts)


@st.composite
def drawn_tasks(draw):
    """The init and goal atoms, all that generation reads of a task."""
    return SimpleNamespace(init=frozenset(draw(st.sets(TASK_ATOMS, max_size=8))),
                           goal=frozenset(draw(st.sets(TASK_ATOMS, min_size=1, max_size=4))))


def raised_by_a_second_edge():
    """A p-LOG whose two edges give p(a) the neighbour q(a) on each side,
    the first at 0.5 and the second at 1.0, which raises an existing edge
    and so the neighbour's best probability."""
    low = LiftedEdge(Atom("p", ("?x0",)), Atom("q", ("?x0",)))
    high = LiftedEdge(Atom("p", ("?x1",)), Atom("q", ("?x1",)))
    plog = PLog(Counter({low: 1, high: 2}), Counter({low.dst: 2, high.dst: 2}))
    task = SimpleNamespace(init=frozenset({Atom("p", ("a",))}),
                           goal=frozenset({Atom("q", ("a",))}))
    return plog, [task, task]


def one_lift_two_patterns():
    """A p-LOG that expands q(a, b) and then q(a, ?x1), which lift alike
    but differ in which arguments are variables, so that r(a, b) is ground
    and r(a, ?x1) lifted."""
    into_q = LiftedEdge(Atom("p", ("?x0",)), Atom("q", ("?x0", "?x1")))
    into_r = LiftedEdge(Atom("q", ("?x0", "?x1")), Atom("r", ("?x0", "?x1")))
    plog = PLog(Counter({into_q: 1, into_r: 1}), Counter({into_q.dst: 1, into_r.dst: 1}))
    task = SimpleNamespace(init=frozenset({Atom("p", ("a",)), Atom("q", ("a", "b"))}),
                           goal=frozenset({Atom("s", ())}))
    return plog, [task, task]


@given(drawn_plogs(), st.lists(drawn_tasks(), min_size=2, max_size=2))
@example(*raised_by_a_second_edge())
@example(*one_lift_two_patterns())
@settings(max_examples=200, deadline=None)
def test_generation_matches_the_per_neighbour_reference_on_drawn_plogs(plog, tasks):
    # the second task reads the edges that the first one compiled
    for task in tasks:
        assert_generates_like_the_reference(plog, task)


def test_one_plog_instantiates_tasks_in_turn_like_fresh_plogs(learned, load):
    for directory, train in FIXTURE_PLOGS.items():
        shared = learned(directory, train)
        names = sorted(name for d, name in conftest.ALL_TASKS if d == directory)
        for name in names + names[::-1]:
            task = load(directory, name)[2]
            fresh = PLog(shared.edge_counts, shared.log_counts, shared.domain)
            for top_n in (1, 2):
                assert plgg_to_json(instantiate_task(shared, task, top_n)) == \
                    plgg_to_json(instantiate_task(fresh, task, top_n)), (name, top_n)


# --- combination ----------------------------------------------------------------


def test_combine_reaches_monotone_fixpoint(plog, make_task):
    task = make_task("p06")
    plgg, passes = instantiation_passes(lambda: instantiate_task(plog, task))
    assert_monotone_fixpoint(passes, task)
    grounded = {n for n in plgg.nodes if n.is_ground}
    expected = set(task.init) | set(task.goal) | {Atom("holding", ("a",)),
                                                  Atom("holding", ("b",))}
    assert expected <= grounded


@pytest.mark.parametrize("train", list(combinations(COURIER_CORPUS, 3)), ids="-".join)
def test_courier_combine_reaches_monotone_fixpoint(train, load):
    # courier's rewrites add lifted nodes, so later rounds have more to bind
    plog = learn_plog([extract_lgg(load(COURIER, name)[2]) for name in train])
    for name in sorted(set(COURIER_CORPUS) - set(train)):
        task = load(COURIER, name)[2]
        _, passes = instantiation_passes(lambda: instantiate_task(plog, task))
        assert_monotone_fixpoint(passes, task)


@pytest.mark.parametrize("top_n", [1, 2, 3])
@pytest.mark.parametrize("fixture", conftest.ALL_TASKS, ids=lambda t: f"{t[0].name}-{t[1]}")
def test_each_pass_reads_the_facts_among_the_other_sides_nodes(fixture, top_n, learned, load):
    # the first init pass reads the goal alone; every later pass, the task
    # facts among the other side's nodes as they stand when it starts
    directory, name = fixture
    plog, task = learned(directory, FIXTURE_PLOGS[directory]), load(directory, name)[2]
    goal, init = sides(plog, task)
    other = {SIDE_INIT: goal, SIDE_GOAL: init}
    facts_before = []
    original = instantiate_module.instantiation

    def snapshot(state, lms, top_n=1):
        facts_before.append(task.facts.intersection(other[state.side].nodes))
        return original(state, lms, top_n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instantiate_module, "instantiation", snapshot)
        _, passes = instantiation_passes(lambda: combine(goal, init, task, top_n))
    assert [side for side, _ in passes] == [SIDE_INIT, SIDE_GOAL] * (len(passes) // 2)
    assert passes[0][1] == task.goal
    assert [lms for _, lms in passes[1:]] == facts_before[1:]


def test_combine_of_sides_sharing_one_name_supply_matches_instantiate_task(plog, make_task):
    task = make_task("p09")
    goal_side, init_side = sides(plog, task)
    combined = combine(goal_side, init_side, task)
    whole = instantiate_task(plog, task)
    assert parts(combined) == parts(whole)


# --- kept side state against the rebuild-per-pass reference --------------------

DROPPED_BINDING = "binding %s -> %s violates a distinct-value constraint; skipped"


class _DropCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        self.count += record.msg == DROPPED_BINDING


def counted(run):
    """`run()`'s result, and how many passes, equivalence searches and
    dropped bindings it made, whichever version of the passes it runs."""
    counts = Counter()

    def count(mp, module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        mp.setattr(module, name, wrapper)

    drops = _DropCounter()
    logger = logging.getLogger("plgg")
    logger.addHandler(drops)
    try:
        with pytest.MonkeyPatch.context() as mp:
            count(mp, instantiate_module, "instantiation", "passes")
            count(mp, conftest, "reference_instantiation", "passes")
            count(mp, instantiate_module, "search_best_equiv", "searches")
            count(mp, conftest, "reference_search", "searches")
            result = run()
    finally:
        logger.removeHandler(drops)
    counts["dropped"] = drops.count
    return result, counts


# (domain directory, training stems, held-out stem) of every learn-to-instantiate
# chain: the blocksworld p-LOG on each held-out task, and one chain each for
# gripper and courier, whose rewrites add lifted nodes
CHAINS = ([(conftest.BENCH, TRAIN, name) for name in CORPUS if name not in TRAIN]
          + [(GRIPPER, FIXTURE_PLOGS[GRIPPER], "p02"), (COURIER, FIXTURE_PLOGS[COURIER], "p04")])


def chain_id(chain):
    directory, _, name = chain
    return f"{directory.name}-{name}"


def assert_matches_reference(plog, task):
    for top_n in (1, 2, 3):
        kept, kept_calls = counted(lambda: instantiate_task(plog, task, top_n))
        rebuilt, rebuilt_calls = counted(lambda: reference_instantiate_task(plog, task, top_n))
        assert plgg_to_json(kept) == plgg_to_json(rebuilt), top_n
        # kept bindings stand in for searches, never for passes or dropped bindings
        assert kept_calls["passes"] == rebuilt_calls["passes"], top_n
        assert kept_calls["dropped"] == rebuilt_calls["dropped"], top_n
        assert 0 < kept_calls["searches"] <= rebuilt_calls["searches"], top_n
        assert kept_calls["passes"] >= 2


@pytest.mark.parametrize("chain", CHAINS, ids=chain_id)
def test_kept_state_matches_the_rebuilding_reference(chain, learned, load):
    directory, train, name = chain
    assert_matches_reference(learned(directory, train), load(directory, name)[2])


@given(blocksworld_problems())
@settings(max_examples=40, deadline=None)
def test_kept_state_matches_the_rebuilding_reference_on_drawn_tasks(plog, domain, text):
    assert_matches_reference(plog, ground_task(domain, parse_problem(text, domain)))


def check_every_pass(plog, task, top_n):
    """Combine `task`'s sides, checking the kept state before and after
    every pass: `best` equals the side's best incident probabilities, the
    buckets hold the lifted nodes in rank order, and every kept binding
    equals a new search on the state as it is.  The passes grow the given
    sides in place, and the combined graph equals the reference union of
    the two final sides.  Returns the number of passes, of lifted nodes the
    rewrites added, and of kept bindings checked."""
    goal_side, init_side = sides(plog, task)
    given_sides = copy.deepcopy((goal_side.nodes, init_side.nodes))
    one_pass = instantiation
    seen = Counter()
    passed = set()

    def assert_kept_state(state):
        assert state.best == _best_incident_prob(state.nodes)
        assert_buckets_are_ranked(state)
        seen["kept"] += assert_kept_bindings_are_fresh(state)

    def checked_pass(state, lms, top_n=1):
        assert_kept_state(state)  # as built, or as the side's last pass left it
        before = sum(map(len, state.buckets.values()))
        one_pass(state, lms, top_n)
        assert_kept_state(state)
        passed.add(id(state))
        seen["passes"] += 1
        seen["new lifted"] += sum(map(len, state.buckets.values())) - before

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instantiate_module, "instantiation", checked_pass)
        combined = combine(goal_side, init_side, task, top_n)
    assert seen["passes"] >= 2
    # combine consumes the sides it is given: its passes only add nodes to
    # them and raise their edges' probabilities, in place
    assert passed == {id(goal_side), id(init_side)}
    for side, given in zip((goal_side, init_side), given_sides):
        for node, neighbours in given.items():
            assert all(side.nodes[node][n] >= mu for n, mu in neighbours.items()), node
    reference = combined_graph(goal_side, init_side)
    assert combined.edges == reference.edges
    assert combined.nodes == reference.nodes
    whole = instantiate_task(plog, task, top_n)
    assert parts(combined) == parts(whole)
    return seen


@pytest.mark.parametrize("fixture", conftest.ALL_TASKS, ids=lambda t: f"{t[0].name}-{t[1]}")
def test_kept_state_invariants_hold_after_every_pass(fixture, learned, load):
    directory, name = fixture
    for top_n in (1, 2, 3):
        seen = check_every_pass(learned(directory, FIXTURE_PLOGS[directory]),
                                load(directory, name)[2], top_n)
        assert seen["kept"] > 0
        if directory == COURIER and name == "p04":
            # the branch where a rewrite adds a lifted node, which blocksworld never takes
            assert seen["new lifted"] > 0


@given(blocksworld_problems(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_kept_state_invariants_hold_after_every_pass_on_drawn_tasks(plog, domain, text, top_n):
    check_every_pass(plog, ground_task(domain, parse_problem(text, domain)), top_n)


PASS_RECORD = re.compile(r"^(init|goal) side pass: (\d+) landmarks searched, "
                         r"(\d+) bindings reused$")


def test_each_pass_logs_one_debug_record(plog, make_task, caplog):
    task = make_task("p06")
    with caplog.at_level("DEBUG", logger="plgg"):
        (_, passes), calls = counted(
            lambda: instantiation_passes(lambda: instantiate_task(plog, task)))
    records = [PASS_RECORD.match(r.getMessage()) for r in caplog.records]
    assert all(records) and all(r.levelname == "DEBUG" for r in caplog.records)
    # each round instantiates the init side, then the goal side
    rounds = sum(side == SIDE_INIT for side, _ in passes)
    assert [side for side, _ in passes] == ["init", "goal"] * rounds
    assert [m[1] for m in records] == ["init", "goal"] * rounds
    assert len(records) == calls["passes"]
    assert sum(int(m[2]) for m in records) == calls["searches"]
    assert sum(int(m[3]) for m in records) > 0
    # the first init pass searches every goal landmark, reusing nothing
    assert records[0].groups() == ("init", str(len(task.goal)), "0")


def test_combined_union_is_predecessor_oriented(plog, make_task):
    # every combined edge runs from the predecessor to the successor
    task = make_task("p06")
    plgg = instantiate_task(plog, task)
    goal = Atom("on", ("a", "b"))
    assert plgg.edges.get((Atom("holding", ("a",)), goal)) == pytest.approx(0.6)
    # init-side successors appear as destinations of edges from the init fact
    init_fact = Atom("clear", ("a",))
    successors = [dst for src, dst in plgg.edges if src == init_fact]
    assert successors


# --- extraction and serialization ----------------------------------------------


def test_extract_result_threshold(plog, make_task):
    task = make_task("p06")
    plgg = instantiate_task(plog, task)
    full = extract_result(plgg, threshold=0.0)
    assert all(0.0 < mu <= 1.0 for mu in full.orderings.values())
    strict = extract_result(plgg, threshold=0.3)
    assert all(mu >= 0.3 for mu in strict.orderings.values())
    assert len(strict.orderings) < len(full.orderings)


def test_extract_result_keeps_isolated_nodes():
    plgg = graph_of({Atom("clear", ("a",)): {},
                     Atom("on", ("a", "b")): {Atom("clear", ("b",)): 0.29}}, SIDE_GOAL)
    content = extract_result(plgg, threshold=0.3)
    assert Atom("clear", ("a",)) in content.landmarks_grounded
    assert not content.orderings
    assert Atom("on", ("a", "b")) not in content.landmarks_grounded


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_extraction_shrinks_with_threshold(plog, make_task, threshold):
    plgg = instantiate_task(plog, make_task("p05"))
    base = extract_result(plgg, threshold=0.0)
    cut = extract_result(plgg, threshold=threshold)
    assert set(cut.orderings) <= set(base.orderings)
    assert cut.landmarks_grounded <= base.landmarks_grounded
    assert cut.landmarks_lifted <= base.landmarks_lifted
    assert all(mu >= threshold for mu in cut.orderings.values())


def test_plgg_json_roundtrip(plog, make_task):
    plgg = instantiate_task(plog, make_task("p05"))
    text = plgg_to_json(plgg)
    back = plgg_from_json(text)
    assert plgg_to_json(back) == text
    a, b = extract_result(plgg), extract_result(back)
    assert (a.landmarks_grounded, a.landmarks_lifted, a.orderings) == (
        b.landmarks_grounded, b.landmarks_lifted, b.orderings)


@pytest.mark.parametrize("fixture", conftest.ALL_TASKS, ids=lambda t: f"{t[0].name}-{t[1]}")
def test_extract_result_keeps_the_nodes_whose_best_edge_clears_the_threshold(
        fixture, learned, load):
    """At each threshold, `extract_result` keeps exactly the nodes with no
    incident edge or whose largest incident `mu` reaches it, and the graph
    read back from its p-LGG file gives the same content."""
    directory, name = fixture
    plgg = instantiate_task(learned(directory, FIXTURE_PLOGS[directory]), load(directory, name)[2])
    best = {}
    for edge, mu in plgg.edges.items():
        for node in edge:
            best[node] = max(mu, best.get(node, mu))
    back = plgg_from_json(plgg_to_json(plgg))
    for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
        content = extract_result(plgg, threshold)
        kept = {a for a in plgg.nodes if a not in best or best[a] >= threshold}
        assert content.landmarks_grounded == {a for a in kept if plgg.nodes[a]}, threshold
        assert content.landmarks_lifted == {a for a in kept if not plgg.nodes[a]}, threshold
        assert extract_result(back, threshold) == content, threshold


def test_plgg_json_side_orientation(plog, make_task):
    task = make_task("p01")
    for side in sides(plog, task):
        graph = graph_of(side.nodes, side.side, side.domain)
        back = plgg_from_json(plgg_to_json(graph))
        assert back.side == side.side
        assert extract_result(back).orderings == extract_result(graph).orderings


def test_plgg_dot_marks_lifted(plog, make_task):
    plgg = instantiate_task(plog, make_task("p01"))
    dot = plgg_to_dot(plgg)
    assert dot.startswith("digraph")
    assert "style=dashed" in dot
