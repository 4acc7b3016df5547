"""Parser, printer, and grounding checks, including an independent
re-grounding oracle that enumerates substitutions from scratch."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from plgg.instantiate import instantiate_task
from plgg.lgg import extract_lgg, oracle_landmarks
from plgg.pddl import (Atom, ParseError, PddlError, Problem, _read_sexprs, _Tok, explore,
                       ground_task, parse_domain, parse_problem, problem_to_pddl, read_file)
from plgg.plog import LiftedEdge, learn_plog

from conftest import (ALL_TASKS, BENCH, CORPUS, COURIER, COURIER_CORPUS, FIXTURE_PLOGS, GRIPPER,
                      GRIPPER_CORPUS, assert_grounds_as_the_reference, reference_tokens)
from test_lgg import assert_levels_match_definition, atom_levels, task_id


def test_domain_shape(domain):
    assert domain.name == "blocksworld"
    assert set(domain.predicates) == {"on", "ontable", "clear", "handempty", "holding"}
    assert set(domain.schemas) == {"pick-up", "put-down", "stack", "unstack"}
    assert domain.predicates["on"].param_types == ("block", "block")


def test_atom_helpers():
    a = Atom("on", ("a", "?x0"))
    assert a.objects() == frozenset({"a"})
    assert a.variables() == frozenset({"?x0"})
    assert not a.is_ground
    assert a.substitute({"?x0": "b"}) == Atom("on", ("a", "b"))
    assert Atom("handempty", ()).is_ground


def test_atom_and_lifted_edge_are_their_own_keys():
    """An atom equals, hashes and sorts as its (pred, args) tuple and a
    lifted edge as its (src, dst) pair, so each is its own key."""
    atoms = [Atom("on", ("b", "a")), Atom("clear", ("a",)), Atom("handempty"),
             Atom("on", ("a", "?x0")), Atom("on", ("a", "b"))]
    keys = [(a.pred, a.args) for a in atoms]
    assert atoms == keys and list(map(hash, atoms)) == list(map(hash, keys))
    assert [{key: i for i, key in enumerate(keys)}[a] for a in atoms] == list(range(len(atoms)))
    assert sorted(atoms) == sorted(keys)
    assert repr(atoms[0]) == "Atom(pred='on', args=('b', 'a'))" and str(atoms[2]) == "handempty()"
    edges = [LiftedEdge(atoms[i], atoms[j]) for i, j in ((0, 1), (1, 0), (4, 3), (3, 3))]
    pairs = [(e.src, e.dst) for e in edges]
    assert edges == pairs and list(map(hash, edges)) == list(map(hash, pairs))
    assert sorted(edges) == sorted(pairs)
    assert repr(edges[0]).startswith("LiftedEdge(src=Atom(pred='on', ")


# --- independent grounding oracle ---------------------------------------------


def naive_ground_actions(domain, problem):
    """Ground every schema by brute-force substitution over the domain's
    constants and the problem's objects, written without any of the
    library's grounding machinery.  Substitutions that make an atom
    appear in both add and delete are dropped; the rest are filtered by a
    relaxed reachability loop."""
    pools = {}
    for obj, typ in {**domain.constants, **problem.objects}.items():
        t = typ
        while t is not None:
            pools.setdefault(t, []).append(obj)
            t = domain.types[t]
    candidates = []
    for schema in domain.schemas.values():
        lists = [sorted(pools.get(t, [])) for _, t in schema.params]
        for combo in itertools.product(*lists):
            binding = {v: o for (v, _), o in zip(schema.params, combo)}
            sub = lambda atoms: frozenset(a.substitute(binding) for a in atoms)
            add, delete = sub(schema.add), sub(schema.delete)
            if add & delete:
                continue
            candidates.append((schema.name, combo, sub(schema.pre), add))
    reached = set(problem.init)
    kept = set()
    changed = True
    while changed:
        changed = False
        for name, combo, pre, add in candidates:
            if (name, combo) not in kept and pre <= reached:
                kept.add((name, combo))
                if not add <= reached:
                    reached |= add
                changed = True
    return kept


@pytest.mark.parametrize("name", CORPUS)
def test_grounding_matches_naive_oracle(name, domain, bench_dir, make_task):
    problem = parse_problem((bench_dir / f"{name}.pddl").read_text(), domain)
    expected = naive_ground_actions(domain, problem)
    actual = {(a.name, a.args) for a in make_task(name).actions}
    assert actual == expected


@pytest.mark.parametrize("name", GRIPPER_CORPUS)
def test_gripper_grounding_matches_naive_oracle(name, load):
    domain, problem, task = load(GRIPPER, name)
    assert {(a.name, a.args) for a in task.actions} == naive_ground_actions(domain, problem)
    assert {a.name for a in task.actions} == {"drop", "move", "pick"}


@pytest.mark.parametrize("name", COURIER_CORPUS)
def test_courier_grounding_matches_naive_oracle(name, load):
    domain, problem, task = load(COURIER, name)
    assert {(a.name, a.args) for a in task.actions} == naive_ground_actions(domain, problem)
    assert domain.predicates["aboard"].arity == 3
    assert any(p.pred == "aboard" for a in task.actions if a.name == "ride" for p in a.pre)
    assert any(f.pred == "aboard" for a in task.actions if a.name == "ride" for f in a.add)


def assert_index_matches_scan(task, domain):
    """Every table of the task's index equals a scan of its actions, which
    ground `domain`'s schemas, and every atom of the task is the one object
    the fact table holds."""
    index = task.index
    assert list(task.actions) == sorted(task.actions)
    for f, atom in enumerate(index.atoms):
        assert index.ids[atom] == f
    table = {atom: atom for atom in index.atoms}
    for atom in itertools.chain(task.facts, task.init, task.goal):
        assert table[atom] is atom
    for a, action in enumerate(task.actions):
        assert sorted(index.pre[a]) == sorted({index.ids[p] for p in action.pre})
        assert sorted(index.add[a]) == sorted({index.ids[f] for f in action.add})
        for atom in action.pre | action.add | action.delete:
            assert table[atom] is atom
    for f, atom in enumerate(index.atoms):
        assert index.consumers[f] == [a for a, action in enumerate(task.actions)
                                      if atom in action.pre]
        assert index.achievers[f] == [a for a, action in enumerate(task.actions)
                                      if atom in action.add]
    assert {index.atoms[f] for f in index.init} == task.init
    assert {index.atoms[f] for f in index.goal} == task.goal
    for action in task.actions:
        schema = domain.schemas[action.name]
        binding = {v: obj for (v, _), obj in zip(schema.params, action.args)}
        for part in ("pre", "add", "delete"):
            expected = {atom.substitute(binding) for atom in getattr(schema, part)}
            assert getattr(action, part) == expected


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_index_tables_match_a_scan(case, load):
    domain, _, task = load(*case)
    assert_index_matches_scan(task, domain)


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_grounding_matches_the_row_by_row_reference(case, load):
    assert_grounds_as_the_reference(*load(*case)[:2])


def assert_stored_levels_are_fresh(index):
    assert (index.fact_level, index.action_level) == explore(index.init, index.pre,
                                                             index.add, index.consumers)


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_stored_levels_equal_a_fresh_exploration(case, load):
    assert_stored_levels_are_fresh(load(*case)[2].index)


def test_pipeline_leaves_the_action_view_unbuilt(domain, bench_dir, plog):
    # extraction, the oracle and instantiation read only the index, so the
    # GroundAction view costs nothing until something asks for it
    problem = parse_problem((bench_dir / "p05.pddl").read_text(), domain)
    task = ground_task(domain, problem)
    extract_lgg(task)
    oracle_landmarks(task)
    instantiate_task(plog, task)
    assert "actions" not in vars(task)
    assert ([(a.name, a.args) for a in task.actions]
            == sorted(naive_ground_actions(domain, problem)))


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_index_tables_are_built_when_first_read(case, load):
    # instantiation reads neither the achievers nor the action view, and
    # extraction only the achievers, so on a freshly grounded task the view stays unbuilt
    directory, name = case
    domain, problem, _ = load(directory, name)
    plog = learn_plog([extract_lgg(load(directory, stem)[2]) for stem in FIXTURE_PLOGS[directory]],
                      domain=domain.name)
    task = ground_task(domain, problem)
    instantiate_task(plog, task)
    assert "achievers" not in vars(task.index) and "actions" not in vars(task)
    extract_lgg(task)
    assert "actions" not in vars(task)


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_each_fact_is_interned_once_as_its_atom(case, load):
    index = load(*case)[2].index
    assert len(index.ids) == len(index.atoms)
    assert all(key is atom and type(key) is Atom for key, atom in zip(index.ids, index.atoms))


# Substitutions with ?x = ?y collapse join's two preconditions into one, so
# a count of preconditions that is not distinct never lets such a join apply;
# swap with ?x = ?y adds and deletes one atom and is discarded.
TOKENS = parse_domain("""
(define (domain tokens)
  (:requirements :strips :typing)
  (:types item)
  (:predicates (p ?x - item) (q ?x - item) (r ?x - item ?y - item) (s))
  (:action spark :parameters () :effect (s))
  (:action join :parameters (?x - item ?y - item)
    :precondition (and (p ?x) (p ?y)) :effect (r ?x ?y))
  (:action lift :parameters (?x - item ?y - item)
    :precondition (and (r ?x ?y) (s)) :effect (and (q ?x) (not (p ?y))))
  (:action swap :parameters (?x - item ?y - item)
    :precondition (q ?x) :effect (and (q ?y) (not (q ?x)))))
""")
TOKEN_FACTS = sorted({Atom("s")}
                     | {Atom(pred, (x,)) for pred in "pq" for x in "abc"}
                     | {Atom("r", (x, y)) for x in "abc" for y in "abc"})


@given(st.sets(st.sampled_from(TOKEN_FACTS), max_size=4),
       st.sets(st.sampled_from(TOKEN_FACTS), max_size=2))
@settings(max_examples=150, deadline=None)
def test_grounding_counts_collapsed_preconditions_once(init, goal):
    problem = Problem("tokens-1", "tokens", dict.fromkeys("abc", "item"),
                      frozenset(init), frozenset(goal))
    task = ground_task(TOKENS, problem)
    assert {(a.name, a.args) for a in task.actions} == naive_ground_actions(TOKENS, problem)
    assert_index_matches_scan(task, TOKENS)
    assert_grounds_as_the_reference(TOKENS, problem)
    assert_levels_match_definition(task.init, task.actions, *atom_levels(task))


# Edge cases of column-by-column grounding: put's two adds of p and take's
# two deletes of q collapse at ?x = ?y; the ghost type has no objects; mark
# takes the tool c in item slots and clashes when ?x = ?t; the 0-ary u sits
# in parameterised schemas.
EDGES = parse_domain("""
(define (domain edges)
  (:requirements :strips :typing)
  (:types item ghost - object tool - item)
  (:predicates (p ?x - item) (q ?x - item) (r ?x - item ?y - item) (u) (w ?g - ghost))
  (:action put :parameters (?x - item ?y - item)
    :precondition (r ?x ?y) :effect (and (p ?x) (p ?y) (u)))
  (:action take :parameters (?x - item ?y - item)
    :precondition (and (p ?x) (u)) :effect (and (r ?y ?x) (not (q ?x)) (not (q ?y))))
  (:action mark :parameters (?t - tool ?x - item)
    :precondition (p ?t) :effect (and (q ?x) (not (q ?t))))
  (:action haunt :parameters (?g - ghost ?x - item)
    :precondition (p ?x) :effect (w ?g)))
""")
EDGE_OBJECTS = {"a": "item", "b": "item", "c": "tool"}
EDGE_FACTS = sorted({Atom("u")}
                    | {Atom(pred, (x,)) for pred in "pq" for x in "abc"}
                    | {Atom("r", (x, y)) for x in "abc" for y in "abc"})


@given(st.sets(st.sampled_from(EDGE_FACTS), max_size=4),
       st.sets(st.sampled_from(EDGE_FACTS), max_size=2))
@settings(max_examples=150, deadline=None)
def test_grounding_edge_cases_match_the_naive_oracle(init, goal):
    problem = Problem("edges-1", "edges", dict(EDGE_OBJECTS), frozenset(init), frozenset(goal))
    task = ground_task(EDGES, problem)
    assert {(a.name, a.args) for a in task.actions} == naive_ground_actions(EDGES, problem)
    assert_index_matches_scan(task, EDGES)
    assert_grounds_as_the_reference(EDGES, problem)
    assert_levels_match_definition(task.init, task.actions, *atom_levels(task))
    assert_stored_levels_are_fresh(task.index)


# A column is computed once per predicate, parameter slots and schema pools.
# With every object a tool, mark's pools equal put's and take's, so their
# p(?x)-shaped columns are shared; with any item, mark's first pool is smaller
# and the columns must not be.
@given(st.tuples(*[st.sampled_from(("item", "tool"))] * len(EDGE_OBJECTS)),
       st.sets(st.sampled_from(EDGE_FACTS), max_size=4),
       st.sets(st.sampled_from(EDGE_FACTS), max_size=2))
@settings(max_examples=150, deadline=None)
def test_grounding_shares_columns_only_between_equal_pools(types, init, goal):
    objects = dict(zip(EDGE_OBJECTS, types))
    problem = Problem("edges-3", "edges", objects, frozenset(init), frozenset(goal))
    task = ground_task(EDGES, problem)
    assert {(a.name, a.args) for a in task.actions} == naive_ground_actions(EDGES, problem)
    assert_index_matches_scan(task, EDGES)
    assert_grounds_as_the_reference(EDGES, problem)
    assert_stored_levels_are_fresh(task.index)


# Columns that read fewer slots than their schema has: fold's r(?x, ?x)
# repeats a variable and its s(?y, ?x) reverses the slots; hop's r(?x, ?z)
# skips the middle of three slots and its p(?y) reads that slot alone;
# haunt's ghost pool is empty, so its v(?x) column has no rows and v is
# never interned.
SLOTS = parse_domain("""
(define (domain slots)
  (:requirements :strips :typing)
  (:types item ghost - object tool - item)
  (:predicates (p ?x - item) (r ?x - item ?y - item) (s ?x - item ?y - item) (v ?x - item)
               (w ?g - ghost))
  (:action fold :parameters (?x - item ?y - tool)
    :precondition (r ?x ?x) :effect (and (s ?y ?x) (not (r ?y ?y))))
  (:action hop :parameters (?x - item ?y - tool ?z - item)
    :precondition (and (r ?x ?z) (p ?y)) :effect (and (s ?z ?x) (p ?z) (not (p ?x))))
  (:action haunt :parameters (?x - item ?g - ghost)
    :precondition (p ?x) :effect (and (v ?x) (w ?g))))
""")
SLOT_OBJECTS = "abcd"
SLOT_FACTS = sorted({Atom("p", (x,)) for x in SLOT_OBJECTS}
                    | {Atom(pred, (x, y)) for pred in "rs" for x in SLOT_OBJECTS
                       for y in SLOT_OBJECTS})


@given(st.tuples(*[st.sampled_from(("item", "tool"))] * len(SLOT_OBJECTS)),
       st.sets(st.sampled_from(SLOT_FACTS), max_size=5),
       st.sets(st.sampled_from(SLOT_FACTS), max_size=2))
@settings(max_examples=150, deadline=None)
def test_partial_columns_ground_as_the_reference(types, init, goal):
    problem = Problem("slots-1", "slots", dict(zip(SLOT_OBJECTS, types)), frozenset(init),
                      frozenset(goal))
    assert_grounds_as_the_reference(SLOTS, problem)
    task = ground_task(SLOTS, problem)
    assert {(a.name, a.args) for a in task.actions} == naive_ground_actions(SLOTS, problem)
    assert not any(atom.pred == "v" for atom in task.index.atoms)


def test_grounding_edge_cases_by_hand():
    init = {Atom("r", ("a", "a")), Atom("r", ("a", "c"))}
    task = ground_task(EDGES, Problem("edges-2", "edges", dict(EDGE_OBJECTS),
                                      frozenset(init), frozenset()))
    actions = {(a.name, a.args): a for a in task.actions}
    assert actions["put", ("a", "a")].add == {Atom("p", ("a",)), Atom("u")}
    assert actions["take", ("a", "a")].delete == {Atom("q", ("a",))}
    assert ("mark", ("c", "a")) in actions and ("mark", ("c", "c")) not in actions
    assert not any(a.name == "haunt" for a in task.actions)


def test_grounding_counts_three_blocks(make_task):
    # 3 blocks: pick-up/put-down are unary, stack/unstack exclude x=y pairs
    task = make_task("p01")
    by_schema = {}
    for action in task.actions:
        by_schema.setdefault(action.name, []).append(action)
    assert len(by_schema["pick-up"]) == 3
    assert len(by_schema["put-down"]) == 3
    assert len(by_schema["stack"]) == 6
    assert len(by_schema["unstack"]) == 6


def test_no_self_stacking(make_task):
    task = make_task("p01")
    for action in task.actions:
        if action.name in ("stack", "unstack"):
            assert action.args[0] != action.args[1]


def test_facts_cover_goal_and_deletes(make_task):
    task = make_task("p01")
    assert set(task.goal) <= set(task.facts)
    assert Atom("handempty", ()) in task.facts
    assert len(task.facts) == 16


def test_roundtrip_through_printer(domain, bench_dir):
    problem = parse_problem((bench_dir / "p05.pddl").read_text(), domain)
    reproblem = parse_problem(problem_to_pddl(problem), domain)
    assert reproblem == problem


BAD_DOMAINS = [
    ("(define (domain d) (:requirements :adl))", "requirement"),
    ("(define (domain d) (:types t - missing) )", "type"),
    ("(define (domain d) (:predicates (p ?x) (p ?x)))", "twice"),
    ("(define (domain d) (:predicates (p x)))", "variable"),
    ("(define (domain d) (:predicates (p ?x)) (:action a :parameters (?x) "
     ":precondition (and) :effect (and (p ?y))))", "unbound"),
    ("(define (domain d) (:predicates (p ?x)) (:action a :parameters (?x) "
     ":precondition (and) :effect (and (p ?x) (not (p ?x)))))", "both"),
]


@pytest.mark.parametrize("text,fragment", BAD_DOMAINS)
def test_domain_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert fragment in str(err.value).lower()


ACTION = "(define (domain d) (:predicates (p ?x)) (:action a :parameters (?x) {}))"
EXACT_MESSAGES = [
    (ACTION.format(":precondition (q ?x) :effect (p ?x)"),
     "unknown predicate q in precondition of action a (line 1, column 83)"),
    (ACTION.format(":precondition (p ?x ?x) :effect (p ?x)"),
     "arity mismatch for p in precondition of action a: expected 1, got 2 (line 1, column 83)"),
    (ACTION.format(":effect (p ?y)"),
     "unbound variable ?y in effect of action a (line 1, column 77)"),
    (ACTION.format(":effect (not (p b))"),
     "constant b in effect of action a is not supported (line 1, column 77)"),
    (ACTION.format(":effect (not ())"),
     "(not ...) must wrap a single atom (line 1, column 77)"),
    # a repeated action keyword points at its second copy
    (ACTION.format(":precondition (p ?x) :precondition (p ?x) :effect (p ?x)"),
     "action a repeats :precondition (line 1, column 90)"),
    (ACTION.format(":effect (p ?x) :precondition (p ?x) :effect (p ?x)"),
     "action a repeats :effect (line 1, column 105)"),
    ("(define (domain d) (:requirements :strips :adl))",
     "unsupported requirement :adl (line 1, column 43)"),
    ("(define (problem p) (:domain blocksworld) (:requirements :strips :fluents))",
     "unsupported requirement :fluents (line 1, column 66)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init) (:goal (foo a)))",
     "unknown predicate foo in :goal (line 1, column 79)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init (on a)) (:goal (and)))",
     "arity mismatch for on in :init: expected 2, got 1 (line 1, column 71)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init) "
     "(:goal (and (and (clear a) (foo a)) (bar a))))",
     "unknown predicate foo in :goal (line 1, column 99)"),
    ("(define (problem p) (:domain) (:objects a - block) (:init) (:goal (and)))",
     ":domain takes exactly one name (line 1, column 21)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init) (:goal foo))",
     "expected an atom, (not ...), or (and ...) (line 1, column 79)"),
    # a stray header, a bare symbol and a form without a name are no sections
    ("(define (domain d) (:predicates (p ?x)) (domain e))",
     "unsupported domain section domain (line 1, column 41)"),
    ("(define (problem p) :domain blocksworld (:init) (:goal (and)))",
     "unsupported problem section :domain (line 1, column 21)"),
    ("(define (domain d) ((:types a)))",
     "expected a domain section, found a form without a name (line 1, column 20)"),
    ("(define (problem p) (:domain blocksworld) () (:init) (:goal (and)))",
     "expected a problem section, found a form without a name (line 1, column 43)"),
    # a bad item of a section points at the item, not at the section
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init (clear a) foo) "
     "(:goal (and)))",
     "expected an atom in :init (line 1, column 81)"),
    ("(define (domain d) (:predicates (p ?x) q))",
     "expected a (name ?arg - type ...) predicate declaration (line 1, column 40)"),
    ("(define (domain d) (:predicates (p ?x) ()))",
     "expected a (name ?arg - type ...) predicate declaration (line 1, column 40)"),
    # a problem without a goal or a domain points at its header
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init))",
     "problem is missing its (:goal ...) section (line 1, column 9)"),
    ("(define (problem p) (:objects a - block) (:init) (:goal (and)))",
     "problem is missing its (:domain ...) section (line 1, column 9)"),
    # a repeated section points at its second copy; only actions repeat
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init) (:goal (and)) "
     "(:goal (clear a)))",
     "problem section :goal appears twice (line 1, column 86)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init (clear a)) (:init) "
     "(:goal (and)))",
     "problem section :init appears twice (line 1, column 82)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:objects b - block) "
     "(:init) (:goal (and)))",
     "problem section :objects appears twice (line 1, column 64)"),
    ("(define (domain d) (:predicates (p ?x)) (:predicates (q ?x)))",
     "domain section :predicates appears twice (line 1, column 41)"),
    # a text that is not one define points at its first other form, if it has one
    ("(define (domain d)) (foo)",
     "expected a single (define (domain ...) ...) form (line 1, column 21)"),
    ("(foo)", "expected a single (define (domain ...) ...) form (line 1, column 1)"),
    ("; no form at all", "expected a single (define (domain ...) ...) form"),
    # a form left open points at the last token, not into a comment after it
    ("(define (domain d) ; open",
     "unbalanced '(': input ended inside a form (line 1, column 18)"),
    # only an action's precondition and effect may be an empty form
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init) (:goal ()))",
     "expected an atom, (not ...), or (and ...) (line 1, column 79)"),
    (ACTION.format(":precondition (and ()) :effect (p ?x)"),
     "expected an atom, (not ...), or (and ...) (line 1, column 88)"),
    (ACTION.format(":precondition ()"), "action a has no :effect (line 1, column 41)"),
]


@pytest.mark.parametrize("text,message", EXACT_MESSAGES)
def test_check_messages_are_exact(domain, text, message):
    with pytest.raises(ParseError) as err:
        if "(problem" in text:
            parse_problem(text, domain)
        else:
            parse_domain(text)
    assert str(err.value) == message


@pytest.mark.parametrize("body", [":precondition () :effect (p ?x)",
                                  ":precondition (p ?x) :effect ()",
                                  ":precondition () :effect ()", ":effect ()"])
def test_empty_precondition_or_effect_reads_as_no_atoms(body):
    """PDDL's ``<emptyOr ...>``: an action's ``()`` precondition or effect
    reads as ``(and)``."""
    domain = parse_domain(ACTION.format(body))
    assert domain == parse_domain(ACTION.format(body.replace("()", "(and)")))
    schema = domain.schemas["a"]
    assert not schema.delete and len(schema.pre | schema.add) == body.count("(p ?x)")


BAD_PROBLEMS = [
    ("(define (problem p) (:domain other) (:objects a - block) "
     "(:init) (:goal (and)))", "domain"),
    ("(define (problem p) (:domain blocksworld) (:objects a - tower) "
     "(:init) (:goal (and)))", "type"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block a - block) "
     "(:init) (:goal (and)))", "twice"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) "
     "(:init (on ?x a)) (:goal (and)))", "variable"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) "
     "(:init (on a)) (:goal (and)))", "arity"),
]


@pytest.mark.parametrize("text,fragment", BAD_PROBLEMS)
def test_problem_errors(domain, text, fragment):
    with pytest.raises(ParseError) as err:
        parse_problem(text, domain)
    assert fragment in str(err.value).lower()


COURIER_PROBLEM = ("(define (problem p) (:domain courier) (:objects a b - place v1 - van "
                   "q1 - parcel) (:init (road a b) {}) (:goal {}))")
MISTYPED_ATOMS = [
    # a parcel in the van slot of the initial state
    (COURIER_PROBLEM.format("(at q1 a) (waiting q1 a)", "(waiting q1 b)"),
     "at in :init expects a van, got q1 of type parcel (line 1, column 101)"),
    # a van waiting as a parcel would, in the goal
    (COURIER_PROBLEM.format("(at v1 a) (empty v1) (waiting q1 a)", "(waiting v1 b)"),
     "waiting in :goal expects a parcel, got v1 of type van (line 1, column 145)"),
]


@pytest.mark.parametrize("text,message", MISTYPED_ATOMS, ids=["init", "goal"])
def test_ground_atoms_check_their_objects_types(text, message, load):
    domain = load(COURIER, "p01")[0]
    with pytest.raises(ParseError) as err:
        parse_problem(text, domain)
    assert str(err.value) == message


def test_ground_atoms_accept_objects_of_a_subtype():
    domain = parse_domain("(define (domain d) (:types vehicle place - object van - vehicle) "
                          "(:predicates (at ?v - vehicle ?x - place)))")
    text = ("(define (problem p) (:domain d) (:objects a - place v1 - van) "
            "(:init {}) (:goal (and)))")
    assert parse_problem(text.format("(at v1 a)"), domain).init == {Atom("at", ("v1", "a"))}
    with pytest.raises(ParseError, match="at in :init expects a vehicle, got a of type place"):
        parse_problem(text.format("(at a a)"), domain)


def test_read_file_names_undecodable_file(tmp_path):
    good = tmp_path / "good.pddl"
    good.write_bytes("(define (domain caf\u00e9))".encode("utf-8"))
    assert read_file(good, str) == "(define (domain caf\u00e9))"
    bad = tmp_path / "bad.pddl"
    bad.write_bytes(b"\xff(define)")
    with pytest.raises(PddlError) as info:
        read_file(bad, str)
    assert str(info.value).startswith(f"{bad}: ")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_domain("(define (domain d)\n  (:predicates (p x)))")
    assert (err.value.line, err.value.column) == (2, 19)


# (domain file, file) for every shipped domain and problem file
SHIPPED = [(directory / "domain.pddl", path) for directory in (BENCH, GRIPPER, COURIER)
           for path in sorted(directory.glob("*.pddl"))]
SHIPPED_TOKENS = {path: [text for text, _, _ in reference_tokens(path.read_text())]
                  for _, path in SHIPPED}
SHIPPED_DOMAINS = {domain: parse_domain(domain.read_text()) for domain, _ in SHIPPED}
# (op, position, pick): delete, insert or replace the token at `position`,
# modulo the token count; the new token is the file's `pick`-th distinct one
TOKEN_EDITS = st.lists(st.tuples(st.sampled_from(("delete", "insert", "replace")),
                                 st.integers(0, 9999), st.integers(0, 9999)),
                       min_size=1, max_size=3)
NAMELESS_DOMAIN = SHIPPED_TOKENS[BENCH / "p01.pddl"].index(":domain") + 1


@given(st.sampled_from(SHIPPED), TOKEN_EDITS)
@example((BENCH / "domain.pddl", BENCH / "p01.pddl"), [("delete", NAMELESS_DOMAIN, 0)])
@settings(max_examples=400, deadline=None)
def test_token_edits_parse_or_raise_a_pddl_error(case, edits):
    domain_path, path = case
    tokens = list(SHIPPED_TOKENS[path])
    vocabulary = sorted(set(tokens))
    for op, position, pick in edits:
        if op == "delete":
            del tokens[position % len(tokens)]
        elif op == "insert":
            tokens.insert(position % (len(tokens) + 1), vocabulary[pick % len(vocabulary)])
        else:
            tokens[position % len(tokens)] = vocabulary[pick % len(vocabulary)]
    text = " ".join(tokens)
    try:
        if path == domain_path:
            parse_domain(text)
        else:
            parse_problem(text, SHIPPED_DOMAINS[domain_path])
    except PddlError as exc:
        # an edited file always keeps a form to point at, if only its header
        assert getattr(exc, "line", None) is not None, exc


def position(node):
    """The line and column of a token or form, as a `ParseError` at it counts them."""
    error = ParseError("", node)
    return error.line, error.column


def read_positions(forms):
    """(text, line, column) of each opening paren and symbol of `forms`, in
    reading order."""
    for node in forms:
        if isinstance(node, _Tok):
            yield node.text, *position(node)
        else:
            yield "(", *position(node)
            yield from read_positions(node)


def assert_positions_match_the_line_reader(text):
    """The forms read from `text` keep the line reader's text, line and
    column of each token, and where the reader fails, it points at the first
    ')' that closes nothing or, with a form left open, at the last token."""
    tokens = list(reference_tokens(text))
    depth, error = 0, None
    for token, line, col in tokens:
        depth += (token == "(") - (token == ")")
        if depth < 0:
            error = ("unbalanced ')'", line, col)
            break
    else:
        if depth:
            error = ("unbalanced '('", *tokens[-1][1:])
    try:
        forms = _read_sexprs(text)
    except ParseError as exc:
        assert error is not None and str(exc).startswith(error[0])
        assert (exc.line, exc.column) == error[1:]
        assert str(exc).endswith(f"(line {exc.line}, column {exc.column})")
    else:
        assert error is None
        assert list(read_positions(forms)) == [t for t in tokens if t[0] != ")"]


@pytest.mark.parametrize("path", sorted({path for _, path in SHIPPED}),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shipped_token_positions_match_the_line_reader(path):
    assert_positions_match_the_line_reader(path.read_text())


# pieces of PDDL-like text: comments, tabs, CRLF endings, blank lines, and
# capitals whose lower case is longer (U+0130 lowers to two code points)
TEXT_PIECES = ["(", ")", " ", "\t", "\n", "\r\n", "\n\n", ";", "; a (comment) ;\n",
               "\u0130", "\u0130X", "DEFINE", "?X", "-", "pick-up", "\u00df", "\u2028", "\x0b"]


@given(st.lists(st.one_of(st.sampled_from(TEXT_PIECES),
                          st.text("a\u0130;()\t\r\n -?", max_size=4)), max_size=40))
@example(["(", "\u0130", "\u0130", ";", "\r\n", "\t", "A", ")", "("])
@settings(max_examples=300, deadline=None)
def test_token_positions_match_the_line_reader(pieces):
    assert_positions_match_the_line_reader("".join(pieces))


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=4))
@settings(max_examples=100)
def test_atom_substitution_identity(args):
    # grounding an already ground atom never changes it
    atom = Atom("p", tuple(args))
    assert atom.substitute({"?x0": "z"}) == atom
