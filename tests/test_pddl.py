"""Parser, printer, and grounding checks, including an independent
re-grounding oracle that enumerates substitutions from scratch."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from plgg.pddl import (Atom, ParseError, PddlError, domain_to_pddl, parse_domain,
                       parse_problem, problem_to_pddl, read_text)

from conftest import CORPUS


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


# --- independent grounding oracle ---------------------------------------------


def naive_ground_actions(domain, problem):
    """Ground every schema by brute-force substitution, written without any
    of the library's grounding machinery.  Substitutions that make an atom
    appear in both add and delete are dropped; the rest are filtered by a
    relaxed reachability loop."""
    pools = {}
    for obj, typ in problem.objects.items():
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
    redomain = parse_domain(domain_to_pddl(domain))
    assert redomain == domain
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
    ("(define (domain d) (:requirements :strips :adl))",
     "unsupported requirement :adl (line 1, column 43)"),
    ("(define (problem p) (:domain blocksworld) (:requirements :strips :fluents))",
     "unsupported requirement :fluents (line 1, column 66)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init) (:goal (foo a)))",
     "unknown predicate foo in :goal (line 1, column 79)"),
    ("(define (problem p) (:domain blocksworld) (:objects a - block) (:init (on a)) (:goal (and)))",
     "arity mismatch for on in :init: expected 2, got 1 (line 1, column 71)"),
]


@pytest.mark.parametrize("text,message", EXACT_MESSAGES)
def test_check_messages_are_exact(domain, text, message):
    with pytest.raises(ParseError) as err:
        if "(problem" in text:
            parse_problem(text, domain)
        else:
            parse_domain(text)
    assert str(err.value) == message


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


def test_read_text_names_undecodable_file(tmp_path):
    good = tmp_path / "good.pddl"
    good.write_bytes("(define (domain caf\u00e9))".encode("utf-8"))
    assert read_text(good) == "(define (domain caf\u00e9))"
    bad = tmp_path / "bad.pddl"
    bad.write_bytes(b"\xff(define)")
    with pytest.raises(PddlError) as info:
        read_text(bad)
    assert str(info.value).startswith(f"{bad}: ")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_domain("(define (domain d)\n  (:predicates (p x)))")
    assert err.value.line == 2


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=4))
@settings(max_examples=100)
def test_atom_substitution_identity(args):
    # grounding an already ground atom never changes it
    atom = Atom("p", tuple(args))
    assert atom.substitute({"?x0": "z"}) == atom
