"""Landmark extraction against the exhaustive delete-relaxation oracle and
under renamed objects, plus serialization of the graph files."""

import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from plgg import lgg as lgg_module
from plgg.pddl import Atom, GroundAction, ground_task, parse_domain, parse_problem
from plgg.plog import learn_plog, plog_to_json
from plgg.lgg import (LggFormatError, UnsolvableTaskError, extract_lgg, first_adder_facts,
                      is_landmark_oracle, landmark_labels, lgg_from_json, lgg_to_json,
                      needed_facts, oracle_landmarks, relaxed_levels)

from conftest import (ALL_TASKS, BENCH, CORPUS, COURIER, COURIER_CORPUS, FIXTURE_PLOGS,
                      GRIPPER, GRIPPER_CORPUS, blocksworld_problems, courier_problems, reached,
                      reference_extract_lgg, relaxed_exploration)


def atom(s):
    name, _, rest = s.partition("(")
    args = tuple(a.strip() for a in rest.rstrip(")").split(",") if a.strip())
    return Atom(name, args)


def task_id(case):
    directory, name = case
    return f"{directory.name}-{name}"


def courier_task(load, text):
    """The ground task of courier problem `text`."""
    domain = load(COURIER, COURIER_CORPUS[0])[0]
    return ground_task(domain, parse_problem(text, domain))


# --- oracle verdicts ------------------------------------------------------------


def test_oracle_init_membership(make_task):
    # membership in the initial state decides before any reachability check
    task = make_task("p01")
    verdict = is_landmark_oracle(task, atom("ontable(c)"))
    assert verdict.is_landmark
    assert atom("ontable(c)") in task.init


def test_oracle_goal_membership(make_task):
    task = make_task("p01")
    verdict = is_landmark_oracle(task, atom("on(a,b)"))
    assert verdict.is_landmark
    assert atom("on(a,b)") in task.goal


def test_oracle_necessary_intermediate(make_task):
    # the hand must hold a before on(a,b) can ever be achieved
    task = make_task("p01")
    verdict = is_landmark_oracle(task, atom("holding(a)"))
    assert verdict.is_landmark
    assert atom("holding(a)") not in task.init | task.goal


def test_oracle_rejects_unneeded_fact(make_task):
    task = make_task("p01")
    verdict = is_landmark_oracle(task, atom("holding(b)"))
    assert not verdict.is_landmark
    assert atom("holding(b)") not in task.init | task.goal


def test_oracle_rejects_unknown_atom(make_task):
    with pytest.raises(ValueError):
        is_landmark_oracle(make_task("p01"), atom("on(a,z)"))


def test_oracle_set_contains_init_and_goal(make_task):
    task = make_task("p02")
    landmarks = oracle_landmarks(task)
    assert set(task.init) <= landmarks
    assert set(task.goal) <= landmarks


# --- extraction -----------------------------------------------------------------


P01_VERTICES = {"clear(a)", "clear(b)", "handempty()", "holding(a)", "on(a,b)",
                "ontable(a)"}
P01_EDGES = {("clear(a)", "holding(a)"), ("clear(b)", "on(a,b)"),
             ("handempty()", "holding(a)"), ("holding(a)", "on(a,b)"),
             ("ontable(a)", "holding(a)")}


def test_extract_p01_exact(make_task):
    lgg = extract_lgg(make_task("p01"))
    assert {str(v).replace(" ", "") for v in lgg.vertices} == P01_VERTICES
    edges = {(str(s).replace(" ", ""), str(d).replace(" ", "")) for s, d in lgg.edges}
    assert edges == P01_EDGES


def test_extracted_vertices_are_sound(make_task):
    for name in ("p01", "p05"):
        task = make_task(name)
        for vertex in extract_lgg(task).vertices:
            assert is_landmark_oracle(task, vertex).is_landmark


def test_extractor_recall_below_oracle(make_task):
    # effect-side landmarks like holding(a) on a tower task escape the
    # shared-precondition candidate generator, so the oracle finds more
    task = make_task("p02")
    extracted = set(extract_lgg(task).vertices)
    oracle = oracle_landmarks(task)
    assert extracted < oracle
    assert len(extracted) == 9 and len(oracle) == 11


IMPOSSIBLE = ("(define (problem impossible) (:domain blocksworld) "
              "(:objects a - block) (:init (ontable a) (clear a) (handempty)) "
              "(:goal (and (on a a))))")


def test_unsolvable_task_raises(domain):
    task = ground_task(domain, parse_problem(IMPOSSIBLE, domain))
    with pytest.raises(UnsolvableTaskError) as err:
        extract_lgg(task)
    assert "impossible" in str(err.value)


# --- landmark labels against the brute-force oracle ----------------------------


def brute_force_landmarks(task):
    return frozenset(f for f in task.facts if is_landmark_oracle(task, f).is_landmark)


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_labels_match_the_oracle_on_every_task(case, load):
    task = load(*case)[2]
    assert oracle_landmarks(task) == brute_force_landmarks(task)


@given(blocksworld_problems())
@settings(max_examples=60, deadline=None)
def test_labels_match_the_oracle_on_drawn_tasks(domain, text):
    task = ground_task(domain, parse_problem(text, domain))
    assert oracle_landmarks(task) == brute_force_landmarks(task)


@given(courier_problems())
@settings(max_examples=60, deadline=None)
def test_labels_match_the_oracle_on_drawn_courier_tasks(load, text):
    task = courier_task(load, text)
    assert oracle_landmarks(task) == brute_force_landmarks(task)


def test_labels_on_a_relaxed_unsolvable_task_hold_every_fact(domain):
    # no plan reaches the goal, so banning any fact's achievers changes nothing
    task = ground_task(domain, parse_problem(IMPOSSIBLE, domain))
    assert brute_force_landmarks(task) == task.facts
    assert oracle_landmarks(task) == task.facts


# without the hand no action applies, so the atoms that only actions would
# reach are ground but are no task facts
HANDLESS = ("(define (problem handless) (:domain blocksworld) (:objects a b - block) "
            "(:init (ontable a) (clear a) (ontable b) (clear b)) (:goal (and (on a b))))")


def test_oracle_set_keeps_only_task_facts_when_the_goal_is_unreached(domain):
    # the unreached goal's label holds every fact id, the ids of ground
    # atoms that are no task facts among them
    task = ground_task(domain, parse_problem(HANDLESS, domain))
    assert set(task.index.atoms) > task.facts
    assert oracle_landmarks(task) == brute_force_landmarks(task) == task.facts


def test_labels_keep_facts_added_alongside(make_task):
    # on p02 clearing b means unstacking a, which adds holding(a) together
    # with clear(b); no precondition chain of the goal holds holding(a), so
    # only the add term of the fixpoint keeps it
    task = make_task("p02")
    label = landmark_labels(task)
    index = task.index
    goal_label = {index.atoms[f] for f in range(len(index.atoms))
                  if any(label[g] >> f & 1 for g in index.goal)}
    assert atom("holding(a)") in goal_label
    for f in index.init:
        assert label[f] == 1 << f


def extract_counted(task):
    """`lgg_to_json(extract_lgg(task))` and the number of label passes it ran."""
    passes = []

    def labels(task):
        passes.append(task.name)
        return landmark_labels(task)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lgg_module, "landmark_labels", labels)
        return lgg_to_json(extract_lgg(task)), len(passes)


VERDICT_RECORD = re.compile(r"(.*): verdicts by needed facts (\d+), first adders (\d+), "
                            r"label pass (\d+)")


def verdict_counts(task, caplog):
    """(needed facts, first adders, label pass): the verdicts of each kind
    that the debug record of `extract_lgg(task)` counts."""
    caplog.clear()
    with caplog.at_level("DEBUG", logger="plgg"):
        extract_lgg(task)
    [record] = caplog.records
    name, *counts = VERDICT_RECORD.fullmatch(record.getMessage()).groups()
    assert name == task.name
    return tuple(map(int, counts))


def assert_extracts_as_the_reference(task, passes=None):
    """The graph equals the oracle-decided reference's, after at most one
    label pass, or exactly `passes` when given."""
    text, ran = extract_counted(task)
    assert text == lgg_to_json(reference_extract_lgg(task))
    assert ran <= 1 if passes is None else ran == passes


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_extraction_matches_the_oracle_reference_on_every_task(case, load):
    assert_extracts_as_the_reference(load(*case)[2])


@given(blocksworld_problems())
@settings(max_examples=60, deadline=None)
def test_extraction_matches_the_oracle_reference_on_drawn_tasks(domain, text):
    assert_extracts_as_the_reference(ground_task(domain, parse_problem(text, domain)))


@given(courier_problems())
@settings(max_examples=60, deadline=None)
def test_extraction_matches_the_oracle_reference_on_drawn_courier_tasks(load, text):
    # the drawn shortcuts leave verdicts to the label pass, which no
    # drawn blocksworld task reaches
    assert_extracts_as_the_reference(courier_task(load, text))


@pytest.mark.parametrize("directory,names,passes", [
    (BENCH, CORPUS, [0] * len(CORPUS)), (GRIPPER, GRIPPER_CORPUS, [0] * len(GRIPPER_CORPUS)),
    (COURIER, COURIER_CORPUS, [0, 1, 1, 1, 1])], ids=["blocksworld", "gripper", "courier"])
def test_label_passes_on_the_fixtures(directory, names, passes, load):
    # the back-chaining rules settle every verdict on the blocksworld and
    # gripper fixtures and on courier p01; p02-p05 leave some to the labels
    assert [extract_counted(load(directory, name)[2])[1] for name in names] == passes


def tower_problem(blocks):
    """All blocks on the table, the goal one tower b1 on b2 ... on b{blocks}."""
    names = [f"b{i}" for i in range(1, blocks + 1)]
    init = " ".join(f"(ontable {b}) (clear {b})" for b in names)
    goal = " ".join(f"(on {x} {y})" for x, y in zip(names, names[1:]))
    return (f"(define (problem tower-{blocks}) (:domain blocksworld) "
            f"(:objects {' '.join(names)} - block) (:init (handempty) {init}) "
            f"(:goal (and {goal})))")


def test_full_tower_needs_no_label_pass(domain, caplog):
    # stack is the only achiever of each goal, and every candidate it
    # needs beyond holding its block is an init fact
    task = ground_task(domain, parse_problem(tower_problem(12), domain))
    assert_extracts_as_the_reference(task, passes=0)
    assert verdict_counts(task, caplog) == (11, 0, 0)


def buried_problem(height):
    """A tower b1 on b2 ... on b{height} and a free block; the goal moves
    the tower's bottom block b{height} onto the free one."""
    names = [f"b{i}" for i in range(1, height + 2)]
    bottom, free = names[-2], names[-1]
    tower = " ".join(f"(on {x} {y})" for x, y in zip(names, names[1:-1]))
    return (f"(define (problem buried-{height}) (:domain blocksworld) "
            f"(:objects {' '.join(names)} - block) (:init (handempty) (clear b1) {tower} "
            f"(ontable {bottom}) (ontable {free}) (clear {free})) "
            f"(:goal (on {bottom} {free})))")


@pytest.mark.parametrize("height", [10, 12])
def test_buried_block_needs_no_label_pass(height, domain, caplog):
    # clear(b2) ... clear(b{height - 1}) each need a verdict beyond
    # `needed_facts`, since putdown and stack add them too; unstacking
    # comes first, so the first-adder rule accepts every one of them
    task = ground_task(domain, parse_problem(buried_problem(height), domain))
    assert_extracts_as_the_reference(task, passes=0)
    assert verdict_counts(task, caplog) == (2, height - 2, 0)


def courier_ring(places, parcels, shortcuts):
    """One van at x0 on a one-way ring of `places` with the extra one-way
    `shortcuts`; parcel i waits at x{2i+1} and goes to x{2i+4}, modulo."""
    xs = [f"x{i}" for i in range(places)]
    roads = [*zip(xs, xs[1:] + xs[:1]), *shortcuts]
    init = [f"(road {x} {y})" for x, y in roads] + ["(at v1 x0)", "(empty v1)"]
    init += [f"(waiting q{i} {xs[(2 * i + 1) % places]})" for i in range(parcels)]
    goal = [f"(waiting q{i} {xs[(2 * i + 4) % places]})" for i in range(parcels)]
    qs = " ".join(f"q{i}" for i in range(parcels))
    return (f"(define (problem ring) (:domain courier) (:objects {' '.join(xs)} - place "
            f"v1 - van {qs} - parcel) (:init {' '.join(init)}) (:goal (and {' '.join(goal)})))")


def test_courier_ring_runs_the_label_pass(load, caplog):
    # whether the van, or a parcel aboard it, passes through a place the
    # shortcuts lead round is left to a verdict that no rule settles, so
    # one label pass decides all of them
    domain = load(COURIER, COURIER_CORPUS[0])[0]
    ring = courier_ring(10, 8, [("x0", "x5"), ("x3", "x8"), ("x6", "x1"), ("x9", "x4")])
    task = ground_task(domain, parse_problem(ring, domain))
    assert_extracts_as_the_reference(task, passes=1)
    assert verdict_counts(task, caplog) == (14, 0, 20)


@pytest.mark.parametrize("directory,names,counts", [
    (BENCH, CORPUS, [(1, 0, 0), (2, 1, 0), (2, 0, 0), (4, 0, 0), (1, 0, 0), (2, 0, 0), (2, 3, 0),
                     (3, 0, 0), (2, 0, 0), (3, 0, 0), (2, 4, 0), (3, 0, 0), (1, 0, 0), (2, 0, 0)]),
    (GRIPPER, GRIPPER_CORPUS, [(1, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)])],
    ids=["blocksworld", "gripper"])
def test_verdict_counts_on_the_fixtures(directory, names, counts, load, caplog):
    # which kind settles each verdict hangs on the rules and on the order
    # in which candidates are asked; courier's counts are the golden file
    # `courier-extract-verdicts.txt`
    assert [verdict_counts(load(directory, name)[2], caplog) for name in names] == counts


@pytest.mark.parametrize("directory,names,edges", [
    (BENCH, CORPUS, 160), (GRIPPER, GRIPPER_CORPUS, 23), (COURIER, COURIER_CORPUS, 62)],
    ids=["blocksworld", "gripper", "courier"])
def test_native_edges_are_label_sound_on_the_fixtures(directory, names, edges, load):
    # every extracted ordering (s, d) is a relaxed natural ordering: s is
    # in d's landmark label (Zhu & Givan 2003), read by fact id
    sound = []
    for name in names:
        task = load(directory, name)[2]
        label, ids = landmark_labels(task), task.index.ids
        sound += [bool(label[ids[d]] >> ids[s] & 1) for s, d in extract_lgg(task).edges]
    assert sound.count(True) == len(sound) == edges


def assert_needed_facts_are_landmarks(task):
    """Every candidate that `extract_lgg` accepts by `needed_facts` passes
    the oracle, and so does every fact `needed_facts` gives for any
    landmark outside init."""
    accepted = []

    def recorded(index, f):
        needed = needed_facts(index, f)
        accepted.extend(needed)
        return needed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lgg_module, "needed_facts", recorded)
        extract_lgg(task)
    index = task.index
    landmarks = oracle_landmarks(task)
    for atom in landmarks - task.init:
        accepted.extend(needed_facts(index, index.ids[atom]))
    for f in set(accepted):
        assert is_landmark_oracle(task, index.atoms[f]).is_landmark, index.atoms[f]


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_needed_facts_pass_the_oracle_on_every_task(case, load):
    assert_needed_facts_are_landmarks(load(*case)[2])


@given(blocksworld_problems())
@settings(max_examples=60, deadline=None)
def test_needed_facts_pass_the_oracle_on_drawn_tasks(domain, text):
    assert_needed_facts_are_landmarks(ground_task(domain, parse_problem(text, domain)))


@given(courier_problems())
@settings(max_examples=60, deadline=None)
def test_needed_facts_pass_the_oracle_on_drawn_courier_tasks(load, text):
    assert_needed_facts_are_landmarks(courier_task(load, text))


def assert_first_adder_facts_are_landmarks(task):
    """Every fact `first_adder_facts` gives for any landmark outside init
    passes the oracle."""
    index = task.index
    accepted = set()
    for atom in oracle_landmarks(task) - task.init:
        accepted.update(first_adder_facts(index, index.ids[atom]))
    for f in accepted:
        assert is_landmark_oracle(task, index.atoms[f]).is_landmark, index.atoms[f]


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_first_adder_facts_pass_the_oracle_on_every_task(case, load):
    assert_first_adder_facts_are_landmarks(load(*case)[2])


@given(blocksworld_problems())
@settings(max_examples=60, deadline=None)
def test_first_adder_facts_pass_the_oracle_on_drawn_tasks(domain, text):
    assert_first_adder_facts_are_landmarks(ground_task(domain, parse_problem(text, domain)))


@given(courier_problems())
@settings(max_examples=60, deadline=None)
def test_first_adder_facts_pass_the_oracle_on_drawn_courier_tasks(load, text):
    assert_first_adder_facts_are_landmarks(courier_task(load, text))


def assert_rule_facts_nest_within_the_candidates(task):
    """For every fact that the relaxation reaches outside init, its
    `needed_facts` are among its `first_adder_facts`, and those among the
    candidates `extract_lgg` draws for it: the atoms other than it shared
    by the preconditions of its achievers applicable before it first
    holds.  So either rule only ever accepts candidates, and the first
    adders settle whatever the needed facts do."""
    index = task.index
    fact_level, action_level = relaxed_levels(task)
    for f, level in enumerate(fact_level):
        if level <= 0:
            continue
        firsts = [set(index.pre[a]) for a in index.achievers[f] if action_level[a] < level]
        candidates = set.intersection(*firsts) - {f}
        needed, first_adders = needed_facts(index, f), first_adder_facts(index, f)
        assert needed <= first_adders <= candidates, index.atoms[f]


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_rule_facts_nest_within_the_candidates_on_every_task(case, load):
    assert_rule_facts_nest_within_the_candidates(load(*case)[2])


@given(blocksworld_problems())
@settings(max_examples=60, deadline=None)
def test_rule_facts_nest_within_the_candidates_on_drawn_tasks(domain, text):
    assert_rule_facts_nest_within_the_candidates(ground_task(domain, parse_problem(text, domain)))


@given(courier_problems())
@settings(max_examples=60, deadline=None)
def test_rule_facts_nest_within_the_candidates_on_drawn_courier_tasks(load, text):
    assert_rule_facts_nest_within_the_candidates(courier_task(load, text))


def atom_levels(task):
    """`relaxed_levels`, keyed by atom and by action, unreached ones left out."""
    fact_level, action_level = relaxed_levels(task)
    return reached(task.index.atoms, fact_level), reached(task.actions, action_level)


def test_relaxed_levels_start_at_init(make_task):
    task = make_task("p01")
    fact_level, action_level = atom_levels(task)
    for fact in task.init:
        assert fact_level[fact] == 0
    assert all(level >= 0 for level in action_level.values())


def assert_levels_match_definition(init, actions, fact_level, action_level):
    for fact in init:
        assert fact_level[fact] == 0
    for action in actions:
        if action in action_level:
            assert action_level[action] == max((fact_level[p] for p in action.pre), default=0)
            assert action.add <= fact_level.keys()
        else:
            assert not action.pre <= fact_level.keys()
    for fact, level in fact_level.items():
        if fact not in init:
            assert level == 1 + min(action_level[a] for a in action_level if fact in a.add)


@pytest.mark.parametrize("name", CORPUS + ["impossible"])
def test_relaxed_levels_match_definition(name, domain, make_task):
    task = (ground_task(domain, parse_problem(IMPOSSIBLE, domain)) if name == "impossible"
            else make_task(name))
    assert_levels_match_definition(task.init, task.actions, *atom_levels(task))
    # without the achievers of a goal atom, as the oracle explores, some actions stay unreached
    dropped = min(task.goal - task.init)
    allowed = [a for a in task.actions if dropped not in a.add]
    assert_levels_match_definition(task.init, allowed,
                                   *relaxed_exploration(task.init, allowed))


VOCABULARY = [Atom("p", (str(i),)) for i in range(6)]


@st.composite
def action_sets(draw):
    """Init facts and actions over six atoms: empty preconditions, facts no
    action adds, and precondition lists with repeats all occur."""
    init = draw(st.sets(st.sampled_from(VOCABULARY), max_size=3))
    actions = []
    for i in range(draw(st.integers(0, 8))):
        pre = draw(st.lists(st.sampled_from(VOCABULARY), max_size=3))
        add = draw(st.lists(st.sampled_from(VOCABULARY), max_size=2))
        actions.append(GroundAction(f"a{i}", (), frozenset(pre), frozenset(add), frozenset()))
    return init, actions


@given(action_sets())
@settings(max_examples=300, deadline=None)
def test_levels_match_definition_on_random_actions(init_and_actions):
    init, actions = init_and_actions
    assert_levels_match_definition(init, actions, *relaxed_exploration(init, actions))


def propositional_task(init, goal, actions):
    """The ground task of a domain of zero-ary predicates, with `actions`
    given as (precondition names, add names) pairs."""
    names = sorted({*init, *goal, *(n for pre, add in actions for n in (*pre, *add))})

    def atoms(names):
        return " ".join(f"({n})" for n in names)

    schemas = " ".join(f"(:action a{i} :parameters () :precondition (and {atoms(pre)}) "
                       f":effect (and {atoms(add)}))" for i, (pre, add) in enumerate(actions))
    domain = parse_domain(f"(define (domain props) (:predicates {atoms(names)}) {schemas})")
    problem = (f"(define (problem props) (:domain props) (:init {atoms(init)}) "
               f"(:goal (and {atoms(goal)})))")
    return ground_task(domain, parse_problem(problem, domain))


@st.composite
def propositional_tasks(draw):
    """`action_sets` over zero-ary predicates, with a nonempty goal."""
    init, actions = draw(action_sets())
    goal = draw(st.sets(st.sampled_from(VOCABULARY), min_size=1, max_size=3))
    name = "{0.pred}{0.args[0]}".format
    return propositional_task([name(a) for a in init], [name(a) for a in goal],
                              [(list(map(name, a.pre)), list(map(name, a.add)))
                               for a in actions])


@given(propositional_tasks())
@settings(max_examples=300, deadline=None)
def test_first_adder_facts_pass_the_oracle_on_random_actions(task):
    assert_first_adder_facts_are_landmarks(task)


@given(propositional_tasks())
@settings(max_examples=300, deadline=None)
def test_rule_facts_nest_within_the_candidates_on_random_actions(task):
    assert_rule_facts_nest_within_the_candidates(task)


@pytest.mark.parametrize("init,actions", [
    # a1 needs p, which only a3 adds after l; p is in init, so a1 can come first
    (["p"], [(["p"], ["l"]), (["c"], ["l"]), (["l"], ["p"]), ([], ["c"]), (["l"], ["g"])]),
    # a1 needs q, which a3 adds after l but a4 adds from nothing
    ([], [(["q"], ["l"]), (["c"], ["l"]), (["l"], ["q"]), ([], ["q"]), ([], ["c"]),
          (["l"], ["g"])]),
], ids=["precondition-in-init", "precondition-added-without-l"])
def test_first_adder_keeps_an_achiever_that_can_come_first(init, actions):
    # l is a landmark reached by a1 or a2; c, a2's precondition, is not one
    task = propositional_task(init, ["g"], actions)
    index = task.index
    assert is_landmark_oracle(task, atom("l()")).is_landmark
    assert not is_landmark_oracle(task, atom("c()")).is_landmark
    assert first_adder_facts(index, index.ids[atom("l()")]) == set()
    assert_first_adder_facts_are_landmarks(task)


@pytest.mark.parametrize("name", GRIPPER_CORPUS)
def test_gripper_levels_match_definition(name, load):
    task = load(GRIPPER, name)[2]
    assert_levels_match_definition(task.init, task.actions, *atom_levels(task))
    dropped = min(task.goal - task.init)
    allowed = [a for a in task.actions if dropped not in a.add]
    assert_levels_match_definition(task.init, allowed,
                                   *relaxed_exploration(task.init, allowed))


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_oracle_matches_definition(case, load):
    # a landmark is an init or goal fact, or one without whose achievers
    # the goal is relaxed-unreachable
    task = load(*case)[2]
    for fact in task.facts:
        allowed = [a for a in task.actions if fact not in a.add]
        fact_level, _ = relaxed_exploration(task.init, allowed)
        expected = (fact in task.init or fact in task.goal
                    or not task.goal <= fact_level.keys())
        assert is_landmark_oracle(task, fact).is_landmark == expected, fact


@pytest.mark.parametrize("name", GRIPPER_CORPUS)
def test_gripper_extracted_vertices_pass_the_oracle(name, load):
    task = load(GRIPPER, name)[2]
    lgg = extract_lgg(task)
    assert lgg.vertices > task.goal
    for vertex in lgg.vertices:
        assert is_landmark_oracle(task, vertex).is_landmark, vertex


@pytest.mark.parametrize("name", COURIER_CORPUS)
def test_courier_extracted_vertices_pass_the_oracle(name, load):
    task = load(COURIER, name)[2]
    lgg = extract_lgg(task)
    assert lgg.vertices >= task.goal
    for vertex in lgg.vertices:
        assert is_landmark_oracle(task, vertex).is_landmark, vertex


def assert_levels_rise_along_every_edge(task):
    """Each edge's source first holds at a lower relaxed level than its
    target, which is what makes every extracted graph acyclic."""
    fact_level, ids = task.index.fact_level, task.index.ids
    for src, dst in extract_lgg(task).edges:
        assert fact_level[ids[src]] < fact_level[ids[dst]], (src, dst)


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_levels_rise_along_every_edge_on_every_task(case, load):
    assert_levels_rise_along_every_edge(load(*case)[2])


@given(blocksworld_problems())
@settings(max_examples=60, deadline=None)
def test_levels_rise_along_every_edge_on_drawn_tasks(domain, text):
    assert_levels_rise_along_every_edge(ground_task(domain, parse_problem(text, domain)))


@given(courier_problems())
@settings(max_examples=60, deadline=None)
def test_levels_rise_along_every_edge_on_drawn_courier_tasks(load, text):
    assert_levels_rise_along_every_edge(courier_task(load, text))


# --- renaming the objects -------------------------------------------------------


def renaming(problem, seed):
    """A seeded, type-preserving renaming of the problem's objects: each
    type's names are shuffled among themselves and prefixed, so that the
    new names sort in another order and ground apart from the old ones."""
    rng, mapping = random.Random(seed), {}
    for kind in sorted(set(problem.objects.values())):
        names = sorted(o for o, t in problem.objects.items() if t == kind)
        mapping.update(zip(names, (f"r-{o}" for o in rng.sample(names, len(names)))))
    return mapping


def renamed(problem, mapping):
    """The problem with its objects renamed by `mapping`."""
    return replace(problem, objects={mapping[o]: t for o, t in problem.objects.items()},
                   init=frozenset(a.substitute(mapping) for a in problem.init),
                   goal=frozenset(a.substitute(mapping) for a in problem.goal))


def assert_commutes_with_renaming(domain, problem, seed):
    """The renamed task's graph and oracle set are the task's, renamed, and
    the p-LOG learned from its graph is the same bytes.  Only graphs and
    sets are compared: the order in which candidates are asked, and so
    each rule's count, may follow the names."""
    mapping = renaming(problem, seed)
    task, other = ground_task(domain, problem), ground_task(domain, renamed(problem, mapping))
    lgg, other_lgg = extract_lgg(task), extract_lgg(other)
    assert other_lgg.vertices == {v.substitute(mapping) for v in lgg.vertices}
    assert other_lgg.edges == {(s.substitute(mapping), d.substitute(mapping))
                               for s, d in lgg.edges}
    assert oracle_landmarks(other) == {f.substitute(mapping) for f in oracle_landmarks(task)}
    assert plog_to_json(learn_plog([other_lgg])) == plog_to_json(learn_plog([lgg]))


@pytest.mark.parametrize("case", ALL_TASKS, ids=task_id)
def test_extraction_commutes_with_renaming_on_every_task(case, load):
    domain, problem, _ = load(*case)
    for seed in range(4):
        assert_commutes_with_renaming(domain, problem, seed)


@given(blocksworld_problems(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_extraction_commutes_with_renaming_on_drawn_tasks(domain, text, seed):
    assert_commutes_with_renaming(domain, parse_problem(text, domain), seed)


@given(courier_problems(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_extraction_commutes_with_renaming_on_drawn_courier_tasks(load, text, seed):
    domain = load(COURIER, COURIER_CORPUS[0])[0]
    assert_commutes_with_renaming(domain, parse_problem(text, domain), seed)


@pytest.mark.parametrize("directory", FIXTURE_PLOGS, ids=lambda d: d.name)
def test_plog_commutes_with_renaming_on_the_fixtures(directory, load):
    # the p-LOG that instantiates each fixture domain, learned from its
    # training tasks as shipped and under four renamings of every task
    learned = []
    for seed in (None, 0, 1, 2, 3):
        lggs = []
        for name in FIXTURE_PLOGS[directory]:
            domain, problem, task = load(directory, name)
            if seed is not None:
                task = ground_task(domain, renamed(problem, renaming(problem, seed)))
            lggs.append(extract_lgg(task))
        learned.append(plog_to_json(learn_plog(lggs, domain=domain.name)))
    assert learned[1:] == learned[:1] * 4


# --- serialization --------------------------------------------------------------


def test_json_roundtrip(make_task):
    lgg = extract_lgg(make_task("p03"))
    text = lgg_to_json(lgg)
    back = lgg_from_json(text)
    assert back == lgg
    assert lgg_to_json(back) == text


def test_import_external_graph_file():
    # four-edge file in the external format, written by hand
    payload = {
        "task": "external-1",
        "order_type": "greedy_necessary",
        "vertices": [{"pred": "clear", "args": ["b"]},
                     {"pred": "holding", "args": ["a"]},
                     {"pred": "on", "args": ["a", "b"]},
                     {"pred": "ontable", "args": ["a"]},
                     {"pred": "handempty", "args": []}],
        "edges": [[0, 2], [1, 2], [3, 1], [4, 1]],
    }
    lgg = lgg_from_json(json.dumps(payload))
    assert lgg.task == "external-1"
    assert len(lgg.vertices) == 5 and len(lgg.edges) == 4
    assert (Atom("clear", ("b",)), Atom("on", ("a", "b"))) in lgg.edges


BROKEN = [
    ("not json at all", "/"),
    (json.dumps({"task": "t"}), "/"),
    (json.dumps({"task": "t", "order_type": "total", "vertices": [], "edges": []}),
     "/order_type"),
    (json.dumps({"task": "t", "order_type": "greedy_necessary",
                 "vertices": [{"pred": "p"}], "edges": []}), "/vertices/0"),
    (json.dumps({"task": "t", "order_type": "greedy_necessary",
                 "vertices": [{"pred": "p", "args": []}], "edges": [[0, 5]]}),
     "/edges/0/1"),
    (json.dumps({"task": "t", "order_type": "greedy_necessary",
                 "vertices": [{"pred": "p", "args": []}, {"pred": "p", "args": []}],
                 "edges": []}), "/vertices/1"),
]


@pytest.mark.parametrize("text,pointer", BROKEN)
def test_format_errors_carry_pointers(text, pointer):
    with pytest.raises(LggFormatError) as err:
        lgg_from_json(text)
    assert err.value.pointer == pointer
