"""Landmark generation graphs for ground tasks.

A landmark generation graph (LGG) collects ground landmarks of a task and
greedy-necessary orderings between them: an edge (L1, L2) says L1 holds
immediately before L2 is first achieved.  Both halves read the task's
index (`plgg.pddl.TaskIndex`).  Grounding's delete-relaxed levels, kept
in the index, pick among a landmark's achievers the first achievers that
extraction back-chains through from the goal, and rise along every edge.

Whether a candidate is a landmark is decided exactly.  Init and goal
facts are landmarks by membership, and back-chaining accepts, without
exploring, the preconditions shared by every achiever of a landmark
(`needed_facts`; Hoffmann, Porteous & Sebastia 2004) or by every one that
can come first (`first_adder_facts`).  A candidate neither rule settles
is read from `landmark_labels`, which answers for every fact at once with
one greatest-fixpoint pass over the relaxed AND/OR graph (Zhu & Givan
2003; Keyder, Richter & Helmert 2010).  The brute-force oracle, which
reruns the exploration with a candidate's achievers banned, stays as the
definition that the tests hold the rules and the labels to.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import or_
from pathlib import Path

from . import artifact
from .artifact import LggFormatError
from .pddl import Atom, GroundTask, PddlError, TaskIndex, explore, read_file

logger = logging.getLogger(__name__)

ORDER_TYPE = "greedy_necessary"


class UnsolvableTaskError(PddlError):
    """Raised when a goal atom is unreachable even in the delete relaxation."""


@dataclass(frozen=True)
class LandmarkVerdict:
    atom: Atom
    is_landmark: bool


@dataclass(frozen=True)
class LGG:
    """Ground landmarks plus greedy-necessary ordering edges, with provenance."""

    task: str
    vertices: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]


def relaxed_levels(task: GroundTask) -> tuple[list[int], list[int]]:
    """First level at which each fact holds / each action applies, relaxed,
    by fact and action id (-1: unreached); grounding already explored them."""
    return task.index.fact_level, task.index.action_level


def is_landmark_oracle(task: GroundTask, atom: Atom) -> LandmarkVerdict:
    """Decide by brute force whether `atom` is a landmark of the task.

    Membership in init or goal settles it immediately.  Otherwise the atom
    is a landmark exactly when forbidding every action that adds it leaves
    the goal unreachable in the delete relaxation.
    """
    if atom not in task.facts:
        raise ValueError(f"{atom} is not a fact of task {task.name}")
    if atom in task.init or atom in task.goal:
        return LandmarkVerdict(atom, True)
    index = task.index
    fact_level, _ = explore(index.init, index.pre, index.add, index.consumers,
                            banned=index.achievers[index.ids[atom]])
    return LandmarkVerdict(atom, any(fact_level[g] < 0 for g in index.goal))


def landmark_labels(task: GroundTask) -> list[int]:
    """Each fact's relaxed landmarks, by fact id, as bitsets over fact ids.

    The labels are the greatest fixpoint of ::

        label(f) = {f} | AND over the reached actions a adding f of
                         (add(a) | OR over p in pre(a) of label(p))

    An init fact's label is ``{f}``, every other fact starts at all facts,
    and sweeps over the reached non-init facts in level order, each reading
    the labels already updated, run until one changes nothing.  A fact x
    outside init is in ``label(f)`` exactly when x is f or every relaxed
    plan that reaches f applies an action adding x, so an unreached fact
    keeps all facts.  The ``add(a)`` term keeps facts an achiever adds
    alongside f, such as ``holding(a)`` when unstacking a.
    """
    index = task.index
    fact_level = index.fact_level
    label = [(1 << len(index.atoms)) - 1] * len(index.atoms)
    for f in index.init:
        label[f] = 1 << f
    add_mask = [reduce(or_, map((1).__lshift__, row), 0) for row in index.add]
    pre, achievers = index.pre, index.achievers
    order = sorted((f for f, level in enumerate(fact_level) if level > 0),
                   key=fact_level.__getitem__)
    changed = True
    while changed:
        changed = False
        for f in order:
            new = -1
            for a in achievers[f]:
                mask = add_mask[a]
                for p in pre[a]:
                    mask |= label[p]
                new &= mask
            new |= 1 << f
            if new != label[f]:
                label[f] = new
                changed = True
    return label


def _landmark_bits(task: GroundTask) -> int:
    """The init and goal facts' labels, ORed into one bitset over fact ids."""
    label, index = landmark_labels(task), task.index
    return reduce(or_, map(label.__getitem__, (*index.init, *index.goal)), 0)


def oracle_landmarks(task: GroundTask) -> frozenset[Atom]:
    """Every fact the oracle accepts, read from one `landmark_labels` pass."""
    bits, ids = _landmark_bits(task), task.index.ids
    return frozenset(f for f in task.facts if bits >> ids[f] & 1)


def needed_facts(index: TaskIndex, f: int) -> set[int]:
    """The facts other than f in the preconditions of every achiever of
    fact f, by id.  When f is a landmark outside init, each of them is a
    landmark: with its achievers banned it never holds, so no achiever of
    f applies either (Hoffmann, Porteous & Sebastia 2004)."""
    achievers = index.achievers[f]
    return _shared_pre(index, achievers) - {f} if achievers else set()


def first_adder_facts(index: TaskIndex, f: int) -> set[int]:
    """The facts other than f in the preconditions of every achiever of
    fact f that can come first, by id: not one that needs f, or a fact
    outside init that only actions needing f add.  When f is a landmark
    outside init, each is a landmark: every relaxed plan first adds f by
    an achiever that does not need f, and whose preconditions outside init
    came from earlier actions not needing f, so it is always kept (a
    one-step form of possibly-before achievers; Richter & Westphal 2010)."""
    needs_f, level = set(index.consumers[f]), index.fact_level
    firsts = [a for a in index.achievers[f] if a not in needs_f and not any(
        level[p] > 0 and needs_f.issuperset(index.achievers[p]) for p in index.pre[a])]
    return _shared_pre(index, firsts) - {f} if firsts else set()


def _shared_pre(index: TaskIndex, actions: list[int]) -> set[int]:
    """The facts in the preconditions of every one of the nonempty `actions`."""
    return set(index.pre[actions[0]]).intersection(*map(index.pre.__getitem__, actions[1:]))


def extract_lgg(task: GroundTask) -> LGG:
    """Back-chain greedy-necessary landmarks from the goal.

    For a landmark L outside init, every atom other than L shared by the
    preconditions of all first achievers of L (achievers applicable
    strictly before L first holds in the relaxation) is a candidate;
    candidates that are landmarks become vertices with an edge into L and
    are chained further.  A candidate's level is at most its first
    achiever's, below L's, so levels rise along edges and no cycle forms.
    Init and goal candidates are landmarks by membership.  When L is
    queued with a candidate undecided, L's `needed_facts` are accepted.
    A candidate still undecided when it is asked first makes L's
    `first_adder_facts` accepted; if they leave it open, `landmark_labels`,
    computed at most once, answers it and every later one.  Each rule's
    facts are among L's candidates.  A debug record counts the verdicts
    of each kind.
    """
    fact_level, action_level = relaxed_levels(task)
    index = task.index
    missing = sorted(g for g in task.goal if fact_level[index.ids[g]] < 0)
    if missing:
        raise UnsolvableTaskError(
            f"task {task.name} is unsolvable: goal atom {missing[0]} is "
            "unreachable in the delete relaxation")

    vertices: set[Atom] = set(task.goal)
    edges: set[tuple[Atom, Atom]] = set()
    queue: deque[tuple[Atom, list[Atom]]] = deque()
    verdicts = dict.fromkeys(task.init | task.goal, True)
    settled = dict.fromkeys(("needed facts", "first adders", "label pass"), 0)
    landmark_bits = None

    def accept(facts: set[int], rule: str) -> None:
        for c in set(map(index.atoms.__getitem__, facts)) - verdicts.keys():
            verdicts[c] = True
            settled[rule] += 1

    def enqueue(lm: Atom) -> None:
        candidates, f = [], index.ids[lm]
        if lm not in task.init:
            first_achievers = [a for a in index.achievers[f]
                               if action_level[a] < fact_level[f]]
            if first_achievers:
                candidates = sorted(map(index.atoms.__getitem__,
                                        _shared_pre(index, first_achievers) - {f}))
        if not verdicts.keys() >= set(candidates):
            accept(needed_facts(index, f), "needed facts")
        queue.append((lm, candidates))

    def passes(atom: Atom, lm: Atom) -> bool:
        nonlocal landmark_bits
        verdict = verdicts.get(atom)
        if verdict is None and landmark_bits is None:
            accept(first_adder_facts(index, index.ids[lm]), "first adders")
            verdict = verdicts.get(atom)
        if verdict is None:
            if landmark_bits is None:
                landmark_bits = _landmark_bits(task)
            verdict = verdicts[atom] = bool(landmark_bits >> index.ids[atom] & 1)
            settled["label pass"] += 1
        return verdict

    for goal in sorted(task.goal):
        enqueue(goal)
    while queue:
        lm, candidates = queue.popleft()
        for cand in candidates:
            if not passes(cand, lm):
                continue
            edges.add((cand, lm))
            if cand not in vertices:
                vertices.add(cand)
                enqueue(cand)

    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("%s: verdicts by %s", task.name,
                     ", ".join(f"{rule} {n}" for rule, n in settled.items()))
    return LGG(task=task.name, vertices=frozenset(vertices), edges=frozenset(edges))


# --- serialization ----------------------------------------------------------


# An edge is a [src, dst] pair of vertex indices.
SCHEMA = artifact.Schema(order_type=artifact.one_of(ORDER_TYPE), task=artifact.string,
                         edges=artifact.records({0: artifact.vertex, 1: artifact.vertex},
                                                unique=(0, 1)))


def lgg_to_json(lgg: LGG) -> str:
    table, index = artifact.atom_table(lgg.vertices)
    return artifact.write_artifact(
        SCHEMA, task=lgg.task, vertices=table, order_type=ORDER_TYPE,
        edges=sorted((index[s], index[d]) for s, d in lgg.edges))


def lgg_from_json(text: str) -> LGG:
    """Read a landmark graph.  Every landmark is a ground fact, and no
    landmark is ordered before itself."""
    data = artifact.read_artifact(text, SCHEMA)
    for i, vertex in enumerate(data["vertices"]):
        if not vertex.is_ground:
            raise LggFormatError(f"landmark {vertex} is not ground", f"/vertices/{i}")
    for i, (src, dst) in enumerate(data["edges"]):
        if src == dst:
            raise LggFormatError(f"landmark {src} is ordered before itself", f"/edges/{i}")
    return LGG(task=data["task"], vertices=frozenset(data["vertices"]),
               edges=frozenset(data["edges"]))


def write_lgg(lgg: LGG, path: str | Path) -> None:
    Path(path).write_text(lgg_to_json(lgg))


def read_lgg(path: str | Path) -> LGG:
    return read_file(path, lgg_from_json)
