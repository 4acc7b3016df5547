"""Landmark generation graphs for ground tasks.

A landmark generation graph (LGG) collects ground landmarks of a task and
greedy-necessary orderings between them: an edge (L1, L2) says L1 holds
immediately before L2 is first achieved.  Both halves read the task's
index (`plgg.pddl.TaskIndex`) and rest on one delete-relaxed exploration:
grounding's levels, kept in the index, pick among a landmark's achievers
the first achievers that extraction back-chains through from the goal, and
the brute-force oracle reruns it with a candidate's achievers banned to
decide whether the candidate is a landmark.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from . import artifact
from .artifact import LggFormatError  # noqa: F401  re-exported for callers
from .pddl import Atom, GroundTask, PddlError, read_text

logger = logging.getLogger(__name__)

ORDER_TYPE = "greedy_necessary"


class UnsolvableTaskError(PddlError):
    """Raised when a goal atom is unreachable even in the delete relaxation."""


@dataclass(frozen=True)
class LandmarkVerdict:
    atom: Atom
    is_landmark: bool
    reason: str  # "in-init-or-goal" | "goal-unreachable-without" | "achievable-without"


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
        return LandmarkVerdict(atom, True, "in-init-or-goal")
    index = task.index
    fact_level, _ = index.levels(banned=index.achievers[index.fact_id(atom)])
    if all(fact_level[g] >= 0 for g in index.goal):
        return LandmarkVerdict(atom, False, "achievable-without")
    return LandmarkVerdict(atom, True, "goal-unreachable-without")


def oracle_landmarks(task: GroundTask) -> frozenset[Atom]:
    """Every fact the oracle accepts.  Exhaustive; meant for small tasks."""
    return frozenset(f for f in task.facts if is_landmark_oracle(task, f).is_landmark)


def extract_lgg(task: GroundTask) -> LGG:
    """Back-chain greedy-necessary landmarks from the goal.

    For a landmark L outside init, every atom shared by the preconditions
    of all first achievers of L (achievers applicable strictly before L
    first holds in the relaxation) is a candidate; candidates that pass
    the oracle become vertices with an edge into L and are chained further.
    """
    fact_level, action_level = relaxed_levels(task)
    index = task.index
    missing = sorted(g for g in task.goal if fact_level[index.fact_id(g)] < 0)
    if missing:
        raise UnsolvableTaskError(
            f"task {task.name} is unsolvable: goal atom {missing[0]} is "
            "unreachable in the delete relaxation")

    vertices: set[Atom] = set(task.goal)
    edges: set[tuple[Atom, Atom]] = set()
    verdict_cache: dict[Atom, bool] = {}

    def passes(atom: Atom) -> bool:
        if atom not in verdict_cache:
            verdict_cache[atom] = is_landmark_oracle(task, atom).is_landmark
        return verdict_cache[atom]

    queue = deque(sorted(task.goal))
    seen = set(queue)
    while queue:
        lm = queue.popleft()
        if lm in task.init:
            continue
        f = index.fact_id(lm)
        first_achievers = [a for a in index.achievers[f] if action_level[a] < fact_level[f]]
        if not first_achievers:
            continue
        shared = set(index.pre[first_achievers[0]]).intersection(
            *(index.pre[a] for a in first_achievers[1:]))
        for cand in sorted(map(index.atoms.__getitem__, shared)):
            if cand == lm or not passes(cand):
                continue
            vertices.add(cand)
            edges.add((cand, lm))
            if cand not in seen:
                seen.add(cand)
                queue.append(cand)

    lgg = LGG(task=task.name, vertices=frozenset(vertices), edges=frozenset(edges))
    if _has_cycle(lgg):
        logger.warning("landmark graph of %s contains an ordering cycle", task.name)
    return lgg


def _has_cycle(lgg: LGG) -> bool:
    preds: dict[Atom, set[Atom]] = {}
    for src, dst in lgg.edges:
        preds.setdefault(dst, set()).add(src)
    try:
        TopologicalSorter(preds).prepare()  # its cycle search is iterative
    except CycleError:
        return True
    return False


# --- serialization ----------------------------------------------------------


def lgg_to_json(lgg: LGG) -> str:
    table, index = artifact.atom_table(lgg.vertices)
    return artifact.dumps({
        "task": lgg.task,
        "vertices": [artifact.atom_payload(v) for v in table],
        "edges": sorted([index[s], index[d]] for s, d in lgg.edges),
        "order_type": ORDER_TYPE,
    })


def lgg_from_json(text: str) -> LGG:
    """Read a landmark graph; an edge is a [src, dst] pair of vertex indices."""
    data = artifact.read_artifact(
        text, order_type=artifact.one_of(ORDER_TYPE), task=artifact.string,
        edges=artifact.records({0: artifact.vertex, 1: artifact.vertex}))
    return LGG(task=data["task"], vertices=frozenset(data["vertices"]),
               edges=frozenset(data["edges"]))


def write_lgg(lgg: LGG, path: str | Path) -> None:
    Path(path).write_text(lgg_to_json(lgg))


def read_lgg(path: str | Path) -> LGG:
    return lgg_from_json(read_text(path))
