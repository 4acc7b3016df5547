"""Seeded generator of random-tower blocksworld tasks.

A task's initial state and goal are both random towers: the shuffled
blocks cut at random points into stacks.  Goal density is an input
property the workloads vary: ``"tower"`` asks for every ``on`` atom of
the goal towers, ``"single"`` for one atom that puts an initially clear
block onto another, so that back-chaining from it stays shallow.  The
text comes from the program's own PDDL printer, so the program under test
only ever receives PDDL.

Every draw goes through one ``random.Random`` seeded with an integer and
every collection is sorted before it is drawn from, so the text is
byte-identical for a seed whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

import random

from plgg.pddl import Atom, Problem, problem_to_pddl

DENSITIES = ("tower", "single")
# Mean tower height; fixing the tower count (instead of cutting each gap
# with some probability) keeps the goal size, and so the cost of a task,
# the same across draws of one rung.
TOWER_HEIGHT = 4


def task_seed(blocks: int, index: int) -> int:
    """Seed of pool task `index` on the rung with `blocks` blocks."""
    return 1000 * index + blocks


def draw_towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    """Shuffle the blocks and cut them into len(blocks) // TOWER_HEIGHT
    towers (at least one), bottom block first."""
    order = list(blocks)
    rng.shuffle(order)
    count = max(1, len(order) // TOWER_HEIGHT)
    cuts = sorted(rng.sample(range(1, len(order)), count - 1))
    return [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(order)])]


def tower_atoms(towers: list[list[str]]) -> set[Atom]:
    atoms = set()
    for tower in towers:
        atoms.add(Atom("ontable", (tower[0],)))
        atoms.add(Atom("clear", (tower[-1],)))
        atoms.update(Atom("on", (upper, lower)) for lower, upper in zip(tower, tower[1:]))
    return atoms


def generate_problem(blocks: int, index: int, density: str) -> Problem:
    if density not in DENSITIES:
        raise ValueError(f"unknown goal density {density!r}")
    if blocks < 8:
        raise ValueError("a generated task needs at least eight blocks")
    rng = random.Random(task_seed(blocks, index))
    names = [f"b{i}" for i in range(blocks)]
    init = tower_atoms(draw_towers(rng, names)) | {Atom("handempty")}
    if density == "tower":
        goal = [a for a in tower_atoms(draw_towers(rng, names)) if a.pred == "on"]
    else:
        clear = sorted(a.args[0] for a in init if a.pred == "clear")
        goal = [Atom("on", tuple(rng.sample(clear, 2)))]
    return Problem(name=f"{density}-{blocks}-{index}", domain_name="blocksworld",
                   objects={name: "block" for name in names},
                   init=frozenset(init), goal=frozenset(goal))


def generate_task(blocks: int, index: int, density: str) -> str:
    """PDDL text of pool task `index` with `blocks` blocks."""
    return problem_to_pddl(generate_problem(blocks, index, density))
