"""Task-specific probabilistic landmark graphs.

Given a learned lifted ordering graph and a new ground task, two graphs are
generated: one backward from the goal (nodes point at predecessors) and one
forward from the initial state (nodes point at successors).  Landmarks
grounded on one side then drive variable bindings on the other, round after
round, until no new ground landmark appears; the union of both sides, one
directed edge map and each node's ground flag, is the task's probabilistic
landmark graph.  Each round instantiates the init side first.

Whenever an expansion introduces a variable next to known objects, those
objects are recorded as forbidden values for that variable: a variable
standing next to the block `a` in `on(a, ?x1)` can never be `a`.  Only the
fresh variables an expansion draws are new next to the expanded atom, so
each one's forbidden objects are written once, into the state of the side
that drew it.  The two sides share only the supply of fresh names, which
keeps their variables apart, so each side reads only its own constraints.

Each side expands an atom at most once up to variable renaming: a renamed
copy of an expanded atom still gets its node and its edge, but is not
expanded again, so cycles in the learned graph end.

Each learned edge is compiled into one plan per variable pattern of the
atom an expansion starts from (which arguments are variables, numbered by
first appearance): where each of the neighbour's arguments comes from, and
which of them are objects, so the neighbour's shape up to renaming and its
bucket take no look at its arguments.  A p-LOG keeps its edges grouped by
that atom's lifted form, and the plans, for every task it instantiates.

Generation builds the state that `combine` keeps across its passes, which
only add nodes and raise edge probabilities: each side's adjacency, each
node's best incident probability and the lifted nodes in buckets.  A lifted
node is filed once, when it joins the side, under its predicate, arity,
object positions and the objects at those positions: `on(?x3, b)` sits in
`("on", 2, (1,), ("b",))`.
Each bucket is kept in rank order, by higher best incident probability,
then lexicographically; a rewrite re-sorts the nearly sorted buckets that
gained a node or hold one whose best probability rose.  A ground landmark
looks its equivalents up in the buckets of its own objects, from the
fewest variables upward, since a node's distance to a ground landmark is
its variable count; the first count with a match holds the closest
equivalents, and the `top_n` best ranked of them supply its bindings.
Every landmark searched is ground: a pass reads only the task's facts
among the other side's nodes.
`_bucket_key` is the one bucket key, `_own_key` the one a lifted node is
filed under, and `_object_patterns` the one enumeration of a ground
atom's lifted shapes; scoring reads all three too.

A search reads nothing but its buckets, their order, their members' best
probabilities and the side's forbidden objects, which generation alone
writes.
So each side keeps every landmark's bindings together with the bucket
keys its search looked up, empty buckets included, and searches a
landmark again only after a rewrite re-sorted one of those buckets; every
pass still merges the bindings of all its landmarks in order.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from pathlib import Path
from typing import Iterable, Mapping

from . import artifact
from .pddl import Atom, GroundTask, is_variable, read_file
from .plog import PLog, LiftedEdge

logger = logging.getLogger(__name__)

SIDE_GOAL = "goal"
SIDE_INIT = "init"
SIDE_COMBINED = "combined"


class VarSource:
    """Hands out globally fresh canonical variable names; the two sides of
    one task draw from one source, so that no variable is on both."""

    def __init__(self):
        self._next = 0

    def take(self, count: int, kept: tuple[int, ...]) -> tuple[str, ...]:
        """Draw the next `count` fresh names; the ones at the positions
        `kept`, in that order."""
        start = self._next
        self._next += count
        return tuple(f"?x{start + i}" for i in kept)


@dataclass
class PLgg:
    """A task's probabilistic landmark graph, as `combine` returns it and a
    p-LGG file holds it: `edges`, each directed edge `(src, dst)` with its
    probability, and `nodes`, each node with its ground flag.  `side` says
    which side the graph is, or that it is the two sides combined.
    """

    edges: dict[tuple[Atom, Atom], float]
    nodes: dict[Atom, bool]
    side: str
    domain: str = ""


# The neighbour's predicate, the number of fresh names an expansion draws,
# which of them the neighbour holds, the neighbour's own constants, and
# where each neighbour argument comes from
_Template = tuple[str, int, tuple[int, ...], tuple[str, ...], tuple[int, ...]]


def _expand(template: _Template, lm: Atom, source: VarSource) -> tuple[Atom, tuple[str, ...]]:
    """The neighbour that a compiled edge gives the expanded atom `lm`, and
    the fresh names it holds: its only variables that `lm` does not hold."""
    pred, drawn, held, consts, where = template
    names = source.take(drawn, held)
    values = lm.args + names + consts
    return Atom(pred, tuple(map(values.__getitem__, where))), names


def _lift_key(atom: Atom) -> tuple:
    """`atom` up to renaming of all its parameters, objects included: each
    argument replaced by the position of its first occurrence.  Two atoms
    share a key exactly when they lift to the same atom."""
    return atom.pred, tuple(map(atom.args.index, atom.args))


def _edges_from(plog: PLog, backward: bool) -> dict[tuple, list[LiftedEdge]]:
    """Learned edges keyed by the `_lift_key` of the atom an expansion
    starts from: the destination when growing backward, the source when
    growing forward.  Each p-LOG groups each direction once and keeps it
    for every task it instantiates."""
    index = plog.derived.get((__name__, backward))
    if index is None:
        index = plog.derived[__name__, backward] = {}
        for edge in sorted(plog.probs):
            index.setdefault(_lift_key(edge.dst if backward else edge.src), []).append(edge)
    return index


def _plan(edge: LiftedEdge, backward: bool, pattern: tuple[int, ...]) -> tuple:
    """`edge` compiled for expanding, from its destination (backward) or its
    source, an atom whose arguments `pattern` numbers, each variable by its
    first appearance and each object -1: the template, the neighbour's
    object positions, its bucket key less the objects (None when it is
    ground), and its predicate with its own pattern, which with its objects
    is its shape up to renaming.

    An expansion draws one fresh name per variable of the edge, in order of
    first appearance in the destination's arguments then the source's, as
    renaming the edge would.  A neighbour argument that the start atom also
    holds takes the expanded atom's argument at the start's last such
    position, any other variable its fresh name, and any other constant
    itself."""
    start, neighbour = (edge.dst, edge.src) if backward else (edge.src, edge.dst)
    names = list(dict.fromkeys(p for p in edge.dst.args + edge.src.args if is_variable(p)))
    at = {p: i for i, p in enumerate(start.args)}
    held = tuple(sorted({names.index(p) for p in neighbour.args
                         if p not in at and is_variable(p)}))
    consts = tuple(dict.fromkeys(p for p in neighbour.args if p not in at and not is_variable(p)))
    count = len(start.args)
    where = tuple(at[p] if p in at
                  else count + held.index(names.index(p)) if is_variable(p)
                  else count + len(held) + consts.index(p)
                  for p in neighbour.args)
    # per neighbour argument: -1 for an object, else the expanded atom's
    # variable number (below `count`) or the fresh name's index (above)
    ids = [pattern[w] if w < count else w if w < count + len(held) else -1 for w in where]
    fixed = tuple(i for i, v in enumerate(ids) if v < 0)
    numbers: dict[int, int] = {}
    own = tuple(v if v < 0 else numbers.setdefault(v, len(numbers)) for v in ids)
    bucket = (neighbour.pred, len(where), fixed) if len(fixed) < len(where) else None
    return (neighbour.pred, len(names), held, consts, where), fixed, bucket, (neighbour.pred, own)


def _generate(plog: PLog, task: GroundTask, side: str, source: VarSource) -> SideState:
    backward = side == SIDE_GOAL
    index = _edges_from(plog, backward)
    plans = plog.derived.setdefault((__name__, backward, _plan.__name__), {})
    seeds, blocked = (task.goal, task.init) if backward else (task.init, task.goal)

    state = SideState(side, plog.domain)
    nodes, best, buckets, forbidden = state.nodes, state.best, state.buckets, state.forbidden
    expanded: set[tuple] = set()
    # an atom up to renaming: its predicate and pattern, and its objects;
    # the seeds are task facts, so ground
    queue = deque((seed, ((seed.pred, (-1,) * seed.arity), seed.args)) for seed in sorted(seeds))
    while queue:
        lm, shape = queue.popleft()
        if shape in expanded:
            continue
        expanded.add(shape)
        neighbours = nodes.setdefault(lm, {})
        head, objs = shape
        if not objs or lm in blocked:
            continue
        key = (_lift_key(lm), head)
        entries = plans.get(key)
        if entries is None:
            entries = plans[key] = [(*_plan(edge, backward, head[1]), plog.probs[edge])
                                    for edge in index.get(key[0], ())]
        if not entries and lm in seeds:
            logger.warning("no learned orderings touch %s; keeping it isolated", lm)
        objects = frozenset(objs)
        for template, fixed, bucket, own, mu in entries:
            neighbour, fresh = _expand(template, lm, source)
            # a fresh name differs from every object of the atom it stands next to
            for name in fresh:
                forbidden[name] = objects
            its_objects = tuple(map(neighbour.args.__getitem__, fixed))
            if neighbour not in nodes:
                nodes[neighbour] = {}
                if bucket is not None:
                    buckets.setdefault(bucket + (its_objects,), []).append(neighbour)
            current = neighbours.get(neighbour)
            if current is None or current < mu:
                neighbours[neighbour] = mu
                if best.get(neighbour, -1.0) < mu:
                    best[neighbour] = mu
            if fixed and (own, its_objects) not in expanded:
                queue.append((neighbour, (own, its_objects)))
        if neighbours and best.get(lm, -1.0) < (top := max(neighbours.values())):
            best[lm] = top
    for members in buckets.values():
        members.sort(key=state.rank)
    return state


def generate_plgg_goal(plog: PLog, task: GroundTask, *, var_source: VarSource) -> SideState:
    """Grow the goal-side graph backward through learned in-edges.

    Each dequeued atom with at least one object that is not an init fact is
    expanded: every learned edge into its lifted form is freshly renamed,
    its destination unified with the atom, and the resulting predecessor
    inserted (and queued, if it mentions any object).  An atom is expanded
    at most once up to variable renaming.  Fresh names come from
    `var_source`, which `combine` needs both sides to share, and each fresh
    name's forbidden objects go to the side's own state.  The side comes
    back as the state that `combine` keeps.
    """
    return _generate(plog, task, SIDE_GOAL, var_source)


def generate_plgg_init(plog: PLog, task: GroundTask, *, var_source: VarSource) -> SideState:
    """Mirror of the goal side: forward from init along learned out-edges."""
    return _generate(plog, task, SIDE_INIT, var_source)


# --- equivalence and instantiation -------------------------------------------


def _bucket_key(atom: Atom, fixed: tuple[int, ...]) -> tuple:
    """The bucket of the lifted shape of `atom` with objects at the
    positions `fixed` and variables elsewhere: its predicate, arity, those
    positions and `atom`'s objects there.  A lifted node is filed under its
    own object positions; a ground landmark's search, and scoring, read the
    keys of its `_object_patterns`."""
    return atom.pred, len(atom.args), fixed, tuple(atom.args[i] for i in fixed)


def _own_key(atom: Atom) -> tuple:
    """The `_bucket_key` of `atom` at its own object positions."""
    return _bucket_key(atom, tuple(i for i, p in enumerate(atom.args) if not is_variable(p)))


class SideState:
    """One side as generation builds it and `combine` rewrites it: `nodes`,
    each atom's predecessors (goal side) or successors (init side) with
    edge probabilities; `best`, each node's best incident probability;
    `buckets`, the lifted nodes, each filed once under its `_own_key`,
    each bucket in `rank` order; `forbidden`, the objects that each
    variable the side drew may not take; `kept`, the bindings of each
    (landmark, top_n) searched since a bucket it read last changed; and
    `readers`, the (landmark, top_n) pairs whose search looked each bucket
    key up, empty or not.  Nodes are only ever added, so the task facts
    among `nodes` only grow from pass to pass."""

    def __init__(self, side: str, domain: str = ""):
        self.side, self.domain = side, domain
        self.nodes: dict[Atom, dict[Atom, float]] = {}
        self.best: dict[Atom, float] = {}
        self.buckets: dict[tuple, list[Atom]] = {}
        self.forbidden: dict[str, frozenset[str]] = {}
        self.kept: dict[tuple[Atom, int], dict[str, str]] = {}
        self.readers: dict[tuple, set[tuple[Atom, int]]] = {}

    def rank(self, node: Atom) -> tuple[float, Atom]:
        """Higher best incident probability first, then lexicographically."""
        return -self.best.get(node, 0.0), node


_Pattern = tuple[tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=None)
def _object_patterns(arity: int) -> tuple[tuple[_Pattern, ...], ...]:
    """Each lifted shape of this arity as (object positions, variable
    positions), grouped by variable count, fewest first."""
    positions = range(arity)
    return tuple(tuple((fixed, tuple(i for i in positions if i not in fixed))
                       for fixed in combinations(positions, arity - count))
                 for count in range(1, arity + 1))


def search_best_equiv(state: SideState, lm: Atom, top_n: int = 1) -> dict[str, str]:
    """Variable bindings harvested from the closest equivalents of the
    ground landmark `lm` among the side's lifted nodes.

    A lifted node is as far from `lm` as it has variable positions, so the
    buckets of `lm`'s own objects are read from the fewest variables
    upward, skipping nodes whose variable at some position may not take
    `lm`'s object there; the first count with a match holds the closest
    equivalents.  A bucket's first `top_n` allowed nodes are its best
    ranked, and the `top_n` best ranked of those across the count's
    buckets contribute bindings position by position; a variable bound
    once is never rebound.  The state keeps the bindings, and files the
    search as a reader of every bucket key it looked up.
    """
    if not lm.is_ground:
        raise ValueError(f"equivalence search needs a ground landmark, not {lm}")
    args = lm.args
    forbidden = state.forbidden.get
    reader = (lm, top_n)
    chosen: list[Atom] = []
    for level in _object_patterns(len(args)):
        for fixed, open_ in level:
            key = _bucket_key(lm, fixed)
            state.readers.setdefault(key, set()).add(reader)
            chosen += islice((node for node in state.buckets.get(key, ())
                              if all(args[i] not in forbidden(node.args[i], ()) for i in open_)),
                             top_n)
        if chosen:
            break
    bindings: dict[str, str] = {}
    for node in sorted(chosen, key=state.rank)[:top_n]:
        for var, obj in zip(node.args, args):
            if is_variable(var):
                bindings.setdefault(var, obj)
    state.kept[reader] = bindings
    return bindings


def apply_instantiation(state: SideState, bindings: Mapping[str, str]) -> None:
    """Rewrite every lifted node of the side under `bindings`, which map
    variables to objects, in place.

    A node changed by the rewrite acquires (or extends) a copy of its
    neighbour set, itself rewritten under the same bindings; the lifted
    original stays.  Bindings that hit a forbidden object are dropped.  A
    rewritten node has no bound variable left, so no node that this
    rewrite changes is rewritten again, in whatever order the nodes are
    rewritten; the best incident probabilities of both ends of every edge
    it adds or raises are raised with it, and the lifted nodes it added are
    filed.  Each bucket that gained a node or holds one whose best
    probability rose is re-sorted, which is cheap since only those nodes
    move, and the kept bindings of its readers are dropped: a search reads
    nothing else that a rewrite changes.
    """
    safe: dict[str, str] = {}
    for var, obj in sorted(bindings.items()):
        if obj in state.forbidden.get(var, ()):
            logger.warning("binding %s -> %s violates a distinct-value constraint; skipped",
                           var, obj)
            continue
        safe[var] = obj
    nodes, best = state.nodes, state.best
    added: list[Atom] = []
    raised: set[Atom] = set()
    for members in state.buckets.values():
        for lifted in members:
            if safe.keys().isdisjoint(lifted.args):
                continue
            inst = lifted.substitute(safe)
            bucket = nodes.get(inst)
            if bucket is None:
                bucket = nodes[inst] = {}
                added.append(inst)
            for neighbour, mu in nodes[lifted].items():
                rewritten = neighbour.substitute(safe)
                mu = max(mu, bucket.get(rewritten, 0.0))
                bucket[rewritten] = mu
                if best.get(inst, -1.0) < mu:
                    best[inst] = mu
                    raised.add(inst)
                if best.get(rewritten, -1.0) < mu:
                    best[rewritten] = mu
                    raised.add(rewritten)
    keys = {node: _own_key(node) for node in raised.union(added) if not node.is_ground}
    for node in added:
        if node in keys:
            state.buckets.setdefault(keys[node], []).append(node)
    for key in set(keys.values()):
        state.buckets[key].sort(key=state.rank)
        for reader in state.readers.pop(key, ()):
            state.kept.pop(reader, None)


def instantiation(state: SideState, lms: Iterable[Atom], top_n: int = 1) -> None:
    """One instantiation pass: harvest bindings from every ground landmark
    in `lms` against the side's ranked buckets, first binding per variable
    wins, then rewrite the side once.  A landmark is searched only if the
    state keeps no bindings for it: a search reads only its buckets, their
    order, their members' best probabilities and the side's forbidden
    objects, which generation alone writes, so kept bindings equal a new
    search's."""
    var_inst: dict[str, str] = {}
    ordered = sorted(lms)
    searched = 0
    for lm in ordered:
        bindings = state.kept.get((lm, top_n))
        if bindings is None:
            bindings = search_best_equiv(state, lm, top_n)
            searched += 1
        for var, obj in bindings.items():
            var_inst.setdefault(var, obj)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("%s side pass: %d landmarks searched, %d bindings reused",
                     state.side, searched, len(ordered) - searched)
    apply_instantiation(state, var_inst)


def combine(goal: SideState, init: SideState, task: GroundTask, top_n: int = 1) -> PLgg:
    """Alternate instantiation between the two sides until a fixpoint.

    Both sides must draw their fresh names from one `VarSource`, so that
    no variable is on both.  The passes rewrite the two states in place, so
    the sides given are consumed: afterwards they hold their final graphs.
    Each round instantiates the init side from the goal side's ground
    landmarks, then the goal side from the init side's.  A side's ground
    landmarks are the task's facts among its nodes, read after its pass
    (any other node is an ungroundable artifact); every seed is one, so the
    first init pass reads exactly the task's goal.  The loop stops when a
    full round adds no new ground landmark.  The
    returned graph is the union of both sides: each edge at the larger of
    its two sides' probabilities, and each node flagged ground unless a
    side filed it as lifted.
    """
    lms_goal, known = task.goal, task.init | task.goal
    while True:
        instantiation(init, lms_goal, top_n)
        lms_init = task.facts.intersection(init.nodes)
        instantiation(goal, lms_init, top_n)
        lms_goal = task.facts.intersection(goal.nodes)
        if lms_init | lms_goal == known:
            break
        known = lms_init | lms_goal
    edges = {(pred, node): mu for node, preds in goal.nodes.items() for pred, mu in preds.items()}
    for node, succs in init.nodes.items():
        edges.update({(node, s): mu for s, mu in succs.items() if edges.get((node, s), -1) < mu})
    nodes = dict.fromkeys(goal.nodes.keys() | init.nodes.keys(), True)
    nodes.update((node, False) for side in (goal, init)
                 for members in side.buckets.values() for node in members)
    return PLgg(edges=edges, nodes=nodes, side=SIDE_COMBINED, domain=goal.domain or init.domain)


def instantiate_task(plog: PLog, task: GroundTask, top_n: int = 1) -> PLgg:
    """Full pipeline for one task: generate both sides from one fresh-name
    supply and combine them."""
    source = VarSource()
    goal_side = generate_plgg_goal(plog, task, var_source=source)
    init_side = generate_plgg_init(plog, task, var_source=source)
    return combine(goal_side, init_side, task, top_n)


# --- result extraction --------------------------------------------------------


@dataclass
class PlggContent:
    """What a thresholded probabilistic landmark graph claims about a task."""

    landmarks_grounded: set[Atom]
    landmarks_lifted: set[Atom]
    orderings: dict[tuple[Atom, Atom], float]

    def orderings_grounded(self) -> dict[tuple[Atom, Atom], float]:
        """The orderings between ground atoms.  An end among the landmarks
        is as ground as the set it is in says; only an end that is not a
        landmark, which a hand-built content may hold, is looked at."""
        grounded, lifted = self.landmarks_grounded, self.landmarks_lifted
        return {(s, d): mu for (s, d), mu in self.orderings.items()
                if (s in grounded or s not in lifted and s.is_ground)
                and (d in grounded or d not in lifted and d.is_ground)}


def extract_result(plgg: PLgg, threshold: float = 0.0) -> PlggContent:
    """Keep nodes and edges whose probability clears the threshold.

    An edge's probability is its own; a node's, the best of its incident
    edges', so a node is dropped when it has edges and none clears the
    threshold.  Seeds have none and survive; ground flags split the nodes.
    """
    orderings, dropped = {}, set()
    for edge, mu in plgg.edges.items():
        if mu >= threshold:
            orderings[edge] = mu
        else:
            dropped.update(edge)
    dropped.difference_update(*orderings)
    ground = plgg.nodes
    kept = [a for a in ground if a not in dropped]
    return PlggContent(landmarks_grounded={a for a in kept if ground[a]},
                       landmarks_lifted={a for a in kept if not ground[a]},
                       orderings=orderings)


# --- serialization ------------------------------------------------------------


def _edge_table(plgg: PLgg) -> tuple[list[Atom], list[tuple[int, int, float]]]:
    """The graph's sorted atom table, and its directed edges as (source
    index, destination index, mu) in index order."""
    table, index = artifact.atom_table(plgg.nodes)
    return table, sorted((index[s], index[d], mu) for (s, d), mu in plgg.edges.items())


# Each edge appears once, from its source to its destination, whatever the
# side.  A vertex's `grounded` flag is written but not read, since the
# atom's arguments already say whether it is ground.
SCHEMA = artifact.Schema(
    vertices=artifact.atoms(grounded=artifact.flag),
    domain=artifact.string, side=artifact.one_of(SIDE_GOAL, SIDE_INIT, SIDE_COMBINED),
    edges=artifact.records({"src": artifact.vertex, "dst": artifact.vertex,
                            "mu": artifact.probability}, unique=("src", "dst")))


def plgg_to_json(plgg: PLgg) -> str:
    table, edges = _edge_table(plgg)
    return artifact.write_artifact(
        SCHEMA, domain=plgg.domain, side=plgg.side, edges=edges,
        vertices=[(a.pred, a.args, plgg.nodes[a]) for a in table])


def plgg_from_json(text: str) -> PLgg:
    """Read a p-LGG."""
    data = artifact.read_artifact(text, SCHEMA)
    return PLgg(edges={(src, dst): mu for src, dst, mu in data["edges"]},
                nodes={a: a.is_ground for a in data["vertices"]},
                side=data["side"], domain=data["domain"])


def write_plgg(plgg: PLgg, path: str | Path) -> None:
    Path(path).write_text(plgg_to_json(plgg))


def read_plgg(path: str | Path) -> PLgg:
    return read_file(path, plgg_from_json)


def plgg_to_dot(plgg: PLgg) -> str:
    """Graphviz rendering; lifted nodes are dashed, edges carry probabilities."""
    table, edges = _edge_table(plgg)
    return artifact.write_dot("plgg", table, lambda atom: not plgg.nodes[atom], edges)
