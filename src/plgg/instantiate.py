"""Task-specific probabilistic landmark graphs.

Given a learned lifted ordering graph and a new ground task, two graphs are
generated: one backward from the goal (nodes point at predecessors) and one
forward from the initial state (nodes point at successors).  Landmarks
grounded on one side then drive variable bindings on the other, round after
round, until no new ground landmark appears; the union of both sides is the
task's probabilistic landmark graph.  Both sides share one constraint store,
and each round instantiates the init side first, then the goal side.

Whenever an expansion introduces a variable next to known parameters, the
known parameters are recorded as forbidden values for that variable: a
variable standing next to the block `a` in `on(a, ?x1)` can never be `a`.
Only the fresh variables an expansion draws are new next to the expanded
atom, so each one's forbidden sets are written once, from the atom's
objects and variables, which are computed once per expansion.

Each side expands an atom at most once up to variable renaming: a renamed
copy of an expanded atom still gets its node and its edge, but is not
expanded again, so cycles in the learned graph end.

Each learned edge is compiled once per direction into the neighbour it
gives an expanded atom, so an expansion renames and substitutes nothing.
A p-LOG keeps its compiled edges, so every task it instantiates shares
them.

Passes only add nodes and raise edge probabilities, so `combine` keeps
each side's state across its passes instead of deriving it again: one copy
of the side that every rewrite changes in place, each node's best incident
probability, the lifted nodes in buckets, and the nodes that no harvest
has read yet.  A lifted node is filed once, when it joins the side, under
its predicate, arity, object positions and the objects at those
positions: `on(?x3, b)` sits in `("on", 2, (1,), ("b",))`.  Each bucket is
kept in rank order, by higher best incident probability, then
lexicographically; a rewrite re-sorts the nearly sorted buckets that
gained a node or hold one whose best probability rose.  A ground landmark
looks its equivalents up in the buckets of its own objects, from the
fewest variables upward, since a node's distance to a ground landmark is
its variable count; the first count with a match holds the closest
equivalents, and the `top_n` best ranked of them supply its bindings.
Every landmark searched is ground: `combine` harvests only the task's
facts.

A search reads nothing but its buckets, their order, their members' best
probabilities and the constraint store, which generation alone writes.
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


class VarConstraintStore:
    """Distinct-value constraints per variable, shared across one task run.

    The generators are its only writers: an expansion sets the forbidden
    sets of each fresh variable it draws, once, and nothing changes them
    after generation.
    """

    def __init__(self):
        self._objects: dict[str, frozenset[str]] = {}
        self._variables: dict[str, frozenset[str]] = {}

    def forbidden_objects(self, var: str) -> frozenset[str]:
        return self._objects.get(var, frozenset())

    def forbidden_variables(self, var: str) -> frozenset[str]:
        return self._variables.get(var, frozenset())


class VarSource:
    """Hands out globally fresh canonical variable names."""

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
    """One side (or the union) of a task's probabilistic landmark graph.

    `nodes` maps each atom to its neighbours with edge probabilities; on the
    goal side neighbours are predecessors, on the init side successors, and
    the combined graph is predecessor-oriented.
    """

    nodes: dict[Atom, dict[Atom, float]]
    side: str
    store: VarConstraintStore
    domain: str = ""


# The neighbour's predicate, the number of fresh names an expansion draws,
# which of them the neighbour holds, the neighbour's own constants, and
# where each neighbour argument comes from
_Template = tuple[str, int, tuple[int, ...], tuple[str, ...], tuple[int, ...]]


def _compile(edge: LiftedEdge, backward: bool) -> _Template:
    """Compile `edge` for expansions from its destination (backward) or its
    source, the start atom.  An expansion draws one fresh name per variable
    of the edge, in order of first appearance in the destination's
    arguments then the source's, as renaming the edge would.  A neighbour
    argument that the start atom also holds takes the expanded atom's
    argument at the start's last such position, any other variable its
    fresh name, and any other constant itself."""
    start, neighbour = (edge.dst, edge.src) if backward else (edge.src, edge.dst)
    names = list(dict.fromkeys(p for p in edge.dst.args + edge.src.args if is_variable(p)))
    at = {p: i for i, p in enumerate(start.args)}
    held = sorted({names.index(p) for p in neighbour.args if p not in at and is_variable(p)})
    consts = tuple(dict.fromkeys(p for p in neighbour.args if p not in at and not is_variable(p)))
    offset = len(start.args) + len(held)
    where = tuple(at[p] if p in at
                  else len(start.args) + held.index(names.index(p)) if is_variable(p)
                  else offset + consts.index(p)
                  for p in neighbour.args)
    return neighbour.pred, len(names), tuple(held), consts, where


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


def _edges_from(plog: PLog, backward: bool) -> dict[tuple, list[tuple[_Template, float]]]:
    """Learned edges, compiled, with their probabilities, keyed by the
    `_lift_key` of the atom an expansion starts from: the destination when
    growing backward, the source when growing forward.  Each p-LOG compiles
    each direction once and keeps it for every task it instantiates."""
    index = plog.derived.get((__name__, backward))
    if index is None:
        index = plog.derived[__name__, backward] = {}
        for edge in sorted(plog.probs):
            index.setdefault(_lift_key(edge.dst if backward else edge.src), []).append(
                (_compile(edge, backward), plog.probs[edge]))
    return index


def _shape(atom: Atom) -> tuple:
    """`atom` up to variable renaming: variables numbered by first appearance."""
    numbers: dict[str, int] = {}
    return atom.pred, tuple(numbers.setdefault(p, len(numbers)) if is_variable(p) else p
                            for p in atom.args)


def _generate(plog: PLog, task: GroundTask, seeds: Iterable[Atom], side: str,
              source: VarSource, store: VarConstraintStore) -> PLgg:
    backward = side == SIDE_GOAL
    index = _edges_from(plog, backward)
    blocked = task.init if backward else task.goal
    forbidden_objects, forbidden_variables = store._objects, store._variables

    nodes: dict[Atom, dict[Atom, float]] = {}
    expanded: set[tuple] = set()
    queue = deque((seed, _shape(seed)) for seed in sorted(seeds))
    seed_set = frozenset(seeds)
    while queue:
        lm, shape = queue.popleft()
        if shape in expanded:
            continue
        expanded.add(shape)
        neighbours = nodes.setdefault(lm, {})
        objects = lm.objects()
        if not objects or lm in blocked:
            continue
        entries = index.get(_lift_key(lm), ())
        if not entries and lm in seed_set:
            logger.warning("no learned orderings touch %s; keeping it isolated", lm)
        variables = lm.variables()
        for template, mu in entries:
            neighbour, fresh = _expand(template, lm, source)
            # a fresh name differs from every parameter of the atom it stands next to
            for name in fresh:
                forbidden_objects[name] = objects
                forbidden_variables[name] = variables
            nodes.setdefault(neighbour, {})
            current = neighbours.get(neighbour)
            neighbours[neighbour] = mu if current is None else max(mu, current)
            if not all(map(is_variable, neighbour.args)):
                neighbour_shape = _shape(neighbour)
                if neighbour_shape not in expanded:
                    queue.append((neighbour, neighbour_shape))
    return PLgg(nodes=nodes, side=side, store=store, domain=plog.domain)


def generate_plgg_goal(plog: PLog, task: GroundTask, *, var_source: VarSource,
                       store: VarConstraintStore) -> PLgg:
    """Grow the goal-side graph backward through learned in-edges.

    Each dequeued atom with at least one object that is not an init fact is
    expanded: every learned edge into its lifted form is freshly renamed,
    its destination unified with the atom, and the resulting predecessor
    inserted (and queued, if it mentions any object).  An atom is expanded
    at most once up to variable renaming.  Fresh names come from
    `var_source` and constraints go to `store`; `combine` needs both sides
    to share them.
    """
    return _generate(plog, task, task.goal, SIDE_GOAL, var_source, store)


def generate_plgg_init(plog: PLog, task: GroundTask, *, var_source: VarSource,
                       store: VarConstraintStore) -> PLgg:
    """Mirror of the goal side: forward from init along learned out-edges."""
    return _generate(plog, task, task.init, SIDE_INIT, var_source, store)


# --- equivalence and instantiation -------------------------------------------


def equivalent_params(x: str, y: str, store: VarConstraintStore) -> bool:
    """Can these two parameters stand for the same thing?

    Identical symbols of the same kind always can.  A variable matches an
    object unless the object is forbidden for it.  Two variables match when
    they carry the same forbidden-object set and neither forbids the other.
    """
    xv, yv = is_variable(x), is_variable(y)
    if xv == yv:
        if x == y:
            return True
        if not xv:
            return False
        return (store.forbidden_objects(x) == store.forbidden_objects(y)
                and x not in store.forbidden_variables(y)
                and y not in store.forbidden_variables(x))
    var, obj = (x, y) if xv else (y, x)
    return obj not in store.forbidden_objects(var)


def equivalent_atoms(a: Atom, b: Atom, store: VarConstraintStore) -> bool:
    """Same predicate, same arity, parameters pairwise equivalent."""
    if a.pred != b.pred or a.arity != b.arity:
        return False
    return all(equivalent_params(x, y, store) for x, y in zip(a.args, b.args))


def _best_incident_prob(plgg: PLgg) -> dict[Atom, float]:
    best: dict[Atom, float] = {}
    for node, neighbours in plgg.nodes.items():
        for neighbour, mu in neighbours.items():
            best[node] = max(best.get(node, 0.0), mu)
            best[neighbour] = max(best.get(neighbour, 0.0), mu)
    return best


def _bucket_key(node: Atom) -> tuple:
    """The bucket of a lifted node: its predicate, arity, object positions
    and the objects there."""
    fixed = tuple(i for i, p in enumerate(node.args) if not is_variable(p))
    return node.pred, node.arity, fixed, tuple(node.args[i] for i in fixed)


class SideState:
    """One side's working graph for the length of one `combine` call:
    `plgg`, a copy of the side that the rewrites change in place; `best`,
    each node's best incident probability; `buckets`, the lifted nodes,
    each filed once under its `_bucket_key`, each bucket in `rank` order;
    `unharvested`, the nodes that no harvest has read yet; `kept`, the
    bindings of each (landmark, top_n) searched since a bucket it read
    last changed; and `readers`, the (landmark, top_n) pairs whose search
    looked each bucket key up, whether the bucket was empty or not."""

    def __init__(self, plgg: PLgg):
        self.plgg = PLgg(nodes={node: dict(neighbours) for node, neighbours in plgg.nodes.items()},
                         side=plgg.side, store=plgg.store, domain=plgg.domain)
        self.best = _best_incident_prob(self.plgg)
        self.buckets: dict[tuple, list[Atom]] = {}
        self.unharvested: list[Atom] = []
        self.kept: dict[tuple[Atom, int], dict[str, str]] = {}
        self.readers: dict[tuple, set[tuple[Atom, int]]] = {}
        self.admit(list(self.plgg.nodes))

    def rank(self, node: Atom) -> tuple[float, Atom]:
        """Higher best incident probability first, then lexicographically."""
        return -self.best.get(node, 0.0), node

    def admit(self, added: list[Atom], raised: Iterable[Atom] = ()) -> None:
        """Queue the nodes a rewrite added for the next harvest and file the
        lifted ones.  Each bucket that gained a node or holds one whose best
        probability rose is re-sorted, which is cheap since only those nodes
        move, and the kept bindings of its readers are dropped: a search
        reads nothing else that a rewrite changes."""
        self.unharvested += added
        touched = set()
        for node in added:
            if not node.is_ground:
                key = _bucket_key(node)
                self.buckets.setdefault(key, []).append(node)
                touched.add(key)
        touched.update(_bucket_key(node) for node in raised if not node.is_ground)
        for key in touched:
            self.buckets[key].sort(key=self.rank)
            for reader in self.readers.pop(key, ()):
                self.kept.pop(reader, None)

    def harvest(self, facts: frozenset[Atom]) -> set[Atom]:
        """The task facts among the nodes added since the last harvest."""
        found = {node for node in self.unharvested if node in facts}
        self.unharvested = []
        return found


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
    upward, skipping nodes whose constraints forbid `lm`'s object at a
    variable position; the first count with a match holds the closest
    equivalents.  A bucket's first `top_n` allowed nodes are its best
    ranked, and the `top_n` best ranked of those across the count's
    buckets contribute bindings position by position; a variable bound
    once is never rebound.  The state keeps the bindings, and files the
    search as a reader of every bucket key it looked up.
    """
    if not lm.is_ground:
        raise ValueError(f"equivalence search needs a ground landmark, not {lm}")
    args = lm.args
    forbidden = state.plgg.store.forbidden_objects
    reader = (lm, top_n)
    chosen: list[Atom] = []
    for level in _object_patterns(len(args)):
        for fixed, open_ in level:
            key = (lm.pred, len(args), fixed, tuple(args[i] for i in fixed))
            state.readers.setdefault(key, set()).add(reader)
            chosen += islice((node for node in state.buckets.get(key, ())
                              if all(args[i] not in forbidden(node.args[i]) for i in open_)),
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
    it adds or raises are raised with it, and the side admits the nodes
    it added and those whose best probability rose.
    """
    safe: dict[str, str] = {}
    for var, obj in sorted(bindings.items()):
        if obj in state.plgg.store.forbidden_objects(var):
            logger.warning("binding %s -> %s violates a distinct-value constraint; skipped",
                           var, obj)
            continue
        safe[var] = obj
    nodes, best = state.plgg.nodes, state.best
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
    state.admit(added, raised)


def instantiation(state: SideState, lms: Iterable[Atom], top_n: int = 1) -> None:
    """One instantiation pass: harvest bindings from every ground landmark
    in `lms` against the side's ranked buckets, first binding per variable
    wins, then rewrite the side once.  A landmark is searched only if the
    state keeps no bindings for it: a search reads only its buckets, their
    order, their members' best probabilities and the constraint store,
    which generation alone writes, so kept bindings equal a new search's."""
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
                     state.plgg.side, searched, len(ordered) - searched)
    apply_instantiation(state, var_inst)


def combine(goal_side: PLgg, init_side: PLgg, task: GroundTask, top_n: int = 1, *,
            iteration_log: list | None = None) -> PLgg:
    """Alternate instantiation between the two sides until a fixpoint.

    Both sides must share one constraint store; neither is changed, since
    the passes rewrite a `SideState` copy of each.  Each round instantiates
    the init side from the goal side's ground landmarks, then the goal side
    from the init side's; a side's ground landmarks are its nodes that are
    facts of the task (anything else is an ungroundable artifact and is not
    harvested), read as they are added.  The loop stops when a full round
    adds no new ground landmark.  The returned graph is the
    predecessor-oriented union of both sides.
    """
    if goal_side.store is not init_side.store:
        raise ValueError("the goal and init sides must share one constraint store")
    goal, init = SideState(goal_side), SideState(init_side)
    lms_init = set(task.init)
    lms_goal = set(task.goal)
    known = lms_init | lms_goal
    if iteration_log is not None:
        iteration_log.append(frozenset(known))
    while True:
        instantiation(init, lms_goal, top_n)
        lms_init |= init.harvest(task.facts)
        instantiation(goal, lms_init, top_n)
        lms_goal |= goal.harvest(task.facts)
        grown = known | lms_init | lms_goal
        if iteration_log is not None:
            iteration_log.append(frozenset(grown))
        if grown == known:
            break
        known = grown
    return _union(goal.plgg, init.plgg)


def _union(goal_side: PLgg, init_side: PLgg) -> PLgg:
    """The predecessor-oriented union of a goal and an init side."""
    nodes: dict[Atom, dict[Atom, float]] = {}

    def ensure(atom: Atom) -> dict[Atom, float]:
        return nodes.setdefault(atom, {})

    for node, predecessors in goal_side.nodes.items():
        bucket = ensure(node)
        for pred, mu in predecessors.items():
            ensure(pred)
            bucket[pred] = max(mu, bucket.get(pred, 0.0))
    for node, successors in init_side.nodes.items():
        ensure(node)
        for succ, mu in successors.items():
            bucket = ensure(succ)
            bucket[node] = max(mu, bucket.get(node, 0.0))
    return PLgg(nodes=nodes, side=SIDE_COMBINED, store=goal_side.store,
                domain=goal_side.domain or init_side.domain)


def instantiate_task(plog: PLog, task: GroundTask, top_n: int = 1, *,
                     iteration_log: list | None = None) -> PLgg:
    """Full pipeline for one task: generate both sides (sharing fresh-name
    supply and constraint store) and combine them."""
    source = VarSource()
    store = VarConstraintStore()
    goal_side = generate_plgg_goal(plog, task, var_source=source, store=store)
    init_side = generate_plgg_init(plog, task, var_source=source, store=store)
    return combine(goal_side, init_side, task, top_n, iteration_log=iteration_log)


# --- result extraction --------------------------------------------------------


@dataclass
class PlggContent:
    """What a thresholded probabilistic landmark graph claims about a task."""

    landmarks_grounded: set[Atom]
    landmarks_lifted: set[Atom]
    orderings: dict[tuple[Atom, Atom], float]

    @property
    def landmarks(self) -> set[Atom]:
        return self.landmarks_grounded | self.landmarks_lifted

    def orderings_grounded(self) -> dict[tuple[Atom, Atom], float]:
        return {(s, d): mu for (s, d), mu in self.orderings.items()
                if s.is_ground and d.is_ground}


def _directed_edges(plgg: PLgg) -> dict[tuple[Atom, Atom], float]:
    edges: dict[tuple[Atom, Atom], float] = {}
    for node, neighbours in plgg.nodes.items():
        for neighbour, mu in neighbours.items():
            edge = (node, neighbour) if plgg.side == SIDE_INIT else (neighbour, node)
            edges[edge] = max(mu, edges.get(edge, 0.0))
    return edges


def extract_result(plgg: PLgg, threshold: float = 0.0) -> PlggContent:
    """Keep nodes and edges whose probability clears the threshold.

    An edge's probability is its own; a node's is the best over its incident
    edges.  Nodes with no incident edges (the seeds) always survive.
    """
    best = _best_incident_prob(plgg)
    kept_atoms = {a for a in plgg.nodes.keys() | best.keys()
                  if a not in best or best[a] >= threshold}
    kept_edges = {e: mu for e, mu in _directed_edges(plgg).items() if mu >= threshold}
    return PlggContent(
        landmarks_grounded={a for a in kept_atoms if a.is_ground},
        landmarks_lifted={a for a in kept_atoms if not a.is_ground},
        orderings=kept_edges)


# --- serialization ------------------------------------------------------------


def _edge_table(plgg: PLgg) -> tuple[list[Atom], list[tuple[int, int, float]]]:
    """The graph's sorted atom table, and its directed edges as (source
    index, destination index, mu) in index order."""
    edges = _directed_edges(plgg)
    table, index = artifact.atom_table(set(plgg.nodes) | {a for e in edges for a in e})
    return table, sorted((index[s], index[d], mu) for (s, d), mu in edges.items())


# Each edge appears once.  A vertex's `grounded` flag is written but not
# read, since the atom's arguments already say whether it is ground.
SCHEMA = artifact.Schema(
    vertices=artifact.atoms(grounded=artifact.flag),
    domain=artifact.string, side=artifact.one_of(SIDE_GOAL, SIDE_INIT, SIDE_COMBINED),
    edges=artifact.records({"src": artifact.vertex, "dst": artifact.vertex,
                            "mu": artifact.probability}, unique=("src", "dst")))


def plgg_to_json(plgg: PLgg) -> str:
    table, edges = _edge_table(plgg)
    return artifact.write_artifact(
        SCHEMA, domain=plgg.domain, side=plgg.side, edges=edges,
        vertices=[(a.pred, a.args, a.is_ground) for a in table])


def plgg_from_json(text: str) -> PLgg:
    """Read a p-LGG."""
    data = artifact.read_artifact(text, SCHEMA)
    nodes: dict[Atom, dict[Atom, float]] = {a: {} for a in data["vertices"]}
    for src, dst, mu in data["edges"]:
        node, neighbour = (src, dst) if data["side"] == SIDE_INIT else (dst, src)
        nodes[node][neighbour] = mu
    return PLgg(nodes=nodes, side=data["side"], store=VarConstraintStore(),
                domain=data["domain"])


def write_plgg(plgg: PLgg, path: str | Path) -> None:
    Path(path).write_text(plgg_to_json(plgg))


def read_plgg(path: str | Path) -> PLgg:
    return read_file(path, plgg_from_json)


def plgg_to_dot(plgg: PLgg) -> str:
    """Graphviz rendering; lifted nodes are dashed, edges carry probabilities."""
    table, edges = _edge_table(plgg)
    lines = ["digraph plgg {", "  rankdir=BT;"]
    for i, a in enumerate(table):
        style = " style=dashed" if not a.is_ground else ""
        lines.append(f'  n{i} [label={artifact.dot_label(str(a))}{style}];')
    for s, d, mu in edges:
        lines.append(f'  n{s} -> n{d} [label="{mu:.2f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
