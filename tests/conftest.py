import re
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

import plgg.instantiate as instantiate
from plgg.instantiate import SIDE_COMBINED, SIDE_GOAL, SIDE_INIT, PLgg, SideState, VarSource
from plgg.metrics import _prf, alpha_prf
from plgg.pddl import (GroundAction, GroundTask, TaskIndex, explore, ground_task, is_variable,
                       parse_domain, parse_problem)
from plgg.lgg import LGG, extract_lgg, is_landmark_oracle
from plgg.plog import LiftedEdge, learn_plog, lift_atom

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "blocksworld"
TRAIN = ("p01", "p02", "p03", "p04")
CORPUS = sorted(p.stem for p in BENCH.glob("p*.pddl"))
# A hand-written typed domain with constants and 3-parameter actions.
GRIPPER = Path(__file__).resolve().parent / "gripper"
GRIPPER_CORPUS = sorted(p.stem for p in GRIPPER.glob("p*.pddl"))
# A hand-written typed domain with a 3-ary predicate among an action's
# preconditions and add effects.
COURIER = Path(__file__).resolve().parent / "courier"
COURIER_CORPUS = sorted(p.stem for p in COURIER.glob("p*.pddl"))
# (directory, problem stem) of every shipped task of the three domains
ALL_TASKS = ([(BENCH, n) for n in CORPUS] + [(GRIPPER, n) for n in GRIPPER_CORPUS]
             + [(COURIER, n) for n in COURIER_CORPUS])
# (domain directory, training stems) of the p-LOG that instantiates every
# fixture task of its domain, training tasks included
FIXTURE_PLOGS = {BENCH: TRAIN, GRIPPER: ("p01", "p05", "p06"),
                 COURIER: ("p01", "p03", "p05")}


def without_seconds(value):
    """A JSON report without its `*_seconds` timings, at any depth."""
    if isinstance(value, dict):
        return {k: without_seconds(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [without_seconds(v) for v in value]
    return value


@pytest.fixture(scope="session")
def bench_dir():
    return BENCH


@pytest.fixture(scope="session")
def domain():
    return parse_domain((BENCH / "domain.pddl").read_text())


@pytest.fixture(scope="session")
def load():
    """(directory, stem) -> (domain, problem, ground task), each built once."""
    domains, cache = {}, {}

    def build(directory, name):
        if directory not in domains:
            domains[directory] = parse_domain((directory / "domain.pddl").read_text())
        if (directory, name) not in cache:
            domain = domains[directory]
            problem = parse_problem((directory / f"{name}.pddl").read_text(), domain)
            cache[directory, name] = (domain, problem, ground_task(domain, problem))
        return cache[directory, name]

    return build


@pytest.fixture(scope="session")
def make_task(load):
    return lambda name: load(BENCH, name)[2]


@pytest.fixture(scope="session")
def train_lggs(make_task):
    return [extract_lgg(make_task(name)) for name in TRAIN]


@pytest.fixture(scope="session")
def plog(train_lggs, domain):
    return learn_plog(train_lggs, domain=domain.name)


@pytest.fixture(scope="session")
def corpus_names():
    return CORPUS


# --- reference helpers ------------------------------------------------------


class VarConstraintStore:
    """The paper's distinct-value constraints per variable, for one task
    run: the objects and the variables each variable must differ from.
    The references keep both halves in one store that both sides share;
    each `SideState` keeps only the object half of its own variables."""

    def __init__(self):
        self._objects: dict[str, frozenset[str]] = {}
        self._variables: dict[str, frozenset[str]] = {}

    def forbidden_objects(self, var: str) -> frozenset[str]:
        return self._objects.get(var, frozenset())

    def forbidden_variables(self, var: str) -> frozenset[str]:
        return self._variables.get(var, frozenset())


def equivalent_params(x, y, store):
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


def equivalent_atoms(a, b, store):
    """The paper's equivalence: same predicate, same arity, parameters
    pairwise equivalent."""
    if a.pred != b.pred or a.arity != b.arity:
        return False
    return all(equivalent_params(x, y, store) for x, y in zip(a.args, b.args))


def param_distance(a, b):
    """Number of positions where exactly one of the two atoms has a variable."""
    return sum(1 for x, y in zip(a.args, b.args) if is_variable(x) != is_variable(y))


def reached(items, levels):
    """`explore`'s levels keyed by the items they number, unreached ones left out."""
    return {item: level for item, level in zip(items, levels) if level >= 0}


def relaxed_exploration(init, actions):
    """`explore` over atoms and `GroundAction`s: the first level at which
    each fact holds / each action applies when deletes are ignored.  Facts
    and actions missing from the result are unreachable."""
    actions = list(actions)
    ids = {}
    init_ids = [ids.setdefault(f, len(ids)) for f in init]
    pre = [[ids.setdefault(p, len(ids)) for p in a.pre] for a in actions]
    add = [[ids.setdefault(f, len(ids)) for f in a.add] for a in actions]
    consumers = [[] for _ in ids]
    for a, facts in enumerate(pre):
        for f in facts:
            consumers[f].append(a)
    fact_level, action_level = explore(init_ids, pre, add, consumers)
    return reached(ids, fact_level), reached(actions, action_level)


def reference_extract_lgg(task):
    """`extract_lgg` with the brute-force oracle deciding every candidate:
    back-chain from the goal through the atoms, other than the landmark,
    shared by the preconditions of all first achievers of each landmark
    outside init (achievers applicable strictly before it first holds in
    the relaxation)."""
    index = task.index
    verdicts = {}
    vertices, edges = set(task.goal), set()
    queue = deque(task.goal)
    while queue:
        lm = queue.popleft()
        f = index.ids[lm]
        firsts = [set(index.pre[a]) for a in index.achievers[f]
                  if index.action_level[a] < index.fact_level[f]]
        if lm in task.init or not firsts:
            continue
        for c in set.intersection(*firsts) - {f}:
            cand = index.atoms[c]
            if cand not in verdicts:
                verdicts[cand] = is_landmark_oracle(task, cand).is_landmark
            if verdicts[cand]:
                edges.add((cand, lm))
                if cand not in vertices:
                    vertices.add(cand)
                    queue.append(cand)
    return LGG(task=task.name, vertices=frozenset(vertices), edges=frozenset(edges))


def reference_tokens(text):
    """(text, line, column) of each token of `text`, read a line at a time:
    a line ends at ``\\n``, a ``;`` comment runs to the end of its line, and
    each token is lower-cased on its own."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        for m in re.finditer(r"\(|\)|[^()\s;]+", line.split(";", 1)[0]):
            yield m.group(0).lower(), lineno, m.start() + 1


def reference_ground_task(domain, problem):
    """`ground_task` written row by row: a fact id is handed out the first
    time a substitution grounds an atom to it, with the schemas in name
    order, each schema's atoms in sorted pre, add, delete order and each
    atom's substitutions in product order, and every table is a plain scan.
    Its task's `actions` are the reference's own, not a view of the index."""
    objects = {**domain.constants, **problem.objects}
    ids = {}
    for atom in chain(problem.init, problem.goal):
        ids.setdefault(atom, len(ids))
    names, combos, pres, adds, deletes = [], [], [], [], []
    for schema in sorted(domain.schemas.values(), key=lambda s: s.name):
        pools = [sorted(o for o, t in objects.items() if domain.is_subtype(t, ptype))
                 for _, ptype in schema.params]
        bindings = [dict(zip([v for v, _ in schema.params], row)) for row in product(*pools)]
        columns = [[[ids.setdefault(atom.substitute(b), len(ids)) for b in bindings]
                    for atom in sorted(atoms)]
                   for atoms in (schema.pre, schema.add, schema.delete)]
        for r, b in enumerate(bindings):
            pre, add, delete = ([col[r] for col in part] for part in columns)
            if set(add) & set(delete):
                continue
            names.append(schema.name)
            combos.append(tuple(b[v] for v, _ in schema.params))
            for table, row in zip((pres, adds, deletes), (pre, add, delete)):
                table.append(tuple(dict.fromkeys(row)))
    init = tuple(ids[a] for a in problem.init)
    goal = tuple(ids[a] for a in problem.goal)

    def by_fact(tables):
        return [[a for a, row in enumerate(tables) if f in row] for f in range(len(ids))]

    fact_level, action_level = explore(init, pres, adds, by_fact(pres))
    kept = [a for a, level in enumerate(action_level) if level >= 0]
    pres, adds, deletes, names, combos, action_level = (
        [table[a] for a in kept]
        for table in (pres, adds, deletes, names, combos, action_level))
    atoms = tuple(ids)
    facts = {f for f, level in enumerate(fact_level) if level >= 0}
    facts.update(goal, *deletes)
    index = SimpleNamespace(atoms=atoms, ids=ids, init=init, goal=goal, pre=pres, add=adds,
                            consumers=by_fact(pres), achievers=by_fact(adds),
                            fact_level=fact_level, action_level=action_level)
    task = GroundTask(name=problem.name, facts=frozenset(atoms[f] for f in facts),
                      init=frozenset(problem.init), goal=frozenset(problem.goal), index=index)
    task.actions = tuple(GroundAction(name, args, *(frozenset(atoms[f] for f in row)
                                                    for row in (pre, add, delete)))
                         for name, args, pre, add, delete
                         in zip(names, combos, pres, adds, deletes))
    return task


# every table of a `TaskIndex`, by name: its fields but `schemas`, which only
# the action view reads, and its cached property `achievers`
INDEX_TABLES = ([f.name for f in fields(TaskIndex) if f.name != "schemas"]
                + [name for name, value in vars(TaskIndex).items()
                   if isinstance(value, cached_property)])


def assert_grounds_as_the_reference(domain, problem):
    """`ground_task` gives the reference's task and index, table for table,
    with the fact ids handed out in the same order, and its actions."""
    task, reference = ground_task(domain, problem), reference_ground_task(domain, problem)
    assert task == reference
    assert list(task.index.ids.items()) == list(reference.index.ids.items())
    assert sorted(INDEX_TABLES) == sorted(vars(reference.index))
    for name in INDEX_TABLES:
        assert getattr(task.index, name) == getattr(reference.index, name), name

    def rows(actions):
        return [(a.name, a.args, a.pre, a.add, a.delete) for a in actions]

    assert rows(task.actions) == rows(reference.actions)


@st.composite
def blocksworld_problems(draw):
    """PDDL text of a blocksworld task over 3-9 blocks: random initial
    towers, and either every `on` atom of random goal towers or one atom."""
    blocks = [f"b{i}" for i in range(draw(st.integers(3, 9)))]

    def towers():
        order = draw(st.permutations(blocks))
        # at most len - 2 cuts leave one tower of two blocks or more
        cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1), max_size=len(order) - 2)))
        return [order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(order)])]

    init = ["(handempty)"]
    for tower in towers():
        init += [f"(ontable {tower[0]})", f"(clear {tower[-1]})"]
        init += [f"(on {upper} {lower})" for lower, upper in zip(tower, tower[1:])]
    if draw(st.booleans()):
        goal = [f"(on {upper} {lower})" for tower in towers()
                for lower, upper in zip(tower, tower[1:])]
    else:
        x, y = draw(st.lists(st.sampled_from(blocks), min_size=2, max_size=2, unique=True))
        goal = [draw(st.sampled_from([f"(on {x} {y})", f"(ontable {x})", f"(clear {x})",
                                      f"(holding {x})", "(handempty)"]))]
    return (f"(define (problem drawn) (:domain blocksworld) "
            f"(:objects {' '.join(blocks)} - block) (:init {' '.join(init)}) "
            f"(:goal (and {' '.join(goal)})))")


@st.composite
def courier_problems(draw):
    """PDDL text of a courier task: a one-way ring of 3-6 places with up
    to three one-way shortcuts, one or two empty vans, one to three
    waiting parcels, and some of the parcels, and maybe a van, to be at
    drawn places.  The shortcuts give a van more than one way round, which
    leaves verdicts that neither back-chaining rule settles."""
    xs = [f"x{i}" for i in range(draw(st.integers(3, 6)))]
    shortcuts = st.tuples(st.sampled_from(xs), st.sampled_from(xs)).filter(lambda r: r[0] != r[1])
    roads = {*zip(xs, xs[1:] + xs[:1]), *draw(st.lists(shortcuts, max_size=3))}
    vans = [f"v{i}" for i in range(draw(st.integers(1, 2)))]
    parcels = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    place = st.sampled_from(xs)
    init = [f"(road {x} {y})" for x, y in sorted(roads)]
    init += [f"(at {v} {draw(place)}) (empty {v})" for v in vans]
    init += [f"(waiting {q} {draw(place)})" for q in parcels]
    moved = draw(st.lists(st.sampled_from(parcels), min_size=1, unique=True))
    goal = [f"(waiting {q} {draw(place)})" for q in moved]
    if draw(st.booleans()):
        goal.append(f"(at {draw(st.sampled_from(vans))} {draw(place)})")
    return (f"(define (problem drawn) (:domain courier) (:objects {' '.join(xs)} - place "
            f"{' '.join(vans)} - van {' '.join(parcels)} - parcel) (:init {' '.join(init)}) "
            f"(:goal (and {' '.join(goal)})))")


# --- reference graph forms --------------------------------------------------
# What generation keeps in each `SideState` and what `combine` hands back,
# derived from scratch from a side's adjacency.


@dataclass
class SideGraph:
    """One side as a literal graph: `nodes` maps each atom to its
    neighbours with edge probabilities, predecessors on the goal side and
    successors on the init side."""

    nodes: dict
    side: str
    store: VarConstraintStore
    domain: str = ""


def bucket_key(node):
    """Predicate, arity, object positions and the objects there."""
    fixed = tuple(i for i, p in enumerate(node.args) if not is_variable(p))
    return node.pred, node.arity, fixed, tuple(node.args[i] for i in fixed)


def _best_incident_prob(nodes):
    """Each node's best incident probability in the adjacency `nodes`."""
    best = {}
    for node, neighbours in nodes.items():
        for neighbour, mu in neighbours.items():
            best[node] = max(best.get(node, 0.0), mu)
            best[neighbour] = max(best.get(neighbour, 0.0), mu)
    return best


def _directed_edges(nodes, side):
    """The (source, destination) edges of the adjacency `nodes` of `side`:
    successors on the init side, predecessors otherwise."""
    edges = {}
    for node, neighbours in nodes.items():
        for neighbour, mu in neighbours.items():
            edge = (node, neighbour) if side == SIDE_INIT else (neighbour, node)
            edges[edge] = max(mu, edges.get(edge, 0.0))
    return edges


def _union(goal_side, init_side):
    """The predecessor-oriented union of a goal and an init side's adjacency."""
    nodes = {}

    def ensure(atom):
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
    return nodes


def graph_of(nodes, side, domain=""):
    """The `PLgg` of the adjacency `nodes` of `side`, predecessor-oriented
    when combined: every end of an edge is a node, flagged ground when no
    argument is a variable."""
    every = dict.fromkeys(nodes) | dict.fromkeys(a for ns in nodes.values() for a in ns)
    return PLgg(edges=_directed_edges(nodes, side), nodes={a: a.is_ground for a in every},
                side=side, domain=domain)


def combined_graph(goal_side, init_side):
    """What `combine` hands back for its two final sides: `_union`, then
    `graph_of` the union."""
    return graph_of(_union(goal_side, init_side), SIDE_COMBINED,
                    goal_side.domain or init_side.domain)


def side_state(graph):
    """A `SideState` of a copy of the literal side `graph`, its kept state
    derived from scratch: each node's best incident probability, the
    lifted nodes filed by `bucket_key`, each bucket by (-best, node), and
    the forbidden objects of the store's variables."""
    state = SideState(graph.side, graph.domain)
    state.forbidden = dict(graph.store._objects)
    state.nodes = {node: dict(neighbours) for node, neighbours in graph.nodes.items()}
    state.best = _best_incident_prob(state.nodes)
    for node in state.nodes:
        if not node.is_ground:
            state.buckets.setdefault(bucket_key(node), []).append(node)
    for members in state.buckets.values():
        members.sort(key=lambda n: (-state.best.get(n, 0.0), n))
    return state


# --- reference generation ---------------------------------------------------
# Generation as it was before each p-LOG compiled its edges once: every
# expansion renames each learned edge afresh and constrains each neighbour
# against the expanded atom on its own.


def update_distinct_consts(store, pred, lm):
    """Record that `pred`'s open variables differ from everything in `lm`.

    Every variable of `pred` that does not itself occur in `lm` must take a
    value distinct from all of `lm`'s parameters, so `lm`'s objects join
    its forbidden objects and `lm`'s variables its forbidden variables.
    """
    lm_params = set(lm.args)
    for var in sorted(pred.variables()):
        if var in lm_params:
            continue
        store._objects[var] = store.forbidden_objects(var) | lm.objects()
        store._variables[var] = store.forbidden_variables(var) | lm.variables()


def fresh_name(source):
    """The next name `source` hands out."""
    return source.take(1, (0,))[0]


def fresh_variables(edge, source):
    """Rename the edge's variables to fresh ones, keeping co-references."""
    mapping = {}
    for p in edge.dst.args + edge.src.args:
        if is_variable(p) and p not in mapping:
            mapping[p] = fresh_name(source)
    return LiftedEdge(src=edge.src.substitute(mapping), dst=edge.dst.substitute(mapping))


def renamed_shape(atom):
    """`atom` with its variables numbered by first appearance."""
    numbers = {}
    return atom.pred, tuple(numbers.setdefault(p, len(numbers)) if is_variable(p) else p
                            for p in atom.args)


def reference_generate(plog, task, side, source, store):
    """One side grown breadth-first from its seeds, each atom expanded at
    most once up to variable renaming: every learned edge whose start
    lifts like the atom is renamed afresh, its start unified with the atom,
    and the other end constrained by `update_distinct_consts`."""
    backward = side == SIDE_GOAL
    seeds, blocked = (task.goal, task.init) if backward else (task.init, task.goal)
    index = {}
    for edge in sorted(plog.probs):
        index.setdefault(lift_atom(edge.dst if backward else edge.src), []).append(edge)
    nodes, expanded = {}, set()
    queue = deque(sorted(seeds))
    while queue:
        lm = queue.popleft()
        if renamed_shape(lm) in expanded:
            continue
        expanded.add(renamed_shape(lm))
        nodes.setdefault(lm, {})
        if not lm.objects() or lm in blocked:
            continue
        for edge in index.get(lift_atom(lm), ()):
            renamed = fresh_variables(edge, source)
            start, other = (renamed.dst, renamed.src) if backward else (renamed.src, renamed.dst)
            neighbour = other.substitute(dict(zip(start.args, lm.args)))
            update_distinct_consts(store, neighbour, lm)
            nodes.setdefault(neighbour, {})
            nodes[lm][neighbour] = max(plog.probs[edge], nodes[lm].get(neighbour, 0.0))
            if neighbour.objects() and renamed_shape(neighbour) not in expanded:
                queue.append(neighbour)
    return SideGraph(nodes=nodes, side=side, store=store, domain=plog.domain)


# --- reference instantiation ------------------------------------------------
# Instantiation as it was before each side kept its state across passes:
# every pass ranks the whole side again and rewrites a copy of it.  The
# equivalence search and the dropped-binding warning are the module's, so
# that tests can count both versions' calls alike.


def reference_rank(plgg):
    """The side's lifted nodes ranked from scratch, by higher best incident
    probability, then lexicographically, each filed with its rank under its
    predicate, arity, object positions and the objects there."""
    best = _best_incident_prob(plgg.nodes)
    lifted = sorted((node for node in plgg.nodes if not node.is_ground),
                    key=lambda n: (-best.get(n, 0.0), n))
    buckets = {}
    for rank, node in enumerate(lifted):
        buckets.setdefault(bucket_key(node), []).append((rank, node))
    return buckets


def reference_rewrite(plgg, bindings):
    safe = {}
    for var, obj in sorted(bindings.items()):
        if obj in plgg.store.forbidden_objects(var):
            instantiate.logger.warning(
                "binding %s -> %s violates a distinct-value constraint; skipped", var, obj)
            continue
        safe[var] = obj
    nodes = {node: dict(neighbours) for node, neighbours in plgg.nodes.items()}
    for lifted, neighbours in plgg.nodes.items():
        if lifted.is_ground:
            continue
        inst = lifted.substitute(safe)
        if inst == lifted:
            continue
        bucket = nodes.setdefault(inst, {})
        for neighbour, mu in neighbours.items():
            rewritten = neighbour.substitute(safe)
            bucket[rewritten] = max(mu, bucket.get(rewritten, 0.0))
    return SideGraph(nodes=nodes, side=plgg.side, store=plgg.store, domain=plgg.domain)


def reference_search(buckets, lm, store, top_n):
    """Bindings from the `top_n` best ranked closest equivalents of the
    ground landmark `lm`: every bucket of `lm`'s objects, read whole, from
    the fewest variable positions upward."""
    positions = range(lm.arity)
    for count in range(1, lm.arity + 1):
        found = sorted(entry for fixed in combinations(positions, lm.arity - count)
                       for entry in buckets.get((lm.pred, lm.arity, fixed,
                                                 tuple(lm.args[i] for i in fixed)), ())
                       if equivalent_atoms(entry[1], lm, store))
        if found:
            break
    else:
        return {}
    bindings = {}
    for _, node in found[:top_n]:
        for var, obj in zip(node.args, lm.args):
            if is_variable(var):
                bindings.setdefault(var, obj)
    return bindings


def reference_instantiation(plgg, lms, top_n=1):
    buckets = reference_rank(plgg)
    var_inst = {}
    for lm in sorted(lms):
        for var, obj in reference_search(buckets, lm, plgg.store, top_n).items():
            var_inst.setdefault(var, obj)
    return reference_rewrite(plgg, var_inst)


def reference_combine(goal_side, init_side, task, top_n=1):
    lms_init, lms_goal = set(task.init), set(task.goal)
    known = lms_init | lms_goal
    while True:
        init_side = reference_instantiation(init_side, lms_goal, top_n)
        lms_init |= {n for n in init_side.nodes if n.is_ground and n in task.facts}
        goal_side = reference_instantiation(goal_side, lms_init, top_n)
        lms_goal |= {n for n in goal_side.nodes if n.is_ground and n in task.facts}
        grown = known | lms_init | lms_goal
        if grown == known:
            return combined_graph(goal_side, init_side)
        known = grown


def instantiation_passes(run):
    """`run()`'s result, and the side and the landmarks of each pass of
    `plgg.instantiate.instantiation` it made, in order."""
    passes = []
    original = instantiate.instantiation

    def record(state, lms, top_n=1):
        passes.append((state.side, frozenset(lms)))
        return original(state, lms, top_n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instantiate, "instantiation", record)
        return run(), passes


def assert_monotone_fixpoint(passes, task, message=None):
    """`combine` made at most one round per task fact, each round one
    init-side pass, and each side's passes read ever more landmarks."""
    assert sum(side == SIDE_INIT for side, _ in passes) <= len(task.facts), message
    for side in (SIDE_INIT, SIDE_GOAL):
        read = [lms for s, lms in passes if s == side]
        for before, after in zip(read, read[1:]):
            assert before <= after, message


def reference_instantiate_task(plog, task, top_n=1):
    source, store = VarSource(), VarConstraintStore()
    goal_side = reference_generate(plog, task, SIDE_GOAL, source, store)
    init_side = reference_generate(plog, task, SIDE_INIT, source, store)
    return reference_combine(goal_side, init_side, task, top_n)


# --- reference scoring ------------------------------------------------------
# Scoring as it was before the missed items were filed under bucket keys:
# every missed item scans every lifted extra with the paper's equivalence
# against an empty constraint store, and each equivalent extra earns the
# paper's likelihood.


def reference_score_facet(reference, grounded, lifted, equivalent, likelihood):
    hits = len(reference & grounded)
    prf = _prf(hits, len(grounded), len(reference))
    missed = reference - grounded - lifted
    extras = sorted(lifted - reference)
    total = 0.0
    for item in sorted(missed):
        values = [likelihood(c, item) for c in extras if equivalent(c, item)]
        if values:
            total += sum(values) / len(values)
    alpha = total / len(missed) if missed else 0.0
    folded = alpha_prf(prf, alpha)
    return {"precision": prf.precision, "recall": prf.recall, "f1": prf.f1,
            "alpha": alpha, "alpha_precision": folded.precision,
            "alpha_recall": folded.recall, "alpha_f1": folded.f1,
            "hits": hits, "misses": len(reference) - hits, "extras": len(grounded) - hits}


def reference_compare(reference, content):
    """`compare` by the missed x extras scan."""
    store = VarConstraintStore()

    def atoms(a, b):
        return equivalent_atoms(a, b, store)

    def edges(a, b):
        return atoms(a[0], b[0]) and atoms(a[1], b[1])

    def likelihood_atom(lifted, _):
        return 1.0 / (1 + len(lifted.variables()))

    def likelihood_edge(lifted, _):
        return (likelihood_atom(lifted[0], None) + likelihood_atom(lifted[1], None)) / 2

    grounded_edges = set(content.orderings_grounded())
    return {
        "landmarks": reference_score_facet(set(reference.vertices), content.landmarks_grounded,
                                           content.landmarks_lifted, atoms, likelihood_atom),
        "orderings": reference_score_facet(set(reference.edges), grounded_edges,
                                           content.orderings.keys() - grounded_edges,
                                           edges, likelihood_edge),
    }
