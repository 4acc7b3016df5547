from pathlib import Path

import pytest

from plgg.pddl import explore, ground_task, is_variable, parse_domain, parse_problem
from plgg.lgg import extract_lgg
from plgg.plog import learn_plog

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
