from pathlib import Path

import pytest

from plgg.pddl import ground_task, parse_domain, parse_problem
from plgg.lgg import extract_lgg
from plgg.plog import learn_plog

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "blocksworld"
TRAIN = ("p01", "p02", "p03", "p04")
CORPUS = sorted(p.stem for p in BENCH.glob("p*.pddl"))


@pytest.fixture(scope="session")
def bench_dir():
    return BENCH


@pytest.fixture(scope="session")
def domain():
    return parse_domain((BENCH / "domain.pddl").read_text())


@pytest.fixture(scope="session")
def make_task(domain):
    cache = {}

    def build(name):
        if name not in cache:
            problem = parse_problem((BENCH / f"{name}.pddl").read_text(), domain)
            cache[name] = ground_task(domain, problem)
        return cache[name]

    return build


@pytest.fixture(scope="session")
def train_lggs(make_task):
    return [extract_lgg(make_task(name)) for name in TRAIN]


@pytest.fixture(scope="session")
def plog(train_lggs, domain):
    return learn_plog(train_lggs, domain=domain.name)


@pytest.fixture(scope="session")
def corpus_names():
    return CORPUS
