"""The benchmark's workloads: their inputs, one operation each, and checks.

Every operation is what one CLI command does for one input, called in
process through the program's module attributes (so a traced run sees
the calls).  Outputs are checked against references kept in
``references/``, which were written by ``make_references.py`` at the
commit that introduced the benchmark.

Generated tasks come from a fixed pool of ``POOL`` tasks per rung, which
is what makes fixed references possible; the run's ``--seed`` picks
``per_rung`` of them on every rung and the order they run in.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import plgg.cli
import plgg.instantiate as instantiate
import plgg.lgg as lgg
import plgg.plog as plog
import plgg.pddl as pddl

from taskgen import generate_task

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "benchmarks" / "blocksworld"
REFERENCES = HERE / "references"
POOL = 16
TRAIN = ("p01", "p02", "p03", "p04")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "evaluate", "extract" or "instantiate"
    density: str | None = None  # goal density of generated tasks
    rungs: tuple[int, ...] = ()
    per_rung: int = 0           # tasks per rung in one pass


# Each ladder has three rungs of equal size, so that the median operation
# falls in the middle rung; with an even number of rungs it falls in the
# gap between two, where one slow operation moves it by half that gap.
WORKLOADS = {w.name: w for w in [
    Workload("corpus-evaluate", "evaluate"),
    Workload("ladder-extract", "extract", "tower", (20, 25, 30), 12),
    Workload("ladder-instantiate", "instantiate", "tower", (15, 25, 35), 10),
    Workload("sparse-extract", "extract", "single", (30, 40, 50), 12),
]}


@dataclass
class Op:
    label: str
    run: Callable[[], tuple]


@dataclass
class Prepared:
    """Everything a run needs once set-up is over: the operations of one
    pass, in order, and the check for an operation's output."""

    ops: list[Op]
    check: Callable[[str, tuple], tuple[bool, float, float]]


def selection(workload: Workload, seed: int | None) -> list[tuple[int, int]]:
    """(blocks, pool index) of every task in a pass; the whole pool when
    `seed` is None."""
    rng = random.Random(seed)
    picked = []
    for blocks in workload.rungs:
        indices = range(POOL) if seed is None else rng.sample(range(POOL), workload.per_rung)
        picked.extend((blocks, i) for i in indices)
    return picked


def task_name(workload: Workload, blocks: int, index: int) -> str:
    return f"{workload.density}-{blocks}-{index}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def atom_key(atom: pddl.Atom) -> str:
    return " ".join((atom.pred,) + atom.args)


def f1(predicted: set, reference: set) -> float:
    """Classical F1; an empty prediction of an empty reference scores 1."""
    if not predicted and not reference:
        return 1.0
    hits = len(predicted & reference)
    return 2 * hits / (len(predicted) + len(reference))


def graph_payload(vertices, edges) -> dict:
    """Reference graph in the form the references store."""
    table = sorted(atom_key(v) for v in vertices)
    index = {key: i for i, key in enumerate(table)}
    return {"vertices": table,
            "edges": sorted([index[atom_key(s)], index[atom_key(d)]] for s, d in edges)}


def strip_seconds(value):
    """The payload without its timing fields, which differ run to run."""
    if isinstance(value, dict):
        return {k: strip_seconds(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [strip_seconds(v) for v in value]
    return value


def reference_path(workload: Workload) -> Path:
    """The corpus golden output is plain JSON; the generated workloads'
    references, a graph per pool task, are gzipped."""
    suffix = ".json" if workload.kind == "evaluate" else ".json.gz"
    return REFERENCES / f"{workload.name}{suffix}"


def load_references(workload: Workload) -> dict:
    data = reference_path(workload).read_bytes()
    return json.loads(gzip.decompress(data) if workload.kind != "evaluate" else data)


# --- corpus-evaluate ------------------------------------------------------------


def evaluate_argv() -> list[str]:
    """`plgg evaluate --json` on the shipped corpus with every default:
    4/10 split, 5 repetitions, seed 0, oracle baseline on."""
    problems = sorted(str(p) for p in CORPUS.glob("p*.pddl"))
    return ["evaluate", str(CORPUS / "domain.pddl"), *problems, "--json"]


def run_evaluate(argv: list[str]) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = plgg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"plgg evaluate exited with {code}")
    return (strip_seconds(json.loads(out.getvalue())),)


def _prepare_evaluate(workload: Workload, seed: int | None) -> Prepared:
    golden = load_references(workload)
    argv = evaluate_argv()

    def check(label: str, output: tuple) -> tuple[bool, float, float]:
        (payload,) = output
        overall = payload["overall"]
        return (payload == golden, overall["landmarks"]["f1"], overall["orderings"]["f1"])

    return Prepared([Op("corpus", lambda: run_evaluate(argv))], check)


# --- generated ladders ------------------------------------------------------------


def learned_plog_text(domain: pddl.Domain) -> str:
    """The p-LOG learned from corpus p01-p04, as `plgg learn` writes it."""
    graphs = []
    for name in TRAIN:
        problem = pddl.parse_problem((CORPUS / f"{name}.pddl").read_text(), domain)
        graphs.append(lgg.extract_lgg(pddl.ground_task(domain, problem)))
    return plog.plog_to_json(plog.learn_plog(graphs, domain=domain.name))


def extract_op(domain: pddl.Domain, text: str) -> Callable[[], tuple]:
    """What `plgg extract` does for one task."""
    def run() -> tuple:
        task = pddl.ground_task(domain, pddl.parse_problem(text, domain))
        graph = lgg.extract_lgg(task)
        return lgg.lgg_to_json(graph), graph.vertices, graph.edges
    return run


def instantiate_op(domain: pddl.Domain, plog_text: str, text: str) -> Callable[[], tuple]:
    """What `plgg instantiate` does for one task, with its defaults
    (top-n 1, threshold 0)."""
    def run() -> tuple:
        learned = plog.plog_from_json(plog_text)
        task = pddl.ground_task(domain, pddl.parse_problem(text, domain))
        graph = instantiate.instantiate_task(learned, task)
        content = instantiate.extract_result(graph, threshold=0.0)
        return (instantiate.plgg_to_json(graph), content.landmarks_grounded,
                content.orderings_grounded())
    return run


def _prepare_ladder(workload: Workload, seed: int | None) -> Prepared:
    domain = pddl.parse_domain((CORPUS / "domain.pddl").read_text())
    plog_text = learned_plog_text(domain) if workload.kind == "instantiate" else None
    references = load_references(workload)["tasks"]
    ops, expected = [], {}
    for blocks, index in selection(workload, seed):
        name = task_name(workload, blocks, index)
        text = generate_task(blocks, index, workload.density)
        run = (instantiate_op(domain, plog_text, text) if plog_text is not None
               else extract_op(domain, text))
        ops.append(Op(name, run))
        ref = references[name]
        table = ref["vertices"]
        expected[name] = (ref["digest"], set(table),
                          {(table[s], table[d]) for s, d in ref["edges"]})

    def check(label: str, output: tuple) -> tuple[bool, float, float]:
        text, vertices, edges = output
        want_digest, want_vertices, want_edges = expected[label]
        return (digest(text) == want_digest,
                f1({atom_key(v) for v in vertices}, want_vertices),
                f1({(atom_key(s), atom_key(d)) for s, d in edges}, want_edges))

    return Prepared(ops, check)


def prepare(workload: Workload, seed: int | None) -> Prepared:
    """Set-up of one run: parse, generate, learn, load references."""
    if workload.kind == "evaluate":
        return _prepare_evaluate(workload, seed)
    return _prepare_ladder(workload, seed)
