"""Lifting landmark graphs and learning ordering probabilities across tasks.

Each ground landmark L of an LGG roots a local ordering graph (LOG): the
lifted L plus its lifted in-edges.  Learning takes two counts over the LOGs
of many tasks in one pass over each LGG's edges: how many LOGs hold each
lifted edge, and how many are rooted at each lifted atom.  An edge's count
divided by its destination's becomes its ordering probability.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from . import artifact
from .pddl import Atom, read_file
from .lgg import LGG


class VocabularyError(Exception):
    """Lifted inputs disagree on predicates or carry inconsistent counts."""


class LiftedEdge(NamedTuple):
    """A lifted ordering src -> dst; variable names are shared across both
    atoms, numbered by first occurrence scanning dst's params then src's."""

    src: Atom
    dst: Atom


def lift_atom(atom: Atom) -> Atom:
    """Canonical lifted form: parameters become ?x0, ?x1, ... by first
    occurrence; repeated parameters share a variable."""
    mapping: dict[str, str] = {}
    for p in atom.args:
        mapping.setdefault(p, f"?x{len(mapping)}")
    return Atom(atom.pred, tuple(mapping[p] for p in atom.args))


def lift_edge(src: Atom, dst: Atom) -> LiftedEdge:
    """Jointly lift an ordering, preserving co-references between the atoms."""
    mapping: dict[str, str] = {}
    for p in dst.args + src.args:
        mapping.setdefault(p, f"?x{len(mapping)}")
    return LiftedEdge(src=Atom(src.pred, tuple(mapping[p] for p in src.args)),
                      dst=Atom(dst.pred, tuple(mapping[p] for p in dst.args)))


@dataclass
class PLog:
    """A weighted lifted ordering graph with edge probabilities.

    edge_counts[e] is the number of LOGs holding the lifted in-edge e, at
    most once per LOG; log_counts[v] is the number of LOGs rooted at the
    lifted atom v.  Construction checks that the counts agree with each
    other and derives probs[e] = edge_counts[e] / log_counts[e.dst].
    """

    edge_counts: Counter
    log_counts: Counter
    domain: str = ""
    probs: dict[LiftedEdge, float] = field(init=False)
    # Tables that readers derive from the graph, each computed once per
    # graph under its reader's key; a PLog does not change once built.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arity: dict[str, int] = {}
        for atom in self.atoms:
            before = arity.setdefault(atom.pred, atom.arity)
            if before != atom.arity:
                raise VocabularyError(
                    f"predicate {atom.pred} appears with arities {before} and {atom.arity}")
        self.probs = {}
        for edge, n in self.edge_counts.items():
            n_graph = self.log_counts.get(edge.dst, 0)
            if n_graph == 0:
                raise VocabularyError(f"no graphs recorded for {edge.dst}, "
                                      f"yet edge {edge.src} -> {edge.dst} was counted")
            if n > n_graph:
                raise VocabularyError(f"edge {edge.src} -> {edge.dst} counted {n} times "
                                      f"but only {n_graph} graphs exist for {edge.dst}")
            self.probs[edge] = n / n_graph

    @property
    def vertices(self) -> set[Atom]:
        """The roots: every vertex of a learned graph roots one LOG."""
        return set(self.log_counts)

    @property
    def atoms(self) -> set[Atom]:
        """Every atom the graph holds: roots and both ends of every edge."""
        return self.vertices | {a for e in self.edge_counts for a in (e.src, e.dst)}


def learn_plog(lggs: Iterable[LGG], domain: str = "") -> PLog:
    """Pool the LOGs of every task's LGG and normalise.

    Each vertex L of an LGG roots one LOG: the lifted L and the lifted
    in-edges of L.  One pass over an LGG's edges groups them by
    destination, so an edge that lifts to the same pattern twice within
    one LOG is counted once.
    """
    edge_counts: Counter = Counter()
    log_counts: Counter = Counter()
    for lgg in lggs:
        log_counts.update(lift_atom(v) for v in lgg.vertices)
        in_edges: dict[Atom, set[LiftedEdge]] = defaultdict(set)
        for src, dst in lgg.edges:
            in_edges[dst].add(lift_edge(src, dst))
        for edges in in_edges.values():
            edge_counts.update(edges)
    return PLog(edge_counts, log_counts, domain)


# --- serialization ----------------------------------------------------------


# Counts are positive, and each edge or root appears once.
SCHEMA = artifact.Schema(
    domain=artifact.string,
    edges=artifact.records({"src": artifact.vertex, "dst": artifact.vertex,
                            "n": artifact.positive_int, "mu": artifact.probability},
                           unique=("src", "dst")),
    log_counts=artifact.records({"vertex": artifact.vertex, "n_graph": artifact.positive_int},
                                unique=("vertex",)))


def plog_to_json(plog: PLog) -> str:
    table, index = artifact.atom_table(plog.atoms)
    return artifact.write_artifact(
        SCHEMA, domain=plog.domain, vertices=table,
        edges=[(index[e.src], index[e.dst], n, plog.probs[e])
               for e, n in sorted(plog.edge_counts.items())],
        log_counts=[(index[v], n) for v, n in sorted(plog.log_counts.items())])


def plog_from_json(text: str) -> PLog:
    """Read a p-LOG.  Probabilities are recomputed from the counts, not
    taken from the file."""
    data = artifact.read_artifact(text, SCHEMA)
    log_counts = Counter(dict(data["log_counts"]))
    edge_counts = Counter({LiftedEdge(src, dst): n for src, dst, n, _ in data["edges"]})
    return PLog(edge_counts, log_counts, data["domain"])


def write_plog(plog: PLog, path: str | Path) -> None:
    Path(path).write_text(plog_to_json(plog))


def read_plog(path: str | Path) -> PLog:
    return read_file(path, plog_from_json)


def plog_to_dot(plog: PLog) -> str:
    """Graphviz rendering with probability-labelled edges."""
    table, index = artifact.atom_table(plog.atoms)
    edges = sorted((index[e.src], index[e.dst], mu) for e, mu in plog.probs.items())
    return artifact.write_dot("plog", table, lambda atom: True, edges)
