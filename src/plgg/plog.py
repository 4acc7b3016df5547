"""Lifting landmark graphs and learning ordering probabilities across tasks.

Each ground landmark L of an LGG yields a local ordering graph (LOG): the
lifted L plus its lifted in-edges.  Pooling the LOGs of many tasks gives a
weighted graph whose edge counts, divided by the number of LOGs rooted at
the edge's destination, become ordering probabilities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from . import artifact
from .pddl import Atom, read_text
from .lgg import LGG


class VocabularyError(Exception):
    """Lifted inputs disagree on predicates or carry inconsistent counts."""


@dataclass(frozen=True, order=True)
class LiftedEdge:
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


@dataclass(frozen=True)
class Log:
    """The local ordering graph of one ground landmark, lifted."""

    root: Atom
    vertices: frozenset[Atom]
    edges: frozenset[LiftedEdge]


def build_log(lgg: LGG, landmark: Atom) -> Log:
    if landmark not in lgg.vertices:
        raise ValueError(f"{landmark} is not a vertex of the graph for {lgg.task}")
    root = lift_atom(landmark)
    in_edges = frozenset(lift_edge(s, d) for s, d in lgg.edges if d == landmark)
    vertices = frozenset({root} | {lift_atom(s) for s, d in lgg.edges if d == landmark})
    return Log(root=root, vertices=vertices, edges=in_edges)


@dataclass
class WLog:
    """Union of LOGs over a dataset, with occurrence counts.

    edge_counts[e] is the number of LOGs containing the lifted edge e (at
    most once each: edges are deduplicated within a LOG).  log_counts[v]
    is the number of LOGs rooted at the lifted atom v.
    """

    vertices: set[Atom] = field(default_factory=set)
    edge_counts: Counter = field(default_factory=Counter)
    log_counts: Counter = field(default_factory=Counter)
    domain: str = ""


def build_task_log(lgg: LGG, domain: str = "") -> WLog:
    """One LOG per vertex of the task's LGG, pooled into a weighted graph."""
    w = WLog(domain=domain)
    for vertex in sorted(lgg.vertices):
        log = build_log(lgg, vertex)
        w.log_counts[log.root] += 1
        w.vertices.update(log.vertices)
        for e in log.edges:
            w.edge_counts[e] += 1
    return w


def _check_arities(w: WLog) -> None:
    arity: dict[str, int] = {}
    atoms = list(w.vertices) + [a for e in w.edge_counts for a in (e.src, e.dst)]
    atoms += list(w.log_counts)
    for atom in atoms:
        before = arity.setdefault(atom.pred, atom.arity)
        if before != atom.arity:
            raise VocabularyError(
                f"predicate {atom.pred} appears with arities {before} and {atom.arity}")


def merge_wlogs(parts: Iterable[WLog]) -> WLog:
    """Pool weighted graphs from several tasks of one domain."""
    merged = WLog()
    names = set()
    for part in parts:
        if part.domain:
            names.add(part.domain)
        merged.vertices.update(part.vertices)
        merged.edge_counts.update(part.edge_counts)
        merged.log_counts.update(part.log_counts)
    if len(names) > 1:
        raise VocabularyError(f"refusing to merge graphs from domains {sorted(names)}")
    merged.domain = names.pop() if names else ""
    _check_arities(merged)
    return merged


@dataclass
class PLog:
    """A weighted lifted ordering graph with edge probabilities."""

    vertices: set[Atom]
    edge_counts: Counter
    log_counts: Counter
    probs: dict[LiftedEdge, float]
    domain: str = ""


def finalize_plog(w: WLog) -> PLog:
    """Turn counts into probabilities: mu(e) = n(e) / n_graph(dst(e))."""
    probs: dict[LiftedEdge, float] = {}
    for edge, n in w.edge_counts.items():
        n_graph = w.log_counts.get(edge.dst, 0)
        if n_graph == 0:
            raise VocabularyError(f"no graphs recorded for {edge.dst}, "
                                  f"yet edge {edge.src} -> {edge.dst} was counted")
        if n > n_graph:
            raise VocabularyError(f"edge {edge.src} -> {edge.dst} counted {n} times "
                                  f"but only {n_graph} graphs exist for {edge.dst}")
        probs[edge] = n / n_graph
    return PLog(vertices=set(w.vertices), edge_counts=Counter(w.edge_counts),
                log_counts=Counter(w.log_counts), probs=probs, domain=w.domain)


def learn_plog(lggs: Iterable[LGG], domain: str = "") -> PLog:
    """End-to-end learning: lift every task's LGG, pool, normalise."""
    return finalize_plog(merge_wlogs([build_task_log(g, domain) for g in lggs]))


# --- serialization ----------------------------------------------------------


def plog_to_json(plog: PLog) -> str:
    table, index = artifact.atom_table(
        set(plog.vertices) | {a for e in plog.edge_counts for a in (e.src, e.dst)}
        | set(plog.log_counts))
    return artifact.dumps({
        "domain": plog.domain,
        "vertices": [artifact.atom_payload(a) for a in table],
        "edges": [{"src": index[e.src], "dst": index[e.dst], "n": n, "mu": plog.probs[e]}
                  for e, n in sorted(plog.edge_counts.items())],
        "log_counts": [{"vertex": index[v], "n_graph": n}
                       for v, n in sorted(plog.log_counts.items())],
    })


def plog_from_json(text: str) -> PLog:
    """Read a p-LOG; counts are positive and each edge or root appears once.
    Probabilities are recomputed from the counts, not taken from the file."""
    data = artifact.read_artifact(
        text, domain=artifact.string,
        edges=artifact.records({"src": artifact.vertex, "dst": artifact.vertex,
                                "n": artifact.positive_int, "mu": artifact.probability},
                               unique=("src", "dst")),
        log_counts=artifact.records({"vertex": artifact.vertex,
                                     "n_graph": artifact.positive_int}, unique=("vertex",)))
    log_counts = Counter(dict(data["log_counts"]))
    edge_counts = Counter({LiftedEdge(src, dst): n for src, dst, n, _ in data["edges"]})
    return finalize_plog(WLog(vertices=set(log_counts), edge_counts=edge_counts,
                              log_counts=log_counts, domain=data["domain"]))


def write_plog(plog: PLog, path: str | Path) -> None:
    Path(path).write_text(plog_to_json(plog))


def read_plog(path: str | Path) -> PLog:
    return plog_from_json(read_text(path))


def plog_to_dot(plog: PLog) -> str:
    """Graphviz rendering with probability-labelled edges."""
    table, index = artifact.atom_table(
        set(plog.vertices) | {a for e in plog.probs for a in (e.src, e.dst)})
    lines = ["digraph plog {", "  rankdir=BT;"]
    for a in table:
        lines.append(f'  n{index[a]} [label="{a}" style=dashed];')
    for e, mu in sorted(plog.probs.items()):
        lines.append(f'  n{index[e.src]} -> n{index[e.dst]} [label="{mu:.2f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
