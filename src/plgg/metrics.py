"""Scoring predicted landmark graphs against reference graphs.

Landmarks (atoms) and orderings (src, dst pairs) are scored by one facet
scorer.  Ground predictions get plain precision/recall/F1.  Lifted
predictions get partial credit instead: each reference item the prediction
missed is compared against the equivalent lifted extras, every lifted
candidate earns a likelihood that shrinks with its number of open
variables, and the averaged credit is folded into alpha-precision and
alpha-recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .instantiate import PlggContent, VarConstraintStore, equivalent_atoms
from .lgg import LGG
from .pddl import Atom

Edge = tuple[Atom, Atom]

# Scoring is constraint-free: against an empty store a variable matches any
# object.  Nothing ever adds to it.
_NO_CONSTRAINTS = VarConstraintStore()


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def _prf(hits: int, predicted: int, reference: int) -> PRF:
    if predicted == 0:
        precision = 1.0 if reference == 0 else 0.0
    else:
        precision = hits / predicted
    if reference == 0:
        recall = 1.0 if predicted == 0 else 0.0
    else:
        recall = hits / reference
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PRF(precision, recall, f1)


# --- likelihoods ----------------------------------------------------------------


def _atom_equivalent(a: Atom, b: Atom) -> bool:
    return equivalent_atoms(a, b, _NO_CONSTRAINTS)


def likelihood_atom(lifted: Atom, grounded: Atom) -> float:
    """How specific an equivalent lifted atom is: 1 when fully grounded,
    halved by the first open variable, and so on."""
    if not _atom_equivalent(lifted, grounded):
        raise ValueError(f"{lifted} is not equivalent to {grounded}")
    return 1.0 / (1 + len(lifted.variables()))


def likelihood_edge(lifted_edge: Edge, grounded_edge: Edge) -> float:
    """Mean of the two endpoint likelihoods."""
    src = likelihood_atom(lifted_edge[0], grounded_edge[0])
    dst = likelihood_atom(lifted_edge[1], grounded_edge[1])
    return (src + dst) / 2


def _edge_equivalent(a: Edge, b: Edge) -> bool:
    return _atom_equivalent(a[0], b[0]) and _atom_equivalent(a[1], b[1])


def alpha_prf(prf: PRF, alpha: float) -> PRF:
    """Fold partial credit into the classical scores."""
    precision = prf.precision + alpha * (1 - prf.precision)
    recall = prf.recall + alpha * (1 - prf.recall)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PRF(precision, recall, f1)


# --- reports --------------------------------------------------------------------


@dataclass(frozen=True)
class FacetScores:
    """Scores for one facet (landmarks or orderings) of a prediction."""

    classical: PRF
    alpha: float
    alpha_classical: PRF
    hits: int
    misses: int
    extras: int


@dataclass(frozen=True)
class MetricReport:
    landmarks: FacetScores
    orderings: FacetScores


def _score_facet(reference: set, grounded: set, lifted: set,
                 equivalent: Callable, likelihood: Callable) -> FacetScores:
    """Score one facet: classical scores over the ground predictions, and
    the averaged partial credit of the lifted ones.

    Evaluation is constraint-free: equivalence uses an empty store, so a
    variable matches any object.  A missed item with no equivalent lifted
    extra contributes 0, and an empty missed set yields 0 outright.
    """
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
    return FacetScores(classical=prf, alpha=alpha, alpha_classical=alpha_prf(prf, alpha),
                       hits=hits, misses=len(reference) - hits,
                       extras=len(grounded) - hits)


def compare(reference: LGG, content: PlggContent) -> MetricReport:
    """Score one prediction against one reference graph."""
    grounded_edges = set(content.orderings_grounded())
    return MetricReport(
        landmarks=_score_facet(set(reference.vertices), content.landmarks_grounded,
                               content.landmarks_lifted, _atom_equivalent, likelihood_atom),
        orderings=_score_facet(set(reference.edges), grounded_edges,
                               content.orderings.keys() - grounded_edges,
                               _edge_equivalent, likelihood_edge))


def report_to_dict(report: MetricReport) -> dict:
    def facet(f: FacetScores) -> dict:
        return {
            "precision": f.classical.precision,
            "recall": f.classical.recall,
            "f1": f.classical.f1,
            "alpha": f.alpha,
            "alpha_precision": f.alpha_classical.precision,
            "alpha_recall": f.alpha_classical.recall,
            "alpha_f1": f.alpha_classical.f1,
            "hits": f.hits,
            "misses": f.misses,
            "extras": f.extras,
        }
    return {"landmarks": facet(report.landmarks), "orderings": facet(report.orderings)}


def mean_reports(reports: Iterable[dict]) -> dict:
    """Field-wise means over `report_to_dict` outputs, in the same shape."""
    dicts = list(reports)
    if not dicts:
        raise ValueError("no reports to average")
    out: dict = {}
    for facet in ("landmarks", "orderings"):
        out[facet] = {key: sum(d[facet][key] for d in dicts) / len(dicts)
                      for key in dicts[0][facet]}
    return out


def align_columns(header: list[str], lines: list[list[str]]) -> str:
    """Left-aligned text columns two spaces apart, the header line first."""
    rows = [header] + lines
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in rows) + "\n"


def render_table(rows: Mapping[str, Mapping[str, Mapping[str, float]]]) -> str:
    """Aligned text table: one row per label, grouped score columns."""
    columns = ["precision", "recall", "f1", "alpha_precision", "alpha_recall", "alpha_f1"]
    lines = []
    for label in rows:
        for facet in ("landmarks", "orderings"):
            scores = rows[label][facet]
            lines.append([label, facet] + [f"{scores[c]:.3f}" for c in columns])
    return align_columns(["task", "facet"] + columns, lines)
