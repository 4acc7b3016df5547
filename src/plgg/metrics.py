"""Scoring predicted landmark graphs against reference graphs.

Grounded predictions are scored with plain precision/recall/F1.  Lifted
predictions get partial credit instead: each reference item the grounded
side missed is compared against the equivalent lifted extras, every lifted
candidate earns a likelihood that shrinks with its number of open
variables, and the averaged credit is folded into alpha-precision and
alpha-recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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


def grounded_prf(reference: LGG, content: PlggContent) -> tuple[PRF, PRF]:
    """Classical scores over grounded content only, vertices then edges."""
    ref_v = set(reference.vertices)
    pred_v = set(content.landmarks_grounded)
    vertex = _prf(len(ref_v & pred_v), len(pred_v), len(ref_v))
    ref_e = set(reference.edges)
    pred_e = set(content.orderings_grounded())
    edge = _prf(len(ref_e & pred_e), len(pred_e), len(ref_e))
    return vertex, edge


# --- likelihoods ----------------------------------------------------------------


def likelihood_atom(lifted: Atom, grounded: Atom) -> float:
    """How specific an equivalent lifted atom is: 1 when fully grounded,
    halved by the first open variable, and so on."""
    if not equivalent_atoms(lifted, grounded, _NO_CONSTRAINTS):
        raise ValueError(f"{lifted} is not equivalent to {grounded}")
    return 1.0 / (1 + len(lifted.variables()))


def likelihood_edge(lifted_edge: Edge, grounded_edge: Edge) -> float:
    """Mean of the two endpoint likelihoods."""
    src = likelihood_atom(lifted_edge[0], grounded_edge[0])
    dst = likelihood_atom(lifted_edge[1], grounded_edge[1])
    return (src + dst) / 2


def likelihood_atom_set(candidates: Iterable[Atom], target: Atom) -> float:
    """Mean likelihood of the equivalent candidates for one missed atom."""
    values = [likelihood_atom(c, target) for c in candidates]
    if not values:
        raise ValueError(f"no candidates provided for {target}")
    return sum(values) / len(values)


def likelihood_edge_set(candidates: Iterable[Edge], target: Edge) -> float:
    values = [likelihood_edge(c, target) for c in candidates]
    if not values:
        raise ValueError(f"no candidates provided for {target}")
    return sum(values) / len(values)


def _edge_equivalent(a: Edge, b: Edge) -> bool:
    return (equivalent_atoms(a[0], b[0], _NO_CONSTRAINTS)
            and equivalent_atoms(a[1], b[1], _NO_CONSTRAINTS))


def alpha_values(reference: LGG, content: PlggContent) -> tuple[float, float]:
    """Averaged partial credit for missed vertices and edges.

    Evaluation is constraint-free: equivalence uses an empty store, so a
    variable matches any object.  A missed item with no equivalent lifted
    extra contributes 0, and an empty missed set yields 0 outright.
    """
    ref_v = set(reference.vertices)
    pred_v = set(content.landmarks)
    v_diff = ref_v - pred_v
    lifted_extras = [v for v in pred_v - ref_v if v.variables()]
    if not v_diff:
        alpha_v = 0.0
    else:
        total = 0.0
        for missed in sorted(v_diff):
            cands = [c for c in lifted_extras if equivalent_atoms(c, missed, _NO_CONSTRAINTS)]
            if cands:
                total += likelihood_atom_set(cands, missed)
        alpha_v = total / len(v_diff)

    ref_e = set(reference.edges)
    pred_e = set(content.orderings)
    e_diff = ref_e - pred_e
    lifted_edge_extras = [e for e in pred_e - ref_e
                          if e[0].variables() or e[1].variables()]
    if not e_diff:
        alpha_e = 0.0
    else:
        total = 0.0
        for missed in sorted(e_diff):
            cands = [c for c in lifted_edge_extras if _edge_equivalent(c, missed)]
            if cands:
                total += likelihood_edge_set(cands, missed)
        alpha_e = total / len(e_diff)

    return alpha_v, alpha_e


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


def _facet(prf: PRF, alpha: float, hits: int, predicted: int, reference: int) -> FacetScores:
    return FacetScores(classical=prf, alpha=alpha, alpha_classical=alpha_prf(prf, alpha),
                       hits=hits, misses=reference - hits, extras=predicted - hits)


def compare(reference: LGG, content: PlggContent) -> MetricReport:
    """Score one prediction against one reference graph."""
    vertex_prf, edge_prf = grounded_prf(reference, content)
    alpha_v, alpha_e = alpha_values(reference, content)

    ref_v = set(reference.vertices)
    pred_v = set(content.landmarks_grounded)
    ref_e = set(reference.edges)
    pred_e = set(content.orderings_grounded())
    return MetricReport(
        landmarks=_facet(vertex_prf, alpha_v, len(ref_v & pred_v), len(pred_v), len(ref_v)),
        orderings=_facet(edge_prf, alpha_e, len(ref_e & pred_e), len(pred_e), len(ref_e)))


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


def mean_reports(reports: Iterable[MetricReport]) -> dict:
    """Field-wise means over per-task reports, same shape as report_to_dict."""
    dicts = [report_to_dict(r) for r in reports]
    if not dicts:
        raise ValueError("no reports to average")
    out: dict = {}
    for facet in ("landmarks", "orderings"):
        out[facet] = {key: sum(d[facet][key] for d in dicts) / len(dicts)
                      for key in dicts[0][facet]}
    return out


def render_table(rows: Mapping[str, Mapping[str, Mapping[str, float]]]) -> str:
    """Aligned text table: one row per label, grouped score columns."""
    columns = ["precision", "recall", "f1", "alpha_precision", "alpha_recall", "alpha_f1"]
    header = ["task", "facet"] + columns
    lines = []
    for label in rows:
        for facet in ("landmarks", "orderings"):
            scores = rows[label][facet]
            lines.append([label, facet] + [f"{scores[c]:.3f}" for c in columns])
    widths = [max(len(header[i]), *(len(line[i]) for line in lines)) if lines else len(header[i])
              for i in range(len(header))]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([fmt(header)] + [fmt(line) for line in lines]) + "\n"
