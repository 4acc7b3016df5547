"""Scoring predicted landmark graphs against reference graphs.

Landmarks (atoms) and orderings (src, dst pairs) are scored by one facet
scorer.  Ground predictions get plain precision/recall/F1.  Lifted
predictions get partial credit instead: each reference item the prediction
missed collects its equivalent lifted extras, every lifted candidate earns
a likelihood that shrinks with its number of open variables, and the
averaged credit is folded into alpha-precision and alpha-recall.

Scoring is constraint-free and the reference is ground, so a lifted atom
is equivalent to a reference atom exactly when its objects sit at the
reference atom's positions: it has the bucket key of one of the reference
atom's `_object_patterns`, the keys that instantiation's search reads, or
it is the reference atom, at the ground end of a lifted ordering.  As in
that search, each lifted extra is filed once, under its ends' own keys,
and each missed item probes every combination of its ends' keys.

`compare` returns the scores in the one layout that `plgg evaluate --json`
prints per task: `{"landmarks": facet, "orderings": facet}`, where each
facet maps `precision`, `recall`, `f1`, `alpha`, `alpha_precision`,
`alpha_recall`, `alpha_f1`, `hits`, `misses` and `extras` to a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .instantiate import PlggContent, _bucket_key, _object_patterns, _own_key
from .lgg import LGG
from .pddl import Atom

Edge = tuple[Atom, Atom]
_pred = itemgetter(0)


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def mean(values: Sequence[float]) -> float:
    """The mean of `values`, summed left to right.  From Python 3.12 on,
    `sum` of floats compensates its rounding, so a report's last digit
    would depend on the interpreter."""
    return reduce(add, values, 0.0) / len(values)


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


def _keys(reference: Atom) -> list[tuple]:
    """The `_own_key` of every atom equivalent to the ground `reference`."""
    if not reference.is_ground:
        raise ValueError(f"scoring needs a ground reference, not {reference}")
    return [_bucket_key(reference, fixed) for level in _object_patterns(reference.arity)
            for fixed, _ in level] + [_bucket_key(reference, tuple(range(reference.arity)))]


def _credit(ends: tuple[Atom, ...]) -> float:
    """The mean over the lifted `ends` of 1 / (1 + open variables)."""
    return mean([1.0 / (1 + len(end.variables())) for end in ends])


def likelihood_atom(lifted: Atom, grounded: Atom) -> float:
    """How specific a lifted atom equivalent to the ground reference atom
    `grounded` is: 1 when fully grounded, halved by the first open
    variable, and so on.  A reference that is not ground, or an atom not
    equivalent to it, raises `ValueError`."""
    if _own_key(lifted) not in _keys(grounded):
        raise ValueError(f"{lifted} is not equivalent to {grounded}")
    return _credit((lifted,))


def likelihood_edge(lifted_edge: Edge, grounded_edge: Edge) -> float:
    """Mean of the two endpoint likelihoods."""
    src = likelihood_atom(lifted_edge[0], grounded_edge[0])
    dst = likelihood_atom(lifted_edge[1], grounded_edge[1])
    return (src + dst) / 2


def alpha_prf(prf: PRF, alpha: float) -> PRF:
    """Fold partial credit into the classical scores."""
    precision = prf.precision + alpha * (1 - prf.precision)
    recall = prf.recall + alpha * (1 - prf.recall)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PRF(precision, recall, f1)


# --- reports --------------------------------------------------------------------


def _score_facet(reference: set, grounded: set, lifted: set, ends: Callable) -> dict:
    """Score one facet: classical scores over the ground predictions, and
    the averaged partial credit of the lifted ones.

    `ends` gives an item's atoms.  Each lifted extra is filed once under
    its ends' `_own_key`s, and each missed item probes every combination
    of its ends' `_keys`; it averages the credit of the extras found, in
    their sorted order.
    A missed item with no equivalent lifted extra contributes 0, and an
    empty missed set yields 0 outright.
    """
    hits = len(reference & grounded)
    prf = _prf(hits, len(grounded), len(reference))
    missed = reference - grounded - lifted
    # only an extra whose ends' predicates some missed item has can match
    preds = {tuple(map(_pred, ends(item))) for item in missed}
    extras = [extra for extra in lifted - reference
              if tuple(map(_pred, ends(extra))) in preds] if preds else []
    total = 0.0
    if extras:
        filed: dict = {}
        for extra in extras:
            filed.setdefault(tuple(map(_own_key, ends(extra))), []).append(extra)
        for item in sorted(missed):
            found = [extra for key in product(*map(_keys, ends(item)))
                     for extra in filed.get(key, ())]
            if found:
                total += mean([_credit(ends(extra)) for extra in sorted(found)])
    alpha = total / len(missed) if missed else 0.0
    folded = alpha_prf(prf, alpha)
    return {"precision": prf.precision, "recall": prf.recall, "f1": prf.f1,
            "alpha": alpha, "alpha_precision": folded.precision,
            "alpha_recall": folded.recall, "alpha_f1": folded.f1,
            "hits": hits, "misses": len(reference) - hits, "extras": len(grounded) - hits}


def compare(reference: LGG, content: PlggContent) -> dict:
    """Score one prediction against one ground reference graph: the
    per-task `report` of `plgg evaluate --json`,
    `{"landmarks": ..., "orderings": ...}`."""
    grounded_edges = set(content.orderings_grounded())
    return {
        "landmarks": _score_facet(set(reference.vertices), content.landmarks_grounded,
                                  content.landmarks_lifted, lambda atom: (atom,)),
        "orderings": _score_facet(set(reference.edges), grounded_edges,
                                  content.orderings.keys() - grounded_edges, tuple),
    }


def mean_reports(reports: Iterable[dict]) -> dict:
    """Field-wise means over `compare` reports, in the same shape."""
    dicts = list(reports)
    if not dicts:
        raise ValueError("no reports to average")
    out: dict = {}
    for facet in ("landmarks", "orderings"):
        out[facet] = {key: mean([d[facet][key] for d in dicts]) for key in dicts[0][facet]}
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
