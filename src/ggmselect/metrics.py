"""Edge-level evaluation of an estimated graph against a reference."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import EdgeSet
from .errors import InvalidInputError, UnmatchedNodeError


@dataclass(frozen=True)
class ConfusionCounts:
    """Edge decision counts over all node pairs of a d-node graph."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricRecord:
    """Summary metrics derived from confusion counts.

    ``tpr`` and ``fpr`` are None when their denominator is zero (no true
    edges, or no true non-edges). MCC is 0 by convention when any factor of
    its denominator vanishes. The Jaccard index of two empty edge sets is 1.
    """

    fwer_indicator: int
    tpr: float | None
    fpr: float | None
    mcc: float
    jaccard: float


def _check_same_nodes(a: EdgeSet, b: EdgeSet) -> None:
    """The rule for every pair of edge sets compared: one node count."""
    if a.d != b.d:
        raise InvalidInputError(f"edge sets are over different node counts: {a.d} vs {b.d}")


def confusion(estimated: EdgeSet, truth: EdgeSet) -> ConfusionCounts:
    """Confusion counts of an estimated edge set against the true one."""
    _check_same_nodes(estimated, truth)
    tp = len(estimated.edges & truth.edges)
    fp = len(estimated.edges - truth.edges)
    fn = len(truth.edges - estimated.edges)
    tn = estimated.d * (estimated.d - 1) // 2 - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def metrics_from_confusion(counts: ConfusionCounts) -> MetricRecord:
    """FWER indicator, TPR, FPR, MCC (square-root denominator), and Jaccard."""
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    tpr = tp / (tp + fn) if (tp + fn) > 0 else None
    fpr = fp / (fp + tn) if (fp + tn) > 0 else None
    factors = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = 0.0 if factors == 0 else (tp * tn - fp * fn) / math.sqrt(factors)
    union = tp + fp + fn
    jac = 1.0 if union == 0 else tp / union
    return MetricRecord(
        fwer_indicator=1 if fp > 0 else 0,
        tpr=tpr,
        fpr=fpr,
        mcc=mcc,
        jaccard=jac,
    )


def jaccard(a: EdgeSet, b: EdgeSet) -> float:
    """Jaccard similarity |a & b| / |a | b|, defined as 1 for two empty sets."""
    _check_same_nodes(a, b)
    union = len(a.edges | b.edges)
    if union == 0:
        return 1.0
    return len(a.edges & b.edges) / union


@dataclass(frozen=True)
class EdgeValidationReport:
    """Counts of estimated edges found in a reference interaction list."""

    estimated_edges: int
    validated_edges: int
    proportion: float | None


def validated_edge_report(estimated: EdgeSet, reference: EdgeSet) -> EdgeValidationReport:
    """How many estimated edges appear in the reference interaction set.

    ``proportion`` is validated/estimated, or None when no edges were
    estimated.
    """
    _check_same_nodes(estimated, reference)
    total = len(estimated.edges)
    validated = len(estimated.edges & reference.edges)
    proportion = validated / total if total > 0 else None
    return EdgeValidationReport(
        estimated_edges=total, validated_edges=validated, proportion=proportion
    )


def load_interaction_pairs(path) -> list[tuple[str, str]]:
    """Read (name, name) pairs from a two-column CSV, one interaction per row."""
    pairs = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for r, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise InvalidInputError(
                    f"{path}: row {r} has {len(row)} fields, expected 2"
                )
            pairs.append((row[0].strip(), row[1].strip()))
    return pairs


def edges_from_names(pairs, names) -> EdgeSet:
    """Map named interactions onto an EdgeSet over the given variable universe.

    Duplicate and reversed rows collapse to one edge; self-pairs are dropped
    (they can never match an undirected edge). Names absent from ``names``
    raise UnmatchedNodeError listing every offender.
    """
    index = {name: k for k, name in enumerate(names)}
    if len(index) != len(names):
        raise InvalidInputError("variable names are not unique")
    unmatched = sorted({name for pair in pairs for name in pair if name not in index})
    if unmatched:
        raise UnmatchedNodeError(f"unknown node names: {', '.join(unmatched)}")
    edges = set()
    for a, b in pairs:
        i, j = index[a], index[b]
        if i == j:
            continue
        edges.add((min(i, j), max(i, j)))
    return EdgeSet(len(names), frozenset(edges))
