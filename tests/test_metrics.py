import numpy as np
import pytest

import ggmselect as gs
from ggmselect import InvalidInputError, UnmatchedNodeError
from ggmselect.metrics import edges_from_names, load_interaction_pairs

from helpers import random_edge_pairs


def test_confusion_identical_sets():
    edges = gs.EdgeSet(6, frozenset({(0, 1), (2, 5)}))
    counts = gs.confusion(edges, edges)
    assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)
    assert counts.total == 15


def test_confusion_empty_estimate():
    truth = gs.EdgeSet(5, frozenset({(0, 1), (1, 2), (3, 4)}))
    counts = gs.confusion(gs.EdgeSet(5), truth)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 0, 3, 7)


def test_confusion_matches_exhaustive_enumeration():
    rng = np.random.default_rng(100)
    d = 8
    estimated = gs.EdgeSet(d, frozenset(random_edge_pairs(rng, d, 0.3)))
    truth = gs.EdgeSet(d, frozenset(random_edge_pairs(rng, d, 0.3)))
    counts = gs.confusion(estimated, truth)
    tp = fp = tn = fn = 0
    for i in range(d):
        for j in range(i + 1, d):
            in_est = (i, j) in estimated
            in_truth = (i, j) in truth
            tp += in_est and in_truth
            fp += in_est and not in_truth
            fn += not in_est and in_truth
            tn += not in_est and not in_truth
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)


def test_confusion_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        gs.confusion(gs.EdgeSet(4), gs.EdgeSet(5))


def test_metrics_perfect_recovery():
    record = gs.metrics_from_confusion(gs.ConfusionCounts(tp=4, fp=0, tn=6, fn=0))
    assert record.fwer_indicator == 0
    assert record.tpr == 1.0 and record.fpr == 0.0
    assert record.mcc == 1.0 and record.jaccard == 1.0


def test_metrics_hand_arithmetic_example():
    record = gs.metrics_from_confusion(gs.ConfusionCounts(tp=3, fp=1, tn=22, fn=2))
    assert record.tpr == pytest.approx(0.6)
    assert record.fpr == pytest.approx(1.0 / 23.0)
    assert record.jaccard == pytest.approx(0.5)
    expected_mcc = (3 * 22 - 1 * 2) / np.sqrt((3 + 1) * (3 + 2) * (22 + 1) * (22 + 2))
    assert record.mcc == pytest.approx(expected_mcc, rel=1e-12)
    assert record.fwer_indicator == 1


def test_metrics_empty_sets_jaccard_is_one():
    record = gs.metrics_from_confusion(gs.ConfusionCounts(tp=0, fp=0, tn=10, fn=0))
    assert record.jaccard == 1.0
    assert record.tpr is None
    assert record.mcc == 0.0
    assert record.fwer_indicator == 0


def test_metrics_undefined_fpr():
    # truth is the complete graph: no true non-edges
    record = gs.metrics_from_confusion(gs.ConfusionCounts(tp=5, fp=0, tn=0, fn=1))
    assert record.fpr is None


def test_jaccard_symmetry_and_bounds():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a = gs.EdgeSet(7, frozenset(random_edge_pairs(rng, 7, 0.4)))
        b = gs.EdgeSet(7, frozenset(random_edge_pairs(rng, 7, 0.4)))
        assert gs.jaccard(a, b) == gs.jaccard(b, a)
        assert 0.0 <= gs.jaccard(a, b) <= 1.0
        assert gs.jaccard(a, a) == 1.0
    assert gs.jaccard(gs.EdgeSet(7), gs.EdgeSet(7)) == 1.0


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(102)
    d = 7
    estimated = gs.EdgeSet(d, frozenset(random_edge_pairs(rng, d, 0.35)))
    truth = gs.EdgeSet(d, frozenset(random_edge_pairs(rng, d, 0.35)))
    perm = rng.permutation(d)

    def relabel(edge_set):
        return gs.EdgeSet(
            d, frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in edge_set)
        )

    before = gs.metrics_from_confusion(gs.confusion(estimated, truth))
    after = gs.metrics_from_confusion(gs.confusion(relabel(estimated), relabel(truth)))
    assert before == after


def test_validated_report_subset_and_disjoint():
    reference = gs.EdgeSet(6, frozenset({(0, 1), (1, 2), (3, 4), (2, 5)}))
    inside = gs.EdgeSet(6, frozenset({(0, 1), (3, 4)}))
    report = gs.validated_edge_report(inside, reference)
    assert report.proportion == 1.0
    disjoint = gs.EdgeSet(6, frozenset({(0, 2), (4, 5)}))
    assert gs.validated_edge_report(disjoint, reference).proportion == 0.0
    empty = gs.EdgeSet(6)
    assert gs.validated_edge_report(empty, reference).proportion is None


def test_validated_report_table_shaped_arithmetic():
    # 693 estimated edges of which 89 validated
    d = 60
    all_pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    estimated = gs.EdgeSet(d, frozenset(all_pairs[:693]))
    reference = gs.EdgeSet(d, frozenset(all_pairs[:89]))
    report = gs.validated_edge_report(estimated, reference)
    assert report.estimated_edges == 693
    assert report.validated_edges == 89
    assert report.proportion == 89 / 693
    assert report.proportion == pytest.approx(0.1284, abs=5e-5)


def test_reference_loader_dedupes_and_normalizes(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("a,b\nb,a\n\na,b\nc,a\nc,c\n", encoding="utf-8")
    pairs = load_interaction_pairs(path)
    assert len(pairs) == 5  # the blank row is skipped
    edges = edges_from_names(pairs, ["a", "b", "c"])
    assert set(edges.edges) == {(0, 1), (0, 2)}


def test_reference_loader_drops_byte_order_mark(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("\ufeffa,b\nc,a\n", encoding="utf-8")
    edges = edges_from_names(load_interaction_pairs(path), ["a", "b", "c"])
    assert set(edges.edges) == {(0, 1), (0, 2)}


def test_reference_loader_unmatched_names(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("a,zz\nqq,b\n", encoding="utf-8")
    with pytest.raises(UnmatchedNodeError, match="qq, zz"):
        edges_from_names(load_interaction_pairs(path), ["a", "b", "c"])


def test_reference_loader_rejects_wrong_width(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match="expected 2"):
        edges_from_names(load_interaction_pairs(path), ["a", "b", "c"])
