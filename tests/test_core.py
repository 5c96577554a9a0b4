import numpy as np
import pytest

import ggmselect as gs
from ggmselect import InvalidInputError
from ggmselect.core import format_real

from helpers import random_covariance


def test_covariance_hand_example():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    A = gs.empirical_covariance(X)
    assert np.array_equal(A, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_covariance_repeated_rows_give_zero_matrix():
    X = np.tile([2.0, -3.0, 0.5], (4, 1))
    assert np.abs(gs.empirical_covariance(X)).max() == 0.0


def test_covariance_matches_brute_force_outer_products():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 3))
    n, d = X.shape
    xbar = X.mean(axis=0)
    expected = np.zeros((d, d))
    for k in range(n):
        diff = X[k] - xbar
        expected += np.outer(diff, diff)
    expected /= n
    assert np.abs(gs.empirical_covariance(X) - expected).max() <= 1e-12


def test_covariance_row_permutation_invariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 4))
    perm = rng.permutation(20)
    assert np.allclose(
        gs.empirical_covariance(X), gs.empirical_covariance(X[perm]), atol=1e-12
    )


def test_covariance_quadratic_scaling():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 3))
    assert np.allclose(
        gs.empirical_covariance(2.5 * X),
        2.5**2 * gs.empirical_covariance(X),
        rtol=1e-12,
    )


def test_covariance_without_centering_is_second_moment():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 3)) + 5.0
    raw = gs.empirical_covariance(X, center=False)
    assert np.allclose(raw, X.T @ X / 10, atol=1e-12)
    assert raw[0, 0] > gs.empirical_covariance(X)[0, 0]


def test_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 8))  # rank-deficient on purpose
    eigenvalues = np.linalg.eigvalsh(gs.empirical_covariance(X))
    assert eigenvalues.min() >= -1e-10


def test_data_matrix_validation():
    with pytest.raises(InvalidInputError):
        gs.DataMatrix(np.zeros((1, 3)))
    with pytest.raises(InvalidInputError):
        gs.DataMatrix(np.zeros((3, 1)))
    with pytest.raises(InvalidInputError):
        gs.DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        gs.DataMatrix(np.zeros((3, 3)), variable_names=["a", "b"])


def test_data_matrix_standardized_rejects_constant_column():
    values = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    with pytest.raises(InvalidInputError, match="zero-variance"):
        gs.DataMatrix(values).standardized()


def test_standardized_data_gives_correlation_matrix():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 3)) * np.array([1.0, 10.0, 0.1])
    A = gs.empirical_covariance(gs.DataMatrix(X).standardized())
    assert np.allclose(np.diag(A), 1.0, atol=1e-12)


def test_edges_from_precision_identity_is_empty():
    assert len(gs.edges_from_precision(np.eye(4), 1e-8)) == 0


def test_edges_from_precision_single_entry():
    K = np.eye(3)
    K[0, 1] = K[1, 0] = 0.3
    assert set(gs.edges_from_precision(K, 1e-8).edges) == {(0, 1)}


def test_edges_from_precision_threshold_boundary():
    K = np.eye(2)
    K[0, 1] = K[1, 0] = 1e-9
    assert len(gs.edges_from_precision(K, 1e-8)) == 0
    assert len(gs.edges_from_precision(K, 1e-10)) == 1


def test_edges_from_precision_rejects_negative_tolerance():
    with pytest.raises(InvalidInputError):
        gs.edges_from_precision(np.eye(2), -1e-8)


def test_edges_from_precision_permutation_equivariance():
    rng = np.random.default_rng(7)
    K = random_covariance(rng, 6) + np.eye(6)
    perm = rng.permutation(6)
    direct = gs.edges_from_precision(K[np.ix_(perm, perm)], 1e-8)
    relabeled = {
        tuple(sorted((int(np.where(perm == i)[0][0]), int(np.where(perm == j)[0][0]))))
        for i, j in gs.edges_from_precision(K, 1e-8)
    }
    assert set(direct.edges) == relabeled


def test_max_offdiag_abs_examples():
    assert gs.max_offdiag_abs(np.eye(5)) == 0.0
    assert gs.max_offdiag_abs(np.array([[1.0, -0.7], [-0.7, 2.0]])) == 0.7


def test_max_offdiag_abs_matches_exhaustive_scan():
    rng = np.random.default_rng(8)
    A = random_covariance(rng, 6)
    expected = max(abs(A[i, j]) for i in range(6) for j in range(6) if i != j)
    assert gs.max_offdiag_abs(A) == expected


def test_edge_set_invariants():
    with pytest.raises(InvalidInputError):
        gs.EdgeSet(4, frozenset({(2, 2)}))
    with pytest.raises(InvalidInputError):
        gs.EdgeSet(4, frozenset({(3, 1)}))
    with pytest.raises(InvalidInputError):
        gs.EdgeSet(4, frozenset({(0, 4)}))
    edges = gs.EdgeSet.from_pairs(4, [(3, 1), (1, 3), (0, 2)])
    assert set(edges.edges) == {(1, 3), (0, 2)}
    assert (3, 1) in edges and (0, 1) not in edges


def test_load_csv_with_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
    data = gs.load_data_csv(path)
    assert data.variable_names == ["x", "y"]
    assert np.array_equal(data.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_without_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n5,6\n", encoding="utf-8")
    data = gs.load_data_csv(path)
    assert data.variable_names is None
    assert data.names() == ["V1", "V2"]
    assert data.n == 3


def test_load_csv_reports_row_and_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1,2\n3,oops\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"row 3, column 2"):
        gs.load_data_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\nnan,4\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"row 2, column 1"):
        gs.load_data_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4,5\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"row 2"):
        gs.load_data_csv(path)


def test_load_csv_rejects_underscore_separators(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1_000,2\n3,4\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"row 2, column 1"):
        gs.load_data_csv(path)


def test_symmetry_validation():
    asym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(InvalidInputError, match="symmetric"):
        gs.max_offdiag_abs(asym)


def test_format_real_writes_negative_zero_as_zero():
    assert format_real(-0.0) == "0"
    assert format_real(0.0) == "0"
    assert format_real(-1.5e-300) == "-1.5e-300"
    assert format_real(None) == ""
