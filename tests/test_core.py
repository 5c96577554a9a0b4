import csv
import math
import tracemalloc

import numpy as np
import pytest

import ggmselect as gs
from ggmselect import InvalidInputError, core
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
    for zero_tol in (-1e-8, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="zero_tol must be finite and nonnegative"):
            gs.edges_from_precision(np.eye(2), zero_tol)


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
    # triu_indices(4, 1) order: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
    edges = gs.EdgeSet.from_upper(4, np.array([False, True, False, False, True, False]))
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
    with pytest.raises(InvalidInputError, match=r"line 3, column 2"):
        gs.load_data_csv(path)


def test_load_csv_error_counts_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n\n1,2\n\n3,oops\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"at line 5, column 2: 'oops'"):
        gs.load_data_csv(path)
    path.write_text("\r\n1,2\n\n\n3,4,5\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"line 5 has 3 fields, expected 2"):
        gs.load_data_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\nnan,4\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"line 2, column 1"):
        gs.load_data_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4,5\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"line 2 has 3 fields"):
        gs.load_data_csv(path)


def test_load_csv_rejects_underscore_separators(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1_000,2\n3,4\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"line 2, column 1"):
        gs.load_data_csv(path)


def test_load_csv_drops_byte_order_mark(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\ufeff1.5,2\n3,4\n5,6\n", encoding="utf-8")
    data = gs.load_data_csv(path)
    assert data.variable_names is None
    assert np.array_equal(data.values, [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path.write_text("\ufeffx,y\n1,2\n3,4\n", encoding="utf-8")
    assert gs.load_data_csv(path).variable_names == ["x", "y"]


# Text that loadtxt and the checked loop may read differently; each entry must
# load to the loop's values and names or fail with the loop's message.
LOADER_CORPUS = {
    "quoted fields": '"x","y"\n"1.5","2"\n3,"4"\n',
    "quoted header name with a comma": '"a,b",c\n1,2\n3,4\n',
    "quoted numeric first row": '"1","2"\n3,4\n5,6\n',
    "leading blank lines": "\n\nx,y\n1,2\n3,4\n",
    "blank lines between rows": "x,y\n1,2\n\n3,4\n\n",
    "blank lines in a headerless file": "\n1,2\n\r\n3,4\n\n",
    "whitespace-only line": "x,y\n1,2\n  \n3,4\n",
    "whitespace-only line, headerless": "1,2\n\t\n3,4\n",
    "whitespace-only first line": " \n1,2\n3,4\n",
    "crlf line ends": "x,y\r\n1,2\r\n3,4\r\n",
    "lone cr line ends": "x,y\r1,2\r3,4\r",
    "mixed line ends": "x,y\r\n1,2\r3,4\n5,6",
    "nan": "x,y\n1,2\nnan,4\n",
    "inf": "1,2\n3,inf\n",
    "negative infinity": "x,y\n1,2\n3,-Infinity\n",
    "1e400": "x,y\n1e400,2\n3,4\n",
    "1e-400": "x,y\n1e-400,2\n3,4\n",
    "underscore literal": "x,y\n1_0,2\n3,4\n",
    "underscore in the header only": "x_1,x_2\n1,2\n3,4\n",
    "ragged row": "1,2\n3,4,5\n",
    "short row": "x,y\n1,2\n3\n",
    "trailing comma": "x,y\n1,2,\n3,4,\n",
    "trailing comma in the header": "x,y,\n1,2,\n3,4,\n",
    "empty field": "x,y\n1,\n3,4\n",
    "header wider than the data": "x,y,z\n1,2\n3,4\n",
    "header narrower than the data": "x,y\n1,2,3\n4,5,6\n",
    "header only": "x,y\n",
    "header and blank lines only": "x,y\n\n\r\n",
    "empty file": "",
    "blank lines only": "\n\r\n\r",
    "byte-order mark, headerless": "\ufeff1.5,2\n3,4\n5,6\n",
    "byte-order mark, header": "\ufeffx,y\n1,2\n3,4\n",
    "padded tokens": "x,y\n 1.5 ,2\n3,\t4\n",
    "unicode space padding": "x,y\n\xa01.5,2\u2000\n3,4\n",
    "hex literal": "x,y\n0x1p3,2\n3,4\n",
    "unicode digit": "x,y\n\u0661,2\n3,4\n",
    "comment character": "x,y\n1,2 # note\n3,4\n",
    "single column": "x\n1\n2\n",
    "single row": "x,y\n1,2\n",
    "signs and bare points": "x,y\n+1.5,-.5\n5.,-0\n",
    "plain six decimals": "V1,V2,V3\n0.123456,-1.500000,2.000001\n-0.000001,3.141593,1e-05\n",
}


def _loaded(load, path):
    try:
        data = load(path)
    except InvalidInputError as exc:
        return str(exc)
    return data.values.tobytes(), data.values.shape, data.variable_names


def _load_checked(path):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        values, names = core._parse_rows_checked(path, handle.readlines())
    return gs.DataMatrix(values, names)


@pytest.mark.parametrize("text", LOADER_CORPUS.values(), ids=LOADER_CORPUS.keys())
def test_load_csv_matches_checked_loop(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _loaded(gs.load_data_csv, path) == _loaded(_load_checked, path)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_load_csv_plain_numbers_skip_the_checked_loop(tmp_path, monkeypatch, line_end):
    values = np.round(np.random.default_rng(9).standard_normal((20, 4)), 6)
    rows = [",".join(f"{v:.6f}" for v in row) for row in values]
    path = tmp_path / "data.csv"

    def refuse(token):
        raise AssertionError("the checked loop ran")

    monkeypatch.setattr(core, "_parse_float", refuse)
    for lines in (["a,b,c,d", *rows], rows):
        path.write_text(line_end.join(lines) + line_end, encoding="utf-8")
        assert np.array_equal(gs.load_data_csv(path).values, values)


def test_load_csv_working_set_stays_small(tmp_path):
    # Parsing every token into Python floats held about 17 MB here.
    values = np.random.default_rng(10).standard_normal((3200, 50))
    path = tmp_path / "data.csv"
    header = ",".join(f"V{i + 1}" for i in range(50))
    np.savetxt(path, values, fmt="%.6f", delimiter=",", header=header, comments="")
    tracemalloc.start()
    try:
        data = gs.load_data_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.values.shape == (3200, 50)
    assert peak <= 8e6


def test_atomic_writer_failure_keeps_the_target_and_no_temporary(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,contents\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with core.atomic_text_writer(target) as handle:
            handle.write("new,partial\n")
            raise RuntimeError("mid-write")
    assert target.read_bytes() == b"old,contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_csv_quotes_the_string_cells_csv_would_quote(tmp_path):
    # Names may hold a comma, a quote or a line break; numbers never are quoted.
    header = ["a,b", 'say "hi"', "line\nbreak", "plain"]
    core.write_csv(tmp_path / "out.csv", header, [["x,y", 3, 0.5, None]])
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    assert text == '"a,b","say ""hi""","line\nbreak",plain\n"x,y",3,0.5,\n'
    with open(tmp_path / "out.csv", newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [header, ["x,y", "3", "0.5", ""]]


def test_write_csv_writes_a_bool_as_true_or_false(tmp_path):
    core.write_csv(tmp_path / "out.csv", ["flag", "other", "count"], [[True, False, 7]])
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    assert text == "flag,other,count\ntrue,false,7\n"


def test_symmetry_validation():
    asym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(InvalidInputError, match="symmetric"):
        gs.max_offdiag_abs(asym)


def test_format_real_writes_negative_zero_as_zero():
    assert format_real(-0.0) == "0"
    assert format_real(0.0) == "0"
    assert format_real(-1.5e-300) == "-1.5e-300"
    assert format_real(None) == ""
