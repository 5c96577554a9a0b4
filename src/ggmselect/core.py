"""Shared numeric types, covariance computation, and matrix utilities."""

from __future__ import annotations

import csv
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

#: Absolute threshold below which a precision entry is treated as a non-edge.
DEFAULT_ZERO_TOL = 1e-8


def symmetrize(matrix) -> np.ndarray:
    """Exactly symmetric float copy of ``matrix`` (average with its transpose)."""
    matrix = np.asarray(matrix, dtype=float)
    return (matrix + matrix.T) / 2.0


#: Asymmetry allowed in a symmetric input, relative to its largest entry.
_SYMMETRY_TOL = 1e-8


def check_square_symmetric(matrix, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is square, finite, and symmetric.

    Returns an exactly symmetric float64 copy. Asymmetry larger than
    ``_SYMMETRY_TOL`` relative to the largest absolute entry raises
    :class:`InvalidInputError`.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.T).max()) > _SYMMETRY_TOL * scale:
        raise InvalidInputError(f"{name} is not symmetric")
    return symmetrize(matrix)


@dataclass
class DataMatrix:
    """An n-by-d observation matrix, one sample per row.

    Requires n >= 2, d >= 2 and finite entries. ``variable_names``, when
    given, must have one label per column.
    """

    values: np.ndarray
    variable_names: list[str] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InvalidInputError(f"data must be 2-dimensional, got shape {values.shape}")
        n, d = values.shape
        if n < 2 or d < 2:
            raise InvalidInputError(f"data must have at least 2 rows and 2 columns, got {n}x{d}")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("data contains non-finite entries")
        if self.variable_names is not None:
            names = [str(v) for v in self.variable_names]
            if len(names) != d:
                raise InvalidInputError(
                    f"got {len(names)} variable names for {d} columns"
                )
            self.variable_names = names
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def names(self) -> list[str]:
        """Variable names, falling back to V1..Vd."""
        if self.variable_names is not None:
            return list(self.variable_names)
        return [f"V{i + 1}" for i in range(self.d)]

    def standardized(self) -> "DataMatrix":
        """Copy with each column scaled to unit (population) standard deviation.

        Scaling only; the mean is left untouched so the centering policy of
        downstream covariance computations still applies.
        """
        std = self.values.std(axis=0)
        if np.any(std == 0):
            bad = [self.names()[i] for i in np.flatnonzero(std == 0)]
            raise InvalidInputError(f"cannot standardize zero-variance columns: {bad}")
        return DataMatrix(self.values / std, self.variable_names)


def as_data_matrix(data) -> DataMatrix:
    """Coerce an array-like or :class:`DataMatrix` into a :class:`DataMatrix`."""
    if isinstance(data, DataMatrix):
        return data
    return DataMatrix(data)


@dataclass(frozen=True)
class EdgeSet:
    """An undirected graph over ``d`` nodes stored as pairs (i, j) with i < j."""

    d: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInputError(f"node count must be positive, got {self.d}")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (0 <= i < j < self.d):
                raise InvalidInputError(
                    f"edge ({i}, {j}) is not a valid pair over {self.d} nodes"
                )
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_upper(cls, d: int, keep) -> "EdgeSet":
        """The pairs (i, j), i < j, at which the boolean vector ``keep`` is
        True; ``keep`` runs over the strict upper triangle in
        ``numpy.triu_indices(d, 1)`` order."""
        rows, cols = np.triu_indices(d, k=1)
        return cls(d, frozenset(zip(rows[keep].tolist(), cols[keep].tolist())))

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, pair) -> bool:
        i, j = pair
        return (min(i, j), max(i, j)) in self.edges

    def __iter__(self):
        return iter(sorted(self.edges))


@dataclass
class SelectionResult:
    """Outcome of a graph selection procedure.

    ``precision`` is None for testing-based methods, which identify structure
    without estimating the matrix itself.
    """

    method: str
    alpha: float | None
    lam: float | None
    precision: np.ndarray | None
    edges: EdgeSet
    diagnostics: dict = field(default_factory=dict)


def _cov(values: np.ndarray, center: bool = True) -> np.ndarray:
    """Second-moment matrix with divisor n; no shape validation."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    centered = values - values.mean(axis=0) if center else values
    return symmetrize(centered.T @ centered / n)


def empirical_covariance(data, center: bool = True) -> np.ndarray:
    """Empirical covariance A = (1/n) * sum_k (x_k - xbar)(x_k - xbar)^T.

    The divisor is n, not n - 1, so that the matrix is the covariance of the
    empirical measure of the sample. ``center=False`` skips mean removal and
    returns the raw second moment.
    """
    return _cov(as_data_matrix(data).values, center=center)


def edges_from_precision(precision, zero_tol: float = DEFAULT_ZERO_TOL) -> EdgeSet:
    """Edge set of a precision matrix: pairs (i, j), i < j, with |K_ij| > zero_tol."""
    _check_zero_tol(zero_tol)
    precision = check_square_symmetric(precision, "precision matrix")
    d = precision.shape[0]
    # A boolean mask reads in row-major order, the order of triu_indices.
    upper = precision[~np.tri(d, dtype=bool)]
    return EdgeSet.from_upper(d, np.abs(upper) > zero_tol)


def _check_zero_tol(zero_tol: float) -> None:
    """The rule for every edge threshold: a finite number >= 0."""
    if not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise InvalidInputError(f"zero_tol must be finite and nonnegative, got {zero_tol}")


def _check_alpha(alpha: float) -> None:
    """The rule for every alpha, a level or confidence parameter in (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")


def _check_seed(seed: int) -> None:
    """The rule for every seed: numpy's generators take nonnegative integers."""
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")


def max_offdiag_abs(matrix) -> float:
    """Largest absolute off-diagonal entry of a symmetric matrix."""
    matrix = check_square_symmetric(matrix, "matrix")
    d = matrix.shape[0]
    if d < 2:
        raise InvalidInputError("matrix must be at least 2x2")
    off = np.abs(matrix).copy()
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def _parse_float(token: str) -> float:
    token = token.strip()
    if "_" in token:
        raise ValueError(f"invalid numeric literal {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _is_float(token: str) -> bool:
    try:
        float(token.strip())
    except ValueError:
        return False
    return True


def _is_header(row: list[str]) -> bool:
    return any(not _is_float(tok) for tok in row)


def _parse_rows_checked(path, lines: list[str]) -> tuple[np.ndarray, list[str] | None]:
    """Values and header names of CSV lines, every token through ``_parse_float``.

    This loop is the reference parser and the only source of the loader's
    error messages.
    """
    reader = csv.reader(lines)
    # line_num is the file line on which the row just read ends.
    raw = [(reader.line_num, row) for row in reader if row]
    if not raw:
        raise InvalidInputError(f"{path}: file contains no data")

    names = None
    if _is_header(raw[0][1]):
        names = [tok.strip() for tok in raw.pop(0)[1]]

    rows = []
    width = len(names) if names is not None else len(raw[0][1]) if raw else 0
    for line, row in raw:
        if len(row) != width:
            raise InvalidInputError(
                f"{path}: line {line} has {len(row)} fields, expected {width}"
            )
        parsed = []
        for c, token in enumerate(row, start=1):
            try:
                parsed.append(_parse_float(token))
            except ValueError:
                raise InvalidInputError(
                    f"{path}: could not parse value at line {line}, column {c}: {token.strip()!r}"
                ) from None
        rows.append(parsed)

    if not rows:
        raise InvalidInputError(f"{path}: no observation rows found")
    return np.array(rows, dtype=float), names


def _parse_rows_fast(lines: list[str], width: int) -> np.ndarray | None:
    """Values of data lines from one ``np.loadtxt`` call, or None.

    The values are returned only where the checked loop would return the same
    ones: without a quote csv splits on every comma, without '_' float() and
    loadtxt read the same literals, and loadtxt rejects ragged rows itself.
    Everything else, including what loadtxt rejects and the loop may accept,
    is left to the loop.
    """
    if any('"' in line or "_" in line for line in lines):
        return None
    # loadtxt warns on input without a data line; the loop reports it.
    if not any(line.strip("\r\n") for line in lines):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def load_data_csv(path) -> DataMatrix:
    """Read an observation matrix from a CSV file.

    UTF-8 (a leading byte-order mark is dropped), comma-separated, '.'
    decimal separator, one observation per row. The first non-empty row is
    the header of variable names if any of its cells does not parse as a
    number; otherwise it is the first observation. Empty lines are skipped
    and quoted fields are accepted. Non-finite values, literals with '_'
    and rows whose width differs from the first row are rejected; the error
    names the file line and column, 1-based (for a quoted field spanning
    lines, the line on which its row ends).
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        lines = handle.readlines()
    rows = csv.reader(lines)
    first = next((row for row in rows if row), [])
    names = [tok.strip() for tok in first] if _is_header(first) else None
    body = lines[rows.line_num:] if names is not None else lines
    values = _parse_rows_fast(body, len(first))
    if values is None:
        values, names = _parse_rows_checked(path, lines)
    return DataMatrix(values, names)


def format_real(value) -> str:
    """Render a real with 12 significant digits; None and NaN, which mark an
    undefined value, become the empty field, and negative zero prints as 0."""
    if value is None or math.isnan(value):
        return ""
    return format(float(value) + 0.0, ".12g")


@contextmanager
def atomic_text_writer(path):
    """Open a temporary file and rename it over ``path`` only on success.

    A failure mid-write never leaves a partial file under the target path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", newline="", dir=directory, delete=False
    )
    try:
        yield handle
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        os.unlink(handle.name)
        raise


def _quote(text: str) -> str:
    """``text`` as ``csv`` writes a cell: quoted, its quotes doubled, when it
    holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _cells(row) -> list[str]:
    """The CSV cells of ``row``: strings through ``_quote``, integers as
    they are, a bool as ``true`` or ``false``, and every other value through
    ``format_real``."""
    # A number, the common cell, pays one isinstance test; lower() maps True to true.
    return [(_quote(v) if isinstance(v, str) else str(v).lower()) if isinstance(v, (str, int))
            else format_real(v) for v in row]


def write_csv(path, header, rows) -> None:
    """Write a CSV file atomically, one line per row of ``_cells``."""
    with atomic_text_writer(path) as handle:
        handle.write(",".join(_cells(header)) + "\n")
        for row in rows:
            handle.write(",".join(_cells(row)) + "\n")


def _warn(text: str) -> None:
    """Write ``warning: <text>`` to stderr as one line in one write, so that
    lines from pool threads never interleave."""
    sys.stderr.write(f"warning: {text}\n")


def parallel_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, run on ``threads`` pool threads when
    ``threads > 1``. Results keep the order of ``items`` either way."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
