"""Dense complex matrix substrate: Kronecker products, power-of-two embeddings,
unitarity checks, Householder completion of one column, and register-structured
assembly helpers used by every encoding construction.

Conventions:
  * All matrices are dense ``complex128`` ndarrays, row-major.
  * Qubit registers are big-endian: the most significant index factor is the
    leftmost register.  Ancilla registers always occupy the most significant
    positions, so the encoded block of a unitary is its leading submatrix.
  * Total unitary dimension is capped at ``2**cap_qubits()`` (default 2**14,
    overridable via the ``BLOCKLAB_CAP_QUBITS`` environment variable).
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np

DEFAULT_CAP_QUBITS = 14
UNITARY_TOL = 1e-10


class CapExceededError(Exception):
    """A construction would exceed the configured dense-simulation size cap."""


def cap_qubits() -> int:
    """Current qubit cap, read from BLOCKLAB_CAP_QUBITS or the default."""
    raw = os.environ.get("BLOCKLAB_CAP_QUBITS")
    if raw is None:
        return DEFAULT_CAP_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"BLOCKLAB_CAP_QUBITS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("BLOCKLAB_CAP_QUBITS must be positive")
    return value


def ensure_dimension(dim: int) -> None:
    """Raise CapExceededError if a dim x dim dense unitary is over budget."""
    limit = 1 << cap_qubits()
    if dim > limit:
        raise CapExceededError(
            f"dimension {dim} exceeds the simulator cap 2**{cap_qubits()} = {limit}"
        )


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    if n < 1:
        raise ValueError("dimension must be positive")
    return 1 << (n - 1).bit_length()


def qubit_count(dim: int) -> int:
    """Exact log2 of a power-of-two dimension."""
    if not is_power_of_two(dim):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def as_complex_matrix(m) -> np.ndarray:
    """Validate and convert input to a 2-D complex128 array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError("matrix must be non-empty")
    if not np.isfinite(arr).all():  # a complex entry is finite iff both parts are
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(arr)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the size cap enforced on the result."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    out_dim = max(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    ensure_dimension(out_dim)
    return np.kron(a, b)


def embed_power_of_two(a, dim: int | None = None) -> np.ndarray:
    """Embed a matrix as the leading block of a dim x dim square.

    ``dim`` defaults to the next power of two of the larger side.  Returns the
    input unchanged when it is already dim x dim.
    """
    a = as_complex_matrix(a)
    rows, cols = a.shape
    if dim is None:
        dim = next_power_of_two(max(rows, cols))
    elif rows > dim or cols > dim:
        raise ValueError("embedding target smaller than the matrix")
    if rows == cols == dim:
        return a
    out = np.zeros((dim, dim), dtype=complex)
    out[:rows, :cols] = a
    return out


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    """True iff U is square and max|U^dag U - I| <= tol."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError("is_unitary requires a square matrix")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    gram = u.conj().T @ u
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return bool(np.max(np.abs(gram)) <= tol)


def is_hermitian(m, tol: float = 1e-10) -> bool:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def spectral_norm(m) -> float:
    """Largest singular value."""
    m = as_complex_matrix(m)
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def householder_terms(column, dimension: int) -> tuple[np.ndarray, complex, float, complex | None]:
    """The checked unit column v and the terms of its Householder completion.

    Returns (v, phi, head, scale): phi is the phase of v[0] (1 when v[0] = 0),
    head is w[0] = 1 - |v[0]| for w = e_0 - v/phi, and scale is 2 phi/|w|^2
    (None when w = 0).  It raises ``ValueError`` unless v has length
    ``dimension`` and is a unit vector within 1e-10.  A scale that overflows
    makes the completion non-finite.
    """
    v = np.asarray(column, dtype=complex).reshape(-1)
    if v.shape[0] != dimension:
        raise ValueError("prescribed column has wrong dimension")
    if abs(np.vdot(v, v) - 1.0) > 1e-10:
        raise ValueError("prescribed column is not a unit vector within 1e-10")
    phi = v[0] / abs(v[0]) if v[0] != 0 else 1.0
    tail = np.vdot(v[1:], v[1:]).real
    # 1 - |v[0]| written as tail / (1 + |v[0]|): no cancellation near v = phi e_0
    head = tail / (1.0 + abs(v[0]))
    norm2 = head * head + tail
    return v, phi, head, (2.0 * phi / norm2 if norm2 > 0.0 else None)


def unitary_completion(column, dimension: int) -> np.ndarray:
    """Complete a unit column v to a unitary whose column 0 is v.

    One Householder reflection (Householder 1958): with phi the phase of v[0]
    (1 when v[0] = 0) and w = e_0 - v/phi, phi (I - 2 ww^dag/|w|^2) maps e_0
    to v, and it is phi I when w = 0.  Column 0 is then stored as v itself, so
    every encoded block, which reads only that column, carries v exactly.
    """
    v, phi, head, scale = householder_terms(column, dimension)
    out = phi * np.eye(dimension, dtype=complex)
    if scale is not None:
        w = -v / phi
        w[0] = head
        out -= scale * np.outer(w, w.conj())
    out[:, 0] = v
    return out


# ---------------------------------------------------------------------------
# Register-structured assembly
# ---------------------------------------------------------------------------

def place_middle_blocks(
    front: int,
    mid: int,
    back: int,
    blocks: Mapping[tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Assemble sum_{(r,c)} |r><c|_mid tensored into operators on (front x back).

    Each block acts on the front and back registers with the mid register
    pinned to the given (row, column) pair.
    """
    out_dim = front * mid * back
    ensure_dimension(out_dim)
    out = np.zeros((front, mid, back, front, mid, back), dtype=complex)
    for (r, c), op in blocks.items():
        if not (0 <= r < mid and 0 <= c < mid):
            raise ValueError("block index outside the middle register")
        op = as_complex_matrix(op)
        if op.shape != (front * back, front * back):
            raise ValueError("block shape inconsistent with front/back dimensions")
        out[:, r, :, :, c, :] = op.reshape(front, back, front, back)
    return out.reshape(out_dim, out_dim)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def parse_complex_token(token: str) -> complex:
    text = token.strip()
    if not text:
        raise ValueError("empty matrix entry")
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse matrix entry {token!r}") from exc


def format_complex(value: complex) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}j"


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix from CSV: one row per line, entries comma separated.

    Real entries are plain numbers; complex entries use ``re+imj`` tokens.
    """
    rows: list[list[complex]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([parse_complex_token(t) for t in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows; all rows must have {width} entries")
    return as_complex_matrix(np.array(rows, dtype=complex))


def write_matrix_csv(path, matrix) -> None:
    matrix = as_complex_matrix(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(format_complex(v) for v in row))
            fh.write("\n")


def read_vector_csv(path) -> np.ndarray:
    """Read a vector stored one entry per line (a single-column CSV)."""
    m = read_matrix_csv(path)
    if m.shape[1] != 1 and m.shape[0] != 1:
        raise ValueError(f"{path}: expected a single-column (or single-row) vector file")
    return m.reshape(-1)
