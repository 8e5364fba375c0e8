"""Dense complex matrix substrate: Kronecker products, power-of-two embeddings,
unitarity checks, Householder completions of a stack of columns, and
register-structured assembly helpers used by every encoding construction.

Conventions:
  * All matrices are dense ``complex128`` ndarrays, row-major.  The one
    exception is inside the unitarity check: for a real matrix (an imaginary
    part that is exactly zero) its temporaries are ``float64``.
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
    qubits = cap_qubits()  # one read per call: the variable may change between calls
    if dim > 1 << qubits:
        raise CapExceededError(
            f"dimension {dim} exceeds the simulator cap 2**{qubits} = {1 << qubits}"
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
    """True iff U is square and max|U^dag U - I| <= tol.

    For a real U (its imaginary part exactly zero) the Gram product and its
    temporaries are ``float64``; see ``is_unitary_matrix``.
    """
    return is_unitary_matrix(as_complex_matrix(u), tol)


def is_unitary_matrix(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """``is_unitary`` for a matrix ``as_complex_matrix`` has already
    returned: it converts and validates nothing again.

    When the imaginary part is exactly zero, U^dag U = R^T R for R = Re U is
    formed as one ``float64`` product on a contiguous copy of R, and every
    entry of it is still compared with the identity.  The temporaries (R and
    the Gram) then take 16 d^2 bytes instead of 32 d^2.
    """
    if u.shape[0] != u.shape[1]:
        raise ValueError("is_unitary requires a square matrix")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    real = not u.imag.any()
    if real:
        u = np.ascontiguousarray(u.real)
    gram = u.conj().T @ u  # conj() of a real array is the array itself
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return bool(np.max(np.abs(gram, out=gram if real else None)) <= tol)


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


def householder_terms(columns, dimension: int) -> tuple[np.ndarray, ...]:
    """The checked unit columns v (a k x ``dimension`` stack) and the terms
    (phi, head, scale) of their Householder completions, one per column.

    phi is the phase of v[0] (1 when v[0] = 0), head is w[0] = 1 - |v[0]|
    for w = e_0 - v/phi, and scale is 2 phi/|w|^2 (0 when w = 0).  It raises
    ``ValueError`` unless every column has length ``dimension`` and is a unit
    vector within 1e-10.  A scale that overflows makes its completion
    non-finite.
    """
    v = np.asarray(columns, dtype=complex)
    if v.ndim != 2 or v.shape[1] != dimension:
        raise ValueError("prescribed column has wrong dimension")
    if (np.abs(np.vecdot(v, v) - 1.0) > 1e-10).any():
        raise ValueError("prescribed column is not a unit vector within 1e-10")
    lead = np.hypot(v[:, 0].real, v[:, 0].imag)  # abs() of each entry, bit for bit
    phi = np.ones(len(v), dtype=complex)
    np.divide(v[:, 0], lead, out=phi, where=lead > 0.0)
    tail = np.vecdot(v[:, 1:], v[:, 1:]).real
    # 1 - |v[0]| written as tail / (1 + |v[0]|): no cancellation near v = phi e_0
    head = tail / (1.0 + lead)
    norm2 = head * head + tail
    scale = np.zeros(len(v), dtype=complex)
    np.divide(2.0 * phi, norm2, out=scale, where=norm2 > 0.0)
    return v, phi, head, scale


def householder_completions(terms) -> np.ndarray:
    """The k x d x d unitaries, one per column of ``householder_terms``,
    whose column 0 is that column v.

    One Householder reflection (Householder 1958): phi (I - 2 ww^dag/|w|^2)
    maps e_0 to v, and it is phi I when w = 0.  Column 0 is then stored as v
    itself, so every encoded block, which reads only that column, carries v
    exactly.
    """
    v, phi, head, scale = terms
    out = phi[:, None, None] * np.eye(v.shape[1], dtype=complex)
    w = -v / phi[:, None]
    w[:, 0] = head
    outer = w[:, :, None] * w[:, None, :].conj()
    # where w = 0, phi I stays as it is, signed zeros included
    np.subtract(out, scale[:, None, None] * outer, out=out, where=(scale != 0.0)[:, None, None])
    out[:, :, 0] = v
    return out


def unitary_completion(column, dimension: int) -> np.ndarray:
    """Complete one unit column to a unitary: the batch of one."""
    column = np.asarray(column, dtype=complex).reshape(1, -1)
    return householder_completions(householder_terms(column, dimension))[0]


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
