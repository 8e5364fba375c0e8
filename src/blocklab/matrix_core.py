"""Dense matrix substrate used by every encoding construction: Kronecker
products, power-of-two embeddings, unitarity checks, Householder completions
of a stack of columns, and CSV interchange.

Conventions:
  * One dtype rule: an array is ``float64`` when its data is real and
    ``complex128`` when its dtype is complex; matrices are dense and
    row-major.  Validation keeps a real input real, every construction works
    in the dtype of its inputs, and a node of mixed children takes
    ``np.result_type`` of them, so complex arithmetic appears only where a
    complex number does.
  * Qubit registers are big-endian: the most significant index factor is the
    leftmost register.  Ancilla registers always occupy the most significant
    positions, so the encoded block of a unitary is its leading submatrix.
  * Total unitary dimension is capped at ``2**cap_qubits()`` (default 2**14,
    overridable via the ``BLOCKLAB_CAP_QUBITS`` environment variable).
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_CAP_QUBITS = 14
UNITARY_TOL = 1e-10
# Below this dimension one dense Gram costs less than a split into two blocks
# (one BLAS thread: 22 against 39 us at d = 64, 107 against 68 us at 128).
_SPLIT_MIN_DIM = 128


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


def ensure_dimension(*dims: int) -> None:
    """Raise CapExceededError for the first dim x dim dense unitary over budget."""
    qubits = cap_qubits()  # one read per call: the variable may change between calls
    for dim in dims:
        if dim > 1 << qubits:
            raise CapExceededError(f"dimension {dim} exceeds the simulator cap "
                                   f"2**{qubits} = {1 << qubits}")


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    if n < 1:
        raise ValueError("dimension must be positive")
    return 1 << (n - 1).bit_length()


def register_dim(*sizes: int) -> int:
    """The power-of-two register, at least 2, that holds every size."""
    return next_power_of_two(max(2, *sizes))


def qubit_count(dim: int) -> int:
    """Exact log2 of a power-of-two dimension."""
    if not is_power_of_two(dim):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def as_array(a) -> np.ndarray:
    """``a`` as an array under the dtype rule: complex128 when its dtype is
    complex, float64 otherwise; it copies only to convert."""
    arr = np.asarray(a)
    return np.asarray(arr, dtype=complex if arr.dtype.kind == "c" else float)


def as_matrix(m) -> np.ndarray:
    """Validate input as a non-empty, finite, C-contiguous 2-D array under the
    dtype rule (``as_array``).  It may return ``m`` itself: a caller that
    keeps the array copies it."""
    arr = as_array(m)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError("matrix must be non-empty")
    if not np.isfinite(arr).all():  # a complex entry is finite iff both parts are
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(arr)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the size cap enforced on the result."""
    a = as_matrix(a)
    b = as_matrix(b)
    out_dim = max(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    ensure_dimension(out_dim)
    return np.kron(a, b)


def embed_power_of_two(a, dim: int | None = None) -> np.ndarray:
    """Embed a matrix as the leading block of a dim x dim square.

    ``dim`` defaults to ``register_dim`` of both sides.  Returns the input
    unchanged when it is already dim x dim.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    if dim is None:
        dim = register_dim(rows, cols)
    elif rows > dim or cols > dim:
        raise ValueError("embedding target smaller than the matrix")
    if rows == cols == dim:
        return a
    out = np.zeros((dim, dim), dtype=a.dtype)
    out[:rows, :cols] = a
    return out


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    """True iff U is square and max|U^dag U - I| <= tol; see
    ``is_unitary_matrix``."""
    return is_unitary_matrix(as_matrix(u), tol)


def is_unitary_matrix(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """``is_unitary`` for a matrix ``as_matrix`` has already returned: it
    converts and validates nothing again.

    Every entry of U^dag U is compared with the identity.  A U that is block
    diagonal or anti-diagonal on one qubit (``_direct_sum_blocks``), as a
    dilation's walk is, has U^dag U the direct sum of its two blocks' Grams
    exactly, so each block is checked by this same rule: a quarter of the
    flops per split.  Otherwise the Gram product is formed in U's dtype.  A
    real U is read in place, and the Gram and its absolute values share one
    ``float64`` buffer of 8 d^2 bytes.  A complex U whose imaginary part is
    exactly zero is reduced to a contiguous copy of its real part first, so
    its temporaries take 16 d^2 bytes instead of 32 d^2.
    """
    if u.shape[0] != u.shape[1]:
        raise ValueError("is_unitary requires a square matrix")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    blocks = _direct_sum_blocks(u)
    if blocks is not None:
        return all(is_unitary_matrix(block, tol) for block in blocks)
    if u.dtype.kind == "c" and not u.imag.any():
        u = np.ascontiguousarray(u.real)
    gram = u.conj().T @ u  # conj() of a real array is the array itself
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    real = gram.dtype.kind == "f"
    return bool(np.max(np.abs(gram, out=gram if real else None)) <= tol)


def _direct_sum_blocks(u: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The two nonzero d/2 x d/2 blocks of U on a qubit it never mixes or
    always flips, or None; None below ``_SPLIT_MIN_DIM``.

    Row 0 names the candidate qubits in O(d): a flipped one is set in every
    nonzero column of row 0 (a bitwise AND), an unmixed one in none (the
    complement of a bitwise OR).  One pass then confirms, for the highest
    candidate, that the other two quarters are exact zeros.
    """
    d = u.shape[0]
    if d < _SPLIT_MIN_DIM or not is_power_of_two(d):
        return None
    cols = np.flatnonzero(u[0])
    # (candidate bits, the order of the row halves that makes U block anti-diagonal)
    for bits, rows in ((np.bitwise_and.reduce(cols) & (d - 1), slice(None)),
                       (~np.bitwise_or.reduce(cols, initial=0) & (d - 1), slice(None, None, -1))):
        if bits:
            q = 1 << (int(bits).bit_length() - 1)
            v = u.reshape(d // (2 * q), 2, q, d // (2 * q), 2, q)[:, rows]
            if not v.diagonal(0, 1, 4).any():  # quarters (0, 0) and (1, 1)
                h = d // 2
                return v[:, 0, :, :, 1, :].reshape(h, h), v[:, 1, :, :, 0, :].reshape(h, h)
    return None


def is_hermitian(m, tol: float = 1e-10) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def spectral_norm(m) -> float:
    """Largest singular value, the bits of ``np.linalg.norm(m, 2)``."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def householder_terms(columns, dimension: int) -> tuple[np.ndarray, ...]:
    """The checked unit columns v (a k x ``dimension`` stack) and the terms
    (phi, head, scale) of their Householder completions, one per column, all
    in the columns' dtype (``as_array``).

    phi is the phase of v[0] (1 when v[0] = 0; the sign of v[0] for real
    columns), head is w[0] = 1 - |v[0]| for w = e_0 - v/phi, and scale is
    2 phi/|w|^2 (0 when w = 0).  It raises ``ValueError`` unless every column
    has length ``dimension`` and is a unit vector within 1e-10.  A scale that
    overflows makes its completion non-finite.
    """
    v = as_array(columns)
    if v.ndim != 2 or v.shape[1] != dimension:
        raise ValueError("prescribed column has wrong dimension")
    if (np.abs(np.vecdot(v, v) - 1.0) > 1e-10).any():
        raise ValueError("prescribed column is not a unit vector within 1e-10")
    lead = np.hypot(v[:, 0].real, v[:, 0].imag)  # abs() of each entry, bit for bit
    phi = np.ones(len(v), dtype=v.dtype)
    np.divide(v[:, 0], lead, out=phi, where=lead > 0.0)
    tail = np.vecdot(v[:, 1:], v[:, 1:]).real
    # 1 - |v[0]| written as tail / (1 + |v[0]|): no cancellation near v = phi e_0
    head = tail / (1.0 + lead)
    norm2 = head * head + tail
    scale = np.zeros(len(v), dtype=v.dtype)
    np.divide(2.0 * phi, norm2, out=scale, where=norm2 > 0.0)
    return v, phi, head, scale


def householder_completions(terms) -> np.ndarray:
    """The k x d x d unitaries, one per column of ``householder_terms``,
    whose column 0 is that column v, in the columns' dtype.

    One Householder reflection (Householder 1958): phi (I - 2 ww^dag/|w|^2)
    maps e_0 to v, and it is phi I when w = 0.  Column 0 is then stored as v
    itself, so every encoded block, which reads only that column, carries v
    exactly.
    """
    v, phi, head, scale = terms
    out = phi[:, None, None] * np.eye(v.shape[1], dtype=v.dtype)
    w = -v / phi[:, None]
    w[:, 0] = head
    outer = w[:, :, None] * w[:, None, :].conj()
    # where w = 0, phi I stays as it is, signed zeros included
    np.subtract(out, scale[:, None, None] * outer, out=out, where=(scale != 0.0)[:, None, None])
    out[:, :, 0] = v
    return out


def unitary_completion(column, dimension: int) -> np.ndarray:
    """Complete one unit column to a unitary: the batch of one."""
    column = as_array(column).reshape(1, -1)
    return householder_completions(householder_terms(column, dimension))[0]


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


def jsonable(value):
    """``value`` with its numpy scalars and arrays and its complex numbers as the
    built-in types ``json.dumps`` writes, and its dict keys as strings."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if not value.imag.any():  # the floats _json_entry gives, -0.0 included
            return value.real.astype(float, copy=False).tolist()
        if value.ndim == 2:
            return [[_json_entry(v) for v in row] for row in value]
        return [_json_entry(v) for v in value]
    if isinstance(value, (np.bool_, np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return _json_entry(value)
    return value


def _json_entry(v):
    """A real value as a float, any other as ``format_complex`` text."""
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return format_complex(v)


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix from CSV: one row per line, entries comma separated.

    Real entries are plain numbers; complex entries use ``re+imj`` tokens.
    The matrix is ``float64`` when every entry is real, else ``complex128``.
    A line of plain numbers is parsed by ``float``, which accepts a subset
    of what ``parse_complex_token`` accepts, with the same values; any other
    line is parsed token by token, and its first bad token raises
    ``ValueError`` as ``path:line: message``.
    """
    rows: list[list] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            try:
                rows.append(list(map(float, tokens)))
            except ValueError:
                try:
                    rows.append([parse_complex_token(t) for t in tokens])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows; all rows must have {width} entries")
    m = np.array(rows)
    if m.dtype.kind == "c" and not m.imag.any():
        m = m.real  # complex syntax, real values
    return as_matrix(m)


def write_matrix_csv(path, matrix) -> None:
    matrix = as_matrix(matrix)
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
