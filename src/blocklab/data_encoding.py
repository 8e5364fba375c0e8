"""Amplitude-based data-matrix encodings: the binary norm tree that defines
the preparation states, the two-register row/norm preparation unitaries whose
product block-encodes a stored matrix with scale ||X||_F, and the Hermitian
extension and dilation used for rectangular and non-Hermitian targets.

Storage convention: entry (r, c) of a stored matrix is component r of sample
c.  Row vectors of the norm tree are rows of the stored matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import (
    BlockEncoding,
    _off_diagonal_dilation_encoding,
)
from .matrix_core import (
    as_complex_matrix,
    embed_power_of_two,
    ensure_dimension,
    is_power_of_two,
    next_power_of_two,
    qubit_count,
    unitary_completion,
)

__all__ = [
    "NormTree",
    "build_norm_tree",
    "matrix_encoding",
    "preparation_unitaries",
    "hermitian_extension",
    "hermitian_dilation",
]


@dataclass(frozen=True)
class NormTree:
    """Binary partial-sum trees over squared entry magnitudes.

    ``row_levels[i]`` lists the levels of row i's tree from leaves |x_ij|^2 up
    to the single-entry root ||x_i||^2; ``norm_levels`` aggregates the row
    roots up to ||X||_F^2.
    """

    rows: tuple[np.ndarray, ...]
    row_norms: np.ndarray
    frobenius_norm: float
    row_levels: tuple[tuple[np.ndarray, ...], ...]
    norm_levels: tuple[np.ndarray, ...]


def _sum_tree(leaves: np.ndarray) -> tuple[np.ndarray, ...]:
    width = next_power_of_two(max(1, leaves.size))
    level = np.zeros(width)
    level[: leaves.size] = leaves
    levels = [level]
    while levels[-1].size > 1:
        prev = levels[-1]
        levels.append(prev[0::2] + prev[1::2])
    return tuple(levels)


def build_norm_tree(x) -> NormTree:
    """Deterministic partial-sum structure for the preparation amplitudes."""
    x = as_complex_matrix(x)
    sq = np.abs(x) ** 2
    row_levels = tuple(_sum_tree(sq[i]) for i in range(x.shape[0]))
    row_norm_sq = np.array([lv[-1][0] for lv in row_levels])
    norm_levels = _sum_tree(row_norm_sq)
    frobenius = float(np.sqrt(norm_levels[-1][0]))
    if frobenius == 0.0:
        raise ValueError("matrix has Frobenius norm zero; nothing to encode")
    return NormTree(
        rows=tuple(x[i].copy() for i in range(x.shape[0])),
        row_norms=np.sqrt(row_norm_sq),
        frobenius_norm=frobenius,
        row_levels=row_levels,
        norm_levels=norm_levels,
    )


def preparation_unitaries(x) -> tuple[np.ndarray, np.ndarray]:
    """The two completed preparation unitaries (rows, norms) for a matrix.

    Both act on a (row x column) register pair of log2(n) qubits each.  The
    row unitary maps |0>|i> to |i>|r_i> with r_i the conjugated, normalized
    row i (zero rows fall back to |i>|0>); the norm unitary maps |0>|j> to
    the row-norm state on the row register with the column register pinned
    to j.  Each is assembled from per-register completions, so the
    prescribed columns are met exactly and the rest is deterministic.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    if x.shape[0] != x.shape[1] or not is_power_of_two(n) or n < 2:
        raise ValueError("preparation requires a square power-of-two matrix "
                         "of dimension >= 2; embed first")
    dim = n * n
    ensure_dimension(dim)
    tree = build_norm_tree(x)

    # u_rows = select(R_i) composed with a register swap: |0>|i> -> |i>|r_i>
    u_rows = np.zeros((dim, dim), dtype=complex)
    swap = np.arange(dim).reshape(n, n).T.reshape(-1)
    for i in range(n):
        if tree.row_norms[i] > 0.0:
            r_i = np.conj(x[i]) / tree.row_norms[i]
            block = unitary_completion(r_i, n)
        else:
            block = np.eye(n, dtype=complex)
        u_rows[i * n:(i + 1) * n, i * n:(i + 1) * n] = block
    u_rows = u_rows[:, swap]

    # u_norms = W (x) I with W completing the row-norm column
    weights = tree.row_norms / tree.frobenius_norm
    u_norms = np.kron(unitary_completion(weights, n), np.eye(n, dtype=complex))
    return u_rows, u_norms


def matrix_encoding(x) -> BlockEncoding:
    """(||X||_F, log2 n, eps) encoding of a square power-of-two matrix.

    The product U_rows^dag U_norms of the two preparation unitaries has
    X / ||X||_F as its leading block; the declared eps is the measured
    residual, which sits at completion round-off.
    """
    x = as_complex_matrix(x)
    u_rows, u_norms = preparation_unitaries(x)
    n = x.shape[0]
    frob = build_norm_tree(x).frobenius_norm
    unitary = u_rows.conj().T @ u_norms
    measured = float(np.linalg.norm(x - frob * unitary[:n, :n], 2))
    return BlockEncoding(unitary, alpha=frob, ancillas=qubit_count(n),
                         epsilon=measured, system_qubits=qubit_count(n))


def hermitian_extension(x) -> np.ndarray:
    """[[0, X], [X^dag, 0]] with the extension qubit most significant.

    Rectangular input is first embedded into a power-of-two square, so the
    result is Hermitian with spectrum +/- the singular values of X (plus
    zeros contributed by any padding).
    """
    x = embed_power_of_two(as_complex_matrix(x))
    d = x.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, d:] = x
    out[d:, :d] = x.conj().T
    return out


def hermitian_dilation(be: BlockEncoding) -> BlockEncoding:
    """Encoding of [[0, M], [M^dag, 0]] from an encoding of M.

    Adds one system qubit (most significant); the scale factor is unchanged
    and the declared error bound doubles.
    """
    return _off_diagonal_dilation_encoding(be, epsilon=2.0 * be.epsilon)
