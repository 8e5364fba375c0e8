"""Amplitude-based data-matrix encodings: the binary norm tree that defines
the preparation states, the per-register row and norm completions, the
encoding unitary U_rows^dag U_norms written out entrywise from them (scale
||X||_F), and the Hermitian extension and dilation used for rectangular and
non-Hermitian targets.

Storage convention: entry (r, c) of a stored matrix is component r of sample
c.  Row vectors of the norm tree are rows of the stored matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding, adjoint_encoding, placement_encoding
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
    """Roots of the binary partial-sum trees over squared entry magnitudes:
    the row norms ||x_i|| and the Frobenius norm ||X||_F."""

    row_norms: np.ndarray
    frobenius_norm: float


def _pairwise_sums(sq: np.ndarray) -> np.ndarray:
    """Row sums of ``sq`` by pairwise halving over its zero-padded columns."""
    s = np.zeros((sq.shape[0], next_power_of_two(sq.shape[1])))
    s[:, : sq.shape[1]] = sq
    while s.shape[1] > 1:
        s = s[:, 0::2] + s[:, 1::2]
    return s[:, 0]


def build_norm_tree(x) -> NormTree:
    """Deterministic partial-sum structure for the preparation amplitudes."""
    x = as_complex_matrix(x)
    row_norm_sq = _pairwise_sums(np.abs(x) ** 2)
    frobenius = float(np.sqrt(_pairwise_sums(row_norm_sq[np.newaxis, :])[0]))
    if frobenius == 0.0:
        raise ValueError("matrix has Frobenius norm zero; nothing to encode")
    return NormTree(row_norms=np.sqrt(row_norm_sq), frobenius_norm=frobenius)


def preparation_unitaries(x, tree: NormTree | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The per-register completions (R, W) behind the two preparation unitaries.

    ``R[i]`` is the completion of the conjugated, normalized row i (the
    identity for a zero row) and ``W`` the completion of the row-norm column,
    so the prescribed columns are met exactly and the rest is deterministic.
    On a (row x column) register pair they prepare |0>|i> -> |i>|r_i> and
    |0>|j> -> (row-norm state)|j>.  ``tree`` is the norm tree of ``x`` when
    the caller has built it already.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    if x.shape[0] != x.shape[1] or not is_power_of_two(n) or n < 2:
        raise ValueError("preparation requires a square power-of-two matrix "
                         "of dimension >= 2; embed first")
    ensure_dimension(n * n)
    if tree is None:
        tree = build_norm_tree(x)
    rows = np.stack([unitary_completion(np.conj(x[i]) / norm, n) if norm > 0.0
                     else np.eye(n, dtype=complex) for i, norm in enumerate(tree.row_norms)])
    return rows, unitary_completion(tree.row_norms / tree.frobenius_norm, n)


def matrix_encoding(x) -> BlockEncoding:
    """(||X||_F, log2 n, eps) encoding of a square power-of-two matrix.

    The encoding unitary is U_rows^dag U_norms, with U_rows the select over
    R_i after a register swap and U_norms = W (x) I; its entry
    ((p, q), (j, c)) is conj(R_q[c, p]) W[q, j], so it is written out
    directly.  Its leading block is X / ||X||_F; the declared eps is the
    measured residual, which sits at completion round-off.
    """
    x = as_complex_matrix(x)
    tree = build_norm_tree(x)
    rows, w = preparation_unitaries(x, tree)
    n = x.shape[0]
    frob = tree.frobenius_norm
    # order="C" lays the output out row-major, so reshape makes no second copy
    unitary = np.einsum("qcp,qj->pqjc", rows.conj(), w, order="C").reshape(n * n, n * n)
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
    and the declared error bound doubles, one epsilon per off-diagonal.
    """
    return placement_encoding(2, {(0, 1): be, (1, 0): adjoint_encoding(be)})
