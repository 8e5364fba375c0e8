"""Amplitude-based data-matrix encodings: the binary norm tree that defines
the preparation states, the per-register row and norm completions, the
encoding unitary U_rows^dag U_norms written out entrywise from them (scale
||X||_F), and the Hermitian dilation node of an encoding.

The data encoding is a lazy leaf: it holds its own copy of X, the norm tree
and the encoded block X / ||X||_F, built in one vectorised O(n^2) pass from
column 0 of each completion.  The n^2 x n^2 unitary is written out on its
first read and kept.  Construction runs every check the completions run, so
it rejects what building the unitary would.  The leaf declares the a-priori
round-off bound 5u ||X||_F (u = 2^-53) as its eps, plus n max |x_qc| over any
nonzero row whose norm underflows to 0; nothing is measured.  Its
``hermitian`` law is False and the dilation's True, so it walks dilated.

Storage convention: entry (r, c) of a stored matrix is component r of sample
c.  Row vectors of the norm tree are rows of the stored matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding
from .matrix_core import (
    as_array,
    as_matrix,
    ensure_dimension,
    householder_completions,
    householder_terms,
    is_power_of_two,
    next_power_of_two,
    qubit_count,
)

__all__ = [
    "NormTree",
    "build_norm_tree",
    "matrix_encoding",
    "preparation_unitaries",
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
    pad = next_power_of_two(sq.shape[1]) - sq.shape[1]
    s = np.pad(sq, ((0, 0), (0, pad))) if pad else sq
    while s.shape[1] > 1:
        s = s[:, 0::2] + s[:, 1::2]
    return s[:, 0]


def build_norm_tree(x) -> NormTree:
    """Deterministic partial-sum structure for the preparation amplitudes."""
    x = as_matrix(x)
    row_norm_sq = _pairwise_sums(np.abs(x) ** 2)
    frobenius = float(np.sqrt(_pairwise_sums(row_norm_sq[np.newaxis, :])[0]))
    if frobenius == 0.0:
        raise ValueError("matrix has Frobenius norm zero; nothing to encode")
    return NormTree(row_norms=np.sqrt(row_norm_sq), frobenius_norm=frobenius)


def _square_power_of_two(x: np.ndarray) -> int:
    """n for an n x n matrix with n = 2^k >= 2."""
    n = x.shape[0]
    if x.shape[0] != x.shape[1] or not is_power_of_two(n) or n < 2:
        raise ValueError("preparation requires a square power-of-two matrix "
                         "of dimension >= 2; embed first")
    return n


def _preparation_terms(x: np.ndarray, tree: NormTree) -> tuple[np.ndarray, ...]:
    """Householder terms of the conjugated, normalized rows of ``x`` (e_0
    for a zero row) and, last, the row-norm state; it also raises when a
    completion would not be finite."""
    n = x.shape[0]
    columns = np.zeros((n + 1, n), dtype=x.dtype)
    columns[:, 0] = 1.0  # e_0, kept for a zero row
    norms = tree.row_norms[:, np.newaxis]
    np.divide(np.conj(x), norms, out=columns[:n], where=norms > 0.0)
    columns[n] = tree.row_norms / tree.frobenius_norm
    terms = householder_terms(columns, n)
    if not np.isfinite(terms[3]).all():
        raise ValueError("matrix entries must be finite")  # as the unitary would be
    return terms


def preparation_unitaries(x, tree: NormTree | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The per-register completions (R, W) behind the two preparation unitaries.

    ``R[i]`` is the completion of the conjugated, normalized row i (the
    identity for a zero row) and ``W`` the completion of the row-norm column,
    so the prescribed columns are met exactly and the rest is deterministic.
    On a (row x column) register pair they prepare |0>|i> -> |i>|r_i> and
    |0>|j> -> (row-norm state)|j>.  ``tree`` is the norm tree of ``x`` when
    the caller has built it already.
    """
    x = as_matrix(x)
    n = _square_power_of_two(x)
    ensure_dimension(n * n)
    if tree is None:
        tree = build_norm_tree(x)
    completions = householder_completions(_preparation_terms(x, tree))
    return completions[:-1], completions[-1]


# Round-off of the leaf's block X / F (F the computed ||X||_F), per unit of
# F, with u = 2^-53; fixed from the operation counts, never measured.  For a
# complex X each real component of the entry conj(x_qc / r_q) (r_q / F) takes
# at most 4 roundings: the complex / real division (numpy may form 1 / r_q,
# then a product), r_q / F and the final product.  A real X is kept in
# float64, and its entry takes 3: the real division x_qc / r_q, r_q / F and
# the product.  The computed row norm r_q cancels, so
# ||X - F block||_2 <= ||X - F block||_F <= gamma_4 ||X||_F, gamma_k =
# ku / (1 - ku), and gamma_3 < gamma_4 for a real X.  F is within O(u log n)
# of ||X||_F and gradual underflow in the block entries adds at most
# n 2^-1074 F, so this is <= 5u F for every n under the cap.  That holds
# for the rows whose computed norm is positive.  A nonzero row whose squared
# entries all underflow (|x| < 2^-537.5) has norm 0 and encodes as zeros, so
# the leaf adds n max |x_qc| over such rows, which exceeds their Frobenius
# mass by a factor of at least 1 + 1/(2n).
_LEAF_ROUNDING = 5 * np.finfo(float).eps / 2


class _DataLeaf(BlockEncoding):
    """Leaf encoding of a data matrix whose unitary is built on first read.

    It holds its own copy of X in X's dtype (float64 for real data), the norm
    tree and the encoded block, and builds its unitary in that dtype.  Column
    0 of R_q is the normalized row r_q (e_0 for a zero row) and column 0 of
    W is the row-norm state, so the block entry conj(R_q[c, 0]) W[q, 0] is
    formed from those columns alone, with the same bits as the unitary.
    """

    __slots__ = ("_x", "_tree", "_corner")
    hermitian = False

    def __init__(self, x):
        x = np.array(as_array(x), order="C")  # the caller keeps its own array
        tree = build_norm_tree(x)  # validates x as as_matrix does
        n = _square_power_of_two(x)
        frob = tree.frobenius_norm
        eps = _LEAF_ROUNDING * frob
        lost = tree.row_norms == 0.0  # zero rows, and rows whose |x|^2 all underflow
        if lost.any():
            eps += n * float(np.abs(x[lost]).max())
        self._certify(frob, qubit_count(n), eps, qubit_count(n), n * n, ())
        v = _preparation_terms(x, tree)[0]
        corner = np.einsum("qc,q->qc", v[:-1].conj(), v[-1])
        corner.setflags(write=False)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_corner", corner)

    def _materialize(self) -> np.ndarray:
        rows, w = preparation_unitaries(self._x, self._tree)
        # order="C" lays the output out row-major, so reshape makes no second copy
        return np.einsum("qcp,qj->pqjc", rows.conj(), w, order="C").reshape(self.dim, self.dim)

    def _dense(self) -> np.ndarray:
        return self.unitary  # kept, so every parent node shares one build

    def _block(self) -> np.ndarray:
        return self._corner


def matrix_encoding(x) -> BlockEncoding:
    """(||X||_F, log2 n, eps) encoding of a square power-of-two matrix.

    The encoding unitary is U_rows^dag U_norms, with U_rows the select over
    R_i after a register swap and U_norms = W (x) I; its entry
    ((p, q), (j, c)) is conj(R_q[c, p]) W[q, j], so it is written out
    directly when first read.  Its leading block is X / ||X||_F, held from
    construction; the declared eps is the a-priori round-off bound
    5u ||X||_F of that block (``_LEAF_ROUNDING``), with u = 2^-53, plus
    n max |x_qc| over any nonzero row whose norm underflows to 0 and which
    therefore encodes as zeros.
    """
    return _DataLeaf(x)


class _Dilation(BlockEncoding):
    """[[0, U], [U^dag, 0]] on a middle qubit that sits between the child's
    ancillas and its system.

    The middle qubit joins the system as its most significant qubit, so the
    encoded block is [[0, b], [b^dag, 0]] for the block b of U.  The error
    [[0, D], [D^dag, 0]] has the norm of D, so the node keeps the child's
    (alpha, ancillas, epsilon).  Corner law: the same dilation of b.  The
    unitary is Hermitian whatever U is.
    """

    __slots__ = ()
    kind = "dilation"
    hermitian = True

    def __init__(self, inner: BlockEncoding):
        self._certify(inner.alpha, inner.ancillas, inner.epsilon, inner.system_qubits + 1,
                      2 * inner.dim, (inner,))

    def _materialize(self) -> np.ndarray:
        inner = self.children[0]
        a, s = 1 << inner.ancillas, inner.system_dim
        u = inner._dense()
        out = np.zeros((a, 2, s, a, 2, s), dtype=u.dtype)
        out[:, 0, :, :, 1, :] = u.reshape(a, s, a, s)
        out[:, 1, :, :, 0, :] = u.conj().T.reshape(a, s, a, s)
        return out.reshape(self.dim, self.dim)

    def _block(self) -> np.ndarray:
        b = self.children[0]._block()
        zero = np.zeros_like(b)
        return np.block([[zero, b], [b.conj().T, zero]])


def hermitian_dilation(be: BlockEncoding) -> BlockEncoding:
    """Encoding of [[0, M], [M^dag, 0]] from an encoding of M.

    Adds one system qubit (most significant) and keeps the scale factor,
    the ancillas and the declared error bound, since
    ||[[0, D], [D^dag, 0]]|| = ||D||.  Its unitary is Hermitian, so this is
    how to walk an encoding whose own unitary is not.
    """
    return _Dilation(be)
