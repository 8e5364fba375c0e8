"""Centering-specific unitaries and encodings: the reflection-based centering
unitary, and one real symmetric leaf law on one ancilla that encodes the
centering projector C = I - (1/n) ee^T over the true samples (per class when
the slots carry classes), the class-similarity matrix E and its square root
E^1/2 on the same slots.  All of them are real and stored as ``float64``.

The register slots are the one class layout: each slot holds a class or is
empty, in the samples' own order.  The centering encoding removes each class
mean over its own samples, and the similarity encodings link the slots of
one class; all are zero on empty slots.  Every such leaf is Hermitian by
its law, so a walk reads it without comparing it with its adjoint.  The
one-class centering leaf is built once per (n, size) and shared by every
call that asks for it; the size cap is checked on every call.
"""

from __future__ import annotations

import functools

import numpy as np

from .block_encoding import BlockEncoding
from .matrix_core import ensure_dimension, is_power_of_two, kron, qubit_count, register_dim

__all__ = [
    "build_uc",
    "centering_encoding",
    "similarity_encoding",
]

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# Round-off of a class leaf's block, read as alpha * block, per unit of
# alpha, with u = 2^-53; fixed from the operation counts, never measured.
# For E and E^1/2 every entry of the block on class g is the same number
# cos_g / n_g: for E, 1 / n_max (one rounding), and for E^1/2,
# 1 / sqrt(n_max n_g) of an exact integer (two).  alpha is n_max (exact) or
# sqrt(n_max) (one rounding), and scaling the block by it rounds once more,
# so each entry alpha cos_g / n_g of alpha * block is within
# gamma_4 = 4u / (1 - 4u) < 5u of its target, relatively.  The error on
# class g is then e_g 1_g 1_g^T with |e_g| < 5u alpha cos_g / n_g, of norm
# n_g |e_g| < 5u alpha.  For C (alpha 1, exact) the block on class g is
# -1 / n_g off the diagonal and 1 - 1 / n_g on it: the error is e_g 1_g 1_g^T
# with |e_g| <= u / n_g, plus a diagonal of the subtraction's roundings,
# each at most u, so its norm is at most 2u.  Classes are orthogonal, and
# off-class entries and empty slots are exact zeros.
_CLASS_LEAF_ROUNDING = 5 * np.finfo(float).eps / 2


def build_uc(log_n: int) -> np.ndarray:
    """Reflection unitary H^{(x)k} (2|0><0| - I) H^{(x)k} = (2/n) ee^T - I,
    real (``float64``).

    An involution; the centering projector is C = (I - U_c) / 2.
    """
    if log_n < 1:
        raise ValueError("log_n must be at least 1")
    n = 1 << log_n
    ensure_dimension(n)
    h = _HADAMARD
    for _ in range(log_n - 1):
        h = kron(h, _HADAMARD)
    reflect = -np.eye(n)
    reflect[0, 0] = 1.0
    return h @ reflect @ h


def _slots(classes, dim: int | None) -> np.ndarray:
    """The class of each slot of the ``_register`` (-1 for an empty one), for a
    sample count n (n slots of one class) or one class id per sample."""
    if isinstance(classes, (int, np.integer)):
        labels = np.zeros(max(int(classes), 0), dtype=int)  # n < 1 is refused by _register
    else:
        labels = np.asarray(classes).reshape(-1)
        if labels.dtype.kind not in "iu" or labels.size == 0 or labels.min() < -1 \
                or labels.max() < 0:
            raise ValueError("slot classes must be integers >= -1 with a sample in one")
    slots = np.full(_register(labels.size, dim), -1)
    slots[: labels.size] = labels
    return slots


def _register(n: int, dim: int | None) -> int:
    """The slot register for n samples, ``dim`` or by default
    ``register_dim(n)``; it and the 2 dim class leaf on it are checked
    against the size cap, in that order, in one read."""
    if n < 1:
        raise ValueError("a class layout needs at least one sample")
    if dim is None:
        dim = register_dim(n)
    if not is_power_of_two(dim) or dim < max(2, n):
        raise ValueError("the slot register must be a power of two >= 2 "
                         "holding every sample")
    ensure_dimension(dim, 2 * dim)
    return dim


@functools.lru_cache(maxsize=None)
def _one_class_centering(n: int, dim: int) -> BlockEncoding:
    """The immutable centering leaf of one class on the first n of dim slots,
    shared by every call for that layout."""
    return _class_leaf(_slots(n, dim), "center")


def centering_encoding(classes, dim: int | None = None) -> BlockEncoding:
    """(1, 1, eps) encoding of the zero-embedded projector C = sum_g (P_g - u_g u_g^dag).

    P_g projects onto the register slots of class g and u_g is the uniform
    state over them, so C removes each class mean over the true samples and
    is exactly zero on empty slots.  ``classes`` is a sample count n (one
    class; the block is ``oracles.centering_matrix(n)`` zero-embedded) or
    the class of each slot, -1 for an empty one; slots past them, up to
    ``dim``, are empty.  C is a projector, so the leaf
    [[C, I - C], [I - C, -C]] is a real symmetric unitary; it declares the
    a-priori round-off bound ``_CLASS_LEAF_ROUNDING``.
    """
    if isinstance(classes, (int, np.integer)):  # a cached leaf is not certified again
        return _one_class_centering(int(classes), _register(int(classes), dim))
    return _class_leaf(_slots(classes, dim), "center")


class _ClassLeaf(BlockEncoding):
    """A class leaf, Hermitian by its law: [[A, S], [S, -A]] with A and S
    real symmetric, kept as ``_class_leaf`` wrote it, without a copy."""

    __slots__ = ()
    hermitian = True

    def __init__(self, matrix: np.ndarray, alpha: float, epsilon: float):
        self._certify(alpha, 1, epsilon, qubit_count(matrix.shape[0]) - 1, matrix.shape[0], ())
        matrix.setflags(write=False)
        object.__setattr__(self, "_cache", matrix)


def _class_leaf(slots: np.ndarray, law: str) -> BlockEncoding:
    """The real symmetric unitary [[A, S], [S, -A]] on one ancilla over ``slots``.

    On the occupied slots A = sum_g (a_g u_g u_g^dag + b (P_g - u_g u_g^dag))
    and S = sqrt(I - A^2); on the empty ones A = 0 and S = I.  A and S
    commute and A^2 + S^2 = I, so the leaf is its own inverse.  The law is
    "center" (a_g = 0, b = 1: A = C, S = I - C, alpha 1), "similarity"
    (a_g = n_g / n_max, b = 0: A = E / n_max, alpha n_max) or "root"
    (a_g = sqrt(n_g / n_max), b = 0: A = E^1/2 / sqrt(n_max), alpha
    sqrt(n_max)).  On class g, A and S are b I and (1 - b) I plus the
    numbers (a_g - b) / n_g and (sin_g - 1 + b) / n_g; every square root is
    of an exact integer.
    """
    occupied = slots >= 0
    counts = np.bincount(slots[occupied])[slots[occupied]]
    n_max = int(counts.max())
    if law == "center":
        b, alpha = 1.0, 1.0
        a_g, s_g = -1.0 / counts, 1.0 / counts
    elif law == "root":
        b, alpha = 0.0, float(np.sqrt(n_max))
        a_g = 1.0 / np.sqrt(n_max * counts)  # cos_g / n_g
        s_g = (np.sqrt(n_max * (n_max - counts)) / n_max - 1.0) / counts
    else:
        b, alpha = 0.0, float(n_max)
        a_g = np.full(counts.shape, 1.0 / n_max)
        s_g = (np.sqrt((n_max - counts) * (n_max + counts)) / n_max - 1.0) / counts
    n = slots.size
    same = (slots[:, None] == slots[None, :]) & occupied[:, None]
    out = np.zeros((2 * n, 2 * n))
    a, s = out[:n, :n], out[:n, n:]  # written in place; S is then copied, -A negated
    for quadrant, v in ((a, a_g), (s, s_g)):
        row = np.zeros(n)
        row[occupied] = v
        np.copyto(quadrant, row[:, None], where=same)
    a[np.diag_indices(n)] += b * occupied
    s[np.diag_indices(n)] += np.where(occupied, 1.0 - b, 1.0)
    out[n:, :n] = s
    np.negative(a, out=out[n:, n:])
    return _ClassLeaf(out, alpha=alpha, epsilon=_CLASS_LEAF_ROUNDING * alpha)


def similarity_encoding(classes, dim: int | None = None) -> BlockEncoding:
    """(n_max, 1, eps) encoding of the zero-embedded similarity E = sum_g 1_g 1_g^T.

    ``classes`` and ``dim`` are read as by ``centering_encoding``: E_ij is 1
    when slots i and j hold the same class and 0 otherwise, so an int n
    gives the all-ones matrix on the first n slots.  With n_max the largest
    class size, the leaf is the real Hermitian unitary [[A, S], [S, -A]] with
    A = E / n_max = sum_g (n_g / n_max) u_g u_g^dag and S = sqrt(I - A^2),
    written in closed form.  It declares the a-priori round-off bound
    ``_CLASS_LEAF_ROUNDING`` per unit of alpha.
    """
    return _class_leaf(_slots(classes, dim), "similarity")


def similarity_root(classes, dim: int | None = None) -> BlockEncoding:
    """(sqrt(n_max), 1, eps) encoding of E^1/2 = sum_g sqrt(n_g) u_g u_g^dag.

    The same leaf as ``similarity_encoding``, with cos_g = sqrt(n_g / n_max).
    E^1/2 is symmetric and squares to E, so B = E^1/2 C X^dag has the Gram
    matrix X C E C X^dag.
    """
    return _class_leaf(_slots(classes, dim), "root")
