"""Centering-specific unitaries and encodings: the reflection-based centering
unitary, the (1,1,0) encoding of the centering projector C = I - (1/n) ee^T
over the true samples (per class when the slots carry classes), and the
encodings of the class-similarity matrix E and of its square root E^1/2 on
the same slots, both one real Hermitian leaf on one ancilla.

The register slots are the one class layout: each slot holds a class or is
empty, in the samples' own order.  The centering encoding removes each class
mean over its own samples, and the similarity encodings link the slots of
one class; all are zero on empty slots.  The (1/2, -1/2) preparation pair
and the identity leaf are built once per size, and the one-class reflection
once per (n, size); they are shared by every centering encoding that uses
them.  Each call still returns a new combination node, and the size cap is
checked on every call.
"""

from __future__ import annotations

import functools

import numpy as np

from .block_encoding import (
    BlockEncoding,
    StatePrepPair,
    linear_combination,
    make_state_prep_pair,
    trivial_encoding,
)
from .matrix_core import ensure_dimension, is_power_of_two, kron, next_power_of_two, qubit_count

__all__ = [
    "centering_matrix",
    "build_uc",
    "centering_encoding",
    "similarity_encoding",
]

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# Round-off of a class leaf's block, read as alpha * block, per unit of
# alpha, with u = 2^-53; fixed from the operation counts, never measured.
# On class g every entry of the block is the same number cos_g / n_g: for E,
# 1 / n_max (one rounding), and for E^1/2, 1 / sqrt(n_max n_g) of an exact
# integer (two).  alpha is n_max (exact) or sqrt(n_max) (one rounding), and
# scaling the block by it rounds once more, so each entry alpha cos_g / n_g
# of alpha * block is within gamma_4 = 4u / (1 - 4u) < 5u of its target,
# relatively.  The error on class g is then e_g 1_g 1_g^T with
# |e_g| < 5u alpha cos_g / n_g, of norm n_g |e_g| < 5u alpha; classes are
# orthogonal, and off-class entries and empty slots are exact zeros.
_CLASS_LEAF_ROUNDING = 5 * np.finfo(float).eps / 2


def centering_matrix(n: int) -> np.ndarray:
    """The real projector I - (1/n) ee^T that removes means on multiplication."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def build_uc(log_n: int) -> np.ndarray:
    """Reflection unitary H^{(x)k} (2|0><0| - I) H^{(x)k} = (2/n) ee^T - I.

    An involution; the centering projector is C = (I - U_c) / 2.
    """
    if log_n < 1:
        raise ValueError("log_n must be at least 1")
    n = 1 << log_n
    ensure_dimension(n)
    h = _HADAMARD
    for _ in range(log_n - 1):
        h = kron(h, _HADAMARD)
    reflect = -np.eye(n, dtype=complex)
    reflect[0, 0] = 1.0
    return h @ reflect @ h


def _slots(classes, dim: int | None) -> np.ndarray:
    """The class of each register slot (-1 for an empty one), padded to dim.

    ``classes`` is a sample count n (n slots of one class) or one class id
    per sample; ``dim`` defaults to the smallest power of two >= 2 holding
    every sample.
    """
    if isinstance(classes, (int, np.integer)):
        if classes < 1:
            raise ValueError("a class layout needs at least one sample")
        labels = np.zeros(int(classes), dtype=int)
    else:
        labels = np.asarray(classes).reshape(-1)
        if labels.dtype.kind not in "iu" or labels.size == 0 or labels.min() < -1 \
                or labels.max() < 0:
            raise ValueError("slot classes must be integers >= -1 with a sample in one")
    if dim is None:
        dim = max(2, next_power_of_two(labels.size))
    if not is_power_of_two(dim) or dim < max(2, labels.size):
        raise ValueError("the slot register must be a power of two >= 2 "
                         "holding every sample")
    ensure_dimension(dim)
    slots = np.full(dim, -1)
    slots[: labels.size] = labels
    return slots


def _reflection(slots: np.ndarray) -> np.ndarray:
    """R = I - 2C for C = sum_g (P_g - u_g u_g^dag), in closed form.

    On a slot of class g with n_g samples the row is 2/n_g over the class
    minus the diagonal; an empty slot keeps R = I.  R is an exact
    reflection because C is a projector.
    """
    occupied = slots >= 0
    weight = np.zeros(slots.size)
    weight[occupied] = 2.0 / np.bincount(slots[occupied])[slots[occupied]]
    same = (slots[:, None] == slots[None, :]) & occupied[:, None]
    r = np.where(same, weight[:, None], 0.0).astype(complex)
    r[np.diag_indices(slots.size)] -= np.where(occupied, 1.0, -1.0)
    return r


@functools.lru_cache(maxsize=None)
def _centering_pair(dim: int) -> tuple[StatePrepPair, BlockEncoding]:
    """The (1/2, -1/2) pair and the identity leaf on a dim-slot register.

    Every centering encoding of that size shares them, so the pair's arrays
    are frozen.  The sizes are powers of two under the cap, so the cache
    holds at most one entry per allowed qubit count.
    """
    pair = make_state_prep_pair(np.array([0.5, -0.5]))
    for m in (pair.p_left, pair.p_right, pair.coefficients):
        m.setflags(write=False)
    return pair, trivial_encoding(np.eye(dim, dtype=complex))


@functools.lru_cache(maxsize=None)
def _total_reflection(n: int, dim: int) -> BlockEncoding:
    """The reflection leaf of one class on the first n of dim slots."""
    return trivial_encoding(_reflection(_slots(n, dim)))


def centering_encoding(classes, dim: int | None = None) -> BlockEncoding:
    """(1, 1, 0) encoding of the zero-embedded projector C = sum_g (P_g - u_g u_g^dag).

    P_g projects onto the register slots of class g and u_g is the uniform
    state over them, so C removes each class mean over the true samples and
    is exactly zero on empty slots.  ``classes`` is a sample count n (one
    class; the block is ``centering_matrix(n)`` zero-embedded) or the class
    of each slot, -1 for an empty one; slots past them, up to ``dim``, are
    empty.  The identity and the reflection R = I - 2C combine with
    coefficients (1/2, -1/2).
    """
    slots = _slots(classes, dim)
    pair, eye = _centering_pair(slots.size)
    if isinstance(classes, (int, np.integer)):
        reflect = _total_reflection(int(classes), slots.size)
    else:
        reflect = trivial_encoding(_reflection(slots))
    return linear_combination(pair, (eye, reflect), common_alpha=1.0)


def _class_leaf(classes, dim: int | None, root: bool) -> BlockEncoding:
    """The real Hermitian unitary [[A, S], [S, -A]] on one ancilla, with
    A = sum_g cos_g u_g u_g^dag and S = sqrt(I - A^2), on the slots of
    ``_slots(classes, dim)``.

    cos_g is n_g / n_max, or sqrt(n_g / n_max) when ``root``; A and S commute
    and A^2 + S^2 = I, so the leaf is its own inverse.  S is I on the empty
    slots and on the complement of the u_g, and sin_g on u_g.  Every square
    root is of an exact integer.
    """
    slots = _slots(classes, dim)
    occupied = slots >= 0
    counts = np.bincount(slots[occupied])[slots[occupied]]
    n_max = int(counts.max())
    if root:
        entry = 1.0 / np.sqrt(n_max * counts)  # cos_g / n_g
        sine = np.sqrt(n_max * (n_max - counts)) / n_max
        alpha = float(np.sqrt(n_max))
    else:
        entry = np.full(counts.shape, 1.0 / n_max)
        sine = np.sqrt((n_max - counts) * (n_max + counts)) / n_max
        alpha = float(n_max)
    same = (slots[:, None] == slots[None, :]) & occupied[:, None]
    a, s = np.zeros((2, slots.size))
    a[occupied] = entry
    s[occupied] = (sine - 1.0) / counts
    a, s = (np.where(same, v[:, None], 0.0) for v in (a, s))
    s[np.diag_indices(slots.size)] += 1.0
    return BlockEncoding(np.block([[a, s], [s, -a]]), alpha=alpha, ancillas=1,
                         epsilon=_CLASS_LEAF_ROUNDING * alpha,
                         system_qubits=qubit_count(slots.size))


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
    return _class_leaf(classes, dim, root=False)


def similarity_root(classes, dim: int | None = None) -> BlockEncoding:
    """(sqrt(n_max), 1, eps) encoding of E^1/2 = sum_g sqrt(n_g) u_g u_g^dag.

    The same leaf as ``similarity_encoding``, with cos_g = sqrt(n_g / n_max).
    E^1/2 is symmetric and squares to E, so B = E^1/2 C X^dag has the Gram
    matrix X C E C X^dag.
    """
    return _class_leaf(classes, dim, root=True)
