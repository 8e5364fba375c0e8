"""Centering-specific unitaries and encodings: the reflection-based centering
unitary, the (1,1,0) encoding of the centering projector C = I - (1/n) ee^T,
per-class centering, the all-ones rank-one matrix from cyclic shifts, and the
block-diagonal class-similarity matrix.

The terms of the centering encoding (the (1/2, -1/2) preparation pair and
the identity and reflection leaves) are built once per size and shared by
every centering encoding of that size; each call still returns a new
combination node, and the size cap is checked on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .block_encoding import (
    BlockEncoding,
    StatePrepPair,
    linear_combination,
    make_state_prep_pair,
    placement_encoding,
    trivial_encoding,
)
from .matrix_core import (
    embed_power_of_two,
    ensure_dimension,
    is_power_of_two,
    kron,
    next_power_of_two,
    qubit_count,
)

__all__ = [
    "ClassPartition",
    "centering_matrix",
    "similarity_matrix",
    "build_uc",
    "centering_encoding",
    "per_class_centering",
    "cyclic_shift",
    "ones_matrix_encoding",
    "similarity_encoding",
]

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class ClassPartition:
    """Class sizes n_k of a labeled sample set; n = sum n_k."""

    class_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.class_sizes:
            raise ValueError("partition needs at least one class")
        if any(nk < 1 for nk in self.class_sizes):
            raise ValueError("every class must contain at least one sample")
        object.__setattr__(self, "class_sizes", tuple(int(nk) for nk in self.class_sizes))

    @property
    def class_count(self) -> int:
        return len(self.class_sizes)

    @property
    def total(self) -> int:
        return sum(self.class_sizes)

    @property
    def max_class_size(self) -> int:
        return max(self.class_sizes)

    @property
    def block_dim(self) -> int:
        """Common power-of-two block size holding each class (at least 2)."""
        return max(2, next_power_of_two(self.max_class_size))

    @property
    def padded_class_count(self) -> int:
        return next_power_of_two(self.class_count)

    @property
    def padded_total(self) -> int:
        return self.padded_class_count * self.block_dim


def centering_matrix(n: int) -> np.ndarray:
    """The real projector I - (1/n) ee^T that removes means on multiplication."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def similarity_matrix(partition: ClassPartition) -> np.ndarray:
    """Real block-diagonal of per-class all-ones blocks on the padded layout.

    Class block k sits at offset k * block_dim, the layout the encodings use.
    """
    dim = partition.padded_total
    out = np.zeros((dim, dim))
    for k, nk in enumerate(partition.class_sizes):
        lo = k * partition.block_dim
        out[lo:lo + nk, lo:lo + nk] = 1.0
    return out


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


@functools.lru_cache(maxsize=None)
def _centering_terms(n: int) -> tuple[StatePrepPair, tuple[BlockEncoding, BlockEncoding]]:
    """The (1/2, -1/2) pair and the identity and reflection leaves at size n.

    Every centering encoding of that size shares them, so their arrays are
    frozen.  The sizes are powers of two under the cap, so the cache holds
    at most one entry per allowed qubit count.
    """
    uc = build_uc(qubit_count(n))
    pair = make_state_prep_pair(np.array([0.5, -0.5]))
    eye = np.eye(n, dtype=complex)
    for m in (eye, uc, pair.p_left, pair.p_right, pair.coefficients):
        m.setflags(write=False)
    return pair, (trivial_encoding(eye), trivial_encoding(uc))


def centering_encoding(n: int) -> BlockEncoding:
    """(1, 1, 0) encoding of the n-dimensional centering projector.

    Combines the identity and the reflection unitary with coefficients
    (1/2, -1/2); n must be a power of two (embed the data first otherwise).
    """
    if not is_power_of_two(n) or n < 2:
        raise ValueError("centering encoding requires n = 2^k with k >= 1")
    ensure_dimension(n)  # the cap holds for sizes whose terms are cached too
    pair, terms = _centering_terms(n)
    return linear_combination(pair, terms, common_alpha=1.0)


def per_class_centering(partition: ClassPartition) -> list[BlockEncoding]:
    """One (1,1,0) centering encoding per class at its padded dimension."""
    out = []
    for nk in partition.class_sizes:
        dim = max(2, next_power_of_two(nk))
        out.append(centering_encoding(dim))
    return out


def cyclic_shift(n: int, t: int) -> np.ndarray:
    """Permutation P_t with entries P[r, s] = 1 iff r = s + t (mod n)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    out = np.zeros((n, n), dtype=complex)
    for s in range(n):
        out[(s + t) % n, s] = 1.0
    return out


def ones_matrix_encoding(n_k: int) -> BlockEncoding:
    """(n_k, log2 n_k, 0) encoding of the all-ones matrix e e^T.

    The n_k cyclic shifts sum exactly to the all-ones matrix; combining them
    with uniform unit coefficients gives alpha = n_k.
    """
    if not is_power_of_two(n_k) or n_k < 2:
        raise ValueError("ones encoding requires n_k = 2^m with m >= 1")
    pair = make_state_prep_pair(np.ones(n_k))
    terms = [trivial_encoding(cyclic_shift(n_k, t)) for t in range(n_k)]
    return linear_combination(pair, terms, common_alpha=1.0)


def _class_block_terms(n_k: int, block_dim: int) -> tuple[list[float], list[np.ndarray]]:
    """Coefficients and unitaries summing exactly to ones(n_k) padded to block_dim.

    For n_k >= 2 the terms are cyclic shifts on the occupied slots with a
    phase on the padding slots chosen so the padding cancels in the sum; a
    single-sample class uses the reflection pair (I + R)/2.  The l1 weight is
    exactly n_k.
    """
    coeffs: list[float] = []
    mats: list[np.ndarray] = []
    if n_k >= 2:
        pad = np.arange(n_k, block_dim)
        for t in range(n_k):
            m = embed_power_of_two(cyclic_shift(n_k, t), block_dim)
            m[pad, pad] = np.exp(2j * np.pi * t / n_k)
            coeffs.append(1.0)
            mats.append(m)
    else:
        reflect = -np.eye(block_dim, dtype=complex)
        reflect[0, 0] = 1.0
        coeffs.extend([0.5, 0.5])
        mats.extend([np.eye(block_dim, dtype=complex), reflect])
    return coeffs, mats


def similarity_encoding(partition: ClassPartition, total_dim: int | None = None) -> BlockEncoding:
    """(n_tilde, b, 0) encoding of the padded class-similarity matrix.

    Every class block is built as a combination of phase-tagged shift
    permutations whose l1 weight is topped up to n_tilde = max_k n_k by a
    cancelling +/- identity pair, so one scale factor certifies all blocks
    and the padding slots stay exactly zero.  The class selector register
    joins the system, giving a block-diagonal encoded block.

    ``total_dim`` widens the system to a larger power of two by appending
    empty class blocks (their slots encode exact zeros).
    """
    n_tilde = partition.max_class_size
    block_dim = partition.block_dim
    c_pad = partition.padded_class_count
    if total_dim is not None:
        if total_dim % block_dim != 0 or not is_power_of_two(total_dim // block_dim):
            raise ValueError("total_dim must be a power-of-two multiple of the block size")
        if total_dim < c_pad * block_dim:
            raise ValueError("total_dim too small for the partition")
        c_pad = total_dim // block_dim

    per_class: list[tuple[list[float], list[np.ndarray]]] = []
    for k in range(c_pad):
        if k < partition.class_count:
            coeffs, mats = _class_block_terms(partition.class_sizes[k], block_dim)
        else:
            coeffs, mats = [], []
        weight = sum(coeffs)
        top_up = n_tilde - weight
        if top_up > 0:
            eye = np.eye(block_dim, dtype=complex)
            coeffs.extend([top_up / 2.0, -top_up / 2.0])
            mats.extend([eye, eye])
        per_class.append((coeffs, mats))

    slots = 1 << max(1, int(np.ceil(np.log2(max(len(c) for c, _ in per_class)))))
    members = []
    for coeffs, mats in per_class:
        y = np.zeros(slots, dtype=complex)
        y[: len(coeffs)] = coeffs
        pair = make_state_prep_pair(y)
        terms = [trivial_encoding(m) for m in mats]
        members.append(linear_combination(pair, terms, common_alpha=1.0))
    return placement_encoding(c_pad, {(k, k): m for k, m in enumerate(members)})
