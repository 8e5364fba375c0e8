"""Block-encoding algebra: construction, verification, products, and linear
combinations of block-encoded operators.

A block-encoding certifies that a target operator A sits, scaled by 1/alpha,
in the leading 2^s x 2^s block of a unitary on s system qubits plus a ancilla
qubits (ancillas most significant):

    || A - alpha (<0|^a (x) I) U (|0>^a (x) I) || <= epsilon

Every encoding is a node of one composition tree.  A ``BlockEncoding`` built
from a matrix is a leaf.  A leaf may also be lazy, like the data encoding:
it holds its encoded block and builds its unitary on first read.  A
composite (product, linear combination, adjoint, Gram, and the Hermitian
dilation of ``data_encoding``) holds its child encodings in ``children``,
derives its own (alpha, ancillas, epsilon) and dimension from them by its
composition law, and materializes the full unitary only on demand; the
encoded block is always available cheaply through the exact corner law of
the node.  Tests cross-check those laws against the materialized unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrix_core import (
    as_complex_matrix,
    ensure_dimension,
    is_power_of_two,
    is_unitary_matrix,
    qubit_count,
    spectral_norm,
    unitary_completion,
)

__all__ = [
    "BlockEncoding",
    "StatePrepPair",
    "VerificationReport",
    "trivial_encoding",
    "extract_block",
    "verify",
    "product",
    "adjoint_encoding",
    "make_state_prep_pair",
    "linear_combination",
    "gram_encoding",
]


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------

class BlockEncoding:
    """A unitary together with the (alpha, ancillas, epsilon) certificate.

    The unitary acts on ``system_qubits + ancillas`` qubits with ancillas most
    significant; ``alpha * extract_block(...)`` approximates the target within
    ``epsilon`` in spectral norm.  Instances are immutable.

    Built directly from a matrix, an encoding is a leaf of the composition
    tree (``kind == "leaf"``, no ``children``) that holds its own frozen copy
    of the matrix.  Composite nodes subclass it and supply ``_materialize``
    (the dense unitary) and ``_block`` (the encoded block by the node's
    corner law); so does a lazy leaf, which has no children.
    """

    __slots__ = ("alpha", "ancillas", "epsilon", "system_qubits", "dim", "children", "_cache")
    kind = "leaf"

    def __init__(self, unitary, alpha: float, ancillas: int, epsilon: float,
                 system_qubits: int):
        matrix = as_complex_matrix(np.array(unitary, dtype=complex))  # the caller keeps its own
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("encoding unitary must be square")
        self._certify(alpha, ancillas, epsilon, system_qubits, matrix.shape[0], ())
        matrix.setflags(write=False)
        object.__setattr__(self, "_cache", matrix)

    def _certify(self, alpha, ancillas, epsilon, system_qubits, dim, children) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if ancillas < 0:
            raise ValueError("ancilla count must be nonnegative")
        if system_qubits < 1:
            raise ValueError("system qubit count must be positive")
        if not is_power_of_two(dim):
            raise ValueError("encoding dimension must be a power of two")
        if qubit_count(dim) != system_qubits + ancillas:
            raise ValueError(
                f"unitary dimension {dim} inconsistent with "
                f"{system_qubits} system + {ancillas} ancilla qubits"
            )
        ensure_dimension(dim)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "ancillas", int(ancillas))
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "system_qubits", int(system_qubits))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("BlockEncoding is immutable")

    @property
    def system_dim(self) -> int:
        return 1 << self.system_qubits

    @property
    def unitary(self) -> np.ndarray:
        """The full encoding unitary (materialized on demand and cached)."""
        cached = self._cache
        if cached is None:
            cached = self._materialize()
            cached.setflags(write=False)
            object.__setattr__(self, "_cache", cached)
        return cached

    def extract_block(self) -> np.ndarray:
        """Leading system-dim block; multiply by alpha to approximate the target."""
        return self._block()

    def _dense(self) -> np.ndarray:
        """The full unitary, without caching it on a composite node."""
        return self._cache if self._cache is not None else self._materialize()

    def _block(self) -> np.ndarray:
        b = self.system_dim
        return self._cache[:b, :b]

    def validate(self, tol: float = 1e-10) -> bool:
        """Materialize and check unitarity (intended for tests and small sizes)."""
        return is_unitary_matrix(self.unitary, tol)

    def __repr__(self) -> str:
        return (
            f"BlockEncoding(alpha={self.alpha:.6g}, ancillas={self.ancillas}, "
            f"epsilon={self.epsilon:.3g}, system_qubits={self.system_qubits})"
        )


@dataclass(frozen=True)
class StatePrepPair:
    """Pair of preparation unitaries whose first-column amplitudes encode the
    coefficients of a linear combination: beta * conj(c_j) d_j ~ y_j."""

    p_left: np.ndarray
    p_right: np.ndarray
    coefficients: np.ndarray
    beta: float
    prep_qubits: int
    epsilon_y: float

    def definition_defect(self) -> float:
        """Recompute sum_j |beta conj(c_j) d_j - y_j| over the coefficient slots."""
        c = self.p_left[:, 0]
        d = self.p_right[:, 0]
        m = len(self.coefficients)
        prods = self.beta * np.conj(c[:m]) * d[:m]
        defect = float(np.abs(prods - self.coefficients).sum())
        tail = self.beta * np.conj(c[m:]) * d[m:]
        return defect + float(np.abs(tail).sum())


@dataclass(frozen=True)
class VerificationReport:
    """Measured agreement between an encoding and its classical target."""

    alpha: float
    ancillas: int
    epsilon_declared: float
    distance_measured: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "ancillas": self.ancillas,
            "epsilon_declared": self.epsilon_declared,
            "distance_measured": self.distance_measured,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# Composite nodes
# ---------------------------------------------------------------------------

class _Product(BlockEncoding):
    """(I_Ra (x) U) (I_La (x) V) with V lifted over U's La ancilla slots.

    Scale factors multiply, ancilla counts add, and the error composes as
    alpha_U eps_V + alpha_V eps_U.  Corner law: the encoded block is
    (block of U)(block of V).
    """

    __slots__ = ()
    kind = "product"

    def __init__(self, left: BlockEncoding, right: BlockEncoding):
        if left.system_qubits != right.system_qubits:
            raise ValueError("system dimension mismatch between product factors")
        self._certify(left.alpha * right.alpha, left.ancillas + right.ancillas,
                      left.alpha * right.epsilon + right.alpha * left.epsilon,
                      left.system_qubits, (1 << right.ancillas) * left.dim, (left, right))

    def _materialize(self) -> np.ndarray:
        left, right = self.children
        s, la, ra = self.system_dim, 1 << left.ancillas, 1 << right.ancillas
        u = left._dense().reshape(la, s, la, s)
        v = right._dense().reshape(ra, s, ra, s)
        # out[r, l, x, r', l', x'] = sum_y U[l, x, l', y] V[r, y, r', x']
        out = np.tensordot(u, v, axes=([3], [1]))
        return out.transpose(3, 0, 1, 4, 2, 5).reshape(self.dim, self.dim)

    def _block(self) -> np.ndarray:
        left, right = self.children
        return left._block() @ right._block()


class _Lcu(BlockEncoding):
    """(P_L^dag (x) I) [ sum_j |j><j| (x) U_j + rest (x) I ] (P_R (x) I).

    From uniform (alpha, a, eps) terms: alpha' = alpha * beta, a' = a + b and
    eps' = alpha * eps_y + beta * max_j eps_j, because the error
    sum_j y_j (A_j - alpha b_j) + alpha sum_j (y_j - beta conj(c_j) d_j) b_j
    of the blocks b_j has norm at most that.  Its (a, b) block is
    sum_j conj(P_L[j, a]) P_R[j, b] U_j, with U_j = I on the unused slots;
    ``_materialize`` builds exactly that.  Corner law: sum_j conj(c_j) d_j
    (block of U_j), extended over the unused selector slots by
    conj(c_j) d_j * I (zero for a valid preparation pair).
    """

    __slots__ = ("pair",)
    kind = "lcu"

    def __init__(self, pair: StatePrepPair, terms: Sequence[BlockEncoding],
                 common_alpha: float):
        if not terms:
            raise ValueError("at least one encoding is required")
        first = terms[0]
        for be in terms:
            if be.system_qubits != first.system_qubits:
                raise ValueError("all combined encodings must share the system size")
            if be.ancillas != first.ancillas:
                raise ValueError("all combined encodings must share the ancilla count")
            if be.alpha != common_alpha:
                raise ValueError("all combined encodings must share alpha")
        slots = 1 << pair.prep_qubits
        if len(terms) > slots:
            raise ValueError(
                f"{len(terms)} terms exceed the {slots} selector slots of the pair"
            )
        if len(pair.coefficients) < len(terms):
            raise ValueError("fewer coefficients than encodings")
        object.__setattr__(self, "pair", pair)
        eps_terms = max(be.epsilon for be in terms)
        self._certify(common_alpha * pair.beta, first.ancillas + pair.prep_qubits,
                      common_alpha * pair.epsilon_y + pair.beta * eps_terms,
                      first.system_qubits, slots * first.dim, terms)

    def _materialize(self) -> np.ndarray:
        p_left, p_right = self.pair.p_left, self.pair.p_right
        eye = np.eye(self.children[0].dim, dtype=complex)
        mats = [self.children[j]._dense() if j < len(self.children) else eye
                for j in range(p_left.shape[0])]
        out = np.einsum("ja,jb,jxy->axby", p_left.conj(), p_right, np.stack(mats))
        return out.reshape(self.dim, self.dim)

    def _block(self) -> np.ndarray:
        c = self.pair.p_left[:, 0]
        d = self.pair.p_right[:, 0]
        b = self.system_dim
        out = np.zeros((b, b), dtype=complex)
        for j in range(len(c)):
            w = np.conj(c[j]) * d[j]
            if w == 0:
                continue
            if j < len(self.children):
                out += w * self.children[j]._block()
            else:
                out += w * np.eye(b, dtype=complex)
        return out


class _Adjoint(BlockEncoding):
    """The adjoint unitary; it encodes the adjoint target with the same
    (alpha, ancillas, epsilon)."""

    __slots__ = ()
    kind = "adjoint"

    def __init__(self, inner: BlockEncoding):
        self._certify(inner.alpha, inner.ancillas, inner.epsilon, inner.system_qubits,
                      inner.dim, (inner,))

    def _materialize(self) -> np.ndarray:
        return self.children[0]._dense().conj().T

    def _block(self) -> np.ndarray:
        return self.children[0]._block().conj().T


class _Gram(BlockEncoding):
    """The (1/2, 1/2) combination of V = U^dag (2 Pi_0 - I) U and I on one
    more ancilla, in closed form.

    With M the ancilla-zero rows of U and G = M^dag M, V = 2G - I, so the
    combination is [[G, G - I], [G - I, G]]: Hermitian, and an involution
    because G is a projector.  It encodes B^dag B for the target B of U, at
    alpha_B^2; from ||B|| <= alpha_B + eps_B the error is
    eps_B (2 alpha_B + eps_B).  Corner law: b^dag b for the block b of U.
    """

    __slots__ = ()
    kind = "gram"

    def __init__(self, inner: BlockEncoding):
        a, e = inner.alpha, inner.epsilon
        self._certify(a * a, inner.ancillas + 1, e * (2.0 * a + e), inner.system_qubits,
                      2 * inner.dim, (inner,))

    def _materialize(self) -> np.ndarray:
        inner = self.children[0]
        d = inner.dim
        m = np.array(inner._dense()[: inner.system_dim])  # U itself is not kept
        g = m.conj().T @ m
        out = np.empty((2 * d, 2 * d), dtype=complex)
        top = out[:d, :d]
        np.conjugate(g.T, out=top)
        top += g  # G + G^dag: exactly Hermitian
        top *= 0.5
        del g
        out[d:, d:] = top
        out[:d, d:] = top
        out[:d, d:][np.diag_indices(d)] -= 1.0
        out[d:, :d] = out[:d, d:]
        return out

    def _block(self) -> np.ndarray:
        b = self.children[0]._block()
        return b.conj().T @ b


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def trivial_encoding(u) -> BlockEncoding:
    """A unitary is a (1, 0, 0) encoding of itself; the leaf holds a copy of it."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1] or not is_power_of_two(u.shape[0]):
        raise ValueError("trivial encoding requires a square power-of-two unitary")
    if not is_unitary_matrix(u):
        raise ValueError("matrix is not unitary within 1e-10")
    return BlockEncoding(u, alpha=1.0, ancillas=0, epsilon=0.0,
                         system_qubits=qubit_count(u.shape[0]))


def extract_block(be: BlockEncoding) -> np.ndarray:
    """Leading 2^s x 2^s block of the encoding unitary (ancillas at |0...0>)."""
    return be.extract_block()


def verify(be: BlockEncoding, target, tol: float = 1e-9) -> VerificationReport:
    """Compare alpha * extract_block against the target in spectral norm."""
    target = as_complex_matrix(target)
    if target.shape != (be.system_dim, be.system_dim):
        raise ValueError(
            f"target shape {target.shape} does not match system dimension "
            f"{be.system_dim}; embed it first"
        )
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    dist = spectral_norm(target - be.alpha * be.extract_block())
    passed = dist <= max(be.epsilon, tol)
    return VerificationReport(
        alpha=be.alpha,
        ancillas=be.ancillas,
        epsilon_declared=be.epsilon,
        distance_measured=dist,
        tolerance=tol,
        passed=bool(passed),
    )


def product(u_be: BlockEncoding, v_be: BlockEncoding) -> BlockEncoding:
    """Encoding of AB from encodings of A and B.

    Scale factors multiply, ancilla counts add, and the error composes as
    alpha_A * eps_B + alpha_B * eps_A.  Each factor keeps its own ancillas;
    the encoded block of the result is exactly the product of the blocks.
    """
    return _Product(u_be, v_be)


def adjoint_encoding(be: BlockEncoding) -> BlockEncoding:
    """Encoding of the adjoint target, from the adjoint unitary."""
    return _Adjoint(be)


def make_state_prep_pair(y) -> StatePrepPair:
    """Build a preparation pair for the coefficient vector y.

    beta = ||y||_1 and b = ceil(log2(len(y))), at least 1.  Both first columns
    carry sqrt(|y_j|/beta) amplitudes; the coefficient phases are folded into
    the right column, so the pair satisfies the defining sum for signed and
    complex coefficients directly.
    """
    y = np.asarray(y, dtype=complex).reshape(-1)
    if y.size == 0 or not np.any(y):
        raise ValueError("coefficient vector must be nonzero")
    beta = float(np.abs(y).sum())
    b = max(1, int(np.ceil(np.log2(y.size))))
    slots = 1 << b
    amps = np.zeros(slots)
    amps[: y.size] = np.sqrt(np.abs(y) / beta)
    phases = np.ones(slots, dtype=complex)
    nz = np.abs(y) > 0
    phases[: y.size][nz] = y[nz] / np.abs(y[nz])

    p_left = unitary_completion(amps, slots)
    p_right = unitary_completion(amps * phases, slots)
    pair = StatePrepPair(
        p_left=p_left, p_right=p_right, coefficients=y.copy(),
        beta=beta, prep_qubits=b, epsilon_y=0.0,
    )
    defect = pair.definition_defect()
    if defect > 1e-12:
        raise ValueError(f"state preparation pair defect {defect:.3e} exceeds 1e-12")
    return StatePrepPair(
        p_left=p_left, p_right=p_right, coefficients=y.copy(),
        beta=beta, prep_qubits=b, epsilon_y=defect,
    )


def linear_combination(
    pair: StatePrepPair,
    encodings: Sequence[BlockEncoding],
    common_alpha: float,
) -> BlockEncoding:
    """Encoding of sum_j y_j A_j from uniform (alpha, a, eps) encodings A_j.

    The select unitary applies U_j on selector slot j and the identity on the
    unused slots; conjugating with the preparation pair yields an encoding
    with alpha' = alpha * beta, a' = a + b, and
    eps' = alpha * eps_y + beta * max_j eps_j: each term's error enters with
    its weight |y_j|, which sum to beta, and the pair's defect eps_y with the
    blocks' scale alpha.
    """
    return _Lcu(pair, encodings, common_alpha)


def gram_encoding(be: BlockEncoding) -> BlockEncoding:
    """Hermitian encoding of B^dag B from an encoding of B.

    The degree-2 singular value transform U^dag (2 Pi_0 - I) U, averaged
    with the identity on one more ancilla (Gilyen, Su, Low & Wiebe,
    arXiv:1806.01838): alpha' = alpha^2, a' = a + 1 and
    eps' = eps (2 alpha + eps).  B's factors share one ancilla register, and
    the unitary is Hermitian, so its walk needs no dilation.
    """
    return _Gram(be)
