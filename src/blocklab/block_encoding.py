"""Block-encoding algebra: construction, verification, products, and
differences of block-encoded operators.

A block-encoding certifies that a target operator A sits, scaled by 1/alpha,
in the leading 2^s x 2^s block of a unitary on s system qubits plus a ancilla
qubits (ancillas most significant):

    || A - alpha (<0|^a (x) I) U (|0>^a (x) I) || <= epsilon

Every encoding is a node of one composition tree.  A ``BlockEncoding`` built
from a matrix is a leaf.  A leaf may also be lazy, like the data encoding:
it holds its encoded block and builds its unitary on first read.  A
composite (product, difference, adjoint, Gram, and the Hermitian
dilation of ``data_encoding``) holds its child encodings in ``children``,
derives its own (alpha, ancillas, epsilon) and dimension from them by its
composition law, and materializes the full unitary only on demand; the
encoded block is always available cheaply through the exact corner law of
the node.  Two more read-only laws give a node's ancilla-zero rows
``_rows()`` (system_dim x dim) and columns ``_cols()`` (dim x system_dim) of
its unitary: by default the slices of its dense unitary; a product's rows
contract its children's rows over the shared system index, an adjoint's rows
are its child's columns conjugate-transposed, and the data leaf forms its
columns from its completions.  A Gram node builds its unitary from its
child's rows, so above a product of leaves and adjoints of the data leaf it
never builds its child's unitary.  Tests cross-check those laws against the
materialized unitaries.
A node's ``dtype`` (its block's and its unitary's) follows the dtype rule of
``matrix_core``: a leaf keeps its matrix's, and a composite takes
``np.result_type`` of its children's, so a tree of real leaves is real.

Every node's read-only ``hermitian`` law says whether its unitary is
Hermitian by construction, as a walk needs: always for Gram and dilation
nodes, for a difference when both children are, for an adjoint when its
child is, never for a product or a data leaf (even where the unitary happens
to be); a leaf built from a matrix compares it with its adjoint exactly,
unless a subclass declares the law (the class leaves of ``centering``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    as_matrix,
    ensure_dimension,
    is_power_of_two,
    is_unitary_matrix,
    qubit_count,
    spectral_norm,
)

__all__ = [
    "BlockEncoding",
    "VerificationReport",
    "trivial_encoding",
    "extract_block",
    "verify",
    "product",
    "adjoint_encoding",
    "difference_encoding",
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
    of the matrix, in its dtype (``matrix_core.as_matrix``).  Composite
    nodes subclass it and supply ``_materialize`` (the dense unitary),
    ``_block`` (the encoded block by the node's corner law) and
    ``hermitian`` (the node's Hermitian law); so does a lazy leaf, which has
    no children.
    """

    __slots__ = ("alpha", "ancillas", "epsilon", "system_qubits", "dim", "children", "_cache")
    kind = "leaf"

    def __init__(self, unitary, alpha: float, ancillas: int, epsilon: float,
                 system_qubits: int):
        matrix = np.array(as_matrix(unitary))  # the caller keeps its own
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

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the block and the unitary: a leaf's own, and
        ``np.result_type`` of the children's for a composite, read without
        building anything."""
        if not self.children:
            return self._block().dtype
        return np.result_type(*(child.dtype for child in self.children))

    @property
    def hermitian(self) -> bool:
        """Whether the unitary is Hermitian by this node's law; a leaf built
        from a matrix compares it with its adjoint exactly, unless its class
        declares the law."""
        return bool(np.array_equal(self._cache, self._cache.conj().T))

    def extract_block(self) -> np.ndarray:
        """Leading system-dim block; multiply by alpha to approximate the target."""
        return self._block()

    def _dense(self) -> np.ndarray:
        """The full unitary, without caching it on a composite node."""
        return self._cache if self._cache is not None else self._materialize()

    def _block(self) -> np.ndarray:
        b = self.system_dim
        return self._cache[:b, :b]

    def _rows(self) -> np.ndarray:
        """The system_dim x dim ancilla-zero rows of the unitary."""
        return self._dense()[: self.system_dim]

    def _cols(self) -> np.ndarray:
        """The dim x system_dim ancilla-zero columns of the unitary."""
        return self._dense()[:, : self.system_dim]

    def validate(self, tol: float = 1e-10) -> bool:
        """Materialize and check unitarity (intended for tests and small sizes)."""
        return is_unitary_matrix(self.unitary, tol)

    def __repr__(self) -> str:
        return (
            f"BlockEncoding(alpha={self.alpha:.6g}, ancillas={self.ancillas}, "
            f"epsilon={self.epsilon:.3g}, system_qubits={self.system_qubits})"
        )


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
    hermitian = False

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

    def _rows(self) -> np.ndarray:
        left, right = self.children
        s, la, ra = self.system_dim, 1 << left.ancillas, 1 << right.ancillas
        # out[x, l', r', x'] = sum_y U[0, x, l', y] V[0, y, r', x']
        out = np.tensordot(left._rows().reshape(s, la, s), right._rows().reshape(s, ra, s),
                           axes=([2], [0]))
        return out.transpose(0, 2, 1, 3).reshape(s, self.dim)


class _Difference(BlockEncoding):
    """(H (x) I)(|0><0| (x) U_A - |1><1| (x) U_B)(H (x) I), the selector H on
    one more, most significant, ancilla; in closed form
    1/2 [[U_A - U_B, U_A + U_B], [U_A + U_B, U_A - U_B]].

    From two (alpha, a, eps) encodings on the same system it encodes
    (A - B)/2 at the same alpha on a + 1 ancillas.  The weights +-1/2 are
    exact, so the error (eps_A + eps_B)/2 is at most max(eps_A, eps_B), and
    the unitary is exactly Hermitian when both children's are.  Corner law:
    (b_A - b_B)/2 for the blocks b of the children.
    """

    __slots__ = ()
    kind = "difference"

    @property
    def hermitian(self) -> bool:
        return all(child.hermitian for child in self.children)

    def __init__(self, a: BlockEncoding, b: BlockEncoding):
        if a.system_qubits != b.system_qubits:
            raise ValueError("both encodings of a difference must share the system size")
        if a.ancillas != b.ancillas:
            raise ValueError("both encodings of a difference must share the ancilla count")
        if a.alpha != b.alpha:
            raise ValueError("both encodings of a difference must share alpha")
        self._certify(a.alpha, a.ancillas + 1, max(a.epsilon, b.epsilon),
                      a.system_qubits, 2 * a.dim, (a, b))

    def _materialize(self) -> np.ndarray:
        a, b = self.children
        d = a.dim
        out = np.empty((2 * d, 2 * d), dtype=self.dtype)
        diff, total = out[:d, :d], out[:d, d:]
        diff[...] = total[...] = a._dense()  # one child's unitary alive at a time
        u_b = b._dense()
        diff -= u_b
        total += u_b
        del u_b
        out[:d] *= 0.5
        out[d:, :d] = total
        out[d:, d:] = diff
        return out

    def _block(self) -> np.ndarray:
        a, b = self.children
        return 0.5 * (a._block() - b._block())


class _Adjoint(BlockEncoding):
    """The adjoint unitary; it encodes the adjoint target with the same
    (alpha, ancillas, epsilon)."""

    __slots__ = ()
    kind = "adjoint"

    @property
    def hermitian(self) -> bool:
        return self.children[0].hermitian

    def __init__(self, inner: BlockEncoding):
        self._certify(inner.alpha, inner.ancillas, inner.epsilon, inner.system_qubits,
                      inner.dim, (inner,))

    def _materialize(self) -> np.ndarray:
        return np.conjugate(self.children[0]._dense().T, order="C")  # row-major, as a walk needs

    def _block(self) -> np.ndarray:
        return self.children[0]._block().conj().T

    def _rows(self) -> np.ndarray:
        return self.children[0]._cols().conj().T


class _Gram(BlockEncoding):
    """The (1/2, 1/2) combination of V = U^dag (2 Pi_0 - I) U and I on one
    more ancilla, in closed form.

    With M the ancilla-zero rows of U (its rows law, so U itself is built
    only where no closed form gives them) and G = M^dag M, V = 2G - I, so
    the combination is [[G, G - I], [G - I, G]]: Hermitian, and an
    involution because G is a projector.  It encodes B^dag B for the target
    B of U, at alpha_B^2; from ||B|| <= alpha_B + eps_B the error is
    eps_B (2 alpha_B + eps_B).  Corner law: b^dag b for the block b of U.
    """

    __slots__ = ()
    kind = "gram"
    hermitian = True

    def __init__(self, inner: BlockEncoding):
        a, e = inner.alpha, inner.epsilon
        self._certify(a * a, inner.ancillas + 1, e * (2.0 * a + e), inner.system_qubits,
                      2 * inner.dim, (inner,))

    def _materialize(self) -> np.ndarray:
        inner = self.children[0]
        d = inner.dim
        m = np.array(inner._rows())  # a copy: a dense fallback's U is not kept
        g = m.conj().T @ m
        out = np.empty((2 * d, 2 * d), dtype=g.dtype)
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
    u = as_matrix(u)
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
    target = as_matrix(target)
    if target.shape != (be.system_dim, be.system_dim):
        raise ValueError(
            f"target shape {target.shape} does not match system dimension "
            f"{be.system_dim}; embed it first"
        )
    if not tol >= 0:  # NaN too
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


def difference_encoding(a: BlockEncoding, b: BlockEncoding) -> BlockEncoding:
    """Encoding of (A - B)/2 from encodings of A and B with equal alpha,
    ancilla count and system size.

    The two-term combination with exact weights +-1/2 (Gilyen, Su, Low &
    Wiebe, arXiv:1806.01838): alpha' = alpha, a' = a + 1 and
    eps' = max(eps_A, eps_B).  The unitary is Hermitian when both children's
    are, and then it can be walked.
    """
    return _Difference(a, b)


def gram_encoding(be: BlockEncoding) -> BlockEncoding:
    """Hermitian encoding of B^dag B from an encoding of B.

    The degree-2 singular value transform U^dag (2 Pi_0 - I) U, averaged
    with the identity on one more ancilla (Gilyen, Su, Low & Wiebe,
    arXiv:1806.01838): alpha' = alpha^2, a' = a + 1 and
    eps' = eps (2 alpha + eps).  B's factors share one ancilla register, and
    the unitary is Hermitian, so it can always be walked.
    """
    return _Gram(be)
