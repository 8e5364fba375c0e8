"""Eigeninformation extraction from Hermitian block encodings: a reflection
walk written into one buffer (the node's fresh unitary, or a copy of the one
it keeps), its eigenphases carrying the spectrum as cos(theta) = lambda/alpha,
a phase estimation that computes the full distribution, and the same
distribution of e^{iAt} in closed form: no unitary, one kernel per call.

The walk rests on each node's ``hermitian`` law: Gram and dilation nodes
always hold it, differences and adjoints by their children, the class
leaves of ``centering`` by theirs, any other matrix leaf by an exact
comparison, products and data leaves never.  Where it fails, walk
``hermitian_dilation`` or ``gram_encoding``.

A walk is a read-only ``Walk`` that carries its node's declared ``defect``
(``block_encoding``), a bound on ||W^dag W - I||_2 fixed by the
construction laws.  Phase estimation on a walk checks that law, and on a
plain matrix from a caller it runs the dense unitarity check; either way it
keeps nothing between calls.  It never diagonalizes the whole unitary, and
it never casts a real one to complex.  It spans the Krylov space of the
state, which the unitary leaves invariant (two dimensions from an
eigenvector of a walk's encoded block), checks the invariance leak
||U Q - Q H|| against a bound fixed in advance, and reads phases and
weights from the small restricted matrix H.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .block_encoding import BlockEncoding
from .matrix_core import (
    UNITARY_TOL,
    CapExceededError,
    as_array,
    as_matrix,
    cap_qubits,
    is_hermitian,
    is_unitary_matrix,
    spectral_norm,
)

__all__ = [
    "EstimationMethod",
    "PhaseEstimate",
    "Walk",
    "walk_operator",
    "phase_estimation",
    "evolution_readout",
]

_HERMITIAN_BLOCK_TOL = 1e-8
# Arnoldi stops once a new orthogonalized vector is no longer than this.
_KRYLOV_BREAKDOWN = 1e-13
# Largest invariance leak ||U Q - Q H||_2 a phase distribution may rest on.
_KRYLOV_LEAK_BOUND = 1e-12


class EstimationMethod(Enum):
    QUBITIZATION_WALK = "qubitization-walk"


@dataclass(frozen=True)
class PhaseEstimate:
    """Result of simulated phase estimation.

    ``phase`` is the walk readout, folded to [0, 1/2] on a 2^bits grid, and
    ``eigenvalue`` is alpha * cos(2*pi*phase).  ``distribution`` is the
    exact probability over all grid points.  ``krylov_dim`` is the
    dimension of the invariant Krylov space of the state the distribution was
    computed in, and ``leak`` its invariance residual ||U Q - Q H||_2.
    """

    phase: float
    bits: int
    eigenvalue: float
    method: EstimationMethod
    distribution: np.ndarray
    krylov_dim: int
    leak: float


class Walk:
    """The walk W = (2 Pi_0 - I) U of a node, read-only, with the node's
    declared ``defect``: W^dag W = U^dag U exactly, as the reflection only
    negates rows, so it bounds ||W^dag W - I||_2 too.

    It holds W densely, C-contiguous, in the node's ``dtype``, and reads as
    an operator: ``shape``, ``dtype``, ``len()`` and ``walk @ v``, which is
    ``_apply`` (a real W meets a complex v as two real products, and is never
    cast to complex).  ``np.asarray(walk)`` is W itself, read-only;
    ``np.array(walk)`` is a writable copy, a plain matrix to every reader.
    """

    __slots__ = ("_w", "defect")

    def __init__(self, w: np.ndarray, defect: float):
        w.setflags(write=False)
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "defect", float(defect))

    def __setattr__(self, name, value):
        raise AttributeError("Walk is read-only")

    @property
    def shape(self) -> tuple[int, int]:
        return self._w.shape

    @property
    def dtype(self) -> np.dtype:
        return self._w.dtype

    def __len__(self) -> int:
        return len(self._w)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._w, dtype=dtype, copy=copy)

    def __matmul__(self, v) -> np.ndarray:
        return _apply(self._w, v)


def walk_operator(be: BlockEncoding) -> Walk:
    """Reflection-times-encoding walk W = (2 Pi_0 - I) U of a Hermitian U.

    Pi_0 projects the ancillas onto |0...0>.  U must be Hermitian by the
    node's ``hermitian`` law (Low & Chuang, arXiv:1610.06546), or this raises
    ``ValueError`` before U is built.  The reflection is diagonal, so W is U
    with every row outside the ancilla-zero block negated: a copy of U when
    the node keeps U (a leaf, or a node whose ``unitary`` was read), else the
    node's fresh build of U, negated in place and never cached.  The
    ``Walk`` holds that buffer read-only, in the node's ``dtype`` (float64
    for a tree of real leaves), sharing no memory with a kept unitary, and
    the node's ``defect``.  For every eigenvalue lambda of the encoded
    operator, W has an eigenphase pair +/- arccos(lambda/alpha).
    """
    if not be.hermitian:
        raise ValueError(f"walk_operator needs a unitary that is Hermitian by construction, "
                         f"and this {be.kind} node's is not; walk its hermitian_dilation "
                         f"or its gram_encoding instead")
    w = be._dense()
    if w is be._cache:
        w = w.copy()
    w[be.system_dim:] *= -1.0
    return Walk(w, be.defect)


def _apply(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U v.  A real U meets a complex v as two real products: numpy would
    otherwise cast all of U to complex on every call."""
    if u.dtype.kind == "f" and v.dtype.kind == "c":
        return u @ v.real + 1j * (u @ v.imag)
    return u @ v


def _phase_distribution(u: np.ndarray, state: np.ndarray,
                        t_bits: int) -> tuple[np.ndarray, int, float]:
    """Exact measurement distribution of the phase register.

    Arnoldi with full reorthogonalization spans the Krylov space Q of the
    normalized state until a new vector's norm falls to the breakdown
    threshold or Q fills the space.  Q is then U-invariant: the leak
    ||U Q - Q H||_2 of H = Q^dag U Q must stay within the fixed bound.  A
    Schur decomposition of the k x k matrix H gives the phases and an
    orthonormal eigenbasis Z; each eigencomponent contributes the squared
    Dirichlet kernel centered on its phase, weighted by |Z^dag Q^dag psi|^2.
    Returns the distribution, k and the leak.
    """
    dim = state.shape[0]
    basis, images = [state], []
    while True:
        images.append(_apply(u, basis[-1]))
        if len(basis) == dim:
            break
        q = np.column_stack(basis)
        w = images[-1]
        for _ in range(2):  # Gram-Schmidt twice keeps Q orthonormal to round-off
            w = w - q @ (q.conj().T @ w)
        beta = np.linalg.norm(w)
        if beta <= _KRYLOV_BREAKDOWN:
            break
        basis.append(w / beta)
    q, uq = np.column_stack(basis), np.column_stack(images)
    h = q.conj().T @ uq
    leak = spectral_norm(uq - q @ h)
    if not leak <= _KRYLOV_LEAK_BOUND:
        raise ArithmeticError(f"Krylov space leaks {leak:.3g} > {_KRYLOV_LEAK_BOUND:g}")

    tmat, z = scipy.linalg.schur(h, output="complex")
    phases = np.mod(np.angle(np.diag(tmat)) / (2.0 * np.pi), 1.0)
    weights = np.abs(z.conj().T @ (q.conj().T @ state)) ** 2
    return _dirichlet_mixture(phases, weights[None], t_bits)[0], len(basis), leak


def _dirichlet_mixture(phases: np.ndarray, weights: np.ndarray, t_bits: int) -> np.ndarray:
    """Squared Dirichlet kernels centered on the phases, mixed by each weight row;
    ``AssertionError`` unless every row sums to 1 (a lost weight, a NaN)."""
    grid = 1 << t_bits
    delta = phases[:, None] - np.arange(grid) / grid
    sin_d = np.sin(np.pi * delta)
    exact = np.abs(sin_d) < 1e-12
    num = np.sin(np.pi * grid * delta) ** 2
    dist = weights @ np.where(exact, 1.0, num / np.where(exact, 1.0, sin_d**2) / grid**2)
    for total in dist.sum(axis=1):
        if not abs(total - 1.0) <= 1e-9:
            raise AssertionError(f"phase distribution sums to {total}, expected 1")
    return dist


def _check_register(t_bits: int) -> None:
    """Refuse t_bits < 1 or above ``cap_qubits()`` before any 2^t_bits is formed."""
    if t_bits < 1:
        raise ValueError("t_bits must be positive")
    if t_bits > (qubits := cap_qubits()):
        raise CapExceededError(f"phase register of {t_bits} qubits exceeds the "
                               f"simulator cap of {qubits} qubits")


def phase_estimation(
    u,
    eigenstate,
    t_bits: int,
    *,
    method: EstimationMethod = EstimationMethod.QUBITIZATION_WALK,
    alpha: float = 1.0,
) -> PhaseEstimate:
    """Phase estimation on a walk operator, with the full output distribution
    computed exactly.

    The readout is the distribution argmax folded to phase <= 1/2, because
    the walk's eigenphases come in +/- pairs of equal weight, and the
    eigenvalue is alpha * cos(2*pi*phase).  ``t_bits`` above ``cap_qubits()``
    raises ``CapExceededError`` before any allocation.
    After the state is checked, a ``Walk`` is accepted when its declared
    ``defect`` is at most 1e-10, with no Gram formed; any other operator runs
    the dense unitarity check (max |U^dag U - I| within 1e-10) once.  Every
    call checks the Krylov leak of the operator it applied, and nothing is
    kept between calls.
    A real operator is never cast to complex: with a state whose imaginary
    part is zero the whole readout runs in float64.
    """
    _check_register(t_bits)
    defect = u.defect if isinstance(u, Walk) else None
    u = as_matrix(u) if defect is None else np.asarray(u)
    state = as_array(eigenstate).reshape(-1)
    if state.shape[0] != u.shape[0]:
        raise ValueError("eigenstate dimension does not match the unitary")
    if not np.all(np.isfinite(state)):
        raise ValueError("eigenstate entries must be finite")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("eigenstate must be normalized")
    # last: for a plain matrix, the only O(d^3) check
    if not (is_unitary_matrix(u, UNITARY_TOL) if defect is None else defect <= UNITARY_TOL):
        raise ValueError("phase estimation requires a unitary operator")

    if u.dtype.kind == "f" and not state.imag.any():
        state = state.real  # a real state on a real operator: the Krylov space is real
    dist, krylov_dim, leak = _phase_distribution(u, state / norm, t_bits)
    grid = 1 << t_bits
    m = int(np.argmax(dist))
    phase = min(m, grid - m) / grid
    return PhaseEstimate(phase=phase, bits=t_bits,
                         eigenvalue=float(alpha * np.cos(2.0 * np.pi * phase)),
                         method=method, distribution=dist, krylov_dim=krylov_dim,
                         leak=leak)


def evolution_readout(be: BlockEncoding, states, t_bits: int, t: float) -> np.ndarray:
    """Phase estimation on e^{iAt}, A = alpha * block, from each column of
    ``states`` (system_dim x k), in closed form: one ``eigh`` of A gives the
    phases t*lambda_j/2pi mod 1, and each state mixes the components whose
    amplitude <v_j|psi> exceeds the Arnoldi breakdown threshold (those a
    Krylov run would span), all k from one kernel over the phases any state
    keeps.  Each readout, 2*pi*argmax/(2^t_bits * t), assumes a spectrum in
    [0, 2*pi/t) and is clipped to [-alpha, alpha].  After the t_bits checks
    it raises ``ValueError`` for a t that is not finite and positive, for
    states that are not finite unit columns (within 1e-10) of length
    system_dim, and for a block not Hermitian within 1e-8.
    """
    _check_register(t_bits)
    if not 0.0 < t < np.inf:
        raise ValueError("t must be finite and positive")
    states = as_array(states)
    if states.ndim != 2 or states.shape[0] != be.system_dim:
        raise ValueError(f"states must be a {be.system_dim} x k matrix of columns")
    if not np.isfinite(states).all():
        raise ValueError("states must be finite")
    if (np.abs(np.linalg.norm(states, axis=0) - 1.0) > 1e-10).any():
        raise ValueError("states must be unit columns within 1e-10")
    a = be.alpha * be.extract_block()
    if not is_hermitian(a, _HERMITIAN_BLOCK_TOL):
        raise ValueError("encoded block is not Hermitian within 1e-8")
    lam, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    amp = np.abs(v.conj().T @ states)
    amp[amp <= _KRYLOV_BREAKDOWN] = 0.0
    kept = amp.any(axis=1)
    phases = np.mod(t * lam[kept] / (2.0 * np.pi), 1.0)
    m = np.argmax(_dirichlet_mixture(phases, amp[kept].T ** 2, t_bits), axis=1)
    return np.clip(2.0 * np.pi * (m / (1 << t_bits)) / t, -be.alpha, be.alpha)
