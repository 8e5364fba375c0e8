"""Eigeninformation extraction from Hermitian block encodings: an exact
evolution operator, a reflection walk written from the encoding unitary into
one buffer, its eigenphases carrying the spectrum as cos(theta) = lambda/alpha,
and a deterministic phase estimation that computes the full distribution.

Phase estimation never diagonalizes the whole unitary.  It spans the Krylov
space of the state, which the unitary leaves invariant (two dimensions from
an eigenvector of a walk's encoded block), checks the invariance leak
||U Q - Q H|| against a bound fixed in advance, and reads phases and weights
from the small restricted matrix H.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .block_encoding import BlockEncoding
from .matrix_core import (
    CapExceededError,
    as_complex_matrix,
    cap_qubits,
    ensure_dimension,
    is_hermitian,
    is_unitary_matrix,
)

__all__ = [
    "EstimationMethod",
    "PhaseEstimate",
    "walk_operator",
    "exact_evolution",
    "phase_estimation",
]

_HERMITIAN_BLOCK_TOL = 1e-8
# Arnoldi stops once a new orthogonalized vector is no longer than this.
_KRYLOV_BREAKDOWN = 1e-13
# Largest invariance leak ||U Q - Q H||_2 a phase distribution may rest on.
_KRYLOV_LEAK_BOUND = 1e-12


class EstimationMethod(Enum):
    EXACT_EVOLUTION = "exact-evolution"
    QUBITIZATION_WALK = "qubitization-walk"


@dataclass(frozen=True)
class PhaseEstimate:
    """Result of simulated phase estimation.

    ``phase`` lies in [0, 1) on a 2^bits grid; ``eigenvalue`` is the value
    reconstructed for the given method and scale factor.  ``distribution`` is
    the exact probability over all grid points.  ``krylov_dim`` is the
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


def _encoded_hermitian(be: BlockEncoding) -> np.ndarray:
    block = be.alpha * be.extract_block()
    if not is_hermitian(block, _HERMITIAN_BLOCK_TOL):
        raise ValueError("encoded block is not Hermitian within 1e-8")
    return (block + block.conj().T) / 2.0


def _is_hermitian_by_rows(u: np.ndarray) -> bool:
    """max |U - U^dag| <= 1e-10, compared one strip of rows at a time.

    It stops at the first strip over the tolerance, and it holds no
    adjoint-sized temporary: a strip is at most 2^16 entries.
    """
    d = u.shape[0]
    step = max(1, (1 << 16) // d)
    for i in range(0, d, step):
        strip = u[i:i + step] - np.conjugate(u[:, i:i + step].T)
        if not np.max(np.abs(strip)) <= 1e-10:  # a NaN fails too
            return False
    return True


def _hermitian_form(u: np.ndarray, negate: slice) -> np.ndarray:
    """U if it is Hermitian within 1e-10, else its dilation, in one fresh
    buffer with ``negate`` rows negated.

    The dilation puts [[0, U], [U^dag, 0]] on one more ancilla qubit and
    conjugates it by a Hadamard on that qubit, which gives

        1/2 [[U + U^dag, U^dag - U], [U - U^dag, -(U + U^dag)]]:

    Hermitian, unitary, and with the leading block of U intact.  The
    scatter encodings (Gram nodes) and the centering and similarity leaves
    are Hermitian by construction, so they take the first branch.
    """
    d = u.shape[0]
    if _is_hermitian_by_rows(u):
        out = u.copy()
    else:  # the quadrants [[E, O], [O, E]] with E = (U + U^dag)/2, O = (U^dag - U)/2
        ensure_dimension(2 * d)
        out = np.empty((2 * d, 2 * d), dtype=complex)
        top = out[:d]
        np.conjugate(u.T, out=top[:, d:])
        np.add(u, top[:, d:], out=top[:, :d])
        np.subtract(top[:, d:], u, out=top[:, d:])
        if not np.isfinite(np.divide(top, 2.0, out=top)).all():
            raise ValueError("matrix entries must be finite")
        out[d:, :d], out[d:, d:] = top[:, d:], top[:, :d]
    out[negate] *= -1.0
    return out


def walk_operator(be: BlockEncoding) -> np.ndarray:
    """Reflection-times-encoding walk W = (2 Pi_0 - I) U~.

    U~ is a Hermitian representative of the encoding (U itself, or its
    dilation on one more ancilla; see ``_hermitian_form``) and Pi_0 projects
    the ancillas onto |0...0>.  Scatter encodings are Hermitian Gram nodes,
    and the centering encoding is the real symmetric leaf
    [[C, I - C], [I - C, -C]], so their walks have the encoding's own
    dimension, with no dilation.
    The reflection is diagonal, so W is U~ with every row outside the
    ancilla-zero block negated, written straight from U into one buffer.  For
    every eigenvalue lambda of the encoded Hermitian operator, W has an
    eigenphase pair +/- arccos(lambda/alpha).
    """
    _encoded_hermitian(be)
    return _hermitian_form(be.unitary, slice(be.system_dim, be.dim))


def exact_evolution(be: BlockEncoding, t: float) -> np.ndarray:
    """exp(i t A) for the encoded Hermitian operator A = alpha * block.

    Computed by exact diagonalization, so the result is unitary to round-off.
    """
    a = _encoded_hermitian(be)
    w, v = np.linalg.eigh(a)
    return (v * np.exp(1j * t * w)) @ v.conj().T


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
        images.append(u @ basis[-1])
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
    leak = float(np.linalg.norm(uq - q @ h, 2))
    if not leak <= _KRYLOV_LEAK_BOUND:
        raise ArithmeticError(f"Krylov space leaks {leak:.3g} > {_KRYLOV_LEAK_BOUND:g}")

    tmat, z = scipy.linalg.schur(h, output="complex")
    phases = np.mod(np.angle(np.diag(tmat)) / (2.0 * np.pi), 1.0)
    weights = np.abs(z.conj().T @ (q.conj().T @ state)) ** 2
    grid = 1 << t_bits
    delta = phases[:, None] - np.arange(grid) / grid
    sin_d = np.sin(np.pi * delta)
    exact = np.abs(sin_d) < 1e-12
    num = np.sin(np.pi * grid * delta) ** 2
    dist = weights @ np.where(exact, 1.0, num / np.where(exact, 1.0, sin_d**2) / grid**2)
    total = dist.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise AssertionError(f"phase distribution sums to {total}, expected 1")
    return dist, len(basis), leak


def phase_estimation(
    u,
    eigenstate,
    t_bits: int,
    *,
    method: EstimationMethod = EstimationMethod.EXACT_EVOLUTION,
    alpha: float = 1.0,
    evolution_time: float | None = None,
    nonnegative_spectrum: bool = False,
) -> PhaseEstimate:
    """Phase estimation with the full output distribution computed exactly.

    The returned phase is the distribution argmax.  The eigenvalue
    reconstruction depends on the method: for exact evolution e^{iAt} it is
    2*pi*phase/t with phases above 1/2 wrapped to negative values unless
    ``nonnegative_spectrum`` is set; for the walk operator it is
    alpha * cos(2*pi*phase), with the readout folded to phase <= 1/2 because
    the walk's eigenphases come in +/- pairs of equal weight.  Reconstructed
    values are clipped to the certified range [-alpha, alpha].  ``t_bits``
    above ``cap_qubits()`` raises ``CapExceededError`` before any allocation.
    """
    if t_bits < 1:
        raise ValueError("t_bits must be positive")
    if t_bits > (qubits := cap_qubits()):  # exponents compared: no 2^t_bits is formed
        raise CapExceededError(f"phase register of {t_bits} qubits exceeds the "
                               f"simulator cap of {qubits} qubits")
    u = as_complex_matrix(u)
    state = np.asarray(eigenstate, dtype=complex).reshape(-1)
    if state.shape[0] != u.shape[0]:
        raise ValueError("eigenstate dimension does not match the unitary")
    if not np.all(np.isfinite(state)):
        raise ValueError("eigenstate entries must be finite")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("eigenstate must be normalized")
    if not is_unitary_matrix(u, 1e-10):  # last: the only O(d^3) check
        raise ValueError("phase estimation requires a unitary operator")

    dist, krylov_dim, leak = _phase_distribution(u, state / norm, t_bits)
    grid = 1 << t_bits
    m = int(np.argmax(dist))

    if method is EstimationMethod.QUBITIZATION_WALK:
        phase = min(m, grid - m) / grid
        eigenvalue = alpha * np.cos(2.0 * np.pi * phase)
    else:
        phase = m / grid
        t_evo = evolution_time if evolution_time is not None else 1.0 / alpha
        if t_evo == 0:
            raise ValueError("evolution time must be nonzero")
        signed = phase if (nonnegative_spectrum or phase <= 0.5) else phase - 1.0
        eigenvalue = 2.0 * np.pi * signed / t_evo
    eigenvalue = float(np.clip(eigenvalue, -alpha, alpha))
    return PhaseEstimate(phase=phase, bits=t_bits, eigenvalue=eigenvalue,
                         method=method, distribution=dist, krylov_dim=krylov_dim,
                         leak=leak)
