"""Block-encoding algebra: construction, verification, products, and linear
combinations of block-encoded operators.

A block-encoding certifies that a target operator A sits, scaled by 1/alpha,
in the leading 2^s x 2^s block of a unitary on s system qubits plus a ancilla
qubits (ancillas most significant):

    || A - alpha (<0|^a (x) I) U (|0>^a (x) I) || <= epsilon

Composite encodings (products, linear combinations, selects, dilations) store
their structure and materialize the full unitary only on demand; the encoded
block itself is always available cheaply through the exact corner identities
of each composition rule.  Tests cross-check those identities against the
materialized unitaries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrix_core import (
    as_complex_matrix,
    ensure_dimension,
    insert_middle_identity,
    is_power_of_two,
    is_unitary,
    place_middle_blocks,
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
    "rescale_encoding",
    "make_state_prep_pair",
    "linear_combination",
    "composition_log",
    "reset_composition_log",
]


# ---------------------------------------------------------------------------
# Unitary representations
# ---------------------------------------------------------------------------

class _UnitaryForm:
    """Lazy description of an encoding unitary.

    ``dim`` is the full dimension; ``materialize`` builds the dense matrix and
    ``corner(b)`` returns the leading b x b block via the exact corner law of
    the node, without materializing.
    """

    dim: int

    def materialize(self) -> np.ndarray:
        raise NotImplementedError

    def corner(self, b: int) -> np.ndarray:
        raise NotImplementedError


class _Explicit(_UnitaryForm):
    def __init__(self, matrix: np.ndarray):
        self.matrix = as_complex_matrix(matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("encoding unitary must be square")
        self.dim = self.matrix.shape[0]

    def materialize(self) -> np.ndarray:
        return self.matrix

    def corner(self, b: int) -> np.ndarray:
        return self.matrix[:b, :b]


class _Product(_UnitaryForm):
    """(I_b (x) U) (I_a (x) V) with V lifted over U's ancillas.

    Corner law: the encoded block of the composite is (block of U)(block of V).
    """

    def __init__(self, left: _UnitaryForm, right: _UnitaryForm, system_dim: int):
        self.left = left
        self.right = right
        self.system_dim = system_dim
        self.left_anc = left.dim // system_dim
        self.right_anc = right.dim // system_dim
        self.dim = self.right_anc * left.dim
        ensure_dimension(self.dim)

    def materialize(self) -> np.ndarray:
        u = self.left.materialize()
        v = self.right.materialize()
        lifted = insert_middle_identity(v, self.right_anc, self.left_anc, self.system_dim)
        return np.kron(np.eye(self.right_anc, dtype=complex), u) @ lifted

    def corner(self, b: int) -> np.ndarray:
        return self.left.corner(b) @ self.right.corner(b)


class _Lcu(_UnitaryForm):
    """(P_L^dag (x) I) [ sum_j |j><j| (x) U_j + rest (x) I ] (P_R (x) I).

    Its (a, b) block is sum_j conj(P_L[j, a]) P_R[j, b] U_j, with U_j = I on
    the unused slots; ``materialize`` builds exactly that.
    Corner law: sum_j conj(c_j) d_j (block of U_j), extended over the unused
    selector slots by conj(c_j) d_j * I (zero for a valid preparation pair).
    """

    def __init__(self, p_left: np.ndarray, p_right: np.ndarray,
                 terms: Sequence[_UnitaryForm]):
        self.p_left = p_left
        self.p_right = p_right
        self.terms = tuple(terms)
        self.slots = p_left.shape[0]
        self.inner_dim = self.terms[0].dim
        self.dim = self.slots * self.inner_dim
        ensure_dimension(self.dim)

    def materialize(self) -> np.ndarray:
        eye = np.eye(self.inner_dim, dtype=complex)
        mats = [self.terms[j].materialize() if j < len(self.terms) else eye
                for j in range(self.slots)]
        out = np.einsum("ja,jb,jxy->axby", self.p_left.conj(), self.p_right, np.stack(mats))
        return out.reshape(self.dim, self.dim)

    def corner(self, b: int) -> np.ndarray:
        c = self.p_left[:, 0]
        d = self.p_right[:, 0]
        out = np.zeros((b, b), dtype=complex)
        for j in range(self.slots):
            w = np.conj(c[j]) * d[j]
            if w == 0:
                continue
            if j < len(self.terms):
                out += w * self.terms[j].corner(b)
            else:
                out += w * np.eye(b, dtype=complex)
        return out


class _MiddleSelect(_UnitaryForm):
    """sum_k |k><k| on a register inserted between ancillas and system.

    Corner law: block-diagonal of the member blocks.
    """

    def __init__(self, ops: Sequence[_UnitaryForm], anc_dim: int, inner_sys_dim: int):
        self.ops = tuple(ops)
        self.anc_dim = anc_dim
        self.inner_sys_dim = inner_sys_dim
        self.dim = len(ops) * self.ops[0].dim
        ensure_dimension(self.dim)

    def materialize(self) -> np.ndarray:
        blocks = {(k, k): op.materialize() for k, op in enumerate(self.ops)}
        return place_middle_blocks(self.anc_dim, len(self.ops), self.inner_sys_dim, blocks)

    def corner(self, b: int) -> np.ndarray:
        inner = b // len(self.ops)
        out = np.zeros((b, b), dtype=complex)
        for k, op in enumerate(self.ops):
            lo, hi = k * inner, (k + 1) * inner
            out[lo:hi, lo:hi] = op.corner(inner)
        return out


class _OffDiagonalDilation(_UnitaryForm):
    """|0><1| (x) U + |1><0| (x) U^dag on a qubit inserted before the system.

    Corner law: [[0, B], [B^dag, 0]] for the inner block B.
    """

    def __init__(self, inner: _UnitaryForm, anc_dim: int, inner_sys_dim: int):
        self.inner = inner
        self.anc_dim = anc_dim
        self.inner_sys_dim = inner_sys_dim
        self.dim = 2 * inner.dim
        ensure_dimension(self.dim)

    def materialize(self) -> np.ndarray:
        u = self.inner.materialize()
        return place_middle_blocks(
            self.anc_dim, 2, self.inner_sys_dim,
            {(0, 1): u, (1, 0): u.conj().T},
        )

    def corner(self, b: int) -> np.ndarray:
        inner = b // 2
        blk = self.inner.corner(inner)
        out = np.zeros((b, b), dtype=complex)
        out[:inner, inner:] = blk
        out[inner:, :inner] = blk.conj().T
        return out


class _SystemExtend(_UnitaryForm):
    """Tensor an identity factor into the high part of the system register.

    Corner law: I_factor (x) inner block.
    """

    def __init__(self, inner: _UnitaryForm, factor: int, inner_sys_dim: int):
        self.inner = inner
        self.factor = factor
        self.inner_sys_dim = inner_sys_dim
        self.anc_dim = inner.dim // inner_sys_dim
        self.dim = factor * inner.dim
        ensure_dimension(self.dim)

    def materialize(self) -> np.ndarray:
        return insert_middle_identity(
            self.inner.materialize(), self.anc_dim, self.factor, self.inner_sys_dim
        )

    def corner(self, b: int) -> np.ndarray:
        inner = b // self.factor
        return np.kron(np.eye(self.factor, dtype=complex), self.inner.corner(inner))


class _Adjoint(_UnitaryForm):
    def __init__(self, inner: _UnitaryForm):
        self.inner = inner
        self.dim = inner.dim

    def materialize(self) -> np.ndarray:
        return self.inner.materialize().conj().T

    def corner(self, b: int) -> np.ndarray:
        return self.inner.corner(b).conj().T


class _Rescale(_UnitaryForm):
    """(R_gamma (x) I) (I_2 (x) U) = [[gamma U, -s U], [s U, gamma U]] with
    s = sqrt(1 - gamma^2); shrinks the encoded block by gamma using one extra
    ancilla.
    """

    def __init__(self, inner: _UnitaryForm, gamma: float):
        if not 0.0 < gamma <= 1.0:
            raise ValueError("rescale factor must lie in (0, 1]")
        self.inner = inner
        self.gamma = float(gamma)
        self.dim = 2 * inner.dim
        ensure_dimension(self.dim)

    def materialize(self) -> np.ndarray:
        g = self.gamma
        s = np.sqrt(max(0.0, 1.0 - g * g))
        u = self.inner.materialize()
        return np.block([[g * u, -s * u], [s * u, g * u]])

    def corner(self, b: int) -> np.ndarray:
        return self.gamma * self.inner.corner(b)


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------

class BlockEncoding:
    """A unitary together with the (alpha, ancillas, epsilon) certificate.

    The unitary acts on ``system_qubits + ancillas`` qubits with ancillas most
    significant; ``alpha * extract_block(...)`` approximates the target within
    ``epsilon`` in spectral norm.  Instances are immutable.
    """

    __slots__ = ("_form", "alpha", "ancillas", "epsilon", "system_qubits", "_cache")

    def __init__(self, unitary, alpha: float, ancillas: int, epsilon: float,
                 system_qubits: int, validate_unitary: bool = False):
        form = unitary if isinstance(unitary, _UnitaryForm) else _Explicit(unitary)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if ancillas < 0:
            raise ValueError("ancilla count must be nonnegative")
        if system_qubits < 1:
            raise ValueError("system qubit count must be positive")
        if not is_power_of_two(form.dim):
            raise ValueError("encoding dimension must be a power of two")
        if qubit_count(form.dim) != system_qubits + ancillas:
            raise ValueError(
                f"unitary dimension {form.dim} inconsistent with "
                f"{system_qubits} system + {ancillas} ancilla qubits"
            )
        if validate_unitary and not is_unitary(form.materialize()):
            raise ValueError("encoding matrix is not unitary within 1e-10")
        object.__setattr__(self, "_form", form)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "ancillas", int(ancillas))
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "system_qubits", int(system_qubits))
        object.__setattr__(self, "_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("BlockEncoding is immutable")

    @property
    def system_dim(self) -> int:
        return 1 << self.system_qubits

    @property
    def total_qubits(self) -> int:
        return self.system_qubits + self.ancillas

    @property
    def dim(self) -> int:
        return self._form.dim

    @property
    def unitary(self) -> np.ndarray:
        """The full encoding unitary (materialized on demand and cached)."""
        cached = self._cache
        if cached is None:
            cached = self._form.materialize()
            cached.setflags(write=False)
            object.__setattr__(self, "_cache", cached)
        return cached

    def extract_block(self) -> np.ndarray:
        """Leading system-dim block; multiply by alpha to approximate the target."""
        return self._form.corner(self.system_dim)

    def validate(self, tol: float = 1e-10) -> bool:
        """Materialize and check unitarity (intended for tests and small sizes)."""
        return is_unitary(self.unitary, tol)

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
    max_abs_entry_error: float = 0.0

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
# Composition audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionRecord:
    kind: str
    alpha_expected: float
    alpha_actual: float
    ancillas_expected: int
    ancillas_actual: int
    epsilon_expected: float
    epsilon_actual: float

    @property
    def ok(self) -> bool:
        return (
            self.alpha_expected == self.alpha_actual
            and self.ancillas_expected == self.ancillas_actual
            and self.epsilon_expected == self.epsilon_actual
        )


_audit_lock = threading.Lock()
_audit: list[CompositionRecord] = []


def _record(rec: CompositionRecord) -> None:
    with _audit_lock:
        _audit.append(rec)


def composition_log() -> tuple[CompositionRecord, ...]:
    """All product/linear-combination metadata records since the last reset."""
    with _audit_lock:
        return tuple(_audit)


def reset_composition_log() -> None:
    with _audit_lock:
        _audit.clear()


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def trivial_encoding(u) -> BlockEncoding:
    """A unitary is a (1, 0, 0) encoding of itself."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1] or not is_power_of_two(u.shape[0]):
        raise ValueError("trivial encoding requires a square power-of-two unitary")
    if not is_unitary(u):
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
    diff = target - be.alpha * be.extract_block()
    dist = spectral_norm(diff)
    max_abs = float(np.max(np.abs(diff)))
    passed = dist <= max(be.epsilon, tol)
    return VerificationReport(
        alpha=be.alpha,
        ancillas=be.ancillas,
        epsilon_declared=be.epsilon,
        distance_measured=dist,
        tolerance=tol,
        passed=bool(passed),
        max_abs_entry_error=max_abs,
    )


def product(u_be: BlockEncoding, v_be: BlockEncoding) -> BlockEncoding:
    """Encoding of AB from encodings of A and B.

    Scale factors multiply, ancilla counts add, and the error composes as
    alpha_A * eps_B + alpha_B * eps_A.  Each factor keeps its own ancillas;
    the encoded block of the result is exactly the product of the blocks.
    """
    if u_be.system_qubits != v_be.system_qubits:
        raise ValueError("system dimension mismatch between product factors")
    alpha = u_be.alpha * v_be.alpha
    ancillas = u_be.ancillas + v_be.ancillas
    epsilon = u_be.alpha * v_be.epsilon + v_be.alpha * u_be.epsilon
    form = _Product(u_be._form, v_be._form, u_be.system_dim)
    out = BlockEncoding(form, alpha=alpha, ancillas=ancillas, epsilon=epsilon,
                        system_qubits=u_be.system_qubits)
    _record(CompositionRecord(
        kind="product",
        alpha_expected=u_be.alpha * v_be.alpha, alpha_actual=out.alpha,
        ancillas_expected=u_be.ancillas + v_be.ancillas,
        ancillas_actual=qubit_count(out.dim) - out.system_qubits,
        epsilon_expected=u_be.alpha * v_be.epsilon + v_be.alpha * u_be.epsilon,
        epsilon_actual=out.epsilon,
    ))
    return out


def adjoint_encoding(be: BlockEncoding) -> BlockEncoding:
    """Encoding of the adjoint target, from the adjoint unitary."""
    return BlockEncoding(_Adjoint(be._form), alpha=be.alpha, ancillas=be.ancillas,
                         epsilon=be.epsilon, system_qubits=be.system_qubits)


def rescale_encoding(be: BlockEncoding, new_alpha: float) -> BlockEncoding:
    """Re-certify the same target with a larger scale factor.

    One extra ancilla carries a rotation that shrinks the encoded block by
    old_alpha/new_alpha, so new_alpha * block still reproduces the target and
    the declared error bound is unchanged.
    """
    if new_alpha < be.alpha:
        raise ValueError("can only rescale to a larger alpha")
    if new_alpha == be.alpha:
        gamma = 1.0
    else:
        gamma = be.alpha / new_alpha
    form = _Rescale(be._form, gamma)
    return BlockEncoding(form, alpha=float(new_alpha), ancillas=be.ancillas + 1,
                         epsilon=be.epsilon, system_qubits=be.system_qubits)


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
    eps' = alpha * eps_y + alpha * beta * max_j eps_j.
    """
    if not encodings:
        raise ValueError("at least one encoding is required")
    first = encodings[0]
    for be in encodings:
        if be.system_qubits != first.system_qubits:
            raise ValueError("all combined encodings must share the system size")
        if be.ancillas != first.ancillas:
            raise ValueError("all combined encodings must share the ancilla count")
        if be.alpha != common_alpha:
            raise ValueError(
                "all combined encodings must share alpha; rescale before combining"
            )
    slots = 1 << pair.prep_qubits
    if len(encodings) > slots:
        raise ValueError(
            f"{len(encodings)} terms exceed the {slots} selector slots of the pair"
        )
    if len(pair.coefficients) < len(encodings):
        raise ValueError("fewer coefficients than encodings")

    form = _Lcu(pair.p_left, pair.p_right, [be._form for be in encodings])
    alpha = common_alpha * pair.beta
    ancillas = first.ancillas + pair.prep_qubits
    eps_terms = max(be.epsilon for be in encodings)
    epsilon = common_alpha * pair.epsilon_y + common_alpha * pair.beta * eps_terms
    out = BlockEncoding(form, alpha=alpha, ancillas=ancillas, epsilon=epsilon,
                        system_qubits=first.system_qubits)
    _record(CompositionRecord(
        kind="lcu",
        alpha_expected=common_alpha * pair.beta, alpha_actual=out.alpha,
        ancillas_expected=first.ancillas + pair.prep_qubits,
        ancillas_actual=qubit_count(out.dim) - out.system_qubits,
        epsilon_expected=epsilon, epsilon_actual=out.epsilon,
    ))
    return out


# Internal helpers used by the higher-level constructions ---------------------

def _middle_select_encoding(
    members: Sequence[BlockEncoding],
    alpha: float,
    epsilon: float,
) -> BlockEncoding:
    """sum_k |k><k| (x) U_k with the selector as the high system register.

    All members must share dimensions and ancilla counts; the selector
    register becomes part of the system, so the encoded block is the block
    diagonal of the member blocks.
    """
    first = members[0]
    if len(members) < 1 or not is_power_of_two(len(members)):
        raise ValueError("member count must be a power of two")
    for be in members:
        if be.system_qubits != first.system_qubits or be.ancillas != first.ancillas:
            raise ValueError("select members must share system and ancilla sizes")
    form = _MiddleSelect([be._form for be in members],
                         anc_dim=1 << first.ancillas,
                         inner_sys_dim=first.system_dim)
    sys_qubits = first.system_qubits + qubit_count(len(members))
    return BlockEncoding(form, alpha=alpha, ancillas=first.ancillas,
                         epsilon=epsilon, system_qubits=sys_qubits)


def _off_diagonal_dilation_encoding(be: BlockEncoding, epsilon: float) -> BlockEncoding:
    """[[0, B], [B^dag, 0]] on one extra system qubit (most significant)."""
    form = _OffDiagonalDilation(be._form, anc_dim=1 << be.ancillas,
                                inner_sys_dim=be.system_dim)
    return BlockEncoding(form, alpha=be.alpha, ancillas=be.ancillas,
                         epsilon=epsilon, system_qubits=be.system_qubits + 1)


def _system_extend_encoding(be: BlockEncoding, factor: int) -> BlockEncoding:
    """Tensor the target with I_factor on a new high system register."""
    if not is_power_of_two(factor):
        raise ValueError("extension factor must be a power of two")
    if factor == 1:
        return be
    form = _SystemExtend(be._form, factor, be.system_dim)
    return BlockEncoding(form, alpha=be.alpha, ancillas=be.ancillas,
                         epsilon=be.epsilon,
                         system_qubits=be.system_qubits + qubit_count(factor))
