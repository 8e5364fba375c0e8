import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from blocklab import spectral
from blocklab.applications import scatter_total_encoding
from blocklab.block_encoding import BlockEncoding, extract_block, trivial_encoding
from blocklab.centering import centering_encoding, centering_matrix, similarity_encoding
from blocklab.data_encoding import hermitian_dilation, hermitian_extension, matrix_encoding
from blocklab.matrix_core import CapExceededError, is_unitary
from blocklab.mean_centering import CenteringMode, mc_encoding
from blocklab.spectral import (
    EstimationMethod,
    exact_evolution,
    phase_estimation,
    walk_operator,
)


def hermitian_test_encoding(rng, n=4):
    """Encoding of a random Hermitian matrix through the dilation route."""
    x = rng.standard_normal((n, n))
    return matrix_encoding(hermitian_extension(x)), hermitian_extension(x)


def unreflect(w, system_dim):
    """The Hermitian representative U~ = (2 Pi_0 - I) W of a walk."""
    out = w.copy()
    out[system_dim:] *= -1.0
    return out


def hadamard_dilation(u):
    """H [[0, U], [U^dag, 0]] H with H a Hadamard on one more qubit, by dense products."""
    zero = np.zeros_like(u)
    dilation = np.block([[zero, u], [u.conj().T, zero]])
    h = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0), np.eye(u.shape[0]))
    return h @ dilation @ h


class TestHermitianize:
    """The Hermitian representative the walk is written from."""

    def test_preserves_block_and_is_hermitian(self):
        rng = np.random.default_rng(0)
        be, target = hermitian_test_encoding(rng)
        u = unreflect(walk_operator(be), be.system_dim)
        assert u.shape[0] == 2 * be.dim
        assert np.max(np.abs(u - u.conj().T)) <= 1e-10
        assert is_unitary(u, 1e-10)
        np.testing.assert_allclose(u[:be.system_dim, :be.system_dim], extract_block(be),
                                   atol=1e-12)

    def test_matches_hadamard_conjugated_dilation(self):
        rng = np.random.default_rng(4)
        be, _ = hermitian_test_encoding(rng)
        herm = unreflect(walk_operator(be), be.system_dim)
        np.testing.assert_allclose(herm, hadamard_dilation(be.unitary), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(herm, herm.conj().T)

    def test_already_hermitian_passthrough(self):
        be = trivial_encoding(np.diag([1.0, -1.0]))
        w = walk_operator(be)
        assert w.shape == (be.dim, be.dim)
        np.testing.assert_array_equal(unreflect(w, be.system_dim), be.unitary)


class TestWalkOperator:
    def test_identity_encoding_phases_zero(self):
        w = walk_operator(trivial_encoding(np.eye(2)))
        phases = np.angle(np.linalg.eigvals(w))
        assert np.max(np.abs(phases)) <= 1e-12

    def test_centering_eigenphases(self):
        w = walk_operator(centering_encoding(4))
        assert is_unitary(w, 1e-10)
        cosines = np.cos(np.angle(np.linalg.eigvals(w)))
        for lam in (0.0, 1.0):
            assert np.min(np.abs(cosines - lam)) <= 1e-8

    def test_random_hermitian_eigenphases(self):
        rng = np.random.default_rng(1)
        be, target = hermitian_test_encoding(rng)
        w = walk_operator(be)
        cosines = np.cos(np.angle(np.linalg.eigvals(w)))
        for lam in np.linalg.eigvalsh(target):
            assert np.min(np.abs(cosines - lam / be.alpha)) <= 1e-8

    def test_quadratic_identity(self):
        rng = np.random.default_rng(2)
        be, target = hermitian_test_encoding(rng)
        w = walk_operator(be)
        lam, vec = np.linalg.eigh(target)
        dim = w.shape[0]
        sys_dim = target.shape[0]
        for j in range(sys_dim):
            psi = np.zeros(dim, dtype=complex)
            psi[:sys_dim] = vec[:, j]
            resid = w @ (w @ psi) - 2 * (lam[j] / be.alpha) * (w @ psi) + psi
            assert np.linalg.norm(resid) <= 1e-10

    def test_matches_dense_reflection_product(self):
        rng = np.random.default_rng(5)
        be, target = hermitian_test_encoding(rng)
        u = hadamard_dilation(be.unitary)
        sys_dim = target.shape[0]
        reflect = -np.eye(u.shape[0], dtype=complex)
        reflect[:sys_dim, :sys_dim] += 2.0 * np.eye(sys_dim)
        np.testing.assert_allclose(walk_operator(be), reflect @ u, rtol=0, atol=1e-14)

    def test_non_hermitian_block_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="Hermitian"):
            walk_operator(matrix_encoding(rng.standard_normal((4, 4))))


def walk_reference(be):
    """The walk by the block formula: the dilation [[e, o], [-o, -e]] of a
    non-Hermitian U, or U itself, with rows >= system_dim negated."""
    u = be.unitary
    u_dag = u.conj().T
    if np.max(np.abs(u - u_dag)) <= 1e-10:
        ref = u.copy()
    else:
        e = (u + u_dag) / 2.0
        o = (u_dag - u) / 2.0
        ref = np.block([[e, o], [-o, -e]])
    ref[be.system_dim:] *= -1.0
    return ref


def walk_dense_encodings():
    """The four encodings the dense-walk benchmark builds, plus a Hermitian leaf."""
    rng = np.random.default_rng(16)
    c8 = centering_matrix(8)
    return {
        "scatter-n8": lambda: scatter_total_encoding(rng.standard_normal((8, 8))),
        "scatter-n4": lambda: scatter_total_encoding(rng.standard_normal((4, 4))),
        "dilation-mc-cxc-n8": lambda: hermitian_dilation(
            mc_encoding(c8 @ rng.standard_normal((8, 8)) @ c8, CenteringMode.CXC)),
        "centering-n16": lambda: centering_encoding(16),
        "hermitian-leaf": lambda: trivial_encoding(np.diag([1.0, -1.0, -1.0, 1.0])),
    }


class TestRealOperators:
    """is_unitary checks a real operator as one float64 product; these pin
    which operators are real."""

    @pytest.mark.parametrize("name", sorted(walk_dense_encodings()))
    def test_walk_dense_encodings_and_walks_are_real(self, name):
        be = walk_dense_encodings()[name]()
        assert not be.unitary.imag.any()
        assert not walk_operator(be).imag.any()

    def test_similarity_encoding_is_real(self):
        # the leaf [[A, S], [S, -A]] is real and Hermitian, and so is its walk
        be = similarity_encoding(np.repeat([0, 1], [2, 4]))  # class sizes (2, 4)
        assert not be.unitary.imag.any()
        np.testing.assert_array_equal(be.unitary, be.unitary.T)
        assert be.validate()
        assert not walk_operator(be).imag.any()


class TestWalkOneBuffer:
    @pytest.mark.parametrize("name", sorted(walk_dense_encodings()))
    def test_bytes_match_block_formula(self, name):
        be = walk_dense_encodings()[name]()
        u = be.unitary
        before = u.tobytes()
        w = walk_operator(be)
        assert w.tobytes() == walk_reference(be).tobytes()
        assert w.flags.writeable and not np.shares_memory(w, u)
        assert be.unitary is u and u.tobytes() == before and not u.flags.writeable

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_dilation_rejected(self):
        u = np.eye(4, dtype=complex)
        u[0, 2], u[2, 0] = 1e308, -1e308
        be = BlockEncoding(u, alpha=1.0, ancillas=1, epsilon=0.0, system_qubits=1)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            walk_operator(be)

    def test_cap_checked_on_dilated_dimension(self, monkeypatch):
        # a Hermitian block, but the data leaf's unitary is not Hermitian
        be = matrix_encoding(np.array([[1.0, 2.0], [2.0, -1.0]]))
        assert be.unitary.shape == (4, 4)  # built under the default cap
        assert not np.allclose(be.unitary, be.unitary.conj().T)
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "2")
        with pytest.raises(CapExceededError):
            walk_operator(be)

    def test_centering_walk_is_not_dilated(self, monkeypatch):
        be = centering_encoding(16)
        assert be.unitary.shape == (32, 32)
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "5")
        assert walk_operator(be).shape == (32, 32)

    def test_scatter_walk_is_not_dilated(self, monkeypatch):
        be = scatter_total_encoding(np.random.default_rng(17).standard_normal((2, 2)))
        assert be.unitary.shape == (16, 16)
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "4")
        assert walk_operator(be).shape == (16, 16)

    @staticmethod
    def check_peak(n, dim):
        """Beyond U, only the walk and one strip of rows are held."""
        be = scatter_total_encoding(np.random.default_rng(18).standard_normal((n, n)))
        u = be.unitary
        tracemalloc.start()
        try:
            w = walk_operator(be)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (dim, dim)
        assert peak <= w.nbytes + u.nbytes + (1 << 20)

    def test_n8_scatter_walk_peak_memory(self):
        self.check_peak(8, 256)

    def test_n16_scatter_walk_peak_memory(self):
        self.check_peak(16, 1024)


class TestExactEvolution:
    def test_zero_time_is_identity(self):
        be = trivial_encoding(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(exact_evolution(be, 0.0), np.eye(2), atol=1e-14)

    def test_diagonal_half_turn(self):
        be = trivial_encoding(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(exact_evolution(be, np.pi), -np.eye(2),
                                   atol=1e-12)

    def test_eigenvalue_phases(self):
        rng = np.random.default_rng(4)
        be, target = hermitian_test_encoding(rng)
        t = 0.37
        u = exact_evolution(be, t)
        expected = np.sort(t * np.linalg.eigvalsh(target))
        observed = np.sort(np.angle(np.linalg.eigvals(u)))
        np.testing.assert_allclose(observed, expected, atol=1e-9)

    def test_group_law(self):
        rng = np.random.default_rng(5)
        be, _ = hermitian_test_encoding(rng)
        u = exact_evolution(be, 0.3) @ exact_evolution(be, 0.5)
        np.testing.assert_allclose(u, exact_evolution(be, 0.8), atol=1e-9)

    def test_output_unitary(self):
        rng = np.random.default_rng(6)
        be, _ = hermitian_test_encoding(rng)
        assert is_unitary(exact_evolution(be, 1.7), 1e-10)

    def test_non_hermitian_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="Hermitian"):
            exact_evolution(matrix_encoding(rng.standard_normal((4, 4))), 1.0)


class TestPhaseEstimation:
    def test_identity_gives_zero_phase(self):
        est = phase_estimation(np.eye(2), np.array([1.0, 0.0]), 6)
        assert est.phase == 0.0

    def test_exact_dyadic_phase(self):
        u = np.diag([1.0, np.exp(1j * np.pi / 2)])
        est = phase_estimation(u, np.array([0.0, 1.0]), 8)
        assert est.phase == 0.25
        assert np.isclose(est.distribution.max(), 1.0)
        assert np.isclose(est.distribution.sum(), 1.0)

    def test_nondyadic_rounds_to_nearest_grid_point(self):
        phi = 0.3037
        u = np.diag([np.exp(2j * np.pi * phi)])
        # pad to a 2-dim unitary to keep a nontrivial register
        u2 = np.diag([np.exp(2j * np.pi * phi), 1.0])
        est = phase_estimation(u2, np.array([1.0, 0.0]), 8)
        assert abs(est.phase - phi) <= 2.0 ** -9 + 1e-12

    def test_distribution_is_normalized(self):
        rng = np.random.default_rng(8)
        be, _ = hermitian_test_encoding(rng)
        u = exact_evolution(be, 0.2)
        state = np.zeros(u.shape[0], dtype=complex)
        state[0] = 1.0
        est = phase_estimation(u, state, 7)
        assert np.isclose(est.distribution.sum(), 1.0)

    def test_walk_method_eigenvalue(self):
        rng = np.random.default_rng(9)
        be, target = hermitian_test_encoding(rng)
        w = walk_operator(be)
        lam, vec = np.linalg.eigh(target)
        psi = np.zeros(w.shape[0], dtype=complex)
        psi[: target.shape[0]] = vec[:, -1]
        est = phase_estimation(w, psi, 9, method=EstimationMethod.QUBITIZATION_WALK,
                               alpha=be.alpha)
        resolution = be.alpha * 2 * np.pi * 2.0 ** -10
        assert abs(est.eigenvalue - lam[-1]) <= resolution
        assert abs(est.eigenvalue) <= be.alpha

    def test_evolution_method_signed_eigenvalue(self):
        be = trivial_encoding(np.diag([1.0, -1.0]))
        u = exact_evolution(be, 1.0)
        est = phase_estimation(u, np.array([0.0, 1.0]), 10, alpha=1.0,
                               evolution_time=1.0)
        assert abs(est.eigenvalue - (-1.0)) <= 2 * np.pi * 2.0 ** -10

    def test_eigenvalue_within_alpha(self):
        rng = np.random.default_rng(10)
        be, target = hermitian_test_encoding(rng)
        t_evo = 1.0 / be.alpha
        u = exact_evolution(be, t_evo)
        lam, vec = np.linalg.eigh(target)
        for j in (0, target.shape[0] - 1):
            psi = np.zeros(u.shape[0], dtype=complex)
            psi[: target.shape[0]] = vec[:, j]
            est = phase_estimation(u, psi, 8, alpha=be.alpha,
                                   evolution_time=t_evo)
            assert abs(est.eigenvalue) <= be.alpha

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            phase_estimation(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 4)

    @pytest.mark.parametrize("state, t_bits, message", [
        ([1.0, 0.0], 0, "t_bits"),
        ([1.0, 0.0, 0.0], 4, "dimension"),
        ([np.nan, 0.0], 4, "finite"),
        ([1.0, 1.0], 4, "normalized"),
    ])
    def test_cheap_checks_refuse_before_unitarity(self, state, t_bits, message):
        with pytest.raises(ValueError, match=message):
            phase_estimation(np.diag([1.0, 2.0]), np.array(state), t_bits)

    def test_phase_register_checked_against_the_cap(self, monkeypatch):
        # refused before the operator or the state is read, and before any
        # 2^t_bits grid is formed
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "4")
        for t_bits in (5, 10**18):
            with pytest.raises(CapExceededError, match=(
                    f"^phase register of {t_bits} qubits exceeds the simulator cap of 4 qubits$")):
                phase_estimation(None, None, t_bits)
        assert phase_estimation(np.eye(2), np.array([1.0, 0.0]), 4).distribution.size == 16

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            phase_estimation(np.eye(2), np.array([1.0, 1.0]), 4)

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            phase_estimation(np.eye(2), [np.nan, 0.0], 4)

    def test_nan_distribution_fails_the_sum_check(self, monkeypatch):
        def nan_schur(h, output):
            return np.full(h.shape, np.nan, dtype=complex), np.eye(h.shape[0], dtype=complex)

        monkeypatch.setattr(spectral.scipy.linalg, "schur", nan_schur)
        with pytest.raises(AssertionError, match="sums to nan"):
            phase_estimation(np.eye(2), np.array([1.0, 0.0]), 4)

    def test_leak_above_bound_raises(self, monkeypatch):
        u = scipy.stats.unitary_group.rvs(8, random_state=np.random.default_rng(11))
        monkeypatch.setattr(spectral, "_KRYLOV_LEAK_BOUND", 0.0)
        with pytest.raises(ArithmeticError, match="leaks"):
            phase_estimation(u, np.eye(8)[0], 4)

    def test_eigenvector_of_diagonal_unitary_spans_one_vector(self):
        u = np.diag([1.0, np.exp(1j * np.pi / 2)])
        est = phase_estimation(u, np.array([0.0, 1.0]), 8)
        assert est.krylov_dim == 1
        assert est.leak == 0.0

    def test_walk_readout_folds_tied_pair(self):
        """The lambda = 0 eigenvector of C_16 has equal peaks at +/- 1/4."""
        be = centering_encoding(16)
        w = walk_operator(be)
        psi = np.zeros(w.shape[0], dtype=complex)
        psi[:16] = 0.25
        est = phase_estimation(w, psi, 8, method=EstimationMethod.QUBITIZATION_WALK,
                               alpha=be.alpha)
        assert est.distribution[64] == pytest.approx(0.5, abs=1e-12)
        assert est.distribution[192] == pytest.approx(0.5, abs=1e-12)
        assert est.phase == 0.25
        assert (np.float64(est.eigenvalue).tobytes()
                == np.float64(be.alpha * np.cos(np.pi / 2)).tobytes())


def schur_distribution(u, state, t_bits):
    """Dense reference: Schur-diagonalize all of U, one Dirichlet kernel per
    eigenpair."""
    tmat, z = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    phases = np.mod(np.angle(np.diag(tmat)) / (2.0 * np.pi), 1.0)
    weights = np.abs(z.conj().T @ state) ** 2
    grid = 1 << t_bits
    ms = np.arange(grid)
    dist = np.zeros(grid)
    for phi, w in zip(phases, weights):
        delta = phi - ms / grid
        sin_d = np.sin(np.pi * delta)
        exact = np.abs(sin_d) < 1e-12
        num = np.sin(np.pi * grid * delta) ** 2
        dist += w * np.where(exact, 1.0, num / np.where(exact, 1.0, sin_d**2) / grid**2)
    return dist


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def walk_cases():
    """(encoding, the Hermitian operator it encodes) for the walk agreement tests."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 4))
    c4 = centering_matrix(4)
    m = c4 @ rng.standard_normal((4, 4)) @ c4
    dilated = np.block([[np.zeros((4, 4)), m], [m.T, np.zeros((4, 4))]])
    return {
        "scatter": (scatter_total_encoding(x), x @ c4 @ x.T),
        "dilation": (hermitian_dilation(mc_encoding(m, CenteringMode.CXC)), dilated),
        "centering": (centering_encoding(8), centering_matrix(8)),
    }


class TestKrylovAgreesWithSchur:
    """The Krylov distribution equals the dense Schur one within 1e-13."""

    TOL = 1e-13

    def check(self, u, state, t_bits=8):
        est = phase_estimation(u, state, t_bits)
        np.testing.assert_allclose(est.distribution, schur_distribution(u, state, t_bits),
                                   rtol=0, atol=self.TOL)
        assert est.leak <= 1e-12
        return est

    @pytest.mark.parametrize("dim", [2, 8, 32, 64])
    def test_random_unitary_random_state(self, dim):
        rng = np.random.default_rng(dim)
        u = scipy.stats.unitary_group.rvs(dim, random_state=rng)
        est = self.check(u, random_state(rng, dim))
        assert est.krylov_dim == dim

    @pytest.mark.parametrize("name", ["scatter", "dilation", "centering"])
    def test_walk_from_eigenvectors(self, name):
        be, target = walk_cases()[name]
        w = walk_operator(be)
        sys_dim = target.shape[0]
        for vec in np.linalg.eigh(target)[1].T:
            psi = np.zeros(w.shape[0], dtype=complex)
            psi[:sys_dim] = vec
            assert self.check(w, psi).krylov_dim <= 2

    @pytest.mark.parametrize("name", ["scatter", "dilation", "centering"])
    def test_walk_from_generic_states(self, name):
        be, target = walk_cases()[name]
        w = walk_operator(be)
        sys_dim = target.shape[0]
        rng = np.random.default_rng(13)
        psi = np.zeros(w.shape[0], dtype=complex)
        psi[:sys_dim] = random_state(rng, sys_dim)
        self.check(w, psi)
        self.check(w, random_state(rng, w.shape[0]))

    def test_degenerate_centering_spectrum(self):
        """C_8 has eigenvalue 1 seven times: the 1 and 0 eigenspaces give
        at most three Krylov vectors from any ancilla-zero state."""
        w = walk_operator(centering_encoding(8))
        psi = np.zeros(w.shape[0], dtype=complex)
        psi[:8] = random_state(np.random.default_rng(14), 8)
        assert self.check(w, psi).krylov_dim <= 3

    def test_n8_scatter_walk_at_dimension_256(self):
        self.check_top_readout(8, 256)

    def test_n16_scatter_walk_at_dimension_1024(self):
        self.check_top_readout(16, 1024)

    @staticmethod
    def check_top_readout(n, dim):
        """The Gram walk reads the top scatter eigenvalue from k = 2."""
        x = np.random.default_rng(15).standard_normal((n, n))
        be = scatter_total_encoding(x)
        w = walk_operator(be)
        assert w.shape[0] == dim
        lam, vec = np.linalg.eigh(x @ centering_matrix(n) @ x.T)
        psi = np.zeros(w.shape[0], dtype=complex)
        psi[:n] = vec[:, -1]
        est = phase_estimation(w, psi, 8, method=EstimationMethod.QUBITIZATION_WALK,
                               alpha=be.alpha)
        assert est.krylov_dim <= 2
        assert est.leak <= 1e-12
        assert abs(est.eigenvalue - lam[-1]) <= be.alpha * np.pi * 2.0 ** -8
