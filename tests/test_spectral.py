import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from blocklab import spectral
from blocklab.applications import scatter_total_encoding
from blocklab.block_encoding import (
    adjoint_encoding,
    difference_encoding,
    extract_block,
    gram_encoding,
    product,
    trivial_encoding,
)
from blocklab.centering import centering_encoding, similarity_encoding
from blocklab.data_encoding import hermitian_dilation, matrix_encoding
from blocklab.matrix_core import CapExceededError, is_unitary
from blocklab.mean_centering import CenteringMode, mc_encoding
from blocklab.oracles import centering_matrix, hermitian_extension
from blocklab.spectral import (
    EstimationMethod,
    evolution_readout,
    phase_estimation,
    walk_operator,
)


def hermitian_test_encoding(rng, n=4):
    """The dilation of a random data encoding, and the Hermitian matrix it encodes."""
    x = rng.standard_normal((n, n))
    return hermitian_dilation(matrix_encoding(x)), hermitian_extension(x)


def unreflect(w, system_dim):
    """The unitary U = (2 Pi_0 - I) W of a walk."""
    out = w.copy()
    out[system_dim:] *= -1.0
    return out


class TestHermitianize:
    """The Hermitian unitary the walk is written from."""

    def test_preserves_block_and_is_hermitian(self):
        rng = np.random.default_rng(0)
        be, target = hermitian_test_encoding(rng)
        u = unreflect(walk_operator(be), be.system_dim)
        assert u.shape[0] == be.dim
        np.testing.assert_array_equal(u, u.conj().T)
        assert is_unitary(u, 1e-10)
        np.testing.assert_allclose(u[:be.system_dim, :be.system_dim], extract_block(be),
                                   atol=1e-12)

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
        u = be.unitary
        sys_dim = target.shape[0]
        reflect = -np.eye(u.shape[0], dtype=complex)
        reflect[:sys_dim, :sys_dim] += 2.0 * np.eye(sys_dim)
        np.testing.assert_allclose(walk_operator(be), reflect @ u, rtol=0, atol=1e-14)

    def test_non_hermitian_block_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="Hermitian"):
            walk_operator(matrix_encoding(rng.standard_normal((4, 4))))


def refused_encodings():
    """Nodes whose law says their unitary is not Hermitian."""
    rng = np.random.default_rng(19)
    x = rng.standard_normal((4, 4))
    return {
        "product": lambda: product(matrix_encoding(x), matrix_encoding(x.T)),
        "adjoint-of-data-leaf": lambda: adjoint_encoding(matrix_encoding(x)),
        "data-leaf": lambda: matrix_encoding(x),
        "data-leaf-of-a-symmetric-matrix": lambda: matrix_encoding(x + x.T),
        "plain-leaf": lambda: trivial_encoding(np.array([[0.0, 1.0], [-1.0, 0.0]])),
    }


class TestWalkRefusal:
    """The walk rests on the node's ``hermitian`` law and refuses a node whose
    law says no, before its unitary is built."""

    @pytest.mark.parametrize("name", sorted(refused_encodings()))
    def test_refused_with_the_remedy_named(self, name):
        be = refused_encodings()[name]()
        assert not be.hermitian
        with pytest.raises(ValueError, match="Hermitian") as info:
            walk_operator(be)
        assert "hermitian_dilation" in str(info.value)
        assert "gram_encoding" in str(info.value)

    @pytest.mark.parametrize("name", ["product", "adjoint-of-data-leaf", "data-leaf"])
    def test_nothing_materialized(self, name):
        be = refused_encodings()[name]()  # every node of these is lazy
        with pytest.raises(ValueError):
            walk_operator(be)
        stack = [be]
        while stack:
            node = stack.pop()
            assert node._cache is None
            stack.extend(node.children)


def walk_reference(be):
    """The walk by the block formula: U, which must be exactly Hermitian, with
    rows >= system_dim negated."""
    u = be.unitary
    np.testing.assert_array_equal(u, u.conj().T)
    ref = u.copy()
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

    @pytest.mark.parametrize("name", sorted(walk_dense_encodings()))
    def test_real_trees_walk_in_float64(self, name):
        """A Gram, dilation or class-leaf walk of real data is stored float64,
        fresh or from a kept unitary."""
        be = walk_dense_encodings()[name]()
        assert be.dtype == np.float64
        assert walk_operator(be).dtype == np.float64
        assert be.unitary.dtype == np.float64
        assert walk_operator(be).dtype == np.float64

    def test_similarity_encoding_is_real(self):
        # the leaf [[A, S], [S, -A]] is real and Hermitian, and so is its walk
        be = similarity_encoding(np.repeat([0, 1], [2, 4]))  # class sizes (2, 4)
        assert not be.unitary.imag.any()
        np.testing.assert_array_equal(be.unitary, be.unitary.T)
        assert be.validate()
        assert not walk_operator(be).imag.any()


class TestRealKrylov:
    """Phase estimation never casts a real operator to complex."""

    @staticmethod
    def _centering_walk_and_state(n, complex_state):
        w = walk_operator(centering_encoding(n))  # dimension 2n, float64
        rng = np.random.default_rng(n)
        psi = np.zeros(w.shape[0], dtype=complex)
        psi[:n] = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_state else 0)
        return w, psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("complex_state", [False, True], ids=["complex-typed-real", "complex"])
    def test_no_complex_copy_of_a_1024_walk(self, complex_state):
        """The whole call, its unitarity check and its kept copy included,
        allocates less than one complex128 copy of the walk would take."""
        w, psi = self._centering_walk_and_state(512, complex_state)
        assert w.dtype == np.float64 and w.shape == (1024, 1024)
        tracemalloc.start()
        try:
            est = phase_estimation(w, psi, 6, method=EstimationMethod.QUBITIZATION_WALK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * w.size
        assert est.distribution.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("complex_state", [False, True], ids=["complex-typed-real", "complex"])
    def test_real_operator_reads_as_its_complex_copy(self, complex_state):
        w, psi = self._centering_walk_and_state(16, complex_state)
        got = phase_estimation(w, psi, 8, method=EstimationMethod.QUBITIZATION_WALK)
        want = phase_estimation(w.astype(complex), psi, 8,
                                method=EstimationMethod.QUBITIZATION_WALK)
        assert (got.phase, got.krylov_dim) == (want.phase, want.krylov_dim)
        np.testing.assert_allclose(got.distribution, want.distribution, rtol=0, atol=1e-12)


class TestWalkOneBuffer:
    @pytest.mark.parametrize("name", sorted(walk_dense_encodings()))
    def test_bytes_match_block_formula(self, name):
        be = walk_dense_encodings()[name]()
        assert be.hermitian
        u = be.unitary
        before = u.tobytes()
        w = walk_operator(be)
        assert w.tobytes() == walk_reference(be).tobytes()
        assert w.flags.writeable and not np.shares_memory(w, u)
        assert be.unitary is u and u.tobytes() == before and not u.flags.writeable

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
        """Beyond U, only the walk's own buffer is held."""
        be = scatter_total_encoding(np.random.default_rng(18).standard_normal((n, n)))
        u = be.unitary
        tracemalloc.start()
        try:
            w = walk_operator(be)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (dim, dim)
        assert peak <= w.nbytes + (1 << 16)

    def test_n8_scatter_walk_peak_memory(self):
        self.check_peak(8, 256)

    def test_n16_scatter_walk_peak_memory(self):
        self.check_peak(16, 1024)

    def test_n16_fresh_scatter_walk_peak_memory(self):
        """A fresh Gram node's build is the walk's buffer: the whole build,
        data leaf included, peaks under 1.5 walks, with no second copy."""
        be = scatter_total_encoding(np.random.default_rng(18).standard_normal((16, 16)))
        tracemalloc.start()
        try:
            w = walk_operator(be)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (1024, 1024)
        assert peak <= 1.5 * w.nbytes


def hermitian_kinds():
    """One encoding of each node kind a walk accepts."""
    rng = np.random.default_rng(20)
    x = rng.standard_normal((4, 4))
    return {
        "gram": lambda: scatter_total_encoding(x),
        "dilation": lambda: hermitian_dilation(matrix_encoding(x)),
        "difference": lambda: difference_encoding(
            gram_encoding(matrix_encoding(x)),
            gram_encoding(matrix_encoding(x * [1.0, -1.0, 1.0, -1.0]))),
        "adjoint-of-gram": lambda: adjoint_encoding(gram_encoding(matrix_encoding(x))),
        "class-leaf": lambda: centering_encoding(np.array([0, 1, 0, -1, 1]), 8),
        "trivial-leaf": lambda: trivial_encoding(np.diag([1.0, -1.0, -1.0, 1.0])),
    }


def tree_nodes(be):
    nodes, stack = [], [be]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1].children)
    return nodes


class TestWalkLayout:
    """The walk is its own C-contiguous, writable buffer with the reference
    bytes, whether or not the node kept its unitary."""

    @pytest.mark.parametrize("read_first", [False, True], ids=["fresh", "kept"])
    @pytest.mark.parametrize("name", sorted(hermitian_kinds()))
    def test_layout_and_bytes(self, name, read_first):
        be = hermitian_kinds()[name]()
        assert be.hermitian
        if read_first:
            be.unitary
        w = walk_operator(be)
        assert w.flags.c_contiguous and w.flags.writeable
        assert w.tobytes() == walk_reference(be).tobytes()
        for node in tree_nodes(be):
            assert node._cache is None or not np.shares_memory(w, node._cache)

    @pytest.mark.parametrize("name", ["gram", "dilation", "difference", "adjoint-of-gram"])
    def test_fresh_composite_caches_nothing(self, name):
        """Only the data leaves keep their unitary, as every parent shares
        their one build; no composite caches one that only the walk reads."""
        be = hermitian_kinds()[name]()
        walk_operator(be)
        for node in tree_nodes(be):
            if node.children:
                assert node._cache is None, node.kind


def per_seed_readouts(be, states, t_bits, t):
    """evolution_readout with one Dirichlet kernel per seed, over the phases
    that seed keeps."""
    a = be.alpha * be.extract_block()
    lam, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    phases = np.mod(t * lam / (2.0 * np.pi), 1.0)
    grid = 1 << t_bits
    m = []
    for amp in (v.conj().T @ states).T:
        keep = np.abs(amp) > spectral._KRYLOV_BREAKDOWN
        delta = phases[keep][:, None] - np.arange(grid) / grid
        sin_d = np.sin(np.pi * delta)
        exact = np.abs(sin_d) < 1e-12
        num = np.sin(np.pi * grid * delta) ** 2
        kernel = np.where(exact, 1.0, num / np.where(exact, 1.0, sin_d**2) / grid**2)
        m.append(np.argmax(np.abs(amp[keep]) ** 2 @ kernel))
    return np.clip(2.0 * np.pi * (np.array(m) / grid) / t, -be.alpha, be.alpha)


def readout_seeds(kind, rng):
    """pca's scatter encoding and seeds: the top three eigenvectors of an 8 x 8
    scatter, five generic complex states, or every eigenvector of a 12 x 12
    scatter, whose 16-dimensional register holds a degenerate zero cluster."""
    x = rng.standard_normal((12, 12) if kind == "zero-cluster" else (8, 8))
    be = scatter_total_encoding(x)
    _, vectors = np.linalg.eigh(be.alpha * be.extract_block())
    if kind == "eigenvectors":
        return be, vectors[:, ::-1][:, :3]
    if kind == "generic":
        states = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        return be, states / np.linalg.norm(states, axis=0)
    return be, vectors


class TestExactEvolution:
    """Phase estimation on e^{iAt}, read in closed form by ``evolution_readout``."""

    def test_diagonal_half_turn(self):
        # at t = pi both eigenvalues +/-1 sit at phase 1/2: the readout assumes
        # a spectrum in [0, 2 pi / t) and reads 1 for each
        be = trivial_encoding(np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(evolution_readout(be, np.eye(2), 6, np.pi), [1.0, 1.0])

    def test_eigenvalue_phases(self):
        rng = np.random.default_rng(4)
        be, target = hermitian_test_encoding(rng)
        t = 0.37
        lam, vec = np.linalg.eigh(target)
        states = np.zeros((be.system_dim, lam.size))
        states[:target.shape[0]] = vec
        got = evolution_readout(be, states, 10, t)
        want = np.mod(lam, 2 * np.pi / t)  # the spectrum in [0, 2 pi / t)
        inside = want <= be.alpha
        assert np.max(np.abs(got[inside] - want[inside])) <= 2 * np.pi / t * 2.0 ** -11
        np.testing.assert_array_equal(got[~inside], be.alpha)

    def test_non_hermitian_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="Hermitian"):
            evolution_readout(matrix_encoding(rng.standard_normal((4, 4))), np.eye(4), 4, 1.0)

    @pytest.mark.parametrize("t_bits", [4, 8, 12])
    @pytest.mark.parametrize("kind", ["eigenvectors", "generic", "zero-cluster"])
    def test_one_kernel_gives_the_per_seed_readouts(self, kind, t_bits, monkeypatch):
        be, states = readout_seeds(kind, np.random.default_rng(t_bits))
        t = 1.2 * np.pi / be.alpha
        calls = []
        mixture = spectral._dirichlet_mixture
        monkeypatch.setattr(spectral, "_dirichlet_mixture",
                            lambda *args: calls.append(args) or mixture(*args))
        got = evolution_readout(be, states, t_bits, t)
        assert len(calls) == 1 and calls[0][1].shape[0] == states.shape[1]
        assert got.tobytes() == per_seed_readouts(be, states, t_bits, t).tobytes()

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_time_must_be_finite_and_positive(self, t):
        be, _ = hermitian_test_encoding(np.random.default_rng(11))
        with pytest.raises(ValueError, match="^t must be finite and positive$"):
            evolution_readout(be, np.eye(be.system_dim), 4, t)

    @pytest.mark.parametrize("states, message", [
        (np.eye(8)[0], "^states must be a 8 x k matrix of columns$"),
        (np.eye(4), "^states must be a 8 x k matrix of columns$"),
        (np.full((8, 1), np.nan), "^states must be finite$"),
        (np.full((8, 1), 3.0 / np.sqrt(8)), "^states must be unit columns within 1e-10$"),
    ], ids=["1-D", "mis-sized", "non-finite", "unnormalized"])
    def test_states_must_be_unit_columns(self, states, message):
        be, _ = hermitian_test_encoding(np.random.default_rng(11))
        with pytest.raises(ValueError, match=message):
            evolution_readout(be, states, 4, 1.0)


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
        _, target = hermitian_test_encoding(rng)
        u = scipy.linalg.expm(0.2j * target)
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

    def test_eigenvalue_within_alpha(self):
        # at t = 1/alpha a negative eigenvalue reads near 2 pi alpha, clipped to alpha
        rng = np.random.default_rng(10)
        be, target = hermitian_test_encoding(rng)
        lam, vec = np.linalg.eigh(target)
        states = np.zeros((be.system_dim, 2))
        states[:target.shape[0]] = vec[:, [0, -1]]
        got = evolution_readout(be, states, 8, 1.0 / be.alpha)
        assert lam[0] < 0 and got[0] == be.alpha
        assert np.all(np.abs(got) <= be.alpha)

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
            with pytest.raises(CapExceededError, match="^phase register of"):
                evolution_readout(None, None, t_bits, 1.0)
        with pytest.raises(ValueError, match="^t_bits must be positive$"):
            evolution_readout(None, None, 0, 1.0)
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


@pytest.fixture
def unitarity_checks(monkeypatch):
    """The operators phase estimation passes to ``is_unitary_matrix``."""
    seen = []
    check = spectral.is_unitary_matrix

    def counted(u, tol):
        seen.append(u)
        return check(u, tol)

    monkeypatch.setattr(spectral, "is_unitary_matrix", counted)
    return seen


def scatter_walk_and_states(n=4):
    """A fresh scatter walk and its n system eigenvectors, embedded."""
    x = np.random.default_rng(21).standard_normal((n, n))
    w = walk_operator(scatter_total_encoding(x))
    states = np.zeros((n, w.shape[0]), dtype=complex)
    states[:, :n] = np.linalg.eigh(x @ centering_matrix(n) @ x.T)[1].T
    return w, states


class TestUnitarityCheckedOnce:
    """Every phase estimation call runs the exact unitarity check once and
    keeps nothing."""

    def test_one_check_for_three_states(self, unitarity_checks):
        w, states = scatter_walk_and_states()
        for psi in states[:3]:
            phase_estimation(w, psi, 6)
        assert len(unitarity_checks) == 3
        assert all(u is w for u in unitarity_checks)

    def test_mutated_operator_checked_again_and_refused(self, unitarity_checks):
        w, states = scatter_walk_and_states()
        phase_estimation(w, states[0], 6)
        w[5, 5] += 0.5
        with pytest.raises(ValueError, match="unitary"):
            phase_estimation(w, states[0], 6)
        assert len(unitarity_checks) == 2
        with pytest.raises(ValueError, match="unitary"):
            phase_estimation(w, states[1], 6)
        assert len(unitarity_checks) == 3

    def test_non_unitary_refused_on_every_call(self, unitarity_checks):
        u = np.diag([1.0, 2.0]).astype(complex)
        for _ in range(3):
            with pytest.raises(ValueError, match="unitary"):
                phase_estimation(u, np.array([1.0, 0.0]), 4)
        assert len(unitarity_checks) == 3

    def test_memo_dropped_with_the_operator(self):
        """A call leaves nothing allocated beyond its result: no copy of the
        walk, and no module state that could hold one."""
        w, states = scatter_walk_and_states(8)
        phase_estimation(w, states[0], 6)  # first-call imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = phase_estimation(w, states[1], 6)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < est.distribution.nbytes + 4096 < w.nbytes // 16
        assert not hasattr(spectral, "_accepted")

    def test_distinct_array_with_the_same_bits_checked_again(self, unitarity_checks):
        w, states = scatter_walk_and_states()
        twin = w.copy()
        first = phase_estimation(w, states[0], 6)
        second = phase_estimation(twin, states[0], 6)
        assert [u is v for u, v in zip(unitarity_checks, (w, twin))] == [True, True]
        np.testing.assert_array_equal(first.distribution, second.distribution)


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
