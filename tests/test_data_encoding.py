import tracemalloc

import numpy as np
import pytest

from blocklab.applications import scatter_total_encoding
from blocklab.block_encoding import extract_block, product, trivial_encoding
from blocklab.data_encoding import (
    build_norm_tree,
    hermitian_dilation,
    matrix_encoding,
    preparation_unitaries,
)
from blocklab.matrix_core import CapExceededError, embed_power_of_two, is_unitary
from blocklab.mean_centering import CenteringMode, mc_encoding
from blocklab.oracles import hermitian_extension
from blocklab.spectral import walk_operator


class TestNormTree:
    def test_identity(self):
        tree = build_norm_tree(np.eye(2))
        np.testing.assert_allclose(tree.row_norms, [1.0, 1.0])
        assert np.isclose(tree.frobenius_norm, np.sqrt(2))

    def test_three_four_five(self):
        tree = build_norm_tree(np.array([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(tree.row_norms, [5.0, 0.0])
        assert np.isclose(tree.frobenius_norm, 5.0)

    def test_root_is_total_sum(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tree = build_norm_tree(x)
        assert np.isclose(tree.frobenius_norm ** 2, np.sum(np.abs(x) ** 2))

    def test_internal_nodes_sum_children(self):
        def tree_root(leaves):
            level = list(leaves) + [0.0] * ((1 << (len(leaves) - 1).bit_length()) - len(leaves))
            while len(level) > 1:
                level = [level[k] + level[k + 1] for k in range(0, len(level), 2)]
            return level[0]

        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        tree = build_norm_tree(x)
        row_sq = [tree_root(np.abs(x[i]) ** 2) for i in range(4)]
        np.testing.assert_array_equal(tree.row_norms, np.sqrt(row_sq))
        assert tree.frobenius_norm == np.sqrt(tree_root(row_sq))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            build_norm_tree(np.zeros((2, 2)))


class TestMatrixEncoding:
    def test_identity_data(self):
        be = matrix_encoding(np.eye(2))
        assert np.isclose(be.alpha, np.sqrt(2))
        np.testing.assert_allclose(be.alpha * extract_block(be), np.eye(2),
                                   atol=1e-12)

    def test_small_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        be = matrix_encoding(x)
        assert np.isclose(be.alpha, np.sqrt(30))
        np.testing.assert_allclose(be.alpha * extract_block(be), x, atol=1e-9)

    def test_alpha_is_frobenius_norm(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 8):
            x = rng.standard_normal((n, n))
            be = matrix_encoding(x)
            assert abs(be.alpha - np.linalg.norm(x)) <= 1e-12

    def test_complex_entries(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        be = matrix_encoding(x)
        np.testing.assert_allclose(be.alpha * extract_block(be), x, atol=1e-9)

    def test_zero_row(self):
        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        be = matrix_encoding(x)
        np.testing.assert_allclose(be.alpha * extract_block(be), x, atol=1e-12)

    def test_preparations_unitary_and_prescribed(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4))
        x[2] = 0.0
        rows, w = preparation_unitaries(x)
        assert rows.shape == (4, 4, 4) and w.shape == (4, 4)
        assert all(is_unitary(r, 1e-10) for r in rows) and is_unitary(w, 1e-10)
        tree = build_norm_tree(x)
        for i in (0, 1, 3):
            np.testing.assert_array_equal(
                rows[i][:, 0], np.conj(x[i]) / tree.row_norms[i])  # in x's dtype
        np.testing.assert_array_equal(rows[2], np.eye(4))
        np.testing.assert_array_equal(w[:, 0], tree.row_norms / tree.frobenius_norm)

    @staticmethod
    def _dense_product(x):
        """U_rows^dag U_norms assembled densely, in x's dtype: select over
        R_i after a register swap, and W (x) I."""
        rows, w = preparation_unitaries(x)
        n = x.shape[0]
        dim = n * n
        u_rows = np.zeros((dim, dim), dtype=x.dtype)
        for i in range(n):
            u_rows[i * n:(i + 1) * n, i * n:(i + 1) * n] = rows[i]
        u_rows = u_rows[:, np.arange(dim).reshape(n, n).T.reshape(-1)]
        u_norms = np.kron(w, np.eye(n, dtype=x.dtype))
        return u_rows.conj().T @ u_norms

    @pytest.mark.parametrize("kind", ["real", "complex", "zero-row", "embedded"])
    def test_closed_form_is_dense_product_bit_for_bit(self, kind):
        rng = np.random.default_rng(12)
        for n in (2, 4, 8, 16, 32):
            x = rng.standard_normal((n, n))
            if kind == "complex":
                x = x + 1j * rng.standard_normal((n, n))
            elif kind == "zero-row":
                x[rng.integers(n)] = 0.0
            elif kind == "embedded":
                x = embed_power_of_two(rng.standard_normal((n // 2 + 1, n // 2)), n)
            be = matrix_encoding(x)
            got = be.unitary
            expected = self._dense_product(x)
            # tobytes compares signed zeros too
            assert got.tobytes() == expected.tobytes()
            # the block the leaf holds from construction is the corner
            assert be.extract_block().tobytes() == got[:n, :n].tobytes()

    def test_unitary_product(self):
        rng = np.random.default_rng(5)
        be = matrix_encoding(rng.standard_normal((8, 8)))
        assert be.validate()

    def test_epsilon_declared_small(self):
        rng = np.random.default_rng(6)
        be = matrix_encoding(rng.standard_normal((8, 8)))
        assert be.epsilon <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_declared_epsilon_bounds_the_block(self, n):
        """||X - alpha block||_F, formed in extended precision so that the
        check adds no float64 roundings of its own, never exceeds the
        declared eps, over scales 10^+-150, complex data, zero rows and
        nonzero rows whose squared entries all underflow, which encode as
        zeros: eps is 5u ||X||_F plus n max |x_qc| over those rows."""
        if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
            pytest.skip("np.longdouble carries no extra precision on this platform")
        rng = np.random.default_rng(100 + n)
        lost = np.full((n, n), 2.0 ** -540)
        lost[0] = 0.0
        lost[0, 0] = 2.0 ** -510  # n = 2: [[2^-510, 0], [2^-540, 2^-540]]
        cases = [(lost, n * 2.0 ** -540)]
        for t in range(600):
            x = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-150, 150)
            if t % 2:
                x = x + 1j * rng.standard_normal((n, n)) * np.abs(x).max()
            if t % 5 == 0:
                x[rng.integers(n)] = 0.0
            mass = 0.0
            if t % 7 == 3 and t % 5:  # a zero row too would leave n = 2 no live row
                row = rng.integers(n)
                x[row] = rng.standard_normal(n) * 2.0 ** -550
                if t % 2:
                    x[row] *= np.exp(2j * np.pi * rng.uniform(size=n))
                mass = n * float(np.abs(x[row]).max())
            cases.append((x, mass))
        for x, mass in cases:
            be = matrix_encoding(x)
            assert be.epsilon == 5 * (np.finfo(float).eps / 2) * be.alpha + mass
            block = be.extract_block()
            alpha = np.longdouble(be.alpha)
            re = x.real.astype(np.longdouble) - alpha * block.real.astype(np.longdouble)
            im = x.imag.astype(np.longdouble) - alpha * block.imag.astype(np.longdouble)
            assert np.sqrt(np.sum(re * re + im * im)) <= be.epsilon

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_encoding(np.ones((2, 3)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            matrix_encoding(np.ones((3, 3)))


def _ones_with(index, value):
    x = np.ones((4, 4))
    x[index] = value
    return x


class TestConstructionRejects:
    """The leaf builds no completion, yet it rejects what building the
    unitary rejects, with the same exception and message."""

    @pytest.mark.parametrize("index, value", [(1, 1e-160), (slice(None), 1e-160),
                                              ((2, 3), 1e155)],
                             ids=["tiny-row", "all-tiny", "huge-entry"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_not_unit_rows(self, index, value):
        x = np.ones((4, 4))
        x[index] = value  # |x|^2 is subnormal or overflows: a normalized row is not unit
        with pytest.raises(ValueError,
                           match="^prescribed column is not a unit vector within 1e-10$"):
            matrix_encoding(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_completion(self):
        # the row (1, 1e-155) is unit, but its completion's scale overflows
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            matrix_encoding(np.array([[1.0, 1e-155], [1.0, 1.0]]))

    def test_cap_checked_at_construction(self, monkeypatch):
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "5")
        with pytest.raises(CapExceededError, match=r"^dimension 64 exceeds"):
            matrix_encoding(np.ones((8, 8)))

    @pytest.mark.parametrize("x", [
        _ones_with(1, 1e-160), _ones_with(slice(None), 1e-160), _ones_with((2, 3), 1e155),
        np.array([[1.0, 1.0], [1e-160, 1e-160]]), np.array([[1.0, 1e-155], [1.0, 1.0]]),
        np.ones((8, 8)),
    ], ids=["tiny-row", "all-tiny", "huge-entry", "good-and-tiny-rows", "non-finite-completion",
            "over-cap"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_completions_reject_as_the_leaf(self, x, monkeypatch):
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "5")
        raised = []
        for build in (matrix_encoding, preparation_unitaries):
            with pytest.raises((ValueError, CapExceededError)) as info:
                build(x)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]


class TestLazyLeaf:
    def test_owns_its_copy(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        be = matrix_encoding(x)
        assert be.kind == "leaf" and be.children == ()
        reference = matrix_encoding(x.copy())
        x[:] = 7.0
        assert be.extract_block().tobytes() == reference.extract_block().tobytes()
        assert be.unitary.tobytes() == reference.unitary.tobytes()

    def test_reading_unitary_leaves_caller_array_writable(self):
        x = np.random.default_rng(15).standard_normal((4, 4)).astype(complex)
        be = matrix_encoding(x)
        be.unitary
        assert x.flags.writeable

    def test_block_read_only(self):
        blk = matrix_encoding(np.eye(4)).extract_block()
        with pytest.raises(ValueError):
            blk[0, 0] = 1.0

    def test_corner_pipeline_stays_small(self, monkeypatch):
        monkeypatch.delenv("BLOCKLAB_CAP_QUBITS", raising=False)
        x = np.random.default_rng(16).standard_normal((64, 64))
        tracemalloc.start()
        try:
            mc_encoding(x, CenteringMode.CXC).extract_block()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 4096 x 4096 data unitary alone is 256 MiB
        assert peak < 4 * 2 ** 20

    def test_materialized_once_under_a_walk(self, monkeypatch):
        x = np.random.default_rng(17).standard_normal((4, 4))
        leaf_type = type(matrix_encoding(np.eye(2)))
        original = leaf_type._materialize
        calls = []

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(leaf_type, "_materialize", counting)
        walk_operator(scatter_total_encoding(x))
        assert len(calls) == 1


class TestHermitianExtension:
    def test_scalar(self):
        # a 1 x 1 matrix is embedded into the 2 x 2 register its encodings act on
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_array_equal(hermitian_extension(np.array([[1.0]])), expected)

    def test_scalar_matches_the_dilation_of_its_encoding(self):
        x = np.array([[-2.5]])
        be = hermitian_dilation(matrix_encoding(embed_power_of_two(x)))
        ext = hermitian_extension(x)
        assert ext.shape == (be.system_dim, be.system_dim) == (4, 4)
        np.testing.assert_allclose(be.alpha * extract_block(be), ext, atol=1e-12)

    def test_identity(self):
        ext = hermitian_extension(np.eye(2))
        assert ext.shape == (4, 4)
        np.testing.assert_array_equal(ext[:2, 2:], np.eye(2))
        vals = np.linalg.eigvalsh(ext)
        np.testing.assert_allclose(np.sort(vals), [-1, -1, 1, 1], atol=1e-12)

    def test_spectrum_is_signed_singular_values(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ext = hermitian_extension(x)
        np.testing.assert_allclose(ext, ext.conj().T, atol=1e-15)
        sv = np.linalg.svd(x, compute_uv=False)
        expected = np.sort(np.concatenate([sv, -sv]))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(ext)), expected,
                                   atol=1e-9)


class TestHermitianDilation:
    def test_identity(self):
        be = hermitian_dilation(trivial_encoding(np.eye(2)))
        blk = be.alpha * extract_block(be)
        expected = np.zeros((4, 4))
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = np.eye(2)
        np.testing.assert_allclose(blk, expected, atol=1e-14)

    def test_matches_extension_of_target(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 4))
        inner = matrix_encoding(x)
        be = hermitian_dilation(inner)
        assert be.system_qubits == inner.system_qubits + 1
        assert be.alpha == inner.alpha
        assert (be.ancillas, be.epsilon) == (inner.ancillas, inner.epsilon)
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   hermitian_extension(x), atol=1e-9)

    def test_block_hermitian(self):
        rng = np.random.default_rng(9)
        be = hermitian_dilation(matrix_encoding(rng.standard_normal((4, 4))))
        blk = extract_block(be)
        assert np.max(np.abs(blk - blk.conj().T)) <= 1e-10

    def test_inner_materialized_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        inner = product(matrix_encoding(rng.standard_normal((4, 4))),
                        matrix_encoding(rng.standard_normal((4, 4))))
        calls = []
        original = type(inner)._materialize

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(type(inner), "_materialize", counting)
        be = hermitian_dilation(inner)
        mat = be.unitary
        assert [c for c in calls if c is inner] == [inner]
        # [[0, U], [U^dag, 0]] on the middle qubit, between ancillas and system
        a, s = 1 << inner.ancillas, inner.system_dim
        u = original(inner)
        expected = np.zeros((a, 2, s, a, 2, s), dtype=u.dtype)
        expected[:, 0, :, :, 1, :] = u.reshape(a, s, a, s)
        expected[:, 1, :, :, 0, :] = u.conj().T.reshape(a, s, a, s)
        assert mat.tobytes() == expected.reshape(be.dim, be.dim).tobytes()

    def test_materialized_matches_corner(self):
        rng = np.random.default_rng(10)
        be = hermitian_dilation(matrix_encoding(rng.standard_normal((2, 2))))
        mat = be.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[: be.system_dim, : be.system_dim],
                                   extract_block(be), atol=1e-13)
