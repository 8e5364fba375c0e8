import numpy as np
import pytest

from blocklab.block_encoding import extract_block, trivial_encoding
from blocklab.data_encoding import (
    build_norm_tree,
    hermitian_dilation,
    hermitian_extension,
    matrix_encoding,
    preparation_unitaries,
)
from blocklab.matrix_core import is_unitary


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
        u_rows, u_norms = preparation_unitaries(x)
        assert is_unitary(u_rows, 1e-10) and is_unitary(u_norms, 1e-10)
        norms = np.linalg.norm(x, axis=1)
        frob = np.linalg.norm(x)
        for i in range(4):
            expected = np.zeros(16, dtype=complex)
            expected[i * 4:(i + 1) * 4] = np.conj(x[i]) / norms[i]
            np.testing.assert_allclose(u_rows[:, i], expected, atol=1e-13)
        for j in range(4):
            expected = np.zeros(16, dtype=complex)
            expected[j::4] = norms / frob
            np.testing.assert_allclose(u_norms[:, j], expected, atol=1e-13)

    def test_unitary_product(self):
        rng = np.random.default_rng(5)
        be = matrix_encoding(rng.standard_normal((8, 8)))
        assert be.validate()

    def test_epsilon_declared_small(self):
        rng = np.random.default_rng(6)
        be = matrix_encoding(rng.standard_normal((8, 8)))
        assert be.epsilon <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_encoding(np.ones((2, 3)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            matrix_encoding(np.ones((3, 3)))


class TestHermitianExtension:
    def test_scalar(self):
        np.testing.assert_array_equal(hermitian_extension(np.array([[1.0]])),
                                      [[0, 1], [1, 0]])

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
        assert be.epsilon == 2 * inner.epsilon
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   hermitian_extension(x), atol=1e-9)

    def test_block_hermitian(self):
        rng = np.random.default_rng(9)
        be = hermitian_dilation(matrix_encoding(rng.standard_normal((4, 4))))
        blk = extract_block(be)
        assert np.max(np.abs(blk - blk.conj().T)) <= 1e-10

    def test_materialized_matches_corner(self):
        rng = np.random.default_rng(10)
        be = hermitian_dilation(matrix_encoding(rng.standard_normal((2, 2))))
        mat = be.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[: be.system_dim, : be.system_dim],
                                   extract_block(be), atol=1e-13)
