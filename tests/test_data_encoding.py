import numpy as np
import pytest

from blocklab.block_encoding import extract_block, product, trivial_encoding
from blocklab.data_encoding import (
    build_norm_tree,
    hermitian_dilation,
    hermitian_extension,
    matrix_encoding,
    preparation_unitaries,
)
from blocklab.matrix_core import embed_power_of_two, is_unitary, place_middle_blocks


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
                rows[i][:, 0], np.conj(x[i]).astype(complex) / tree.row_norms[i])
        np.testing.assert_array_equal(rows[2], np.eye(4))
        np.testing.assert_array_equal(w[:, 0], tree.row_norms / tree.frobenius_norm)

    @staticmethod
    def _dense_product(x):
        """U_rows^dag U_norms assembled densely: select over R_i after a
        register swap, and W (x) I."""
        rows, w = preparation_unitaries(x)
        n = x.shape[0]
        dim = n * n
        u_rows = np.zeros((dim, dim), dtype=complex)
        for i in range(n):
            u_rows[i * n:(i + 1) * n, i * n:(i + 1) * n] = rows[i]
        u_rows = u_rows[:, np.arange(dim).reshape(n, n).T.reshape(-1)]
        u_norms = np.kron(w, np.eye(n, dtype=complex))
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
            got = matrix_encoding(x).unitary
            expected = self._dense_product(x)
            # tobytes compares signed zeros too
            assert got.tobytes() == expected.tobytes()

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
        # the shared array gives the bits the adjoint node computes on its own
        blocks = {(0, 1): original(inner), (1, 0): be.children[1]._materialize()}
        expected = place_middle_blocks(1 << inner.ancillas, 2, inner.system_dim, blocks)
        assert mat.tobytes() == expected.tobytes()

    def test_materialized_matches_corner(self):
        rng = np.random.default_rng(10)
        be = hermitian_dilation(matrix_encoding(rng.standard_normal((2, 2))))
        mat = be.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[: be.system_dim, : be.system_dim],
                                   extract_block(be), atol=1e-13)
