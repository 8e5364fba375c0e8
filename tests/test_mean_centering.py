import numpy as np
import pytest

from blocklab.block_encoding import extract_block
from blocklab.data_encoding import matrix_encoding
from blocklab.mean_centering import (
    CenteringMode,
    classical_center,
    mc_encoding,
    mean_vectors,
)
from blocklab.oracles import centering_matrix

X22 = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestMeanVectors:
    def test_small_example(self):
        u, v, xbar = mean_vectors(X22)
        np.testing.assert_allclose(u, [2.0, 3.0])
        np.testing.assert_allclose(v, [1.5, 3.5])
        assert xbar == 2.5

    def test_identity(self):
        u, v, xbar = mean_vectors(np.eye(2))
        np.testing.assert_allclose(u, [0.5, 0.5])
        np.testing.assert_allclose(v, [0.5, 0.5])
        assert xbar == 0.5

    def test_constant(self):
        u, v, xbar = mean_vectors(np.full((4, 4), 3.0))
        np.testing.assert_allclose(u, np.full(4, 3.0))
        np.testing.assert_allclose(v, np.full(4, 3.0))
        assert xbar == 3.0


class TestClassicalCenter:
    def test_pre_multiplied(self):
        np.testing.assert_allclose(classical_center(X22, CenteringMode.CX),
                                   [[-1, -1], [1, 1]], atol=1e-15)

    def test_post_multiplied(self):
        np.testing.assert_allclose(classical_center(X22, CenteringMode.XC),
                                   [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)

    def test_both_sides(self):
        np.testing.assert_allclose(classical_center(X22, CenteringMode.CXC),
                                   np.zeros((2, 2)), atol=1e-15)

    def test_constant_matrix_centers_to_zero(self):
        const = np.full((4, 4), 7.0)
        for mode in CenteringMode:
            np.testing.assert_allclose(classical_center(const, mode),
                                       np.zeros((4, 4)), atol=1e-12)

    def test_column_sum_annihilation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8))
        centered = classical_center(x, CenteringMode.CX)
        assert np.max(np.abs(centered.sum(axis=0))) <= 1e-10

    def test_row_sum_annihilation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 8))
        centered = classical_center(x, CenteringMode.XC)
        assert np.max(np.abs(centered.sum(axis=1))) <= 1e-10

    def test_both_annihilations_for_cxc(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8))
        centered = classical_center(x, CenteringMode.CXC)
        assert np.max(np.abs(centered.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(centered.sum(axis=1))) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 8))
        for mode in CenteringMode:
            once = classical_center(x, mode)
            twice = classical_center(once, mode)
            assert np.max(np.abs(twice - once)) <= 1e-10

    def test_entrywise_matches_projector_products(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 8, 16):
            c = np.eye(n) - np.full((n, n), 1.0 / n)
            for _ in range(10):
                x = rng.standard_normal((n, n))
                u, v, xbar = mean_vectors(x)
                assert np.max(np.abs((x - u[np.newaxis, :]) - c @ x)) <= 1e-12
                assert np.max(np.abs((x - v[:, np.newaxis]) - x @ c)) <= 1e-12
                both = x - u[np.newaxis, :] - v[:, np.newaxis] + xbar
                assert np.max(np.abs(both - c @ x @ c)) <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 6), (6, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_rectangular_matches_projector_products(self, shape):
        # d x n data, the paper's XC, CX and CXC case; once refused as non-square
        x = np.random.default_rng(10).standard_normal(shape)
        c_d = centering_matrix(shape[0])
        c_n = centering_matrix(shape[1])
        expected = {CenteringMode.CX: c_d @ x, CenteringMode.XC: x @ c_n,
                    CenteringMode.CXC: c_d @ x @ c_n}
        for mode, target in expected.items():
            centered = classical_center(x, mode)
            assert centered.shape == shape
            assert np.max(np.abs(centered - target)) <= 1e-12

    def test_mode_parse(self):
        assert CenteringMode.parse("CXC") is CenteringMode.CXC
        with pytest.raises(ValueError):
            CenteringMode.parse("xcx")


class TestMcEncoding:
    def test_pre_multiplied_example(self):
        be = mc_encoding(X22, CenteringMode.CX)
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   [[-1, -1], [1, 1]], atol=1e-12)

    def test_constant_matrix_cxc(self):
        const = np.full((4, 4), 2.0)
        be = mc_encoding(const, CenteringMode.CXC)
        assert np.max(np.abs(be.alpha * extract_block(be))) <= 1e-12

    def test_alpha_is_frobenius(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4))
        for mode in CenteringMode:
            assert np.isclose(mc_encoding(x, mode).alpha, np.linalg.norm(x))

    def test_ancilla_counts(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 4))
        data_ancillas = matrix_encoding(x).ancillas
        assert mc_encoding(x, CenteringMode.CX).ancillas == data_ancillas + 1
        assert mc_encoding(x, CenteringMode.XC).ancillas == data_ancillas + 1
        assert mc_encoding(x, CenteringMode.CXC).ancillas == data_ancillas + 2

    def test_matches_classical_on_corpus(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 8):
            for _ in range(5):
                x = rng.standard_normal((n, n))
                for mode in CenteringMode:
                    be = mc_encoding(x, mode)
                    dist = np.linalg.norm(
                        classical_center(x, mode) - be.alpha * extract_block(be), 2)
                    assert dist <= 1e-8

    def test_non_power_of_two_embedded(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 3))
        be = mc_encoding(x, CenteringMode.CX)
        assert be.system_dim == 4

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (3, 3), (12, 12)])
    def test_true_row_and_column_counts(self, shape):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(shape)
        c_rows = np.eye(shape[0]) - 1.0 / shape[0]
        c_cols = np.eye(shape[1]) - 1.0 / shape[1]
        expected = {CenteringMode.CX: c_rows @ x, CenteringMode.XC: x @ c_cols,
                    CenteringMode.CXC: c_rows @ x @ c_cols}
        for mode, target in expected.items():
            be = mc_encoding(x, mode)
            blk = be.alpha * extract_block(be)
            assert np.max(np.abs(blk[:shape[0], :shape[1]] - target)) <= 1e-12
            assert not blk[shape[0]:].any() and not blk[:, shape[1]:].any()
