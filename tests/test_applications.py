import re

import numpy as np
import pytest
import scipy.linalg

from blocklab.applications import (
    LabeledDataset,
    class_correlation_encoding,
    cca,
    dcca,
    generalized_eig,
    lda,
    ols,
    paired_scatter_encoding,
    pca,
    scatter_total_encoding,
    scatter_within_encoding,
)
from blocklab.block_encoding import extract_block, trivial_encoding, verify
from blocklab.data_encoding import matrix_encoding
from blocklab.matrix_core import is_unitary, next_power_of_two
from blocklab.oracles import (
    cca_pencil,
    centering_matrix,
    dcca_pencil,
    hermitian_extension,
    ols_closed_form,
    pencil_eigs,
    scatters,
    similarity,
    total_scatter,
)
from blocklab.spectral import walk_operator


def two_cluster_dataset(rng, n=8, gap=6.0):
    x = rng.standard_normal((n, n)) * 0.3
    x[0, : n // 2] += gap
    x[0, n // 2:] -= gap
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    return LabeledDataset(x, labels)


class TestLabeledDataset:
    def test_partition_and_columns(self):
        x = np.arange(16.0).reshape(2, 8)
        labels = np.array([1, 0, 0, 1, 1, 0, 0, 1])
        ds = LabeledDataset(x, labels)
        assert ds.classes == (0, 1)
        assert [ds.class_columns(k).shape[1] for k in range(2)] == [4, 4]
        np.testing.assert_array_equal(ds.class_columns(0), x[:, labels == 0])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.eye(4), np.array([0, 1]))


class TestScatterTotal:
    def test_identity_data_gives_projector(self):
        be = scatter_total_encoding(np.eye(4))
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   centering_matrix(4), atol=1e-10)

    def test_small_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        be = scatter_total_encoding(x)
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   np.full((2, 2), 0.5), atol=1e-10)

    def test_alpha_and_epsilon_bookkeeping(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4))
        data = matrix_encoding(x)
        from blocklab.centering import centering_encoding
        cent = centering_encoding(4)
        be = scatter_total_encoding(x)
        assert be.alpha == data.alpha * data.alpha
        # the Gram node of B = C X^dag: alpha_B = ||X||_F, eps' = eps_B (2 alpha_B + eps_B)
        alpha_b = cent.alpha * data.alpha
        eps_b = cent.alpha * data.epsilon + data.alpha * cent.epsilon
        assert be.epsilon == eps_b * (2.0 * alpha_b + eps_b)
        # the 2 eps ||X||_F composition law, plus eps^2
        eps = data.epsilon + data.alpha * cent.epsilon
        assert be.epsilon <= (2 * data.alpha * eps + eps ** 2) * (1 + 1e-15)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 8))
        be = scatter_total_encoding(x)
        s = be.alpha * extract_block(be)
        assert np.max(np.abs(s - s.conj().T)) <= 1e-9
        assert np.min(np.linalg.eigvalsh((s + s.conj().T) / 2)) >= -1e-10

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8))
        s_t, _, _ = scatters(LabeledDataset(x, np.zeros(8, dtype=int)))
        be = scatter_total_encoding(x)
        assert np.linalg.norm(s_t - be.alpha * extract_block(be), 2) <= 1e-7

    @pytest.mark.parametrize("shape", [(4, 6), (3, 5), (6, 3), (12, 12)])
    def test_true_sample_count(self, shape):
        rng = np.random.default_rng(34)
        x = rng.standard_normal(shape)
        s_t, _, _ = scatters(LabeledDataset(x, np.zeros(shape[1], dtype=int)))
        be = scatter_total_encoding(x)
        blk = be.alpha * extract_block(be)
        rows = shape[0]
        assert np.max(np.abs(blk[:rows, :rows] - s_t)) <= 1e-12
        assert not blk[rows:].any() and not blk[:, rows:].any()


class TestScatterWithin:
    def test_single_class_reduces_to_total(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 8))
        ds = LabeledDataset(x, np.zeros(8, dtype=int))
        sw = scatter_within_encoding(ds)
        st = scatter_total_encoding(x)
        np.testing.assert_allclose(sw.alpha * extract_block(sw),
                                   st.alpha * extract_block(st), atol=1e-9)

    def test_identical_samples_give_zero(self):
        col = np.arange(8.0)
        x = np.tile(col[:, None], (1, 8))
        ds = LabeledDataset(x, np.array([0] * 4 + [1] * 4))
        sw = scatter_within_encoding(ds)
        assert np.max(np.abs(sw.alpha * extract_block(sw))) <= 1e-9

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 8))
        labels = np.array([0] * 4 + [1] * 4)
        ds = LabeledDataset(x, labels)
        _, s_w, _ = scatters(ds)
        sw = scatter_within_encoding(ds)
        assert np.linalg.norm(s_w - sw.alpha * extract_block(sw), 2) <= 1e-7

    def test_wide_data_sized_like_total(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 8))
        ds = LabeledDataset(x, np.array([0] * 4 + [1] * 4))
        sw = scatter_within_encoding(ds)
        assert sw.system_dim == scatter_total_encoding(x).system_dim == 8
        _, s_w, _ = scatters(ds)
        assert np.linalg.norm(s_w - (sw.alpha * extract_block(sw))[:2, :2], 2) <= 1e-7

    def test_alpha_is_frobenius_norm_squared(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8))
        labels = np.array([0] * 4 + [1] * 4)
        sw = scatter_within_encoding(LabeledDataset(x, labels))
        f = np.linalg.norm(x) ** 2
        assert abs(sw.alpha - f) <= 1e-9 * f

    def test_one_product_without_class_nodes(self):
        rng = np.random.default_rng(32)
        ds = LabeledDataset(rng.standard_normal((8, 8)), np.array([0, 1] * 4))
        sw = scatter_within_encoding(ds)
        st = scatter_total_encoding(ds.x)
        assert (sw.kind, sw.dim) == (st.kind, st.dim) == ("gram", 256)
        (b,) = sw.children
        cent, adj = b.children
        assert (b.kind, cent.kind, adj.kind) == ("product", "leaf", "adjoint")
        assert adj.children[0].kind == "leaf"

    @pytest.mark.parametrize("sizes", [(3, 5), (2, 6), (1, 3), (2, 2, 2, 2), (5,)])
    def test_true_class_sizes(self, sizes):
        rng = np.random.default_rng(sum(sizes) * len(sizes))
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        ds = LabeledDataset(rng.standard_normal((5, labels.size)), labels)
        _, s_w, _ = scatters(ds)
        sw = scatter_within_encoding(ds)
        blk = sw.alpha * extract_block(sw)
        assert np.max(np.abs(blk[:5, :5] - s_w)) <= 1e-12
        assert not blk[5:].any() and not blk[:, 5:].any()

    def test_negative_and_sparse_labels(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((4, 6))
        ds = LabeledDataset(x, np.array([-1, 7, -1, 7, 7, 3]))
        sw = scatter_within_encoding(ds)
        _, s_w, _ = scatters(ds)
        assert np.max(np.abs((sw.alpha * extract_block(sw))[:4, :4] - s_w)) <= 1e-12


class TestGramScatters:
    """Both scatters are the Gram node of B = C X^dag, checked on the unpadded data."""

    @staticmethod
    def encodings(x, labels):
        ds = LabeledDataset(x, labels)
        _, s_w, _ = scatters(ds)
        return ((scatter_total_encoding(x), total_scatter(x)),
                (scatter_within_encoding(ds), s_w))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 16, 32])
    def test_blocks_match_the_oracles(self, n):
        rng = np.random.default_rng(200 + n)
        x = rng.standard_normal((n, n))
        for be, target in self.encodings(x, rng.permutation(np.arange(n) % 2)):
            assert be.kind == "gram"
            assert abs(be.alpha - np.linalg.norm(x) ** 2) <= 1e-12 * be.alpha
            blk = be.alpha * extract_block(be)
            assert np.max(np.abs(blk[:n, :n] - target)) <= 1e-12
            assert not blk[n:].any() and not blk[:, n:].any()

    @pytest.mark.parametrize("sizes", [(3, 5), (2, 6), (1, 3)])
    def test_class_splits(self, sizes):
        rng = np.random.default_rng(sum(sizes) + 7 * len(sizes))
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        x = rng.standard_normal((labels.size, labels.size))
        for be, target in self.encodings(x, labels):
            blk = be.alpha * extract_block(be)
            assert np.max(np.abs(blk[:labels.size, :labels.size] - target)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_unitaries_hermitian_and_unitary(self, n):
        rng = np.random.default_rng(300 + n)
        x = rng.standard_normal((n, n))
        for be, _ in self.encodings(x, np.arange(n) % 2):
            u = be.unitary
            assert np.max(np.abs(u - u.conj().T)) <= 1e-10
            assert is_unitary(u, 1e-10)


class TestGeneralizedEig:
    def test_identity_b_reduces_to_ordinary(self):
        rng = np.random.default_rng(6)
        herm = hermitian_extension(rng.standard_normal((2, 2)))
        a_be = matrix_encoding(herm)
        b_be = trivial_encoding(np.eye(4))
        res = generalized_eig(a_be, b_be, d=2)
        expected = np.sort(np.linalg.eigvalsh(herm))[::-1][:2]
        np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-8)

    def test_equal_operands_give_unit_eigenvalues(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 8))
        st = scatter_total_encoding(x)
        res = generalized_eig(st, st, d=3)
        np.testing.assert_allclose(res.eigenvalues, np.ones(3), atol=1e-8)

    def test_matches_oracle_on_scatter_pencil(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 8))
        labels = np.array([0] * 4 + [1] * 4)
        ds = LabeledDataset(x, labels)
        s_t, s_w, _ = scatters(ds)
        res = generalized_eig(scatter_total_encoding(x),
                              scatter_within_encoding(ds), d=2)
        oracle_vals, _ = pencil_eigs(s_t, s_w, 2)
        np.testing.assert_allclose(res.eigenvalues, oracle_vals, atol=1e-6)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 8))
        labels = np.array([0] * 4 + [1] * 4)
        a = lda(LabeledDataset(x, labels), d=2)
        b = lda(LabeledDataset(3.0 * x, labels), d=2)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-8)

    def test_zero_b_rejected(self):
        a_be = trivial_encoding(np.diag([1.0, -1.0]))
        zero_be = _zero_encoding()
        assert np.max(np.abs(extract_block(zero_be))) <= 1e-12
        with pytest.raises(ValueError, match="zero"):
            generalized_eig(a_be, zero_be, d=1)


def _zero_encoding():
    """Encoding whose block vanishes: centering annihilates the all-ones block."""
    from blocklab.block_encoding import product
    from blocklab.centering import centering_encoding, similarity_encoding

    ce = centering_encoding(2)
    sim = similarity_encoding(2)
    return product(product(ce, sim), ce)


class TestPca:
    def test_prescribed_singular_values(self):
        rng = np.random.default_rng(10)
        n = 8
        c = centering_matrix(n)
        vals, vecs = np.linalg.eigh(c)
        basis = vecs[:, 1:]  # orthonormal, orthogonal to the ones vector
        scales = np.array([9.0, 7.5, 5.0, 3.0, 2.0, 1.0, 0.5])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = q[:, :7] @ np.diag(scales) @ basis.T
        res = pca(x, d=3, t_bits=10)
        bound = np.linalg.norm(x) ** 2 * 2.0 ** -10
        np.testing.assert_allclose(res.eigenvalues, scales[:3] ** 2, atol=bound)

    def test_constant_matrix_gives_zero_spectrum(self):
        res = pca(np.full((4, 4), 5.0), d=2, t_bits=8)
        np.testing.assert_allclose(res.eigenvalues, 0.0, atol=1e-10)

    def test_random_within_resolution(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 8))
        res = pca(x, d=2, t_bits=8)
        s_t, _, _ = scatters(LabeledDataset(x, np.zeros(8, dtype=int)))
        lam = np.sort(np.linalg.eigvalsh(s_t))[::-1][:2]
        bound = np.linalg.norm(x) ** 2 * 2.0 ** -8
        assert np.max(np.abs(res.eigenvalues - lam)) <= bound

    @pytest.mark.parametrize("offset, resolved", [(0, True), (1, True), (10, False),
                                                  (100, False)])
    def test_mean_offset_resolved_or_refused(self, offset, resolved):
        # alpha = ||X||_F^2 grows with the mean, the centered spectrum does not
        x = np.random.default_rng(0).standard_normal((8, 8)) + offset
        lam = np.sort(np.linalg.eigvalsh(total_scatter(x)))[::-1][:3]
        bound = np.linalg.norm(x) ** 2 * 2.0 ** -8
        assert bool(lam[-1] > bound) is resolved
        if resolved:
            assert np.max(np.abs(pca(x, d=3).eigenvalues - lam)) <= bound
        else:
            ratio = f"alpha/lambda_1 = {np.linalg.norm(x) ** 2 / lam[0]:.3g}"
            with pytest.raises(AssertionError, match=re.escape(ratio)):
                pca(x, d=3)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            pca(np.eye(4), d=0)
        with pytest.raises(ValueError):
            pca(np.eye(4), d=9)

    def test_d_one_is_the_top_value(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 6))
        res = pca(x, d=1, t_bits=8)
        top = np.linalg.eigvalsh(total_scatter(x))[-1]
        assert res.eigenvalues.shape == (1,) and res.eigenvectors.shape == (8, 1)
        assert abs(res.eigenvalues[0] - top) <= np.linalg.norm(x) ** 2 * 2.0 ** -8

    def test_descending_and_unit_vectors(self):
        rng = np.random.default_rng(12)
        res = pca(rng.standard_normal((8, 8)), d=3)
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)
        np.testing.assert_allclose(np.linalg.norm(res.eigenvectors, axis=0),
                                   1.0, atol=1e-10)

    def test_degenerate_pair_flagged(self):
        rng = np.random.default_rng(13)
        n = 8
        c = centering_matrix(n)
        _, vecs = np.linalg.eigh(c)
        basis = vecs[:, 1:]
        scales = np.array([4.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = q[:, :7] @ np.diag(scales) @ basis.T
        res = pca(x, d=3, t_bits=10)
        assert (0, 1) in res.degeneracies

    def test_tie_with_the_value_left_out_flagged(self):
        # the second direction returned is arbitrary within its span with the third
        rng = np.random.default_rng(13)
        _, vecs = np.linalg.eigh(centering_matrix(8))
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        scales = np.array([4.0, 2.0, 2.0, 1.0, 0.5, 0.25, 0.1])
        x = q[:, :7] @ np.diag(scales) @ vecs[:, 1:].T
        assert pca(x, d=2, t_bits=10).degeneracies == ((1, 2),)
        # 8 samples of 8 features: every canonical correlation is 1
        x, y = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        assert cca(x, y, d=1).degeneracies == ((0, 1),)
        assert lda(two_cluster_dataset(rng), d=1).degeneracies == ()


class TestLda:
    def test_separated_clusters(self):
        rng = np.random.default_rng(13)
        ds = two_cluster_dataset(rng)
        res = lda(ds, d=2)
        top = res.eigenvectors[:, 0]
        projections = top.conj() @ ds.x
        signs = np.sign(projections.real)
        assert np.all(signs[:4] == signs[0])
        assert np.all(signs[4:] == -signs[0])

    def test_matching_class_means_give_unit_pencil(self):
        rng = np.random.default_rng(14)
        half = rng.standard_normal((8, 4))
        x = np.concatenate([half, half], axis=1)  # class means coincide
        ds = LabeledDataset(x, np.array([0] * 4 + [1] * 4))
        _, _, s_b = scatters(ds)
        assert np.max(np.abs(s_b)) <= 1e-12
        res = lda(ds, d=2)
        np.testing.assert_allclose(res.eigenvalues, 1.0, atol=1e-8)

    def test_single_class_unit_pencil(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((8, 8))
        ds = LabeledDataset(x, np.zeros(8, dtype=int))
        res = lda(ds, d=2)
        np.testing.assert_allclose(res.eigenvalues, 1.0, atol=1e-8)

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        for classes in (2, 4):
            x = rng.standard_normal((8, 8))
            labels = np.repeat(np.arange(classes), 8 // classes)
            ds = LabeledDataset(x, labels)
            s_t, s_w, _ = scatters(ds)
            res = lda(ds, d=2)
            oracle_vals, _ = pencil_eigs(s_t, s_w, 2)
            np.testing.assert_allclose(res.eigenvalues, oracle_vals, atol=1e-6)

    def test_complex_data(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        labels = np.array([0] * 4 + [1] * 4)
        res = lda(LabeledDataset(x, labels), d=2)
        c8 = centering_matrix(8)
        s_t = x @ c8 @ x.conj().T
        s_w = np.zeros((8, 8), dtype=complex)
        for k in (0, 1):
            xk = x[:, labels == k]
            s_w += xk @ centering_matrix(4) @ xk.conj().T
        oracle_vals, _ = pencil_eigs(s_t, s_w, 2)
        np.testing.assert_allclose(res.eigenvalues, oracle_vals, atol=1e-6)


class TestCca:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 8))
        res = cca(x, x, d=2)
        np.testing.assert_allclose(res.eigenvalues, 1.0, atol=1e-7)

    @staticmethod
    def stacked(x, y, dim):
        """The views stacked as cca stacks them: X from row 0, Y from row dim."""
        z = np.zeros((2 * dim, x.shape[1]))
        z[:x.shape[0]] = x
        z[dim:dim + y.shape[0]] = y
        return z

    def test_cross_block_structure(self):
        # Z C Z^dag is the dilation of X C Y^dag plus the paired denominator
        rng = np.random.default_rng(18)
        x = rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8))
        st = scatter_total_encoding(self.stacked(x, y, 8))
        h_y = paired_scatter_encoding(x, y)
        blk = st.alpha * extract_block(st) - h_y.alpha * extract_block(h_y)
        assert np.max(np.abs(blk - blk.conj().T)) <= 1e-9
        assert np.max(np.abs(blk[:8, :8])) <= 1e-9
        assert np.max(np.abs(blk[8:, 8:])) <= 1e-9
        c = centering_matrix(8)
        np.testing.assert_allclose(blk[:8, 8:], x @ c @ y.T, atol=1e-8)

    def test_cross_scatter_true_sample_count(self):
        rng = np.random.default_rng(36)
        x, y = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        be = scatter_total_encoding(self.stacked(x, y, 8))
        blk = be.alpha * extract_block(be)
        assert np.max(np.abs(blk[:4, 8:12] - x @ centering_matrix(6) @ y.T)) <= 1e-12
        for pad in (slice(4, 8), slice(12, 16)):
            assert not blk[pad].any() and not blk[:, pad].any()

    @pytest.mark.parametrize("shape", [(3, 6), (2, 5), (4, 7), (8, 8)],
                             ids=lambda shape: "%dx%d" % shape)
    def test_paired_scatter_is_one_gram_node(self, shape):
        rng = np.random.default_rng(sum(shape))
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        dim = next_power_of_two(max(2, *shape))
        h_y = paired_scatter_encoding(x, y)
        assert h_y.kind == "gram" and h_y.system_dim == 2 * dim
        padded = [np.zeros((dim, shape[1])) for _ in range(2)]
        padded[0][:shape[0]], padded[1][:shape[0]] = x, y
        _, target = cca_pencil(*padded)
        blk = h_y.alpha * extract_block(h_y)
        assert np.max(np.abs(blk - target)) <= 1e-12
        assert not blk[:dim, dim:].any() and not blk[dim:, :dim].any()
        for pad in (slice(shape[0], dim), slice(dim + shape[0], 2 * dim)):
            assert not blk[pad].any() and not blk[:, pad].any()

    @pytest.mark.parametrize("shape", [(3, 6), (2, 5), (4, 7), (8, 8)],
                             ids=lambda shape: "%dx%d" % shape)
    def test_matches_the_dilation_pencil(self, shape):
        rng = np.random.default_rng(50 + sum(shape))
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        d = 2
        res = cca(x, y, d)
        h_x, h_y = cca_pencil(x, y)
        oracle_vals, oracle_vecs = pencil_eigs(h_x, h_y, d)
        np.testing.assert_allclose(res.eigenvalues, oracle_vals, atol=1e-8)
        if not res.degeneracies:
            dim = res.eigenvectors.shape[0] // 2
            rows = np.r_[:shape[0], dim:dim + shape[0]]
            angles = scipy.linalg.subspace_angles(res.eigenvectors[rows], oracle_vecs)
            assert np.max(angles) <= 1e-6

    def test_paired_scatter_blockdiag(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8))
        h_y = paired_scatter_encoding(x, y)
        blk = h_y.alpha * extract_block(h_y)
        c = centering_matrix(8)
        np.testing.assert_allclose(blk[:8, :8], x @ c @ x.T, atol=1e-8)
        np.testing.assert_allclose(blk[8:, 8:], y @ c @ y.T, atol=1e-8)
        assert np.max(np.abs(blk[:8, 8:])) <= 1e-10

    def test_matches_oracle_reduced_rank(self):
        rng = np.random.default_rng(20)
        x = np.zeros((8, 8))
        y = np.zeros((8, 8))
        x[:3] = rng.standard_normal((3, 8))
        y[:3] = rng.standard_normal((3, 8))
        res = cca(x, y, d=2)
        h_x, h_y = cca_pencil(x, y)
        oracle_vals, oracle_vecs = pencil_eigs(h_x, h_y, 2)
        np.testing.assert_allclose(res.eigenvalues, oracle_vals, atol=1e-6)
        angles = scipy.linalg.subspace_angles(res.eigenvectors[:, :1],
                                              oracle_vecs[:, :1])
        assert np.max(angles) <= 1e-5
        # the dilation makes the spectrum symmetric; top-d is the nonnegative branch
        assert np.all(res.eigenvalues >= -1e-9)
        full_vals, _ = pencil_eigs(h_x, h_y, 16)
        nonzero = np.sort(full_vals[np.abs(full_vals) > 1e-9])
        np.testing.assert_allclose(nonzero, -nonzero[::-1], atol=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cca(np.eye(4), np.eye(8), d=2)


class TestDcca:
    def test_single_class_chain_vanishes(self):
        rng = np.random.default_rng(21)
        ds_x = LabeledDataset(rng.standard_normal((8, 8)), np.zeros(8, dtype=int))
        ds_y = LabeledDataset(rng.standard_normal((8, 8)), np.zeros(8, dtype=int))
        chain = class_correlation_encoding(ds_x, ds_y)
        assert np.max(np.abs(chain.alpha * extract_block(chain))) <= 1e-12

    def test_chain_matches_classical_product(self):
        rng = np.random.default_rng(22)
        labels = np.array([0] * 4 + [1] * 4)
        ds_x = LabeledDataset(rng.standard_normal((8, 8)), labels)
        ds_y = LabeledDataset(rng.standard_normal((8, 8)), labels)
        chain = class_correlation_encoding(ds_x, ds_y)
        c = centering_matrix(8)
        e = similarity(labels)
        target = ds_x.x.real @ c @ e @ c @ ds_y.x.real.T
        blk = chain.alpha * extract_block(chain)
        assert chain.system_dim == 16
        assert np.linalg.norm(target - blk[:8, 8:], 2) <= 1e-6
        np.testing.assert_array_equal(blk[8:, :8], blk[:8, 8:].conj().T)
        assert not blk[:8, :8].any() and not blk[8:, 8:].any()

    def test_declared_alpha(self):
        # two Gram nodes of the stacked views, n_max (||X||_F^2 + ||Y||_F^2)
        rng = np.random.default_rng(23)
        labels = np.array([0] * 4 + [1] * 4)
        ds_x = LabeledDataset(rng.standard_normal((8, 8)), labels)
        ds_y = LabeledDataset(rng.standard_normal((8, 8)), labels)
        chain = class_correlation_encoding(ds_x, ds_y)
        expected = 4 * (np.linalg.norm(ds_x.x) ** 2 + np.linalg.norm(ds_y.x) ** 2)
        assert abs(chain.alpha - expected) <= 1e-12 * expected
        assert chain.kind == "difference" and [g.kind for g in chain.children] == ["gram", "gram"]
        assert chain.children[0].alpha == chain.children[1].alpha

    def test_matches_oracle(self):
        rng = np.random.default_rng(24)
        labels = np.array([0] * 4 + [1] * 4)
        x = np.zeros((8, 8))
        x[:3] = rng.standard_normal((3, 8))
        ds_x = LabeledDataset(x, labels)
        ds_y = LabeledDataset(x, labels)  # shared view
        res = dcca(ds_x, ds_y, d=2)
        h_d, h_y = dcca_pencil(x, x, labels)
        oracle_vals, _ = pencil_eigs(h_d, h_y, 2)
        np.testing.assert_allclose(res.eigenvalues, oracle_vals, atol=1e-6)

    def test_partition_mismatch(self):
        # [1, 1, 0, 0] has the same class sizes, but would pair the samples wrongly
        rng = np.random.default_rng(25)
        ds_x = LabeledDataset(rng.standard_normal((4, 4)), np.array([0, 0, 1, 1]))
        for labels_y in ([0, 1, 1, 1], [1, 1, 0, 0]):
            ds_y = LabeledDataset(rng.standard_normal((4, 4)), np.array(labels_y))
            with pytest.raises(ValueError, match="same label"):
                dcca(ds_x, ds_y, d=1)
            with pytest.raises(ValueError, match="same label"):
                class_correlation_encoding(ds_x, ds_y)

    def test_unequal_classes_use_padded_layout(self):
        # the encodings zero-pad the samples, in their given order, to the
        # register; the pencil is the statistic of the unpadded data
        rng = np.random.default_rng(31)
        x = np.zeros((6, 6))
        x[:4] = rng.standard_normal((4, 6))
        y = np.zeros((6, 6))
        y[:4] = rng.standard_normal((4, 6))
        labels = np.array([1, 0, 1, 1, 0, 1])
        ds_x = LabeledDataset(x, labels)
        ds_y = LabeledDataset(y, labels)
        res = dcca(ds_x, ds_y, d=2)

        h_d, h_y = dcca_pencil(x, y, labels)
        oracle_vals, _ = pencil_eigs(h_d, h_y, 2)
        np.testing.assert_allclose(res.eigenvalues, oracle_vals, atol=1e-6)

    @pytest.mark.parametrize("sizes", [(2, 4), (1, 3), (1, 1, 1)])
    def test_chain_is_unpadded_statistic(self, sizes):
        rng = np.random.default_rng(35)
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        n = labels.size
        x, y = rng.standard_normal((3, n)), rng.standard_normal((3, n))
        chain = class_correlation_encoding(LabeledDataset(x, labels),
                                           LabeledDataset(y, labels))
        c = centering_matrix(n)
        e = similarity(labels)
        blk = chain.alpha * extract_block(chain)
        dim = chain.system_dim // 2
        assert np.max(np.abs(blk[:3, dim:dim + 3] - x @ c @ e @ c @ y.T)) <= 1e-12
        np.testing.assert_array_equal(blk[dim:dim + 3, :3], blk[:3, dim:dim + 3].conj().T)
        blk[:3, dim:dim + 3] = blk[dim:dim + 3, :3] = 0.0
        assert not blk.any()

    @pytest.mark.parametrize("sizes", [(5, 11), (8, 8)])
    def test_chain_at_16x16(self, sizes):
        # dimension 16,384: the stacked Gram nodes fit the cap where a
        # dilated four-factor product would not
        rng = np.random.default_rng(36)
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        x, y = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        chain = class_correlation_encoding(LabeledDataset(x, labels),
                                           LabeledDataset(y, labels))
        assert chain.dim == 16384 and chain.system_dim == 32
        c = centering_matrix(16)
        m = x @ c @ similarity(labels) @ c @ y.T
        oracle = np.block([[np.zeros((16, 16)), m], [m.T, np.zeros((16, 16))]])
        assert np.max(np.abs(chain.alpha * extract_block(chain) - oracle)) <= 1e-12

    def test_numerator_unitary_is_hermitian_and_walks_undilated(self):
        # the difference of two Hermitian Gram nodes is Hermitian, so its walk
        # has the encoding's own dimension (a dilated walk would have 2,048)
        rng = np.random.default_rng(37)
        labels = np.array([0, 1, 1, 0])
        x, y = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        chain = class_correlation_encoding(LabeledDataset(x, labels), LabeledDataset(y, labels))
        u = chain.unitary
        np.testing.assert_array_equal(u, u.conj().T)
        assert chain.dim == 1024 and walk_operator(chain).shape == (1024, 1024)

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 5), (1, 3), (5, 11)])
    def test_declared_epsilon_bounds_the_numerator(self, sizes):
        rng = np.random.default_rng(38)
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        n = labels.size
        x, y = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        chain = class_correlation_encoding(LabeledDataset(x, labels), LabeledDataset(y, labels))
        c = centering_matrix(n)
        m = x @ c @ similarity(labels) @ c @ y.T
        oracle = np.block([[np.zeros((n, n)), m], [m.T, np.zeros((n, n))]])
        assert verify(chain, oracle, tol=0).passed


class TestOls:
    def test_target_in_design_column_space(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((8, 8))
        c = centering_matrix(8)
        y = c @ x @ rng.standard_normal(8)
        reg = ols(x, y)
        assert reg.residual_norm <= 1e-8

    def test_all_ones_target_gives_zero_solution(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((8, 8))
        reg = ols(x, np.ones(8))
        np.testing.assert_allclose(reg.beta_hat, 0.0, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(5):
            x = rng.standard_normal((8, 8))
            y = rng.standard_normal(8)
            reg = ols(x, y)
            c = centering_matrix(8)
            oracle, *_ = np.linalg.lstsq(c @ x, y, rcond=1e-12)
            np.testing.assert_allclose(reg.beta_hat, oracle, atol=1e-8)

    def test_residual_recomputes(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((8, 8))
        y = rng.standard_normal(8)
        reg = ols(x, y)
        c = centering_matrix(8)
        recomputed = np.linalg.norm(c @ x @ reg.beta_hat - y)
        assert abs(reg.residual_norm - recomputed) <= 1e-10

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((8, 8))
        x[:, 5] = x[:, 1]
        x[:, 6] = x[:, 2]
        y = rng.standard_normal(8)
        reg = ols(x, y)
        assert reg.effective_rank < 7
        c = centering_matrix(8)
        oracle, *_ = np.linalg.lstsq(c @ x, y, rcond=1e-12)
        np.testing.assert_allclose(reg.beta_hat, oracle, atol=1e-8)

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12), (7, 3), (3, 7), (16, 2)])
    def test_rectangular_design(self, shape):
        # C centers the rows (samples); beta has one entry per column
        rng = np.random.default_rng(32)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape[0])
        reg = ols(x, y)
        oracle, *_ = np.linalg.lstsq(centering_matrix(shape[0]) @ x, y, rcond=1e-12)
        assert reg.beta_hat.shape == (shape[1],)
        np.testing.assert_allclose(reg.beta_hat, oracle, rtol=0, atol=2e-15)
        # the closed form solves the normal equations, squaring the condition number
        np.testing.assert_allclose(reg.beta_hat, ols_closed_form(x, y), rtol=0, atol=1e-14)

    def test_target_length_must_match_the_rows(self):
        rng = np.random.default_rng(33)
        with pytest.raises(ValueError, match="row"):
            ols(rng.standard_normal((12, 5)), rng.standard_normal(5))
