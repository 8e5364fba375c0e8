import numpy as np
import pytest

from blocklab.block_encoding import extract_block
from blocklab.centering import (
    ClassPartition,
    build_uc,
    centering_encoding,
    centering_matrix,
    cyclic_shift,
    ones_matrix_encoding,
    per_class_centering,
    similarity_encoding,
    similarity_matrix,
)
from blocklab.matrix_core import CapExceededError, is_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def centering_oracle(n):
    """Entrywise mean-removal projector, built independently of the library."""
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (1.0 - 1.0 / n) if i == j else -1.0 / n
    return out


class TestBuildUc:
    def test_single_qubit_is_pauli_x(self):
        np.testing.assert_allclose(build_uc(1), PAULI_X, atol=1e-15)

    def test_two_qubit_closed_form(self):
        uc = build_uc(2)
        expected = 0.5 * np.ones((4, 4)) - np.eye(4)
        np.testing.assert_allclose(uc, expected, atol=1e-15)

    def test_closed_form_all_sizes(self):
        for k in (1, 2, 3, 4):
            n = 1 << k
            expected = (2.0 / n) * np.ones((n, n)) - np.eye(n)
            assert np.max(np.abs(build_uc(k) - expected)) <= 1e-12

    def test_involution_and_hermitian(self):
        for k in (1, 2, 3):
            uc = build_uc(k)
            n = 1 << k
            assert np.max(np.abs(uc @ uc - np.eye(n))) <= 1e-12
            assert np.max(np.abs(uc - uc.conj().T)) <= 1e-12

    def test_combination_with_identity_gives_projector(self):
        for k in (1, 2, 3):
            n = 1 << k
            c = 0.5 * (np.eye(n) - build_uc(k))
            np.testing.assert_allclose(c, centering_oracle(n), atol=1e-14)

    def test_invalid_log(self):
        with pytest.raises(ValueError):
            build_uc(0)


class TestCenteringEncoding:
    def test_n2_block(self):
        blk = extract_block(centering_encoding(2))
        np.testing.assert_allclose(blk, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    def test_n4_block(self):
        blk = extract_block(centering_encoding(4))
        assert np.allclose(np.diag(blk), 0.75)
        off = blk - np.diag(np.diag(blk))
        assert np.allclose(off[off != 0], -0.25)

    def test_annihilates_ones_vector(self):
        for n in (2, 4, 8):
            blk = extract_block(centering_encoding(n))
            assert np.max(np.abs(blk @ np.ones(n))) <= 1e-12

    def test_matches_oracle(self):
        for n in (2, 4, 8, 16):
            be = centering_encoding(n)
            assert be.alpha == 1.0 and be.ancillas == 1 and be.epsilon <= 1e-12
            np.testing.assert_allclose(be.alpha * extract_block(be),
                                       centering_oracle(n), atol=1e-12)

    def test_unitary(self):
        assert centering_encoding(8).validate()

    def test_projector_properties(self):
        for n in (2, 4, 8):
            blk = extract_block(centering_encoding(n))
            assert np.max(np.abs(blk @ blk - blk)) <= 1e-10
            assert np.max(np.abs(blk - blk.T)) <= 1e-12
            spectrum = np.sort(np.linalg.eigvalsh((blk + blk.conj().T) / 2))
            expected = np.concatenate([[0.0], np.ones(n - 1)])
            assert np.max(np.abs(spectrum - expected)) <= 1e-9

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            centering_encoding(3)


class TestOnesMatrix:
    def test_shift_sum_is_all_ones(self):
        for n in (2, 4, 8):
            total = sum(cyclic_shift(n, t) for t in range(n))
            np.testing.assert_array_equal(total, np.ones((n, n)))

    def test_n2(self):
        be = ones_matrix_encoding(2)
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   np.ones((2, 2)), atol=1e-13)

    def test_n4(self):
        be = ones_matrix_encoding(4)
        assert be.alpha == 4.0
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   np.ones((4, 4)), atol=1e-13)

    def test_column_sums(self):
        be = ones_matrix_encoding(4)
        scaled = be.alpha * extract_block(be)
        np.testing.assert_allclose(scaled.sum(axis=0), np.full(4, 4.0), atol=1e-12)

    def test_shift_is_permutation(self):
        p = cyclic_shift(4, 1)
        assert is_unitary(p, 0.0)
        assert np.array_equal(p @ np.array([1, 0, 0, 0.0]), [0, 1, 0, 0])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ones_matrix_encoding(3)


class TestSimilarity:
    @pytest.mark.parametrize("sizes", [(2, 2), (4,), (2, 4), (1, 3), (3, 5), (1, 1)])
    def test_matches_padded_layout(self, sizes):
        part = ClassPartition(sizes)
        be = similarity_encoding(part)
        target = similarity_matrix(part)
        assert be.alpha == float(max(sizes))
        assert np.max(np.abs(be.alpha * extract_block(be) - target)) <= 1e-10

    def test_equal_pair(self):
        part = ClassPartition((2, 2))
        be = similarity_encoding(part)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1.0
        expected[2:, 2:] = 1.0
        assert be.alpha == 2.0
        np.testing.assert_allclose(be.alpha * extract_block(be), expected, atol=1e-12)

    def test_single_class_reduces_to_all_ones(self):
        be = similarity_encoding(ClassPartition((4,)))
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   np.ones((4, 4)), atol=1e-12)

    def test_unequal_share_one_alpha(self):
        part = ClassPartition((2, 4))
        be = similarity_encoding(part)
        assert be.alpha == 4.0
        target = similarity_matrix(part)
        np.testing.assert_allclose(be.alpha * extract_block(be), target, atol=1e-12)

    def test_materialized_unitary(self):
        be = similarity_encoding(ClassPartition((2, 4)))
        mat = be.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[: be.system_dim, : be.system_dim],
                                   extract_block(be), atol=1e-13)

    def test_total_dim_extension(self):
        part = ClassPartition((2, 2))
        be = similarity_encoding(part, total_dim=8)
        assert be.system_dim == 8
        blk = be.alpha * extract_block(be)
        np.testing.assert_allclose(blk[:4, :4],
                                   similarity_matrix(part), atol=1e-12)
        assert np.max(np.abs(blk[4:, :])) <= 1e-12
        assert np.max(np.abs(blk[:, 4:])) <= 1e-12


class TestCenteringTermsCache:
    def test_fresh_node_shared_leaves(self):
        a, b = centering_encoding(8), centering_encoding(8)
        assert a is not b and a.kind == b.kind == "lcu"
        assert a.pair is b.pair
        assert all(x is y for x, y in zip(a.children, b.children, strict=True))

    def test_build_uc_not_cached(self):
        centering_encoding(4)
        first, second = build_uc(2), build_uc(2)
        assert first is not second and first.flags.writeable

    def test_cap_checked_when_cached(self, monkeypatch):
        centering_encoding(32)
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "4")
        with pytest.raises(CapExceededError,
                           match=r"^dimension 32 exceeds the simulator cap 2\*\*4 = 16$"):
            centering_encoding(32)


class TestPerClassCentering:
    def test_symmetric_pair(self):
        encs = per_class_centering(ClassPartition((2, 2)))
        assert len(encs) == 2
        for be in encs:
            np.testing.assert_allclose(extract_block(be),
                                       [[0.5, -0.5], [-0.5, 0.5]], atol=1e-13)

    def test_single_class(self):
        (be,) = per_class_centering(ClassPartition((4,)))
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   centering_oracle(4), atol=1e-12)

    def test_idempotence(self):
        for be in per_class_centering(ClassPartition((2, 4))):
            blk = extract_block(be)
            assert np.max(np.abs(blk @ blk - blk)) <= 1e-10

    def test_non_power_of_two_padded(self):
        encs = per_class_centering(ClassPartition((3,)))
        assert encs[0].system_dim == 4


class TestClassPartition:
    def test_fields(self):
        part = ClassPartition((2, 4))
        assert part.class_count == 2
        assert part.total == 6
        assert part.max_class_size == 4
        assert part.block_dim == 4
        assert part.padded_class_count == 2
        assert part.padded_total == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassPartition(())
        with pytest.raises(ValueError):
            ClassPartition((2, 0))

    def test_centering_matrix_helper(self):
        np.testing.assert_allclose(centering_matrix(4), centering_oracle(4),
                                   atol=1e-15)
