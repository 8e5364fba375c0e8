import tracemalloc

import numpy as np
import pytest

from blocklab.block_encoding import extract_block, verify
from blocklab.centering import (
    build_uc,
    centering_encoding,
    similarity_encoding,
    similarity_root,
)
from blocklab.matrix_core import CapExceededError, is_unitary
from blocklab.oracles import centering_matrix, similarity

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
        # the register must be a power of two >= 2 holding every sample
        for dim in (3, 6, 1):
            with pytest.raises(ValueError):
                centering_encoding(1, dim)
        with pytest.raises(ValueError):
            centering_encoding(5, 4)

    @pytest.mark.parametrize("n", [1, 3, 5, 6, 12])
    def test_true_sample_count_zero_embedded(self, n):
        be = centering_encoding(n)
        dim = max(2, 1 << (n - 1).bit_length())
        assert be.system_dim == dim and be.alpha == 1.0 and be.ancillas == 1
        blk = be.alpha * extract_block(be)
        np.testing.assert_allclose(blk[:n, :n], centering_oracle(n), atol=1e-12)
        assert not blk[n:].any() and not blk[:, n:].any()
        assert be.validate()

    def test_wider_register(self):
        blk = extract_block(centering_encoding(3, 8))
        np.testing.assert_allclose(blk[:3, :3], centering_oracle(3), atol=1e-12)
        assert not blk[3:].any() and not blk[:, 3:].any()

    def test_invalid_slots_rejected(self):
        with pytest.raises(ValueError):
            centering_encoding(0)
        for slots in ([], [-1, -1], [0, -2], [0.5, 1.0]):
            with pytest.raises(ValueError):
                centering_encoding(np.array(slots))


def shuffled_labels(sizes, seed=0):
    """One label per sample, classes of the given sizes in a random order."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.repeat(np.arange(len(sizes)), sizes))


def zero_embedded(m, dim):
    out = np.zeros((dim, dim))
    out[: m.shape[0], : m.shape[1]] = m
    return out


class TestOnesMatrix:
    """An int n is one class: the all-ones matrix on the first n slots."""

    def test_n2(self):
        be = similarity_encoding(2)
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   np.ones((2, 2)), atol=1e-13)

    def test_n4(self):
        be = similarity_encoding(4)
        assert be.alpha == 4.0 and be.ancillas == 1
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   np.ones((4, 4)), atol=1e-13)

    def test_column_sums(self):
        be = similarity_encoding(4)
        scaled = be.alpha * extract_block(be)
        np.testing.assert_allclose(scaled.sum(axis=0), np.full(4, 4.0), atol=1e-12)

    def test_non_power_of_two_rejected(self):
        # a size that is not a power of two is zero-embedded; a register is not
        be = similarity_encoding(6)
        assert be.system_dim == 8 and be.alpha == 6.0
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   zero_embedded(np.ones((6, 6)), 8), atol=1e-14)
        with pytest.raises(ValueError):
            similarity_encoding(3, dim=6)


class TestSimilarity:
    @pytest.mark.parametrize("sizes", [(1,), (2, 2), (4,), (2, 4), (1, 3), (3, 5),
                                       (1, 1, 1), (3, 5, 4)])
    def test_matches_padded_layout(self, sizes):
        # the block is the label oracle zero-padded to the register, labels
        # in any order
        labels = shuffled_labels(sizes)
        be = similarity_encoding(labels)
        assert be.alpha == float(max(sizes)) and be.ancillas == 1
        target = zero_embedded(similarity(labels), be.system_dim)
        assert np.max(np.abs(be.alpha * extract_block(be) - target)) <= 1e-14
        assert is_unitary(be.unitary, 1e-10)

    @pytest.mark.parametrize("sizes", [(3, 5), (3, 5, 4), (5,), (7,), (1,), (2, 4),
                                       (1, 1, 1)])
    def test_declared_epsilon_bounds_the_round_off(self, sizes):
        # the declared bound is fixed in advance, so verify needs no tolerance
        labels = shuffled_labels(sizes)
        be = similarity_encoding(labels)
        assert verify(be, zero_embedded(similarity(labels), be.system_dim), tol=0).passed
        assert verify(similarity_encoding(sum(sizes)),
                      zero_embedded(np.ones((sum(sizes),) * 2), be.system_dim), tol=0).passed

    def test_equal_pair(self):
        labels = np.array([0, 1, 1, 0])
        be = similarity_encoding(labels)
        expected = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1.0]])
        assert be.alpha == 2.0
        np.testing.assert_allclose(be.alpha * extract_block(be), expected, atol=1e-12)

    def test_single_class_reduces_to_all_ones(self):
        be = similarity_encoding(np.full(4, 3))
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   np.ones((4, 4)), atol=1e-12)

    def test_unequal_share_one_alpha(self):
        labels = shuffled_labels((2, 4), seed=1)
        be = similarity_encoding(labels)
        assert be.alpha == 4.0
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   zero_embedded(similarity(labels), 8), atol=1e-12)

    def test_materialized_unitary(self):
        be = similarity_encoding(shuffled_labels((2, 4)))
        mat = be.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[: be.system_dim, : be.system_dim],
                                   extract_block(be), atol=1e-13)

    def test_total_dim_extension(self):
        # a wider register adds empty slots, which encode exact zeros
        labels = np.array([1, 0, 0, 1, -1, 1])
        be = similarity_encoding(labels, dim=16)
        assert be.system_dim == 16 and be.alpha == 3.0
        target = similarity(labels) * np.outer(labels >= 0, labels >= 0)
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   zero_embedded(target, 16), atol=1e-14)


def class_leaf_cases(seed):
    """Slot classes for the class-leaf bound: random sizes in random order,
    plus one large class, equal classes and padding."""
    rng = np.random.default_rng(seed)
    cases = [np.zeros(100, dtype=int), np.repeat([0, 1], [64, 64]),
             np.array([0, -1, 0, 1, -1])]
    for _ in range(150):
        sizes = rng.integers(1, 21, size=rng.integers(1, 5))
        cases.append(shuffled_labels(sizes, seed=int(rng.integers(1 << 30))))
    return cases


def class_block(law, k):
    """The exact target on one class of k slots, in extended precision."""
    if law == "center":
        return np.eye(k, dtype=np.longdouble) - 1 / np.longdouble(k)
    return np.full((k, k), 1 / np.sqrt(np.longdouble(k)) if law == "root" else np.longdouble(1))


LEAF_LAWS = {"similarity": similarity_encoding, "root": similarity_root,
             "center": centering_encoding}


class TestClassLeaf:
    """C, E and E^1/2 are one real Hermitian leaf [[A, S], [S, -A]] on one ancilla."""

    @pytest.mark.parametrize("law", ["similarity", "root", "center"])
    def test_real_hermitian_unitary(self, law):
        be = LEAF_LAWS[law](shuffled_labels((3, 5, 4)))
        u = be.unitary
        s = be.system_dim
        assert be.kind == "leaf" and be.ancillas == 1 and not be.children
        assert not u.imag.any()
        np.testing.assert_array_equal(u, u.T)
        np.testing.assert_array_equal(u[s:, s:], -u[:s, :s])
        np.testing.assert_array_equal(u[:s, s:], u[s:, :s])
        assert is_unitary(u, 1e-14)

    @pytest.mark.parametrize("classes", [2, 3, 5, 12, 16, 32, "padded"])
    def test_centering_leaf(self, classes):
        # the label layout (3, 5, 4) is test_real_hermitian_unitary[center]
        if classes == "padded":
            classes = np.array([1, -1, 0, 1, 1, -1, 0])
        be = centering_encoding(classes)
        u = be.unitary
        s = be.system_dim
        assert (be.kind, be.alpha, be.ancillas, be.children) == ("leaf", 1.0, 1, ())
        assert not u.imag.any()
        np.testing.assert_array_equal(u, u.T)
        assert is_unitary(u, 1e-14)
        # [[C, I - C], [I - C, -C]]
        np.testing.assert_allclose(u[:s, s:], np.eye(s) - u[:s, :s], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(u[s:, s:], -u[:s, :s])

    def test_one_class_centering_is_the_projector_bit_for_bit(self):
        for n in (1, 3, 6, 16):
            be = centering_encoding(n)
            blk = extract_block(be)
            np.testing.assert_array_equal(blk[:n, :n], centering_matrix(n))
            assert verify(be, zero_embedded(centering_matrix(n), be.system_dim),
                          tol=0).distance_measured == 0.0

    def test_root_squares_to_similarity(self):
        labels = shuffled_labels((3, 5, 4))
        be = similarity_root(labels)
        assert be.alpha == np.sqrt(5.0)
        half = be.alpha * extract_block(be)
        e = zero_embedded(similarity(labels), be.system_dim)
        assert np.max(np.abs(half @ half - e)) <= 1e-14
        counts = np.bincount(labels)[labels]
        np.testing.assert_allclose(half[:12, :12], similarity(labels) / np.sqrt(counts),
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("law", ["similarity", "root", "center"])
    def test_declared_epsilon_bounds_the_block(self, law):
        # the a-priori bound 5u alpha, checked in extended precision: the
        # error is zero off the classes, so its norm is the largest over the
        # class blocks, each bounded by its Frobenius norm
        if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
            pytest.skip("np.longdouble carries no extra precision on this platform")
        seed = {"similarity": 50, "root": 51, "center": 52}[law]
        for slots in class_leaf_cases(seed):
            be = LEAF_LAWS[law](slots)
            assert be.epsilon == 5 * (np.finfo(float).eps / 2) * be.alpha
            block = be.extract_block()
            assert not block.imag.any()
            err = -np.longdouble(be.alpha) * block.real.astype(np.longdouble)
            occupied = np.flatnonzero(slots >= 0)
            counts = np.bincount(slots[occupied])
            worst = np.longdouble(0.0)
            for g in np.flatnonzero(counts):
                idx = occupied[slots[occupied] == g]
                err[np.ix_(idx, idx)] += class_block(law, counts[g])
                worst = max(worst, np.sqrt(np.sum(err[np.ix_(idx, idx)] ** 2)))
                err[np.ix_(idx, idx)] = 0.0
            assert not err.any()
            assert worst <= be.epsilon


    def test_built_in_one_buffer(self):
        """The leaf writes its unitary once and keeps it: 32 MiB kept at
        2,048 dimensions, with no second full-size matrix on the way."""
        tracemalloc.start()
        try:
            be = centering_encoding(np.zeros(1024, dtype=int))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert be.unitary.nbytes == 32 << 20 and not be.unitary.flags.writeable
        assert peak < 48 << 20


class TestCenteringTermsCache:
    def test_fresh_node_shared_leaves(self):
        # one-class calls share one cached leaf; a slot layout builds its own
        a, b = centering_encoding(8), centering_encoding(8)
        assert a is b and a.kind == "leaf"
        assert centering_encoding(5) is centering_encoding(5, 8) is not centering_encoding(5, 16)
        slots = np.zeros(8, dtype=int)
        c = centering_encoding(slots)
        assert c is not a and c is not centering_encoding(slots)
        np.testing.assert_array_equal(c.unitary, a.unitary)
        assert not a.unitary.flags.writeable

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

    def test_cap_checked_on_the_leaf_dimension(self, monkeypatch):
        # the 16 slots fit under the cap, but the cached leaf's unitary does not
        centering_encoding(16)
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "4")
        with pytest.raises(CapExceededError,
                           match=r"^dimension 32 exceeds the simulator cap 2\*\*4 = 16$"):
            centering_encoding(16)
        with pytest.raises(CapExceededError):
            centering_encoding(np.zeros(16, dtype=int))


def class_centering_oracle(slots):
    """Zero-embedded per-class projector, built independently of the library."""
    dim = len(slots)
    out = np.zeros((dim, dim))
    for g in set(slots) - {-1}:
        idx = [i for i, s in enumerate(slots) if s == g]
        out[np.ix_(idx, idx)] = centering_oracle(len(idx))
    return out


class TestPerClassCentering:
    def test_symmetric_pair(self):
        be = centering_encoding(np.array([0, 0, 1, 1]))
        expected = np.zeros((4, 4))
        expected[:2, :2] = expected[2:, 2:] = [[0.5, -0.5], [-0.5, 0.5]]
        np.testing.assert_allclose(extract_block(be), expected, atol=1e-13)

    def test_single_class(self):
        be = centering_encoding(np.zeros(4, dtype=int))
        np.testing.assert_allclose(be.alpha * extract_block(be),
                                   centering_oracle(4), atol=1e-12)

    def test_idempotence(self):
        for slots in ([0, 0, 1, 1, 1, 1], [1, 0, 2, 1, 0, 1, -1, 2], [0, -1, 1, 1]):
            blk = extract_block(centering_encoding(np.array(slots)))
            assert np.max(np.abs(blk @ blk - blk)) <= 1e-10
            np.testing.assert_allclose(blk, class_centering_oracle(
                slots + [-1] * (blk.shape[0] - len(slots))), atol=1e-12)

    def test_non_power_of_two_padded(self):
        be = centering_encoding(np.array([0, 1, 1]))
        assert be.system_dim == 4 and be.validate()
        blk = extract_block(be)
        np.testing.assert_allclose(blk, class_centering_oracle([0, 1, 1, -1]), atol=1e-12)


class TestClassPartition:
    """The slot classes are the one class layout centering and similarity read."""

    def test_fields(self):
        labels = np.array([4, 2, 4, 4, 2, 4])  # class ids need not start at 0
        sim = similarity_encoding(labels)
        cent = centering_encoding(labels)
        assert sim.system_dim == cent.system_dim == 8
        assert sim.alpha == 4.0
        # C E = 0 on every class: E is constant on a class and C removes its mean
        assert np.max(np.abs(extract_block(cent) @ extract_block(sim))) <= 1e-15

    def test_validation(self):
        for classes in (0, np.array([]), np.array([-1, -1]), np.array([0, -2]),
                        np.array([0.5, 1.0])):
            with pytest.raises(ValueError):
                similarity_encoding(classes)
        with pytest.raises(ValueError):
            similarity_encoding(np.array([0, 1, 1]), dim=2)

    def test_centering_matrix_helper(self):
        np.testing.assert_allclose(centering_matrix(4), centering_oracle(4),
                                   atol=1e-15)
