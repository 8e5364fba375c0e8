import numpy as np
import pytest
import scipy.linalg

from blocklab.block_encoding import (
    BlockEncoding,
    adjoint_encoding,
    extract_block,
    linear_combination,
    make_state_prep_pair,
    placement_encoding,
    product,
    rescale_encoding,
    trivial_encoding,
    verify,
)
from blocklab.centering import build_uc, centering_encoding
from blocklab.matrix_core import is_unitary

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_encoding(rng, system_qubits, ancillas):
    """Random unitary treated as an encoding of whatever its corner holds."""
    dim = 1 << (system_qubits + ancillas)
    u = random_unitary(dim, rng)
    return BlockEncoding(u, alpha=1.0, ancillas=ancillas, epsilon=1.0,
                         system_qubits=system_qubits)


class TestTrivialEncoding:
    def test_identity(self):
        be = trivial_encoding(np.eye(2))
        assert (be.alpha, be.ancillas, be.epsilon) == (1.0, 0, 0.0)
        np.testing.assert_array_equal(extract_block(be), np.eye(2))

    def test_pauli_x(self):
        be = trivial_encoding(PAULI_X)
        np.testing.assert_array_equal(extract_block(be), PAULI_X)

    def test_hzh_equals_x(self):
        hzh = HADAMARD @ PAULI_Z @ HADAMARD
        np.testing.assert_allclose(hzh, PAULI_X, atol=1e-15)
        be = trivial_encoding(build_uc(1))
        np.testing.assert_allclose(extract_block(be), PAULI_X, atol=1e-15)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            trivial_encoding(np.diag([1.0, 2.0]))

    def test_block_is_exact_slice(self):
        rng = np.random.default_rng(0)
        u = random_unitary(4, rng)
        be = trivial_encoding(u)
        assert np.array_equal(extract_block(be), u)


class TestVerify:
    def test_identity_passes(self):
        rep = verify(trivial_encoding(np.eye(2)), np.eye(2))
        assert rep.passed and rep.distance_measured == 0.0

    def test_centering_against_direct_formula(self):
        n = 4
        target = np.array([[1 - 1 / n if i == j else -1 / n for j in range(n)]
                           for i in range(n)])
        rep = verify(centering_encoding(n), target, tol=1e-12)
        assert rep.passed and rep.distance_measured <= 1e-12

    def test_orthogonal_unitaries_fail(self):
        rep = verify(trivial_encoding(PAULI_X), np.eye(2), tol=1e-9)
        assert not rep.passed
        assert np.isclose(rep.distance_measured, 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify(trivial_encoding(np.eye(2)), np.eye(4))

    def test_json_fields(self):
        d = verify(trivial_encoding(np.eye(2)), np.eye(2)).to_dict()
        assert set(d) == {"alpha", "ancillas", "epsilon_declared",
                          "distance_measured", "tolerance", "pass"}


class TestProduct:
    def test_identity_times_identity(self):
        be = product(trivial_encoding(np.eye(2)), trivial_encoding(np.eye(2)))
        assert (be.alpha, be.ancillas, be.epsilon) == (1.0, 0, 0.0)
        np.testing.assert_allclose(extract_block(be), np.eye(2), atol=1e-15)

    def test_centering_idempotence(self):
        ce = centering_encoding(4)
        sq = product(ce, ce)
        c = np.eye(4) - np.full((4, 4), 0.25)
        np.testing.assert_allclose(sq.alpha * extract_block(sq), c, atol=1e-12)

    def test_metadata_law(self):
        rng = np.random.default_rng(1)
        u = random_encoding(rng, 2, 1)
        v = random_encoding(rng, 2, 2)
        out = product(u, v)
        assert out.alpha == u.alpha * v.alpha
        assert out.ancillas == u.ancillas + v.ancillas
        assert out.epsilon == u.alpha * v.epsilon + v.alpha * u.epsilon

    def test_corner_law_matches_materialized(self):
        rng = np.random.default_rng(2)
        for (sq, a1, a2) in ((1, 0, 1), (2, 1, 2), (1, 2, 0)):
            u = random_encoding(rng, sq, a1)
            v = random_encoding(rng, sq, a2)
            out = product(u, v)
            mat = out.unitary
            assert is_unitary(mat, 1e-10)
            np.testing.assert_allclose(mat[: out.system_dim, : out.system_dim],
                                       extract_block(out), atol=1e-13)
            np.testing.assert_allclose(extract_block(out),
                                       extract_block(u) @ extract_block(v),
                                       atol=1e-13)

    def test_system_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            product(random_encoding(rng, 1, 0), random_encoding(rng, 2, 0))

    def test_triple_product_blocks_associative(self):
        rng = np.random.default_rng(4)
        a = random_encoding(rng, 2, 1)
        b = random_encoding(rng, 2, 0)
        c = random_encoding(rng, 2, 2)
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        chained = extract_block(a) @ extract_block(b) @ extract_block(c)
        np.testing.assert_allclose(extract_block(left), chained, atol=1e-13)
        np.testing.assert_allclose(extract_block(right), chained, atol=1e-13)
        assert left.alpha == right.alpha
        assert left.ancillas == right.ancillas
        # corner law survives materialization for the nested composite too
        mat = left.unitary
        np.testing.assert_allclose(mat[:4, :4], extract_block(left), atol=1e-12)

    def test_materialize_matches_dense_lift(self):
        rng = np.random.default_rng(15)
        for (sq, a1, a2) in ((1, 1, 2), (2, 2, 1), (2, 0, 3)):
            u = random_encoding(rng, sq, a1)
            v = random_encoding(rng, sq, a2)
            s, la, ra = 1 << sq, 1 << a1, 1 << a2
            # V lifted to (Ra, La, s) with the identity on U's ancilla register
            lifted = np.zeros((ra, la, s, ra, la, s), dtype=complex)
            for m in range(la):
                lifted[:, m, :, :, m, :] = v.unitary.reshape(ra, s, ra, s)
            lifted = lifted.reshape(ra * la * s, ra * la * s)
            dense = np.kron(np.eye(ra, dtype=complex), u.unitary) @ lifted
            np.testing.assert_allclose(product(u, v).unitary, dense, rtol=0, atol=1e-14)


class TestStatePrepPair:
    def test_uniform_half(self):
        pair = make_state_prep_pair(np.array([0.5, 0.5]))
        assert pair.beta == 1.0 and pair.prep_qubits == 1
        np.testing.assert_allclose(pair.p_left, HADAMARD, atol=1e-15)
        np.testing.assert_allclose(pair.p_right, HADAMARD, atol=1e-15)

    def test_all_ones(self):
        for c in (2, 4, 8):
            pair = make_state_prep_pair(np.ones(c))
            assert pair.beta == float(c)
            assert pair.prep_qubits == int(np.log2(c))
            uniform = np.full(c, 1 / np.sqrt(c))
            np.testing.assert_allclose(pair.p_left[:, 0], uniform, atol=1e-14)
            assert pair.definition_defect() <= 1e-12

    def test_signed(self):
        pair = make_state_prep_pair(np.array([0.5, -0.5]))
        assert pair.beta == 1.0
        assert pair.definition_defect() <= 1e-12

    def test_complex_coefficients(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        pair = make_state_prep_pair(y)
        assert pair.definition_defect() <= 1e-12
        assert is_unitary(pair.p_left, 1e-10)
        assert is_unitary(pair.p_right, 1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            make_state_prep_pair(np.zeros(3))


class TestLinearCombination:
    def test_centering_from_identity_and_reflection(self):
        n = 4
        pair = make_state_prep_pair(np.array([0.5, -0.5]))
        terms = [trivial_encoding(np.eye(n)), trivial_encoding(build_uc(2))]
        be = linear_combination(pair, terms, common_alpha=1.0)
        assert be.alpha == 1.0 and be.ancillas == 1
        c = np.eye(n) - np.full((n, n), 0.25)
        np.testing.assert_allclose(be.alpha * extract_block(be), c, atol=1e-12)

    def test_degenerate_sum_reproduces_term(self):
        rng = np.random.default_rng(5)
        u = random_unitary(4, rng)
        pair = make_state_prep_pair(np.array([0.5, 0.5]))
        be = linear_combination(pair, [trivial_encoding(u)] * 2, common_alpha=1.0)
        np.testing.assert_allclose(be.alpha * extract_block(be), u, atol=1e-12)

    def test_random_diagonal_terms(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            m = int(rng.integers(2, 9))
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y *= 4.0 / max(np.abs(y).sum(), 4.0)
            assert np.abs(y).sum() <= 4.0 + 1e-12
            terms = [trivial_encoding(np.diag(np.exp(2j * np.pi * rng.random(4))))
                     for _ in range(m)]
            pair = make_state_prep_pair(y)
            be = linear_combination(pair, terms, common_alpha=1.0)
            target = sum(yj * extract_block(t) for yj, t in zip(y, terms))
            np.testing.assert_allclose(be.alpha * extract_block(be), target, atol=1e-9)
            mat = be.unitary
            assert is_unitary(mat, 1e-10)
            np.testing.assert_allclose(mat[:4, :4], extract_block(be), atol=1e-13)

    def test_metadata_law(self):
        rng = np.random.default_rng(7)
        terms = [random_encoding(rng, 2, 1) for _ in range(3)]
        pair = make_state_prep_pair(np.array([1.0, 2.0, 0.5]))
        be = linear_combination(pair, terms, common_alpha=1.0)
        assert be.alpha == pair.beta
        assert be.ancillas == 1 + pair.prep_qubits
        expected_eps = pair.epsilon_y + pair.beta * max(t.epsilon for t in terms)
        assert be.epsilon == expected_eps

    def test_materialize_matches_dense_select(self):
        rng = np.random.default_rng(12)
        terms = [random_encoding(rng, 2, 1) for _ in range(3)]
        pair = make_state_prep_pair(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        be = linear_combination(pair, terms, common_alpha=1.0)
        eye = np.eye(terms[0].dim, dtype=complex)
        select = scipy.linalg.block_diag(*[t.unitary for t in terms], eye)
        dense = (np.kron(pair.p_left.conj().T, eye) @ select
                 @ np.kron(pair.p_right, eye))
        np.testing.assert_allclose(be.unitary, dense, rtol=0, atol=1e-14)

    def test_heterogeneous_alpha_rejected(self):
        rng = np.random.default_rng(8)
        a = random_encoding(rng, 1, 0)
        b = rescale_encoding(random_encoding(rng, 1, 0), 2.0)
        pair = make_state_prep_pair(np.ones(2))
        with pytest.raises(ValueError, match="alpha"):
            linear_combination(pair, [a, trivial_encoding(np.eye(2))], 2.0)
        with pytest.raises(ValueError, match="ancilla"):
            linear_combination(pair, [trivial_encoding(np.eye(2)), b], 1.0)

    def test_too_many_terms(self):
        pair = make_state_prep_pair(np.ones(2))
        terms = [trivial_encoding(np.eye(2))] * 3
        with pytest.raises(ValueError, match="slots"):
            linear_combination(pair, terms, 1.0)


class TestRescaleAndAdjoint:
    def test_rescale_block_shrinks(self):
        rng = np.random.default_rng(9)
        be = random_encoding(rng, 2, 1)
        out = rescale_encoding(be, 2.5)
        assert out.alpha == 2.5 and out.ancillas == be.ancillas + 1
        np.testing.assert_allclose(extract_block(out),
                                   (be.alpha / 2.5) * extract_block(be), atol=1e-13)
        mat = out.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[:4, :4], extract_block(out), atol=1e-13)

    def test_rescale_matches_kron_product(self):
        rng = np.random.default_rng(13)
        be = random_encoding(rng, 2, 1)
        out = rescale_encoding(be, 2.5)
        g = be.alpha / 2.5
        s = np.sqrt(1.0 - g * g)
        rot = np.array([[g, -s], [s, g]], dtype=complex)
        dense = (np.kron(rot, np.eye(be.dim, dtype=complex))
                 @ np.kron(np.eye(2, dtype=complex), be.unitary))
        np.testing.assert_array_equal(out.unitary, dense)

    def test_rescale_smaller_rejected(self):
        rng = np.random.default_rng(10)
        be = random_encoding(rng, 1, 0)
        with pytest.raises(ValueError):
            rescale_encoding(be, 0.5)

    def test_adjoint(self):
        rng = np.random.default_rng(11)
        be = random_encoding(rng, 2, 1)
        adj = adjoint_encoding(be)
        np.testing.assert_allclose(extract_block(adj),
                                   extract_block(be).conj().T, atol=1e-15)
        np.testing.assert_allclose(adj.unitary, be.unitary.conj().T, atol=1e-15)


class TestBlockEncodingInvariants:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError):
            BlockEncoding(np.eye(4), alpha=1.0, ancillas=0, epsilon=0.0,
                          system_qubits=1)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            BlockEncoding(np.eye(2), alpha=0.0, ancillas=0, epsilon=0.0,
                          system_qubits=1)

    def test_immutable(self):
        be = trivial_encoding(np.eye(2))
        with pytest.raises(AttributeError):
            be.alpha = 2.0

    def test_unitary_read_only(self):
        with pytest.raises(ValueError):
            trivial_encoding(PAULI_X).unitary[0, 0] = 5

    def test_validate_flags_non_unitary(self):
        be = BlockEncoding(np.diag([1.0, 2.0]), alpha=1.0, ancillas=0,
                           epsilon=0.0, system_qubits=1)
        assert not be.validate()
        assert trivial_encoding(PAULI_X).validate()


def _select(be, rng):
    other = random_encoding(rng, be.system_qubits, be.ancillas)
    enc = placement_encoding(2, {(0, 0): be, (1, 1): other})
    return enc, scipy.linalg.block_diag(extract_block(be), extract_block(other))


def _dilation(be, rng):
    enc = placement_encoding(2, {(0, 1): be, (1, 0): adjoint_encoding(be)})
    blk = extract_block(be)
    zero = np.zeros_like(blk)
    return enc, np.block([[zero, blk], [blk.conj().T, zero]])


def _extension(be, rng):
    enc = placement_encoding(4, {(j, j): be for j in range(4)})
    return enc, np.kron(np.eye(4), extract_block(be))


class TestPlacement:
    @pytest.mark.parametrize("build", [_select, _dilation, _extension],
                             ids=["select", "dilation", "extension"])
    def test_corner_is_leading_block_of_unitary(self, build):
        rng = np.random.default_rng(14)
        be = product(random_encoding(rng, 2, 1), random_encoding(rng, 2, 0))
        enc, expected = build(be, rng)
        assert enc.ancillas == be.ancillas and enc.alpha == be.alpha
        np.testing.assert_array_equal(extract_block(enc), expected)
        mat = enc.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[: enc.system_dim, : enc.system_dim],
                                   extract_block(enc), atol=1e-13)

    def test_epsilon_sums_worst_error_per_offset(self):
        rng = np.random.default_rng(16)
        a = random_encoding(rng, 1, 0)
        b = BlockEncoding(random_unitary(2, rng), alpha=1.0, ancillas=0, epsilon=0.25,
                          system_qubits=1)
        assert placement_encoding(2, {(0, 0): a, (1, 1): b}).epsilon == a.epsilon
        assert placement_encoding(2, {(0, 1): b, (1, 0): a}).epsilon == a.epsilon + 0.25
        assert placement_encoding(4, {(j, j): b for j in range(4)}).epsilon == 0.25
        dil = placement_encoding(2, {(0, 1): a, (1, 0): adjoint_encoding(a)})
        assert dil.epsilon == 2.0 * a.epsilon

    def test_mismatched_children_rejected(self):
        rng = np.random.default_rng(17)
        a = random_encoding(rng, 1, 0)
        with pytest.raises(ValueError, match="share"):
            placement_encoding(2, {(0, 0): a, (1, 1): rescale_encoding(a, 2.0)})
        with pytest.raises(ValueError, match="exactly once"):
            placement_encoding(2, {(2, 0): a, (1, 1): a})
        with pytest.raises(ValueError, match="exactly once"):
            placement_encoding(2, {(0, 0): a})
        with pytest.raises(ValueError, match="exactly once"):
            placement_encoding(2, {(0, 0): a, (0, 1): a})
        with pytest.raises(ValueError, match="exactly once"):
            placement_encoding(2, {(0, 0): a, (1, 0): a})
        with pytest.raises(ValueError, match="power of two"):
            placement_encoding(3, {(j, j): a for j in range(3)})
