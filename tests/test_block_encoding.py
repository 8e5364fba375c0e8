import numpy as np
import pytest
import scipy.linalg

from blocklab.block_encoding import (
    BlockEncoding,
    adjoint_encoding,
    extract_block,
    gram_encoding,
    linear_combination,
    make_state_prep_pair,
    product,
    trivial_encoding,
    verify,
)
from blocklab.centering import build_uc, centering_encoding
from blocklab.data_encoding import hermitian_dilation
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

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            trivial_encoding(np.diag([1.0, np.nan]))

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

    @pytest.mark.parametrize("y", [[1e4, -1e4], [1e6, 1e6, 1e6], [3e4, -1e5, 7e3],
                                   [1e8, -2e8j, 5e7 + 5e7j], [1e300, -1e300]])
    def test_large_coefficients_build(self, y):
        pair = make_state_prep_pair(y)
        assert pair.epsilon_y == 9 * (np.finfo(float).eps / 2) * pair.beta
        assert pair.definition_defect() <= pair.epsilon_y

    def test_declared_defect_bounds_the_pair(self):
        # epsilon_y = 9u beta, fixed in advance, against the defect of the
        # stored amplitudes evaluated in extended precision
        if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
            pytest.skip("np.longdouble carries no extra precision on this platform")
        rng = np.random.default_rng(21)
        ld = np.longdouble
        for i in range(1200):
            m = int(rng.integers(1, 17))
            y = rng.standard_normal(m) * 10.0 ** rng.uniform(-100, 100)
            if i % 2:
                y = y + 1j * rng.standard_normal(m) * 10.0 ** rng.uniform(-100, 100)
            pair = make_state_prep_pair(y)
            c, d = pair.p_left[:, 0], pair.p_right[:, 0]
            assert not c.imag.any() and not c[m:].any() and not d[m:].any()
            cr, dr, di = c.real.astype(ld), d.real.astype(ld), d.imag.astype(ld)
            er = ld(pair.beta) * cr[:m] * dr[:m] - y.real.astype(ld)
            ei = ld(pair.beta) * cr[:m] * di[:m] - np.imag(y).astype(ld)
            assert np.sum(np.sqrt(er * er + ei * ei)) <= pair.epsilon_y


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

    def test_term_errors_enter_with_their_weights(self):
        # eps' = alpha eps_y + beta max eps_j: with alpha < 1 the error of
        # each term is not scaled down by alpha, and this target reaches it
        rng = np.random.default_rng(9)
        terms = [BlockEncoding(random_unitary(4, rng), alpha=0.1, ancillas=1,
                               epsilon=0.01, system_qubits=1) for _ in range(2)]
        pair = make_state_prep_pair(np.array([1.0, 1.0]))
        be = linear_combination(pair, terms, common_alpha=0.1)
        assert be.epsilon == 0.1 * pair.epsilon_y + 2 * 0.01
        shift = 0.01 * (1 - 1e-9) * np.eye(2)  # each target within eps of 0.1 b_j
        target = sum(0.1 * extract_block(t) + shift for t in terms)
        rep = verify(be, target, tol=0)
        assert rep.distance_measured > 0.1 * pair.epsilon_y + 0.1 * 2 * 0.01
        assert rep.passed

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
        b = random_encoding(rng, 1, 1)
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


class TestAdjoint:
    def test_adjoint(self):
        rng = np.random.default_rng(11)
        be = random_encoding(rng, 2, 1)
        adj = adjoint_encoding(be)
        np.testing.assert_allclose(extract_block(adj),
                                   extract_block(be).conj().T, atol=1e-15)
        np.testing.assert_allclose(adj.unitary, be.unitary.conj().T, atol=1e-15)


def _gram_inners():
    rng = np.random.default_rng(21)
    return {
        "random-s1-a0": random_encoding(rng, 1, 0),
        "random-s2-a1": random_encoding(rng, 2, 1),
        "random-s2-a2": random_encoding(rng, 2, 2),
        "product": product(centering_encoding(4), random_encoding(rng, 2, 1)),
        "scaled-s1-a2": BlockEncoding(random_unitary(8, rng), alpha=3.0, ancillas=2,
                                      epsilon=0.5, system_qubits=1),
    }


class TestGram:
    @pytest.mark.parametrize("name", sorted(_gram_inners()))
    def test_laws(self, name):
        be = _gram_inners()[name]
        g = gram_encoding(be)
        assert g.kind == "gram" and g.children == (be,)
        assert (g.alpha, g.ancillas, g.system_qubits, g.dim) == (
            be.alpha * be.alpha, be.ancillas + 1, be.system_qubits, 2 * be.dim)
        assert g.epsilon == be.epsilon * (2.0 * be.alpha + be.epsilon)

    @pytest.mark.parametrize("name", sorted(_gram_inners()))
    def test_corner_is_a_slice_of_the_unitary(self, name):
        be = _gram_inners()[name]
        g = gram_encoding(be)
        b = extract_block(be)
        np.testing.assert_allclose(extract_block(g), b.conj().T @ b, rtol=0, atol=1e-14)
        s = g.system_dim
        np.testing.assert_allclose(g.unitary[:s, :s], extract_block(g), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(_gram_inners()))
    def test_hermitian_unitary_involution(self, name):
        u = gram_encoding(_gram_inners()[name]).unitary
        np.testing.assert_array_equal(u, u.conj().T)
        assert is_unitary(u, 1e-10)

    def test_matches_the_two_term_combination(self):
        """[[G, G - I], [G - I, G]] is (1/2, 1/2) of U^dag (2 Pi_0 - I) U and I."""
        be = _gram_inners()["random-s2-a1"]
        u = be.unitary
        refl = np.diag(np.where(np.arange(be.dim) < be.system_dim, 1.0, -1.0))
        v = u.conj().T @ refl @ u
        eye = np.eye(be.dim)
        expected = 0.5 * np.block([[v + eye, v - eye], [v - eye, v + eye]])
        np.testing.assert_allclose(gram_encoding(be).unitary, expected, rtol=0, atol=1e-14)

    def test_encodes_the_gram_matrix_of_the_target(self):
        rng = np.random.default_rng(22)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        be = BlockEncoding(np.linalg.qr(b)[0], alpha=2.0, ancillas=1, epsilon=0.0,
                           system_qubits=1)
        target = be.alpha ** 2 * extract_block(be).conj().T @ extract_block(be)
        rep = verify(gram_encoding(be), target, tol=1e-13)
        assert rep.passed and rep.alpha == 4.0


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

    def test_leaf_does_not_alias_the_callers_array(self):
        for make in (trivial_encoding,
                     lambda u: BlockEncoding(u, alpha=2.0, ancillas=1, epsilon=0.0,
                                             system_qubits=1)):
            u = np.kron(PAULI_X, PAULI_X)
            be = make(u)
            _ = be.unitary
            assert u.flags.writeable
            u[0, 0] = 5
            np.testing.assert_array_equal(be.unitary, np.kron(PAULI_X, PAULI_X))

    def test_validate_flags_non_unitary(self):
        be = BlockEncoding(np.diag([1.0, 2.0]), alpha=1.0, ancillas=0,
                           epsilon=0.0, system_qubits=1)
        assert not be.validate()
        assert trivial_encoding(PAULI_X).validate()


class TestDilation:
    def test_corner_is_leading_block_of_unitary(self):
        rng = np.random.default_rng(14)
        be = product(random_encoding(rng, 2, 1), random_encoding(rng, 2, 0))
        enc = hermitian_dilation(be)
        blk = extract_block(be)
        zero = np.zeros_like(blk)
        assert enc.kind == "dilation" and enc.children == (be,)
        assert (enc.alpha, enc.ancillas) == (be.alpha, be.ancillas)
        assert enc.system_qubits == be.system_qubits + 1
        np.testing.assert_array_equal(extract_block(enc),
                                      np.block([[zero, blk], [blk.conj().T, zero]]))
        mat = enc.unitary
        assert is_unitary(mat, 1e-10)
        np.testing.assert_allclose(mat[: enc.system_dim, : enc.system_dim],
                                   extract_block(enc), atol=1e-13)

    def test_epsilon_is_the_childs(self):
        # ||[[0, D], [D^dag, 0]]|| = ||D||, so the error does not double
        rng = np.random.default_rng(16)
        u = random_unitary(4, rng)
        be = BlockEncoding(u, alpha=2.0, ancillas=1, epsilon=0.25, system_qubits=1)
        dil = hermitian_dilation(be)
        assert dil.epsilon == 0.25
        d = 0.25 * (1 - 1e-9) * random_unitary(2, rng)  # a target at distance ~0.25
        m = 2.0 * extract_block(be) + d
        target = np.block([[np.zeros((2, 2)), m], [m.conj().T, np.zeros((2, 2))]])
        rep = verify(dil, target, tol=0)
        assert rep.passed and rep.distance_measured >= 0.25 - 1e-8
