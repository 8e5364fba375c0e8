import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from blocklab.applications import (
    LabeledDataset,
    class_correlation_encoding,
    paired_scatter_encoding,
    scatter_total_encoding,
    scatter_within_encoding,
)
from blocklab.block_encoding import (
    BlockEncoding,
    adjoint_encoding,
    difference_encoding,
    extract_block,
    gram_encoding,
    product,
    trivial_encoding,
    verify,
)
from blocklab.centering import build_uc, centering_encoding, similarity_encoding, similarity_root
from blocklab.data_encoding import hermitian_dilation, matrix_encoding
from blocklab.matrix_core import is_unitary
from blocklab.suite import NODE_KINDS, _composition_corpus

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

    @pytest.mark.parametrize("tol", [-1.0, np.nan])
    def test_negative_or_nan_tolerance_refused(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
            verify(trivial_encoding(np.eye(2)), np.eye(2), tol=tol)

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


def _difference_terms():
    rng = np.random.default_rng(17)
    return {
        "random-s1-a0": (random_encoding(rng, 1, 0), random_encoding(rng, 1, 0)),
        "random-s2-a1": (random_encoding(rng, 2, 1), random_encoding(rng, 2, 1)),
        "scaled-s1-a2": tuple(
            BlockEncoding(random_unitary(8, rng), alpha=3.0, ancillas=2, epsilon=eps,
                          system_qubits=1) for eps in (0.5, 0.25)),
        "gram-s2-a2": tuple(gram_encoding(random_encoding(rng, 2, 1)) for _ in range(2)),
        "identity-reflection": (trivial_encoding(np.eye(4)), trivial_encoding(build_uc(2))),
    }


class TestDifference:
    def test_centering_from_identity_and_reflection(self):
        # the paper's C = (I - U_c)/2
        n = 4
        be = difference_encoding(trivial_encoding(np.eye(n)), trivial_encoding(build_uc(2)))
        assert be.alpha == 1.0 and be.ancillas == 1
        c = np.eye(n) - np.full((n, n), 0.25)
        np.testing.assert_allclose(be.alpha * extract_block(be), c, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(_difference_terms()))
    def test_laws(self, name):
        a, b = _difference_terms()[name]
        be = difference_encoding(a, b)
        assert be.kind == "difference" and be.children == (a, b)
        assert (be.alpha, be.ancillas, be.system_qubits, be.dim) == (
            a.alpha, a.ancillas + 1, a.system_qubits, 2 * a.dim)
        assert be.epsilon == max(a.epsilon, b.epsilon)

    @pytest.mark.parametrize("name", sorted(_difference_terms()))
    def test_corner_is_a_slice_of_the_unitary(self, name):
        a, b = _difference_terms()[name]
        be = difference_encoding(a, b)
        np.testing.assert_allclose(extract_block(be), (extract_block(a) - extract_block(b)) / 2,
                                   rtol=0, atol=1e-14)
        s = be.system_dim
        np.testing.assert_allclose(be.unitary[:s, :s], extract_block(be), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(_difference_terms()))
    def test_matches_the_dense_select(self, name):
        """(P_L^dag (x) I) select (P_R (x) I) of the (1/2, -1/2) pair P_L = H, P_R = H X."""
        a, b = _difference_terms()[name]
        eye = np.eye(a.dim)
        select = scipy.linalg.block_diag(a.unitary, b.unitary)
        dense = np.kron(HADAMARD.conj().T, eye) @ select @ np.kron(HADAMARD @ PAULI_X, eye)
        np.testing.assert_allclose(difference_encoding(a, b).unitary, dense,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(_difference_terms()))
    def test_unitary(self, name):
        assert is_unitary(difference_encoding(*_difference_terms()[name]).unitary, 1e-10)

    @pytest.mark.parametrize("name", ["gram-s2-a2", "identity-reflection"])
    def test_hermitian_over_hermitian_children(self, name):
        a, b = _difference_terms()[name]
        for k in (a, b):
            np.testing.assert_array_equal(k.unitary, k.unitary.conj().T)
        u = difference_encoding(a, b).unitary
        np.testing.assert_array_equal(u, u.conj().T)

    def test_epsilon_bounds_the_error(self):
        # targets at distance eps_A and eps_B from alpha b_A and alpha b_B:
        # the difference is within (eps_A + eps_B)/2 <= max of (A - B)/2
        a, b = _difference_terms()["scaled-s1-a2"]
        rng = np.random.default_rng(18)
        w = random_unitary(2, rng) * (1 - 1e-9)
        target_a = a.alpha * extract_block(a) + a.epsilon * w
        target_b = b.alpha * extract_block(b) - b.epsilon * w
        rep = verify(difference_encoding(a, b), (target_a - target_b) / 2, tol=0)
        assert rep.passed and rep.distance_measured >= (a.epsilon + b.epsilon) / 2 - 1e-8

    def test_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        a = random_encoding(rng, 2, 1)
        scaled = BlockEncoding(random_unitary(8, rng), alpha=2.0, ancillas=1, epsilon=0.0,
                               system_qubits=2)
        with pytest.raises(ValueError, match="alpha"):
            difference_encoding(a, scaled)
        with pytest.raises(ValueError, match="ancilla"):
            difference_encoding(a, random_encoding(rng, 2, 2))
        with pytest.raises(ValueError, match="system"):
            difference_encoding(a, random_encoding(rng, 1, 2))


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

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_built_without_its_childs_unitary(self, kind, monkeypatch):
        """A Gram node reads its child's rows law: nothing under it is
        materialized, and G is the one built from the child's unitary."""
        references = []
        for child in _scatter_children(kind, 4):
            m = np.array(child.unitary[: child.system_dim])
            g = m.conj().T @ m
            references.append((g.conj().T + g) * 0.5)
        children = _scatter_children(kind, 4)

        def refuse(node):
            raise AssertionError(f"a {node.kind} node under a Gram node was materialized")

        stack = list(children)
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if hasattr(type(node), "_materialize"):
                monkeypatch.setattr(type(node), "_materialize", refuse)
        for child, expected in zip(children, references):
            u = gram_encoding(child).unitary
            np.testing.assert_array_equal(u[: child.dim, : child.dim], expected)

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


def corpus_nodes(max_dim):
    """Every distinct node of the battery's composition corpus, children
    included, of dimension at most ``max_dim``."""
    seen, nodes, stack = set(), [], list(_composition_corpus(42))
    while stack:
        be = stack.pop()
        if id(be) not in seen:
            seen.add(id(be))
            stack.extend(be.children)
            if be.dim <= max_dim:
                nodes.append(be)
    return nodes


def _scatter_children(kind, n):
    """The Gram children of the total, within-class and paired scatters, and
    of DCCA's two Gram nodes, on one draw."""
    rng = np.random.default_rng(25)
    draws = [rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n))
                                           if kind == "complex" else 0.0) for _ in range(2)]
    labels = np.arange(n) % 2
    ds_x, ds_y = (LabeledDataset(x, labels) for x in draws)
    grams = [scatter_total_encoding(draws[0]), scatter_within_encoding(ds_x),
             paired_scatter_encoding(*draws)]
    grams += class_correlation_encoding(ds_x, ds_y).children
    return [g.children[0] for g in grams]


class TestRowsAndColsLaws:
    """Each node's ancilla-zero rows and columns, by its closed form where it
    has one and by the slice of its dense unitary elsewhere."""

    def test_slices_of_the_unitary_over_the_corpus(self):
        nodes = corpus_nodes(256)
        assert len(nodes) >= 500 and {be.kind for be in nodes} == NODE_KINDS
        for be in nodes:
            s = be.system_dim
            rows, cols = be._rows(), be._cols()
            assert rows.shape == (s, be.dim) and cols.shape == (be.dim, s)
            np.testing.assert_allclose(rows, be.unitary[:s], rtol=0, atol=1e-14)
            np.testing.assert_allclose(cols, be.unitary[:, :s], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_bit_equal_for_the_scatter_children(self, kind, n):
        """A scatter's Gram node reads the same M as the slice of its child's
        unitary, bit for bit, so its walk keeps its bits."""
        for child in _scatter_children(kind, n):
            s = child.system_dim
            rows, cols = child._rows(), child._cols()
            assert rows.tobytes() == child.unitary[:s].tobytes()
            assert cols.tobytes() == np.ascontiguousarray(child.unitary[:, :s]).tobytes()


class TestHermitianLaw:
    """``hermitian`` says, by each node's law, that its unitary is Hermitian."""

    def test_by_kind(self):
        rng = np.random.default_rng(23)
        herm = trivial_encoding(PAULI_Z)
        phase = trivial_encoding(np.diag([1.0, 1j]))
        skew = random_encoding(rng, 1, 1)
        assert herm.hermitian and trivial_encoding(HADAMARD).hermitian
        assert not phase.hermitian and not skew.hermitian
        assert gram_encoding(skew).hermitian and hermitian_dilation(skew).hermitian
        assert not product(herm, herm).hermitian  # Z Z = I, but a product never is
        assert difference_encoding(herm, trivial_encoding(PAULI_X)).hermitian
        assert not difference_encoding(herm, phase).hermitian
        assert adjoint_encoding(herm).hermitian and not adjoint_encoding(skew).hermitian
        assert not matrix_encoding(np.eye(2)).hermitian

    def test_read_without_materializing(self):
        rng = np.random.default_rng(24)
        leaf = matrix_encoding(rng.standard_normal((2, 2)))
        tree = gram_encoding(difference_encoding(product(leaf, leaf),
                                                 product(adjoint_encoding(leaf), leaf)))
        assert tree.hermitian and not tree.children[0].hermitian
        assert tree._cache is None and leaf._cache is None

    def test_read_only(self):
        be = gram_encoding(trivial_encoding(PAULI_X))
        for node in (be, be.children[0]):
            with pytest.raises(AttributeError):
                node.hermitian = False

    def test_sound_over_the_composition_corpus(self):
        """True implies an exactly Hermitian unitary; the law may say False
        of a unitary that happens to be Hermitian."""
        nodes = corpus_nodes(256)
        flagged = [be for be in nodes if be.hermitian]
        assert len(nodes) >= 500 and len(flagged) >= 100
        for be in flagged:
            np.testing.assert_array_equal(be.unitary, be.unitary.conj().T)

    @pytest.mark.parametrize("classes, dim", [
        (1, None), (3, None), (8, None), (5, 16),
        (np.array([0, 1, 0, -1]), None),
        (np.array([2, -1, 0, 0, 1, 1, -1, 2]), None),
        (np.array([0, 1, 1]), 8),
        (np.repeat([0, 1, 2], [1, 3, 4]), 16),
    ])
    def test_class_leaves_are_symmetric_by_their_law(self, classes, dim):
        """Every centering, similarity and root leaf declares the law, and
        its unitary [[A, S], [S, -A]] equals its transpose exactly."""
        for build in (centering_encoding, similarity_encoding, similarity_root):
            be = build(classes, dim)
            assert be.kind == "leaf" and not be.children and be.hermitian is True
            np.testing.assert_array_equal(be.unitary, be.unitary.T)
            assert not be.unitary.imag.any()

    def test_class_leaf_law_reads_nothing(self):
        """The law is declared, not computed: reading it on a 512-dimensional
        leaf allocates no copy of the unitary."""
        be = similarity_encoding(np.repeat([0, 1, -1], [100, 120, 36]))
        tracemalloc.start()
        try:
            assert be.hermitian
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < be.unitary.nbytes // 64


class _ComplexDraws:
    """A generator whose standard normal draws are complex."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)


class TestDtypeRule:
    """Every node is float64 when every leaf below it is real, and complex128
    as soon as one is complex."""

    @pytest.mark.parametrize("draw", ["real", "complex"])
    def test_composition_corpus(self, draw, monkeypatch):
        from blocklab import suite

        if draw == "complex":
            rng = suite._rng
            monkeypatch.setattr(suite, "_rng", lambda seed, salt: _ComplexDraws(rng(seed, salt)))
        nodes = {}
        stack = list(suite._composition_corpus(42))
        while stack:
            be = stack.pop()
            if id(be) not in nodes:
                nodes[id(be)] = be
                stack.extend(be.children)
        counts = {np.float64: 0, np.complex128: 0}
        verdict = {}

        def is_complex(be):
            if id(be) not in verdict:
                verdict[id(be)] = (any(is_complex(c) for c in be.children) if be.children
                                   else bool(np.imag(be.unitary).any()))
            return verdict[id(be)]

        for be in nodes.values():
            want = np.complex128 if is_complex(be) else np.float64
            assert be.dtype == want
            assert be.extract_block().dtype == want
            assert be.unitary.dtype == want
            counts[want] += 1
            if draw == "complex" and not be.children and want is np.float64:
                assert type(be).__name__ == "_ClassLeaf"  # every data leaf is complex
        assert counts[np.float64] >= 100 and counts[np.complex128] >= 300

    def test_class_leaf_times_complex_data_leaf(self):
        rng = np.random.default_rng(31)
        c = centering_encoding(4)
        x = matrix_encoding(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        c_complex = BlockEncoding(c.unitary.astype(complex), c.alpha, c.ancillas, c.epsilon,
                                  c.system_qubits)
        assert c.dtype == np.float64 and x.dtype == np.complex128
        for be, same in ((product(c, x), product(c_complex, x)),
                         (product(x, c), product(x, c_complex))):
            assert be.dtype == be.unitary.dtype == be.extract_block().dtype == np.complex128
            assert be.unitary.tobytes() == same.unitary.tobytes()
            assert be.extract_block().tobytes() == same.extract_block().tobytes()

    def test_real_identity_and_complex_reflection(self):
        eye = trivial_encoding(np.eye(2))
        pauli_y = trivial_encoding(np.array([[0.0, -1j], [1j, 0.0]]))
        assert eye.dtype == np.float64 and pauli_y.dtype == np.complex128
        for a, b in ((eye, pauli_y), (pauli_y, eye)):
            be = difference_encoding(a, b)
            assert be.dtype == np.complex128
            ua, ub = a.unitary, b.unitary
            np.testing.assert_array_equal(
                be.unitary, 0.5 * np.block([[ua - ub, ua + ub], [ua + ub, ua - ub]]))
            assert be.hermitian and be.validate()


class TestCallerArraysNotKept:
    """An encoding or dataset holds its own copy of a float64 input, which the
    dtype rule no longer converts (and so no longer copies) on validation."""

    def test_block_encoding_and_trivial_encoding(self):
        for build in (lambda u: BlockEncoding(u, 1.0, 0, 0.0, 1), trivial_encoding):
            u = np.array([[0.0, 1.0], [1.0, 0.0]])
            be = build(u)
            u[:] = 7.0
            np.testing.assert_array_equal(be.unitary, [[0.0, 1.0], [1.0, 0.0]])

    def test_matrix_encoding(self):
        x = np.random.default_rng(32).standard_normal((4, 4))
        want = matrix_encoding(x.copy())
        be = matrix_encoding(x)
        x[:] = 0.0
        assert be.unitary.tobytes() == want.unitary.tobytes()
        assert be.extract_block().tobytes() == want.extract_block().tobytes()
        assert (be.alpha, be.epsilon) == (want.alpha, want.epsilon)

    def test_labeled_dataset(self):
        from blocklab.applications import LabeledDataset

        x = np.arange(8.0).reshape(2, 4)
        labels = np.array([0, 1, 0, 1])
        ds = LabeledDataset(x, labels)
        x[:] = -1.0
        labels[:] = 5
        np.testing.assert_array_equal(ds.x, np.arange(8.0).reshape(2, 4))
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])
        assert ds.x.dtype == np.float64


def measured_defect(u):
    """||U^dag U - I||_2 of a dense U, from its Hermitian Gram."""
    g = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.abs(np.linalg.eigvalsh((g + g.conj().T) / 2.0)).max())


class TestDefectLaw:
    """Each node's declared defect bounds the measured ||U^dag U - I||_2 of
    the unitary it computes, and is read lazily."""

    def test_declared_bounds_measured_over_the_corpus(self):
        nodes = corpus_nodes(256)
        assert len(nodes) >= 400 and {be.kind for be in nodes} >= set(NODE_KINDS)
        for be in nodes:
            assert measured_defect(be.unitary) <= be.defect <= 1e-10, be.kind

    def test_caller_leaf_measured_on_first_read_and_kept(self, monkeypatch):
        u = scipy.linalg.block_diag(1.0, -1.0, 1.0, -1.0)
        leaf = trivial_encoding(u)
        node = gram_encoding(product(leaf, leaf))
        assert leaf._measured is None  # nothing measured at construction
        first = node.defect
        assert leaf._measured == 4 * np.finfo(float).eps / 2
        monkeypatch.setattr(np, "eye", None)  # a second measurement would fail
        assert node.defect == first
