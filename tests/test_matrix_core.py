import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from blocklab import matrix_core
from blocklab.applications import scatter_total_encoding
from blocklab.centering import centering_encoding
from blocklab.data_encoding import hermitian_dilation, matrix_encoding
from blocklab.matrix_core import (
    UNITARY_TOL,
    CapExceededError,
    as_matrix,
    embed_power_of_two,
    ensure_dimension,
    format_complex,
    householder_completions,
    householder_terms,
    is_unitary,
    is_unitary_matrix,
    kron,
    parse_complex_token,
    read_matrix_csv,
    read_vector_csv,
    spectral_norm,
    unitary_completion,
    write_matrix_csv,
)
from blocklab.mean_centering import CenteringMode, mc_encoding
from blocklab.spectral import walk_operator
from blocklab.suite import _composition_corpus

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def kron_oracle(a, b):
    """Direct nested-loop Kronecker product."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i * b.shape[0]:(i + 1) * b.shape[0],
                j * b.shape[1]:(j + 1) * b.shape[1]] = a[i, j] * b
    return out


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_permutation_structure(self):
        swap_blocks = kron(PAULI_X, np.eye(2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
        np.testing.assert_array_equal(swap_blocks, expected)

    def test_random_against_nested_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(kron(a, b), kron_oracle(a, b), atol=1e-15)

    def test_associative_exact_for_power_of_two_entries(self):
        rng = np.random.default_rng(1)
        mats = [2.0 ** rng.integers(-3, 4, size=(2, 2)) for _ in range(3)]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        np.testing.assert_array_equal(left, right)

    def test_associative_random(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((2, 2)) for _ in range(3)]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        np.testing.assert_allclose(left, right, atol=1e-15)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "3")
        with pytest.raises(CapExceededError):
            kron(np.eye(4), np.eye(4))


def test_ensure_dimension_reads_the_cap_once(monkeypatch):
    reads = []
    monkeypatch.setattr(matrix_core, "cap_qubits", lambda: reads.append(1) or 3)
    with pytest.raises(CapExceededError, match=r"^dimension 16 exceeds the simulator cap 2\*\*3 = 8$"):
        ensure_dimension(16)
    assert len(reads) == 1


class TestAsComplexMatrix:
    @pytest.mark.parametrize("bad", [complex(1.0, np.inf), complex(np.nan, 0.0),
                                     complex(-np.inf, np.nan)])
    def test_non_finite_part_rejected(self, bad):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_matrix(m)

    def test_finite_complex_accepted(self):
        m = np.array([[1e308 + 1e308j, -0.0], [1j, 2.0]])
        np.testing.assert_array_equal(as_matrix(m), m)


class TestDtypeRule:
    """float64 when the data is real, complex128 when its dtype is complex."""

    @pytest.mark.parametrize("data, dtype", [
        (np.eye(2, dtype=int), np.float64), (np.eye(2, dtype=bool), np.float64),
        (np.eye(2, dtype=np.float32), np.float64), ([[1.0, 2.0]], np.float64),
        (np.eye(2, dtype=np.complex64), np.complex128), ([[1.0, 2j]], np.complex128),
        (np.eye(2, dtype=complex), np.complex128),  # complex stays complex, imaginary part 0 or not
    ], ids=["int", "bool", "float32", "list", "complex64", "complex-list", "real-valued-complex"])
    def test_dtype(self, data, dtype):
        assert as_matrix(data).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_validated_array_is_not_copied(self, dtype):
        m = np.eye(4, dtype=dtype)
        assert as_matrix(m) is m

    def test_non_finite_real_rejected(self):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_matrix(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_embedding_and_kron_keep_the_dtype(self, dtype):
        a = np.arange(6.0).reshape(2, 3).astype(dtype)
        assert embed_power_of_two(a).dtype == dtype
        assert kron(a, np.eye(2)).dtype == dtype
        assert kron(np.eye(2), a).dtype == dtype


class TestEmbed:
    def test_three_by_three(self):
        a = np.arange(9.0).reshape(3, 3)
        out = embed_power_of_two(a)
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out[:3, :3], a)
        assert np.all(out[3, :] == 0) and np.all(out[:, 3] == 0)

    def test_power_of_two_unchanged(self):
        a = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(embed_power_of_two(a), a)

    def test_rectangular(self):
        a = np.arange(6.0).reshape(3, 2)
        out = embed_power_of_two(a)
        assert out.shape == (4, 4)
        for i in range(4):
            for j in range(4):
                expected = a[i, j] if i < 3 and j < 2 else 0.0
                assert out[i, j] == expected

    def test_explicit_dim(self):
        a = np.arange(6.0).reshape(2, 3)
        out = embed_power_of_two(a, 8)
        assert out.shape == (8, 8)
        np.testing.assert_array_equal(out[:2, :3], a)
        assert np.count_nonzero(out) == np.count_nonzero(a)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (5, 5)])
    def test_dim_smaller_than_matrix_raises(self, shape):
        with pytest.raises(ValueError, match="smaller"):
            embed_power_of_two(np.ones(shape), 4)

    def test_already_dim_square_unchanged(self):
        a = np.random.default_rng(3).standard_normal((8, 8))
        np.testing.assert_array_equal(embed_power_of_two(a, 8), a)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        assert np.isclose(spectral_norm(embed_power_of_two(a)), spectral_norm(a))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4), 1e-12)

    def test_hadamard(self):
        assert is_unitary(HADAMARD, 1e-12)

    def test_non_isometry(self):
        assert not is_unitary(np.diag([1.0, 2.0]), 1e-6)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                     complex(0.0, np.nan), complex(1.0, np.inf)])
    def test_non_finite_is_not_unitary(self, bad):
        # is_unitary_matrix runs no finiteness pass; the Gram must carry it
        u = np.eye(2, dtype=complex)
        u[1, 1] = bad
        with np.errstate(invalid="ignore"):  # inf * 0 in the Gram product
            assert is_unitary_matrix(u) is False

    # d >= 64, so the Gram product runs in the BLAS kernels.  Row 0 of Q is
    # e_0, so adding delta at (0, 1) moves Q^T Q by exactly delta at (0, 1)
    # and (1, 0), and by delta^2 at (1, 1).
    Q = scipy.linalg.block_diag(
        1.0, scipy.stats.ortho_group.rvs(63, random_state=np.random.default_rng(3)))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_real_orthogonal_passes(self, dtype):
        assert is_unitary(self.Q.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("delta, verdict", [(2e-10, False), (5e-11, True)])
    def test_real_defect_against_tolerance(self, dtype, delta, verdict):
        q = self.Q.astype(dtype)
        q[0, 1] += delta
        assert is_unitary(q) is verdict

    def test_imaginary_defect_is_not_dropped(self):
        q = self.Q.astype(complex)
        q[0, 1] += 1e-9j
        assert not is_unitary(q)

    def test_complex_unitary_passes(self):
        assert is_unitary(np.diag(np.exp(1e-6j * np.arange(64))))

    def test_float64_check_reads_in_place(self):
        """A float64 U is checked in place: beyond U, only the float64 Gram."""
        d = 1024
        v = np.random.default_rng(5).standard_normal(d)
        u = np.eye(d) - (2.0 / (v @ v)) * np.outer(v, v)
        tracemalloc.start()
        try:
            ok = is_unitary(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak <= 8 * d * d + (1 << 20)

    def test_real_check_peak_memory(self):
        """Beyond U, a real check holds only Re U and the float64 Gram."""
        d = 1024
        v = np.random.default_rng(5).standard_normal(d)
        u = (np.eye(d) - (2.0 / (v @ v)) * np.outer(v, v)).astype(complex)
        tracemalloc.start()
        try:
            ok = is_unitary(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak <= 16 * d * d + (1 << 20)


def dense_defect(u):
    """max|U^dag U - I| from one dense Gram product: the reference."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def split_defect(u):
    """The same maximum over the blocks ``_direct_sum_blocks`` splits U into."""
    blocks = matrix_core._direct_sum_blocks(u)
    return max(map(split_defect, blocks)) if blocks is not None else dense_defect(u)


def checked_walks():
    """The walk of every node of criterion 4's composition corpus that is
    Hermitian by its law (up to dimension 1,024), the four walks of the
    benchmark's walk_dense workload and the walks of three dilations of
    complex encodings."""
    seen, nodes, stack = set(), [], list(_composition_corpus(42))
    while stack:
        be = stack.pop()
        if id(be) not in seen:
            seen.add(id(be))
            stack.extend(be.children)
            if be.hermitian and be.dim <= 1024:
                nodes.append(be)
    rng = np.random.default_rng(21)
    x8, x4, xm = (rng.standard_normal((n, n)) for n in (8, 4, 8))
    nodes += [scatter_total_encoding(x8), scatter_total_encoding(x4),
              hermitian_dilation(mc_encoding(xm, CenteringMode.CXC)), centering_encoding(16)]
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    nodes += [hermitian_dilation(be) for be in (
        matrix_encoding(z), mc_encoding(z, CenteringMode.XC), mc_encoding(z, CenteringMode.CXC))]
    return tuple(walk_operator(be) for be in nodes)


def direct_sum(q1, q2, bit, anti):
    """q1 on the rows whose ``bit`` is 0 and q2 on the others, on the columns
    with that bit flipped when ``anti``, else kept."""
    h = q1.shape[0]
    q = 1 << bit
    p = h // q
    out = np.zeros((p, 2, q, p, 2, q), dtype=np.result_type(q1, q2))
    out[:, 0, :, :, int(anti), :] = q1.reshape(p, q, p, q)
    out[:, 1, :, :, 1 - int(anti), :] = q2.reshape(p, q, p, q)
    return out.reshape(2 * h, 2 * h)


def random_pair(dtype, h=128, seed=6):
    group = scipy.stats.ortho_group if dtype is float else scipy.stats.unitary_group
    rng = np.random.default_rng(seed)
    return [group.rvs(h, random_state=rng) for _ in range(2)]


class TestDirectSumSplit:
    """A U that is block diagonal or block anti-diagonal on one qubit is
    checked as its two blocks, with the dense Gram's verdict."""

    @pytest.mark.parametrize("split_min", [matrix_core._SPLIT_MIN_DIM, 2])
    def test_verdict_and_maximum_match_the_dense_gram(self, monkeypatch, split_min):
        monkeypatch.setattr(matrix_core, "_SPLIT_MIN_DIM", split_min)
        walks = checked_walks()
        split = 0
        for w in walks:
            assert is_unitary_matrix(w) is (dense_defect(w) <= UNITARY_TOL) is True
            assert abs(split_defect(w) - dense_defect(w)) <= 1e-14
            split += matrix_core._direct_sum_blocks(w) is not None
        assert len(walks) >= 200 and split >= (8 if split_min > 2 else 100), split
        assert matrix_core._direct_sum_blocks(walks[-5]) is not None  # walk_dense's dilation

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bit", [0, 3, 7])
    @pytest.mark.parametrize("anti", [True, False])
    @pytest.mark.parametrize("factor, verdict", [(1 + 1e-3, False), (1 - 1e-3, True)])
    def test_block_scaled_to_the_tolerance(self, dtype, bit, anti, factor, verdict):
        q1, q2 = random_pair(dtype)
        scale = np.sqrt(1.0 + factor * UNITARY_TOL)  # (scale^2 - 1) = factor * tol
        u = direct_sum(q1, scale * q2, bit, anti)
        assert matrix_core._direct_sum_blocks(u) is not None
        assert (dense_defect(u) <= UNITARY_TOL) is verdict
        assert is_unitary_matrix(u) is verdict

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("block", [0, 1])
    def test_perturbed_block_refused(self, dtype, block):
        pair = random_pair(dtype)
        pair[block][5, 7] += 1e-9
        u = direct_sum(*pair, 3, True)
        assert matrix_core._direct_sum_blocks(u) is not None
        assert not is_unitary_matrix(u) and dense_defect(u) > UNITARY_TOL

    @pytest.mark.parametrize("value, verdict", [(1e-300, True), (1e-6, False)])
    def test_nonzero_in_a_zero_quarter_falls_back(self, value, verdict):
        u = direct_sum(*random_pair(float), 3, True)
        u[-1, -1] = value  # row and column both have bit 3 set: a zero quarter
        assert matrix_core._direct_sum_blocks(u) is None
        assert is_unitary_matrix(u) is verdict is (dense_defect(u) <= UNITARY_TOL)

    @pytest.mark.parametrize("where", ["block", "zero quarter"])
    def test_nan_refused(self, where):
        u = direct_sum(*random_pair(float), 3, False)
        u[-1, -1 if where == "block" else 0] = np.nan
        with np.errstate(invalid="ignore"):
            assert is_unitary_matrix(u) is False

    def test_nested_dilation_split_twice(self, monkeypatch):
        x = np.random.default_rng(7).standard_normal((8, 8))
        w = walk_operator(hermitian_dilation(hermitian_dilation(matrix_encoding(x))))
        calls = []
        split = matrix_core._direct_sum_blocks

        def spy(u):
            blocks = split(u)
            calls.append((u.shape[0], blocks is not None))
            return blocks

        monkeypatch.setattr(matrix_core, "_direct_sum_blocks", spy)
        assert w.shape == (256, 256) and is_unitary_matrix(w)
        assert sorted(calls) == [(64, False)] * 4 + [(128, True)] * 2 + [(256, True)]


class TestUnitaryCompletion:
    def test_first_basis_vector_gives_identity(self):
        out = unitary_completion(np.array([1.0, 0.0]), 2)
        np.testing.assert_array_equal(out, np.eye(2))

    def test_hadamard_column(self):
        out = unitary_completion(np.array([1.0, 1.0]) / np.sqrt(2), 2)
        np.testing.assert_allclose(out, HADAMARD, atol=1e-15)
        gram = out.conj().T @ out
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_random_partial_is_unitary(self):
        rng = np.random.default_rng(4)
        for dim in (8, 16, 32):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            col = z / np.linalg.norm(z)
            out = unitary_completion(col, dim)
            assert is_unitary(out, 1e-10)
            np.testing.assert_array_equal(out[:, 0], col)

    @pytest.mark.parametrize("col", [
        np.array([0.0, 0.6, 0.0, 0.8j]),  # zero first entry: phi = 1
        np.array([1.0, 2e-9, -1e-9j, 3e-9]),  # near e_0, unit to round-off
    ], ids=["zero-first-entry", "near-first-basis-vector"])
    def test_structured_column(self, col):
        out = unitary_completion(col, 4)
        assert is_unitary(out, 1e-10)
        np.testing.assert_array_equal(out[:, 0], col)

    def test_phased_first_basis_vector(self):
        # v = e^{i theta} e_0 leaves w = 0: the completion is e^{i theta} I
        phase = np.exp(0.7j)
        col = np.zeros(8, dtype=complex)
        col[0] = phase
        out = unitary_completion(col, 8)
        assert is_unitary(out, 1e-10)
        np.testing.assert_array_equal(out[:, 0], col)
        np.testing.assert_allclose(out, phase * np.eye(8), atol=1e-15)

    def test_deterministic(self):
        col = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        a = unitary_completion(col, 4)
        b = unitary_completion(col, 4)
        np.testing.assert_array_equal(a, b)

    def test_non_orthonormal_raises(self):
        with pytest.raises(ValueError, match="unit vector"):
            unitary_completion(np.array([1.0, 1.0]), 2)

    def test_wrong_length_column_raises(self):
        with pytest.raises(ValueError, match="wrong dimension"):
            unitary_completion(np.array([1.0, 0.0, 0.0]), 2)


class TestBatchedHouseholder:
    @staticmethod
    def _stack(rng, k, dim):
        z = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
        z[0, 0] = 0.0  # phi = 1
        z[1, 1:] = 0.0  # w = 0: the completion is phi I
        z[2, 1:] *= 1e-170  # the tail underflows to zero
        z[3] *= 1e-150
        z[4] *= 1e150
        return z / np.sqrt(np.sum(np.abs(z) ** 2, axis=1))[:, None]

    @staticmethod
    def _scalar_terms(v):
        """(phi, head, scale) of one column in scalar arithmetic, the reference."""
        phi = v[0] / abs(v[0]) if v[0] != 0 else 1.0
        tail = np.vdot(v[1:], v[1:]).real
        head = tail / (1.0 + abs(v[0]))
        norm2 = head * head + tail
        return np.complex128(phi), head, np.complex128(2.0 * phi / norm2 if norm2 > 0.0 else 0.0)

    @pytest.mark.parametrize("dim", [2, 4, 16, 32])
    def test_stack_matches_one_row_calls(self, dim):
        cols = self._stack(np.random.default_rng(dim), 9, dim)
        batch = householder_terms(cols, dim)
        completions = householder_completions(batch)
        for i, col in enumerate(cols):
            one = householder_terms(col[None, :], dim)
            for got, want in zip(batch, one):
                assert got[i].tobytes() == want[0].tobytes()
            for got, want in zip(batch[1:], self._scalar_terms(col)):
                assert got[i].tobytes() == want.tobytes()
            assert completions[i].tobytes() == unitary_completion(col, dim).tobytes()
            assert is_unitary(completions[i], 1e-10)

    @pytest.mark.parametrize("bad, message", [
        (np.ones((2, 3)), "wrong dimension"), (np.ones(4), "wrong dimension"),
        (np.array([[1.0, 0.0], [1.0, 1.0]]), "not a unit vector"),
    ], ids=["long-rows", "one-dimensional", "one-bad-row"])
    def test_stack_checked_as_each_column(self, bad, message):
        with pytest.raises(ValueError, match=message):
            householder_terms(bad, 2)


class TestCsv:
    def test_roundtrip_real_and_complex(self, tmp_path):
        m = np.array([[1.5, 2 + 3j], [0.0, -1 - 0.25j]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        np.testing.assert_array_equal(read_matrix_csv(path), m)

    def test_ragged_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_matrix_csv(path)

    def test_bad_token_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,foo\n")
        with pytest.raises(ValueError, match="cannot parse"):
            read_matrix_csv(path)

    def test_vector(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        np.testing.assert_array_equal(read_vector_csv(path), [1.0, 2.0, 3.0])

    @staticmethod
    def _per_token(path):
        """The token-by-token reader: every entry through parse_complex_token."""
        rows = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if line.strip():
                try:
                    rows.append([parse_complex_token(t) for t in line.strip().split(",")])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if len({len(r) for r in rows}) > 1:
            raise ValueError(f"{path}: ragged rows; all rows must have {len(rows[0])} entries")
        return as_matrix(np.array(rows, dtype=complex))

    # one token per case, read as the 2 x 2 matrix [[1, token], [-1, 3]]
    TOKENS = [" 2 ", "-0.0", "1e-3", "1_0", "nan", "1+2j", "1 + 2j", "", "abc", "1 0",
              "(4)", "1-0j", "inf", "١"]

    @pytest.mark.parametrize("token", TOKENS)
    def test_token_corpus_matches_the_per_token_reader(self, tmp_path, token):
        """Values bit for bit and error messages exactly as the token-by-token
        reader gives them; the matrix is float64 when every entry is real."""
        path = tmp_path / "m.csv"
        path.write_text(f"1,{token}\n\n-1,3\n")
        try:
            want = self._per_token(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_matrix_csv(path)
            assert str(got.value) == str(exc)
            return
        got = read_matrix_csv(path)
        real = not want.imag.any()
        assert got.dtype == (np.float64 if real else np.complex128)
        assert got.tobytes() == (np.ascontiguousarray(want.real) if real else want).tobytes()

    @pytest.mark.parametrize("text", ["1,2\n3\n", "1,2\n3,4,5\n", "1\n2+1j,3\n", "1,,2\n"])
    def test_ragged_and_empty_match_the_per_token_reader(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as want:
            self._per_token(path)
        with pytest.raises(ValueError) as got:
            read_matrix_csv(path)
        assert str(got.value) == str(want.value)

    def test_real_file_reads_float64(self, tmp_path):
        m = np.random.default_rng(7).standard_normal((5, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        got = read_matrix_csv(path)
        assert got.dtype == np.float64 and got.tobytes() == m.tobytes()

    def test_tokens(self):
        assert parse_complex_token("1+2j") == 1 + 2j
        assert parse_complex_token(" -3.5 ") == -3.5
        assert format_complex(1 - 0.25j) == "1.0-0.25j"
        assert format_complex(2.0) == "2.0"
