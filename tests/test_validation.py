"""One validation per public entry: every entry refuses bad input with the
same exception and message, the lean forms of its arithmetic equal numpy's
own bit for bit, and the size cap is read on every call, cached leaf or not.
"""

import numpy as np
import pytest

from blocklab import matrix_core
from blocklab.centering import centering_encoding
from blocklab.data_encoding import (
    build_norm_tree,
    matrix_encoding,
    preparation_unitaries,
)
from blocklab.matrix_core import CapExceededError, spectral_norm
from blocklab.mean_centering import CenteringMode, classical_center, mc_encoding, mean_vectors


def _with(value, index, dtype=float):
    x = np.ones((4, 4), dtype=dtype)
    x[index] = value
    return x


FINITE = "matrix entries must be finite"
BAD_INPUTS = {
    "nan": (_with(np.nan, (1, 2)), FINITE),
    "inf": (_with(-np.inf, (0, 3)), FINITE),
    "complex-nan": (_with(complex(0.0, np.nan), (2, 2), complex), FINITE),
    "complex-inf": (_with(complex(np.inf, 1.0), (3, 0), complex), FINITE),
    "empty": (np.zeros((0, 4)), "matrix must be non-empty"),
    "empty-square": (np.zeros((0, 0)), "matrix must be non-empty"),
    "1-D": (np.ones(4), "expected a 2-D matrix, got ndim=1"),
    "3-D": (np.ones((2, 2, 2)), "expected a 2-D matrix, got ndim=3"),
}
ENTRIES = {
    "matrix_encoding": matrix_encoding,
    "build_norm_tree": build_norm_tree,
    "preparation_unitaries": preparation_unitaries,
    "mc_encoding-cx": lambda x: mc_encoding(x, CenteringMode.CX),
    "mc_encoding-xc": lambda x: mc_encoding(x, CenteringMode.XC),
    "mc_encoding-cxc": lambda x: mc_encoding(x, CenteringMode.CXC),
    "classical_center": lambda x: classical_center(x, CenteringMode.CXC),
    "mean_vectors": mean_vectors,
    "spectral_norm": spectral_norm,
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_refused_with_the_same_message(entry, case):
    x, message = BAD_INPUTS[case]
    with pytest.raises(ValueError) as err:
        ENTRIES[entry](x)
    assert str(err.value) == message


@pytest.mark.parametrize("entry", ["matrix_encoding", "build_norm_tree", "preparation_unitaries",
                                   "mc_encoding-cx", "mc_encoding-xc", "mc_encoding-cxc"])
def test_zero_matrix_refused_after_validation(entry):
    with pytest.raises(ValueError, match="^matrix has Frobenius norm zero; nothing to encode$"):
        ENTRIES[entry](np.zeros((4, 4)))


@pytest.mark.parametrize("entry", ["matrix_encoding", "preparation_unitaries"])
@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (1, 1)])
def test_leaf_shape_refused_after_the_norm_tree(entry, shape):
    with pytest.raises(ValueError, match="^preparation requires a square power-of-two"):
        ENTRIES[entry](np.ones(shape))


def _identity_corpus():
    """Real and complex data of shapes 1 x k, k x 1, odd and power-of-two,
    with signed zeros and entries near both ends of the float range."""
    rng = np.random.default_rng(2024)
    shapes = [(1, 1), (1, 5), (1, 8), (5, 1), (8, 1), (3, 3), (3, 7), (7, 5), (8, 8), (16, 16)]
    cases = []
    for rows, cols in shapes:
        real = rng.standard_normal((rows, cols))
        cases.append((f"real-{rows}x{cols}", real))
        cases.append((f"complex-{rows}x{cols}", real + 1j * rng.standard_normal((rows, cols))))
    signed = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -2.5]])
    cases.append(("signed-zeros", signed))
    cases.append(("signed-zeros-complex", signed + 1j * signed[::-1]))
    cases.append(("all-negative-zero", np.full((3, 2), -0.0)))
    for scale in (1e-300, 5e-324, 1e300, 1e154):
        cases.append((f"scale-{scale:g}", scale * rng.standard_normal((5, 4))))
        cases.append((f"scale-{scale:g}-complex",
                      scale * (rng.standard_normal((4, 5)) - 1j * rng.standard_normal((4, 5)))))
    mixed = rng.standard_normal((6, 6)) * np.logspace(-300, 300, 6)[:, None]
    cases.append(("mixed-magnitudes", mixed))
    return cases


IDENTITY = _identity_corpus()


@pytest.mark.parametrize("x", [x for _, x in IDENTITY], ids=[name for name, _ in IDENTITY])
def test_spectral_norm_is_numpy_two_norm_bit_for_bit(x):
    expected = float(np.linalg.norm(x, 2))
    got = spectral_norm(x)
    assert type(got) is float
    assert np.array_equal(np.float64(got), np.float64(expected), equal_nan=True)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("x", [x for _, x in IDENTITY], ids=[name for name, _ in IDENTITY])
def test_mean_vectors_is_the_numpy_mean_triple_bit_for_bit(x):
    u, v, xbar = mean_vectors(x)
    assert _same_bits(u, x.mean(axis=0))
    assert _same_bits(v, x.mean(axis=1))
    expected = complex(x.mean())
    if expected.imag == 0.0:
        expected = expected.real
    assert type(xbar) is type(expected)
    assert _same_bits(np.asarray(xbar), np.asarray(expected))


@pytest.mark.parametrize("x", [x for _, x in IDENTITY], ids=[name for name, _ in IDENTITY])
def test_classical_center_uses_the_same_means(x):
    u, v, xbar = x.mean(axis=0), x.mean(axis=1), complex(x.mean())
    xbar = xbar.real if xbar.imag == 0.0 else xbar
    expected = x - u[np.newaxis, :] - v[:, np.newaxis] + xbar
    assert _same_bits(classical_center(x, CenteringMode.CXC), expected)


def test_centered_leaf_keeps_its_own_copy():
    x = np.random.default_rng(12).standard_normal((4, 4))
    kept = x.copy()
    be = mc_encoding(x, CenteringMode.CXC)
    block = be.alpha * be.extract_block()
    x[:] = 0.0
    assert _same_bits(be.alpha * be.extract_block(), block)
    assert np.max(np.abs(block - classical_center(kept, CenteringMode.CXC))) <= 1e-12


class TestCenteringEncodingChecks:
    @pytest.mark.parametrize("n", [0, -1, np.int64(0)])
    def test_no_sample_refused(self, n):
        with pytest.raises(ValueError, match="^a class layout needs at least one sample$"):
            centering_encoding(n)

    @pytest.mark.parametrize("n, dim", [(3, 6), (3, 3), (5, 4), (1, 1), (2, 12)])
    def test_register_not_a_power_of_two_holding_the_samples(self, n, dim):
        with pytest.raises(ValueError, match="^the slot register must be a power of two >= 2 "
                                             "holding every sample$"):
            centering_encoding(n, dim)

    def test_cap_refusal_at_the_register(self, monkeypatch):
        # dim = 32 is over 2**3, and is named before 2 dim is ever checked
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "3")
        with pytest.raises(CapExceededError,
                           match=r"^dimension 32 exceeds the simulator cap 2\*\*3 = 8$"):
            centering_encoding(17)

    def test_cap_refusal_at_the_leaf(self, monkeypatch):
        # dim = 8 passes, the 16-dimensional leaf does not
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "3")
        with pytest.raises(CapExceededError,
                           match=r"^dimension 16 exceeds the simulator cap 2\*\*3 = 8$"):
            centering_encoding(5, 8)
        assert centering_encoding(3).dim == 8

    def test_one_read_of_the_cap_per_call(self, monkeypatch):
        centering_encoding(6)
        reads = []
        monkeypatch.setattr(matrix_core, "cap_qubits", lambda: reads.append(1) or 14)
        centering_encoding(6)
        assert len(reads) == 1

    def test_unreadable_cap_refused(self, monkeypatch):
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "x")
        with pytest.raises(ValueError, match="^BLOCKLAB_CAP_QUBITS must be an integer"):
            centering_encoding(2)

    @pytest.mark.parametrize("n, dim", [(3, None), (3, 4), (5, 16), (np.int64(6), None)])
    def test_one_class_leaf_is_the_cached_object(self, n, dim):
        be = centering_encoding(n, dim)
        assert centering_encoding(int(n), dim) is be
        assert centering_encoding(int(n), be.system_dim) is be

    def test_cache_hit_refused_after_the_cap_is_lowered(self, monkeypatch):
        monkeypatch.delenv("BLOCKLAB_CAP_QUBITS", raising=False)
        be = centering_encoding(7, 8)  # cached: a 16-dimensional leaf
        assert centering_encoding(7, 8) is be
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "3")
        with pytest.raises(CapExceededError, match="^dimension 16 exceeds"):
            centering_encoding(7, 8)
        monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "2")
        with pytest.raises(CapExceededError, match="^dimension 8 exceeds"):
            centering_encoding(7, 8)
        monkeypatch.delenv("BLOCKLAB_CAP_QUBITS")
        assert centering_encoding(7, 8) is be
