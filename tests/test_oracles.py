import ast
import inspect

import numpy as np
import pytest

from blocklab import mean_centering, oracles
from blocklab.applications import LabeledDataset
from blocklab.oracles import (
    cca_pencil,
    dcca_pencil,
    ols_closed_form,
    pencil_eigs,
    reflection,
    scatters,
    total_scatter,
)


def projector(n):
    """Mean-removal projector, built independently of the library."""
    return np.eye(n) - np.ones((n, n)) / n


@pytest.mark.parametrize("n", [2, 4, 16])
def test_reflection_is_identity_minus_twice_projector(n):
    r = reflection(n)
    assert r.dtype == np.float64
    np.testing.assert_allclose(r, np.eye(n) - 2.0 * projector(n), atol=1e-14)
    np.testing.assert_allclose(r @ r, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("complex_data", [False, True])
def test_scatters_split_identity(complex_data):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 7))
    if complex_data:
        x = x + 1j * rng.standard_normal((4, 7))
    ds = LabeledDataset(x, [0, 2, 0, 1, 2, 2, 0])
    s_t, s_w, s_b = scatters(ds)
    np.testing.assert_allclose(s_t, s_w + s_b, atol=1e-12)
    np.testing.assert_allclose(s_t, x @ projector(7) @ x.conj().T, atol=1e-12)


@pytest.mark.parametrize("b_diag, expected", [
    ([2.0, 1.0, 3.0, 4.0], [3.0, 2.0, 1.25]),
    ([2.0, 1.0, 3.0, 0.0], [3.0, 2.0, 1.0]),  # singular B
])
def test_pencil_eigs_diagonal(b_diag, expected):
    a = np.diag([6.0, 2.0, 3.0, 5.0])
    vals, vecs = pencil_eigs(a, np.diag(b_diag), 3)
    np.testing.assert_allclose(vals, expected, atol=1e-12)
    picked = [int(np.argmax(np.abs(vecs[:, j]))) for j in range(3)]
    ratios = np.array([6.0, 2.0, 3.0, 5.0]) / np.where(np.array(b_diag) > 0, b_diag, np.inf)
    np.testing.assert_allclose(ratios[picked], expected, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)


def test_cca_pencil_hermitian_and_real():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal((3, 6))
    c = projector(6)
    m = x @ c @ y.T
    h_a, h_b = cca_pencil(x, y)
    assert h_a.dtype == h_b.dtype == np.float64
    assert h_a.shape == h_b.shape == (6, 6)
    np.testing.assert_array_equal(h_a, h_a.T)
    np.testing.assert_allclose(h_b, h_b.T, atol=1e-12)
    np.testing.assert_array_equal(h_a[:3, 3:], m)
    np.testing.assert_array_equal(h_a[:3, :3], 0.0)
    np.testing.assert_array_equal(h_b[:3, 3:], 0.0)

    xc = x + 1j * rng.standard_normal((3, 6))
    h_a, h_b = cca_pencil(xc, y)
    assert np.iscomplexobj(h_a) and np.iscomplexobj(h_b)
    np.testing.assert_array_equal(h_a, h_a.conj().T)
    np.testing.assert_allclose(h_b, h_b.conj().T, atol=1e-12)


def test_dcca_pencil_hermitian_and_real():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal((3, 6))
    labels = np.array([1, 0, 1, 2, 0, 1])
    c = projector(6)
    e = (labels[:, None] == labels[None, :]).astype(float)
    m = x @ c @ e @ c @ y.T
    h_a, h_b = dcca_pencil(x, y, labels)
    assert h_a.dtype == h_b.dtype == np.float64
    assert h_a.shape == h_b.shape == (6, 6)
    np.testing.assert_array_equal(h_a, h_a.T)
    np.testing.assert_allclose(h_b, h_b.T, atol=1e-12)
    np.testing.assert_array_equal(h_a[:3, 3:], m)
    np.testing.assert_array_equal(h_a[:3, :3], 0.0)
    np.testing.assert_array_equal(h_b, cca_pencil(x, y)[1])

    xc = x + 1j * rng.standard_normal((3, 6))
    h_a, h_b = dcca_pencil(xc, y, labels)
    assert np.iscomplexobj(h_a) and np.iscomplexobj(h_b)
    np.testing.assert_array_equal(h_a, h_a.conj().T)
    np.testing.assert_allclose(h_b, h_b.conj().T, atol=1e-12)


def test_oracles_import_no_encoding_module():
    tree = ast.parse(inspect.getsource(oracles))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith(".") or name.startswith("blocklab")} \
        == {".matrix_core"}


def test_mean_centering_reexports_the_oracles():
    for name in ("CenteringMode", "classical_center", "mean_vectors"):
        assert getattr(mean_centering, name) is getattr(oracles, name), name


@pytest.mark.parametrize("shape", [(12, 12), (4, 6)])
def test_total_scatter_centers_true_samples(shape):
    rng = np.random.default_rng(13)
    x = rng.standard_normal(shape)
    expected = x @ projector(shape[1]) @ x.T
    np.testing.assert_allclose(total_scatter(x), expected, atol=1e-12)
    s_t, _, _ = scatters(LabeledDataset(x, np.zeros(shape[1], dtype=int)))
    np.testing.assert_allclose(total_scatter(x), s_t, atol=1e-12)


def test_ols_closed_form_matches_lstsq():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    design = projector(8) @ x
    assert np.linalg.matrix_rank(design) == 5
    reference, *_ = np.linalg.lstsq(design, y, rcond=None)
    beta = ols_closed_form(x, y)
    assert beta.shape == (5,)
    np.testing.assert_allclose(beta, reference, atol=1e-10)
