"""Classical references that the pipelines, the CLI and the acceptance battery
check block encodings against.

Each function is a dense, direct formula on the unpadded data and shares no
code with the encodings it checks: this module imports no encoding module,
only ``matrix_core``.  A mean always averages over the true samples; only
``hermitian_extension`` pads, to the power-of-two square its encodings act
on.  ``centering_matrix``, ``reflection`` and ``similarity`` are real;
``scatters``, ``pencil_eigs``, ``cca_pencil`` and ``dcca_pencil`` keep their
inputs' dtype (real in, real out); ``total_scatter``, ``hermitian_extension``,
``ols_closed_form``, ``mean_vectors`` and ``classical_center`` follow the
dtype rule of ``matrix_core``: real arithmetic for real inputs, complex
otherwise.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .matrix_core import as_array, as_matrix, embed_power_of_two

__all__ = ["centering_matrix", "CenteringMode", "mean_vectors", "classical_center",
           "reflection", "similarity", "scatters", "total_scatter", "hermitian_extension",
           "pencil_eigs", "cca_pencil", "dcca_pencil", "ols_closed_form"]


def centering_matrix(n: int) -> np.ndarray:
    """The real projector I - (1/n) ee^T that removes means on multiplication."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return np.eye(n) - np.full((n, n), 1.0 / n)


class CenteringMode(Enum):
    """Which side(s) the centering projector multiplies the data matrix on:
    CX, XC or CXC.  On the storage convention (entry (r, c) = component r of
    sample c) they subtract the per-sample means, the per-component means,
    and both plus the grand mean."""

    CX = "cx"
    XC = "xc"
    CXC = "cxc"

    @classmethod
    def parse(cls, text: str) -> "CenteringMode":
        try:
            return cls(text.strip().lower())
        except ValueError as exc:
            raise ValueError(f"unknown centering mode {text!r}; use cx, xc or cxc") from exc


def mean_vectors(x) -> tuple[np.ndarray, np.ndarray, complex]:
    """Per-sample means, per-component means, and the grand mean.

    Samples are columns, so the per-sample mean of sample c averages column c
    and the per-component mean of component r averages row r.
    """
    return _means(as_matrix(x))


def _means(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """``mean_vectors`` of a checked matrix: sums over counts, ``np.mean``'s bits."""
    xbar = complex(np.add.reduce(x, axis=None) / x.size)
    return (np.add.reduce(x, axis=0) / x.shape[0], np.add.reduce(x, axis=1) / x.shape[1],
            xbar.real if xbar.imag == 0.0 else xbar)


def classical_center(x, mode: CenteringMode) -> np.ndarray:
    """Mean-subtracted matrix, computed entrywise from the mean vectors."""
    x = as_matrix(x)
    u, v, xbar = _means(x)
    if mode is CenteringMode.CX:
        return x - u[np.newaxis, :]
    if mode is CenteringMode.XC:
        return x - v[:, np.newaxis]
    if mode is CenteringMode.CXC:
        return x - u[np.newaxis, :] - v[:, np.newaxis] + xbar
    raise ValueError(f"unknown mode {mode!r}")


def reflection(n: int) -> np.ndarray:
    """The centering reflection (2/n) ee^T - I in closed form."""
    return (2.0 / n) * np.ones((n, n)) - np.eye(n)


def similarity(labels) -> np.ndarray:
    """E_ij = 1 when samples i and j share a label, else 0."""
    labels = np.asarray(labels)
    return (labels[:, None] == labels[None, :]).astype(float)


def scatters(ds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total/within/between scatters of a labeled dataset from per-sample outer products."""
    x = ds.x
    n = x.shape[1]
    grand = x.mean(axis=1)
    s_t = np.zeros((x.shape[0], x.shape[0]), dtype=x.dtype)
    for i in range(n):
        diff = x[:, i] - grand
        s_t += np.outer(diff, diff.conj())
    s_w = np.zeros_like(s_t)
    s_b = np.zeros_like(s_t)
    for k in range(len(ds.classes)):
        xk = ds.class_columns(k)
        mean_k = xk.mean(axis=1)
        for i in range(xk.shape[1]):
            diff = xk[:, i] - mean_k
            s_w += np.outer(diff, diff.conj())
        gap = mean_k - grand
        s_b += xk.shape[1] * np.outer(gap, gap.conj())
    return s_t, s_w, s_b


def total_scatter(x) -> np.ndarray:
    """X C X^dag with C centering the sample columns."""
    x = as_matrix(x)
    return x @ centering_matrix(x.shape[1]) @ x.conj().T


def hermitian_extension(x) -> np.ndarray:
    """[[0, X], [X^dag, 0]] with the extension qubit most significant.

    Rectangular input is first embedded into a power-of-two square, so the
    result is Hermitian with spectrum +/- the singular values of X (plus
    zeros contributed by any padding).
    """
    x = embed_power_of_two(as_matrix(x))
    d = x.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=x.dtype)
    out[:d, d:] = x
    out[d:, :d] = x.conj().T
    return out


def pencil_eigs(a: np.ndarray, b: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-d real pairs of A v = lambda B v by a dense solve via the pseudo-inverse."""
    vals, vecs = np.linalg.eig(np.linalg.pinv(b) @ a)
    scale = max(1.0, float(np.abs(vals).max()))
    real = np.abs(vals.imag) <= 1e-8 * scale
    vals = vals[real].real
    vecs = vecs[:, real]
    order = np.argsort(vals)[::-1][:d]
    picked = vecs[:, order]
    picked = picked / np.linalg.norm(picked, axis=0)
    return vals[order], picked


def cca_pencil(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The canonical-correlation pencil of M = X C Y^dag, C centering the samples."""
    x, y = as_matrix(x), as_matrix(y)
    c = centering_matrix(x.shape[1])
    return _pencil(x @ c @ y.conj().T, x, y, c)


def dcca_pencil(x, y, labels) -> tuple[np.ndarray, np.ndarray]:
    """The canonical-correlation pencil of M = X C E C Y^dag, E the label similarity."""
    x, y = as_matrix(x), as_matrix(y)
    c = centering_matrix(x.shape[1])
    return _pencil(x @ c @ similarity(labels) @ c @ y.conj().T, x, y, c)


def _pencil(m, x, y, c) -> tuple[np.ndarray, np.ndarray]:
    """([[0, M], [M^dag, 0]], diag(X C X^dag, Y C Y^dag))."""
    dim = m.shape[0]
    h_a = np.zeros((2 * dim, 2 * dim), dtype=np.result_type(m, x, y, c))
    h_a[:dim, dim:] = m
    h_a[dim:, :dim] = m.conj().T
    h_b = np.zeros_like(h_a)
    h_b[:dim, :dim] = x @ c @ x.conj().T
    h_b[dim:, dim:] = y @ c @ y.conj().T
    return h_a, h_b


def ols_closed_form(x, y) -> np.ndarray:
    """pinv(X^dag C X) X^dag C y with C centering the rows of the design."""
    x = as_matrix(x)
    y = as_array(y).reshape(-1)
    c = centering_matrix(x.shape[0])
    return np.linalg.pinv(x.conj().T @ c @ x, rcond=1e-12) @ (x.conj().T @ (c @ y))
