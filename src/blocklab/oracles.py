"""Classical references that the pipelines, the CLI and the acceptance battery
check block encodings against.

Each function is a dense, direct formula and shares no code with the
encodings it checks.  ``reflection`` is real; ``scatters``, ``pencil_eigs``
and ``pencil_blocks`` keep their inputs' dtype (real in, real out);
``padded_scatter`` and ``ols_closed_form`` work on the complex zero-embedded
matrix, the layout the pipelines encode.
"""

from __future__ import annotations

import numpy as np

from .centering import centering_matrix
from .matrix_core import embed_power_of_two

__all__ = ["reflection", "scatters", "pencil_eigs", "pencil_blocks", "padded_scatter",
           "ols_closed_form"]


def reflection(n: int) -> np.ndarray:
    """The centering reflection (2/n) ee^T - I in closed form."""
    return (2.0 / n) * np.ones((n, n)) - np.eye(n)


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
    for k in range(ds.partition.class_count):
        xk = ds.class_columns(k)
        mean_k = xk.mean(axis=1)
        for i in range(xk.shape[1]):
            diff = xk[:, i] - mean_k
            s_w += np.outer(diff, diff.conj())
        gap = mean_k - grand
        s_b += xk.shape[1] * np.outer(gap, gap.conj())
    return s_t, s_w, s_b


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


def pencil_blocks(m, x, y, c) -> tuple[np.ndarray, np.ndarray]:
    """The canonical-correlation pencil ([[0, M], [M^dag, 0]], diag(X C X^dag, Y C Y^dag))."""
    dim = m.shape[0]
    h_a = np.zeros((2 * dim, 2 * dim), dtype=np.result_type(m, x, y, c))
    h_a[:dim, dim:] = m
    h_a[dim:, :dim] = m.conj().T
    h_b = np.zeros_like(h_a)
    h_b[:dim, :dim] = x @ c @ x.conj().T
    h_b[dim:, dim:] = y @ c @ y.conj().T
    return h_a, h_b


def padded_scatter(x, dim: int | None = None) -> np.ndarray:
    """X C X^dag with X zero-embedded to a dim x dim square (by default the
    next power of two) and C centering that padded dimension."""
    x_e = embed_power_of_two(x, dim)
    return x_e @ centering_matrix(x_e.shape[0]) @ x_e.conj().T


def ols_closed_form(x, y) -> np.ndarray:
    """pinv(X^dag C X) X^dag C y on the design zero-embedded to the next
    power-of-two square, with y zero-padded to match."""
    x_e = embed_power_of_two(x)
    dim = x_e.shape[0]
    y_e = np.zeros(dim, dtype=complex)
    y_e[: y.shape[0]] = y
    c = centering_matrix(dim)
    return np.linalg.pinv(x_e.conj().T @ c @ x_e, rcond=1e-12) @ (x_e.conj().T @ (c @ y_e))
