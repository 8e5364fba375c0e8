"""Mean centering of a stored data matrix, classically and as block encodings.

The three modes are named by their matrix-product form: pre-multiplication by
the centering projector (CX), post-multiplication (XC), and both (CXC).  On
the storage convention (entry (r, c) = component r of sample c) they subtract
the per-sample means, the per-component means, and both plus the grand mean.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .block_encoding import BlockEncoding, product
from .centering import centering_encoding
from .data_encoding import matrix_encoding
from .matrix_core import as_matrix, embed_power_of_two, next_power_of_two

__all__ = ["CenteringMode", "mean_vectors", "classical_center", "mc_encoding"]


class CenteringMode(Enum):
    """Which side(s) the centering projector multiplies the data matrix on."""

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
    x = as_matrix(x)
    u = x.mean(axis=0)
    v = x.mean(axis=1)
    xbar = complex(x.mean())
    if xbar.imag == 0.0:
        xbar = xbar.real
    return u, v, xbar


def classical_center(x, mode: CenteringMode) -> np.ndarray:
    """Mean-subtracted matrix, computed entrywise from the mean vectors."""
    x = as_matrix(x)
    u, v, xbar = mean_vectors(x)
    if mode is CenteringMode.CX:
        return x - u[np.newaxis, :]
    if mode is CenteringMode.XC:
        return x - v[:, np.newaxis]
    if mode is CenteringMode.CXC:
        return x - u[np.newaxis, :] - v[:, np.newaxis] + xbar
    raise ValueError(f"unknown mode {mode!r}")


def mc_encoding(x, mode: CenteringMode) -> BlockEncoding:
    """Block encoding of the centered matrix, alpha = ||X||_F.

    The data matrix is zero-embedded into a power-of-two square and encoded
    once; the centering encodings remove the means over its true row count
    (CX) and column count (XC) on the side(s) the mode requires, so the
    padded rows and columns of the block stay exactly zero.
    """
    x = as_matrix(x)
    dim = next_power_of_two(max(2, *x.shape))
    data = matrix_encoding(embed_power_of_two(x, dim))
    if mode is CenteringMode.CX:
        return product(centering_encoding(x.shape[0], dim), data)
    if mode is CenteringMode.XC:
        return product(data, centering_encoding(x.shape[1], dim))
    if mode is CenteringMode.CXC:
        return product(product(centering_encoding(x.shape[0], dim), data),
                       centering_encoding(x.shape[1], dim))
    raise ValueError(f"unknown mode {mode!r}")
