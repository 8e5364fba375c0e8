"""Mean centering of a stored data matrix as block encodings.

``CenteringMode``, ``mean_vectors`` and ``classical_center`` live in
``oracles`` and are re-exported on this, their public path: ``perfbench``'s
walk workload reads ``CenteringMode`` here, and its tracer, which rebinds
functions by object identity, traces ``classical_center`` here.
"""

from __future__ import annotations

from .block_encoding import BlockEncoding, product
from .centering import centering_encoding
from .data_encoding import matrix_encoding
from .matrix_core import as_matrix, embed_power_of_two, register_dim
from .oracles import CenteringMode, classical_center, mean_vectors

__all__ = ["CenteringMode", "mean_vectors", "classical_center", "mc_encoding"]


def mc_encoding(x, mode: CenteringMode) -> BlockEncoding:
    """Block encoding of the centered matrix, alpha = ||X||_F.

    The data matrix is zero-embedded into a power-of-two square and encoded
    once; the centering encodings remove the means over its true row count
    (CX) and column count (XC) on the side(s) the mode requires, so the
    padded rows and columns of the block stay exactly zero.
    """
    x = as_matrix(x)
    dim = register_dim(*x.shape)
    data = matrix_encoding(embed_power_of_two(x, dim))
    if mode is CenteringMode.CX:
        return product(centering_encoding(x.shape[0], dim), data)
    if mode is CenteringMode.XC:
        return product(data, centering_encoding(x.shape[1], dim))
    if mode is CenteringMode.CXC:
        return product(product(centering_encoding(x.shape[0], dim), data),
                       centering_encoding(x.shape[1], dim))
    raise ValueError(f"unknown mode {mode!r}")
