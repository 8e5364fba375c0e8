"""Statistics pipelines built from block encodings: principal components,
discriminant and canonical correlation analyses (plain and class-aware), and
least squares on the centered design, each cross-checked classically.

Layout conventions: data matrices store samples as columns.  Inputs are
embedded into power-of-two squares before encoding, and the centering
projector is built at the padded dimension; classical comparisons inside the
pipelines use the identical padding so the two routes are like for like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import (
    BlockEncoding,
    adjoint_encoding,
    linear_combination,
    make_state_prep_pair,
    placement_encoding,
    product,
    rescale_encoding,
)
from .centering import (
    ClassPartition,
    centering_encoding,
    centering_matrix,
    similarity_encoding,
)
from .data_encoding import hermitian_dilation, matrix_encoding
from .matrix_core import (
    as_complex_matrix,
    embed_power_of_two,
    is_hermitian,
    next_power_of_two,
)
from .oracles import ols_closed_form, padded_scatter, scatters
from .spectral import EstimationMethod, exact_evolution, phase_estimation

__all__ = [
    "LabeledDataset",
    "EigenResult",
    "RegressionResult",
    "scatter_total_encoding",
    "scatter_within_encoding",
    "cross_scatter_encoding",
    "paired_scatter_encoding",
    "class_correlation_encoding",
    "pca",
    "generalized_eig",
    "lda",
    "cca",
    "dcca",
    "ols",
]

_DEGENERACY_TOL = 1e-8
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class LabeledDataset:
    """Data matrix (components x samples) with an integer class label per column."""

    x: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = as_complex_matrix(self.x)
        labels = np.asarray(self.labels, dtype=int).reshape(-1)
        if labels.shape[0] != x.shape[1]:
            raise ValueError("need exactly one label per sample column")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.labels.tolist())))

    @property
    def partition(self) -> ClassPartition:
        return ClassPartition(tuple(int(np.sum(self.labels == c)) for c in self.classes))

    def class_columns(self, k: int) -> np.ndarray:
        """Columns of the k-th class (classes ordered by label value)."""
        label = self.classes[k]
        return self.x[:, self.labels == label]


@dataclass(frozen=True)
class EigenResult:
    """Top-d eigenpairs, values descending, vectors unit-norm column-wise.

    Value pairs closer than 1e-8 are flagged in ``degeneracies`` as index
    pairs; within such clusters only the spanned subspace is meaningful.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    d: int
    degeneracies: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares solution on the centered design.

    ``residual_norm`` is the recomputed norm of (C X) beta - y and
    ``effective_rank`` the numerical rank of the centered design.
    """

    beta_hat: np.ndarray
    residual_norm: float
    effective_rank: int


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.argmax(np.abs(col) > 1e-9)
        if np.abs(col[idx]) > 0:
            phase = col[idx] / np.abs(col[idx])
            out[:, j] = col / phase
    return out


def _flag_degeneracies(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    pairs = []
    for i in range(len(values) - 1):
        if abs(values[i] - values[i + 1]) <= _DEGENERACY_TOL:
            pairs.append((i, i + 1))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Scatter-style encodings
# ---------------------------------------------------------------------------

def scatter_total_encoding(x, system_dim: int | None = None) -> BlockEncoding:
    """Encoding of the total scatter X C X^T with alpha = ||X||_F^2."""
    x = as_complex_matrix(x)
    if system_dim is None:
        system_dim = next_power_of_two(max(2, *x.shape))
    data = matrix_encoding(embed_power_of_two(x, system_dim))
    cent = centering_encoding(system_dim)
    return product(product(data, cent), adjoint_encoding(data))


def cross_scatter_encoding(x, y, system_dim: int | None = None) -> BlockEncoding:
    """Encoding of X C Y^dag with alpha = ||X||_F ||Y||_F."""
    x = as_complex_matrix(x)
    y = as_complex_matrix(y)
    if x.shape != y.shape:
        raise ValueError("paired data matrices must share a shape")
    if system_dim is None:
        system_dim = next_power_of_two(max(2, *x.shape))
    data_x = matrix_encoding(embed_power_of_two(x, system_dim))
    data_y = matrix_encoding(embed_power_of_two(y, system_dim))
    cent = centering_encoding(system_dim)
    return product(product(data_x, cent), adjoint_encoding(data_y))


def scatter_within_encoding(ds: LabeledDataset, system_dim: int | None = None) -> BlockEncoding:
    """Encoding of the within-class scatter sum_k X_k C_k X_k^T.

    Each class block is embedded to the common system dimension with the
    class-local centering projector extended block-diagonally; the per-class
    product encodings are rescaled to the common scale f = max_k ||X_k||_F^2
    and combined with unit coefficients, so the declared alpha is c * f.
    """
    part = ds.partition
    x = ds.x
    if system_dim is None:
        system_dim = next_power_of_two(max(2, x.shape[0], part.max_class_size))
    chains = []
    for k in range(part.class_count):
        xk = ds.class_columns(k)
        if xk.shape[1] == 0:
            raise ValueError("empty class in dataset")
        p_k = max(2, next_power_of_two(xk.shape[1]))
        if p_k > system_dim:
            raise ValueError("class block exceeds the system dimension")
        data_k = matrix_encoding(embed_power_of_two(xk, system_dim))
        factor = system_dim // p_k
        cent = centering_encoding(p_k)
        cent_k = placement_encoding(factor, {(j, j): cent for j in range(factor)})
        chains.append(product(product(data_k, cent_k), adjoint_encoding(data_k)))
    f = max(be.alpha for be in chains)
    rescaled = [rescale_encoding(be, f) for be in chains]
    pair = make_state_prep_pair(np.ones(part.class_count))
    return linear_combination(pair, rescaled, common_alpha=f)


def paired_scatter_encoding(x, y, system_dim: int | None = None) -> BlockEncoding:
    """Block-diagonal encoding of diag(X C X^T, Y C Y^T) on one extra qubit.

    Both scatter encodings are rescaled to the larger scale factor so a
    single alpha certifies the pair.
    """
    x = as_complex_matrix(x)
    y = as_complex_matrix(y)
    if x.shape != y.shape:
        raise ValueError("paired data matrices must share a shape")
    if system_dim is None:
        system_dim = next_power_of_two(max(2, *x.shape))
    q = scatter_total_encoding(x, system_dim)
    p = scatter_total_encoding(y, system_dim)
    alpha = max(q.alpha, p.alpha)
    q_r = rescale_encoding(q, alpha)
    p_r = rescale_encoding(p, alpha)
    return placement_encoding(2, {(0, 0): q_r, (1, 1): p_r})


# ---------------------------------------------------------------------------
# Eigen pipelines
# ---------------------------------------------------------------------------

def pca(x, d: int, t_bits: int = 8) -> EigenResult:
    """Top-d principal directions of the total scatter via phase estimation.

    Classical eigenvectors of the padded scatter seed the estimation; the
    returned eigenvalues are the phase-estimation readouts, which must agree
    with the classical values within ||X||_F^2 * 2^-t_bits.
    """
    x = as_complex_matrix(x)
    be = scatter_total_encoding(x)
    dim = be.system_dim
    if not 1 < d <= dim:
        raise ValueError(f"d must satisfy 1 < d <= {dim}")
    values, vectors = np.linalg.eigh(padded_scatter(x, dim))
    order = np.argsort(values)[::-1][:d]
    classical_vals = values[order].real
    candidates = vectors[:, order]

    alpha = be.alpha
    t_evo = 1.2 * np.pi / alpha
    u = exact_evolution(be, t_evo)
    estimates = []
    for j in range(d):
        est = phase_estimation(
            u, candidates[:, j], t_bits,
            method=EstimationMethod.EXACT_EVOLUTION,
            alpha=alpha, evolution_time=t_evo, nonnegative_spectrum=True,
        )
        estimates.append(est.eigenvalue)
    estimates = np.array(estimates)
    bound = alpha * 2.0 ** (-t_bits)
    if np.max(np.abs(estimates - classical_vals)) > bound:
        raise AssertionError(
            "phase-estimation eigenvalues drifted beyond the resolution bound"
        )
    order2 = np.argsort(estimates)[::-1]
    return EigenResult(
        eigenvalues=estimates[order2],
        eigenvectors=_sign_normalize(candidates[:, order2]),
        d=d,
        degeneracies=_flag_degeneracies(classical_vals),
    )


def generalized_eig(a_be: BlockEncoding, b_be: BlockEncoding, d: int) -> EigenResult:
    """Top-d pairs of A v = lambda B v from the two encoded blocks.

    B is pseudo-whitened: eigendirections of B below the rank cutoff are
    projected out (the pseudo-inverse convention for singular B), and the
    whitened operator is diagonalized exactly.
    """
    if a_be.system_qubits != b_be.system_qubits:
        raise ValueError("pencil operands must share the system dimension")
    a = a_be.alpha * a_be.extract_block()
    b = b_be.alpha * b_be.extract_block()
    for name, m in (("A", a), ("B", b)):
        if not is_hermitian(m, 1e-6 * max(1.0, float(np.abs(m).max()))):
            raise ValueError(f"pencil operand {name} is not Hermitian")
    a = (a + a.conj().T) / 2.0
    b = (b + b.conj().T) / 2.0

    w, v = np.linalg.eigh(b)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale <= 1e-12:
        raise ValueError("B is numerically zero; the pencil is degenerate")
    if float(np.min(w)) < -1e-8 * scale:
        raise ValueError("B must be positive semidefinite")
    keep = w > _RANK_RTOL * scale
    isqrt = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
    whitened = isqrt @ a @ isqrt
    whitened = (whitened + whitened.conj().T) / 2.0
    mu, wvec = np.linalg.eigh(whitened)
    order = np.argsort(mu)[::-1]
    rank = int(np.sum(keep))
    if not 1 <= d <= rank:
        raise ValueError(f"d must satisfy 1 <= d <= rank(B) = {rank}")
    order = order[:d]
    vectors = isqrt @ wvec[:, order]
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0):
        raise ValueError("degenerate pencil eigenvector")
    vectors = vectors / norms
    values = mu[order].real
    return EigenResult(
        eigenvalues=values,
        eigenvectors=_sign_normalize(vectors),
        d=d,
        degeneracies=_flag_degeneracies(values),
    )


def lda(ds: LabeledDataset, d: int) -> EigenResult:
    """Discriminant directions from the (total; within-class) scatter pencil.

    When no padding is involved, the between-class scatter computed as the
    difference of the total and within-class centering products is
    cross-checked against its direct per-class-mean form.
    """
    part = ds.partition
    system_dim = next_power_of_two(max(2, ds.x.shape[0], ds.x.shape[1],
                                       part.max_class_size))
    st_be = scatter_total_encoding(ds.x, system_dim)
    sw_be = scatter_within_encoding(ds, system_dim)

    exact_layout = (
        system_dim == ds.x.shape[1]
        and all(next_power_of_two(nk) == nk for nk in part.class_sizes)
    )
    if exact_layout:
        rows = ds.x.shape[0]
        s_t = padded_scatter(ds.x, system_dim)[:rows, :rows]
        s_w = np.zeros_like(s_t)
        for k in range(part.class_count):
            xk = ds.class_columns(k)
            s_w += xk @ centering_matrix(xk.shape[1]) @ xk.conj().T
        _, _, s_b = scatters(ds)
        if np.max(np.abs((s_t - s_w) - s_b)) > 1e-7:
            raise AssertionError("between-class scatter identity violated")
    return generalized_eig(st_be, sw_be, d)


def cca(x, y, d: int) -> EigenResult:
    """Canonical directions from the cross/auto scatter pencil.

    The stacked (x-part, y-part) eigenvectors are normalized jointly; the
    spectrum is symmetric, so the returned top-d values are the nonnegative
    branch.
    """
    x = as_complex_matrix(x)
    y = as_complex_matrix(y)
    if x.shape != y.shape:
        raise ValueError("both views must share a shape")
    system_dim = next_power_of_two(max(2, *x.shape))
    h_x = hermitian_dilation(cross_scatter_encoding(x, y, system_dim))
    h_y = paired_scatter_encoding(x, y, system_dim)
    return generalized_eig(h_x, h_y, d)


def class_correlation_encoding(
    ds_x: LabeledDataset, ds_y: LabeledDataset, system_dim: int | None = None
) -> BlockEncoding:
    """Encoding of X C E C Y^dag on the class-grouped padded layout.

    E is the block-diagonal class-similarity matrix; its scale factor is the
    largest class size, so the chain declares alpha =
    n_tilde ||X||_F ||Y||_F.
    """
    part = ds_x.partition
    if part != ds_y.partition:
        raise ValueError("both views must share the class partition")
    block_dim = part.block_dim
    x_pad = _grouped_padded(ds_x, block_dim)
    y_pad = _grouped_padded(ds_y, block_dim)
    if system_dim is None:
        system_dim = next_power_of_two(
            max(2, ds_x.x.shape[0], ds_y.x.shape[0], x_pad.shape[1])
        )
    data_x = matrix_encoding(embed_power_of_two(x_pad, system_dim))
    data_y = matrix_encoding(embed_power_of_two(y_pad, system_dim))
    cent = centering_encoding(system_dim)
    sim = similarity_encoding(part, total_dim=system_dim)
    chain = product(product(product(product(data_x, cent), sim), cent),
                    adjoint_encoding(data_y))
    return chain


def _grouped_padded(ds: LabeledDataset, block_dim: int) -> np.ndarray:
    """Columns regrouped so class k occupies slots [k*block_dim, k*block_dim+n_k)."""
    part = ds.partition
    width = part.padded_class_count * block_dim
    out = np.zeros((ds.x.shape[0], width), dtype=complex)
    for k in range(part.class_count):
        xk = ds.class_columns(k)
        lo = k * block_dim
        out[:, lo:lo + xk.shape[1]] = xk
    return out


def dcca(ds_x: LabeledDataset, ds_y: LabeledDataset, d: int) -> EigenResult:
    """Class-aware canonical directions from the (H_d; H_y) pencil.

    Both views are regrouped onto the padded class layout; the result's
    stacked eigenvectors are reported in that layout.
    """
    part = ds_x.partition
    if part != ds_y.partition:
        raise ValueError("both views must share the class partition")
    block_dim = part.block_dim
    x_pad = _grouped_padded(ds_x, block_dim)
    y_pad = _grouped_padded(ds_y, block_dim)
    system_dim = next_power_of_two(
        max(2, ds_x.x.shape[0], ds_y.x.shape[0], x_pad.shape[1])
    )
    chain = class_correlation_encoding(ds_x, ds_y, system_dim)
    h_d = hermitian_dilation(chain)
    h_y = paired_scatter_encoding(x_pad, y_pad, system_dim)
    return generalized_eig(h_d, h_y, d)


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

def ols(x, y_vec) -> RegressionResult:
    """Least squares on the centered design C X, solved two ways.

    The closed form pinv(X^T C X) X^T C y and the least-squares solve against
    the block extracted from the centered-design encoding must agree within
    1e-8; rank deficiency is resolved by the pseudo-inverse and reported via
    the effective rank.
    """
    from .mean_centering import CenteringMode, mc_encoding

    x = as_complex_matrix(x)
    y = np.asarray(y_vec, dtype=complex).reshape(-1)
    if x.shape[0] != x.shape[1]:
        raise ValueError("design matrix must be square (samples as columns)")
    if y.shape[0] != x.shape[1]:
        raise ValueError("target vector length must match the sample count")
    x_e = embed_power_of_two(x)
    y_e = np.zeros(x_e.shape[0], dtype=complex)
    y_e[: y.shape[0]] = y

    closed = ols_closed_form(x, y)
    be = mc_encoding(x_e, CenteringMode.CX)
    design = be.alpha * be.extract_block()
    sv = np.linalg.svd(design, compute_uv=False)
    effective_rank = int(np.sum(sv > sv[0] * _RANK_RTOL)) if sv.size else 0
    via_encoding, *_ = np.linalg.lstsq(design, y_e, rcond=_RANK_RTOL)

    if np.max(np.abs(closed - via_encoding)) > 1e-8:
        raise AssertionError("closed-form and encoded-design solutions disagree")
    residual = float(np.linalg.norm(design @ via_encoding - y_e))
    beta = via_encoding.real if np.allclose(via_encoding.imag, 0, atol=1e-12) else via_encoding
    return RegressionResult(beta_hat=beta, residual_norm=residual,
                            effective_rank=effective_rank)
