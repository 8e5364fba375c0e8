"""Statistics pipelines built from block encodings: principal components,
discriminant and canonical correlation analyses (plain and class-aware), and
least squares on the centered design, each cross-checked classically.

Layout conventions: data matrices store samples as columns, in the order
given (the least-squares design stores them as rows); class labels are never
regrouped.  Inputs are zero-embedded into power-of-two squares before
encoding, and every centering and similarity encoding reads the class of
each sample slot and is zero on the padding slots, so each encoded block is
the statistic of the unpadded data, zero-embedded; the classical comparisons
use the unpadded data.

A scatter X C X^dag is the Gram matrix B^dag B of B = C X^dag, because the
centering projector satisfies C = C^dag = C^2.  Its encoding is the Gram
node of ``product(C, X^dag)``: both factors share one ancilla register, and
the unitary is Hermitian, so a scatter walk needs no dilation.  Every pencil
operand is built from such Gram nodes: the CCA denominator
diag(X C X^dag, Y C Y^dag) is the within-class scatter of [[X, 0], [0, Y]],
and the total scatter of the stacked views [X; Y] adds the dilation of
X C Y^dag to it, so CCA pencils that against the denominator and subtracts
1.  DCCA's numerator, the dilation of X C E C Y^dag, is the difference node,
half the difference, of the Gram nodes of E^1/2 C [X; +-Y]^dag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .block_encoding import (
    BlockEncoding,
    adjoint_encoding,
    difference_encoding,
    gram_encoding,
    product,
)
from .centering import centering_encoding, similarity_root
from .data_encoding import matrix_encoding
from .matrix_core import (
    as_array,
    as_matrix,
    embed_power_of_two,
    is_hermitian,
    register_dim,
)
from .mean_centering import mc_encoding
from .oracles import CenteringMode, ols_closed_form, total_scatter
from .spectral import EstimationMethod, exact_evolution, phase_estimation

__all__ = [
    "LabeledDataset",
    "EigenResult",
    "RegressionResult",
    "scatter_total_encoding",
    "scatter_within_encoding",
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
        x = np.array(as_matrix(self.x))  # copies: the caller keeps its own arrays
        labels = np.array(self.labels, dtype=int).reshape(-1)
        if labels.shape[0] != x.shape[1]:
            raise ValueError("need exactly one label per sample column")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.labels.tolist())))

    def class_columns(self, k: int) -> np.ndarray:
        """Columns of the k-th class (classes ordered by label value)."""
        label = self.classes[k]
        return self.x[:, self.labels == label]


@dataclass(frozen=True)
class EigenResult:
    """Top-d eigenpairs, values descending, vectors unit-norm column-wise.

    Value pairs closer than 1e-8 are flagged in ``degeneracies`` as index
    pairs, the pair (d - 1, d) when the last value is tied with the next
    eigenvalue, which is not returned; within such clusters only the spanned
    subspace is meaningful.
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


def _flag_degeneracies(values: np.ndarray, d: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, i + 1), i < d, of descending ``values`` closer than 1e-8.

    ``values`` is the whole spectrum, so (d - 1, d) flags a last returned
    value tied with the first one left out.
    """
    return tuple((i, i + 1) for i in range(min(d, len(values) - 1))
                 if abs(values[i] - values[i + 1]) <= _DEGENERACY_TOL)


# ---------------------------------------------------------------------------
# Scatter-style encodings
# ---------------------------------------------------------------------------

def _scatter(x: np.ndarray, classes, root: BlockEncoding | None = None) -> BlockEncoding:
    """Hermitian encoding of X C X^dag = B^dag B, B = C X^dag, with
    alpha = ||X||_F^2, where C is ``centering_encoding(classes)`` on the
    sample columns of the power-of-two system.  A ``root`` encoding of
    E^1/2 on that system makes B = E^1/2 C X^dag, so the node encodes
    X C E C X^dag at alpha times ``root.alpha``^2."""
    dim = register_dim(*x.shape)
    data = matrix_encoding(embed_power_of_two(x, dim))
    b = product(centering_encoding(classes, dim), adjoint_encoding(data))
    return gram_encoding(b if root is None else product(root, b))


def _class_ids(ds: LabeledDataset) -> np.ndarray:
    """The class of each sample as 0, 1, ... in label order."""
    return np.unique(ds.labels, return_inverse=True)[1]


def scatter_total_encoding(x) -> BlockEncoding:
    """Hermitian encoding of the total scatter X C X^T with alpha = ||X||_F^2."""
    x = as_matrix(x)
    return _scatter(x, x.shape[1])


def scatter_within_encoding(ds: LabeledDataset) -> BlockEncoding:
    """Encoding of the within-class scatter sum_k X_k C_k X_k^T = X C_w X^T.

    C_w centers every class over its own samples and is a projector too, so
    the scatter is the same Gram node as the total scatter, with
    alpha = ||X||_F^2.
    """
    return _scatter(ds.x, _class_ids(ds))


def _views(x, y) -> tuple[np.ndarray, np.ndarray, int]:
    """The two views as validated matrices, and the power-of-two size of each."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise ValueError("paired data matrices must share a shape")
    return x, y, register_dim(*x.shape)


def paired_scatter_encoding(x, y) -> BlockEncoding:
    """Hermitian encoding of diag(X C X^T, Y C Y^T), on one more system qubit.

    It is the within-class scatter of the block-diagonal data
    [[X, 0], [0, Y]], X at rows and slots 0.., Y at rows and slots dim..,
    with the samples of each view as one class, so one Gram node certifies
    the pair at alpha = ||X||_F^2 + ||Y||_F^2.
    """
    x, y, dim = _views(x, y)
    (d, n) = x.shape
    w = np.zeros((2 * dim, 2 * dim), dtype=np.result_type(x, y))
    w[:d, :n] = x
    w[dim:dim + d, dim:dim + n] = y
    return _scatter(w, np.repeat([0, -1, 1], [n, dim - n, n]))


# ---------------------------------------------------------------------------
# Eigen pipelines
# ---------------------------------------------------------------------------

def pca(x, d: int, t_bits: int = 8) -> EigenResult:
    """Top-d principal directions of the total scatter via phase estimation.

    Classical eigenvectors of the scatter seed the estimation; the
    returned eigenvalues are the phase-estimation readouts, which must agree
    with the classical values within ||X||_F^2 * 2^-t_bits.  A mean that
    swamps the spread puts a nonzero value read below that bound, and an
    ``AssertionError`` naming alpha/lambda_1 refuses it.
    """
    x = as_matrix(x)
    be = scatter_total_encoding(x)
    dim = be.system_dim
    if not 1 <= d <= dim:
        raise ValueError(f"d must satisfy 1 <= d <= {dim}")
    values, vectors = np.linalg.eigh(embed_power_of_two(total_scatter(x), dim))
    spectrum = np.argsort(values)[::-1]
    order = spectrum[:d]
    classical_vals = values[order].real
    candidates = vectors[:, order]

    alpha = be.alpha
    bound = alpha * 2.0 ** (-t_bits)
    lam = classical_vals[classical_vals > _RANK_RTOL * alpha]  # the nonzero values read
    if lam.size and lam[-1] <= bound:
        raise AssertionError(f"resolution bound {bound:.3g} is not below the eigenvalue "
                             f"{lam[-1]:.3g} it reads: alpha/lambda_1 = {alpha / lam[0]:.3g}")
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
    if np.max(np.abs(estimates - classical_vals)) > bound:
        raise AssertionError(
            "phase-estimation eigenvalues drifted beyond the resolution bound"
        )
    order2 = np.argsort(estimates)[::-1]
    return EigenResult(
        eigenvalues=estimates[order2],
        eigenvectors=_sign_normalize(candidates[:, order2]),
        d=d,
        degeneracies=_flag_degeneracies(values[spectrum], d),
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
    vectors = isqrt @ wvec[:, order[:d]]
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0):
        raise ValueError("degenerate pencil eigenvector")
    vectors = vectors / norms
    values = mu[order[:d]]
    return EigenResult(
        eigenvalues=values,
        eigenvectors=_sign_normalize(vectors),
        d=d,
        degeneracies=_flag_degeneracies(mu[order], d),
    )


def lda(ds: LabeledDataset, d: int) -> EigenResult:
    """Discriminant directions from the (total; within-class) scatter pencil."""
    return generalized_eig(scatter_total_encoding(ds.x), scatter_within_encoding(ds), d)


def cca(x, y, d: int) -> EigenResult:
    """Canonical directions from the (H_x; H_y) pencil.

    H_x is the Hermitian dilation of X C Y^dag and H_y the denominator
    ``paired_scatter_encoding``.  The total scatter of the stacked views
    Z = [X; Y] (Y from row dim) is Z C Z^dag = H_x + H_y, so the pencil
    (Z C Z^dag; H_y) has the eigenvalues of (H_x; H_y) plus 1 and the same
    eigenvectors.  The stacked (x-part, y-part) eigenvectors are normalized
    jointly; the spectrum is symmetric, so the returned top-d values are the
    nonnegative branch.
    """
    x, y, dim = _views(x, y)
    z = np.vstack([embed_power_of_two(x, dim), embed_power_of_two(y, dim)])
    result = generalized_eig(_scatter(z, x.shape[1]), paired_scatter_encoding(x, y), d)
    return replace(result, eigenvalues=result.eigenvalues - 1.0)


def class_correlation_encoding(ds_x: LabeledDataset, ds_y: LabeledDataset) -> BlockEncoding:
    """Hermitian-block encoding of H_d = [[0, M], [M^dag, 0]], M = X C E C Y^dag,
    on one more system qubit.

    C centers all n samples and E = sum_g 1_g 1_g^T links the samples of each
    class; both views must carry the same label for every sample.  The
    stacked views Z+- = [X; +-Y] (Y from row dim, as ``cca`` stacks them)
    have Z C E C Z^dag = [[P, +-M], [+-M^dag, R]], the Gram matrix of
    B = E^1/2 C Z^dag, so H_d = (G+ - G-)/2 is the difference node of two
    Gram nodes with the same alpha = n_max (||X||_F^2 + ||Y||_F^2) and
    ancillas.  Both Gram unitaries are Hermitian, so this one is too, and its
    walk needs no dilation.
    """
    if not np.array_equal(ds_x.labels, ds_y.labels):
        raise ValueError("both views must carry the same label for every sample")
    x, y = ds_x.x, ds_y.x
    dim = register_dim(*x.shape, *y.shape)
    root = similarity_root(_class_ids(ds_x), 2 * dim)
    top, bottom = embed_power_of_two(x, dim), embed_power_of_two(y, dim)
    grams = [_scatter(np.vstack([top, sign * bottom]), x.shape[1], root) for sign in (1, -1)]
    return difference_encoding(*grams)


def dcca(ds_x: LabeledDataset, ds_y: LabeledDataset, d: int) -> EigenResult:
    """Class-aware canonical directions from the (H_d; H_y) pencil.

    H_d is ``class_correlation_encoding``, the Hermitian dilation of
    X C E C Y^dag, and H_y is diag(X C X^dag, Y C Y^dag), the denominator
    ``cca`` uses; both sit on the same stacked system.
    """
    return generalized_eig(class_correlation_encoding(ds_x, ds_y),
                           paired_scatter_encoding(ds_x.x, ds_y.x), d)


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

def ols(x, y_vec) -> RegressionResult:
    """Least squares on the centered design C X, solved two ways.

    The design stores samples as rows and regressors as columns, of any
    shape; C centers its rows, so y holds one entry per row and beta one per
    column.  The closed form pinv(X^T C X) X^T C y and the least-squares solve
    against the block extracted from the centered-design encoding must agree
    within 1e-8; rank deficiency is resolved by the pseudo-inverse and
    reported via the effective rank.
    """
    x = as_matrix(x)
    y = as_array(y_vec).reshape(-1)
    if y.shape[0] != x.shape[0]:
        raise ValueError("target vector length must match the sample (row) count")
    closed = ols_closed_form(x, y)
    be = mc_encoding(x, CenteringMode.CX)
    design = be.alpha * be.extract_block()
    y_e = np.zeros(be.system_dim, dtype=np.result_type(design, y))
    y_e[: y.shape[0]] = y
    sv = np.linalg.svd(design, compute_uv=False)
    effective_rank = int(np.sum(sv > sv[0] * _RANK_RTOL)) if sv.size else 0
    via_encoding, *_ = np.linalg.lstsq(design, y_e, rcond=_RANK_RTOL)
    residual = float(np.linalg.norm(design @ via_encoding - y_e))
    via_encoding = via_encoding[: x.shape[1]]  # the padded columns of the design are zero

    if np.max(np.abs(closed - via_encoding)) > 1e-8:
        raise AssertionError("closed-form and encoded-design solutions disagree")
    beta = via_encoding.real if np.allclose(via_encoding.imag, 0, atol=1e-12) else via_encoding
    return RegressionResult(beta_hat=beta, residual_norm=residual,
                            effective_rank=effective_rank)
