"""blocklab: a desk-scale simulator for block-encoded mean centering.

Builds explicit unitaries realizing block encodings of the centering
projector and of data matrices, composes them into encodings of centered
matrices and the scatter operators behind PCA, LDA, CCA, DCCA and OLS, and
verifies every construction against classical linear algebra.
"""

from .matrix_core import (
    CapExceededError,
    cap_qubits,
    embed_power_of_two,
    is_unitary,
    kron,
    read_matrix_csv,
    unitary_completion,
    write_matrix_csv,
)
from .block_encoding import (
    BlockEncoding,
    VerificationReport,
    adjoint_encoding,
    difference_encoding,
    extract_block,
    gram_encoding,
    product,
    trivial_encoding,
    verify,
)
from .centering import build_uc, centering_encoding, similarity_encoding
from .data_encoding import (
    NormTree,
    build_norm_tree,
    hermitian_dilation,
    matrix_encoding,
)
from .mean_centering import mc_encoding
from .oracles import (CenteringMode, centering_matrix, classical_center, hermitian_extension,
                      mean_vectors)
from .spectral import (
    EstimationMethod,
    PhaseEstimate,
    exact_evolution,
    phase_estimation,
    walk_operator,
)
from .applications import (
    EigenResult,
    LabeledDataset,
    RegressionResult,
    cca,
    dcca,
    generalized_eig,
    lda,
    ols,
    pca,
    scatter_total_encoding,
    scatter_within_encoding,
)

__version__ = "0.1.0"
