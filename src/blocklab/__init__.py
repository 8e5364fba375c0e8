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
    StatePrepPair,
    VerificationReport,
    adjoint_encoding,
    extract_block,
    linear_combination,
    make_state_prep_pair,
    placement_encoding,
    product,
    rescale_encoding,
    trivial_encoding,
    verify,
)
from .centering import (
    ClassPartition,
    build_uc,
    centering_encoding,
    centering_matrix,
    ones_matrix_encoding,
    per_class_centering,
    similarity_encoding,
    similarity_matrix,
)
from .data_encoding import (
    NormTree,
    build_norm_tree,
    hermitian_dilation,
    hermitian_extension,
    matrix_encoding,
)
from .mean_centering import CenteringMode, classical_center, mc_encoding, mean_vectors
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
