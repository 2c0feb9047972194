"""Functional linear regression with spectral regularization.

Library surface: discrete Hilbert-space primitives, covariance
eigensystems, regularization filters, the regularized estimator with
CLT prediction intervals, and a seeded Monte Carlo simulation lab.
"""

from .errors import (
    DegenerateFitError,
    FunregError,
    GridMismatchError,
    ValidationError,
)
from .hilbert import (
    Curve,
    Grid,
    inner_product,
    load_curves_csv,
    make_trapezoid_grid,
    norm,
    save_curves_csv,
)
from .covariance import (
    CovarianceOperator,
    SpectralDecomposition,
    eigendecompose,
    empirical_covariance,
)
from .filters import (
    FilterSpec,
    H3Report,
    check_h3,
    effective_rank,
    filter_values,
    select_kn,
)
from .estimator import (
    EstimatorFit,
    PredictionInterval,
    fit,
    load_fit,
    normalizers,
    predict,
    prediction_interval,
    save_fit,
)
from .simlab import (
    CoeffRule,
    CoverageReport,
    EigenDecay,
    SpectralModel,
    condition_u_diagnostic,
    coverage_experiment,
    eigen_inequality_check,
    fixed_x_experiment,
    generate_dataset,
    kl_sample,
    norm_divergence_demo,
    true_normalizers,
    truncation_bias,
    variance_lower_bound,
)

__version__ = "0.1.0"
