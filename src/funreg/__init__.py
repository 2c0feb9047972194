"""Functional linear regression with spectral regularization.

Library surface: discrete Hilbert-space primitives, covariance
eigensystems, regularization filters, the regularized estimator with
CLT prediction intervals, and a seeded Monte Carlo simulation lab.
"""

from .errors import (
    DegenerateFitError,
    FunregError,
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
from .covariance import eigendecompose
from .filters import (
    FilterSpec,
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
    coverage_experiment,
    fixed_x_experiment,
    generate_dataset,
    kl_sample,
    norm_divergence_demo,
    population_report,
)

__version__ = "0.1.0"
