"""Reverse eigenvalue and norm bounds for matrix geometric means.

The package evaluates the scalar constants (Specht ratio, generalized
Kantorovich constant, exponential reverse factors) that cap how far a
weighted matrix geometric mean can overshoot its exponential counterpart,
and certifies the corresponding matrix inequalities on seeded random
instances at desk scale.
"""

import os
import sys


def _set_one_blas_thread() -> tuple[str, ...]:
    """Set the BLAS thread counts to 1 for numpy's import below, unless the
    caller has set them or has imported numpy already; return those set.

    The eigensolver's matrix products are of desk-scale size, where BLAS
    threads gain nothing (a split call sets one thread itself, whatever the
    import order: ``_pool``).  The BLAS reads the variables as it loads, so
    they are removed again at the end of this module: the subprocesses the
    caller starts later do not inherit them."""
    if "numpy" in sys.modules:
        return ()
    names = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    unset = tuple(name for name in names if name not in os.environ)
    os.environ.update(dict.fromkeys(unset, "1"))
    return unset


# Set before the modules below import numpy, not by importing numpy here:
# compiled after numpy, the modules would raise the peak RSS by about 1 MB.
_ONE_BLAS_THREAD = _set_one_blas_thread()

from .certify import (
    CSV_HEADER,
    INEQUALITY_IDS,
    ConvergenceRow,
    InequalityReport,
    SweepResult,
    certify_inequality,
    compare_constants_remark,
    compare_seo_constants,
    compare_specht_vs_fm,
    convergence_study,
    run_instances,
    specht_fm_sign_scan,
)
from .constants import (
    ConstantEval,
    evaluate_constant,
    fm_factor,
    kantorovich,
    kantorovich_limit_root,
    kantorovich_lower_bound,
    specht,
    specht_p_root,
)
from .errors import (
    BadGridError,
    BadIndexError,
    BadRangeError,
    CondError,
    DimMismatchError,
    DomainError,
    EmptySequenceError,
    GoldenBoundsError,
    HypothesisViolatedError,
    NoConvergenceError,
    NonPositiveError,
    NonSquareError,
    NotHermitianError,
)
from .linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    congruence,
    exp_h,
    frobenius_distance,
    inv_sqrt_congruence,
    ky_fan_norm,
    log_pd,
    power,
    schatten_norm,
    trace,
)
from .means import (
    geometric_mean,
    limit_probe,
    log_euclidean,
    mean_power,
)
from .orders import loewner_leq, olson_leq
from .sampling import (
    SamplerConfig,
    bounded_hermitian_pair,
    olson_exponential_pair,
    olson_sandwich_pair,
    ordered_chain_pair,
    ordered_exponential_chain_pair,
    philox_generator,
    random_bounded_hermitian,
    random_isometry,
    random_pd,
    random_pd_pair,
    sandwich_pair,
)

__version__ = "0.1.0"

for _name in _ONE_BLAS_THREAD:
    del os.environ[_name]

__all__ = [
    "BadGridError",
    "BadIndexError",
    "BadRangeError",
    "CSV_HEADER",
    "CondError",
    "ConstantEval",
    "ConvergenceRow",
    "DimMismatchError",
    "DomainError",
    "EmptySequenceError",
    "GoldenBoundsError",
    "HermitianMatrix",
    "HypothesisViolatedError",
    "INEQUALITY_IDS",
    "InequalityReport",
    "NoConvergenceError",
    "NonPositiveError",
    "NonSquareError",
    "NotHermitianError",
    "PositiveDefiniteMatrix",
    "SamplerConfig",
    "SpectralDecomposition",
    "SweepResult",
    "bounded_hermitian_pair",
    "certify_inequality",
    "compare_constants_remark",
    "compare_seo_constants",
    "compare_specht_vs_fm",
    "congruence",
    "convergence_study",
    "evaluate_constant",
    "exp_h",
    "fm_factor",
    "frobenius_distance",
    "geometric_mean",
    "inv_sqrt_congruence",
    "kantorovich",
    "kantorovich_limit_root",
    "kantorovich_lower_bound",
    "ky_fan_norm",
    "limit_probe",
    "loewner_leq",
    "log_euclidean",
    "log_pd",
    "mean_power",
    "olson_exponential_pair",
    "olson_leq",
    "olson_sandwich_pair",
    "ordered_chain_pair",
    "ordered_exponential_chain_pair",
    "philox_generator",
    "power",
    "random_bounded_hermitian",
    "random_isometry",
    "random_pd",
    "random_pd_pair",
    "run_instances",
    "sandwich_pair",
    "schatten_norm",
    "specht",
    "specht_fm_sign_scan",
    "specht_p_root",
    "trace",
]
