"""Certified evaluation of ln Gamma and the Riemann-Siegel theta function.

The fast path (`eval_lngamma`, `eval_lngamma_half`, `eval_theta`) returns a
double-precision value together with a rigorously justified error radius
derived from proven truncation bounds plus a coarse floating-point noise
budget.  The slow path (`oracle_*`) is an arbitrary-precision, self-verifying
reference used to test the fast path and to reproduce the published constant
tables.
"""

from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    ResourceLimitError,
)
from .bernoulli import (
    MAX_INDEX,
    bernoulli_half,
    bernoulli_number,
    bernoulli_poly,
    half_shift_identity_check,
    periodic_bernoulli,
    recurrence_identity_check,
    zeta_even,
)
from .series import (
    MinTermReport,
    gauss_term,
    k_min,
    partial_sum,
    stirling_term,
    term_coefficient,
    term_ratio,
    theta_term,
    unimodality_check,
)
from .bounds import (
    CONTAINMENT_T,
    BoundKind,
    BoundResult,
    Target,
    applicable_bounds,
    best_bound,
    c_k,
    c_k_string,
    conjectured_bound,
    containment_grid,
    eta,
    eta_fraction,
    faulty_theta_bound,
)
from .lngamma import (
    CertifiedValue,
    TruncationPlan,
    choose_k,
    eval_lngamma,
    eval_lngamma_half,
)
from .theta import (
    ThetaResult,
    ThetaVariant,
    arctan_term,
    eval_theta,
    re_rhat_identity,
)
from .oracle import (
    MAX_DIGITS,
    SHARPNESS_SPOTS,
    ConjectureSample,
    NormalizedErrorRow,
    RemainderWitness,
    conjecture_grid,
    conjecture_scan,
    oracle_lngamma,
    oracle_remainder,
    oracle_theta,
    oracle_theta_remainder,
    required_table2_digits,
    sharpness_ratio,
    table2_row,
    theta_series_value,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConsistencyError",
    "DomainError",
    "ResourceLimitError",
    "MAX_INDEX",
    "bernoulli_half",
    "bernoulli_number",
    "bernoulli_poly",
    "half_shift_identity_check",
    "periodic_bernoulli",
    "recurrence_identity_check",
    "zeta_even",
    "MinTermReport",
    "gauss_term",
    "k_min",
    "partial_sum",
    "stirling_term",
    "term_coefficient",
    "term_ratio",
    "theta_term",
    "unimodality_check",
    "CONTAINMENT_T",
    "BoundKind",
    "BoundResult",
    "Target",
    "applicable_bounds",
    "best_bound",
    "c_k",
    "c_k_string",
    "conjectured_bound",
    "containment_grid",
    "eta",
    "eta_fraction",
    "faulty_theta_bound",
    "CertifiedValue",
    "TruncationPlan",
    "choose_k",
    "eval_lngamma",
    "eval_lngamma_half",
    "ThetaResult",
    "ThetaVariant",
    "arctan_term",
    "eval_theta",
    "re_rhat_identity",
    "MAX_DIGITS",
    "SHARPNESS_SPOTS",
    "ConjectureSample",
    "NormalizedErrorRow",
    "RemainderWitness",
    "conjecture_grid",
    "conjecture_scan",
    "oracle_lngamma",
    "oracle_remainder",
    "oracle_theta",
    "oracle_theta_remainder",
    "required_table2_digits",
    "sharpness_ratio",
    "table2_row",
    "theta_series_value",
    "__version__",
]
