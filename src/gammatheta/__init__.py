"""Certified evaluation of ln Gamma and the Riemann-Siegel theta function.

The fast path (`eval_lngamma`, `eval_lngamma_half`, `eval_theta`) returns a
double-precision value together with a rigorously justified error radius
derived from proven truncation bounds plus a coarse floating-point noise
budget.  The slow path (`oracle_*`) is an arbitrary-precision, self-verifying
reference used to test the fast path and to reproduce the published constant
tables.

The fast path loads no mpmath.  ``gammatheta.oracle``, the one module that
imports it, is registered lazily: its code, and mpmath with it, runs on the
first access to one of its attributes, and the package serves the oracle's
public names from it, ``periodic_bernoulli``, ``half_shift_identity_check``
and ``c_k_string`` among them.
"""

import importlib.util as _util
import sys as _sys
import threading as _threading

from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    ResourceLimitError,
)
from .bernoulli import MAX_INDEX, bernoulli_half, bernoulli_number
from .series import (
    MinTermReport,
    gauss_term,
    k_min,
    partial_sum,
    stirling_term,
    term_coefficient,
    theta_term,
)
from .bounds import (
    CONTAINMENT_T,
    BoundKind,
    BoundResult,
    Target,
    applicable_bounds,
    best_bound,
    c_k,
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
)


def _lazy_submodule(name: str):
    """Register ``gammatheta.<name>`` in ``sys.modules`` without running it."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _lazy_submodule("oracle")
#: Serializes the first load: before Python 3.12 a lazy module is not
#: thread-safe while it executes.
_ORACLE_LOCK = _threading.Lock()

#: The oracle's public names, served from it on first use.
_ORACLE_NAMES = (
    "MAX_DIGITS",
    "SHARPNESS_SPOTS",
    "ConjectureSample",
    "NormalizedErrorRow",
    "RemainderWitness",
    "c_k_string",
    "conjecture_grid",
    "conjecture_scan",
    "half_shift_identity_check",
    "oracle_lngamma",
    "oracle_remainder",
    "oracle_theta",
    "oracle_theta_remainder",
    "periodic_bernoulli",
    "required_table2_digits",
    "sharpness_ratio",
    "table2_row",
    "theta_series_value",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        with _ORACLE_LOCK:
            return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConsistencyError",
    "DomainError",
    "ResourceLimitError",
    "MAX_INDEX",
    "bernoulli_half",
    "bernoulli_number",
    "MinTermReport",
    "gauss_term",
    "k_min",
    "partial_sum",
    "stirling_term",
    "term_coefficient",
    "theta_term",
    "CONTAINMENT_T",
    "BoundKind",
    "BoundResult",
    "Target",
    "applicable_bounds",
    "best_bound",
    "c_k",
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
    *_ORACLE_NAMES,
    "__version__",
]
