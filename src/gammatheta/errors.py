"""Exception taxonomy shared by every module.

Four failure classes cover the whole library: bad inputs (domain), requests
the double-precision path cannot certify (accuracy), exhausted hard caps
(resource), and oracle self-check failures (consistency).  The CLI maps each
class to a structured error record and a distinct exit status.
"""
from __future__ import annotations

__all__ = [
    "DomainError",
    "AccuracyError",
    "ResourceLimitError",
    "ConsistencyError",
]


class DomainError(ValueError):
    """Input outside an operation's documented domain (cut argument, odd
    Bernoulli index, non-finite u, insufficient digits, ...)."""


class AccuracyError(RuntimeError):
    """A requested target accuracy is unattainable.

    Carries ``best_radius``, the smallest certified radius the evaluator
    could offer, so callers can downgrade instead of failing blind.
    """

    def __init__(self, message: str, best_radius: float | None = None):
        super().__init__(message)
        self.best_radius = best_radius


class ResourceLimitError(RuntimeError):
    """A hard cap was hit (Bernoulli index cap, precision cap, grid size)."""


class ConsistencyError(RuntimeError):
    """Two independent internal computations disagreed beyond tolerance.

    Raised by the oracle's self-checks and by internal checks no input should
    reach; a test-failure signal, never an expected runtime condition.
    """
