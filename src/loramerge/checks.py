"""The package's input rules and its two error kinds.

A refused input raises CodedError, whose stable code, when it has one, prefixes
its message. A computation on valid input that fails numerically (divergence,
a non-finite value, non-convergence) raises NumericalAbort. Both are
ValueErrors; the CLI exits 1 for an abort and 2 for any other ValueError.
"""

from __future__ import annotations

import numpy as np

SIMPLEX_TOL = 1e-9


class CodedError(ValueError):
    """A validation error; one with a stable code reads "code: message"."""

    def __init__(self, message: str, code: str | None = None):
        super().__init__(f"{code}: {message}" if code else message)
        self.code = code


class NumericalAbort(CodedError):
    """A computation on valid input that failed numerically; the CLI reports
    it as a runtime failure (exit 1)."""


def is_integer(v) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A Python or numpy integer or float, not a bool, that converts to a finite
    float (False for NaN, inf and integers beyond the float range)."""
    return bool((is_integer(v) or isinstance(v, (float, np.floating))) and abs(v) < 1e308)


def check_simplex(rho, n: int) -> np.ndarray:
    """rho as a flat float64 vector of n nonnegative entries summing to 1."""
    rho = np.asarray(rho, dtype=np.float64).ravel()
    if rho.size != n:
        raise CodedError(f"preference length {rho.size} != number of tasks {n}")
    if not (np.all(rho >= 0) and abs(float(np.sum(rho)) - 1.0) <= SIMPLEX_TOL):  # NaN fails
        raise CodedError("preference must be nonnegative and sum to 1")
    return rho


def check_fields(values: dict, rules) -> None:
    """Refuse the first (name, ok, rule) of rules whose ok is false, naming
    values[name]."""
    for name, ok, rule in rules:
        if not ok:
            raise CodedError(f"{name} must be {rule}, got {values[name]!r}", code="bad_config")
