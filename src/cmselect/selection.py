"""Moment-selection functions and threshold schedules.

A selection function maps the per-moment slackness statistic to a vector of
shifts in [0, +inf]. A +inf shift removes the moment from the critical-value
computation entirely; finite shifts push the simulated draws upward, making
the moment matter less. Four variants are provided; the hard threshold
`phi1` is the recommended default.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SelectionVector:
    """Per-moment shifts over [0, +inf], +inf meaning the moment is omitted.

    ``source`` records the producing rule; the identity rule "phi4" is the
    only one allowed to carry negative entries.
    """

    shifts: np.ndarray
    source: str = "phi1"

    def __post_init__(self):
        shifts = np.asarray(self.shifts, dtype=float)
        if shifts.ndim != 1:
            raise ValueError("shifts must be a vector")
        if np.any(np.isnan(shifts)) or np.any(np.isneginf(shifts)):
            raise ValueError("shifts must be in [0, +inf] (no NaN or -inf)")
        if self.source != "phi4" and np.any(shifts < 0):
            raise ValueError(f"{self.source} must produce nonnegative shifts")
        shifts.setflags(write=False)
        object.__setattr__(self, "shifts", shifts)

    @property
    def omitted(self) -> np.ndarray:
        return np.isposinf(self.shifts)

    def dominates(self, other: "SelectionVector") -> bool:
        """Componentwise >= comparison, treating +inf as the top element."""
        return bool(np.all(self.shifts >= other.shifts))


class KappaKind(enum.Enum):
    SQRT_LOG_N = "sqrt-log-n"
    SQRT_TWO_LOG_LOG_N = "sqrt-2loglogn"
    FIXED = "fixed"


@dataclass(frozen=True)
class KappaSchedule:
    """Divergent threshold sequence evaluated at a sample size."""

    kind: KappaKind
    value: float = 1.0

    def __post_init__(self):
        # A nonpositive threshold would flip or blow up every selection
        # statistic; an infinite one zeroes it, so nothing is ever omitted.
        if self.kind is KappaKind.FIXED and not 0 < self.value < math.inf:
            raise DomainError("fixed kappa must be positive and finite")

    @classmethod
    def parse(cls, text: str) -> "KappaSchedule":
        """Parse a CLI spelling: sqrt-log-n, sqrt-2loglogn, or fixed:<v>."""
        if text == KappaKind.SQRT_LOG_N.value:
            return cls(KappaKind.SQRT_LOG_N)
        if text == KappaKind.SQRT_TWO_LOG_LOG_N.value:
            return cls(KappaKind.SQRT_TWO_LOG_LOG_N)
        if isinstance(text, str) and text.startswith("fixed:"):
            try:
                value = float(text.split(":", 1)[1])
            except ValueError:
                raise DomainError(f"kappa schedule {text!r} needs a number after 'fixed:'") from None
            return cls(KappaKind.FIXED, value)
        raise DomainError(f"unknown kappa schedule {text!r}")

    def spell(self) -> str:
        if self.kind is KappaKind.FIXED:
            return f"fixed:{self.value}"
        return self.kind.value


# The default schedule of `run_test`, `ExperimentConfig` and --kappa.
DEFAULT_KAPPA = KappaSchedule(KappaKind.SQRT_LOG_N)


def kappa(schedule: KappaSchedule, n: int) -> float:
    """Evaluate the schedule at sample size n."""
    if schedule.kind is KappaKind.FIXED:
        return schedule.value
    if n < 2:
        raise DomainError("log-based kappa schedules need n >= 2")
    if schedule.kind is KappaKind.SQRT_LOG_N:
        return math.sqrt(math.log(n))
    if n < 3:
        raise DomainError("sqrt(2 log log n) needs n >= 3")
    return math.sqrt(2.0 * math.log(math.log(n)))


def phi1(xi: np.ndarray) -> SelectionVector:
    """Hard threshold: shift 0 where xi_j <= 1, +inf where xi_j > 1."""
    xi = np.asarray(xi, dtype=float)
    return SelectionVector(np.where(xi > 1.0, np.inf, 0.0), source="phi1")


def phi2(xi: np.ndarray) -> SelectionVector:
    """Interpolated threshold: 0 up to xi_j = 1, +inf from xi_j = 2.

    Between the knots the shift rises linearly to 10; any nondecreasing
    bridge is admissible and linear is the simplest.
    """
    xi = np.asarray(xi, dtype=float)
    shifts = np.where(xi <= 1.0, 0.0, np.where(xi >= 2.0, np.inf, 10.0 * (xi - 1.0)))
    return SelectionVector(shifts, source="phi2")


def phi3(xi: np.ndarray) -> SelectionVector:
    """Positive-part shift: max(0, xi_j)."""
    xi = np.asarray(xi, dtype=float)
    return SelectionVector(np.maximum(xi, 0.0), source="phi3")


def phi4(xi: np.ndarray) -> SelectionVector:
    """Identity shift. May carry negative entries, so it fails the
    nonnegativity assumption the strict power comparisons need."""
    return SelectionVector(np.asarray(xi, dtype=float).copy(), source="phi4")


# The selection functions by number: the one list of the values `phi_k`,
# `ExperimentConfig.phi` and --phi accept.
SELECTIONS = {1: phi1, 2: phi2, 3: phi3, 4: phi4}


def check_phi(phi) -> None:
    """Raise DomainError unless ``phi`` is a key of SELECTIONS; an
    unhashable value is not one."""
    try:
        known = phi in SELECTIONS
    except TypeError:
        known = False
    if not known:
        raise DomainError(f"phi must be one of {', '.join(map(str, SELECTIONS))}")


def phi_k(k: int, xi: np.ndarray) -> SelectionVector:
    """Dispatch on the selection-function number, a key of SELECTIONS."""
    check_phi(k)
    return SELECTIONS[k](xi)
