"""Moment-selection functions and threshold schedules.

A selection function maps the per-moment slackness statistic to a vector of
shifts in [0, +inf]. A +inf shift removes the moment from the critical-value
computation entirely; finite shifts push the simulated draws upward, making
the moment matter less. Five variants are provided; the hard threshold
`phi1` is the recommended default.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCap, DomainError
from .statistics import ShiftedInput, StatisticKind, aqlr, mmm

# phi5 enumerates all binding patterns, which is exponential in J.
_PHI5_MAX_J = 20


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
        # A nonpositive threshold would flip or blow up every selection statistic.
        if self.kind is KappaKind.FIXED and not self.value > 0:
            raise DomainError("fixed kappa must be positive")

    @classmethod
    def parse(cls, text: str) -> "KappaSchedule":
        """Parse a CLI spelling: sqrt-log-n, sqrt-2loglogn, or fixed:<v>."""
        if text == KappaKind.SQRT_LOG_N.value:
            return cls(KappaKind.SQRT_LOG_N)
        if text == KappaKind.SQRT_TWO_LOG_LOG_N.value:
            return cls(KappaKind.SQRT_TWO_LOG_LOG_N)
        if isinstance(text, str) and text.startswith("fixed:"):
            return cls(KappaKind.FIXED, float(text.split(":", 1)[1]))
        raise DomainError(f"unknown kappa schedule {text!r}")

    def spell(self) -> str:
        if self.kind is KappaKind.FIXED:
            return f"fixed:{self.value}"
        return self.kind.value


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


def phi2(xi: np.ndarray, lower: float = 1.0, upper: float = 2.0, ceiling: float = 10.0) -> SelectionVector:
    """Interpolated threshold: 0 up to ``lower``, +inf from ``upper``.

    Between the knots the shift rises linearly to ``ceiling``; any
    nondecreasing bridge is admissible and linear is the simplest.
    """
    if not (lower < upper):
        raise DomainError("phi2 needs lower < upper")
    if ceiling < 0:
        raise DomainError("phi2 ceiling must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    ramp = ceiling * (xi - lower) / (upper - lower)
    shifts = np.where(xi <= lower, 0.0, np.where(xi >= upper, np.inf, ramp))
    return SelectionVector(shifts, source="phi2")


def phi3(xi: np.ndarray) -> SelectionVector:
    """Positive-part shift: max(0, xi_j)."""
    xi = np.asarray(xi, dtype=float)
    return SelectionVector(np.maximum(xi, 0.0), source="phi3")


def phi4(xi: np.ndarray) -> SelectionVector:
    """Identity shift. May carry negative entries, so it fails the
    nonnegativity assumption the strict power comparisons need."""
    return SelectionVector(np.asarray(xi, dtype=float).copy(), source="phi4")


def phi5(
    xi: np.ndarray,
    omega: np.ndarray,
    kind: StatisticKind = StatisticKind.MMM,
    penalty=None,
) -> SelectionVector:
    """Binding-pattern search: keep the subset minimizing S(-c*xi, Omega) - zeta(|c|).

    Enumerates every pattern c in {0,1}^J; the moment is kept (shift 0) where
    c_j = 1 and omitted (+inf) where c_j = 0. Ties prefer keeping more
    moments, then the lexicographically first pattern. ``penalty`` is the
    increasing function zeta, defaulting to the identity. +inf entries of xi
    count as zero inside the objective when dropped, per the convention for
    omitted moments.
    """
    xi = np.asarray(xi, dtype=float)
    j = xi.size
    if j > _PHI5_MAX_J:
        raise DimensionCap(f"phi5 enumerates 2^J patterns; J={j} exceeds the cap {_PHI5_MAX_J}")
    if penalty is None:
        penalty = float
    omega = np.asarray(omega, dtype=float)

    best = None
    for pattern in itertools.product((1, 0), repeat=j):
        c = np.array(pattern, dtype=float)
        if np.any((c == 1.0) & np.isposinf(xi)):
            # Keeping an infinitely slack moment scores +inf, never optimal.
            continue
        # c_j = 0 against xi_j = +inf counts as zero, not NaN
        arg = np.where(c == 1.0, -xi, 0.0)
        value = _statistic_value(kind, arg, omega)
        score = value - float(penalty(int(c.sum())))
        key = (score, -int(c.sum()), pattern)
        if best is None or key < best[0]:
            best = (key, c)
    kept = best[1]
    return SelectionVector(np.where(kept == 1.0, 0.0, np.inf), source="phi5")


def _statistic_value(kind: StatisticKind, vec: np.ndarray, omega: np.ndarray) -> float:
    shifted = ShiftedInput(vec, omega)
    if kind is StatisticKind.MMM:
        return mmm(shifted)
    return aqlr(shifted).value


def phi_k(k: int, xi: np.ndarray, omega: np.ndarray | None = None) -> SelectionVector:
    """Dispatch on the selection-function number 1 through 5."""
    if k == 1:
        return phi1(xi)
    if k == 2:
        return phi2(xi)
    if k == 3:
        return phi3(xi)
    if k == 4:
        return phi4(xi)
    if k == 5:
        if omega is None:
            raise DomainError("phi5 needs the correlation matrix")
        return phi5(xi, omega)
    raise DomainError(f"unknown selection function index {k}")
