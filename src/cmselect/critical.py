"""Critical values and test decisions.

All procedures simulate the null distribution of the statistic at a selected
shift vector and read off an upper quantile. Two simulation modes exist:

* asymptotic: draws are correlated standard normals built from the Cholesky
  factor of the sample correlation matrix;
* bootstrap: draws are recentered, studentized resampled means.

The empirical quantile at level q is the order statistic at index ceil(q * R)
of the sorted draws, the right-continuous inverse of the empirical CDF.

The two modes differ only in where the draws of (G, Omega) come from. One
draws object per sample, `AsymptoticDraws` or `BootstrapDraws` (which keeps
its valid replicates only), serves every procedure and both statistics. Each
only builds G and Omega; both draw S(G + shift, Omega) through the one
`_Draws.statistic_draws`, differing only in the shift. `critical_values`
reads every requested procedure's critical value off one such object,
tilting the sample once for CMS and CMS_FC; `run_test` in both modes and the
Monte Carlo harness all go through it, so comparisons across procedures are
paired. `rejects` is the one rejection rule.

GMS, CMS, CMS_FC and RMS select through one formula, `selection_step`'s
phi_k(phi, xi) at xi = sqrt(n) m / sqrt(v) / kappa; they differ only in the
(m, v, kappa) they read.

The resampling counts come from one kernel, `bootstrap_counts`, which
`BootstrapDraws` only consumes. They depend on the sample through its row
count alone, so `run_test` on its seeded stream reads them from
`seeded_counts`, a one-entry cache keyed by (seed, n, draws): `cmselect
invert` builds them once per grid instead of once per point. The cache
holds one draws-by-n float64 array, 40 MB at n=500 and 10000 draws, stored
column-major so that ``counts.T``, the resampling product's operand, is
C-contiguous (see `bootstrap_counts`). For the same reason the Monte Carlo
harness draws one set per replication and resamples every mean pattern
with it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateColumn, DomainError, MissingTable, TooManyDegenerate
from .moments import MomentSample, MomentSummary, cholesky_factor, summarize, variance_floor
from .selection import KappaSchedule, SelectionVector, check_phi, kappa as kappa_value, phi_k
from .statistics import StatisticKind, evaluate, shifted_statistic_batch
from .streams import ASYMPTOTIC, BOOTSTRAP, substream
from .tilt import TiltResult, tilt

# Share of degenerate bootstrap replicates tolerated before aborting.
_DEGENERATE_CEILING = 0.01
# Draws whose statistics are evaluated, and asymptotic normals drawn, at once.
_DRAWS_CHUNK = 200_000
# Bootstrap replicates whose resampling counts are drawn at once.
_COUNTS_CHUNK = 1000

MODE_ASYMPTOTIC = "AsymptoticSim"
MODE_BOOTSTRAP = "Bootstrap"


@dataclass(frozen=True)
class CriticalValueReport:
    """A critical value plus everything needed to audit how it was computed."""

    value: float
    method: str
    mode: str
    draws: int
    selection: SelectionVector
    alpha: float
    supplementary: dict = field(default_factory=dict)
    tilt_fallback: bool = False
    skipped_draws: int = 0

    def to_dict(self) -> dict:
        shifts = ["inf" if math.isinf(s) else float(s) for s in self.selection.shifts]
        record = {
            "value": self.value,
            "method": self.method,
            "mode": self.mode,
            "draws": self.draws,
            "alpha": self.alpha,
            "selection": shifts,
            "selection_rule": self.selection.source,
            "skipped_draws": self.skipped_draws,
        }
        if self.supplementary:
            record["supplementary"] = _jsonable(self.supplementary)
        if self.tilt_fallback:
            record["tilt_fallback"] = True
        return record


@dataclass(frozen=True)
class TestDecision:
    """Outcome of one test at one parameter value."""

    statistic: float
    critical_value: CriticalValueReport
    reject: bool
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "critical_value": self.critical_value.to_dict(),
            "reject": self.reject,
            "extras": _jsonable(self.extras),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return "inf" if math.isinf(v) else v
    return value


def upper_quantile(draws: np.ndarray, level: float) -> float:
    """Order statistic at index ceil(level * m): inf{x : F_hat(x) >= level}.

    A partial sort places the k-th smallest draw, the value a full sort
    would put there, without ordering the rest.
    """
    if not 0.0 < level <= 1.0:
        raise DomainError("quantile level must be in (0, 1]")
    draws = np.asarray(draws, dtype=float)
    m = draws.size
    if m == 0:
        raise DomainError("cannot take a quantile of zero draws")
    k = min(m, max(1, math.ceil(level * m)))
    return float(np.partition(draws, k - 1)[k - 1])


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 0.5:
        raise DomainError("alpha must lie in (0, 1/2)")


def rsw_beta(alpha: float, beta: float | None = None) -> float:
    """First-stage level of the two-step test: alpha / 10 unless given, in (0, alpha)."""
    if beta is None:
        beta = alpha / 10.0
    if not 0.0 < beta < alpha:
        raise DomainError("beta must lie in (0, alpha)")
    return beta


# ---------------------------------------------------------------------------
# Draw bundles
# ---------------------------------------------------------------------------


class _Draws:
    """Draws of (G, Omega) on one sample, shared across procedures. Subclasses
    supply ``g_recentered_stud`` (a row per draw), ``omega_star`` (one (J, J)
    Omega, or one per draw), ``mode``, ``n_draws`` and ``skipped``."""

    # The AQLR clamped sets carried between calls; None until the first.
    _clamped = None

    @cached_property
    def _omega_adjusted(self) -> np.ndarray:
        # Looked up on cmselect.statistics at call time, where the benchmark's
        # tracer wraps it. A (J, J) Omega is adjusted as a batch of one.
        from .statistics import adjusted_sigma_batch

        omega = self.omega_star
        j = omega.shape[-1]
        return adjusted_sigma_batch(omega.reshape(-1, j, j)).reshape(omega.shape)

    def statistic_draws(self, shift: np.ndarray, kind: StatisticKind, omit: np.ndarray | None = None) -> np.ndarray:
        """Draws of S(G + shift, Omega), with ``shift`` finite and ``omit``
        masking omitted moments, evaluated _DRAWS_CHUNK draws at a time.

        Every AQLR call solves one QP per draw on the same G and Omega, so
        each call's final clamped sets are kept as the next call's first
        guess (see `shifted_statistic_batch`). The first call starts from
        the solver's default guess, the negative entries. The adjusted Omega
        is built on the first call that keeps a moment: with every moment
        omitted the statistic is zero and reads no Omega.
        """
        vec = self.g_recentered_stud + shift
        sigma = self.omega_star
        if kind is StatisticKind.AQLR:
            if omit is None or not omit.all():
                sigma = self._omega_adjusted
            if self._clamped is None:
                self._clamped = vec < 0.0
        out = np.empty(len(vec))
        for start in range(0, len(vec), _DRAWS_CHUNK):
            block = slice(start, start + _DRAWS_CHUNK)
            clamped = None if kind is StatisticKind.MMM else self._clamped[block]
            sub = sigma if sigma.ndim == 2 else sigma[block]
            out[block] = shifted_statistic_batch(kind, vec[block], sub, omit, clamped)
        return out

    def selection_draws(self, selection: SelectionVector, kind: StatisticKind) -> np.ndarray:
        omit = selection.omitted
        return self.statistic_draws(np.where(omit, 0.0, selection.shifts), kind, omit)

    def selection_quantile(self, selection: SelectionVector, kind: StatisticKind, level: float) -> float:
        return upper_quantile(self.selection_draws(selection, kind), level)


class AsymptoticDraws(_Draws):
    """Draws of (Omega^(1/2) Z, Omega) for iid standard normal Z and the
    sample correlation Omega, kept so that every procedure reads the same
    draws. Omega is one matrix for every draw, so its AQLR adjustment
    happens once; normals are drawn _DRAWS_CHUNK rows at a time.
    """

    mode = MODE_ASYMPTOTIC
    skipped = 0

    def __init__(self, correlation: np.ndarray, n_draws: int, rng: np.random.Generator):
        if n_draws < 100:
            raise DomainError("asymptotic simulation needs at least 100 draws")
        factor = cholesky_factor(correlation)
        self.n_draws = n_draws
        self.omega_star = correlation
        self.g_recentered_stud = np.empty((n_draws, len(correlation)))
        for start in range(0, n_draws, _DRAWS_CHUNK):
            take = min(_DRAWS_CHUNK, n_draws - start)
            self.g_recentered_stud[start : start + take] = rng.standard_normal((take, len(correlation))) @ factor.T


class BootstrapDraws(_Draws):
    """Per-replicate resampled summaries, shared across procedures.

    Resampling is encoded as multinomial row counts, one row per replicate
    from `bootstrap_counts`, so the means and the J(J+1)/2 distinct second
    moments come out of one matrix product, which reads the counts once. The
    product stays unchunked: BLAS does not promise that a block of rows comes
    out bitwise equal to the same rows of the whole product. It is kept as
    it comes out, moment-major: one contiguous length-B row per moment or
    moment pair, so every per-replicate pass runs over long rows rather than
    over B short ones. The covariances are mirrored into the full J×J block.
    Replicates in which some column degenerates (zero resampled variance) are
    flagged in ``valid`` and dropped here, so every per-replicate array holds
    the valid replicates only; their count is reported on the resulting
    critical values. The public arrays stay replicate-major and C-contiguous,
    each made by one transposing copy rather than left a strided view: numpy
    sums a C-ordered row pairwise and an F-ordered one left to right, so the
    layout a consumer reads can decide its bytes.
    """

    mode = MODE_BOOTSTRAP

    def __init__(self, sample: MomentSample, summary: MomentSummary, counts: np.ndarray):
        # Resampling the centered columns keeps E[x^2] - E[x]^2 free of
        # cancellation at large column offsets.
        x = sample.values - summary.mean
        n, j = x.shape
        n_draws = counts.shape[0]

        upper_i, upper_j = np.triu_indices(j)
        columns = np.hstack([x, x[:, upper_i] * x[:, upper_j]])
        # counts @ columns, formed as columns.T @ counts.T: OpenBLAS 0.3.31
        # runs that orientation faster at large B (12.9 against 16.8 ms at
        # n=500, J=4, B=10000 on one thread of a 2-vCPU Haswell-class VM), and
        # both gave equal bytes at (n, J, B) = (250, 4, 1000), (100, 10, 1000)
        # and (500, 4, 10000). The counts are column-major, so counts.T is
        # packed without a transposing copy.
        moments = columns.T @ counts.T
        moments /= n
        g_star, cross = moments[:j], moments[j:]
        cross -= g_star[upper_i] * g_star[upper_j]
        # Row (a, b) of the J×J block reads distinct pair (min, max).
        pair = np.empty((j, j), dtype=np.intp)
        pair[upper_i, upper_j] = pair[upper_j, upper_i] = np.arange(upper_i.size)

        var_star = cross[np.diagonal(pair)]
        floor = variance_floor(sample.values, x)
        valid = np.logical_and.reduce(var_star > floor[:, None], axis=0)
        skipped = int(n_draws - np.count_nonzero(valid))
        if skipped > _DEGENERATE_CEILING * n_draws:
            raise TooManyDegenerate(skipped, n_draws)
        if skipped:
            g_star, cross, var_star = g_star[:, valid], cross[:, valid], var_star[:, valid]

        sd_star = np.sqrt(var_star)
        inv_sd = 1.0 / sd_star
        # Entry (a, b) is (S_ab * inv_a) * inv_b.
        omega_star = cross[pair]
        omega_star *= inv_sd[:, None]
        omega_star *= inv_sd
        g_recentered_stud = math.sqrt(n) * g_star * inv_sd
        # Per-replicate minimum of the reverse-centered studentized deviations,
        # the pivot behind the first-stage confidence rectangle.
        rectangle_min = np.min(-g_recentered_stud, axis=0)
        # The moment-major temporaries go before the transposing copies.
        del moments, g_star, cross, var_star, inv_sd

        self.n_draws = n_draws
        self.valid = valid
        self.skipped = skipped
        self.sd_star = sd_star.T.copy()
        self.g_recentered_stud = g_recentered_stud.T.copy()
        self.omega_star = np.moveaxis(omega_star, -1, 0).copy()
        self.rectangle_min = rectangle_min


def bootstrap_counts(rng: np.random.Generator, n: int, n_draws: int) -> np.ndarray:
    """(n_draws, n) float64 multinomial counts: row b counts how often each of
    the n observations is drawn into bootstrap replicate b.

    Rows are filled _COUNTS_CHUNK at a time. Drawing the indices chunk by
    chunk reads the generator's stream exactly as one (n_draws, n) draw
    would, so the counts and the generator's end state do not depend on the
    chunk size, while the int64 temporaries stay bounded by one chunk.

    The array is column-major (Fortran order), filled chunk by chunk in
    place: `BootstrapDraws` multiplies by ``counts.T``, which is then
    C-contiguous, so BLAS packs it without a transposing copy. At n=500,
    J=4 and 10000 draws that product took about 9 instead of 13 ms on one
    thread of a 2-vCPU VM, with equal bytes. Converting a row-major array
    afterwards would hold two copies at once.
    """
    if n_draws < 100:
        raise DomainError("bootstrap needs at least 100 draws")
    counts = np.empty((n_draws, n), order="F")
    for start in range(0, n_draws, _COUNTS_CHUNK):
        rows = min(_COUNTS_CHUNK, n_draws - start)
        indices = rng.integers(0, n, size=(rows, n))
        indices += np.arange(0, rows * n, n)[:, None]
        counts[start : start + rows] = np.bincount(indices.ravel(), minlength=rows * n).reshape(rows, n)
    return counts


@lru_cache(maxsize=1)
def seeded_counts(seed: int, n: int, n_draws: int) -> np.ndarray:
    """`bootstrap_counts` on the (seed, BOOTSTRAP) substream, read-only and
    column-major like every `bootstrap_counts` array.

    Every sample of n rows tested with one seed and draw count resamples
    with these same counts, so a grid of such samples (`cmselect invert`)
    builds them once, and every point's resampling product reads the
    C-contiguous ``counts.T``. The cache holds the last array only.
    """
    counts = bootstrap_counts(substream(seed, BOOTSTRAP), n, n_draws)
    counts.setflags(write=False)
    return counts


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------


def rsw_critical_value(
    draws: BootstrapDraws,
    summary: MomentSummary,
    kind: StatisticKind,
    alpha: float,
    beta: float,
) -> CriticalValueReport:
    """Critical value of the two-step test; ``supplementary["first_stage"]`` is
    its first-stage indicator. S(sqrt(n)(g* - g + lambda*), Sigma*) is drawn
    in the scale-invariant form S(G* + sqrt(n) D*^(-1/2) lambda*, Omega*),
    which shares its draws with the selection-based procedures."""
    k_inv = upper_quantile(draws.rectangle_min, beta)
    lower_edge = summary.mean + summary.std * k_inv / math.sqrt(summary.n)
    lambda_star = np.maximum(lower_edge, 0.0)
    first_stage = bool(np.any(lower_edge < 0.0))
    no_omission = bool(np.all(lambda_star == 0.0))

    shift = math.sqrt(summary.n) * lambda_star / draws.sd_star
    return CriticalValueReport(
        value=upper_quantile(draws.statistic_draws(shift, kind), 1.0 - alpha + beta),
        method="RSW",
        mode=MODE_BOOTSTRAP,
        draws=draws.n_draws,
        selection=SelectionVector(np.zeros(summary.n_moments), source="rsw"),
        alpha=alpha,
        supplementary={
            "beta": beta,
            "k_inv_beta": k_inv,
            "lambda_star": lambda_star,
            "first_stage": first_stage,
            "no_omission": no_omission,
        },
        skipped_draws=draws.skipped,
    )


# ---------------------------------------------------------------------------
# Refined selection hook (external tuning tables)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RmsTables:
    """Piecewise-linear lookup tables for the data-driven threshold variant.

    ``delta_grid`` indexes both ``kappa_values`` and ``eta1_values``; lookups
    clamp outside the grid. ``eta2_by_j`` maps the number of moments to the
    dimension part of the size correction.
    """

    delta_grid: tuple
    kappa_values: tuple
    eta1_values: tuple
    eta2_by_j: dict

    @classmethod
    def from_json(cls, path) -> "RmsTables":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        try:
            return cls(
                delta_grid=tuple(float(x) for x in raw["delta_grid"]),
                kappa_values=tuple(float(x) for x in raw["kappa"]),
                eta1_values=tuple(float(x) for x in raw["eta1"]),
                eta2_by_j={int(k): float(v) for k, v in raw["eta2_by_J"].items()},
            )
        except KeyError as missing:
            raise MissingTable(f"RMS tables are missing key {missing}")

    def __post_init__(self):
        if not (len(self.delta_grid) == len(self.kappa_values) == len(self.eta1_values)):
            raise MissingTable("RMS table arrays must share one grid length")
        if len(self.delta_grid) == 0:
            raise MissingTable("RMS tables are empty")
        if list(self.delta_grid) != sorted(self.delta_grid):
            raise MissingTable("RMS delta grid must be sorted")

    def kappa_at(self, delta: float) -> float:
        return float(np.interp(delta, self.delta_grid, self.kappa_values))

    def eta_at(self, delta: float, j: int) -> float:
        if j not in self.eta2_by_j:
            raise MissingTable(f"RMS eta2 table has no entry for J={j}")
        eta1 = float(np.interp(delta, self.delta_grid, self.eta1_values))
        return eta1 + self.eta2_by_j[j]


def min_off_diagonal(correlation: np.ndarray) -> float:
    j = correlation.shape[0]
    if j == 1:
        return 1.0
    mask = ~np.eye(j, dtype=bool)
    return float(correlation[mask].min())


# ---------------------------------------------------------------------------
# The single decision path
# ---------------------------------------------------------------------------


PROCEDURES = ("GMS", "CMS", "CMS_FC", "RSW", "RMS")
# The short spellings, the command line's: lower case, "cms-fc"; "asym", "boot".
PROCEDURE_ALIASES = {name.lower().replace("_", "-"): name for name in PROCEDURES}
MODE_ALIASES = {"asym": MODE_ASYMPTOTIC, "boot": MODE_BOOTSTRAP}


def _canonical(spelling, aliases: dict, what: str) -> str:
    if spelling in aliases.values():
        return spelling
    name = aliases.get(spelling.lower().replace("_", "-")) if isinstance(spelling, str) else None
    if name is None:
        raise DomainError(f"unknown {what} {spelling!r}")
    return name


def procedure_name(spelling) -> str:
    """The name in PROCEDURES that ``spelling`` stands for: the name itself
    or its alias, in any case and with "_" or "-" ("GMS", "gms", "CMS_FC",
    "cms-fc", "cms_fc"). DomainError for anything else."""
    return _canonical(spelling, PROCEDURE_ALIASES, "procedure")


def mode_name(spelling) -> str:
    """The draws mode that ``spelling`` stands for, as `procedure_name` reads
    procedures: MODE_ASYMPTOTIC or MODE_BOOTSTRAP, or "asym" or "boot"."""
    return _canonical(spelling, MODE_ALIASES, "mode")


@dataclass(frozen=True)
class SelectionStep:
    """What a selection-based procedure contributes to its critical value:
    the selection vector, a constant added to the quantile (the RMS size
    correction), audit fields for the report, and the tilt-fallback flag."""

    selection: SelectionVector
    # x + (-0.0) is x bit for bit, -0.0 included, so adding the default
    # leaves every other procedure's quantile exactly as read.
    additive: float = -0.0
    supplementary: dict = field(default_factory=dict)
    tilt_fallback: bool = False


def selection_step(
    procedure: str,
    summary: MomentSummary,
    schedule: KappaSchedule,
    phi: int = 1,
    rms_tables: RmsTables | None = None,
    tilt_result: TiltResult | None = None,
) -> SelectionStep:
    """Selection step of GMS, CMS, CMS_FC or RMS: phi_k(phi, xi) at
    xi = sqrt(n) m / sqrt(v) / kappa, the one formula.

    GMS reads the summary's mean and variances, with kappa from the
    schedule. CMS reads the mean of ``tilt_result``, the sample's tilt;
    CMS_FC also its variances. Both keep GMS's inputs when the tilt is
    infeasible, which they flag, or the identity, so that nonnegative
    means select exactly as GMS does. RMS reads GMS's inputs at
    a kappa looked up at the minimum off-diagonal correlation, adds a
    size-correction constant to the quantile, and is disabled (MissingTable)
    without ``rms_tables``, since the numeric tables live outside this
    package.
    """
    mean, var = summary.mean, summary.var
    fields: dict = {}
    if procedure == "RMS":
        if rms_tables is None:
            raise MissingTable("RMS needs kappa/eta lookup tables; none were supplied")
        delta = min_off_diagonal(summary.correlation)
        k = rms_tables.kappa_at(delta)
        if k <= 0:
            raise DomainError("RMS kappa table produced a nonpositive threshold")
        eta = rms_tables.eta_at(delta, summary.n_moments)
        fields = {"additive": eta, "supplementary": {"delta_hat": delta, "kappa_hat": k, "eta_hat": eta}}
    elif procedure in ("GMS", "CMS", "CMS_FC"):
        k = kappa_value(schedule, summary.n)
        if procedure != "GMS":
            if tilt_result is None:
                raise DomainError(f"{procedure} needs the sample's tilt")
            fields = {"tilt_fallback": not tilt_result.solved}
            # The identity tilt keeps the summary's inputs, summed in a
            # canonical row order where the tilt's mean sums in row order.
            if tilt_result.solved and tilt_result.multipliers.any():
                mean = tilt_result.tilted_mean
                if procedure == "CMS_FC":
                    var = np.diag(tilt_result.tilted_cov)
                    if np.any(var <= 0):
                        raise DegenerateColumn(int(np.argmax(var <= 0)))
    else:
        raise DomainError(f"procedure {procedure!r} has no selection step")
    xi = np.sqrt(summary.n) * mean / np.sqrt(var) / k
    return SelectionStep(phi_k(phi, xi), **fields)


def critical_values(
    sample: MomentSample,
    summary: MomentSummary,
    draws: _Draws,
    procedures,
    kinds,
    alpha: float,
    beta: float | None,
    schedule: KappaSchedule,
    phi: int = 1,
    rms_tables: RmsTables | None = None,
) -> tuple:
    """({(procedure, kind): CriticalValueReport}, tilt) for every requested
    pair on one sample, all read off the same ``draws`` and therefore paired.

    The one tilt, shared by CMS and CMS_FC, is None when neither is asked
    for. RSW (bootstrap draws only) goes through `rsw_critical_value`; every
    other procedure adds its step's constant to the selection quantile, which
    procedures with equal selections share.
    """
    if "RSW" in procedures and draws.mode != MODE_BOOTSTRAP:
        raise DomainError("the two-step procedure is bootstrap-only")
    tilt_result = tilt(sample) if "CMS" in procedures or "CMS_FC" in procedures else None
    reports = {}
    quantiles: dict = {}
    for proc in procedures:
        if proc == "RSW":
            for kind in kinds:
                reports[(proc, kind)] = rsw_critical_value(draws, summary, kind, alpha, beta)
            continue
        step = selection_step(proc, summary, schedule, phi, rms_tables, tilt_result)
        for kind in kinds:
            key = (kind, step.selection.shifts.tobytes())
            if key not in quantiles:
                quantiles[key] = draws.selection_quantile(step.selection, kind, 1.0 - alpha)
            reports[(proc, kind)] = CriticalValueReport(
                value=quantiles[key] + step.additive, method=proc, mode=draws.mode, draws=draws.n_draws,
                selection=step.selection, alpha=alpha, supplementary=step.supplementary,
                tilt_fallback=step.tilt_fallback, skipped_draws=draws.skipped,
            )
    return reports, tilt_result


def rejects(procedure: str, statistic, critical_value, first_stage):
    """The decision rule, elementwise on arrays: T > c, and for the two-step
    test also its first-stage event (the rectangle leaves the orthant)."""
    reject = statistic > critical_value
    return reject & first_stage if procedure == "RSW" else reject


def run_test(
    sample: MomentSample,
    kind: StatisticKind,
    procedure: str,
    phi: int = 1,
    schedule: KappaSchedule | None = None,
    mode: str = MODE_BOOTSTRAP,
    alpha: float = 0.05,
    n_draws: int = 10000,
    seed: int = 0,
    beta: float | None = None,
    rms_tables: RmsTables | None = None,
    rng: np.random.Generator | None = None,
) -> TestDecision:
    """Evaluate the statistic and one procedure's critical value on a sample.

    The entry point for every procedure, and the decision logic behind both
    the command line and the Monte Carlo harness; those callers only differ
    in how they construct the sample and the random streams. ``procedure``
    and ``mode`` take any spelling `procedure_name` and `mode_name` read.
    The mode only picks the draws object. The two-step test (rsw) is
    bootstrap-only and rejects only when the statistic exceeds its critical
    value and its first-stage rectangle sticks out of the nonnegative
    orthant; ``beta`` is its first-stage level, alpha / 10 by default.
    """
    name = procedure_name(procedure)
    mode = mode_name(mode)
    check_phi(phi)
    _check_alpha(alpha)
    if name == "RSW":
        beta = rsw_beta(alpha, beta)
    if schedule is None:
        schedule = KappaSchedule.parse("sqrt-log-n")
    summary = summarize(sample)
    if mode == MODE_ASYMPTOTIC:
        draws = AsymptoticDraws(summary.correlation, n_draws, substream(seed, ASYMPTOTIC) if rng is None else rng)
    elif rng is None:
        draws = BootstrapDraws(sample, summary, seeded_counts(seed, sample.n, n_draws))
    else:
        draws = BootstrapDraws(sample, summary, bootstrap_counts(rng, sample.n, n_draws))
    statistic = evaluate(kind, summary)

    reports, tilt_result = critical_values(
        sample, summary, draws, (name,), (kind,), alpha, beta, schedule, phi, rms_tables
    )
    report = reports[(name, kind)]
    extras: dict = {}
    if tilt_result is not None:
        extras["tilt"] = tilt_result.diagnostics()
    if name == "RSW":
        extras["first_stage"] = report.supplementary["first_stage"]
    reject = bool(rejects(name, statistic, report.value, extras.get("first_stage")))
    return TestDecision(statistic, report, reject, extras)
