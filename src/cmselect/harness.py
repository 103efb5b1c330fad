"""Monte Carlo harness: size sweeps, corrections, and local-power runs.

The experimental design is fully determined by a mean vector, a correlation
matrix, and the standard normal shape of the driving noise, so samples are
synthesized directly as mean + correlated normals. Null configurations place
each mean coordinate at 0 or at +inf (realized as a large surrogate);
alternatives supply finite vectors that the harness scales by 1/sqrt(n).

Size is summarized by the maximum null rejection probability (MNRP) over the
null configurations. Before power comparisons each selection-based procedure
receives an additive critical-value correction chosen so its MNRP matches the
two-step baseline's, making the power comparison fair; `corrections_from`
computes every correction of one MNRP sweep.

Within one replication every procedure and statistic consumes the same sample
and the same bootstrap draws, so cross-procedure comparisons are paired.
Every pattern's replication r resamples with the same multinomial counts,
drawn once from substream (seed, phase, r, BOOTSTRAP): common random numbers
across the patterns of a sweep. Each sample comes from its own substream
(seed, phase, pattern, r, SAMPLE_DRAW), so a statistic value does not depend
on the pattern set. Results are byte-identical regardless of how the
replications are scheduled across threads.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .critical import (
    PROCEDURES,
    BootstrapDraws,
    RmsTables,
    bootstrap_counts,
    critical_values,
    procedure_name,
    rejects,
    rsw_beta,
    statistic_kind,
    upper_quantile,
)
from .errors import CmselectError, DomainError, MissingBaseline
from .heap import retain_freed_buffers
from .moments import CorrelationFamily, MomentSample, cholesky_factor, make_toeplitz, summarize
from .selection import DEFAULT_KAPPA, KappaSchedule, check_phi
from .statistics import StatisticKind, evaluate
from .streams import BOOTSTRAP, SAMPLE_DRAW, substream

PHASE_NULL = 0
PHASE_POWER = 1

# Procedures whose critical values receive the additive MNRP correction; the
# two-step test is the baseline and stays uncorrected.
CORRECTED_PROCEDURES = tuple(proc for proc in PROCEDURES if proc != "RSW")


def default_replications(j: int) -> int:
    return 2500 if j >= 10 else 10000


def null_patterns(j: int, scheme: str = "auto") -> tuple:
    """Enumerate 0/+inf mean configurations with at least one zero.

    "full" walks all 2^J - 1 of them. The default walks all of them up to
    J = 4 and, above that, the all-binding pattern plus every pattern with a
    single +inf and every pattern with a single 0 (the configurations where
    the extremes have been observed to occur).
    """
    if scheme == "full" or (scheme == "auto" and j <= 4):
        patterns = [
            p for p in itertools.product((0.0, math.inf), repeat=j) if 0.0 in p
        ]
        return tuple(patterns)
    if scheme != "auto":
        raise DomainError(f"unknown null pattern scheme {scheme!r}")
    patterns = [tuple(0.0 for _ in range(j))]
    for k in range(j):
        patterns.append(tuple(math.inf if i == k else 0.0 for i in range(j)))
    for k in range(j):
        patterns.append(tuple(0.0 if i == k else math.inf for i in range(j)))
    return tuple(patterns)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a size or power experiment needs, seed included; the one
    place its values are checked, for the command line and library alike.
    ``procedures`` and ``statistics`` take any spelling `procedure_name` and
    `statistic_kind` accept and keep the canonical names and members."""

    J: int
    family: CorrelationFamily
    n: int
    r_mc: int
    b: int = 10000
    alpha: float = 0.05
    kappa: KappaSchedule = DEFAULT_KAPPA
    procedures: tuple = ("GMS", "CMS")
    statistics: tuple = (StatisticKind.MMM, StatisticKind.AQLR)
    null_mu: tuple = ()
    alternative_mu: tuple = ()
    seed: int = 0
    infinity_surrogate: float = 10.0
    beta: float | None = None
    phi: int = 1
    rms_tables: RmsTables | None = None
    retain_critical_values: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("n must be at least 2")
        if self.r_mc < 1:
            raise DomainError("r_mc must be at least 1")
        if self.b < 100:
            raise DomainError("bootstrap draw count must be at least 100")
        if self.J != self.family.J:
            raise DomainError("J must match the correlation family")
        if self.threads < 1:
            raise DomainError("threads must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")
        if not 0.0 < self.infinity_surrogate < math.inf:
            raise DomainError("infinity_surrogate must be positive and finite")
        check_phi(self.phi)
        rsw_beta(self.alpha, self.beta)
        if not self.procedures:
            raise DomainError("procedures must name at least one procedure")
        if not self.statistics:
            raise DomainError("statistics must name at least one statistic")
        object.__setattr__(self, "procedures", tuple(map(procedure_name, self.procedures)))
        object.__setattr__(self, "statistics", tuple(map(statistic_kind, self.statistics)))
        for label, names in (("procedure", self.procedures), ("statistic", [k.value for k in self.statistics])):
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise DomainError(f"{label} {repeated[0]!r} is listed twice")
        if "RMS" in self.procedures and self.rms_tables is None:
            raise DomainError("RMS requires lookup tables; omit it or supply them")
        for mu in self.null_mu:
            entries = tuple(mu)
            if len(entries) != self.J:
                raise DomainError("null pattern length must equal J")
            if not all(e in (0.0, math.inf) for e in entries):
                raise DomainError("null patterns may only contain 0 and +inf")
            if 0.0 not in entries:
                raise DomainError("null patterns need at least one binding moment")
        for mu in self.alternative_mu:
            if len(tuple(mu)) != self.J:
                raise DomainError("alternative mean length must equal J")
            if not all(math.isfinite(e) for e in mu):
                raise DomainError("alternative means must be finite")

    @property
    def beta_value(self) -> float:
        return rsw_beta(self.alpha, self.beta)


@dataclass
class CellResult:
    """Per (procedure, statistic) record of an experiment; the key of
    `ExperimentResult.cells` names the cell."""

    statistic_values: np.ndarray  # (patterns, replications)
    critical_values: np.ndarray  # (patterns, replications)
    rejections: np.ndarray  # (patterns, replications) boolean
    rates: np.ndarray  # (patterns,)
    standard_errors: np.ndarray  # (patterns,)
    mnrp: float | None = None
    mnrp_pattern: int | None = None
    correction: float = 0.0


@dataclass
class ExperimentResult:
    """Results of one MNRP sweep or one power run."""

    config: ExperimentConfig
    phase: str  # "mnrp" or "power"
    patterns: tuple
    cells: dict  # (procedure, statistic-name) -> CellResult
    diagnostics: dict = field(default_factory=dict)
    corrections: dict = field(default_factory=dict)

    def cell(self, procedure: str, kind: StatisticKind) -> CellResult:
        return self.cells[(procedure, kind.value)]


# ---------------------------------------------------------------------------
# Sample synthesis
# ---------------------------------------------------------------------------


def simulate_sample(
    family: CorrelationFamily,
    mu,
    n: int,
    rng: np.random.Generator,
    infinity_surrogate: float = 10.0,
    chol: np.ndarray | None = None,
) -> MomentSample:
    """Draw n rows of mean mu (with +inf realized as the surrogate) and
    correlation given by the family; variances are one by construction."""
    if chol is None:
        chol = cholesky_factor(make_toeplitz(family))
    mu_eff = np.array([infinity_surrogate if math.isinf(m) else float(m) for m in mu])
    z = rng.standard_normal((n, chol.shape[0]))
    return MomentSample(mu_eff + z @ chol.T)


# ---------------------------------------------------------------------------
# One replication
# ---------------------------------------------------------------------------


def _replicate(config: ExperimentConfig, chol, patterns, phase: int, rep_idx: int) -> list:
    """Run every configured procedure and statistic on replication ``rep_idx``
    of every pattern.

    The replication draws its resampling counts once, from substream (seed,
    phase, replication, BOOTSTRAP), and every pattern resamples with them:
    common random numbers across the patterns. Each pattern's sample comes
    from its own substream (seed, phase, pattern, replication, SAMPLE_DRAW),
    so a statistic value does not depend on which other patterns run.

    Returns one row of the phase table per pattern: {kind: T, (procedure,
    kind): c, "tilt_infeasible", "rsw_first", "rsw_keep_all"}, with every c
    read by `critical_values` off the pattern's one set of draws. A failure
    is re-raised with the replication, and the pattern where there is one,
    attached.
    """
    pattern_idx = None
    try:
        rng_boot = substream(config.seed, phase, rep_idx, BOOTSTRAP)
        counts = bootstrap_counts(rng_boot, config.n, config.b)
        rows = []
        for pattern_idx, mu in enumerate(patterns):
            rng_sample = substream(config.seed, phase, pattern_idx, rep_idx, SAMPLE_DRAW)
            sample = simulate_sample(
                config.family, mu, config.n, rng_sample, config.infinity_surrogate, chol=chol
            )
            summary = summarize(sample)
            draws = BootstrapDraws(sample, summary, counts)

            row = {kind: evaluate(kind, summary) for kind in config.statistics}
            reports, tilt_result = critical_values(
                sample, summary, draws, config.procedures, config.statistics, config.alpha,
                config.beta_value, config.kappa, config.phi, config.rms_tables,
            )
            row.update((key, report.value) for key, report in reports.items())
            rsw = next((r.supplementary for (proc, _), r in reports.items() if proc == "RSW"), {})
            row["tilt_infeasible"] = tilt_result is not None and not tilt_result.solved
            row["rsw_first"] = rsw.get("first_stage", False)
            row["rsw_keep_all"] = rsw.get("no_omission", False)
            rows.append(row)
        return rows
    except Exception as err:
        where = f"replication {rep_idx}" if pattern_idx is None else f"pattern {pattern_idx}, replication {rep_idx}"
        raise CmselectError(f"replication failed at {where}: {err}") from err


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def _run_phase(config: ExperimentConfig, patterns, phase: int) -> dict:
    """Execute r_mc replications of every pattern; returns the phase table,
    one (patterns, r_mc) array per key of a `_replicate` row.

    The work is split by replication: each task runs one replication of
    every pattern on that replication's one set of resampling counts, so one
    counts array is alive per thread. Tasks run on ``config.threads`` threads
    and land in the same cells either way."""
    retain_freed_buffers()
    chol = cholesky_factor(make_toeplitz(config.family))
    shape = (len(patterns), config.r_mc)
    keys = (*config.statistics, *itertools.product(config.procedures, config.statistics))
    table = {key: np.empty(shape) for key in keys}
    table.update((flag, np.empty(shape, dtype=bool)) for flag in ("tilt_infeasible", "rsw_first", "rsw_keep_all"))

    def run_one(rep_idx):
        return _replicate(config, chol, patterns, phase, rep_idx)

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        reps = range(config.r_mc)
        results = pool.map(run_one, reps) if config.threads > 1 else map(run_one, reps)
        for r, rows in zip(reps, results):
            for p, row in enumerate(rows):
                for key, value in row.items():
                    table[key][p, r] = value
    return table


def run_mnrp(config: ExperimentConfig) -> ExperimentResult:
    """Size sweep: rejection rates over the null patterns and their maximum."""
    patterns = config.null_mu or null_patterns(config.J)
    raw = _run_phase(config, patterns, PHASE_NULL)
    cells, diagnostics = _tabulate(config, raw)
    for cell in cells.values():
        best = int(np.argmax(cell.rates))
        cell.mnrp = float(cell.rates[best])
        cell.mnrp_pattern = best
    return ExperimentResult(
        config=config,
        phase="mnrp",
        patterns=tuple(tuple(p) for p in patterns),
        cells=cells,
        diagnostics=diagnostics,
    )


def _tabulate(config: ExperimentConfig, raw: dict, corrections: dict | None = None):
    """Cells and diagnostics of one phase from its `_run_phase` table.

    ``corrections`` (power runs) maps (procedure, statistic-name) to the
    constant added to that cell's critical values; cells without an entry
    get 0. Rejection follows `critical.rejects`.
    """
    cells = {}
    for proc in config.procedures:
        for kind in config.statistics:
            stats = raw[kind]
            cvs = raw[(proc, kind)]
            delta = 0.0
            if corrections is not None:
                delta = corrections.get((proc, kind.value), 0.0)
                cvs = cvs + delta
            rejections = rejects(proc, stats, cvs, raw["rsw_first"])
            rates = rejections.mean(axis=1)
            ses = np.sqrt(rates * (1.0 - rates) / config.r_mc)
            cells[(proc, kind.value)] = CellResult(stats, cvs, rejections, rates, ses, correction=delta)

    has_rsw = "RSW" in config.procedures
    diagnostics = {
        "tilt_infeasible_count": int(raw["tilt_infeasible"].sum()),
        "rsw_first_stage_rate": float(raw["rsw_first"].mean()) if has_rsw else None,
        "rsw_no_omission_rate": float(raw["rsw_keep_all"].mean()) if has_rsw else None,
    }
    return cells, diagnostics


def corrections_from(result: ExperimentResult) -> dict:
    """Additive critical-value constants aligning each corrected procedure's
    MNRP with the two-step baseline's: {(procedure, statistic-name): delta}.

    For each cell, takes the procedure's maximizing null pattern, forms the
    exceedances T - c across its replications, and returns their quantile at
    one minus the baseline MNRP of the same statistic. Raises MissingBaseline
    unless ``result`` is an MNRP sweep that included the two-step procedure.
    """
    if result.phase != "mnrp":
        raise MissingBaseline("corrections need an MNRP sweep result")
    if "RSW" not in result.config.procedures:
        raise MissingBaseline("the two-step baseline was not part of the sweep")
    out = {}
    for (proc, stat), cell in result.cells.items():
        if proc in CORRECTED_PROCEDURES:
            p_star = cell.mnrp_pattern
            exceedances = cell.statistic_values[p_star] - cell.critical_values[p_star]
            out[(proc, stat)] = upper_quantile(exceedances, 1.0 - result.cells[("RSW", stat)].mnrp)
    return out


def run_power(config: ExperimentConfig, corrections: dict | None = None) -> ExperimentResult:
    """Local-power run at mu / sqrt(n) with corrected critical values.

    ``corrections`` maps (procedure, statistic-name) to the additive constant
    from `corrections_from`; the two-step baseline runs uncorrected. Rejection
    uses T > c + delta (plus the first-stage event for the two-step test).
    """
    alternatives = config.alternative_mu
    if not alternatives:
        raise DomainError("power runs need at least one alternative mean vector")
    corrections = corrections or {}
    for proc in config.procedures:
        if proc in CORRECTED_PROCEDURES:
            for kind in config.statistics:
                if (proc, kind.value) not in corrections:
                    raise MissingBaseline(
                        f"no MNRP correction supplied for {proc}-{kind.value}"
                    )

    scaled = tuple(
        tuple(float(m) / math.sqrt(config.n) for m in mu) for mu in alternatives
    )
    raw = _run_phase(config, scaled, PHASE_POWER)
    cells, diagnostics = _tabulate(config, raw, corrections)
    diagnostics.update(_ordering_diagnostics(config, raw))
    return ExperimentResult(
        config=config,
        phase="power",
        patterns=tuple(tuple(mu) for mu in alternatives),
        cells=cells,
        diagnostics=diagnostics,
        corrections={f"{k[0]}-{k[1]}": v for k, v in corrections.items()},
    )


def _ordering_diagnostics(config: ExperimentConfig, raw: dict) -> dict:
    """Frequency of the per-replication critical-value ordering CMS <= GMS <= RSW."""
    out = {}
    needed = {"GMS", "CMS", "RSW"}
    if not needed.issubset(set(config.procedures)):
        return out
    for kind in config.statistics:
        cms = raw[("CMS", kind)]
        gms = raw[("GMS", kind)]
        rsw = raw[("RSW", kind)]
        tol = 1e-12
        event = (cms <= gms + tol) & (gms <= rsw + tol)
        out[f"cv_ordering_rate_{kind.value}"] = float(event.mean())
    return out


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _pattern_id(mu) -> str:
    return "(" + ",".join("inf" if math.isinf(m) else f"{m:g}" for m in mu) + ")"


def emit(result: ExperimentResult, fmt: str, path) -> None:
    """Write an experiment result to disk as CSV (flat cells) or JSON (full)."""
    if fmt == "csv":
        _emit_csv(result, path)
    elif fmt == "json":
        _emit_json(result, path)
    else:
        raise DomainError(f"unknown output format {fmt!r}")


def _emit_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["procedure", "statistic", "J", "family", "n", "mu", "rate", "se", "delta"]
        )
        for (proc, kind), cell in sorted(result.cells.items()):
            for p, mu in enumerate(result.patterns):
                writer.writerow(
                    [
                        proc,
                        kind,
                        result.config.J,
                        result.config.family.kind,
                        result.config.n,
                        _pattern_id(mu),
                        f"{cell.rates[p]:.6f}",
                        f"{cell.standard_errors[p]:.6f}",
                        f"{cell.correction:.6f}",
                    ]
                )


def config_record(config: ExperimentConfig) -> dict:
    """The JSON record of a config: the "config" object of the JSON output,
    which `cmselect simulate --dry-run` echoes too."""
    return {
        "J": config.J,
        "family": config.family.kind,
        "rho": list(config.family.rho),
        "n": config.n,
        "r_mc": config.r_mc,
        "b": config.b,
        "alpha": config.alpha,
        "kappa": config.kappa.spell(),
        "procedures": list(config.procedures),
        "statistics": [k.value for k in config.statistics],
        "seed": config.seed,
        "infinity_surrogate": config.infinity_surrogate,
        "phi": config.phi,
    }


def _emit_json(result: ExperimentResult, path) -> None:
    payload = {
        "phase": result.phase,
        "config": config_record(result.config),
        "patterns": [_pattern_id(mu) for mu in result.patterns],
        "cells": {},
        "diagnostics": result.diagnostics,
        "corrections": result.corrections,
    }
    for (proc, kind), cell in result.cells.items():
        entry = {
            "rates": cell.rates.tolist(),
            "standard_errors": cell.standard_errors.tolist(),
            "correction": cell.correction,
        }
        if cell.mnrp is not None:
            entry["mnrp"] = cell.mnrp
            entry["mnrp_pattern"] = _pattern_id(result.patterns[cell.mnrp_pattern])
        if result.phase == "power" and result.config.retain_critical_values:
            entry["critical_value_samples"] = cell.critical_values.ravel().tolist()
        payload["cells"][f"{proc}-{kind}"] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


__all__ = [
    "CellResult",
    "ExperimentConfig",
    "ExperimentResult",
    "config_record",
    "corrections_from",
    "default_replications",
    "emit",
    "null_patterns",
    "run_mnrp",
    "run_power",
    "simulate_sample",
]
