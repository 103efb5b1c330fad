"""Command-line interface: test one dataset, invert a grid, run experiments.

Exit codes follow a scripting-friendly contract: 0 means the hypothesis was
accepted (or the run finished), 1 means rejected, 2 means any error. `invert`
tests every point even when some fail: a failed point is listed with its
error and left out of the confidence set, and the run then exits 2. All
randomness derives from --seed; the default seed is 0, so repeated runs are
identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .critical import MODE_ASYMPTOTIC, MODE_BOOTSTRAP, PROCEDURE_ALIASES, RmsTables, run_test
from .errors import CmselectError
from .harness import (
    CORRECTED_PROCEDURES,
    ExperimentConfig,
    corrections_from,
    default_replications,
    emit,
    null_patterns,
    run_mnrp,
    run_power,
)
from .moments import CorrelationFamily, load_csv
from .selection import KappaSchedule
from .statistics import StatisticKind

_MODES = {"asym": MODE_ASYMPTOTIC, "boot": MODE_BOOTSTRAP}
# Every top-level key `load_config` reads; any other key is rejected.
_CONFIG_KEYS = frozenset({
    "J", "family", "n", "r_mc", "b", "alpha", "kappa", "procedures", "statistics",
    "null_patterns", "alternatives", "rms_tables", "seed", "threads",
    "infinity_surrogate", "beta", "phi", "retain_critical_values", "run",
})


def _shared_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--statistic", choices=["mmm", "aqlr"], default="aqlr")
    parser.add_argument("--procedure", choices=list(PROCEDURE_ALIASES), default="cms")
    parser.add_argument("--phi", type=int, choices=[1, 2, 3, 4, 5], default=1)
    parser.add_argument("--kappa", default="sqrt-log-n", help="sqrt-log-n, sqrt-2loglogn, fixed:<v>")
    parser.add_argument("--mode", choices=["asym", "boot"], default="boot")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--draws", type=int, default=10000)
    parser.add_argument("--beta", type=float, default=None, help="first-stage level (rsw)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rms-tables", default=None, help="JSON lookup tables for rms")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cmselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test one moment-sample CSV")
    p_test.add_argument("data", help="CSV of moment evaluations, n rows by J columns")
    _shared_flags(p_test)
    p_test.add_argument("--output", default=None, help="also write the decision JSON here")

    p_invert = sub.add_parser("invert", help="confidence set over a grid of CSVs")
    p_invert.add_argument("points", nargs="*", help="CSV files, one per parameter point")
    p_invert.add_argument("--grid", default=None, help="manifest CSV with columns theta_id,path")
    _shared_flags(p_invert)
    p_invert.add_argument("--output", default=None, help="write the listing as JSON here")

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo experiments")
    p_sim.add_argument("config", help="experiment configuration JSON")
    p_sim.add_argument("--desk-scale", action="store_true", help="2000 replications, 1000 bootstrap draws")
    p_sim.add_argument("--dry-run", action="store_true", help="validate and echo the config only")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.add_argument("--r-mc", type=int, default=None)
    p_sim.add_argument("--b", type=int, default=None)
    p_sim.add_argument("--output", default=None, help="output path stem")
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _decision_kwargs(args) -> dict:
    tables = RmsTables.from_json(args.rms_tables) if args.rms_tables else None
    return {
        "kind": StatisticKind(args.statistic),
        "procedure": args.procedure,
        "phi": args.phi,
        "schedule": KappaSchedule.parse(args.kappa),
        "mode": _MODES[args.mode],
        "alpha": args.alpha,
        "n_draws": args.draws,
        "beta": args.beta,
        "rms_tables": tables,
    }


def cmd_test(args) -> int:
    sample = load_csv(args.data)
    decision = run_test(sample, seed=args.seed, **_decision_kwargs(args))
    text = json.dumps(decision.to_dict(), indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    return 1 if decision.reject else 0


def _grid_points(args) -> list:
    points = []
    if args.grid:
        import csv as _csv

        with open(args.grid, newline="", encoding="utf-8") as handle:
            reader = _csv.DictReader(handle)
            if reader.fieldnames is None or {"theta_id", "path"} - set(reader.fieldnames):
                raise CmselectError("grid manifest needs columns theta_id,path")
            base = Path(args.grid).parent
            for row in reader:
                points.append((row["theta_id"], str(base / row["path"])))
    for path in args.points:
        points.append((Path(path).stem, path))
    if not points:
        raise CmselectError("no grid points supplied")
    ids = [theta for theta, _ in points]
    if len(set(ids)) != len(ids):
        raise CmselectError("theta ids must be unique")
    return points


def cmd_invert(args) -> int:
    points = _grid_points(args)
    kwargs = _decision_kwargs(args)
    listing = []
    width = None
    for theta_id, path in points:
        try:
            sample = load_csv(path)
            if width is None:
                width = sample.n_moments
            elif sample.n_moments != width:
                raise CmselectError(f"expected {width} columns, got {sample.n_moments}")
            decision = run_test(sample, seed=args.seed, **kwargs)
        except (CmselectError, OSError) as err:
            print(f"error: point {theta_id}: {err}", file=sys.stderr)
            listing.append({"theta_id": theta_id, "error": str(err)})
            continue
        listing.append(
            {
                "theta_id": theta_id,
                "reject": decision.reject,
                "statistic": decision.statistic,
                "critical_value": decision.critical_value.value,
            }
        )
    accepted = [entry["theta_id"] for entry in listing if "error" not in entry and not entry["reject"]]
    payload = {"confidence_set": accepted, "points": listing}
    text = json.dumps(payload, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    return 2 if any("error" in entry for entry in listing) else 0


def _parse_mu(entry, j: int):
    values = []
    for item in entry:
        if isinstance(item, str):
            if item.lower() in ("inf", "+inf", "infinity"):
                values.append(math.inf)
            else:
                values.append(float(item))
        else:
            value = float(item)
            values.append(math.inf if math.isinf(value) else value)
    if len(values) != j:
        raise CmselectError(f"mean vector {entry!r} does not have length {j}")
    return tuple(values)


def load_config(path, desk_scale=False, overrides=None) -> tuple:
    """Parse an experiment config JSON into (ExperimentConfig, phases)."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise CmselectError("the config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise CmselectError(f"unknown config key {', '.join(map(repr, unknown))}")
    overrides = overrides or {}

    j = int(raw["J"])
    fam = raw.get("family", "Zero")
    if isinstance(fam, dict):
        family = CorrelationFamily(fam.get("kind", "Custom"), j, tuple(fam.get("rho", ())))
    else:
        family = CorrelationFamily(str(fam), j)

    r_mc = int(raw.get("r_mc", default_replications(j)))
    b = int(raw.get("b", 10000))
    if desk_scale:
        r_mc, b = 2000, 1000
    if overrides.get("r_mc") is not None:
        r_mc = overrides["r_mc"]
    if overrides.get("b") is not None:
        b = overrides["b"]

    patterns_spec = raw.get("null_patterns", "auto")
    if isinstance(patterns_spec, str):
        nulls = null_patterns(j, patterns_spec)
    elif not isinstance(patterns_spec, list) or not patterns_spec:
        raise CmselectError('null_patterns must list at least one pattern or name a scheme ("auto", "full")')
    else:
        nulls = tuple(_parse_mu(entry, j) for entry in patterns_spec)
    alternatives_spec = raw.get("alternatives", [])
    if not isinstance(alternatives_spec, list):
        raise CmselectError("alternatives must list mean vectors")
    alternatives = tuple(_parse_mu(entry, j) for entry in alternatives_spec)

    tables = None
    if raw.get("rms_tables"):
        tables = RmsTables.from_json(Path(path).parent / raw["rms_tables"])

    seed = raw.get("seed", 0)
    if overrides.get("seed") is not None:
        seed = overrides["seed"]
    threads = raw.get("threads", 1)
    if overrides.get("threads") is not None:
        threads = overrides["threads"]

    config = ExperimentConfig(
        J=j,
        family=family,
        n=int(raw["n"]),
        r_mc=r_mc,
        b=b,
        alpha=float(raw.get("alpha", 0.05)),
        kappa=KappaSchedule.parse(raw.get("kappa", "sqrt-log-n")),
        procedures=tuple(raw.get("procedures", ["GMS", "CMS"])),
        statistics=tuple(StatisticKind(s) for s in raw.get("statistics", ["mmm", "aqlr"])),
        null_mu=nulls,
        alternative_mu=alternatives,
        seed=int(seed),
        infinity_surrogate=float(raw.get("infinity_surrogate", 10.0)),
        beta=None if raw.get("beta") is None else float(raw["beta"]),
        phi=int(raw.get("phi", 1)),
        rms_tables=tables,
        retain_critical_values=bool(raw.get("retain_critical_values", False)),
        threads=int(threads),
    )
    phases = tuple(raw.get("run", ["mnrp"]))
    for phase in phases:
        if phase not in ("mnrp", "power"):
            raise CmselectError(f"unknown phase {phase!r} in config")
    if "power" in phases:
        if not alternatives:
            raise CmselectError("the power phase needs at least one alternative mean vector")
        corrected = [proc for proc in config.procedures if proc in CORRECTED_PROCEDURES]
        if corrected and "RSW" not in config.procedures:
            names = ", ".join(corrected)
            raise CmselectError(f"the power phase corrects {names} against RSW; add RSW to procedures")
    return config, phases


def _summary_lines(result) -> list:
    lines = [f"== {result.phase} (J={result.config.J}, {result.config.family.kind}, n={result.config.n}) =="]
    header = f"{'procedure':<10}{'statistic':<10}" + "".join(
        f"{i:>10}" for i in range(len(result.patterns))
    )
    lines.append(header)
    for (proc, kind), cell in sorted(result.cells.items()):
        row = f"{proc:<10}{kind:<10}" + "".join(f"{r:>10.4f}" for r in cell.rates)
        if cell.mnrp is not None:
            row += f"  mnrp={cell.mnrp:.4f}"
        lines.append(row)
    for key, value in sorted(result.diagnostics.items()):
        if value is not None:
            lines.append(f"  {key}: {value:.4f}" if isinstance(value, float) else f"  {key}: {value}")
    return lines


def cmd_simulate(args) -> int:
    overrides = {"seed": args.seed, "threads": args.threads, "r_mc": args.r_mc, "b": args.b}
    config, phases = load_config(args.config, desk_scale=args.desk_scale, overrides=overrides)

    if args.dry_run:
        echo = {
            "J": config.J,
            "family": config.family.kind,
            "n": config.n,
            "r_mc": config.r_mc,
            "b": config.b,
            "alpha": config.alpha,
            "kappa": config.kappa.spell(),
            "procedures": list(config.procedures),
            "statistics": [k.value for k in config.statistics],
            "null_patterns": len(config.null_mu),
            "alternatives": len(config.alternative_mu),
            "seed": config.seed,
            "phases": list(phases),
            "threads": config.threads,
        }
        print(json.dumps(echo, indent=2))
        return 0

    stem = Path(args.output) if args.output else Path(args.config).with_suffix("")
    results = {}
    if "mnrp" in phases or "power" in phases:
        mnrp_result = run_mnrp(config)
        results["mnrp"] = mnrp_result
        if "mnrp" in phases:
            for line in _summary_lines(mnrp_result):
                print(line)
    if "power" in phases:
        corrections = corrections_from(results["mnrp"])
        power_result = run_power(config, corrections)
        results["power"] = power_result
        for line in _summary_lines(power_result):
            print(line)

    for phase in phases:
        result = results[phase]
        out_path = stem.parent / f"{stem.name}_{phase}.{args.format}"
        emit(result, args.format, out_path)
        print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "test":
            return cmd_test(args)
        if args.command == "invert":
            return cmd_invert(args)
        return cmd_simulate(args)
    except (CmselectError, OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
