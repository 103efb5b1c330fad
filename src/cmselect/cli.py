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
import sys
from pathlib import Path

from .critical import (
    MODE_ALIASES, PROCEDURE_ALIASES, STATISTIC_ALIASES, RmsTables, json_real, mode_name, procedure_name, run_test,
    statistic_kind,
)
from .errors import CmselectError
from .harness import (
    CORRECTED_PROCEDURES,
    ExperimentConfig,
    config_record,
    corrections_from,
    default_replications,
    emit,
    null_patterns,
    run_mnrp,
    run_power,
)
from .heap import retain_freed_buffers
from .moments import CorrelationFamily, load_csv
from .selection import DEFAULT_KAPPA, SELECTIONS, KappaSchedule


def _typed(kind):
    """Converter that passes through a JSON value of exactly type ``kind``
    (true is not an integer, and neither is 2.7)."""
    def check(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value
    return check


_integer, _list = _typed(int), _typed(list)
# The one conversion of each optional key `load_config` passes on. A key
# missing from the file takes `ExperimentConfig`'s default, and
# `ExperimentConfig` checks every value.
_CONVERTERS = {
    "r_mc": _integer, "b": _integer, "seed": _integer, "threads": _integer, "phi": _integer,
    "alpha": json_real,
    "infinity_surrogate": json_real,
    "beta": lambda value: None if value is None else json_real(value),
    "kappa": KappaSchedule.parse,
    "procedures": _list, "statistics": _list,
    "retain_critical_values": _typed(bool),
}
# Every top-level key `load_config` reads; any other key is rejected.
_CONFIG_KEYS = frozenset(_CONVERTERS) | {"J", "family", "n", "null_patterns", "alternatives", "rms_tables", "run"}


def _seed(text: str) -> int:
    """--seed of `test` and `invert`, refused at parse time unless it is a
    non-negative integer, the entropy `substream` accepts."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _shared_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--statistic", type=statistic_kind, default="aqlr", help=", ".join(STATISTIC_ALIASES))
    parser.add_argument("--procedure", type=procedure_name, default="cms", help=", ".join(PROCEDURE_ALIASES))
    parser.add_argument("--phi", type=int, choices=list(SELECTIONS), default=1)
    parser.add_argument("--kappa", default=DEFAULT_KAPPA.spell(), help="sqrt-log-n, sqrt-2loglogn, fixed:<v>")
    parser.add_argument("--mode", type=mode_name, default="boot", help=", ".join(MODE_ALIASES))
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--draws", type=int, default=10000)
    parser.add_argument("--beta", type=float, default=None, help="first-stage level (rsw)")
    parser.add_argument("--seed", type=_seed, default=0)
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
        "kind": args.statistic,
        "procedure": args.procedure,
        "phi": args.phi,
        "schedule": KappaSchedule.parse(args.kappa),
        "mode": args.mode,
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

        # utf-8-sig: a spreadsheet may save the manifest with a byte-order mark.
        with open(args.grid, newline="", encoding="utf-8-sig") as handle:
            reader = _csv.DictReader(handle)
            if reader.fieldnames is None or {"theta_id", "path"} - set(reader.fieldnames):
                raise CmselectError("grid manifest needs columns theta_id,path")
            base = Path(args.grid).parent
            for row in reader:
                if row["path"] is None:
                    raise CmselectError(f"grid manifest line {reader.line_num}: no path cell")
                if None in row:
                    extra = ",".join(row[None])
                    raise CmselectError(f"grid manifest line {reader.line_num}: extra cells {extra!r}")
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


def _convert(key: str, convert, value):
    try:
        return convert(value)
    except (TypeError, ValueError) as err:
        raise CmselectError(f"config key {key!r}: {err}") from err


def _mean_vectors(spec) -> tuple:
    return tuple(tuple(map(json_real, _list(mu))) for mu in spec)


def _family(spec, j: int) -> CorrelationFamily:
    """The config's family: a kind's name, or an object with "kind" (default
    "Custom") and, for Custom alone, "rho"."""
    spec = spec if isinstance(spec, dict) else {"kind": spec}
    unknown = sorted(set(spec) - {"kind", "rho"})
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
    kind = spec.get("kind", "Custom")
    if "rho" in spec and kind != "Custom":
        raise ValueError(f"rho is read only with kind 'Custom', not {kind!r}")
    return CorrelationFamily(kind, j, tuple(map(json_real, _list(spec.get("rho", [])))))


def _tables_name(name) -> str:
    if type(name) is not str or not name:
        raise TypeError(f"expected a file name, got {name!r}")
    return name


def load_config(path, overrides=None) -> tuple:
    """Parse an experiment config JSON into (ExperimentConfig, phases).

    ``overrides`` replace file values before conversion (`cmd_simulate`
    passes --desk-scale's r_mc and b, then any of --r-mc/--b/--seed/--threads
    given). A value of the wrong type exits as CmselectError naming its key.
    """
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise CmselectError("the config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise CmselectError(f"unknown config key {', '.join(map(repr, unknown))}")
    missing = [key for key in ("J", "n") if key not in raw]
    if missing:
        raise CmselectError(f"missing config key {', '.join(map(repr, missing))}")
    raw.update(overrides or {})

    j = _convert("J", _integer, raw["J"])
    family = _convert("family", lambda spec: _family(spec, j), raw.get("family", "Zero"))
    fields = {key: _convert(key, convert, raw[key]) for key, convert in _CONVERTERS.items() if key in raw}
    fields.setdefault("r_mc", default_replications(j))

    patterns_spec = raw.get("null_patterns", "auto")
    if isinstance(patterns_spec, str):
        nulls = null_patterns(j, patterns_spec)
    elif not isinstance(patterns_spec, list) or not patterns_spec:
        raise CmselectError('null_patterns must list at least one pattern or name a scheme ("auto", "full")')
    else:
        nulls = _convert("null_patterns", _mean_vectors, patterns_spec)
    alternatives = raw.get("alternatives", [])
    if not isinstance(alternatives, list):
        raise CmselectError("alternatives must list mean vectors")
    if raw.get("rms_tables") is not None:
        fields["rms_tables"] = _convert(
            "rms_tables", lambda name: RmsTables.from_json(Path(path).parent / _tables_name(name)), raw["rms_tables"]
        )

    config = ExperimentConfig(
        J=j,
        family=family,
        n=_convert("n", _integer, raw["n"]),
        null_mu=nulls,
        alternative_mu=_convert("alternatives", _mean_vectors, alternatives),
        **fields,
    )
    phases = raw.get("run", ["mnrp"])
    if not isinstance(phases, list) or not phases:
        raise CmselectError("run must be a non-empty list of phases")
    for i, phase in enumerate(phases):
        if phase not in ("mnrp", "power"):
            raise CmselectError(f"unknown phase {phase!r} in config")
        if phase in phases[:i]:
            raise CmselectError(f"phase {phase!r} is listed twice")
    if "power" in phases:
        if not config.alternative_mu:
            raise CmselectError("the power phase needs at least one alternative mean vector")
        corrected = [proc for proc in config.procedures if proc in CORRECTED_PROCEDURES]
        if corrected and "RSW" not in config.procedures:
            names = ", ".join(corrected)
            raise CmselectError(f"the power phase corrects {names} against RSW; add RSW to procedures")
    return config, tuple(phases)


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
    overrides = {"r_mc": 2000, "b": 1000} if args.desk_scale else {}
    flags = {"r_mc": args.r_mc, "b": args.b, "seed": args.seed, "threads": args.threads}
    overrides.update((key, value) for key, value in flags.items() if value is not None)
    config, phases = load_config(args.config, overrides)

    if args.dry_run:
        echo = config_record(config) | {
            "null_patterns": len(config.null_mu),
            "alternatives": len(config.alternative_mu),
            "phases": list(phases),
            "threads": config.threads,
        }
        print(json.dumps(echo, indent=2))
        return 0

    stem = Path(args.output) if args.output else Path(args.config).with_suffix("")
    results = {"mnrp": run_mnrp(config)}
    if "mnrp" in phases:
        print("\n".join(_summary_lines(results["mnrp"])))
    if "power" in phases:
        results["power"] = run_power(config, corrections_from(results["mnrp"]))
        print("\n".join(_summary_lines(results["power"])))

    for phase in phases:
        result = results[phase]
        out_path = stem.parent / f"{stem.name}_{phase}.{args.format}"
        emit(result, args.format, out_path)
        print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # Inside the try: --statistic, --procedure and --mode raise
        # DomainError on a spelling their converter does not read.
        args = parser.parse_args(argv)
        retain_freed_buffers()
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
