"""One measured process: set up cmselect, run rounds of a workload, report.

Started by run.py as a fresh interpreter with PYTHONPATH pointing at the
checkout's src/. It prints "ready" once set-up is done (cmselect imported and
the config or argument list parsed), then runs whole rounds until --seconds
have passed, and prints one JSON report as its last line. With --setup-only
it exits after "ready"; with --trace it then replays two rounds with every
layer wrapped.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

# Rounds replayed with the tracer installed, after the timed rounds.
TRACED_ROUNDS = (0, 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True, help="config JSON or grid manifest")
    parser.add_argument("--out", required=True, help="directory for the program's outputs")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import cmselect.cli as cli
    import cmselect.harness as harness

    if args.workload == "invert_grid":
        from workloads import INVERT_FLAGS

        argv = ["invert", "--grid", args.input, *INVERT_FLAGS, "--seed", str(args.seed)]
        cli.build_parser().parse_args(argv)
        runner = InvertRunner(cli, argv, Path(args.input), Path(args.out))
    else:
        config, phases = cli.load_config(args.input)
        runner = SweepRunner(harness, config, phases, Path(args.input), Path(args.out))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import resource

    times, ops, failed = [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not times:
        t0 = time.perf_counter()
        done, bad = runner.round(len(times), tag="round")
        times.append(time.perf_counter() - t0)
        ops += done
        failed += bad
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "ops": ops,
        "failed": failed,
        "rounds": len(times),
        "round_seconds": times,
        "ops_per_s": ops / sum(times),
        "peak_rss_mb": peak_kb / 1024.0,
        "digest": runner.digest(),
        "environment": {**environment(), "threads": runner.threads},
    }
    if args.trace:
        report.update(traced(runner, Path(args.out)))
    report["checks"] = [(name, bool(ok), detail) for name, ok, detail in runner.checks()]
    print(json.dumps(report), flush=True)
    return 0


def traced(runner, out_dir: Path) -> dict:
    """Replay TRACED_ROUNDS, each once plain and once with the tracer
    installed, back to back, so the overhead compares equally warm runs."""
    from tracing import Tracer

    tracer = Tracer()
    plain_seconds = traced_seconds = 0.0
    ops = 0
    for k in TRACED_ROUNDS:
        t0 = time.perf_counter()
        runner.round(k, tag="replay")
        plain_seconds += time.perf_counter() - t0
        tracer.round = k
        tracer.install()
        try:
            t0 = time.perf_counter()
            done, _ = runner.round(k, tag="traced")
            traced_seconds += time.perf_counter() - t0
        finally:
            tracer.remove()
        ops += done
    tracer.write_spans(out_dir / "spans.csv")
    return {
        "trace": {
            "ops": ops,
            "overhead_ratio": traced_seconds / plain_seconds,
            "self_seconds": dict(tracer.self_times()),
            "counts": dict(tracer.counts),
            "absent": tracer.absent,
            "deliveries": runner.deliveries_per_op * ops,
        }
    }


class SweepRunner:
    """One round: an MNRP sweep over every null pattern, then the corrections
    and the corrected power run where the config asks for them, then the
    emitted JSON, as `cmselect simulate` runs them."""

    def __init__(self, harness, config, phases, config_path: Path, out_dir: Path):
        self.harness = harness
        self.config = config
        self.phases = phases
        self.config_path = config_path
        self.out_dir = out_dir
        self.threads = config.threads
        self.rounds = []
        # Critical values read off a selection quantile per replication.
        self.deliveries_per_op = len(config.statistics) * sum(
            1 for proc in config.procedures if proc != "RSW"
        )

    def round(self, k: int, tag: str):
        harness = self.harness
        config = dataclasses.replace(self.config, seed=self.config.seed * 1000 + k)
        mnrp = harness.run_mnrp(config)
        ops = len(mnrp.patterns) * config.r_mc
        power = None
        if "power" in self.phases:
            corrections = harness.corrections_from(mnrp) if "RSW" in config.procedures else {}
            power = harness.run_power(config, corrections)
            ops += len(power.patterns) * config.r_mc
            harness.emit(power, "json", self.out_dir / f"{tag}{k}_power.json")
        harness.emit(mnrp, "json", self.out_dir / f"{tag}{k}_mnrp.json")
        if tag == "round":
            self.rounds.append((config.seed, mnrp, power))
        return ops, 0

    def digest(self) -> str:
        return _digest(sorted(self.out_dir.glob("round0_*.json")))

    def checks(self) -> list:
        from checks import sweep_checks

        spec = json.loads(self.config_path.read_text(encoding="utf-8"))
        return sweep_checks(spec, self.rounds)


class InvertRunner:
    """One round: `cmselect invert` over the whole grid; one op per point."""

    deliveries_per_op = 1
    # `cmselect invert` tests the points one after another.
    threads = 1

    def __init__(self, cli, argv, manifest: Path, out_dir: Path):
        self.cli = cli
        self.argv = argv
        self.manifest = manifest
        self.out_dir = out_dir
        self.listings = []
        self.points = len(manifest.read_text(encoding="utf-8").split()) - 1

    def round(self, k: int, tag: str):
        output = self.out_dir / f"{tag}{k}_invert.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main([*self.argv, "--output", str(output)])
        if code != 0:
            return self.points, self.points
        if tag == "round":
            self.listings.append(json.loads(output.read_text(encoding="utf-8"))["points"])
        return self.points, 0

    def digest(self) -> str:
        return _digest([self.out_dir / "round0_invert.json"])

    def checks(self) -> list:
        import numpy as np

        from checks import invert_checks

        samples = {
            path.stem: np.loadtxt(path, delimiter=",", ndmin=2)
            for path in sorted(self.manifest.parent.glob("t*.csv"))
        }
        return invert_checks(samples, self.listings)


def _digest(paths) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
