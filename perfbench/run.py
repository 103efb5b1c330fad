"""cmselect benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload sweep_j4_power --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script writes the workload's inputs
from --seed into perfbench/out/<workload>/ (git-ignored), then starts fresh
interpreters with PYTHONPATH=src and BLAS pinned to one thread: a few that
only set up (for setup_s) and one that measures. With --trace 0 it reports
the end-to-end metrics, with --trace 1 the per-layer ones from a traced
replay. Exit code 0 means the run finished; correctness is the "correct" key.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Setup-only processes started before the measured one, which gives one more
# set-up sample; setup_s is the median of them all.
SETUP_SAMPLES = 6
# Everything the run does must end within this many seconds.
RUN_DEADLINE = 170.0
SETUP_TIMEOUT = 60.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}
TIME_LAYERS = (
    "harness.run_mnrp",
    "harness.run_power",
    "harness.simulate_sample",
    "moments.summarize",
    "moments.load_csv",
    "critical.BootstrapDraws",
    "critical.selection_quantile",
    "critical.rsw_critical_value",
    "tilt.tilt",
    "selection.phi_k",
    "statistics.evaluate",
    "statistics.shifted_statistic_batch",
    "statistics.adjusted_sigma_batch",
    "qp.nonneg_projection_batch",
    "streams.substream",
    "cli.main",
)
COUNTS = (
    "critical.BootstrapDraws.draws",
    "critical.selection_quantile.calls",
    "tilt.tilt.calls",
    "tilt.newton_iterations",
    "tilt.uniform",
    "tilt.infeasible",
    "statistics.shifted_statistic_batch.draws",
    "statistics.adjusted_sigma_batch.matrices",
    "qp.nonneg_projection_batch.calls",
    "qp.nonneg_projection_batch.instances",
    "qp.reference_fallbacks",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "cmselect" / "__init__.py").is_file():
        print(f"error: no cmselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    input_path = write_inputs(args.workload, args.seed, out_dir)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--input", str(input_path), "--out", str(out_dir),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            process, setup = start(command + ["--setup-only"], env)
            setup_times.append(setup)
            finish(process, started)
    process, setup = start(command + (["--trace"] if args.trace else []), env)
    setup_times.append(setup)
    report = json.loads(finish(process, started).strip().splitlines()[-1])

    env_info = report["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()) + f" nproc={os.cpu_count()}")
    print(f"rounds: {report['rounds']}, seconds per round: "
          + " ".join(f"{t:.3f}" for t in report["round_seconds"]))
    print(f"digest {args.workload} seed={args.seed}: {report['digest']}")
    for name, ok, detail in report["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAIL'} - {detail}")

    if args.trace:
        metrics = per_layer(report)
        absent = report["trace"]["absent"]
        if absent:
            print("absent layers (reported as 0): " + ", ".join(absent))
        for name, count in report["trace"]["counts"].items():
            if name.endswith(".uncounted"):
                print(f"{name}: {count} calls whose arguments the counter could not read")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": report["ops_per_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {report['ops']}, failed {report['failed']}")
    result = {
        "correct": all(ok for _, ok, _ in report["checks"]),
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def per_layer(report: dict) -> dict:
    trace = report["trace"]
    ops = trace["ops"]
    self_seconds, counts = trace["self_seconds"], trace["counts"]
    metrics = {
        f"{layer}.ms": {"value": 1000.0 * self_seconds.get(layer, 0.0) / ops, "unit": "ms"}
        for layer in TIME_LAYERS
    }
    metrics.update({name: {"value": counts.get(name, 0), "unit": "count"} for name in COUNTS})
    draws = counts.get("critical.BootstrapDraws.draws", 0)
    quantiles = counts.get("critical.selection_quantile.calls", 0)
    metrics["critical.BootstrapDraws.valid_ratio"] = {
        "value": counts.get("critical.BootstrapDraws.valid", 0) / draws if draws else 0.0, "unit": "ratio"}
    metrics["critical.quantile_reuse"] = {
        "value": trace["deliveries"] / quantiles if quantiles else 0.0, "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {"value": trace["overhead_ratio"], "unit": "ratio"}
    return metrics


def start(command, env):
    """Start a worker and wait for its "ready" line; return it with the
    seconds from launch to ready."""
    t0 = time.perf_counter()
    process = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([process.stdout], [], [], SETUP_TIMEOUT)
    line = process.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise SystemExit(f"error: worker failed during set-up: {line.strip()!r}")
    return process, setup


def finish(process, started: float) -> str:
    remaining = max(1.0, RUN_DEADLINE - (time.perf_counter() - started))
    try:
        out, _ = process.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise SystemExit("error: worker exceeded the run deadline")
    if process.returncode != 0:
        raise SystemExit(f"error: worker exited with code {process.returncode}")
    return out


if __name__ == "__main__":
    sys.exit(main())
