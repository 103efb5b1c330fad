"""Workload definitions and the generation of their inputs.

Every input the program receives is written here, from the workload seed
alone: an experiment config for the two sweeps, and a grid manifest plus one
CSV of moment evaluations per grid point for the confidence-set inversion.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PROCEDURES = ["GMS", "CMS", "CMS_FC", "RSW"]
STATISTICS = ["mmm", "aqlr"]

# Replications per null pattern (and per alternative) in one round. A round is
# one MNRP sweep over every null pattern, plus the corrected power run where
# the workload has one; rounds take a few seconds each, so a run of ten or more
# seconds measures several of them.
SWEEPS = {
    "sweep_j4_power": {
        "J": 4,
        "family": "Pos",
        "n": 250,
        "r_mc": 20,
        "b": 1000,
        "alpha": 0.05,
        "procedures": PROCEDURES,
        "statistics": STATISTICS,
        "null_patterns": "auto",
        "alternatives": [[-2.4705, 1.0, 1.0, 1.0]],
        "run": ["mnrp", "power"],
    },
    "sweep_j10_mnrp": {
        "J": 10,
        "family": "Neg",
        "n": 100,
        "r_mc": 10,
        "b": 1000,
        "alpha": 0.05,
        "procedures": PROCEDURES,
        "statistics": STATISTICS,
        "null_patterns": "auto",
        "run": ["mnrp"],
    },
}

# The inversion grid: two interval-identified parameters, theta_1 in
# [E X1, E Y1] = [0, 1] and theta_2 in [E X2, E Y2] = [0, 2], with moments
# (Y1 - theta_1, theta_1 - X1, Y2 - theta_2, theta_2 - X2). The theta_1 values
# run from far below the identified set (one column entirely negative, so the
# tilt is infeasible), across its boundary (tilt solved), through its inside
# (all means positive, so the tilt is skipped), to far above it.
INVERT_N = 500
INVERT_THETA_1 = (-8.0, -0.15, 0.0, 0.5, 1.0, 1.15, 8.0)
INVERT_THETA_2 = (0.2, 1.0, 1.8)
INVERT_FLAGS = ["--statistic", "aqlr", "--procedure", "cms"]

WORKLOADS = tuple(SWEEPS) + ("invert_grid",)


def is_sweep(workload: str) -> bool:
    return workload in SWEEPS


def write_inputs(workload: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's inputs under ``out_dir``; return the file the
    program is pointed at (the config or the grid manifest)."""
    if is_sweep(workload):
        config = dict(SWEEPS[workload], seed=seed)
        path = out_dir / "config.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return path
    return _write_grid(seed, out_dir)


def _write_grid(seed: int, out_dir: Path) -> Path:
    rng = np.random.default_rng(seed)
    n = INVERT_N
    x1 = rng.standard_normal(n)
    y1 = x1 + 1.0 + 0.5 * rng.standard_normal(n)
    x2 = 1.2 * rng.standard_normal(n)
    y2 = x2 + 2.0 + 0.8 * rng.standard_normal(n)
    lines = ["theta_id,path"]
    for i, theta_1 in enumerate(INVERT_THETA_1):
        for k, theta_2 in enumerate(INVERT_THETA_2):
            theta_id = f"t{i}{k}"
            g = np.column_stack([y1 - theta_1, theta_1 - x1, y2 - theta_2, theta_2 - x2])
            # %.17g round-trips every double, so the program and the checks
            # read back exactly these values.
            np.savetxt(out_dir / f"{theta_id}.csv", g, delimiter=",", fmt="%.17g")
            lines.append(f"{theta_id},{theta_id}.csv")
    manifest = out_dir / "grid.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
