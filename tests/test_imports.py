"""No path loads scipy.

The package's runtime is numpy alone: the tilt proves a sample infeasible
with its own dual direction, not a linear program, and scipy serves only the
tests. Importing scipy costs more start-up time than numpy and the package
together, so the tests run the package's entry points in a fresh interpreter
and check that no scipy module was loaded, neither at import nor by the
first test on data; and, with every scipy import refused, that a diverging
tilt, a solvable one and a simulate run still work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

SCRIPT = """
import contextlib, io, json, sys

import numpy as np

import cmselect
import cmselect.cli
import cmselect.harness
from cmselect import MomentSample, StatisticKind, run_test

csv_path = sys.argv[1]
values = np.random.default_rng(186).standard_normal((200, 3)) + np.array([-0.15, 0.05, 3.0])
np.savetxt(csv_path, values, delimiter=",")
decision = run_test(MomentSample(values), StatisticKind.AQLR, "cms", n_draws=200, seed=1)
with contextlib.redirect_stdout(io.StringIO()) as printed:
    code = cmselect.cli.main(
        ["test", csv_path, "--statistic", "aqlr", "--procedure", "cms", "--draws", "200", "--seed", "1"]
    )
print(json.dumps({
    "tilt": decision.extras["tilt"]["status"],
    "iterations": decision.extras["tilt"]["iterations"],
    "code": code,
    "cli": json.loads(printed.getvalue())["extras"]["tilt"]["status"],
    "scipy": sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")),
}))
"""

# Put ahead of SCRIPT: every scipy import raises, as if scipy were not
# installed, and the diverging sample and a simulate dry run follow.
REFUSING_SCIPY = """
import importlib.abc, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""

DIVERGING = """
diverging, config = sys.argv[2], sys.argv[3]
decision = run_test(cmselect.load_csv(diverging), StatisticKind.AQLR, "cms", n_draws=200, seed=1)
with contextlib.redirect_stdout(io.StringIO()) as printed:
    code = cmselect.cli.main(["test", diverging, "--draws", "200"])
with contextlib.redirect_stdout(io.StringIO()):
    dry_run = cmselect.cli.main(["simulate", config, "--dry-run"])
print(json.dumps({
    "tilt": decision.extras["tilt"]["status"],
    "code": code,
    "cli": json.loads(printed.getvalue())["extras"]["tilt"]["status"],
    "dry_run": dry_run,
}))
"""


def _reports(script, *args):
    """The JSON lines a fresh interpreter prints running ``script``."""
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def test_common_path_does_not_import_scipy(tmp_path):
    report = _reports(SCRIPT, tmp_path / "sample.csv")[-1]
    # The sample needs a tilt, and the Newton solve finishes it.
    assert (report["tilt"], report["cli"], report["code"]) == ("Solved", "Solved", 0)
    assert report["iterations"] > 0
    assert report["scipy"] == []


def test_every_path_runs_with_scipy_refused(tmp_path):
    # diverging.csv is a sample whose dual diverges: every column has a
    # positive entry, yet no probability vector satisfies both constraints.
    solvable, diverging = _reports(
        REFUSING_SCIPY + SCRIPT + DIVERGING,
        tmp_path / "sample.csv",
        DATA / "diverging.csv",
        DATA / "simulate_j2.json",
    )
    assert (solvable["tilt"], solvable["cli"], solvable["code"]) == ("Solved", "Solved", 0)
    assert (diverging["tilt"], diverging["cli"]) == ("Infeasible", "Infeasible")
    assert diverging["code"] in (0, 1)
    assert diverging["dry_run"] == 0
