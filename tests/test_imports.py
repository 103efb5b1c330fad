"""The common path never loads scipy.

scipy is a dependency only for the tilt's phase-one linear program, which
runs when the dual Newton solve diverges. Importing it costs more start-up
time than numpy and the package together, so the test runs the package's
entry points in a fresh interpreter and checks that no scipy module was
loaded, neither at import nor by the first test on data.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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


def test_common_path_does_not_import_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "sample.csv")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    # The sample needs a tilt, and the Newton solve finishes it.
    assert (report["tilt"], report["cli"], report["code"]) == ("Solved", "Solved", 0)
    assert report["iterations"] > 0
    assert report["scipy"] == []
