import ctypes
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from cmselect import heap

ON_GLIBC = heap._glibc() is not None

# Two MNRP runs of one small J=4 design; prints the minor page faults per
# replication of the second run, when every buffer size has been seen once.
FAULTS_PER_REPLICATION = textwrap.dedent(
    """
    import dataclasses, math, resource
    from cmselect import CorrelationFamily, ExperimentConfig, run_mnrp

    config = ExperimentConfig(
        J=4, family=CorrelationFamily("Pos", 4), n=250, r_mc=4, b=1000,
        procedures=("GMS", "CMS"), null_mu=((0.0, 0.0, math.inf, math.inf), (0.0, 0.0, 0.0, 0.0)),
    )
    run_mnrp(config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_mnrp(dataclasses.replace(config, seed=1))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults / (len(config.null_mu) * config.r_mc))
    """
)


class FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def fake_libc(glibc: bool):
    """What `ctypes.CDLL(None)` returns: glibc exports gnu_get_libc_version."""
    libc = types.SimpleNamespace(mallopt=FakeMallopt())
    if glibc:
        libc.gnu_get_libc_version = lambda: b"2.36"
    return libc


@pytest.fixture
def fresh_policy():
    heap.retain_freed_buffers.cache_clear()
    yield
    heap.retain_freed_buffers.cache_clear()


@pytest.mark.skipif(not ON_GLIBC, reason="the heap policy is glibc's")
def test_replications_do_not_refault_their_buffers():
    # A fresh process: earlier tests in this one may already have raised
    # glibc's dynamic mmap threshold, which would hide the faults.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_REPLICATION],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert float(result.stdout.split()[-1]) < 50


def test_does_nothing_off_glibc(fresh_policy, monkeypatch):
    libc = fake_libc(glibc=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert heap.retain_freed_buffers() is False
    assert libc.mallopt.calls == []


def test_sets_both_thresholds_once(fresh_policy, monkeypatch):
    libc = fake_libc(glibc=True)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert heap.retain_freed_buffers() is True
    assert heap.retain_freed_buffers() is True
    assert libc.mallopt.calls == [
        (heap.M_MMAP_THRESHOLD, heap.MMAP_THRESHOLD),
        (heap.M_TRIM_THRESHOLD, heap.TRIM_THRESHOLD),
    ]


@pytest.mark.skipif(not ON_GLIBC, reason="the heap policy is glibc's")
def test_glibc_accepts_both_thresholds(fresh_policy):
    assert heap.retain_freed_buffers() is True
