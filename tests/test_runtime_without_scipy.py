"""The package runs without scipy; the tests keep scipy as the reference.

scipy is only a ``dev`` extra.  Each subprocess here starts a fresh
interpreter, so no module the test session already imported can mask an
import of scipy by the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import repro
import repro.backends.monte_carlo as monte_carlo
from repro.engine import SweepRunner, build_grid

#: Makes ``import scipy`` (and every ``scipy.*`` import) raise ImportError.
_BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_importing_the_cli_imports_no_scipy():
    proc = _run_python(
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        [
            "sweep", "fig01", "--num-jobs", "200", "--workstations", "5",
            "--utilizations", "0.1", "--jobs", "1", "--no-cache",
        ],
        [
            "feasibility", "--job-demand", "10000", "--workstations", "20",
            "--utilization", "0.1",
        ],
    ],
    ids=["sweep", "feasibility"],
)
def test_cli_runs_with_scipy_blocked(argv):
    proc = _run_python(
        _BLOCK_SCIPY + f"from repro.cli import main\nraise SystemExit(main({argv!r}))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_confidence_interval_with_scipy_blocked():
    proc = _run_python(
        _BLOCK_SCIPY
        + "from repro.stats import t_confidence_interval\n"
        "ci = t_confidence_interval([10.0, 11.0, 9.0, 10.5, 9.5], 0.90)\n"
        "print(repr(ci.half_width))"
    )
    assert proc.returncode == 0, proc.stderr
    # five observations: t(0.95, 4) * s / sqrt(5)
    expected = sps.t.ppf(0.95, 4) * np.std([10, 11, 9, 10.5, 9.5], ddof=1) / 5**0.5
    assert float(proc.stdout) == pytest.approx(expected, rel=1e-12)


def _scipy_binomial_cdf(trials: int, probability: float) -> np.ndarray:
    """The sampler's table before it used ``core.distributions.binomial_cdf``."""
    cdf = sps.binom.cdf(np.arange(trials + 1), trials, probability)
    cdf = np.asarray(cdf, dtype=np.float64)
    cdf[-1] = 1.0
    return cdf


@pytest.mark.parametrize("grid", ["fig01", "hetero-concentration"])
def test_run_batch_draws_match_the_scipy_table(grid, monkeypatch):
    # the direct sampler's draws; jobs=1 samples in process, where the
    # monkeypatch applies
    configs = build_grid(grid, num_jobs=300)
    ours = SweepRunner(jobs=1).run(configs, mode="monte-carlo-max")
    monkeypatch.setattr(monte_carlo, "binomial_cdf", _scipy_binomial_cdf)
    reference = SweepRunner(jobs=1).run(configs, mode="monte-carlo-max")
    for got, want in zip(ours.results, reference.results, strict=True):
        np.testing.assert_array_equal(got.job_times, want.job_times)
        np.testing.assert_array_equal(got.task_times, want.task_times)
