"""Tests of the benchmark itself: reduced runs complete, and every output check
rejects a deliberately corrupted input.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _run(tmp_path: Path, *args: str) -> tuple[subprocess.CompletedProcess, dict]:
    """Run the benchmark in a scratch checkout whose src/ links to this one."""
    (tmp_path / "src").symlink_to(REPO / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0", "--reduced", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reduced_workload_completes(tmp_path, name):
    _, result = _run(tmp_path, "--workload", name, "--trace", "0")
    ops = len(workloads.build(name, 3, reduced=True).invocations) + len(checks.NAMES[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == ops
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reduced_traced_run_reports_every_layer(tmp_path):
    _, result = _run(tmp_path, "--workload", "steady-ladder", "--trace", "1")
    assert result["correct"]
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    for name in ("udist.kernel_calls", "meanfield.steady_iters", "meanfield.transient_steps",
                 "csvio.rows", "popmc.events", "gaussoracle.posterior_calls"):
        assert isinstance(metrics[name]["value"], int) and metrics[name]["value"] > 0
    steps = metrics["meanfield.transient_steps"]["value"]
    assert metrics["udist.drift_calls"]["value"] >= steps


def test_missing_sources_exit_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc-population", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def steady():
    from randloc.meanfield import SolverConfig, solve_steady

    p = solve_steady(SolverConfig(u_max=30.0, h=0.1))
    return p.grid.nodes(), p.values


def test_tail_slope_rejects_moved_tail(steady):
    u, p = steady
    assert checks.check_tail_slope(u, p)[0]
    moved = np.where(u > 10.0, p * np.exp(-0.2 * (u - 10.0)), p)
    assert not checks.check_tail_slope(u, moved)[0]


def test_density_check_rejects_lost_mass(steady):
    u, p = steady
    assert checks.check_density(u, p)[0]
    assert not checks.check_density(u, np.where(u > 10.0, 0.0, p))[0]


def test_pair_moment_rejects_wrong_mean(steady):
    u, p = steady
    mean = float(checks.trapezoid_weights(u) @ (u * p))
    assert checks.check_pair_moment(u, p, mean)[0]
    assert not checks.check_pair_moment(u, p, mean + 0.01)[0]


def test_histogram_ks_rejects_moved_density(steady):
    u, p = steady
    assert checks.check_histogram_ks(u, p, u, p)[0]
    shifted = np.concatenate((np.zeros(2), p[:-2]))  # tail moved by 0.2 in u
    shifted /= checks.trapezoid_weights(u) @ shifted
    assert not checks.check_histogram_ks(u, shifted, u, p)[0]


def test_residual_order_rejects_first_order_ladder():
    hs = (0.04, 0.02, 0.01)
    assert checks.check_residual_order(hs, (7.9e-3, 2.0e-3, 5.2e-4))[0]
    assert not checks.check_residual_order(hs, (7.9e-3, 3.95e-3, 1.975e-3))[0]


def test_dtau_ratio_rejects_non_first_order(steady):
    u, p = steady
    first = {0.2: p + 4e-3, 0.1: p + 2e-3, 0.05: p + 1e-3}
    assert checks.check_dtau_ratio(u, first)[0]
    second = {0.2: p + 4e-3, 0.1: p + 1e-3, 0.05: p + 2.5e-4}
    assert not checks.check_dtau_ratio(u, second)[0]


def test_relaxed_and_footnote_reject_large_defects(steady):
    u, p = steady
    assert checks.check_relaxed(u, p, p, 0.05)[0]
    far = np.concatenate((np.zeros(5), p[:-5]))
    assert not checks.check_relaxed(u, far, p, 0.05)[0]
    assert checks.check_footnote(np.array([0.0, 1e-4]))[0]
    assert not checks.check_footnote(np.array([0.0, 6e-3]))[0]


def test_g_curve_rejects_shift_of_a_few_sd():
    m, g0 = 100000, 0.1
    taus = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 10.0])
    exact = checks.logistic(taus, g0, m / (m - 1.0))
    assert checks.check_g_curve(taus, exact, g0, m)[0]
    sd = checks.logistic_sd(taus, g0, m)
    assert not checks.check_g_curve(taus, exact + 6.0 * sd, g0, m)[0]


def test_logistic_sd_matches_simulated_spread():
    from randloc.popmc import run_transient

    m, g0, taus = 2000, 0.1, (1.0, 2.0, 3.0)
    gs = np.array([[s.g_empirical for s in run_transient(m, g0, 4.0, seed, snapshot_taus=taus)[1]]
                   for seed in range(200)])
    ratio = gs.std(axis=0, ddof=1) / checks.logistic_sd(np.array(taus), g0, m)
    assert np.all((ratio > 0.8) & (ratio < 1.2)), ratio


def test_oracle_check_rejects_first_order_contraction():
    boxes = np.array([0.4, 0.2, 0.1, 0.05])
    cols = {"box": boxes, "var1": 0.5 + 0.0208 * boxes ** 2, "var_rel": boxes ** 2 / 12.0}
    meta = {"xi1_sq": "1", "xi2_sq": "1", "fitted_order": "2.0"}
    assert checks.check_oracle(cols, meta)[0]
    first_order = dict(cols, var1=0.5 + 0.01 * boxes)
    assert not checks.check_oracle(first_order, dict(meta, fitted_order="1.0"))[0]
