"""End-to-end CLI runs: directories, headers, exit codes, reruns."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randloc import cli, csvio, meanfield, udist
from randloc.cli import main
from randloc.csvio import read_density, read_table, read_trajectory


def run_ok(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out.strip()
    assert rc == 0, f"expected success, got rc={rc}"
    return out  # printed run directory


def test_gamma_creates_run_dir_with_echo(tmp_path, capsys):
    d = run_ok(capsys, ["gamma", "--out", str(tmp_path)])
    assert d.startswith(str(tmp_path))
    echo = (tmp_path / "gamma").glob("*/config.echo")
    lines = next(echo).read_text().splitlines()
    assert lines == sorted(lines)
    assert "g0 = 0.01" in lines
    taus, g, meta = read_trajectory(f"{d}/gamma.csv")
    assert taus[-1] == 20.0
    assert g[-1] == pytest.approx(1.0, abs=1e-3)
    assert meta["method"] == "ode"


def test_rerun_rewrites_identical_bytes(tmp_path, capsys):
    d = run_ok(capsys, ["gamma", "--out", str(tmp_path)])
    first = (tmp_path / "gamma").joinpath(d.split("/")[-1], "gamma.csv").read_bytes()
    d2 = run_ok(capsys, ["gamma", "--out", str(tmp_path)])
    assert d2 == d
    second = (tmp_path / "gamma").joinpath(d.split("/")[-1], "gamma.csv").read_bytes()
    assert first == second


def test_run_dir_naming(tmp_path, capsys):
    d = run_ok(capsys, ["gamma", "--out", str(tmp_path), "--set", "name=mine"])
    assert d.endswith("gamma/mine")
    d2 = run_ok(capsys, ["gamma", "--out", str(tmp_path)])
    tail = d2.split("/")[-1]
    assert len(tail) == 12
    assert all(c in "0123456789abcdef" for c in tail)


def test_steady_outputs_density_and_diagnostics(tmp_path, capsys):
    d = run_ok(capsys, ["steady", "--out", str(tmp_path),
                        "--set", "u_max=15", "--set", "h=0.05"])
    p, meta = read_density(f"{d}/steady.csv")
    w = p.grid.quad_weights()
    assert float(w @ p.values) == pytest.approx(1.0, abs=1e-9)
    assert float(meta["mean_u"]) == pytest.approx(1.763, abs=0.01)
    assert float(meta["residual_l1"]) < 5e-2
    assert meta["init"] == "ue"


def test_transient_with_residual_file(tmp_path, capsys):
    d = run_ok(capsys, ["transient", "--out", str(tmp_path),
                        "--set", "u_max=30", "--set", "h=0.05",
                        "--set", "tau_end=0.5", "--set", "snapshot_stride=2",
                        "--set", "residual_m_max=2"])
    cols, meta = read_table(f"{d}/transient.csv")
    n_nodes = 601
    assert cols["tau"].size % n_nodes == 0
    assert float(meta["lost_mass"]) < 1e-10
    taus, resid, _ = read_trajectory(f"{d}/residual.csv", names=("tau", "residual_l1"))
    assert taus[0] == 0.0
    assert resid[0] < 1e-14
    assert np.all(resid < 5e-3)
    cols, _ = read_table(f"{d}/residual.csv")
    assert list(cols) == ["tau", "residual_l1", "truncated_m1", "truncated_m2"]
    assert cols["truncated_m1"][-1] > cols["truncated_m2"][-1]


def test_transient_residual_needs_dense_snapshots(tmp_path, capsys):
    rc = main(["transient", "--out", str(tmp_path),
               "--set", "residual_m_max=2", "--set", "snapshot_stride=25"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "snapshot_stride" in err


@pytest.mark.parametrize(
    "sets, message",
    [(["g_mode=const", "g0=1", "residual_m_max=1"], "g0 < 1"),
     (["residual_m_max=4"], "residual_m_max must lie in 0..3")],
)
def test_impossible_residual_fails_before_evolve(tmp_path, capsys, monkeypatch, sets, message):
    def evolve(*args, **kwargs):
        pytest.fail("the transient was evolved")

    monkeypatch.setattr(cli, "evolve_transient", evolve)
    argv = ["transient", "--out", str(tmp_path), "--set", "snapshot_stride=1"]
    rc = main(argv + [a for kv in sets for a in ("--set", kv)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("transient/*/transient.csv"))


def test_mc_steady_seed_sweep(tmp_path, capsys):
    d = run_ok(capsys, ["mc-steady", "--out", str(tmp_path),
                        "--set", "m_particles=1000", "--set", "tau_end=1.0",
                        "--set", "seeds=1,2"])
    for seed in (1, 2):
        taus, g, meta = read_trajectory(f"{d}/g_seed{seed}.csv", names=("tau", "g_empirical"))
        assert np.all(g == 1.0)
        assert meta["seed"] == str(seed)
        cols, _ = read_table(f"{d}/density_seed{seed}.csv")
        assert cols["p_hat"].size > 0


def test_mc_runs_are_deterministic_across_directories(tmp_path, capsys):
    argv = ["mc-transient", "--set", "m_particles=1000", "--set", "g0=0.05",
            "--set", "tau_end=2.0", "--set", "snapshot_taus=0.5,1.0", "--seed", "9"]
    d1 = run_ok(capsys, argv + ["--out", str(tmp_path / "a")])
    d2 = run_ok(capsys, argv + ["--out", str(tmp_path / "b")])
    for name in ("g_seed9.csv", "density_seed9.csv", "config.echo"):
        b1 = (tmp_path / "a").joinpath(*d1.split("/")[-2:], name).read_bytes()
        b2 = (tmp_path / "b").joinpath(*d2.split("/")[-2:], name).read_bytes()
        assert b1 == b2, f"{name} differs between reruns"


def test_mc_transient_tracks_growth(tmp_path, capsys):
    d = run_ok(capsys, ["mc-transient", "--out", str(tmp_path),
                        "--set", "m_particles=2000", "--set", "g0=0.1",
                        "--set", "tau_end=3.0", "--set", "snapshot_taus=1.0,2.0",
                        "--seed", "3"])
    taus, g, meta = read_trajectory(f"{d}/g_seed3.csv", names=("tau", "g_empirical"))
    assert list(taus) == [1.0, 2.0, 3.0]
    assert g[0] < g[1] < g[2]
    assert "overflow_count" in meta


def test_mc_header_counts_events_by_type(tmp_path, capsys):
    d = run_ok(capsys, ["mc-transient", "--out", str(tmp_path),
                        "--set", "m_particles=2000", "--set", "g0=0.1",
                        "--set", "tau_end=2.0", "--seed", "4"])
    _, g, meta = read_trajectory(f"{d}/g_seed4.csv", names=("tau", "g_empirical"))
    localized = round(g[-1] * 2000)
    assert int(meta["events_loc_deloc"]) == localized - 200
    assert int(meta["events_loc_loc"]) > 0
    assert int(meta["events_deloc_deloc"]) > 0


@pytest.mark.parametrize("tau_end", ["nan", "inf"])
def test_non_finite_mc_end_time_is_exit_code_one(tmp_path, tau_end):
    # Without its guard such an end keeps the event loop alive for ever, so
    # the run goes to a subprocess whose timeout turns a hang into a failure.
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "randloc.cli", "mc-steady", "--out", str(tmp_path),
         "--set", f"tau_end={tau_end}", "--set", "m_particles=2000"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "error: tau_end must be finite" in proc.stderr
    assert not list(tmp_path.glob("mc-steady/*/*.csv"))


def test_nan_mc_snapshot_time_is_exit_code_one(tmp_path, capsys):
    rc = main(["mc-transient", "--out", str(tmp_path), "--set", "m_particles=1000",
               "--set", "tau_end=1.0", "--set", "snapshot_taus=0.5,nan"])
    assert rc == 1
    assert "snapshot time nan outside" in capsys.readouterr().err
    assert not list(tmp_path.glob("mc-transient/*/*.csv"))


@pytest.mark.parametrize(
    "subcommand, sets, message",
    [
        ("mc-steady", ["hist_h=0.07"], "is not an integer multiple of h=0.07"),
        ("mc-steady", ["hist_h=nan"], "spacing must be positive and finite, got nan"),
        ("mc-transient", ["hist_u_max=inf"], "u_max must be positive and finite, got inf"),
    ],
)
def test_bad_histogram_grid_fails_before_any_event(tmp_path, capsys, monkeypatch,
                                                   subcommand, sets, message):
    def run(*args, **kwargs):
        pytest.fail("the Monte Carlo run started")

    monkeypatch.setattr(cli, "run_steady", run)
    monkeypatch.setattr(cli, "run_transient", run)
    argv = [subcommand, "--out", str(tmp_path), "--set", "m_particles=1000"]
    rc = main(argv + [x for kv in sets for x in ("--set", kv)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{subcommand}/*/*.csv"))


def test_oracle_reports_fitted_order(tmp_path, capsys):
    d = run_ok(capsys, ["oracle", "--out", str(tmp_path),
                        "--set", "boxes=0.2,0.1,0.05"])
    cols, meta = read_table(f"{d}/oracle.csv")
    assert float(meta["fitted_order"]) == pytest.approx(2.0, abs=0.2)
    assert np.all(np.diff(cols["box"]) < 0.0)
    assert np.all(cols["norm"] > 0.0)


def test_fig1_emits_family_and_inset(tmp_path, capsys):
    d = run_ok(capsys, ["fig1", "--out", str(tmp_path), "--set", "h=0.05"])
    _, flat, _ = read_trajectory(f"{d}/curve_0.0.csv")
    assert np.all(flat == 0.0)
    _, hi, _ = read_trajectory(f"{d}/curve_0.01.csv")
    _, lo, _ = read_trajectory(f"{d}/curve_0.0008.csv")
    assert np.all(np.diff(hi) >= 0.0)
    assert hi[500] > lo[500]  # larger seed localizes sooner
    p, meta = read_density(f"{d}/inset_steady.csv")
    assert float(meta["mean_u"]) <= 2.0


def test_unknown_key_is_exit_code_one(tmp_path, capsys):
    rc = main(["gamma", "--out", str(tmp_path), "--set", "gee0=1"])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_set_is_exit_code_one(tmp_path, capsys):
    rc = main(["gamma", "--out", str(tmp_path), "--set", "g0:0.1"])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


def test_seed_flag_rejected_off_mc(tmp_path, capsys):
    rc = main(["gamma", "--out", str(tmp_path), "--seed", "4"])
    assert rc == 1
    assert "--seed" in capsys.readouterr().err


def test_nonconvergence_is_exit_code_two(tmp_path, capsys):
    rc = main(["steady", "--out", str(tmp_path),
               "--set", "u_max=15", "--set", "h=0.05", "--set", "max_iters=2"])
    assert rc == 2
    assert "iterations" in capsys.readouterr().err


def test_mass_loss_is_exit_code_two(tmp_path, capsys):
    rc = main(["transient", "--out", str(tmp_path),
               "--set", "u_max=10", "--set", "h=0.05", "--set", "tau_end=1.0"])
    assert rc == 2
    assert "leakage" in capsys.readouterr().err


def test_non_finite_transient_step_is_exit_code_two(tmp_path, capsys, monkeypatch):
    def nan_kernel(p, q, **kwargs):
        return udist.UDensity._unchecked(p.grid, np.full(p.grid.n_nodes, np.nan))

    monkeypatch.setattr(meanfield, "collision_kernel", nan_kernel)
    rc = main(["transient", "--out", str(tmp_path), "--set", "h=0.1", "--set", "tau_end=0.2"])
    assert rc == 2
    assert "non-finite density mass nan at tau=0.1" in capsys.readouterr().err


def test_blocked_output_root_is_exit_code_three(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory\n")
    rc = main(["gamma", "--out", str(blocker / "sub")])
    assert rc == 3


@pytest.mark.parametrize("subcommand", ["steady", "transient"])
def test_oversized_grid_is_exit_code_one(tmp_path, capsys, monkeypatch, subcommand):
    # h = 0.001 needs about 10 GB of pair tables: refused before any is built
    def build(*args):
        pytest.fail("pair tables were built")

    monkeypatch.setattr(udist, "_deposit_tables", build)
    monkeypatch.setattr(udist, "_node_tables", build)
    rc = main([subcommand, "--out", str(tmp_path), "--set", "h=0.001"])
    assert rc == 1
    assert "30001 nodes) would take" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["steady", "transient"])
def test_grid_beyond_uint16_nodes_is_exit_code_one(tmp_path, capsys, monkeypatch, subcommand):
    # h = 0.0004 gives 75001 nodes, more than uint16 indices reach, whatever the budget
    def build(*args):
        pytest.fail("pair tables were built")

    monkeypatch.setattr(udist, "_TABLE_BUDGET_BYTES", 1 << 62)
    monkeypatch.setattr(udist, "_deposit_tables", build)
    monkeypatch.setattr(udist, "_node_tables", build)
    rc = main([subcommand, "--out", str(tmp_path), "--set", "h=0.0004"])
    assert rc == 1
    assert "75001 nodes) index nodes as uint16" in capsys.readouterr().err


def test_failed_echo_write_keeps_old_file(tmp_path, capsys, monkeypatch):
    echo = tmp_path / "gamma" / "run" / "config.echo"
    echo.parent.mkdir(parents=True)
    echo.write_text("old\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(csvio.os, "replace", refuse)
    rc = main(["gamma", "--out", str(tmp_path), "--set", "name=run"])
    assert rc == 3
    assert "disk full" in capsys.readouterr().err
    assert echo.read_text() == "old\n"
    assert [q.name for q in echo.parent.iterdir()] == ["config.echo"]


@pytest.mark.parametrize(
    "jobs, n_seeds, cpus, workers",
    [(1, 5, 8, 1), (4, 2, 8, 2), (8, 10, 2, 2), (4, 10, None, 1), (0, 3, 4, 1), (3, 1, 4, 1)],
)
def test_mc_worker_count_is_capped(monkeypatch, jobs, n_seeds, cpus, workers):
    # at most --jobs, one worker per seed and one per CPU; no pool is started
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli._worker_count(jobs, n_seeds) == workers
