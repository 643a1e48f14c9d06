"""End-to-end CLI runs: directories, headers, exit codes, reruns."""

import concurrent.futures
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import randloc
from randloc import cli, csvio, gaussoracle, meanfield, popmc, udist
from randloc.cli import main
from randloc.config import SCHEMAS
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
    assert "method" not in meta  # the ODE is the one path


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
    assert not {"init", "tol_fixed_point", "max_iters"} & set(meta)


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
     (["residual_m_max=4"], "residual_m_max must lie in 0..3"),
     (["residual_m_max=-1"], "residual_m_max must lie in 0..3, got -1")],
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
    assert sorted(key for key in meta if key.startswith("events_")) == sorted(popmc._COUNTERS)
    assert all(int(meta[key]) > 0 for key in popmc._COUNTERS)


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
        [sys.executable, "-m", "randloc", "mc-steady", "--out", str(tmp_path),
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


@pytest.mark.parametrize(
    "subcommand, sets, message",
    [
        ("steady", ["h=1e-320"], "u_max / h overflows for u_max=30.0, h=1e-320"),
        ("mc-steady", ["hist_h=1e-320"], "u_max / h overflows for u_max=30.0, h=1e-320"),
        ("transient", ["dtau=1e308"], "dtau / h overflows for dtau=1e+308, h=0.02"),
        ("transient", ["g_mode=const", "tau_end=1e308"],
         "tau_end / dtau overflows for tau_end=1e+308, dtau=0.02"),
    ],
)
def test_overflowing_grid_or_step_count_is_exit_code_one(tmp_path, capsys, subcommand, sets,
                                                         message):
    # each of these ratios once overflowed to infinity in int(round(...)), and
    # its OverflowError ended the run in a traceback
    rc = main([subcommand, "--jobs", "1", "--out", str(tmp_path)]
              + [x for kv in sets for x in ("--set", kv)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not list(tmp_path.glob(f"{subcommand}/*/*.csv"))


@pytest.mark.parametrize(
    "sets",
    [["tau_end=1e300"], ["tau_end=1e12", "h=0.5"]],
    ids=["tau_end=1e300", "tau_end=1e12-h=0.5"],
)
def test_transient_beyond_the_step_limit_is_exit_code_one(tmp_path, capsys, monkeypatch, sets):
    # these runs once took their first of 5e301 and 2e12 steps and ran until killed
    monkeypatch.setattr(meanfield, "drift_shift",
                        lambda *a: pytest.fail("a transient step started"))
    rc = main(["transient", "--out", str(tmp_path), "--set", "g_mode=const", "--set", "g0=1"]
              + [x for kv in sets for x in ("--set", kv)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: tau_end=") and err.count("\n") == 1
    assert "give more than 10000000 time nodes" in err
    assert not list(tmp_path.glob("transient/*/*.csv"))


def _fail(what):
    def fail(*args, **kwargs):
        pytest.fail(f"{what} started")

    return fail


@pytest.mark.parametrize(
    "subcommand, sets, message",
    [
        ("steady", ["h=0.1", "u_max=nan"], "u_max must be positive and finite, got nan"),
        ("steady", ["h=0.1", "u_max=inf"], "u_max above 500.0 overflows the e^u sweep"),
        ("oracle", ["xi1_sq=1e300"],
         "xi1_sq=1e+300 and xi2_sq=1.0 need more than 4194304 quadrature points per axis"),
        ("oracle", ["xi1_sq=1e12"],
         "xi1_sq=1000000000000.0 and xi2_sq=1.0 need more than 4194304 quadrature points"),
        ("oracle", ["xi2_sq=inf"], "xi2_sq must be positive and finite, got inf"),
        ("oracle", ["boxes=nan,0.1,0.05"],
         "boxes must be positive and finite, got [nan, 0.1, 0.05]"),
        # an oracle run always fits the order, so it takes only boxes a fit can use
        ("oracle", ["boxes=0.4,0.2,0.05"], "box sizes must be geometrically spaced"),
        ("transient", ["dtau=-0.02"],
         "dtau=-0.02 is not an integer multiple of h=0.02, 1 or more times"),
        ("gamma", ["dtau=nan"], "dtau must be positive and finite, got nan"),
        ("mc-steady", ["m_particles=1000", "tau_end=1e300"],
         "tau_end=1e+300 with m_particles=1000 expects 5e+302 events, more than 1e+10"),
        ("oracle", ["xi1_sq=-1"], "xi1_sq must be positive and finite, got -1.0"),
        # a ratio of 1 passed as geometric spacing, and the run exited 2 blaming
        # the quadrature; two snapshots at one time wrote two blocks of one density
        ("oracle", ["boxes=0.1,0.1,0.1"], "boxes lists 0.1 more than once"),
        ("mc-steady", ["m_particles=1000", "snapshot_taus=0.5,0.5"],
         "snapshot_taus lists 0.5 more than once"),
        # a snapshot past tau_end was once dropped, its time still in the header
        ("mc-steady", ["m_particles=1000", "tau_end=1", "snapshot_taus=0.5,50"],
         "snapshot time 50.0 outside [0.0, 1.0]"),
        # fig1 wrote one curve file for two g0 values
        ("fig1", ["g0_list=0.01,0.01", "h=0.5", "u_max=10"], "g0_list lists 0.01 more than once"),
        ("oracle", ["boxes=0.8,0.4,0.2"],
         "largest box 0.8 is not small next to the narrower width 1"),
        # a constant g0 of 1.5 ran, and nan and inf exited 2 blaming the density
        ("transient", ["g_mode=const", "g0=1.5"], "g0 must lie in [0, 1], got 1.5"),
        ("transient", ["g_mode=const", "g0=nan"], "g0 must lie in [0, 1], got nan"),
        ("transient", ["g_mode=const", "g0=inf"], "g0 must lie in [0, 1], got inf"),
        # an empty box list wrote a header and no rows
        ("oracle", ["boxes="], "need at least three box sizes to fit an order"),
        # an empty g0 list wrote the inset and no curve
        ("fig1", ["g0_list=", "h=0.5", "u_max=10"], "g0_list must list at least one g0"),
        # an end just before 0 wrote one row at that time
        ("mc-steady", ["m_particles=1000", "tau_end=-1e-13"],
         "tau_end=-1e-13 is before the population time 0.0"),
    ],
)
def test_out_of_range_key_is_exit_code_one_naming_the_key(tmp_path, capsys, monkeypatch,
                                                          subcommand, sets, message):
    # each of these once ran (a stalled steady solve, a transient that silently
    # used h, an endless event loop, quadratures at 2^21 points per axis) or
    # ended in a message that named no key or came after numpy warnings
    monkeypatch.setattr(cli, "solve_steady", _fail("the steady solve"))
    monkeypatch.setattr(gaussoracle, "_moments_at", _fail("the quadrature"))
    monkeypatch.setattr(cli, "evolve_transient", _fail("the transient evolution"))
    monkeypatch.setattr(popmc, "_apply_events", _fail("the Monte Carlo event loop"))
    rc = main([subcommand, "--jobs", "1", "--out", str(tmp_path)]
              + [x for kv in sets for x in ("--set", kv)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not list(tmp_path.glob(f"{subcommand}/*/*.csv"))


@pytest.mark.parametrize("subcommand", ["mc-steady", "mc-transient"])
def test_histogram_grid_beyond_uint16_fails_before_any_event(tmp_path, capsys, monkeypatch,
                                                             no_grid_beyond_uint16, subcommand):
    # hist_h = 1e-9 once ran every event, then died allocating 224 GiB of bins
    def advance(*args):
        pytest.fail("the Monte Carlo event loop started")

    monkeypatch.setattr(popmc, "_advance", advance)
    rc = main([subcommand, "--out", str(tmp_path), "--set", "m_particles=1000",
               "--set", "hist_h=1e-9"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(30000000001 nodes) index nodes as uint16" in err
    assert not list(tmp_path.glob(f"{subcommand}/*/*.csv"))


@pytest.mark.parametrize(
    "subcommand, key",
    [("mc-steady", "u_ceiling"), ("mc-transient", "u_ceiling"),
     ("mc-transient", "entrant_rule"), ("mc-transient", "entrant_cap"),
     ("steady", "tol_fixed_point"), ("steady", "max_iters"), ("steady", "init"),
     ("fig1", "tol_fixed_point"), ("fig1", "max_iters"), ("oracle", "box_convention"),
     ("gamma", "method"), ("oracle", "fit_order")],
)
def test_removed_mc_key_is_an_unknown_key(tmp_path, capsys, subcommand, key):
    # the Monte Carlo runs only the adopt rule and keeps no overflow ceiling,
    # the steady solve stops on the library's own tolerance and iteration cap
    # from its default start, the oracle's box is the window's full width, gamma
    # always integrates the ODE and the oracle always fits the order; a config
    # that still sets one of these keys is refused like any typo
    rc = main([subcommand, "--out", str(tmp_path), "--set", f"{key}=1"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown config keys for {subcommand}: {key}\n"
    assert not tmp_path.joinpath(subcommand).exists()


@pytest.mark.parametrize("m_particles", [0, 1])
def test_population_of_fewer_than_two_is_exit_code_one(tmp_path, capsys, m_particles):
    rc = main(["mc-transient", "--out", str(tmp_path), "--set", f"m_particles={m_particles}",
               "--set", "g0=0", "--set", "tau_end=1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: a population needs at least 2 particles, got {m_particles}\n")


@pytest.mark.parametrize(
    "subcommand, sets",
    [pytest.param("gamma", ["tau_end=1e9", "dtau=1e-3"], id="ode"),
     pytest.param("fig1", ["g0_list=0.01", "tau_end=1e9", "dtau=1e-3"], id="closed")],
)
def test_trajectory_beyond_the_node_limit_is_exit_code_one(tmp_path, capsys, monkeypatch,
                                                           subcommand, sets):
    # 1e12 time nodes once died allocating 7.28 TiB
    arange = np.arange

    def guarded(*args, **kwargs):
        if args and args[0] > 10**7:
            pytest.fail(f"an arange of {args[0]} values was started")
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    rc = main([subcommand, "--out", str(tmp_path)] + [x for kv in sets for x in ("--set", kv)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: tau_end=1000000000.0 and dtau=0.001 give more than 10000000 "
                   "time nodes; use a larger dtau\n")


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError(), "out of memory"),
     (MemoryError("Unable to allocate 9.09 TiB"), "Unable to allocate 9.09 TiB")],
)
def test_memory_error_is_one_line_and_exit_code_one(tmp_path, capsys, monkeypatch, exc, message):
    # nothing is allocated: the commands raise as numpy does when an array does not fit
    def exhausted(*args):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "oracle", exhausted)
    monkeypatch.setattr(cli, "cmd_mc", exhausted)
    for subcommand in ("oracle", "mc-steady"):
        rc = main([subcommand, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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


def test_nonconvergence_is_exit_code_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(meanfield, "_MAX_ITERS", 2)
    rc = main(["steady", "--out", str(tmp_path),
               "--set", "u_max=15", "--set", "h=0.05"])
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


@pytest.mark.parametrize(
    "subcommand, sets, message",
    [
        ("transient", ["dtau=-0.02"], "dtau=-0.02 is not an integer multiple of h=0.02"),
        ("mc-steady", ["m_particles=10000000000000"],
         "m_particles=10000000000000 is more than 2e+07"),
        ("oracle", ["xi2_sq=1e-11", "boxes=1e-6,5e-7,2.5e-7"],
         "xi1_sq=1.0 and xi2_sq=1e-11 need more than 4194304 quadrature points"),
        ("oracle", ["boxes=4e-310,2e-310,1e-310"], "acceptance norm 0.000e+00 below 1e-300"),
    ],
)
def test_refused_run_leaves_no_run_directory(tmp_path, capsys, subcommand, sets, message):
    # each of these once left <out>/<subcommand>/<name>/config.echo behind; the
    # m_particles run ended in numpy's "Unable to allocate", which names no key;
    # a box of 1e-310 has an acceptance norm that underflows to 0
    out = tmp_path / "out"
    rc = main([subcommand, "--jobs", "1", "--out", str(out)]
              + [x for kv in sets for x in ("--set", kv)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("subcommand", ["steady", "transient"])
def test_grid_far_beyond_uint16_fails_before_any_grid_array(tmp_path, capsys,
                                                            no_grid_beyond_uint16, subcommand):
    rc = main([subcommand, "--out", str(tmp_path), "--set", "h=1e-9"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "30000000001 nodes) index nodes as uint16" in err


def test_python_m_randloc_runs_the_cli(tmp_path, capsys, monkeypatch):
    # in process: the package's __main__ hands sys.argv to cli.main
    def refuse(*args, **kwargs):
        pytest.fail("a subprocess or worker pool was started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(sys, "argv", ["randloc", "gamma", "--out", str(tmp_path),
                                      "--set", "tau_end=1", "--set", "name=m"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("randloc", run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "gamma" / "m")
    taus, _, _ = read_trajectory(f"{tmp_path}/gamma/m/gamma.csv")
    assert taus[-1] == 1.0


def test_cli_import_leaves_the_worker_pool_unimported():
    # the pool pulls in multiprocessing and socket, which only a run with
    # workers needs
    script = "import sys, randloc.cli; assert 'multiprocessing' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(randloc.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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


def test_failed_run_leaves_any_earlier_run_as_it_was(tmp_path, capsys, monkeypatch):
    # a stalled rerun once wrote its curve_0.5.csv next to the first run's
    # config.echo; a stalled first run left a run directory without one
    argv = ["fig1", "--out", str(tmp_path), "--set", "name=f", "--set", "tau_end=1",
            "--set", "dtau=0.1", "--set", "u_max=6", "--set", "h=0.5"]
    with monkeypatch.context() as m:
        m.setattr(meanfield, "_MAX_ITERS", 1)
        assert main(argv) == 2
    assert list(tmp_path.joinpath("fig1").iterdir()) == []
    d = Path(run_ok(capsys, argv))
    before = {q.name: q.read_bytes() for q in d.iterdir()}
    monkeypatch.setattr(meanfield, "_MAX_ITERS", 1)
    rc = main(argv + ["--set", "g0_list=0.5"])
    assert rc == 2
    assert capsys.readouterr().err.endswith("after 1 iterations\n")
    assert {q.name: q.read_bytes() for q in d.iterdir()} == before
    assert [q.name for q in tmp_path.joinpath("fig1").iterdir()] == ["f"]


def test_failed_publish_puts_the_earlier_run_back(tmp_path, capsys, monkeypatch):
    # the earlier run is moved aside before the stage takes its name; when that
    # rename fails it goes back, and neither the stage nor the aside is left
    argv = ["gamma", "--out", str(tmp_path), "--set", "name=run"]
    d = Path(run_ok(capsys, argv))
    before = {q.name: q.read_bytes() for q in d.iterdir()}
    rename = Path.rename

    def refuse_stage(self, target):
        if self.name.startswith(".partial-"):
            raise OSError("rename refused")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", refuse_stage)
    rc = main(argv + ["--set", "dtau=0.05"])
    assert rc == 3
    assert capsys.readouterr().err == "error: rename refused\n"
    assert {q.name: q.read_bytes() for q in d.iterdir()} == before
    assert [q.name for q in tmp_path.joinpath("gamma").iterdir()] == ["run"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_rerun_leaves_exactly_its_own_files(tmp_path, capsys, monkeypatch, jobs):
    # a rerun with fewer seeds once kept the first run's g_seed2.csv
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["mc-steady", "--jobs", jobs, "--out", str(tmp_path), "--set", "name=s",
            "--set", "m_particles=1000", "--set", "tau_end=1"]
    run_ok(capsys, argv + ["--set", "seeds=1,2"])
    d = Path(run_ok(capsys, argv + ["--set", "seeds=1"]))
    assert sorted(q.name for q in d.iterdir()) == [
        "config.echo", "density_seed1.csv", "g_seed1.csv"]
    assert [q.name for q in tmp_path.joinpath("mc-steady").iterdir()] == ["s"]


def test_mc_seed_sweep_on_workers_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    # the README promises results independent of --jobs; two workers take the
    # three seeds in a process pool
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    sets = [x for kv in ("seeds=3,4,5", "m_particles=2000", "tau_end=2", "g0=0.1")
            for x in ("--set", kv)]
    runs = [Path(run_ok(capsys, ["mc-transient", "--jobs", jobs, "--out", str(tmp_path / jobs)]
                        + sets)) for jobs in ("1", "2")]
    assert pools == [2]
    assert runs[0].relative_to(tmp_path / "1") == runs[1].relative_to(tmp_path / "2")
    names = sorted(q.name for q in runs[0].iterdir())
    assert len(names) == 7  # a g and a density file per seed, and config.echo
    assert names == sorted(q.name for q in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_empty_seed_list_is_exit_code_one(tmp_path, capsys):
    rc = main(["mc-steady", "--out", str(tmp_path), "--set", "seeds="])
    assert rc == 1
    assert capsys.readouterr().err == "error: seeds must list at least one integer\n"
    assert not tmp_path.joinpath("mc-steady").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_repeated_seed_is_exit_code_one_before_any_event(tmp_path, capsys, monkeypatch, jobs):
    # seeds=3,3 once ran seed 3 twice, and on two workers both wrote g_seed3.csv
    def advance(*args):
        pytest.fail("the Monte Carlo event loop started")

    monkeypatch.setattr(popmc, "_advance", advance)
    rc = main(["mc-transient", "--jobs", jobs, "--out", str(tmp_path),
               "--set", "seeds=3,1,3,1,2", "--set", "m_particles=1000"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seeds lists 1, 3 more than once\n"
    assert not tmp_path.joinpath("mc-transient").exists()


@pytest.mark.parametrize(
    "name, message",
    [("../../escape1", "name '../../escape1' is not one path component"),
     (".", "name '.' is not one path component"),
     ("..", "name '..' is not one path component"),
     ("a/b", "name 'a/b' is not one path component"),
     ("nul\0byte", "name 'nul\\x00byte' is not one path component"),
     ("x" * 300, "name is 300 bytes long, more than the 255 of a file name"),
     ("\u00e9" * 128, "name is 256 bytes long, more than the 255 of a file name"),
     ("\udcff", "name '\\udcff' is not UTF-8 text")],
    ids=["escape", "dot", "dotdot", "nested", "nul", "long", "long-utf8", "not-utf8"],
)
def test_name_that_is_not_one_path_component_is_exit_code_one(tmp_path, capsys, monkeypatch,
                                                              name, message):
    # each of these once wrote outside --out, among other runs, into a nested
    # directory, or exited 3 (too long for a file name) or left an empty
    # directory (not UTF-8, so no header could hold it)
    cwd = tmp_path / "a" / "b"
    cwd.mkdir(parents=True)
    monkeypatch.chdir(cwd)
    rc = main(["gamma", "--out", "out", "--set", f"name={name}"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("config.echo"))


def test_name_of_255_bytes_is_one_run_directory(tmp_path, capsys):
    name = "\u00e9" * 127 + "x"
    d = run_ok(capsys, ["gamma", "--out", str(tmp_path), "--set", f"name={name}"])
    assert Path(d) == tmp_path / "gamma" / name
    assert (Path(d) / "gamma.csv").exists()


@pytest.mark.parametrize(
    "jobs, n_seeds, cpus, workers",
    [(1, 5, 8, 1), (4, 2, 8, 2), (8, 10, 2, 2), (4, 10, None, 1), (0, 3, 4, 1), (3, 1, 4, 1)],
)
def test_mc_worker_count_is_capped(monkeypatch, jobs, n_seeds, cpus, workers):
    # at most --jobs, one worker per seed and one per usable CPU, counted from
    # the affinity mask or else cpu_count; no pool is started
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert cli._worker_count(jobs, n_seeds) == workers
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli._worker_count(jobs, n_seeds) == workers


@pytest.mark.parametrize(
    "argv, message",
    [(["steady", "--bogus"], "unrecognized arguments: --bogus"),
     (["steady", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
     (["nosuch"], "argument subcommand: invalid choice: 'nosuch'"),
     (["steady", "--jobs", "0"], "--jobs must be at least 1, got 0"),
     (["steady", "--jobs", "-3"], "--jobs must be at least 1, got -3")],
    ids=["unknown-flag", "bad-jobs", "unknown-subcommand", "zero-jobs", "negative-jobs"],
)
def test_argument_error_is_exit_code_one(tmp_path, capsys, argv, message):
    # argparse once printed its usage and exited 2, the numerical-failure code;
    # --jobs 0 and below once ran one worker without a word
    rc = main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not tmp_path.joinpath("steady").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["steady", "-h"])
    assert stop.value.code == 0
    assert "--set KEY=VALUE" in capsys.readouterr().out


def test_later_set_of_a_key_wins(tmp_path, capsys):
    d = run_ok(capsys, ["gamma", "--out", str(tmp_path), "--set", "tau_end=2",
                        "--set", "tau_end=1"])
    taus, _, _ = read_trajectory(f"{d}/gamma.csv")
    assert taus[-1] == 1.0


# A small base config per subcommand; each fuzz case sets one numeric key
# on top of it, and the later --set wins.
_FUZZ_BASE = {
    "gamma": ["tau_end=1", "dtau=0.1"],
    "steady": ["u_max=6", "h=0.5"],
    "transient": ["u_max=30", "h=0.5", "tau_end=1"],
    "mc-steady": ["m_particles=1000", "tau_end=1", "hist_u_max=5", "hist_h=0.5"],
    "mc-transient": ["m_particles=100", "g0=0.1", "tau_end=1", "hist_u_max=5", "hist_h=0.5"],
    "oracle": ["boxes=0.2,0.1,0.05"],
    "fig1": ["g0_list=0.01", "tau_end=1", "dtau=0.1", "u_max=6", "h=0.5"],
}
_FUZZ_FLOATS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")
_FUZZ_INTS = ("0", "-1", str(2**63))
_FUZZ_PEAK_BYTES = 64 << 20
_FUZZ_CASES = [
    (subcommand, key, value)
    for subcommand, schema in SCHEMAS.items()
    for key, field in schema.items()
    if field.kind != "str"
    for value in (_FUZZ_INTS if field.kind in ("int", "ints") else _FUZZ_FLOATS)
]


# The base configs, and each with one choice of a string key set on top of it.
_FUZZ_CHOICES = [pytest.param(subcommand, None, id=subcommand) for subcommand in sorted(_FUZZ_BASE)]
_FUZZ_CHOICES += [
    pytest.param(subcommand, f"{key}={choice}", id=f"{subcommand}-{key}={choice}")
    for subcommand, schema in SCHEMAS.items()
    for key, field in schema.items()
    for choice in field.choices or ()
]


@pytest.mark.parametrize("subcommand, choice", _FUZZ_CHOICES)
def test_fuzz_base_config_succeeds(tmp_path, capsys, subcommand, choice):
    # a failing base would stop every fuzz case of its subcommand at one check;
    # transient init=exp once exited 2 at the base, and on every other grid
    sets = [*_FUZZ_BASE[subcommand], *([choice] if choice else [])]
    run_ok(capsys, [subcommand, "--jobs", "1", "--out", str(tmp_path)]
           + [x for kv in sets for x in ("--set", kv)])


@pytest.mark.parametrize("subcommand, key, value", _FUZZ_CASES)
def test_every_numeric_key_ends_in_an_exit_code(tmp_path, capsys, subcommand, key, value):
    # a run succeeds, or prints one error line and no warning, within 64 MB of
    # traced allocations (xi1_sq = 1e300 once took 514 MB before its error)
    sets = [*_FUZZ_BASE[subcommand], f"{key}={value}"]
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([subcommand, "--jobs", "1", "--out", str(tmp_path)]
                      + [x for kv in sets for x in ("--set", kv)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert peak <= _FUZZ_PEAK_BYTES, f"{peak / 2**20:.1f} MB traced"
    assert rc in (0, 1, 2)
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
