"""Command-line front end.

Every subcommand reads an optional `key = value` config file, applies
`--set` overrides, resolves against its typed schema, and writes CSV
files plus a `config.echo` into `<out>/<subcommand>/<name-or-hash>/`. Every
file is first written into a hidden stage beside it, `config.echo` last, and
the stage replaces the run directory only once the run is done: a rerun
leaves exactly its own files, and a failed run leaves no stage and any
earlier run directory as it was.
Outputs carry the resolved config in `#` header lines and contain no
timestamps, so re-running an identical config rewrites identical bytes.

Exit codes: 0 success, 1 invalid configuration or arguments (including
work too large for memory), 2 solver or quadrature non-convergence
(including mass-loss and step instability), 3 filesystem trouble.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .csvio import atomic_writer, write_density, write_table, write_trajectory
from .errors import ConfigError, ConvergenceError
from .gamma import _check_g0, closed_trajectory, gamma_ode
# cli calls no posterior_moments; perfbench's tracer wraps it under this module's name
from .gaussoracle import convergence_study, posterior_moments  # noqa: F401
from .meanfield import (
    _HIERARCHY_LIMIT,
    SolverConfig,
    evolve_transient,
    residual_resummed,
    residual_steady,
    resolve_init,
    solve_steady,
)
from .popmc import _COUNTERS, empirical_density, run_steady, run_transient
from .udist import UGrid, _usable_cpus, moment

__all__ = ["main"]


def cmd_gamma(cfg: dict, run_dir: Path) -> None:
    traj = gamma_ode(cfg["g0"], cfg["tau_end"], cfg["dtau"])
    write_trajectory(run_dir / "gamma.csv", traj.taus, traj.values, cfg)


def cmd_steady(cfg: dict, run_dir: Path) -> None:
    p = solve_steady(SolverConfig(u_max=cfg["u_max"], h=cfg["h"]))
    resid = residual_steady(p)
    write_density(
        run_dir / "steady.csv",
        p,
        dict(cfg, residual_l1=resid.l1, residual_sup=resid.sup, mean_u=moment(p, 1)),
    )


def cmd_transient(cfg: dict, run_dir: Path) -> None:
    _check_g0(cfg["g0"])  # a localized fraction in either g_mode
    sc = SolverConfig(u_max=cfg["u_max"], h=cfg["h"], dtau=cfg["dtau"] or None)  # 0 means h
    grid = sc.grid
    p0 = resolve_init(grid, cfg["init"])
    if cfg["g_mode"] == "closed":
        g = closed_trajectory(cfg["g0"], cfg["tau_end"], sc.dtau_resolved)
    else:
        g = float(cfg["g0"])
    m_max = cfg["residual_m_max"]
    if not 0 <= m_max <= _HIERARCHY_LIMIT:
        raise ConfigError(f"residual_m_max must lie in 0..{_HIERARCHY_LIMIT}, got {m_max}")
    if m_max > 0:
        if cfg["snapshot_stride"] > 10:
            raise ConfigError(
                "residual_m_max needs snapshot_stride <= 10 so the time quadrature "
                "has dense enough snapshots"
            )
        if not 0.0 <= cfg["g0"] < 1.0:
            raise ConfigError(f"residual_m_max needs 0 <= g0 < 1, got g0={cfg['g0']}")
    sol = evolve_transient(p0, g, cfg["tau_end"], sc, snapshot_stride=cfg["snapshot_stride"])
    write_table(
        run_dir / "transient.csv",
        {"tau": sol.taus, "u": grid.nodes(), "p": sol.densities},
        dict(cfg, max_renorm_drift=sol.max_renorm_drift, lost_mass=sol.lost_mass),
    )
    if m_max > 0:
        res = residual_resummed(sol, g, m_max)
        cols = {"tau": res.taus, "residual_l1": res.footnote}
        for m, row in enumerate(res.truncated, 1):
            cols[f"truncated_m{m}"] = row
        write_table(run_dir / "residual.csv", cols, cfg)


def _write_mc_outputs(run_dir: Path, cfg: dict, seed: int, snaps, final_pop, grid: UGrid) -> None:
    taus = [s.tau for s in snaps] + [final_pop.tau]
    gs = [s.g_empirical for s in snaps] + [final_pop.g_empirical]
    write_trajectory(
        run_dir / f"g_seed{seed}.csv", np.asarray(taus), np.asarray(gs),
        dict(cfg, seed=seed, **{name: getattr(final_pop, name) for name in _COUNTERS}),
        names=("tau", "g_empirical"),
    )
    # one histogram block per snapshot and the final state, if any is localized
    states = [(s.tau, s.u_values) for s in snaps] + [(final_pop.tau, final_pop.current_u())]
    hists = [(tau, empirical_density(u, grid).values) for tau, u in states if u.size > 0]
    write_table(
        run_dir / f"density_seed{seed}.csv",
        {
            "tau": np.array([tau for tau, _ in hists], dtype=float),
            "u_bin": grid.nodes(),
            "p_hat": np.reshape([p for _, p in hists], (len(hists), grid.n_nodes)),
        },
        dict(cfg, seed=seed),
    )


def _mc_one(subcommand: str, cfg: dict, run_dir_s: str, seed: int, grid: UGrid) -> None:
    run_dir = Path(run_dir_s)
    # Times at the end are the final state; later or NaN times stay in, for popmc to refuse.
    inner = [t for t in cfg["snapshot_taus"] if not abs(t - cfg["tau_end"]) <= 1e-12]
    if subcommand == "mc-steady":
        pop, snaps = run_steady(cfg["m_particles"], cfg["tau_end"], seed, inner)
    else:
        pop, snaps = run_transient(cfg["m_particles"], cfg["g0"], cfg["tau_end"], seed, inner)
    _write_mc_outputs(run_dir, cfg, seed, snaps, pop, grid)


def _worker_count(jobs: int, n_seeds: int) -> int:
    """Worker processes for a seed sweep: at most jobs, one per seed and one
    per usable CPU; 1 means the seeds run in this process."""
    return max(1, min(jobs, n_seeds, _usable_cpus()))


def cmd_mc(subcommand: str, cfg: dict, run_dir: Path, jobs: int) -> None:
    seeds = cfg["seeds"]
    if not seeds:
        raise ConfigError("seeds must list at least one integer")
    # a bad histogram grid fails before any event is drawn
    grid = UGrid.from_spacing(cfg["hist_u_max"], cfg["hist_h"])
    workers = _worker_count(jobs, len(seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # its import costs every run ~13 ms

        with ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [
                ex.submit(_mc_one, subcommand, cfg, str(run_dir), s, grid) for s in seeds
            ]
            for f in futures:
                f.result()
    else:
        for s in seeds:
            _mc_one(subcommand, cfg, str(run_dir), s, grid)


def cmd_oracle(cfg: dict, run_dir: Path) -> None:
    study = convergence_study(cfg["xi1_sq"], cfg["xi2_sq"], cfg["boxes"])
    moments = study.moments
    write_table(
        run_dir / "oracle.csv",
        {
            "box": study.boxes,
            "var1": np.array([m.var1 for m in moments]),
            "var2": np.array([m.var2 for m in moments]),
            "var_rel": np.array([m.var_rel for m in moments]),
            "norm": np.array([m.norm for m in moments]),
        },
        dict(cfg, fitted_order=study.order),
    )


def cmd_fig1(cfg: dict, run_dir: Path) -> None:
    if not cfg["g0_list"]:
        raise ConfigError("g0_list must list at least one g0")
    for g0 in cfg["g0_list"]:
        traj = closed_trajectory(g0, cfg["tau_end"], cfg["dtau"])
        write_trajectory(
            run_dir / f"curve_{g0!r}.csv", traj.taus, traj.values, dict(cfg, g0=g0)
        )
    p = solve_steady(SolverConfig(u_max=cfg["u_max"], h=cfg["h"]))
    write_density(run_dir / "inset_steady.csv", p, dict(cfg, mean_u=moment(p, 1)))


_DISPATCH = {
    "gamma": cmd_gamma,
    "steady": cmd_steady,
    "transient": cmd_transient,
    "oracle": cmd_oracle,
    "fig1": cmd_fig1,
}


def _publish(stage: Path, run_dir: Path) -> None:
    """Put the finished stage in place of run_dir. An earlier run_dir is
    moved aside first, put back if the rename fails, and deleted after."""
    old = stage.with_name(f".replaced-{os.getpid()}")
    shutil.rmtree(old, ignore_errors=True)
    if run_dir.exists():
        run_dir.rename(old)
    try:
        stage.rename(run_dir)
    except OSError:
        if old.exists():
            old.rename(run_dir)
        raise
    shutil.rmtree(old, ignore_errors=True)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ConfigErrors, exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randloc",
        description="Mean-field kinetics of measurement-induced random localization.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in cfgmod.SCHEMAS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--seed", type=int, default=None, help="single MC seed shortcut")
        p.add_argument("--out", default="out", help="output root directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for seed sweeps")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        overrides = dict(cfgmod.split_pair(pair, "--set") for pair in args.set)  # last wins
        cfg = cfgmod.resolve(args.subcommand, args.config, overrides)
        if args.seed is not None:
            if "seeds" not in cfg:
                raise ConfigError(f"subcommand {args.subcommand} takes no --seed")
            cfg["seeds"] = (args.seed,)
        run_dir = Path(args.out) / args.subcommand / cfgmod.run_name(cfg)
        # one stage per process, and a name of fixed length whatever the run's name
        stage = run_dir.with_name(f".partial-{os.getpid()}")
        shutil.rmtree(stage, ignore_errors=True)  # left by a killed run
        try:
            if args.subcommand in ("mc-steady", "mc-transient"):
                cmd_mc(args.subcommand, cfg, stage, args.jobs)
            else:
                _DISPATCH[args.subcommand](cfg, stage)
            with atomic_writer(stage / "config.echo") as fh:
                fh.write(("\n".join(cfgmod.echo_lines(cfg)) + "\n").encode("utf-8"))
            _publish(stage, run_dir)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        print(run_dir)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
