"""Command-line front end.

Every subcommand reads an optional `key = value` config file, applies
`--set` overrides, resolves against its typed schema, and writes CSV
files plus a `config.echo` into `<out>/<subcommand>/<name-or-hash>/`.
Outputs carry the resolved config in `#` header lines and contain no
timestamps, so re-running an identical config rewrites identical bytes.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 solver or
quadrature non-convergence (including mass-loss and step instability),
3 filesystem trouble.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .csvio import atomic_writer, format_value, write_density, write_table, write_trajectory
from .errors import ConfigError, ConvergenceError, MassLossError, StepInstabilityError
from .gamma import closed_trajectory, gamma_ode
from .gaussoracle import GaussPair, convergence_study, posterior_moments
from .meanfield import (
    _HIERARCHY_LIMIT,
    SolverConfig,
    evolve_transient,
    residual_resummed,
    residual_steady,
    resolve_init,
    solve_steady,
)
from .popmc import empirical_density, run_steady, run_transient
from .udist import UGrid, _check_table_bytes, moment

__all__ = ["main"]


def _meta(cfg: dict, **extra) -> dict:
    out = {}
    for k, v in cfg.items():
        out[k] = ",".join(format_value(x) for x in v) if isinstance(v, tuple) else v
    out.update(extra)
    return out


def _run_dir(out_root: str, subcommand: str, cfg: dict) -> Path:
    d = Path(out_root) / subcommand / cfgmod.run_name(cfg)
    d.mkdir(parents=True, exist_ok=True)
    with atomic_writer(d / "config.echo") as fh:
        fh.write("\n".join(cfgmod.echo_lines(cfg)) + "\n")
    return d


def _solver_config(cfg: dict) -> SolverConfig:
    return SolverConfig(
        u_max=cfg["u_max"],
        h=cfg["h"],
        tol_fixed_point=cfg["tol_fixed_point"],
        max_iters=cfg["max_iters"],
    )


def cmd_gamma(cfg: dict, run_dir: Path) -> None:
    if cfg["method"] == "closed":
        traj = closed_trajectory(cfg["g0"], cfg["tau_end"], cfg["dtau"])
    else:
        traj = gamma_ode(cfg["g0"], cfg["tau_end"], cfg["dtau"])
    write_trajectory(run_dir / "gamma.csv", traj.taus, traj.values, _meta(cfg))


def cmd_steady(cfg: dict, run_dir: Path) -> None:
    sc = _solver_config(cfg)
    p = solve_steady(sc, cfg["init"])
    resid = residual_steady(p)
    write_density(
        run_dir / "steady.csv",
        p,
        _meta(cfg, residual_l1=resid.l1, residual_sup=resid.sup, mean_u=moment(p, 1)),
    )


def cmd_transient(cfg: dict, run_dir: Path) -> None:
    dtau = cfg["dtau"] if cfg["dtau"] > 0.0 else None
    sc = SolverConfig(u_max=cfg["u_max"], h=cfg["h"], dtau=dtau)
    grid = sc.grid
    # the initial density has a value a node and the closed trajectory one
    # a step, of h by default: an oversized grid is refused before either
    _check_table_bytes("deposit", grid)
    p0 = resolve_init(grid, cfg["init"])
    if cfg["g_mode"] == "closed":
        g = closed_trajectory(cfg["g0"], cfg["tau_end"], sc.dtau_resolved)
    else:
        g = float(cfg["g0"])
    m_max = cfg["residual_m_max"]
    if m_max > 0:
        if cfg["snapshot_stride"] > 10:
            raise ConfigError(
                "residual_m_max needs snapshot_stride <= 10 so the time quadrature "
                "has dense enough snapshots"
            )
        if m_max > _HIERARCHY_LIMIT:
            raise ConfigError(
                f"residual_m_max must lie in 0..{_HIERARCHY_LIMIT}, got {m_max}"
            )
        if not 0.0 <= cfg["g0"] < 1.0:
            raise ConfigError(f"residual_m_max needs 0 <= g0 < 1, got g0={cfg['g0']}")
    sol = evolve_transient(p0, g, cfg["tau_end"], sc, snapshot_stride=cfg["snapshot_stride"])
    n_nodes = grid.n_nodes
    taus = np.repeat(sol.taus, n_nodes)
    us = np.tile(grid.nodes(), sol.taus.size)
    write_table(
        run_dir / "transient.csv",
        {"tau": taus, "u": us, "p": sol.densities.ravel()},
        _meta(cfg, max_renorm_drift=sol.max_renorm_drift, lost_mass=sol.lost_mass),
    )
    if m_max > 0:
        res = residual_resummed(sol, g, m_max)
        cols = {"tau": res.taus, "residual_l1": res.footnote}
        for m, row in enumerate(res.truncated, 1):
            cols[f"truncated_m{m}"] = row
        write_table(run_dir / "residual.csv", cols, _meta(cfg))


def _hist_grid(cfg: dict) -> UGrid:
    return UGrid.from_spacing(cfg["hist_u_max"], cfg["hist_h"])


def _write_mc_outputs(run_dir: Path, cfg: dict, seed: int, snaps, final_pop, grid: UGrid) -> None:
    taus = [s.tau for s in snaps] + [final_pop.tau]
    gs = [s.g_empirical for s in snaps] + [final_pop.g_empirical]
    write_trajectory(
        run_dir / f"g_seed{seed}.csv", np.asarray(taus), np.asarray(gs),
        _meta(cfg, seed=seed, overflow_count=final_pop.overflow_count,
              events_loc_loc=final_pop.events_loc_loc,
              events_loc_deloc=final_pop.events_loc_deloc,
              events_deloc_deloc=final_pop.events_deloc_deloc),
        names=("tau", "g_empirical"),
    )
    # one histogram block per snapshot and the final state, if any is localized
    states = [(s.tau, s.u_values) for s in snaps] + [(final_pop.tau, final_pop.current_u())]
    hists = [(tau, empirical_density(u, grid).values) for tau, u in states if u.size > 0]
    write_table(
        run_dir / f"density_seed{seed}.csv",
        {
            "tau": np.repeat([tau for tau, _ in hists], grid.n_nodes),
            "u_bin": np.tile(grid.nodes(), len(hists)),
            "p_hat": np.concatenate([p for _, p in hists] or [np.empty(0)]),
        },
        _meta(cfg, seed=seed),
    )


def _mc_one(subcommand: str, cfg: dict, run_dir_s: str, seed: int, grid: UGrid) -> None:
    run_dir = Path(run_dir_s)
    # Times at or past the end are the final state; a NaN time stays in, for popmc to refuse.
    inner = [t for t in cfg["snapshot_taus"] if not t >= cfg["tau_end"] - 1e-12]
    if subcommand == "mc-steady":
        pop, snaps = run_steady(
            cfg["m_particles"], cfg["tau_end"], seed, inner, u_ceiling=cfg["u_ceiling"]
        )
    else:
        pop, snaps = run_transient(
            cfg["m_particles"], cfg["g0"], cfg["tau_end"], seed,
            cfg["entrant_rule"], inner,
            entrant_cap=cfg["entrant_cap"], u_ceiling=cfg["u_ceiling"],
        )
    _write_mc_outputs(run_dir, cfg, seed, snaps, pop, grid)


def _worker_count(jobs: int, n_seeds: int) -> int:
    """Worker processes for a seed sweep: at most jobs, one per seed and one
    per CPU; 1 means the seeds run in this process."""
    return max(1, min(jobs, n_seeds, os.cpu_count() or 1))


def cmd_mc(subcommand: str, cfg: dict, run_dir: Path, jobs: int) -> None:
    seeds = cfg["seeds"]
    if not seeds:
        raise ConfigError("seeds must list at least one integer")
    grid = _hist_grid(cfg)  # a bad histogram grid fails before any event is drawn
    workers = _worker_count(jobs, len(seeds))
    if workers > 1:
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
    kw = dict(
        box_convention=cfg["box_convention"],
        halfwidth_sigmas=cfg["halfwidth_sigmas"],
        quad_points=cfg["quad_points"],
        max_doublings=cfg["max_doublings"],
    )
    boxes = cfg["boxes"]
    extra = {}
    if cfg["fit_order"] == "yes":
        study = convergence_study(cfg["xi1_sq"], cfg["xi2_sq"], boxes, **kw)
        boxes_out = study.boxes
        moments = study.moments
        extra["fitted_order"] = study.order
    else:
        boxes_out = np.asarray(sorted((float(b) for b in boxes), reverse=True))
        moments = tuple(
            posterior_moments(GaussPair(cfg["xi1_sq"], cfg["xi2_sq"], b, **kw))
            for b in boxes_out
        )
    write_table(
        run_dir / "oracle.csv",
        {
            "box": boxes_out,
            "var1": np.array([m.var1 for m in moments]),
            "var2": np.array([m.var2 for m in moments]),
            "var_rel": np.array([m.var_rel for m in moments]),
            "norm": np.array([m.norm for m in moments]),
        },
        _meta(cfg, **extra),
    )


def cmd_fig1(cfg: dict, run_dir: Path) -> None:
    for g0 in cfg["g0_list"]:
        traj = closed_trajectory(g0, cfg["tau_end"], cfg["dtau"])
        write_trajectory(
            run_dir / f"curve_{g0!r}.csv", traj.taus, traj.values, _meta(cfg, g0=g0)
        )
    p = solve_steady(_solver_config(cfg))
    write_density(run_dir / "inset_steady.csv", p, _meta(cfg, mean_u=moment(p, 1)))


_DISPATCH = {
    "gamma": cmd_gamma,
    "steady": cmd_steady,
    "transient": cmd_transient,
    "oracle": cmd_oracle,
    "fig1": cmd_fig1,
}


def _parse_sets(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key.strip()] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        overrides = _parse_sets(args.set)
        cfg = cfgmod.resolve(args.subcommand, args.config, overrides)
        if args.seed is not None:
            if "seeds" not in cfg:
                raise ConfigError(f"subcommand {args.subcommand} takes no --seed")
            cfg["seeds"] = (args.seed,)
        run_dir = _run_dir(args.out, args.subcommand, cfg)
        if args.subcommand in ("mc-steady", "mc-transient"):
            cmd_mc(args.subcommand, cfg, run_dir, args.jobs)
        else:
            _DISPATCH[args.subcommand](cfg, run_dir)
        print(run_dir)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, MassLossError, StepInstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
