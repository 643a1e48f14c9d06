"""The benchmark's three fixed workloads, as argument lists for `randloc.cli.main`.

Each workload stresses a different layer, so that every optimisation on the
roadmap has one workload where it does most of the work and one where it does
almost none:

* steady-ladder: few large `collision_kernel` calls (steady solves at
  N = 751, 1501, 3001) plus the Gaussian oracle; no Monte Carlo.
* transient-relax: many small kernel calls, `drift_shift`, the resummed
  residual (asymmetric K[p, q]) and 301k CSV rows; no steady solve.
* mc-population: the `popmc` event loop only; no kernel call.

Only the Monte Carlo seeds depend on the benchmark seed; the other two
workloads are deterministic and identical for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAMES = ("steady-ladder", "transient-relax", "mc-population")


@dataclass(frozen=True)
class Invocation:
    """One CLI call. `label` is also its run name, so outputs land in
    `<out>/<subcommand>/<label>/`."""

    label: str
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    """Invocations of one round, plus how the headline figure is read.

    `main_calls` are the invocations timed by `main_call_s`. The workload's
    own figure (`figure_name`) is `figure_work / seconds` of those calls, or
    their seconds when `figure_work` is None.
    """

    name: str
    invocations: tuple[Invocation, ...]
    main_calls: tuple[str, ...]
    figure_name: str
    figure_unit: str
    figure_work: float | None


def mc_seeds(seed: int) -> tuple[int, int]:
    """Seeds of the mc-steady and mc-transient runs, derived from the
    benchmark seed through numpy's SeedSequence."""
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


def _call(label: str, subcommand: str, *, seed: int | None = None, **keys) -> Invocation:
    argv = [subcommand, "--jobs", "1", "--set", f"name={label}"]
    for key, value in keys.items():
        argv += ["--set", f"{key}={value}"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Invocation(label, tuple(argv))


# Sizes of the full workloads and of the reduced ones the benchmark's tests run.
_SIZES = {
    False: dict(
        steady_hs=(0.04, 0.02, 0.01),
        relax_h=0.05, relax_tau=25, resummed_h=0.02,
        mc_steady_m=200000, mc_steady_tau=30, mc_steady_snaps="10,20",
        mc_transient_m=100000,
    ),
    True: dict(
        steady_hs=(0.1, 0.05, 0.025),
        relax_h=0.1, relax_tau=20, resummed_h=0.05,
        mc_steady_m=50000, mc_steady_tau=20, mc_steady_snaps="10",
        mc_transient_m=20000,
    ),
}


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    """The workload `name` for benchmark seed `seed`."""
    s = _SIZES[reduced]
    if name == "steady-ladder":
        calls = [_call(f"h{h}", "steady", u_max=30, h=h) for h in s["steady_hs"]]
        calls.append(_call("oracle", "oracle"))
        return Workload(name, tuple(calls), (calls[-2].label,), "steady_solve_s", "s", None)
    if name == "transient-relax":
        const = dict(u_max=30, g_mode="const", g0=1)
        relax = _call("relax", "transient", h=s["relax_h"], tau_end=s["relax_tau"],
                      snapshot_stride=1, **const)
        ladder = [_call(f"dtau{d}", "transient", h=0.05, dtau=d, tau_end=2, **const)
                  for d in (0.2, 0.1, 0.05)]
        resummed = _call("resummed", "transient", u_max=30, h=s["resummed_h"], tau_end=0.3,
                         snapshot_stride=1, residual_m_max=3)
        steps = round(s["relax_tau"] / s["relax_h"])
        return Workload(name, (relax, *ladder, resummed), ("relax",),
                        "transient_steps_per_s", "steps/s", float(steps))
    if name == "mc-population":
        seed_steady, seed_transient = mc_seeds(seed)
        steady = _call("steady", "mc-steady", seed=seed_steady, m_particles=s["mc_steady_m"],
                       tau_end=s["mc_steady_tau"], snapshot_taus=s["mc_steady_snaps"])
        transient = _call("transient", "mc-transient", seed=seed_transient,
                          m_particles=s["mc_transient_m"], g0=0.1, tau_end=10,
                          snapshot_taus="1,2,3,5,8")
        # Expected events: rate M/2 over tau_end, summed over both runs.
        events = (s["mc_steady_m"] * s["mc_steady_tau"] + s["mc_transient_m"] * 10) / 2.0
        return Workload(name, (steady, transient), ("steady", "transient"),
                        "mc_events_per_s", "events/s", events)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
