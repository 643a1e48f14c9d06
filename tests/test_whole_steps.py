"""The whole-step rule at each of its five sites: the grid, the time step,
the transient step count, the drift shift and the snapshot spacings of the
resummed residual all cut a span into whole steps by ``udist._whole_steps``."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randloc import meanfield
from randloc.gamma import _MAX_TIME_STEPS
from randloc.meanfield import SolverConfig, TransientSolution, evolve_transient, residual_resummed
from randloc.udist import UGrid, drift_shift, exponential_density

_CELLS = 64  # bins of the probe grids: u_max = 64 steps


def _probe_grid(step):
    return UGrid.from_spacing(_CELLS * step, step)


def _grid_site(span, step):
    return UGrid.from_spacing(span, step)


def _dtau_site(span, step):
    return SolverConfig(u_max=_CELLS * step, h=step, dtau=span).dtau_resolved


def _transient_site(span, step, stride=1):
    cfg = SolverConfig(u_max=_CELLS * step, h=step)
    return evolve_transient(exponential_density(cfg.grid), 0.0, span, cfg, snapshot_stride=stride)


def _drift_site(span, step):
    return drift_shift(exponential_density(_probe_grid(step)), span)


def _resummed_site(span, step):
    grid = _probe_grid(step)
    dens = np.array([exponential_density(grid).values] * 2)
    # a dtau this large lets every spacing past the coarseness check
    sol = TransientSolution(grid=grid, taus=np.array([0.0, span]), densities=dens, dtau=1e308)
    return residual_resummed(sol, 0.0)


# site: (call, the span's name in its messages, least whole steps)
SITES = {
    "grid": (_grid_site, "u_max", 2),
    "dtau": (_dtau_site, "dtau", 1),
    "transient": (_transient_site, "tau_end", 1),
    "drift": (_drift_site, "shift", 0),
    "resummed": (_resummed_site, "snapshot spacing", 1),
}

_BAD_SPANS = {
    "nan": (np.nan, 0.02),
    "inf": (np.inf, 0.02),
    "negative": (-0.1, 0.02),
    "partial": (1.01, 0.02),  # 50.5 steps
    "overflow": (1e308, 0.02),  # round() of the infinite ratio once raised OverflowError
}


def _no_transient_step(mp):
    """Fails the test as soon as a transient step starts, so a span that is
    wrongly accepted fails at once instead of running for ever."""
    mp.setattr(meanfield, "drift_shift", lambda *a: pytest.fail("a transient step started"))


@pytest.mark.parametrize(
    "site, span, step",
    [(site, *_BAD_SPANS[case]) for site in SITES for case in _BAD_SPANS]
    # only a grid takes its step as given; the others take it from a grid
    + [("grid", 30.0, 1e-320)],
    ids=[f"{site}-{case}" for site in SITES for case in _BAD_SPANS] + ["grid-subnormal-h"],
)
def test_each_site_refuses_a_span_that_is_not_whole_steps(monkeypatch, site, span, step):
    run, name, _ = SITES[site]
    _no_transient_step(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(name)):
        run(span, step)


def test_transient_step_count_has_the_trajectory_limit(monkeypatch):
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(meanfield, "drift_shift", started)
    cfg = SolverConfig(u_max=1.0, h=0.5)
    p0 = exponential_density(cfg.grid)
    with pytest.raises(Started):  # the last count below the limit starts its steps
        evolve_transient(p0, 1.0, (_MAX_TIME_STEPS - 1) * 0.5, cfg)
    for tau_end in (_MAX_TIME_STEPS * 0.5, 1e12, 1e300):
        with pytest.raises(ValueError, match="give more than 10000000 time nodes"):
            evolve_transient(p0, 1.0, tau_end, cfg)


_STEP = st.floats(min_value=1e-6, max_value=4.0)


@st.composite
def _whole_step_cases(draw, transient_most):
    """(site, step, k) with k whole steps between the site's least and its limit."""
    site = draw(st.sampled_from(sorted(SITES)))
    most = {"grid": (1 << 16) - 1, "transient": transient_most}.get(site, 2 * _MAX_TIME_STEPS)
    return site, draw(_STEP), draw(st.integers(min_value=SITES[site][2], max_value=most))


@settings(max_examples=300)
@given(_whole_step_cases(transient_most=300))
def test_a_span_of_k_whole_steps_gives_k_at_every_site(case):
    site, step, k = case
    span = k * step
    if site == "grid":
        assert _grid_site(span, step).n_bins == k
    elif site == "dtau":
        assert _dtau_site(span, step) == span
    elif site == "transient":
        with pytest.MonkeyPatch.context() as mp:
            # steps that leave the density as it is: 300 of them take milliseconds
            mp.setattr(meanfield, "drift_shift", lambda p, delta: (p, 0.0))
            mp.setattr(meanfield, "collision_kernel", lambda p, q: p)
            sol = _transient_site(span, step, stride=k)
        assert sol.taus.tolist() == [0.0, k * step]
    elif site == "drift":
        p = exponential_density(_probe_grid(step)).values
        out = _drift_site(span, step)[0].values
        assert not out[:k].any()
        assert np.array_equal(out[k:], p[: max(0, _CELLS + 1 - k)])
    else:
        assert _resummed_site(span, step).taus.tolist() == [0.0, span]


@settings(max_examples=300)
@given(_whole_step_cases(transient_most=_MAX_TIME_STEPS - 1), st.floats(0.0, 1.0),
       st.sampled_from([-1.0, 1.0]))
def test_a_span_off_by_more_than_the_tolerance_is_refused_at_every_site(case, off, sign):
    site, step, k = case
    run, name, _ = SITES[site]
    # between twice the tolerance 1e-9 max(1, k) and 0.49 steps from k
    margin = 2e-9 * max(1, k)
    span = (k + sign * (margin + off * (0.49 - margin))) * step
    with pytest.MonkeyPatch.context() as mp:
        _no_transient_step(mp)
        with pytest.raises(ValueError, match=re.escape(name)):
            run(span, step)


@settings(max_examples=200)
@given(st.sampled_from(sorted(SITES)), st.floats(min_value=1e-6, max_value=0.5),
       st.sampled_from([1e308, -1e308, 5e-324, 1e-320]))
def test_over_and_underflowing_ratios_are_value_errors(site, step, span):
    # a ValueError, never the OverflowError of round() or int() of an infinite ratio
    run, name, least = SITES[site]
    with pytest.MonkeyPatch.context() as mp:
        _no_transient_step(mp)
        if least == 0 and abs(span) < 1.0:
            # a ratio that underflows rounds to zero whole steps: a shift by nothing
            assert run(span, step)[1] == 0.0
            return
        with pytest.raises(ValueError, match=re.escape(name)):
            run(span, step)
