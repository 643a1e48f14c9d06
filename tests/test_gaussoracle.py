"""First-principles check of the harmonic contraction against Gaussian quadrature."""

import numpy as np
import pytest

from randloc import gaussoracle
from randloc.errors import ConvergenceError, QuadratureError
from randloc.gaussoracle import (
    GaussPair,
    PosteriorMoments,
    contraction_limit,
    convergence_study,
    posterior_moments,
)


def test_contraction_limit_formula():
    assert contraction_limit(1.0, 1.0) == pytest.approx(0.5)
    assert contraction_limit(0.3, 4.0) == pytest.approx(0.3 * 4.0 / 4.3)
    # adding inverse variances: the result is below either input
    assert contraction_limit(2.0, 5.0) < 2.0


def test_contraction_limit_rejects_nonpositive():
    with pytest.raises(ValueError):
        contraction_limit(0.0, 1.0)
    with pytest.raises(ValueError):
        contraction_limit(1.0, -2.0)


@pytest.mark.parametrize(
    "kwargs, key",
    [
        (dict(xi1_sq=np.nan), "xi1_sq"),
        (dict(xi2_sq=np.inf), "xi2_sq"),
        (dict(box=np.nan), "box"),
        (dict(box=np.inf), "box"),
        (dict(halfwidth_sigmas=np.nan), "halfwidth_sigmas"),
        (dict(halfwidth_sigmas=np.inf), "halfwidth_sigmas"),
    ],
)
def test_non_finite_setup_is_refused_by_name(kwargs, key):
    # these once reached int() of a NaN or infinite node count, naming no key
    base = dict(xi1_sq=1.0, xi2_sq=1.0, box=0.1)
    base.update(kwargs)
    with pytest.raises(ValueError, match=f"^{key} must"):
        GaussPair(**base)
    if key.startswith("xi"):
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite"):
            contraction_limit(base["xi1_sq"], base["xi2_sq"])


def test_convergence_study_refuses_a_nan_box():
    with pytest.raises(ValueError, match=r"boxes must be positive and finite, got \[nan"):
        convergence_study(1.0, 1.0, [np.nan, 0.1, 0.05])


def test_narrow_box_reaches_harmonic_combination():
    m = posterior_moments(GaussPair(1.0, 1.0, 0.1))
    limit = contraction_limit(1.0, 1.0)
    assert abs(m.var1 / limit - 1.0) < 1e-2
    assert abs(m.var2 / limit - 1.0) < 1e-2
    assert m.var1 < 1.0  # strictly contracted below the prior


def test_relative_variance_is_uniform_window():
    box = 0.1
    m = posterior_moments(GaussPair(1.0, 1.0, box))
    assert m.var_rel / (box * box / 12.0) == pytest.approx(1.0, abs=0.05)


def test_acceptance_norm_matches_point_density():
    # for a narrow window the norm is box times the r1-r2 density at zero
    box = 0.1
    m = posterior_moments(GaussPair(1.0, 1.0, box))
    analytic = box / np.sqrt(2.0 * np.pi * (1.0 + 1.0))
    assert m.norm == pytest.approx(analytic, rel=1e-3)


def test_posterior_means_vanish_by_symmetry():
    m = posterior_moments(GaussPair(0.5, 2.0, 0.2))
    assert abs(m.mean1) < 1e-10
    assert abs(m.mean2) < 1e-10


def test_wide_box_recovers_the_priors():
    m = posterior_moments(GaussPair(1.0, 2.0, 60.0))
    assert m.var1 == pytest.approx(1.0, rel=1e-3)
    assert m.var2 == pytest.approx(2.0, rel=1e-3)
    assert m.var_rel == pytest.approx(3.0, rel=1e-3)
    assert m.norm == pytest.approx(1.0, abs=1e-6)


def test_swap_symmetry():
    a = posterior_moments(GaussPair(0.3, 4.0, 0.05))
    b = posterior_moments(GaussPair(4.0, 0.3, 0.05))
    assert a.var1 == pytest.approx(b.var2, rel=1e-5)
    assert a.var2 == pytest.approx(b.var1, rel=1e-5)
    assert a.norm == pytest.approx(b.norm, rel=1e-6)


def test_radius_convention_is_doubled_diameter():
    d = posterior_moments(GaussPair(1.0, 2.0, 0.4, box_convention="diameter"))
    r = posterior_moments(GaussPair(1.0, 2.0, 0.2, box_convention="radius"))
    assert d == r  # identical acceptance half-width, identical quadrature


def test_norm_grows_with_box():
    norms = [posterior_moments(GaussPair(1.0, 1.0, b)).norm for b in (0.1, 0.5, 2.0)]
    assert norms[0] < norms[1] < norms[2]


def test_convergence_study_fits_second_order():
    study = convergence_study(1.0, 1.0, [0.2, 0.1, 0.05, 0.025])
    assert study.order == pytest.approx(2.0, abs=0.15)
    assert np.all(np.diff(study.errors) < 0.0)  # strictly decreasing with box
    assert np.all(np.diff(study.boxes) < 0.0)


def test_convergence_study_accepts_unordered_input():
    a = convergence_study(1.0, 1.0, [0.05, 0.2, 0.1])
    b = convergence_study(1.0, 1.0, [0.2, 0.1, 0.05])
    assert np.array_equal(a.boxes, b.boxes)
    assert a.order == b.order


@pytest.mark.parametrize(
    "boxes,msg",
    [
        ([0.2, 0.1], "three box sizes"),
        ([0.2, 0.1, 0.04], "geometrically spaced"),
        ([0.2, -0.1, 0.05], "positive"),
        ([2.0, 1.0, 0.5], "not small"),
    ],
)
def test_convergence_study_input_guards(boxes, msg):
    with pytest.raises(ValueError, match=msg):
        convergence_study(1.0, 1.0, boxes)


def test_unresolvable_boxes_raise_quadrature_error():
    # errors this far below the stabilization tolerance are pure noise
    with pytest.raises(QuadratureError):
        convergence_study(1.0, 1.0, [1e-7, 5e-8, 2.5e-8])


def test_exhausted_doublings_raise_quadrature_error():
    pair = GaussPair(1.0, 1.0, 0.5, quad_points=16, halfwidth_sigmas=8.0, max_doublings=1)
    with pytest.raises(QuadratureError, match="doubling"):
        posterior_moments(pair)


@pytest.mark.parametrize("pair", [GaussPair(1.0, 1.0, 0.1, halfwidth_sigmas=1e5),
                                  GaussPair(1.0, 1e-12, 1e-7)])
def test_doubling_stops_at_the_resolution_limit(monkeypatch, pair):
    # both pairs start at 2^21 points per axis, so a pair that never
    # settles stops after one doubling instead of running out of memory
    seen = []

    def moments_at(pair, n):
        seen.append(n)  # allocates no grid, and never settles
        return PosteriorMoments(float(n), 1.0, 1.0, 1.0, 0.0, 0.0)

    monkeypatch.setattr(gaussoracle, "_moments_at", moments_at)
    with pytest.raises(QuadratureError, match="would pass the limit of 4194304 points per axis"):
        posterior_moments(pair)
    assert seen == [1 << 21, 1 << 22]


def test_quadrature_error_is_a_convergence_error():
    assert issubclass(QuadratureError, ConvergenceError)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(xi1_sq=0.0),
        dict(xi2_sq=-1.0),
        dict(box=0.0),
        dict(box_convention="width"),
        dict(halfwidth_sigmas=4.0),
        dict(quad_points=8),
        dict(max_doublings=0),
    ],
)
def test_pair_validation(kwargs):
    base = dict(xi1_sq=1.0, xi2_sq=1.0, box=0.1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        GaussPair(**base)


@pytest.mark.parametrize(
    "quad_points, max_doublings",
    [(10**11, 12), (2**10 + 1, 12), (16, 19), (256, 10**18)],
)
def test_pair_beyond_the_resolution_limit_is_refused_by_key(quad_points, max_doublings):
    # quad_points = 10^11 once ended in numpy's "Unable to allocate 745. GiB"
    with pytest.raises(ValueError, match=f"quad_points={quad_points} doubled "
                                         f"max_doublings={max_doublings} times passes 4194304"):
        GaussPair(1.0, 1.0, 0.1, quad_points=quad_points, max_doublings=max_doublings)


def test_pair_at_the_resolution_limit_is_accepted():
    assert GaussPair(1.0, 1.0, 0.1, quad_points=2**10, max_doublings=12).quad_points == 2**10
    assert GaussPair(1.0, 1.0, 0.1, quad_points=16, max_doublings=18).max_doublings == 18
