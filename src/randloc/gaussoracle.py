"""Microscopic check of the harmonic contraction rule.

Two particles sit in 1-D Gaussian states centered at the origin with
squared widths xi1_sq and xi2_sq. A yes/no proximity measurement accepts
when the separation falls inside a box window; conditioning the joint
density

    rho(r1, r2) ~ exp(-r1^2 / 2 xi1_sq) exp(-r2^2 / 2 xi2_sq) * 1[accept]

on the Yes outcome contracts each marginal. As the box shrinks, both
posterior variances approach the harmonic combination
xi1_sq*xi2_sq/(xi1_sq + xi2_sq) quadratically in the box size, and the
relative-coordinate variance approaches the uniform-window value
box^2/12. Everything here is brute-force tensor quadrature on purpose:
the module exists to verify the contraction rule from first principles,
not to assume it.

Box convention: the box parameter is the full width (diameter) of the
acceptance window, i.e. accept iff |r1 - r2| < box/2, which is what makes
the narrow-box relative variance equal box^2/12. Pass
box_convention="radius" for the alternative reading |r1 - r2| < box.
The narrow-box contraction limit is insensitive to the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError, check_positive_finite

__all__ = [
    "GaussPair",
    "PosteriorMoments",
    "ConvergenceStudy",
    "contraction_limit",
    "posterior_moments",
    "convergence_study",
]

_NORM_FLOOR = 1e-300
_REL_TOL = 1e-6
_MIN_HALFWIDTH_SIGMAS = 8.0
# No quadrature runs at more than this many points per axis: quad_points
# doubled max_doublings times stays within it, and posterior_moments stops
# doubling here whatever resolution _start_points chose. _moments_at holds
# about 270 bytes a point, 1.1 GB here.
_MAX_POINTS = 1 << 22


def contraction_limit(xi1_sq: float, xi2_sq: float) -> float:
    """Harmonic combination xi1_sq*xi2_sq/(xi1_sq+xi2_sq): inverse variances add."""
    check_positive_finite(xi1_sq=xi1_sq, xi2_sq=xi2_sq)
    return xi1_sq * xi2_sq / (xi1_sq + xi2_sq)


@dataclass(frozen=True)
class GaussPair:
    """One measurement setup: two squared widths and a box window.

    quad_points is the starting per-axis resolution; posterior_moments
    doubles it until the variances stabilize. halfwidth_sigmas fixes each
    axis's integration window as a multiple of that marginal's width and
    must cover at least 8 sigma. The widths and the box must be positive
    and finite, halfwidth_sigmas finite, and quad_points doubled
    max_doublings times at most 2^22.
    """

    xi1_sq: float
    xi2_sq: float
    box: float
    box_convention: str = "diameter"
    halfwidth_sigmas: float = 10.0
    quad_points: int = 256
    max_doublings: int = 12

    def __post_init__(self) -> None:
        check_positive_finite(xi1_sq=self.xi1_sq, xi2_sq=self.xi2_sq, box=self.box)
        if self.box_convention not in ("diameter", "radius"):
            raise ValueError(f"unknown box convention {self.box_convention!r}")
        if not _MIN_HALFWIDTH_SIGMAS <= self.halfwidth_sigmas < np.inf:
            raise ValueError(f"halfwidth_sigmas must lie in [{_MIN_HALFWIDTH_SIGMAS:g}, inf), "
                             f"got {self.halfwidth_sigmas}")
        if self.quad_points < 16:
            raise ValueError("need at least 16 quadrature points per axis")
        if self.max_doublings < 1:
            raise ValueError("max_doublings must be >= 1")
        if self.quad_points > _MAX_POINTS >> self.max_doublings:
            raise ValueError(f"quad_points={self.quad_points} doubled max_doublings="
                             f"{self.max_doublings} times passes {_MAX_POINTS} points per axis")

    @property
    def accept_halfwidth(self) -> float:
        return 0.5 * self.box if self.box_convention == "diameter" else self.box


class PosteriorMoments(NamedTuple):
    var1: float
    var2: float
    var_rel: float
    norm: float
    mean1: float
    mean2: float


def _gauss(y: np.ndarray, sigma_sq: float) -> np.ndarray:
    return np.exp(-0.5 * y * y / sigma_sq) / np.sqrt(2.0 * np.pi * sigma_sq)


def _moments_at(pair: GaussPair, n: int) -> PosteriorMoments:
    """Tensor quadrature at a fixed per-axis resolution.

    Rows run over r1 nodes. For each row the r2 integral covers the window
    [r1 - L, r1 + L] clipped to the r2 axis: full cells between the
    bracketing nodes come from per-cell prefix sums, and the two cut
    pieces use the exact Gaussian values at the cut points. Every piece
    integrates y^k against the linear density model exactly; without the
    cut-point treatment the indicator edge would add an O(h) sawtooth
    error that buries the box^2 signal.
    """
    s1 = float(np.sqrt(pair.xi1_sq))
    s2 = float(np.sqrt(pair.xi2_sq))
    half = pair.accept_halfwidth
    x = np.linspace(-pair.halfwidth_sigmas * s1, pair.halfwidth_sigmas * s1, n)
    y = np.linspace(-pair.halfwidth_sigmas * s2, pair.halfwidth_sigmas * s2, n)
    g2 = _gauss(y, pair.xi2_sq)

    def piece_moments(a, b, ga, gb):
        """Integrals of y^k times the linear interpolant of the density
        through (a, ga), (b, gb), for k = 0, 1, 2. Exact in the moment
        factor; a plain trapezoid of y^2 * g would overestimate the
        second moment of every piece by 2/3 (width/2)^2, which buries
        the box^2/12 signal whenever the box is narrower than a cell."""
        w = b - a
        slope = np.where(w > 0.0, (gb - ga) / np.where(w > 0.0, w, 1.0), 0.0)
        w2_ = w * w
        i0 = 0.5 * w * (ga + gb)
        i1 = ga * a * w + (ga + slope * a) * 0.5 * w2_ + slope * w2_ * w / 3.0
        i2 = (
            ga * a * a * w
            + (2.0 * a * ga + a * a * slope) * 0.5 * w2_
            + (ga + 2.0 * a * slope) * w2_ * w / 3.0
            + slope * 0.25 * w2_ * w2_
        )
        return i0, i1, i2

    c0, c1m, c2m = piece_moments(y[:-1], y[1:], g2[:-1], g2[1:])

    def prefix(cells: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        out[0] = 0.0
        np.cumsum(cells, out=out[1:])
        return out

    p0, p1, p2 = prefix(c0), prefix(c1m), prefix(c2m)

    lo = np.clip(x - half, y[0], y[-1])
    hi = np.clip(x + half, y[0], y[-1])
    jl = np.searchsorted(y, lo, side="left")   # first node >= lo
    jr = np.searchsorted(y, hi, side="right") - 1  # last node <= hi
    glo = _gauss(lo, pair.xi2_sq)
    ghi = _gauss(hi, pair.xi2_sq)
    il = np.clip(jl, 0, n - 1)
    ir = np.clip(jr, 0, n - 1)
    l0, l1, l2 = piece_moments(lo, y[il], glo, g2[il])
    r0, r1, r2 = piece_moments(y[ir], hi, g2[ir], ghi)
    # window narrower than one cell: single piece with exact endpoints
    s0, s1m, s2m = piece_moments(lo, hi, glo, ghi)
    narrow = jl > jr
    w0 = np.where(narrow, s0, p0[ir] - p0[il] + l0 + r0)
    w1 = np.where(narrow, s1m, p1[ir] - p1[il] + l1 + r1)
    w2 = np.where(narrow, s2m, p2[ir] - p2[il] + l2 + r2)

    g1 = _gauss(x, pair.xi1_sq)
    wx = np.full(n, x[1] - x[0])
    wx[0] *= 0.5
    wx[-1] *= 0.5
    row = wx * g1
    z = float(row @ w0)
    if z < _NORM_FLOOR:
        raise ValueError(
            f"acceptance norm {z:.3e} below {_NORM_FLOOR:g}; box is far in the "
            "tail of the separation distribution (check units)"
        )
    sx = float((row * x) @ w0)
    sxx = float((row * x * x) @ w0)
    sy = float(row @ w1)
    syy = float(row @ w2)
    sxy = float((row * x) @ w1)
    m1 = sx / z
    m2 = sy / z
    var1 = sxx / z - m1 * m1
    var2 = syy / z - m2 * m2
    cov = sxy / z - m1 * m2
    return PosteriorMoments(var1, var2, var1 + var2 - 2.0 * cov, z, m1, m2)


def _start_points(pair: GaussPair) -> int:
    """Smallest doubling of quad_points that resolves every feature.

    The acceptance window must span at least two r2 cells, otherwise the
    single-cell branch in _moments_at returns the same value at every
    resolution and the doubling test would stop on a false plateau. Both
    axes also need a few nodes per accepted-marginal width so the first
    doubling already sits in the asymptotic regime.
    """
    s1 = float(np.sqrt(pair.xi1_sq))
    s2 = float(np.sqrt(pair.xi2_sq))
    narrow = min(s1, s2)
    res1 = 0.5 * narrow
    res2 = max(0.5 * pair.accept_halfwidth, s2 / 512.0, narrow / 512.0)
    need = max(
        pair.quad_points,
        int(np.ceil(2.0 * pair.halfwidth_sigmas * s1 / res1)) + 1,
        int(np.ceil(2.0 * pair.halfwidth_sigmas * s2 / res2)) + 1,
    )
    n = pair.quad_points
    while n < need and n < 2**21:
        n *= 2
    return n


def posterior_moments(pair: GaussPair) -> PosteriorMoments:
    """Post-selected variances, relative variance, and acceptance norm.

    Starts at the first doubling of pair.quad_points that resolves the
    acceptance window and both marginals, then doubles the resolution
    until var1, var2, and var_rel all change by less than 1e-6 relative;
    raises QuadratureError when max_doublings is exhausted first, or when
    the next doubling would pass _MAX_POINTS points per axis.
    """
    n = _start_points(pair)
    prev = _moments_at(pair, n)
    for _ in range(pair.max_doublings):
        if 2 * n > _MAX_POINTS:
            raise QuadratureError(
                f"posterior variances did not stabilize to {_REL_TOL:g} relative at "
                f"n={n} points per axis; doubling again would pass the limit of "
                f"{_MAX_POINTS} points per axis"
            )
        n *= 2
        cur = _moments_at(pair, n)
        scale = max(abs(cur.var1), abs(cur.var2), abs(cur.var_rel))
        delta = max(
            abs(cur.var1 - prev.var1),
            abs(cur.var2 - prev.var2),
            abs(cur.var_rel - prev.var_rel),
        )
        if delta <= _REL_TOL * scale:
            return cur
        prev = cur
    raise QuadratureError(
        f"posterior variances did not stabilize to {_REL_TOL:g} relative within "
        f"{pair.max_doublings} resolution doublings (last n={n})"
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-box posterior moments plus the fitted contraction order."""

    boxes: np.ndarray
    moments: tuple[PosteriorMoments, ...]
    errors: np.ndarray
    order: float


def convergence_study(xi1_sq: float, xi2_sq: float, box_list, **pair_kwargs) -> ConvergenceStudy:
    """Fit the order at which var1 approaches the harmonic combination.

    box_list must be geometrically spaced, in decreasing order, and small
    next to the narrower marginal width. Returns the least-squares slope
    of log|var1(box) - contraction_limit| against log box; a non-monotone
    error sequence means the quadrature does not resolve the boxes and
    raises QuadratureError.
    """
    boxes = np.asarray(sorted((float(b) for b in box_list), reverse=True))
    if boxes.size < 3:
        raise ValueError("need at least three box sizes to fit an order")
    if not np.all((boxes > 0.0) & (boxes < np.inf)):
        raise ValueError(f"boxes must be positive and finite, got {boxes.tolist()}")
    ratios = boxes[1:] / boxes[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9:
        raise ValueError("box sizes must be geometrically spaced")
    small = float(np.sqrt(min(xi1_sq, xi2_sq)))
    if np.max(boxes) > 0.5 * small:
        raise ValueError(
            f"largest box {np.max(boxes):g} is not small next to the narrower "
            f"width {small:g}"
        )
    limit = contraction_limit(xi1_sq, xi2_sq)
    moments = tuple(
        posterior_moments(GaussPair(xi1_sq, xi2_sq, b, **pair_kwargs)) for b in boxes
    )
    errors = np.array([abs(m.var1 - limit) for m in moments])
    if np.any(errors <= 0.0) or np.any(np.diff(errors) >= 0.0):
        raise QuadratureError(
            "contraction error is not strictly decreasing with box size; "
            "raise quad_points or shrink the box list"
        )
    order, _ = np.polyfit(np.log(boxes), np.log(errors), 1)
    return ConvergenceStudy(boxes=boxes, moments=moments, errors=errors, order=float(order))
