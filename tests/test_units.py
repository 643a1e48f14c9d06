"""Unit map: lab quantities to dimensionless u and tau, and back."""

import numpy as np
import pytest

from randloc.units import RegimeReport, UnitsMap, units_convert, validate_regime


@pytest.fixture
def units():
    return UnitsMap(mu=2.0, number_density=5.0, box_volume=0.3, diffusion=1.5)


def test_gamma_rate_product(units):
    assert units.gamma_rate == pytest.approx(2.0 * 5.0 * 0.3)


def test_xi2_to_u_scale(units):
    # u = xi^2 * Gamma / (2 D)
    gamma = units.gamma_rate
    xi2 = 0.7
    assert units_convert(units, xi2, "xi2_to_u") == pytest.approx(
        xi2 * gamma / (2.0 * 1.5)
    )


def test_u_equals_one_at_char_scale(units):
    # xi_char^2 = 2 D / Gamma maps to u = 1 exactly
    xi2_char = 2.0 * units.diffusion / units.gamma_rate
    assert units_convert(units, xi2_char, "xi2_to_u") == pytest.approx(1.0)


def test_time_direction(units):
    t = 0.25
    assert units_convert(units, t, "t_to_tau") == pytest.approx(t * units.gamma_rate)


@pytest.mark.parametrize(
    "fwd,back", [("xi2_to_u", "u_to_xi2"), ("t_to_tau", "tau_to_t")]
)
def test_round_trip(units, fwd, back):
    for value in (1e-9, 0.013, 1.0, 47.0, 1e9):
        mid = units_convert(units, value, fwd)
        assert units_convert(units, mid, back) == pytest.approx(value, rel=1e-15)


def test_unknown_direction_rejected(units):
    with pytest.raises(ValueError, match="direction"):
        units_convert(units, 1.0, "u_to_tau")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu=0.0, number_density=1.0, box_volume=1.0, diffusion=1.0),
        dict(mu=1.0, number_density=-2.0, box_volume=1.0, diffusion=1.0),
        dict(mu=1.0, number_density=1.0, box_volume=np.inf, diffusion=1.0),
        dict(mu=1.0, number_density=1.0, box_volume=1.0, diffusion=np.nan),
    ],
)
def test_bad_inputs_rejected(kwargs):
    with pytest.raises(ValueError):
        UnitsMap(**kwargs)


def test_regime_pass(units):
    rep = validate_regime(units, box_diameter=0.01, typical_xi2=4.0)
    assert isinstance(rep, RegimeReport)
    assert rep.ok
    assert rep.ratio == pytest.approx(0.005)


def test_regime_warn(units):
    rep = validate_regime(units, box_diameter=1.0, typical_xi2=1.0)
    assert rep.status == "warn"
    assert not rep.ok


def test_regime_tie_counts_as_warn(units):
    # ratio exactly equal to threshold is not a pass
    rep = validate_regime(units, box_diameter=0.1, typical_xi2=1.0, threshold=0.1)
    assert rep.status == "warn"


def test_regime_rejects_nonpositive(units):
    with pytest.raises(ValueError):
        validate_regime(units, box_diameter=0.0, typical_xi2=1.0)
    with pytest.raises(ValueError):
        validate_regime(units, box_diameter=0.1, typical_xi2=-1.0)
    with pytest.raises(ValueError):
        validate_regime(units, box_diameter=0.1, typical_xi2=1.0, threshold=0.0)


@pytest.mark.parametrize(
    "key, value",
    [("box_diameter", np.nan), ("typical_xi2", np.nan), ("typical_xi2", np.inf),
     ("threshold", np.nan)],
)
def test_regime_rejects_non_finite(units, key, value):
    # these once read "warn" (a NaN box or threshold) and "pass" (typical_xi2=inf)
    args = {"box_diameter": 0.01, "typical_xi2": 4.0, key: value}
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        validate_regime(units, **args)
