"""Library refusals that no CLI run reaches: each raises its documented
error type with a message that names the bad input."""

import re

import numpy as np
import pytest

from randloc import meanfield
from randloc.csvio import read_density, write_table
from randloc.errors import StepInstabilityError
from randloc.meanfield import (
    SolverConfig,
    TransientSolution,
    evolve_transient,
    residual_resummed,
    solve_steady,
)
from randloc.udist import (
    UDensity,
    UGrid,
    collision_kernel,
    combine,
    default_init_density,
    moment,
    normalize,
    point_mass,
)

_GRID = UGrid(2.0, 4)
_ONES = UDensity(_GRID, np.ones(5))


def _read_shifted_density(tmp_path, monkeypatch):
    write_table(tmp_path / "u.csv", {"u": np.linspace(0.5, 2.0, 4), "p": np.ones(4)})
    read_density(tmp_path / "u.csv")


def _evolve_with_a_scaled_kernel(tmp_path, monkeypatch):
    # K scaled by 1.5 adds 0.5 dtau g of mass in one step
    kernel = meanfield.collision_kernel
    monkeypatch.setattr(meanfield, "collision_kernel",
                        lambda p, q: UDensity(p.grid, 1.5 * kernel(p, q).values))
    cfg = SolverConfig(h=0.1)
    evolve_transient(default_init_density(cfg.grid), 0.5, 0.1, cfg)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda *_: UGrid(1.0, 1), ValueError, "need at least 2 bins, got 1",
                     id="grid-of-one-bin"),
        pytest.param(lambda *_: UDensity(_GRID, np.ones(4)), ValueError,
                     "expected 5 node values, got shape (4,)", id="density-shape"),
        pytest.param(lambda *_: UDensity(_GRID, np.full(5, np.nan)), ValueError,
                     "density values must be finite", id="density-nan"),
        pytest.param(lambda *_: combine(-1, 1), ValueError,
                     "combine requires nonnegative arguments", id="combine-negative"),
        pytest.param(lambda *_: combine(0, 0), ValueError, "combine(0, 0) is undefined",
                     id="combine-zeros"),
        pytest.param(lambda *_: collision_kernel(_ONES, UDensity(UGrid(2.0, 5), np.ones(6))),
                     ValueError, "collision_kernel requires both densities on the same grid",
                     id="kernel-across-grids"),
        pytest.param(lambda *_: moment(_ONES, 3), ValueError,
                     "moment order must be 0, 1 or 2, got 3", id="moment-order"),
        pytest.param(lambda *_: normalize(UDensity(_GRID, np.zeros(5))), ValueError,
                     "cannot normalize density with mass 0.0", id="normalize-zero"),
        pytest.param(lambda *_: point_mass(_GRID, 2.5), ValueError,
                     "u0=2.5 outside [0, 2.0]", id="point-mass-beyond-u_max"),
        pytest.param(lambda *_: solve_steady(SolverConfig(u_max=3.0, h=1.0)), ValueError,
                     "the steady discretization needs at least 4 bins, got 3",
                     id="steady-on-three-bins"),
        pytest.param(lambda *_: TransientSolution(_GRID, np.array([0.0, 0.5]),
                                                  np.ones((3, 5)), 0.5),
                     ValueError, "densities must have one row of node values per snapshot",
                     id="transient-rows"),
        pytest.param(lambda *_: residual_resummed(
                         TransientSolution(_GRID, np.array([0.0]), np.ones((1, 5)), 0.5), 0.5),
                     ValueError, "need at least two snapshots", id="resummed-one-snapshot"),
        pytest.param(_read_shifted_density, ValueError,
                     "{tmp}/u.csv: node column must start at 0 with >= 2 nodes",
                     id="density-file-first-node"),
        pytest.param(_evolve_with_a_scaled_kernel, StepInstabilityError,
                     "per-step mass defect 2.500e-02 exceeds tol_mass=1.0e-08 at tau=0.1",
                     id="transient-mass-defect"),
    ],
)
def test_library_refusal_names_the_bad_input(tmp_path, monkeypatch, call, error, message):
    with pytest.raises(error, match="^" + re.escape(message.format(tmp=tmp_path)) + "$"):
        call(tmp_path, monkeypatch)
