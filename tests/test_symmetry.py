"""The critical dilation u -> lambda u(lambda x, lambda^2 t) as an exact
symmetry of the discrete step.

The twin run takes the same samples, times lambda, on the box of side
L/lambda, with dt/lambda^2, T/lambda^2 and the sup-norm abort level times
lambda.  For a power of two lambda every L-dependent product and quotient is
exact, and the dealias box is set in index units, so the twin steps the same
coefficients times lambda: its snapshots are the base run's times lambda bit
for bit, and the critical norms agree at roundoff."""

import numpy as np
import pytest

from critns import Grid, RealVectorField
from critns.fields import random_divfree_field
from critns.norms import BesovIndex, besov_norm, e_norm, heat_besov_norm, lebesgue_norm
from critns.solver import SolverConfig, evolve


@pytest.fixture(scope="module")
def base():
    grid = Grid(3, 32)
    u0 = random_divfree_field(grid, seed=3, k_hi=4.0, amplitude=0.5)
    cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
    return u0, cfg, evolve(u0, cfg)


@pytest.mark.parametrize("lam", [2.0, 0.5])
def test_box_dilation_is_exact(base, lam):
    u0, cfg, traj = base
    grid = Grid(3, u0.grid.N, u0.grid.L / lam)
    twin_cfg = SolverConfig(dt=cfg.dt / lam**2, T=cfg.T / lam**2,
                            snapshot_stride=cfg.snapshot_stride,
                            blowup_sup_threshold=cfg.blowup_sup_threshold * lam)
    twin = evolve(RealVectorField(grid, lam * u0.data), twin_cfg)

    assert twin.status == traj.status
    assert np.array_equal(twin.times, traj.times / lam**2)
    assert len(twin.snapshots) == len(traj.snapshots)
    for got, want in zip(twin.snapshots, traj.snapshots):
        assert got.data.tobytes() == (lam * want.data).tobytes()
    np.testing.assert_allclose(twin.records["l2"] / traj.records["l2"], lam**-0.5,
                               rtol=1e-15, atol=0.0)

    idx = BesovIndex.critical(4.0, 3)
    last, twin_last = traj.snapshots[-1], twin.snapshots[-1]
    pairs = [(besov_norm(last, idx), besov_norm(twin_last, idx)),
             (heat_besov_norm(last, idx), heat_besov_norm(twin_last, idx)),
             (lebesgue_norm(last, 3), lebesgue_norm(twin_last, 3)),
             (e_norm(traj, 4, 4, cfg.T), e_norm(twin, 4, 4, twin_cfg.T))]
    for want, got in pairs:
        assert want > 0
        assert abs(got - want) <= 1e-14 * want
