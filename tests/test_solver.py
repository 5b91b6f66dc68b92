"""Mild NS evolution, bilinear operators, perturbed system."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from critns import Grid
from critns.errors import DomainError, TrajectoryCoverageError
from critns.fields import random_divfree_field, taylor_green
from critns.grid import (
    RealVectorField,
    forward_transform,
    inverse_transform,
    heat_semigroup,
    leray_project,
    spectral_divergence_ratio,
    zero_field,
    _leray_coefficients,
    _scatter,
)
from critns import solver
from critns.norms import lebesgue_norm
from critns.solver import (
    COMPLETED,
    DEALIAS_FRACTION,
    RESOLUTION_LIMIT,
    PerturbationProblem,
    SolverConfig,
    StepWorkspace,
    _div_flux_hat,
    _products,
    condition_datum,
    dealias_box,
    evolve,
    evolve_perturbed,
    evolve_streaming,
    make_heat_trajectory,
    nonlinear_term,
    q_bilinear,
    sample_trajectory,
    verify_perturbation_bound,
)

from conftest import (bilinear_duhamel, dealias_mask, general_div_flux_hat, irfftn, laplacian,
                      random_smooth_field, rel_err, retained_box, rfftn, thin, traced)


def convective_divergence(u):
    """div S' for the trace-free S' = u (x) u - u_{d-1}^2 I, unprojected and
    dealiased at 2/3: a gradient exactly when div(u (x) u) is one."""
    box = dealias_box(u.grid)
    flux = _div_flux_hat(_products([(u.data, u.data)]), box)
    return RealVectorField(u.grid, inverse_transform(flux, u.grid, box.extent))


class TestNonlinearTerm:
    def test_zero(self, grid3):
        assert nonlinear_term(zero_field(grid3)).max_abs() == 0.0

    def test_taylor_green_is_pure_gradient(self):
        # the convection term of the vortex lattice is annihilated by the
        # projection; the oracle checks the unprojected term is a gradient
        grid = Grid(2, 32)
        tg = taylor_green(grid)
        assert nonlinear_term(tg).max_abs() < 1e-10
        unprojected = convective_divergence(tg)
        residual = unprojected - (unprojected - leray_project(unprojected))
        assert rel_err(leray_project(unprojected).data, np.zeros_like(residual.data)) < 1e-10

    def test_two_mode_hand_convolution(self):
        # u = (sin y, 0, sin x): u.grad u = (0, 0, sin y cos x), which is
        # divergence-free (k has no z-component), so the projection fixes it
        grid = Grid(3, 16)
        x, y, z = grid.coordinate_mesh()
        u = RealVectorField(grid, np.stack([np.sin(y), np.zeros(grid.shape), np.sin(x)]))
        expected = np.stack([np.zeros(grid.shape), np.zeros(grid.shape),
                             np.sin(y) * np.cos(x)])
        out = nonlinear_term(u)
        assert rel_err(out.data, expected) < 1e-12


    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16), (3, 32)])
    def test_conserves_energy(self, d, N):
        # the dealiased, projected convection term adds no energy: <N(u), u> = 0
        # at roundoff on a conditioned datum (measured 7e-19 to 2e-17).  Both
        # factors lie in the dealias sphere, so the grid sum of their product
        # is the exact integral.  The unconditioned data read 4e-3 to 5e-2.
        grid = Grid(d, N)
        u = condition_datum(random_smooth_field(grid, seed=50 + d + N, ncomp=d))
        out = nonlinear_term(u)
        ratio = abs(np.sum(out.data * u.data)) / (np.linalg.norm(out.data) * np.linalg.norm(u.data))
        assert ratio <= 1e-14


class TestQBilinear:
    def test_zero_argument(self, grid3):
        a = random_divfree_field(grid3, seed=0, k_hi=3.0)
        assert q_bilinear(a, zero_field(grid3)).max_abs() == 0.0

    def test_symmetry_exact(self, grid3):
        a = random_divfree_field(grid3, seed=1, k_hi=3.0)
        b = random_divfree_field(grid3, seed=2, k_hi=3.0)
        ab = q_bilinear(a, b)
        ba = q_bilinear(b, a)
        assert np.array_equal(ab.data, ba.data)

    def test_matches_twice_nonlinear_term(self, grid3):
        u = random_divfree_field(grid3, seed=3, k_hi=3.0)
        lhs = q_bilinear(u, u)
        rhs = 2.0 * nonlinear_term(u)
        assert rel_err(lhs.data, rhs.data) < 1e-10

    def test_general_flux_kernel_matches_symmetric_pair(self, grid3):
        # div(f (x) g) + div(g (x) f) over all d^2 entries equals the
        # upper-triangle path on the symmetric f (x) g + g (x) f
        f = random_divfree_field(grid3, seed=4, k_hi=3.0).data
        g = random_divfree_field(grid3, seed=5, k_hi=3.0).data
        box = dealias_box(grid3)
        general = (general_div_flux_hat(lambda i, j: f[i] * g[j], box)
                   + general_div_flux_hat(lambda i, j: g[i] * f[j], box))
        pair = _div_flux_hat(_products([(f, g), (g, f)]), box)
        assert rel_err(general, pair) < 1e-13


class TestEvolve:
    def test_zero_datum(self, grid3):
        traj = evolve(zero_field(grid3), SolverConfig(dt=0.01, T=0.05))
        assert traj.status == COMPLETED
        assert all(s.max_abs() == 0.0 for s in traj.snapshots)

    def test_taylor_green_closed_form(self):
        grid = Grid(2, 64)
        cfg = SolverConfig(dt=1e-3, T=1.0, snapshot_stride=250)
        traj = evolve(taylor_green(grid), cfg)
        exact = taylor_green(grid, amplitude=np.exp(-2.0))
        assert np.max(np.abs(traj.snapshots[-1].data - exact.data)) <= 1e-6

    def test_divergence_free_snapshots(self, grid3m):
        u0 = random_divfree_field(grid3m, seed=5, k_hi=4.0, amplitude=0.5)
        traj = evolve(u0, SolverConfig(dt=5e-3, T=0.05, snapshot_stride=2))
        assert all(spectral_divergence_ratio(s) <= 1e-10 for s in traj.snapshots)

    def test_energy_monotone(self, grid3m):
        u0 = random_divfree_field(grid3m, seed=6, k_hi=4.0, amplitude=0.5)
        traj = evolve(u0, SolverConfig(dt=5e-3, T=0.1))
        l2 = traj.records["l2"]
        assert np.all(np.diff(l2) <= 1e-8 * l2[:-1])

    def test_second_order_in_time(self):
        grid = Grid(2, 32)
        u0 = random_divfree_field(grid, seed=7, k_lo=1.0, k_hi=6.0, amplitude=1.0)
        # observed order from self-convergence under dt halving
        finals = [evolve(u0, SolverConfig(dt=4e-3 / r, T=0.2, snapshot_stride=1000 * r))
                  .snapshots[-1] for r in (1, 2, 4)]
        e1 = lebesgue_norm(finals[0] - finals[1], 2.0)
        e2 = lebesgue_norm(finals[1] - finals[2], 2.0)
        assert 1.8 < math.log2(e1 / e2) < 2.2

    def test_spectral_in_space(self):
        # doubling N changes a smooth run by far less than the temporal error
        from critns.fields import band_noise
        from critns.grid import forward_transform, inverse_transform
        from dataclasses import replace

        coarse, fine = Grid(2, 32), Grid(2, 64)
        f_c = band_noise(coarse, 1.0, 5.0, seed=3, ncomp=2, divergence_free=True,
                         amplitude=0.5)
        c = forward_transform(f_c.data, coarse)
        half = coarse.N // 2
        sl = np.r_[0:half, fine.N - half:fine.N]

        def embed(field):
            cc = forward_transform(field.data, coarse)
            ce = np.zeros((2,) + fine.spectral_shape, dtype=complex)
            ce[np.ix_(range(2), sl, range(half))] = cc[..., :half]
            return RealVectorField(fine, inverse_transform(ce, fine))

        cf = np.zeros((2,) + fine.spectral_shape, dtype=complex)
        cf[np.ix_(range(2), sl, range(half))] = c[..., :half]
        f_f = RealVectorField(fine, inverse_transform(cf, fine))
        cfg = SolverConfig(dt=4e-3, T=0.2, snapshot_stride=1000)
        uc = evolve(f_c, cfg).snapshots[-1]
        uf = evolve(f_f, cfg).snapshots[-1]
        spatial = lebesgue_norm(embed(uc) - uf, 2)
        u2 = evolve(f_c, replace(cfg, dt=cfg.dt / 2)).snapshots[-1]
        temporal = lebesgue_norm(uc - u2, 2)
        assert spatial < 1e-2 * temporal

    @pytest.mark.parametrize("stride", [1, 3])
    def test_streaming_hands_out_the_collected_snapshots(self, grid3, stride):
        # the same snapshots, times and records bit for bit, each handed out
        # once, in order; a snapshot is valid until take returns, so take
        # keeps a copy
        u0 = random_divfree_field(grid3, seed=8, k_hi=3.0, amplitude=0.5)
        cfg = SolverConfig(dt=0.01, T=0.07, snapshot_stride=stride)
        traj = evolve(u0, cfg)
        taken = []
        run = evolve_streaming(u0, cfg, lambda snap: taken.append(snap.copy()))
        assert run.status == traj.status
        assert run.config_echo == traj.config_echo
        assert run.times.tobytes() == traj.times.tobytes()
        assert run.records.keys() == traj.records.keys()
        for key, values in run.records.items():
            assert values.tobytes() == traj.records[key].tobytes()
        assert len(taken) == len(traj.snapshots)
        for a, b in zip(taken, traj.snapshots):
            assert a.data.tobytes() == b.data.tobytes()

    def test_streamed_snapshot_is_read_only(self, grid3):
        # a snapshot is a view of the step's own samples buffer
        u0 = random_divfree_field(grid3, seed=8, k_hi=3.0, amplitude=0.5)

        def write(snap):
            snap.data[0] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            evolve_streaming(u0, SolverConfig(dt=0.01, T=0.03), write)

    def test_steps_allocate_nothing_of_the_grid_size(self, grid3m):
        # every large array a step writes is in the run's workspace: from one
        # snapshot to the next (one step apart), the traced peak above what
        # was held at the earlier one stays below a quarter of a snapshot
        u0 = random_divfree_field(grid3m, seed=8, k_hi=3.0, amplitude=0.5)
        above, held = [], None

        def take(snap):
            nonlocal held
            current, peak = tracemalloc.get_traced_memory()
            if held is not None:
                above.append((peak - held) / snap.data.nbytes)
            tracemalloc.reset_peak()
            held = current

        tracemalloc.start()
        try:
            evolve_streaming(u0, SolverConfig(dt=0.01, T=0.06, snapshot_stride=1), take)
        finally:
            tracemalloc.stop()
        assert len(above) == 6
        assert max(above) < 0.25, above

    def test_run_peak_stays_within_the_step_budget(self, grid3m):
        # the traced peak of a whole run above its start (the datum's
        # transforms, the run's workspace and its steps) stays within 4.5
        # snapshots; it reads 3.90 here.  The state ROADMAP items 1-3 add to
        # a step (CFL substeps, the in-run error estimate, per-step L^3
        # records) is budgeted against this bound: an item that needs more
        # raises it and says why.
        u0 = random_divfree_field(grid3m, seed=8, k_hi=3.0, amplitude=0.5)
        dealias_box(grid3m)  # built once per grid, not by the run
        cfg = SolverConfig(dt=0.01, T=0.06, snapshot_stride=1)
        _, _, peak = traced(lambda: evolve_streaming(u0, cfg, lambda snap: None))
        assert peak / u0.data.nbytes <= 4.5

    def test_forced_run_peak_holds_no_source_spectrum(self, grid3m):
        # a source is forwarded one component at a time through the flux's
        # plan: the run keeps no three-component spectrum of it.  The traced
        # peak of a forced run keeping two snapshots reads 5.08 snapshots
        # here, and 6.76 when the source went through the state's plan.
        # About one snapshot of it is the field each forcing call makes:
        # asked for after the fluxes, it is forwarded on the same base of
        # workspace arrays that the fluxes run on, so the peak is unchanged
        u0 = random_divfree_field(grid3m, seed=8, k_hi=3.0, amplitude=0.5)
        g = random_divfree_field(grid3m, seed=7, k_hi=4.0, amplitude=0.3)
        dealias_box(grid3m)
        prob = PerturbationProblem(u0, force_parts=(lambda t: g * np.cos(t), None))
        cfg = SolverConfig(dt=5e-3, T=0.03, snapshot_stride=6)
        traj, _, peak = traced(lambda: evolve_perturbed(prob, cfg))
        assert len(traj.snapshots) == 2
        assert peak / u0.data.nbytes <= 5.2

    def test_drifted_run_peak_holds_no_second_flux(self, grid3m):
        # the drift terms join u (x) u in one summed tensor, so the step
        # makes one flux into its stage array and keeps no second flux
        # result.  The traced peak of a drifted run keeping two snapshots,
        # its drift on a frame at every stage time, reads 8.29 snapshots
        # here, and 8.59 with a separate drift flux
        u0 = random_divfree_field(grid3m, seed=8, k_hi=3.0, amplitude=0.5)
        cfg = SolverConfig(dt=5e-3, T=0.03, snapshot_stride=6)
        drift = evolve(random_divfree_field(grid3m, seed=9, k_hi=3.0, amplitude=0.3),
                       SolverConfig(dt=5e-3, T=0.03))
        prob = PerturbationProblem(u0, drift=drift)
        traj, _, peak = traced(lambda: evolve_perturbed(prob, cfg))
        assert len(traj.snapshots) == 2
        assert peak / u0.data.nbytes <= 8.45

    def test_source_is_made_after_the_fluxes(self, grid3, monkeypatch):
        # rhs asks for the source once its flux is made, so no source field
        # a forcing call made is alive while a flux runs, one with a drift
        # included
        u0 = random_divfree_field(grid3, seed=8, k_hi=3.0, amplitude=0.5)
        g = random_divfree_field(grid3, seed=7, k_hi=4.0, amplitude=0.3)
        cfg = SolverConfig(dt=5e-3, T=0.02)
        drift = evolve(random_divfree_field(grid3, seed=9, k_hi=3.0, amplitude=0.3),
                       SolverConfig(dt=1e-2, T=0.02))
        made, alive = [], []

        def source(t):
            f = g * np.cos(t)
            made.append(weakref.ref(f))
            return f

        def first(*args, **kwargs):
            alive.append(any(ref() is not None for ref in made))
            return flux(*args, **kwargs)

        flux = solver._div_flux_hat
        monkeypatch.setattr(solver, "_div_flux_hat", first)
        evolve_perturbed(PerturbationProblem(u0, drift=drift, force_parts=(source, None)), cfg)
        # 4 steps of 2 stages, each with one flux of the summed tensor
        assert len(made) == 4 * 2 and len(alive) == 4 * 2
        assert not any(alive)

    @pytest.mark.parametrize("run", ["evolve_streaming", "evolve"])
    def test_a_temporary_datum_is_freed_before_the_run_steps(self, grid3m, monkeypatch, run):
        # the run starts from the datum's box coefficients: a datum passed as
        # a temporary is dead by the time the run builds its workspace, and
        # so at every snapshot it takes
        cfg = SolverConfig(dt=0.01, T=0.02)
        datum, dead = [], []

        def make():
            u0 = random_divfree_field(grid3m, seed=8, k_hi=3.0, amplitude=0.5)
            datum.append(weakref.ref(u0.data))
            return u0

        def check(*_):
            dead.append(datum[0]() is None)

        workspace = solver.StepWorkspace
        monkeypatch.setattr(solver, "StepWorkspace",
                            lambda *args: check() or workspace(*args))
        if run == "evolve":
            evolve(make(), cfg)
        else:
            evolve_streaming(make(), cfg, check)
        assert len(dead) == (1 if run == "evolve" else 4) and all(dead), dead

    def test_a_named_datum_stays_the_callers(self, grid3m):
        u0 = random_divfree_field(grid3m, seed=8, k_hi=3.0, amplitude=0.5)
        before = u0.data.tobytes()
        evolve_streaming(u0, SolverConfig(dt=0.01, T=0.02), lambda snap: None)
        evolve(u0, SolverConfig(dt=0.01, T=0.02))
        assert u0.data.tobytes() == before

    def test_sup_threshold_trips(self, grid3):
        u0 = random_divfree_field(grid3, seed=8, k_hi=3.0, amplitude=1.0)
        cfg = SolverConfig(dt=5e-3, T=0.1, blowup_sup_threshold=0.5)
        traj = evolve(u0, cfg)
        assert traj.status == RESOLUTION_LIMIT

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(dt=-1.0, T=1.0)
        # 0 or -1 would trip every run at t = 0 and NaN would silently switch
        # the tail monitor off; inf switches it off by design
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(DomainError, match="tail abort level"):
                SolverConfig(dt=0.1, T=1.0, spectral_tail_threshold=bad)
        SolverConfig(dt=0.1, T=1.0, spectral_tail_threshold=np.inf)
        # a subnormal step made T/dt overflow to inf in round(T / dt)
        with pytest.raises(DomainError, match="T/dt"):
            SolverConfig(dt=5e-324, T=1.0)

    @pytest.mark.parametrize("dt, T", [(np.inf, 1.0), (np.nan, 1.0), (0.1, np.inf),
                                       (0.1, np.nan)])
    def test_config_rejects_non_finite_times(self, dt, T):
        # T = inf used to pass and overflow in round(T / dt); dt = inf gave a
        # NonFinite trajectory whose only time was NaN
        with pytest.raises(DomainError, match="finite"):
            SolverConfig(dt=dt, T=T)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_heat_trajectory_rejects_non_finite_times(self, grid3, bad):
        u0 = random_divfree_field(grid3, seed=5, k_hi=3.0)
        with pytest.raises(DomainError, match="finite"):
            make_heat_trajectory(u0, [0.0, 0.1, bad])

    def test_heat_trajectory_is_heat_semigroup_bitwise(self, grid3):
        # each snapshot is made on read, HeatFlow(u0).at(t) for t > 0 and u0
        # at t = 0 as heat_semigroup gives them, and handed out read-only
        u0 = random_divfree_field(grid3, seed=5, k_hi=3.0)
        for times in ([0.0, 0.02, 0.1, 0.5], [0.3, 0.01]):
            traj = make_heat_trajectory(u0, times)
            for t, snap in zip(sorted(times), traj.snapshots, strict=True):
                assert snap.data.tobytes() == heat_semigroup(u0, t).data.tobytes()
                assert not snap.data.flags.writeable

    def test_heat_trajectory_keeps_one_spectrum(self, grid3m):
        # the datum's half spectrum and its t = 0 copy, 2.07 fields of a
        # 3-component 32^3 datum, where nine kept snapshots took 9.0
        u0 = random_divfree_field(grid3m, seed=5, k_hi=3.0)
        times = np.linspace(0.0, 0.16, 9)
        make_heat_trajectory(u0, times).snapshots[1]  # the grid's cached k^2
        _, held, _ = traced(lambda: make_heat_trajectory(u0, times))
        assert held < 2.2 * u0.data.nbytes


def _reference_heun(u0, cfg, drift=None, source=None, trace_free=True):
    """Integrating-factor Heun on the full half spectrum with full masks: the
    step the box step must reproduce bit for bit.  Returns the physical
    samples of every step and the l2, linf and tail-fraction records.

    The fluxes are trace-free (S - S_{d-1,d-1} I, one transform fewer), as in
    the solver; trace_free=False transforms every entry of S, which changes
    the projected flux by roundoff only."""
    grid, d = u0.grid, u0.grid.d
    kmesh = grid.deriv_wavenumber_mesh
    mask = dealias_mask(grid, DEALIAS_FRACTION)
    top = DEALIAS_FRACTION / 2.0**cfg.tail_octave_shift
    tail_mask = dealias_mask(grid, top) & ~dealias_mask(grid, top / 2.0)
    heat = np.exp(-cfg.dt * grid.k_squared)

    def leray(coeff):
        kdotu = sum(ka * coeff[c] for c, ka in enumerate(kmesh))
        kdotu *= grid.inv_deriv_k_squared
        for c, ka in enumerate(kmesh):
            coeff[c] -= ka * kdotu
        return coeff

    def flux(entry):
        acc = np.zeros((d,) + grid.spectral_shape, dtype=np.complex128)
        last = entry(d - 1, d - 1)
        for i in range(d):
            for j in range(i, d):
                if trace_free and i == j == d - 1:
                    continue
                sij = entry(i, j) - last if trace_free and i == j else entry(i, j)
                tij = rfftn(sij, grid)
                tij *= mask
                acc[i] += 1j * kmesh[j] * tij
                if j != i:
                    acc[j] += 1j * kmesh[i] * tij
        return acc

    def rhs(uh, phys, t):
        acc = np.zeros_like(uh)
        if drift is None:
            acc -= flux(lambda i, j: phys[i] * phys[j])
        else:
            # one flux of the summed tensor u (x) u + u (x) F + F (x) u
            f = drift.at(t).data
            acc -= flux(lambda i, j: phys[i] * phys[j] + phys[i] * f[j] + f[i] * phys[j])
        if source is not None:
            acc += rfftn(source(t).data, grid) * mask
        return leray(acc)

    uh = leray(rfftn(u0.data, grid) * mask)
    snaps, l2, linf, tail = [], [], [], []
    n_steps = max(1, round(cfg.T / cfg.dt))
    for step in range(n_steps + 1):
        phys = irfftn(uh, grid)
        power = grid.multiplicity * np.abs(uh) ** 2
        energy = np.sum(power)
        snaps.append(phys)
        l2.append(np.sqrt(grid.L**d * energy))
        linf.append(np.max(np.abs(phys)))
        tail.append(np.sum(power[:, tail_mask]) / energy)
        if step == n_steps:
            break
        t = step * cfg.dt
        n1 = rhs(uh, phys, t)
        pred = heat * (uh + cfg.dt * n1)
        n2 = rhs(pred, irfftn(pred, grid), t + cfg.dt)
        uh = heat * uh + 0.5 * cfg.dt * (heat * n1 + n2)
    return snaps, {"l2": l2, "linf": linf, "tail_fraction": tail}


def _assert_matches_reference(traj, snaps, records):
    assert traj.status == COMPLETED and len(traj.snapshots) == len(snaps)
    for got, want in zip(traj.snapshots, snaps):
        assert got.data.tobytes() == want.tobytes()
    assert np.array_equal(traj.records["linf"], records["linf"])
    for key in ("l2", "tail_fraction"):
        assert np.allclose(traj.records[key], records[key], rtol=1e-14, atol=0.0)


class TestBoxStep:
    @pytest.mark.parametrize("d, N, shift", [
        (2, 32, 0),
        (3, 16, 0),
        (3, 24, 0),
        (2, 24, 1),
    ], ids=["2d-32-two-thirds", "3d-16-two-thirds", "3d-24-two-thirds",
            "2d-24-two-thirds-shift"])
    def test_evolve_matches_full_spectrum_reference(self, d, N, shift):
        # N = 24 at 2/3 puts the dealias radius R = 8 on a lattice point, so the
        # strict |m| < R decides the box's edge
        grid = Grid(d, N)
        u0 = random_divfree_field(grid, seed=30 + N, k_hi=N / 4.0, amplitude=0.8)
        cfg = SolverConfig(dt=5e-3, T=0.04, tail_octave_shift=shift)
        _assert_matches_reference(evolve(u0, cfg), *_reference_heun(u0, cfg))

    def test_perturbed_matches_full_spectrum_reference(self, grid3):
        w0 = random_divfree_field(grid3, seed=31, k_hi=4.0, amplitude=0.5)
        drift = make_heat_trajectory(random_divfree_field(grid3, seed=32, k_hi=3.0),
                                     np.linspace(0.0, 0.05, 6))
        g = random_divfree_field(grid3, seed=33, k_hi=5.0, amplitude=0.2)

        def source(t):
            return g * np.cos(3.0 * t)

        cfg = SolverConfig(dt=5e-3, T=0.04)
        prob = PerturbationProblem(w0=w0, drift=drift, force_parts=(source, None))
        _assert_matches_reference(evolve_perturbed(prob, cfg),
                                  *_reference_heun(w0, cfg, drift, source))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("N", [8, 12, 16, 18, 24, 32, 48])
    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 2.0 / 3.0, 0.7, 1.0])
    def test_box_holds_the_dealias_sphere(self, d, N, fraction):
        for L in (2.0 * np.pi, 1.0, 3.7):
            grid = Grid(d, N, L)
            box = retained_box(grid, fraction)
            mask = dealias_mask(grid, fraction)
            # the box's mask, scattered back, is the whole sphere
            assert np.array_equal(_scatter(box.mask, grid, box.extent), mask)
            assert np.array_equal(box.gather(mask), box.mask)
            assert box.extent == math.ceil(fraction * N / 2.0) - 1
            assert box.extent < N // 2
            if fraction == DEALIAS_FRACTION:
                assert dealias_box(grid) is dealias_box(grid)
                assert dealias_box(grid).extent == box.extent
                assert dealias_box(grid).mask.tobytes() == box.mask.tobytes()

    @pytest.mark.parametrize("forced", ["plain", "drift", "drift and source"])
    def test_heun_matches_a_step_on_fresh_arrays(self, grid3, forced):
        # the workspace's shared buffers (the flux's rfft in the state's
        # inverse work array, the Leray scratch in the flux term, the second
        # stage in pred) change no bit: three steps against the formula of
        # heun's docstring on fresh arrays and one-shot flux and Leray calls
        box, dt = dealias_box(grid3), 5e-3
        u0 = random_divfree_field(grid3, seed=35, k_hi=4.0, amplitude=0.8)
        drift = random_divfree_field(grid3, seed=36, k_hi=3.0, amplitude=0.5)
        g = random_divfree_field(grid3, seed=37, k_hi=5.0, amplitude=0.2)

        def forcing(t):
            # the source is handed over as a callable, asked for after the fluxes
            return (None if forced == "plain" else drift * np.cos(t),
                    (lambda: g * np.sin(1.0 + t)) if forced == "drift and source" else None)

        def rhs(phys, f, source):
            # one flux of u (x) u + u (x) F + F (x) u, as the step makes it
            terms = [(phys, phys)]
            if f is not None:
                terms += [(phys, f.data), (f.data, phys)]
            acc = _div_flux_hat(_products(terms), box, -1.0)
            if source is not None:
                acc += forward_transform(source().data, grid3, box.extent) * box.mask
            return _leray_coefficients(acc, box)

        heat = np.exp(-dt * box.k_squared)
        uh = _leray_coefficients(forward_transform(u0.data, grid3, box.extent) * box.mask, box)
        want = uh.copy()
        work = StepWorkspace(box, 3, forced != "plain")
        for step in range(3):
            t = step * dt
            n1 = rhs(inverse_transform(want, grid3, box.extent), *forcing(t))
            pred = heat * (want + dt * n1)
            n2 = rhs(inverse_transform(pred, grid3, box.extent), *forcing(t + dt))
            want = heat * want + (0.5 * dt) * (heat * n1 + n2)
            phys = inverse_transform(uh, grid3, box.extent, work.state)
            work.heun(uh, phys, t, dt, heat, forcing)
            assert uh.tobytes() == want.tobytes(), step

    def test_box_gather_scatter_roundtrip(self, grid3):
        box = dealias_box(grid3)
        data = random_divfree_field(grid3, seed=34).data
        coeff = forward_transform(data, grid3)
        kept = _scatter(box.gather(coeff), grid3, box.extent)
        inside = _scatter(np.ones((3,) + box.spectral_shape, dtype=bool), grid3, box.extent)
        assert np.array_equal(kept[inside], coeff[inside])
        assert not kept[~inside].any()
        pruned = forward_transform(data, grid3, box.extent)
        assert pruned.tobytes() == box.gather(coeff).tobytes()


class TestTraceFreeFlux:
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_projection_removes_the_trace(self, d, fraction, symmetric):
        # S - S_{d-1,d-1} I differs from S by a multiple of the identity, whose
        # divergence is a gradient: the projected fluxes agree to roundoff,
        # the unprojected ones do not.  A symmetric S goes through the
        # solver's kernel, a general one through the test oracle's trace-free
        # mode (bilinear_duhamel's flux)
        grid = Grid(d, 16)
        f = random_divfree_field(grid, seed=40, k_hi=4.0).data
        g = random_divfree_field(grid, seed=41, k_hi=4.0).data
        box = retained_box(grid, fraction)
        entry = _products([(f, g), (g, f)]) if symmetric else (lambda i, j: f[i] * g[j])
        full = general_div_flux_hat(entry, box, trace_free=False)
        free = _div_flux_hat(entry, box) if symmetric else general_div_flux_hat(entry, box)
        assert rel_err(free, full) > 1e-3
        assert rel_err(_leray_coefficients(free, box),
                       _leray_coefficients(full, box)) < 1e-14

    @pytest.mark.parametrize("d, transforms", [(2, 2), (3, 5)])
    def test_one_transform_fewer(self, d, transforms, monkeypatch):
        # d(d+1)/2 - 1 transforms: the upper triangle less the last diagonal entry
        grid = Grid(d, 8)
        u = random_divfree_field(grid, seed=42, k_hi=2.0).data
        calls = []

        def counted(data, grid, extent=None, plan=None):
            calls.append(data.shape)
            return forward_transform(data, grid, extent, plan)

        monkeypatch.setattr(solver, "forward_transform", counted)
        _div_flux_hat(_products([(u, u)]), dealias_box(grid))
        assert len(calls) == transforms

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16), (3, 24)])
    def test_evolve_matches_full_tensor_reference(self, d, N):
        # the trace-free step stays at roundoff of the step that transforms
        # all d(d+1)/2 entries (measured <= 3e-16 relative)
        grid = Grid(d, N)
        u0 = random_divfree_field(grid, seed=30 + N, k_hi=N / 4.0, amplitude=0.8)
        cfg = SolverConfig(dt=5e-3, T=0.04)
        traj = evolve(u0, cfg)
        snaps, records = _reference_heun(u0, cfg, trace_free=False)
        for got, want in zip(traj.snapshots, snaps):
            assert rel_err(got.data, want) < 1e-14
        for key in ("l2", "linf"):
            assert np.allclose(traj.records[key], records[key], rtol=1e-14, atol=0.0)

    def test_perturbed_matches_full_tensor_reference(self, grid3):
        w0 = random_divfree_field(grid3, seed=31, k_hi=4.0, amplitude=0.5)
        drift = make_heat_trajectory(random_divfree_field(grid3, seed=32, k_hi=3.0),
                                     np.linspace(0.0, 0.05, 6))
        g = random_divfree_field(grid3, seed=33, k_hi=5.0, amplitude=0.2)

        def source(t):
            return g * np.cos(3.0 * t)

        cfg = SolverConfig(dt=5e-3, T=0.04)
        prob = PerturbationProblem(w0=w0, drift=drift, force_parts=(source, None))
        traj = evolve_perturbed(prob, cfg)
        snaps, _ = _reference_heun(w0, cfg, drift, source, trace_free=False)
        for got, want in zip(traj.snapshots, snaps):
            assert rel_err(got.data, want) < 1e-14


class TestTailOctave:
    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            SolverConfig(dt=0.01, T=0.1, tail_octave_shift=-1)

    @pytest.mark.parametrize("shift", [3, 2000])
    def test_empty_octave_rejected(self, shift):
        # at N = 16 the dealias radius is 16/3, so a shift of 3 leaves the
        # octave [1/3, 2/3) with no lattice point; 2000 would overflow 2^shift
        grid = Grid(2, 16)
        with pytest.raises(DomainError):
            evolve(taylor_green(grid), SolverConfig(dt=0.01, T=0.02, tail_octave_shift=shift))

    def test_deepest_populated_octave_accepted(self):
        # a shift of 2 monitors [4/3, 8/3), which holds |m| = 2
        grid = Grid(2, 16)
        traj = evolve(taylor_green(grid), SolverConfig(dt=0.01, T=0.02, tail_octave_shift=2))
        assert traj.status == COMPLETED


class TestTrajectory:
    def test_interpolation(self, grid2):
        f = random_divfree_field(grid2, seed=9, k_hi=4.0)
        traj = make_heat_trajectory(f, [0.0, 0.1, 0.2])
        mid = traj.at(0.05)
        expected = 0.5 * (traj.snapshots[0].data + traj.snapshots[1].data)
        assert rel_err(mid.data, expected) < 1e-12

    def test_coverage_error(self, grid2):
        f = random_divfree_field(grid2, seed=10, k_hi=4.0)
        traj = make_heat_trajectory(f, [0.0, 0.1])
        with pytest.raises(TrajectoryCoverageError):
            traj.at(0.3)

    def test_window_and_thin(self, grid2):
        f = random_divfree_field(grid2, seed=11, k_hi=4.0)
        traj = make_heat_trajectory(f, np.linspace(0, 1, 11))
        times = traj.times[traj.window_indices((0.2, 0.6))]
        assert len(times) == 5 and abs(times[0] - 0.2) < 1e-12
        thinned = thin(traj, 2)
        assert len(thinned.snapshots) == 6


class TestEvolvePerturbed:
    def test_zero_problem_stays_zero(self, grid3):
        drift = make_heat_trajectory(
            random_divfree_field(grid3, seed=12, k_hi=3.0), np.linspace(0, 0.1, 5)
        )
        prob = PerturbationProblem(w0=zero_field(grid3), drift=drift)
        traj = evolve_perturbed(prob, SolverConfig(dt=5e-3, T=0.05))
        assert traj.snapshots[-1].max_abs() < 1e-9

    def test_reduces_to_evolve_bitwise(self, grid3m):
        w0 = random_divfree_field(grid3m, seed=13, k_hi=4.0, amplitude=0.4)
        cfg = SolverConfig(dt=5e-3, T=0.05, snapshot_stride=2)
        a = evolve(w0, cfg)
        b = evolve_perturbed(PerturbationProblem(w0=w0), cfg)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.data, sb.data)

    def test_manufactured_solution(self, grid3m):
        # pick R*(t), assemble the source so R* solves the perturbed system,
        # and check the solver recovers it
        base = random_divfree_field(grid3m, seed=14, k_lo=1.0, k_hi=4.0, amplitude=0.5)
        drift_base = random_divfree_field(grid3m, seed=15, k_lo=1.0, k_hi=3.0, amplitude=0.4)

        def r_star(t):
            return base * np.exp(-0.7 * t)

        def drift_field(t):
            return drift_base * np.exp(-t)

        def source(t):
            r = r_star(t)
            return (
                r * (-0.7)
                + nonlinear_term(r)
                - laplacian(r)
                + q_bilinear(r, drift_field(t))
            )

        drift = sample_trajectory(grid3m, np.linspace(0, 0.2, 41), drift_field)
        prob = PerturbationProblem(w0=r_star(0.0), drift=drift, force_parts=(source, None))
        traj = evolve_perturbed(prob, SolverConfig(dt=2e-3, T=0.2, snapshot_stride=25))
        err = lebesgue_norm(traj.snapshots[-1] - r_star(0.2), 2)
        assert err / lebesgue_norm(r_star(0.2), 2) < 1e-4

    def test_nonlinear_decomposition_consistency(self, grid3m):
        # u0 = v0 + w0: w solves the perturbed system with drift NS(v0) and no
        # source, so NS(v0) + w must reproduce NS(u0); pins the coupling sign
        v0 = random_divfree_field(grid3m, seed=40, k_lo=1.0, k_hi=4.0, amplitude=0.6)
        w0 = random_divfree_field(grid3m, seed=41, k_lo=1.0, k_hi=4.0, amplitude=0.2)
        cfg = SolverConfig(dt=2e-3, T=0.1, snapshot_stride=10)
        u_traj = evolve(v0 + w0, cfg)
        v_traj = evolve(v0, SolverConfig(dt=2e-3, T=0.1 + 4e-3, snapshot_stride=1))
        w_traj = evolve_perturbed(PerturbationProblem(w0=w0, drift=v_traj), cfg)
        recon = v_traj.at(0.1) + w_traj.at(0.1)
        err = lebesgue_norm(recon - u_traj.at(0.1), 2) / lebesgue_norm(u_traj.at(0.1), 2)
        assert err < 1e-5

    def test_drift_coverage_error(self, grid3):
        drift = make_heat_trajectory(
            random_divfree_field(grid3, seed=16, k_hi=3.0), [0.0, 0.02]
        )
        prob = PerturbationProblem(w0=zero_field(grid3), drift=drift)
        with pytest.raises(TrajectoryCoverageError):
            evolve_perturbed(prob, SolverConfig(dt=5e-3, T=0.05))


class TestBilinearDuhamel:
    def test_zero_factor(self, grid3):
        f = make_heat_trajectory(random_divfree_field(grid3, seed=17, k_hi=3.0),
                                 np.linspace(0, 0.1, 5))
        z = make_heat_trajectory(zero_field(grid3), np.linspace(0, 0.1, 5))
        assert bilinear_duhamel(f, z, 0.1).max_abs() == 0.0

    def test_duhamel_self_consistency_taylor_green(self):
        grid = Grid(2, 32)
        cfg = SolverConfig(dt=1e-3, T=0.5, snapshot_stride=25)
        traj = evolve(taylor_green(grid), cfg)
        t = 0.5
        lin = heat_semigroup(traj.snapshots[0], t)
        b = bilinear_duhamel(traj, traj, t)
        recon = lin - b
        assert rel_err(recon.data, traj.at(t).data) < 1e-3

    def test_duhamel_self_consistency_generic(self, grid3m):
        u0 = random_divfree_field(grid3m, seed=18, k_lo=1.0, k_hi=4.0, amplitude=0.6)
        cfg = SolverConfig(dt=1e-3, T=0.2, snapshot_stride=10)
        traj = evolve(u0, cfg)
        t = 0.2
        recon = heat_semigroup(traj.snapshots[0], t) - bilinear_duhamel(traj, traj, t)
        err = lebesgue_norm(recon - traj.at(t), 2) / lebesgue_norm(traj.at(t), 2)
        assert err < 1e-3

    def test_bilinear_bound_family_stability(self, grid3):
        # empirical Duhamel-smoothing constant over a random family: the fitted
        # ratios stay within +-50% of their median
        from critns.norms import BesovIndex, besov_norm

        idx = BesovIndex(1.0, 1.5, np.inf)
        ratios = []
        for seed in range(4):
            f = random_divfree_field(grid3, seed=100 + seed, k_lo=1.0, k_hi=3.0)
            g = random_divfree_field(grid3, seed=200 + seed, k_lo=1.0, k_hi=3.0)
            tf = make_heat_trajectory(f, np.linspace(0, 0.1, 9))
            tg_ = make_heat_trajectory(g, np.linspace(0, 0.1, 9))
            b = bilinear_duhamel(tf, tg_, 0.1)
            lhs = besov_norm(b, idx)
            sup_fg = max(
                lebesgue_norm(
                    RealVectorField(grid3, np.einsum("i...,j...->ij...", fa.data, ga.data)
                                    .reshape((-1,) + grid3.shape)),
                    1.5,
                )
                for fa, ga in zip(tf.snapshots, tg_.snapshots)
            )
            ratios.append(lhs / sup_fg)
        med = np.median(ratios)
        assert all(0.5 * med <= r <= 1.5 * med for r in ratios)


class TestPerturbationBound:
    def test_zero_data_floor(self, grid3):
        prob = PerturbationProblem(w0=zero_field(grid3))
        rep = verify_perturbation_bound(prob, SolverConfig(dt=5e-3, T=0.05), 4.0)
        assert rep.lhs_e_norm <= 1e-9
        assert not rep.inconsistent

    def test_p_range_enforced(self, grid3):
        prob = PerturbationProblem(w0=zero_field(grid3))
        with pytest.raises(DomainError):
            verify_perturbation_bound(prob, SolverConfig(dt=5e-3, T=0.05), 9.0)

    def test_no_drift_small_data(self, grid3m):
        w0 = random_divfree_field(grid3m, seed=20, k_lo=1.0, k_hi=4.0, amplitude=0.02)
        prob = PerturbationProblem(w0=w0)
        rep = verify_perturbation_bound(prob, SolverConfig(dt=5e-3, T=0.2, snapshot_stride=4), 4.0)
        assert rep.drift_norm == 0.0
        assert rep.lhs_e_norm <= 1.5 * rep.bracket

    def test_drift_sweep_exponential_envelope(self, grid3):
        w0 = random_divfree_field(grid3, seed=21, k_lo=1.0, k_hi=3.0, amplitude=0.05)
        vbase = random_divfree_field(grid3, seed=22, k_lo=1.0, k_hi=3.0, amplitude=0.3)
        cfg = SolverConfig(dt=5e-3, T=0.1, snapshot_stride=2)
        consts = []
        for alpha in (1.0, 2.0, 4.0):
            drift = make_heat_trajectory(vbase * alpha, np.linspace(0, 0.1, 21))
            rep = verify_perturbation_bound(
                PerturbationProblem(w0=w0, drift=drift), cfg, 4.0
            )
            assert np.isfinite(rep.lhs_e_norm)
            if rep.implied_constant is not None:
                consts.append(rep.implied_constant)
        # implied constants bounded above by a single constant across the sweep
        assert consts and max(consts) < 10.0
