"""Profile synthesis, superposition, remainder tracking and concentration extraction."""

import numpy as np
import pytest

from critns import Grid
from critns.errors import DomainError, SupportOverflowError
from critns.fields import curl_field, gabor_bump, gaussian_bump, localized_divfree_bump
from critns.grid import (RealVectorField, heat_semigroup, leray_project,
                         spectral_divergence_ratio, zero_field)
from critns.lp import low_pass
from critns.norms import band_profile, critical_exponent, e_norm, lebesgue_norm
from critns.profiles import (
    EvolvedSystem,
    ProfileSystem,
    RemainderRule,
    default_remainder,
    drift_norm,
    drift_term,
    evolve_system,
    extract_cores,
    norm_splitting_check,
    ns_equation_residual,
    order_profiles,
    remainder,
    remainder_equation_residual,
    source_norms,
    source_term,
    superpose_evolution,
    synthesize_datum,
)
from critns.scaling import ScaleCore, ScaleCoreSequence
from critns.solver import SolverConfig, condition_datum, evolve, make_heat_trajectory

from conftest import bilinear_duhamel, irfftn, laplacian, rel_err

L3 = 2.0 * np.pi


def _const_seq(d, core, length=10, concentrate_from=3):
    """Equal-scale sequence whose tail concentrates jointly, so the
    separation-over-scale proxy diverges while tested entries stay put."""
    entries = []
    for n in range(length):
        lam = 1.0 if n < concentrate_from else 2.0 ** (-(n - concentrate_from + 1))
        entries.append(ScaleCore(lam, core))
    return ScaleCoreSequence(entries)


def _identity_seq(d, length=10):
    return ScaleCoreSequence([ScaleCore.identity(d) for _ in range(length)])


def _two_profile_system(grid, amp=0.25, remainder_amp=1e-2):
    L = grid.L
    phi1 = condition_datum(localized_divfree_bump(grid, sigma=L / 10,
                                                  mode_center=(2, 1, 1), seed=11,
                                                  amplitude=amp))
    phi2 = condition_datum(localized_divfree_bump(grid, sigma=L / 10,
                                                  mode_center=(2, 1, 1), seed=22,
                                                  amplitude=amp))
    nmax = 20

    def delta(n):
        return min(0.03 + 0.07 * n, 0.24)

    seq1 = ScaleCoreSequence(
        [ScaleCore(1.0 if n < 4 else 2.0 ** (-(n - 3)),
                   tuple(-delta(min(n, 3)) * L * np.ones(3))) for n in range(nmax)]
    )
    seq2 = ScaleCoreSequence(
        [ScaleCore(1.0 if n < 4 else 2.0 ** (-(n - 3)),
                   tuple(+delta(min(n, 3)) * L * np.ones(3))) for n in range(nmax)]
    )
    rem = default_remainder(grid, seed=33, amplitude=remainder_amp, decay=0.25)
    return ProfileSystem(profiles=[(phi1, seq1), (phi2, seq2)], remainder=rem)


class TestSystemValidation:
    def test_two_profile_system_validates(self, grid3m):
        _two_profile_system(grid3m).validate()

    def test_rejects_non_orthogonal(self, grid3m):
        phi = localized_divfree_bump(grid3m, sigma=grid3m.L / 10, seed=1, amplitude=0.1)
        seq = _identity_seq(3)
        sys_ = ProfileSystem(profiles=[(phi, seq), (phi, seq)])
        with pytest.raises(DomainError):
            sys_.validate()

    def test_rejects_non_divfree(self, grid3m):
        bad = gaussian_bump(grid3m, sigma=grid3m.L / 10, ncomp=3)
        sys_ = ProfileSystem(profiles=[(bad, _identity_seq(3))])
        with pytest.raises(DomainError):
            sys_.validate()

    @pytest.mark.parametrize("ncomp, message", [(1, "not a velocity field"),
                                                (3, "not divergence-free")])
    def test_rejects_a_remainder_that_is_no_divfree_velocity_field(self, grid3, ncomp,
                                                                    message):
        phi = localized_divfree_bump(grid3, sigma=grid3.L / 10, seed=1, amplitude=0.1)
        bad = gaussian_bump(grid3, sigma=grid3.L / 10, ncomp=ncomp, amplitude=1e-2)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3))],
                             remainder=RemainderRule(base=bad))
        with pytest.raises(DomainError, match=f"the remainder is {message}"):
            sys_.validate()

    def test_truncate_and_sequence_indices_own_their_range(self, grid3):
        sys_ = _two_profile_system(grid3)
        assert len(sys_.truncate(0).profiles) == 1
        with pytest.raises(DomainError):
            sys_.truncate(-1)
        seq = sys_.sequence(0)
        assert seq[len(seq) - 1] is seq.entries[-1]
        for n in (-1, len(seq)):
            with pytest.raises(DomainError):
                seq[n]
        with pytest.raises(DomainError):
            synthesize_datum(sys_, -1)

    def test_index_outside_a_sequence_stops_evolve_system_before_any_run(self, grid3,
                                                                          monkeypatch):
        from critns import profiles

        sys_ = _two_profile_system(grid3)
        (phi1, seq1), (phi2, seq2) = sys_.profiles
        short = ProfileSystem(profiles=[(phi1, seq1),
                                        (phi2, ScaleCoreSequence(seq2.entries[:2]))])
        runs = []
        monkeypatch.setattr(profiles, "evolve", lambda *args: runs.append(args))
        with pytest.raises(DomainError):
            evolve_system(short, SolverConfig(dt=4e-3, T=0.008), [0, 2])
        assert runs == []


class TestSynthesize:
    def test_single_profile_no_remainder(self, grid3m):
        phi = localized_divfree_bump(grid3m, sigma=grid3m.L / 10, seed=2, amplitude=0.2)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3))], remainder=None)
        datum = synthesize_datum(sys_, 0)
        # identity sequence entry: the datum is the re-projected profile
        assert rel_err(datum.data, phi.data) < 1e-10

    def test_divergence_free(self, grid3m):
        sys_ = _two_profile_system(grid3m)
        assert spectral_divergence_ratio(synthesize_datum(sys_, 1)) < 1e-10

    def test_disjoint_ld_additivity(self):
        grid = Grid(3, 32)
        L = grid.L
        phi1 = localized_divfree_bump(grid, sigma=L / 16, seed=3, amplitude=0.3)
        phi2 = localized_divfree_bump(grid, sigma=L / 16, seed=4, amplitude=0.3)
        seq1 = _const_seq(3, tuple(-0.24 * L * np.ones(3)))
        seq2 = _const_seq(3, tuple(+0.24 * L * np.ones(3)))
        sys_ = ProfileSystem(profiles=[(phi1, seq1), (phi2, seq2)], remainder=None)
        datum = synthesize_datum(sys_, 0)
        total = lebesgue_norm(datum, 3) ** 3
        parts = sum(lebesgue_norm(synthesize_datum(
            ProfileSystem(profiles=[p], remainder=None), 0), 3) ** 3
            for p in sys_.profiles)
        assert abs(total - parts) / parts < 1e-6

    def test_norm_additivity_trend_over_n(self, grid3m):
        # finite shadow of the datum-level norm splitting: the defect of
        # ||datum||_d^d against the profile sum decays along the sweep
        sys_ = _two_profile_system(grid3m, remainder_amp=0.0)
        parts = sum(lebesgue_norm(p[0], 3) ** 3 for p in sys_.profiles)
        defects = []
        for n in (0, 1, 2):
            datum = synthesize_datum(sys_, n)
            defects.append(abs(lebesgue_norm(datum, 3) ** 3 - parts))
        assert defects[0] > defects[1] > defects[2]

    def test_overflow_names_profile(self):
        grid = Grid(3, 32)
        phi = localized_divfree_bump(grid, sigma=grid.L / 8, seed=5, amplitude=0.2)
        seq = ScaleCoreSequence([ScaleCore(2.0, (0.0, 0.0, 0.0))] * 4)
        sys_ = ProfileSystem(profiles=[(phi, seq)], remainder=None)
        with pytest.raises(SupportOverflowError, match="profile 0"):
            synthesize_datum(sys_, 0)


class TestOrdering:
    def test_all_global_identity(self, grid3):
        phi = localized_divfree_bump(grid3, sigma=grid3.L / 10, seed=6, amplitude=0.1)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3)),
                                       (phi, _const_seq(3, (0.5, 0, 0)))])
        inf = float("inf")
        assert order_profiles(sys_, [inf, inf], 0) == [0, 1]
        # no finite lifespan: no horizon
        ev = EvolvedSystem(sys_, [], [inf, inf], [0, 1])
        assert ev.tau(0) == inf

    def test_single_finite_first(self, grid3):
        phi = localized_divfree_bump(grid3, sigma=grid3.L / 10, seed=7, amplitude=0.1)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3)),
                                       (phi, _const_seq(3, (0.5, 0, 0)))])
        lifespans = [float("inf"), 0.3]
        ordering = order_profiles(sys_, lifespans, 0)
        assert ordering[0] == 1
        # the horizon is the finite profile's: lambda = 1 at index 0
        assert EvolvedSystem(sys_, [], lifespans, ordering).tau(0) == 0.3

    def test_products_order(self, grid3):
        phi = localized_divfree_bump(grid3, sigma=grid3.L / 10, seed=8, amplitude=0.1)
        seq_small = ScaleCoreSequence([ScaleCore(0.5, (0.0, 0.0, 0.0))] * 4)
        seq_unit = _identity_seq(3, 4)
        sys_ = ProfileSystem(profiles=[(phi, seq_unit), (phi, seq_small)])
        # lifespans 0.4 and 1.0: products 0.4 vs 0.25 -> profile 1 first
        assert order_profiles(sys_, [0.4, 1.0], 0) == [1, 0]


class TestSuperposition:
    def test_t_zero_equals_datum(self, grid3m):
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1])
        for n in (0, 1):
            datum = synthesize_datum(sys_, n)
            sup = superpose_evolution(ev, sys_, n, 0.0)
            assert rel_err(sup.data, datum.data) < 1e-10

    def test_single_profile_identity_is_its_evolution(self, grid3m):
        phi = condition_datum(localized_divfree_bump(grid3m, sigma=grid3m.L / 10,
                                                     seed=9, amplitude=0.2))
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3))], remainder=None)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        t = 0.04
        sup = superpose_evolution(ev, sys_, 0, t)
        assert rel_err(sup.data, ev.trajectories[0].at(t).data) < 1e-10

    def test_linear_hook_superposition_is_heat_flow(self, grid3m):
        # profiles that flow by heat superpose to the heat flow of the datum;
        # each profile is recorded on evolve_system's parabolically matched
        # frames (dt / lambda^2), so every lookup hits a frame
        sys_ = _two_profile_system(grid3m)
        n, t = 1, 0.04
        trajectories = []
        for phi, seq in sys_.profiles:
            dt = 4e-3 / seq[n].lam**2
            trajectories.append(make_heat_trajectory(phi, [k * dt for k in range(11)]))
        lifespans = [float("inf")] * len(trajectories)
        ev = EvolvedSystem(system=sys_, trajectories=trajectories, lifespans=lifespans,
                           ordering=order_profiles(sys_, lifespans, n))
        sup = superpose_evolution(ev, sys_, n, t)
        exact = heat_semigroup(synthesize_datum(sys_, n), t)
        assert rel_err(sup.data, exact.data) < 1e-8


class TestRemainder:
    def test_single_profile_remainder_at_floor(self, grid3m):
        phi = localized_divfree_bump(grid3m, sigma=grid3m.L / 10, seed=10, amplitude=0.2)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3))], remainder=None)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        traj = evolve(synthesize_datum(sys_, 0), cfg)
        r = remainder(traj, ev, sys_, 0)
        assert max(s.max_abs() for s in r.snapshots) < 1e-9

    def test_remainder_only_system_matches_duhamel(self, grid3m):
        # all profiles zero: r = u - e^{t Lap} psi equals the Duhamel term
        psi = condition_datum(localized_divfree_bump(grid3m, sigma=grid3m.L / 8,
                                                     seed=11, amplitude=0.3))
        zero = zero_field(grid3m)
        sys_ = ProfileSystem(profiles=[(zero, _identity_seq(3))],
                             remainder=RemainderRule(base=psi, decay=0.5))
        cfg = SolverConfig(dt=1e-3, T=0.05, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        traj = evolve(synthesize_datum(sys_, 0), cfg)
        r = remainder(traj, ev, sys_, 0)
        t = 0.05
        duh = bilinear_duhamel(traj, traj, t)
        assert lebesgue_norm(r.at(t) + duh, 2) / lebesgue_norm(duh, 2) < 1e-3

    def test_remainder_trend(self, grid3m):
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1, 2])
        vals = []
        for n in (0, 1, 2):
            traj = evolve(synthesize_datum(sys_, n), cfg)
            r = remainder(traj, ev, sys_, n)
            vals.append(e_norm(r, 4, 4, cfg.T))
        assert vals[0] > vals[1] > vals[2]

    def test_remainder_equation_residual(self, grid3m):
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1])
        traj = evolve(synthesize_datum(sys_, 1), cfg)
        r = remainder(traj, ev, sys_, 1)
        res = remainder_equation_residual(r, ev, sys_, 1)
        floor = ns_equation_residual(traj)
        assert res <= 10.0 * floor

    def test_weak_convergence_pairings_decay_with_n(self, grid3m):
        from critns.criticality import make_test_battery, pairing_table

        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1, 2])
        tests = make_test_battery(grid3m, count=8, seed=5)
        maxima = []
        for n in (0, 1, 2):
            traj = evolve(synthesize_datum(sys_, n), cfg)
            r = remainder(traj, ev, sys_, n)
            table = pairing_table(r, tests)
            maxima.append(np.max(np.abs(table)))
        assert maxima[0] > maxima[1] > maxima[2]

    def test_small_scale_globality_shadow(self, grid3m):
        # every contracted profile in a completing shipped system completes
        # on its rescaled horizon
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1, 2])
        traj = evolve(synthesize_datum(sys_, 1), cfg)
        assert traj.status == "Completed"
        for j, lt in enumerate(ev.lifespans):
            assert not np.isfinite(lt), f"profile {j} tripped unexpectedly"


class TestDriftAndSource:
    def test_single_global_profile_drift_is_its_evolution(self, grid3m):
        phi = localized_divfree_bump(grid3m, sigma=grid3m.L / 10, seed=12, amplitude=0.1)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3))], remainder=None)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        t = 0.02
        f = drift_term(ev, sys_, 0, t)
        assert rel_err(f.data, ev.trajectories[0].at(t).data) < 1e-10

    def test_single_profile_source_vanishes(self, grid3m):
        phi = localized_divfree_bump(grid3m, sigma=grid3m.L / 10, seed=13, amplitude=0.1)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3))], remainder=None)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        p1, p2 = source_term(ev, sys_, 0, 0.02)
        scale = ev.trajectories[0].at(0.02).max_abs()
        assert (p1 + p2).max_abs() < 1e-10 * scale

    def test_two_profile_source_is_minus_q(self, grid3m):
        # with zero remainder, G = -Q(U1, U2) by the symmetry of Q
        from critns.solver import q_bilinear
        from critns.profiles import _frame_components

        sys_ = _two_profile_system(grid3m, remainder_amp=0.0)
        sys_ = ProfileSystem(profiles=sys_.profiles, remainder=None)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        t = 0.02
        p1, p2 = source_term(ev, sys_, 0, t)
        parts, _ = _frame_components(ev, sys_, 0, t)
        expected = -1.0 * q_bilinear(parts[0], parts[1])
        assert rel_err((p1 + p2).data, expected.data) < 1e-8

    def test_source_split_matches_per_pair_bony_split(self, grid3m):
        # reference: the split assembled from one scalar paraproduct per
        # component pair; part1 takes the T_{u_i} w_j pieces, part2 the rest of
        # u (x) w + w (x) u (the zeta tensor) plus -Q(w, w)/2 - Q(U_1, U_2)
        from critns.grid import _leray_coefficients, _scatter
        from critns.lp import paraproduct
        from critns.profiles import _frame_components
        from critns.solver import _div_flux_hat, dealias_box, q_bilinear

        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        t = 0.02
        p1, p2 = source_term(ev, sys_, 0, t)
        parts, w = _frame_components(ev, sys_, 0, t)
        u = parts[0] + parts[1]
        para, zeta = {}, {}
        for i in range(3):
            for j in range(3):
                t_ij, t_ji, pi_ij = paraproduct(grid3m, u.data[i], w.data[j])
                para[i, j], zeta[i, j] = t_ij, t_ji + pi_ij
        box = dealias_box(grid3m)

        def minus_p_div_sym(tensor):
            flux = _div_flux_hat(lambda i, j: tensor[i, j] + tensor[j, i], box)
            return -irfftn(_scatter(_leray_coefficients(flux, box), grid3m, box.extent), grid3m)

        assert np.array_equal(p1.data, minus_p_div_sym(para))
        expected2 = (minus_p_div_sym(zeta) - 0.5 * q_bilinear(w, w).data
                     - q_bilinear(parts[0], parts[1]).data)
        assert rel_err(p2.data, expected2) < 1e-12

    def test_drift_norm_stable_across_J(self):
        grid = Grid(3, 32)
        L = grid.L
        corners = [np.array([sx, sy, sz]) * 0.22 * L
                   for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        profiles = []
        for j, corner in enumerate(corners):
            phi = localized_divfree_bump(grid, sigma=L / 14, mode_center=(2, 1, 1),
                                         seed=100 + j, amplitude=0.25 * 0.55**j)
            profiles.append((phi, _const_seq(3, tuple(corner), length=14,
                                             concentrate_from=3)))
        cfg = SolverConfig(dt=4e-3, T=0.06, snapshot_stride=3)
        vals = {}
        for J in (2, 4, 8):
            sys_J = ProfileSystem(profiles=profiles[:J],
                                  remainder=default_remainder(grid, seed=9,
                                                              amplitude=5e-3, decay=0.5))
            ev_J = evolve_system(sys_J, cfg, [0])
            vals[J] = drift_norm(ev_J, sys_J, 0, cfg.T, 4.0, n_samples=5)
        assert max(vals.values()) / min(vals.values()) - 1.0 <= 0.25

    def test_source_norms_decrease_with_separation(self, grid3m):
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1, 2])
        vals = [source_norms(ev, sys_, n, cfg.T, 4.0, n_samples=3)["upper_bound"]
                for n in (0, 1, 2)]
        assert vals[0] > vals[1] > vals[2]


class TestBookkeeping:
    """Whole-cell translations are not re-projected, the remainder's heat flow
    comes from one kept spectrum, G is summed on the dealias box and the
    residual's L^2 norms come from Parseval."""

    def _counted_projection(self, monkeypatch):
        from critns import profiles

        calls = []

        def counted(f):
            calls.append(f.ncomp)
            return leray_project(f)

        monkeypatch.setattr(profiles, "leray_project", counted)
        return calls

    def test_unit_scale_superposition_makes_no_projection(self, grid3m, monkeypatch):
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.016, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1])
        calls = self._counted_projection(monkeypatch)
        for n in (0, 1):
            assert all(sys_.sequence(j)[n].lam == 1.0 for j in range(2))
            superpose_evolution(ev, sys_, n, 0.008)
        assert calls == []

    def test_translated_snapshot_is_rolled_only(self, grid3m, monkeypatch):
        from critns.profiles import _rescaled
        from critns.scaling import apply_lambda

        phi = condition_datum(localized_divfree_bump(grid3m, sigma=grid3m.L / 10,
                                                     seed=15, amplitude=0.2))
        snap = evolve(phi, SolverConfig(dt=4e-3, T=0.008)).snapshots[-1]
        calls = self._counted_projection(monkeypatch)
        sc = ScaleCore(1.0, (0.3, -0.7, 1.1))
        assert np.array_equal(_rescaled(snap, sc).data, apply_lambda(snap, sc).data)
        assert calls == []
        # a contraction clips, so it is still re-projected
        half = ScaleCore(0.5, (0.0, 0.0, 0.0))
        out = _rescaled(snap, half)
        assert calls == [3]
        assert np.array_equal(out.data, leray_project(apply_lambda(snap, half)).data)

    def test_remainder_flow_is_heat_semigroup_bitwise(self, grid3m):
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.008)
        ev = evolve_system(sys_, cfg, [0, 1, 2])
        for n in (0, 1, 2):
            flow = ev.remainder_flow(n)
            for t in (0.0, 0.004, 0.03, 0.2):
                want = heat_semigroup(sys_.remainder_at(n), t)
                assert np.array_equal(ev.remainder_heat(n, t).data, want.data)
            assert ev.remainder_flow(n) is flow
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(DomainError):
                ev.remainder_heat(0, bad)

    @pytest.mark.parametrize("n, t", [(1, 0.0), (1, 3e-3), (2, 3e-3)],
                             ids=["roll-t0", "roll", "dilation"])
    def test_frame_remainder_is_the_lab_heat_flow_rescaled(self, n, t):
        from critns.profiles import _frame_components, _rescaled

        # a compact remainder, so that its image under the inverse of the
        # n = 2 frame (scale 2) fits the box
        grid = Grid(3, 64)
        psi = localized_divfree_bump(grid, sigma=grid.L / 28, seed=5, amplitude=1e-2)
        seq = ScaleCoreSequence([ScaleCore.identity(3),
                                 ScaleCore(1.0, (grid.L / 4, -grid.L / 8, 0.0)),
                                 ScaleCore(0.5, (0.0, 0.0, 0.0))])
        zero = zero_field(grid)
        sys_ = ProfileSystem(profiles=[(zero, seq)], remainder=RemainderRule(base=psi))
        sys_.validate()
        ev = EvolvedSystem(system=sys_, trajectories=[make_heat_trajectory(zero, [0.0, 0.01])],
                           lifespans=[float("inf")], ordering=[0])
        frame = ev.frame(n)
        assert frame.lam == (1.0 if n == 1 else 0.5)
        _, w = _frame_components(ev, sys_, n, t)
        want = _rescaled(heat_semigroup(sys_.remainder_at(n), t * frame.lam**2),
                         frame.inverse())
        assert w.max_abs() > 0
        assert np.array_equal(w.data, want.data)

    def test_box_source_matches_q_sum(self, grid3):
        from critns.fields import random_divfree_field
        from critns.profiles import _source
        from critns.grid import inverse_transform
        from critns.solver import dealias_box, q_bilinear

        parts = [random_divfree_field(grid3, seed=40 + a, k_hi=4.0, amplitude=0.5)
                 for a in range(3)]
        w = random_divfree_field(grid3, seed=43, k_hi=6.0, amplitude=0.05)
        u, g_hat = _source(parts, w)
        g = inverse_transform(g_hat, grid3, dealias_box(grid3).extent)
        want = -1.0 * q_bilinear(u, w) - 0.5 * q_bilinear(w, w)
        for a in range(3):
            for b in range(a + 1, 3):
                want = want - q_bilinear(parts[a], parts[b])
        assert rel_err(g, want.data) < 1e-13

    @staticmethod
    def _physical_residual(traj, forcing=None):
        """The residual of ns_equation_residual, each L^2 norm summed over
        the samples of the physical residual."""
        from critns.norms import _trapezoid_weights
        from critns.grid import inverse_transform
        from critns.solver import dealias_box, nonlinear_term, q_bilinear

        grid, times, snaps = traj.grid, traj.times, traj.snapshots
        box = dealias_box(grid)
        vals = []
        for i in range(1, len(times) - 1):
            u = snaps[i]
            dudt = (snaps[i + 1] - snaps[i - 1]) * (1.0 / (times[i + 1] - times[i - 1]))
            r = dudt + nonlinear_term(u) - laplacian(u)
            if forcing is not None:
                f, g_hat = forcing(times[i])
                g = RealVectorField(grid, inverse_transform(g_hat, grid, box.extent))
                r = r + q_bilinear(u, f) - g
            vals.append(lebesgue_norm(r, 2))
        wts = _trapezoid_weights(times[1:-1])
        return float(np.sqrt(np.sum(wts * np.asarray(vals) ** 2)))

    def test_parseval_residual_matches_physical(self, grid3, monkeypatch):
        from critns.fields import random_divfree_field
        from critns.solver import _box_forward, dealias_box
        from critns.grid import _leray_coefficients

        u0 = random_divfree_field(grid3, seed=44, k_hi=4.0, amplitude=0.5)
        traj = evolve(u0, SolverConfig(dt=5e-3, T=0.03))
        want = self._physical_residual(traj)
        assert rel_err(ns_equation_residual(traj), want) < 1e-12

        box = dealias_box(grid3)
        drift = random_divfree_field(grid3, seed=45, k_hi=3.0, amplitude=0.3)
        g = random_divfree_field(grid3, seed=46, k_hi=5.0, amplitude=0.2)
        g_hat = _leray_coefficients(_box_forward(g.data, box), box)

        def forcing(t):
            return drift * np.cos(t), g_hat * np.sin(1.0 + t)

        want = self._physical_residual(traj, forcing)
        assert rel_err(ns_equation_residual(traj, forcing=forcing), want) < 1e-12

        # the trajectory the gate reads: the rescaled remainder frame, with
        # the assembled drift and source and without them; the residual on
        # the dealias box sees all of it only if it has nothing outside
        from critns import profiles

        sys_ = _two_profile_system(grid3)
        cfg = SolverConfig(dt=4e-3, T=0.016)
        ev = evolve_system(sys_, cfg, [1])
        r = remainder(evolve(synthesize_datum(sys_, 1), cfg), ev, sys_, 1)
        seen = []

        def spy(traj, forcing=None):
            seen.append((traj, forcing))
            return ns_equation_residual(traj, forcing)

        monkeypatch.setattr(profiles, "ns_equation_residual", spy)
        got = remainder_equation_residual(r, ev, sys_, 1)
        [(frame_traj, frame_forcing)] = seen
        assert frame_forcing is not None
        assert rel_err(got, self._physical_residual(frame_traj, frame_forcing)) < 1e-12
        assert rel_err(ns_equation_residual(frame_traj),
                       self._physical_residual(frame_traj)) < 1e-12

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    def test_residual_matches_a_separate_laplacian(self, grid3, forced):
        # the residual writes k^2 uh into its right-hand side once it is
        # subtracted: bitwise a reference that keeps its own Laplacian array
        from critns.fields import random_divfree_field
        from critns.grid import _leray_coefficients, forward_transform
        from critns.norms import _trapezoid_weights
        from critns.solver import (_box_forward, _div_flux_hat, _pair_product,
                                   _self_product, dealias_box)

        box = dealias_box(grid3)
        u0 = random_divfree_field(grid3, seed=47, k_hi=4.0, amplitude=0.5)
        traj = evolve(u0, SolverConfig(dt=5e-3, T=0.03))
        drift = random_divfree_field(grid3, seed=48, k_hi=3.0, amplitude=0.3)
        g = random_divfree_field(grid3, seed=49, k_hi=5.0, amplitude=0.2)
        g_hat = _leray_coefficients(_box_forward(g.data, box), box)

        def forcing(t):
            return drift * np.cos(t), g_hat * np.sin(1.0 + t)

        times = traj.times
        hats = [forward_transform(s.data, grid3, box.extent) for s in traj.snapshots]
        res_l2 = []
        for i in range(1, len(times) - 1):
            u = traj.snapshots[i].data
            rhs = _div_flux_hat(_self_product(u), box, -1.0)
            if forced:
                f, gh = forcing(float(times[i]))
                rhs -= _div_flux_hat(_pair_product(u, f.data), box)
            _leray_coefficients(rhs, box)
            if forced:
                rhs += gh
            lap = box.k_squared * hats[i]
            resid = (hats[i + 1] - hats[i - 1]) / (times[i + 1] - times[i - 1]) - rhs + lap
            power = resid.real * resid.real
            power += resid.imag * resid.imag
            power *= box.multiplicity
            res_l2.append(np.sqrt(grid3.L**grid3.d * float(np.sum(power))))
        wts = _trapezoid_weights(times[1:-1])
        want = float(np.sqrt(np.sum(wts * np.asarray(res_l2)**2)))
        assert ns_equation_residual(traj, forcing if forced else None) == want


class TestNormSplitting:
    def test_single_profile_zero_defect(self, grid3m):
        phi = localized_divfree_bump(grid3m, sigma=grid3m.L / 10, seed=14, amplitude=0.2)
        sys_ = ProfileSystem(profiles=[(phi, _identity_seq(3))], remainder=None)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0])
        assert norm_splitting_check(ev, sys_, 0, 0.02) == 0.0

    def test_disjoint_supports_tiny_defect(self):
        grid = Grid(3, 32)
        L = grid.L
        phi1 = condition_datum(localized_divfree_bump(grid, sigma=L / 10, seed=15,
                                                       amplitude=0.2))
        phi2 = condition_datum(localized_divfree_bump(grid, sigma=L / 10, seed=16,
                                                      amplitude=0.2))
        sys_ = ProfileSystem(
            profiles=[(phi1, _const_seq(3, tuple(-0.24 * L * np.ones(3)))),
                      (phi2, _const_seq(3, tuple(+0.24 * L * np.ones(3))))],
            remainder=None)
        cfg = SolverConfig(dt=4e-3, T=0.02, snapshot_stride=1)
        ev = evolve_system(sys_, cfg, [0])
        assert norm_splitting_check(ev, sys_, 0, 0.01) <= 1e-9

    def test_defect_decreases_along_sweep(self, grid3m):
        sys_ = _two_profile_system(grid3m)
        cfg = SolverConfig(dt=4e-3, T=0.04, snapshot_stride=2)
        ev = evolve_system(sys_, cfg, [0, 1, 2])
        vals = [norm_splitting_check(ev, sys_, n, 0.02) for n in (0, 1, 2)]
        assert vals[0] > vals[1] > vals[2]


class TestExtraction:
    def test_zero_field_no_concentration(self, grid3m):
        assert extract_cores(zero_field(grid3m)) is None

    def test_identity_bump_recovery(self):
        grid = Grid(3, 32)
        f = localized_divfree_bump(grid, sigma=grid.L / 10, mode_center=(2, 1, 0),
                                   seed=17, amplitude=1.0)
        core = extract_cores(f)[0]
        assert 0.5 <= core.lam <= 2.0
        assert np.linalg.norm(core.x0) <= 2.0

    def test_transformed_bump_round_trip(self):
        grid = Grid(3, 32)
        f = localized_divfree_bump(grid, sigma=grid.L / 10, mode_center=(2, 1, 0),
                                   seed=18, amplitude=1.0)
        lam, x0 = 2.0 ** -2, (grid.L / 8, 0.0, 0.0)
        moved = ProfileSystem(
            profiles=[(f, ScaleCoreSequence([ScaleCore(lam, x0)] * 3))], remainder=None)
        g = synthesize_datum(moved, 0)
        core = extract_cores(g, count=1)[0]
        assert 0.5 <= core.lam / lam <= 2.0
        assert np.linalg.norm(np.array(core.x0) - np.array(x0)) <= 2.0 * lam

    def test_two_bumps_amplitude_order(self):
        grid = Grid(3, 32)
        L = grid.L
        big = localized_divfree_bump(grid, sigma=L / 12, mode_center=(2, 1, 0),
                                     center=(-L / 4, 0, 0), seed=19, amplitude=1.0)
        small = localized_divfree_bump(grid, sigma=L / 12, mode_center=(2, 1, 0),
                                       center=(L / 4, 0, 0), seed=20, amplitude=0.5)
        both = big + small
        cores = extract_cores(both, count=2)
        assert len(cores) == 2
        assert cores[0].x0[0] < 0  # larger-amplitude core first
        assert cores[1].x0[0] > 0


def _mesh_offsets(grid, center):
    """Periodic offsets x_a - c_a on full coordinate arrays (np.meshgrid)."""
    c = np.zeros(grid.d) if center is None else np.asarray(center, dtype=float)
    mesh = np.meshgrid(*([grid.axis_coords] * grid.d), indexing="ij")
    return [(x - ci + grid.L / 2.0) % grid.L - grid.L / 2.0 for x, ci in zip(mesh, c)]


def _mesh_r2(grid, center):
    r2 = np.zeros(grid.shape)
    for dx in _mesh_offsets(grid, center):
        r2 = r2 + dx**2
    return r2


def _mesh_gabor(grid, sigma, mode_center, center):
    arg = np.zeros(grid.shape)
    for m, dx in zip(mode_center, _mesh_offsets(grid, center)):
        arg = arg + (2.0 * np.pi * m / grid.L) * dx
    return np.exp(-_mesh_r2(grid, center) / (2.0 * sigma**2)) * np.sin(arg)


def _mesh_divfree_bump(grid, sigma, center, seed, mode_center):
    rng = np.random.default_rng(seed)
    pot = [_mesh_gabor(grid, sigma, rng.permutation(np.asarray(mode_center, dtype=float)),
                       center) for _ in range(1 if grid.d == 2 else 3)]
    f = curl_field(RealVectorField(grid, np.stack(pot)))
    return f * (1.0 / f.max_abs())


def _mesh_cores(f, count):
    """extract_cores with the suppression disk built on full coordinate arrays."""
    grid = f.grid
    levels, vals = band_profile(f, float(grid.d))
    weights = 2.0 ** (levels * critical_exponent(float(grid.d), grid.d)) * vals
    j_star = int(levels[int(np.argmax(weights))])
    lam_hat = 2.0**-j_star
    mag = np.sqrt(np.sum(low_pass(f, j_star + 2).data ** 2, axis=0))
    out = []
    for _ in range(count):
        peak = np.max(mag)
        if peak <= 0:
            break
        candidates = np.argwhere(mag >= peak * (1.0 - 1e-9))
        x_hat = sorted(tuple(grid.axis_coords[i] for i in idx) for idx in candidates)[0]
        out.append(ScaleCore(lam_hat, x_hat))
        mag[_mesh_r2(grid, x_hat) <= (2.0 * lam_hat) ** 2] = 0.0
    return out


class TestBroadcastCoordinates:
    """Bumps and the core-suppression disk are built from per-axis offsets
    broadcast over the grid, bitwise equal to full coordinate arrays."""

    GRIDS = [Grid(2, 32), Grid(3, 16)]

    @staticmethod
    def _centers(grid):
        # the origin, an interior point, and one whose bump crosses the seam
        L = grid.L
        return [None, (0.1 * L, -0.2 * L, 0.05 * L)[: grid.d],
                (0.47 * L, -0.49 * L, 0.45 * L)[: grid.d]]

    @pytest.mark.parametrize("grid", GRIDS, ids=["2d", "3d"])
    def test_bumps_match_meshgrid(self, grid):
        sigma, mode = grid.L / 10, (2.0, 1.0, 3.0)[: grid.d]
        for center in self._centers(grid):
            bump = gaussian_bump(grid, sigma, center=center, ncomp=2, amplitude=1.5)
            ref = 1.5 * np.exp(-_mesh_r2(grid, center) / (2.0 * sigma**2))
            assert np.array_equal(bump.data, np.stack([ref, ref]))
            gabor = gabor_bump(grid, sigma, mode, center=center)
            assert np.array_equal(gabor.data[0], _mesh_gabor(grid, sigma, mode, center))
            div_free = localized_divfree_bump(grid, sigma, center=center, seed=5,
                                              mode_center=mode)
            ref = _mesh_divfree_bump(grid, sigma, center, 5, mode)
            assert np.array_equal(div_free.data, ref.data)

    @pytest.mark.parametrize("grid", GRIDS, ids=["2d", "3d"])
    def test_cores_match_meshgrid(self, grid):
        # the seam-crossing bump's suppression disk wraps around the box
        for center in self._centers(grid)[1:]:
            f = localized_divfree_bump(grid, grid.L / 10, center=center, seed=6)
            assert extract_cores(f, count=3) == _mesh_cores(f, 3)
