"""Lebesgue/Besov/space-time norms against closed forms and scalar quadrature."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from critns import Grid
from critns.errors import AccuracyWarning, DomainError
from critns.fields import (
    band_noise,
    gabor_bump,
    gaussian_bump,
    localized_divfree_bump,
    random_divfree_field,
    taylor_green,
)
from critns import norms
from critns.criticality import sup_critical_norm
from critns.grid import (
    RealVectorField,
    forward_transform,
    heat_derivative_symbol,
    zero_field,
    _scatter,
)
from critns import lp
from critns.lp import band_range, chi, dyadic_multipliers
from critns.norms import (
    INF,
    BesovIndex,
    _multiplier_norms,
    band_lp_matrix,
    band_profile,
    besov_from_profile,
    besov_norm,
    besov_norm_detailed,
    chemin_lerner_norm,
    critical_exponent,
    default_tau_grid,
    e_norm,
    edge_share,
    heat_besov_norm,
    heat_besov_norm_detailed,
    lebesgue_norm,
    norm_report,
    power_sums,
    serrin_norm,
    stride_halving_error,
)
from critns.solver import Trajectory, dealias_box, make_heat_trajectory, sample_trajectory

from conftest import (dealias_mask, full_product_blocks, irfftn, on_half_spectrum,
                      radial_multiplier, random_smooth_field, retained_box, single_mode,
                      support_extent, thin, traced)


def heat_symbol(grid, tau):
    """Reference: -tau|k|^2 exp(-tau|k|^2) evaluated on the whole half spectrum."""
    return -tau * grid.k_squared * np.exp(-tau * grid.k_squared)


class TestLebesgue:
    def test_zero(self, grid2):
        assert lebesgue_norm(zero_field(grid2, 2), 3) == 0.0

    def test_domain_error(self, grid2):
        for p in (0.5, np.nan):
            with pytest.raises(DomainError):
                lebesgue_norm(zero_field(grid2, 2), p)

    def test_gaussian_refinement_oracle(self):
        # quadrature against the same integral on a doubled grid
        vals = {}
        for n in (64, 128):
            grid = Grid(2, n)
            f = gaussian_bump(grid, sigma=grid.L / 16, ncomp=1)
            vals[n] = lebesgue_norm(f, 3)
        assert abs(vals[64] - vals[128]) / vals[128] < 1e-3

    def test_gaussian_closed_form(self):
        # integral of exp(-p r^2 / (2 sigma^2)) = (2 pi sigma^2 / p)^{d/2}
        grid = Grid(2, 64)
        sigma, p = grid.L / 20, 3.0
        f = gaussian_bump(grid, sigma=sigma, ncomp=1)
        exact = (2 * np.pi * sigma**2 / p) ** (grid.d / 2)
        assert abs(lebesgue_norm(f, p) ** p - exact) / exact < 1e-3

    @pytest.mark.parametrize("p", [2, 3, 4, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_integer_powers_match_pow(self, grid, p):
        f = random_smooth_field(grid, seed=5, ncomp=grid.d)
        assert np.min(f.data) < 0 < np.max(f.data)
        sums = power_sums(f.data, p)
        for c in range(grid.d):
            ref = np.sum(np.abs(f.data[c]) ** p)
            assert abs(sums[c] - ref) <= 1e-14 * ref
        ref = np.sum(np.sum(np.abs(f.data) ** p, axis=tuple(range(1, grid.d + 1)))
                     * grid.cell_volume) ** (1.0 / p)
        assert abs(lebesgue_norm(f, p) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("amplitude, p", [(10.0, 400), (1e160, 2), (1e110, 3),
                                              (1e80, 4), (1e100, 3.5)])
    def test_overflowing_powers_summed_relative_to_max(self, amplitude, p):
        # |x|^p overflows while the norm is representable (about 10.005 for
        # amplitude 10 at p = 400): summed relative to the sample max, with
        # no RuntimeWarning
        grid = Grid(2, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = lebesgue_norm(taylor_green(grid, amplitude=amplitude), p)
            blocks = band_profile(taylor_green(grid, amplitude=amplitude), p)[1]
        unit = taylor_green(grid)
        assert value == pytest.approx(amplitude * lebesgue_norm(unit, p), rel=1e-13)
        ref = band_profile(unit, p)[1]  # empty bands hold roundoff
        assert np.all(np.isfinite(blocks))
        assert np.allclose(blocks / amplitude, ref, rtol=1e-13, atol=1e-13 * ref.max())
        if p == 400:
            assert 10.0 < value < 10.01

    @pytest.mark.parametrize("p", [2, 3, 4, 5.5])
    def test_finite_sums_keep_the_plain_formula(self, grid2, p):
        # the rescaled sum runs only when the plain one overflows, so every
        # finite result is the plain formula's, bit for bit
        f = random_smooth_field(grid2, seed=4, ncomp=2)
        sums = power_sums(f.data, p)
        comp = (sums * grid2.cell_volume) ** (1.0 / p)
        assert lebesgue_norm(f, p) == float(np.sum(comp**p) ** (1.0 / p))

    @pytest.mark.parametrize("p, components", [(2, 1.1), (4, 1.1), (3.5, 1.1), (INF, 1.1),
                                               (3, 2.1)])
    def test_one_component_in_memory(self, p, components):
        # the samples are copied and reduced one component at a time, beside
        # one component of scratch at p = 3
        f = random_smooth_field(Grid(3, 32), seed=2, ncomp=3)
        _, _, peak = traced(lambda: lebesgue_norm(f, p))
        assert peak <= components * f.data[0].nbytes

    def test_sup_norm(self, grid2):
        f = random_smooth_field(grid2, seed=0, ncomp=2)
        assert lebesgue_norm(f, INF) == f.max_abs()

    def test_scaling_invariance_at_p_equals_d(self):
        from critns.scaling import ScaleCore, apply_lambda

        grid = Grid(2, 128)
        f = gabor_bump(grid, sigma=grid.L / 16, mode_center=(6, 2), ncomp=1)
        fl = apply_lambda(f, ScaleCore(0.5, (0.0, 0.0)))  # 2 f(2x)
        n0, n1 = lebesgue_norm(f, 2), lebesgue_norm(fl, 2)
        assert abs(n1 - n0) / n0 < 5e-3


class TestBesov:
    def test_critical_exponent(self):
        assert critical_exponent(3, 3) == 0.0
        assert critical_exponent(4, 3) == -0.25
        assert critical_exponent(2, 2) == 0.0

    def test_index_validation(self):
        for p, q in [(0.5, 2.0), (np.nan, 2.0), (2.0, np.nan)]:
            with pytest.raises(DomainError):
                BesovIndex(0.0, p, q)
        # a non-finite smoothness made besov_norm NaN: 2^(0 * inf) at j = 0
        for s in (np.nan, INF, -INF):
            with pytest.raises(DomainError, match="smoothness"):
                BesovIndex(s, 2.0, 2.0)
        BesovIndex(0.0, INF, INF)  # infinity stays valid

    def test_single_band_mode(self, grid2):
        # one nonzero epsilon_j: value is 2^{js} times the mode's L^p norm,
        # pinned by an independent 1d quadrature of |cos|^p
        j = 1
        f = single_mode(grid2, (2 ** (j + 1), 0))
        s, p = 0.7, 3.0
        value, levels, eps, _ = besov_norm_detailed(f, BesovIndex(s, p, 5.0))
        nz = np.nonzero(eps > 1e-12 * eps.max())[0]
        assert levels[nz[0]] == j and nz.size == 1
        # independent oracle: exact discrete mean of |cos|^p on the same lattice
        xs = 2 * np.pi * 2 ** (j + 1) * np.arange(grid2.N) / grid2.N
        mean_cos_p = np.mean(np.abs(np.cos(xs)) ** p)
        exact = 2.0 ** (j * s) * (grid2.L**grid2.d * mean_cos_p) ** (1.0 / p)
        assert abs(value - exact) / exact < 1e-10
        # and the continuum quadrature agrees at grid accuracy
        cont = scipy.integrate.quad(lambda x: np.abs(np.cos(x)) ** p, 0, 2 * np.pi)[0] / (2 * np.pi)
        assert abs(mean_cos_p - cont) / cont < 0.01

    def test_dyadic_scaling_invariance(self):
        from critns.scaling import ScaleCore, apply_lambda

        grid = Grid(2, 256)
        f = gabor_bump(grid, sigma=grid.L / 16, mode_center=(8, 3), ncomp=1)
        idx = BesovIndex.critical(2, 2)
        b0 = besov_norm(f, idx)
        for lam in (2.0, 4.0):
            fl = apply_lambda(f, ScaleCore(1.0 / lam, (0.0, 0.0)))
            assert abs(besov_norm(fl, idx) - b0) / b0 < 0.02

    def test_edge_concentration_warning(self, grid2):
        # heat-flow decay leaves only the lowest band (criterion 7); an
        # under-resolved field peaks in the top bands
        low = single_mode(grid2, (1, 0))
        high = band_noise(grid2, 0.85 * grid2.k_max_axis, grid2.k_max, seed=1, ncomp=1)
        for f, edge, share in ((low, "low", r"level -1 holds 100\.0%"),
                               (high, "high", r"level [34] holds \d+\.\d%")):
            with pytest.warns(AccuracyWarning, match=f"at the {edge} band-range edge "
                              f"\\({share} of the l\\^q sum\\)") as direct:
                besov_norm(f, BesovIndex(0.0, 2.0, 2.0))
            # the band-table path of the sup norm gives the same text per snapshot
            traj = sample_trajectory(grid2, [0.0, 0.1], lambda t: f)
            with pytest.warns(AccuracyWarning) as table:
                sup_critical_norm(traj, "besov", p=2.0)
            assert [str(w.message) for w in table] == 2 * [str(w.message) for w in direct]


class TestBlockEngine:
    @pytest.mark.parametrize("p", [1.5, 2, 3, 4, 5, INF])
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_matches_lebesgue_norm_of_each_block(self, grid, p):
        # reused work arrays, in-place powers and inverse transforms pruned to
        # each multiplier's support change no bit of the norm; at tau = 20 the
        # heat symbol underflows to 0 beyond |k| ~ 6, so its inverse is pruned
        f = random_smooth_field(grid, seed=6, ncomp=grid.d)
        coeff = forward_transform(f.data, grid)
        lo, hi = band_range(grid)
        heat = [heat_derivative_symbol(grid, tau) for tau in (0.05, 20.0)]
        mults = list(dyadic_multipliers(grid, lo, hi)) + heat
        assert support_extent(grid, on_half_spectrum(grid, mults[-1])) < grid.N // 2
        ref = [lebesgue_norm(RealVectorField(grid, irfftn(coeff * on_half_spectrum(grid, m),
                                                          grid)), p)
               for m in mults]
        assert list(_multiplier_norms(coeff, mults, grid, p)) == ref


    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_pruned_norms_bitwise_equal_to_full_transform(self, grid, monkeypatch):
        # Besov, heat-Besov and e-norms read block norms whose products and
        # inverse transforms are pruned to each multiplier's support; the
        # reference engine forms the whole product and runs irfftn
        u0 = random_divfree_field(grid, seed=7, k_hi=grid.N / 4.0)
        idx = BesovIndex.critical(3.0, grid.d)

        def values():
            traj = make_heat_trajectory(u0, np.linspace(0.0, 0.2, 5))
            return besov_norm(u0, idx), heat_besov_norm(u0, idx), e_norm(traj, 4, 4, 0.2)

        pruned = values()
        full_product_blocks(monkeypatch, norms)
        assert values() == pruned

    @pytest.mark.parametrize("p", [2, 2.5, 3, 4, INF])
    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_support_box_products_in_any_extent_order(self, grid, ncomp, p):
        # full -> pruned -> smaller -> larger -> full: each block re-zeroes
        # only what the previous one wrote, and its product is formed on its
        # own support box; every norm is lebesgue_norm's of the full product
        rng = np.random.default_rng(11)
        coeff = forward_transform(rng.standard_normal((ncomp,) + grid.shape), grid)
        half = grid.N // 2
        extents = [half, half // 2 + 1, 1, 0, half // 2, half]
        mults = [radial_multiplier(grid, M, rng)[0] for M in extents]
        ref = [lebesgue_norm(RealVectorField(grid, irfftn(coeff * on_half_spectrum(grid, m),
                                                          grid)), p)
               for m in mults]
        assert list(_multiplier_norms(coeff, mults, grid, p)) == ref

    @pytest.mark.parametrize("p", [2, 3, INF])
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_products_read_only_the_support_box(self, grid, p):
        # every coefficient outside the largest pruned box is NaN: a product
        # or transform that read it would turn the norm into NaN
        rng = np.random.default_rng(12)
        coeff = forward_transform(rng.standard_normal((grid.d,) + grid.shape), grid)
        extents = [grid.N // 4 + 1, 1, 0, grid.N // 4]
        pairs = [radial_multiplier(grid, M, rng) for M in extents]
        mults = [values for values, _ in pairs]
        ref = [lebesgue_norm(RealVectorField(grid, irfftn(coeff * on_half_spectrum(grid, m),
                                                          grid)), p)
               for m in mults]
        poisoned = np.where(pairs[0][1], coeff, np.nan)
        assert np.isnan(irfftn(poisoned * on_half_spectrum(grid, mults[0]), grid)).all()
        assert list(_multiplier_norms(poisoned, mults, grid, p)) == ref


def _count_transforms(monkeypatch) -> dict:
    """Counts of the forward transforms and of the band-engine blocks (one
    inverse transform each) that norms makes from here on."""
    counts = {"forward": 0, "inverse": 0}
    forward, blocks = norms.forward_transform, norms.multiplier_blocks

    def counting_forward(*args):
        counts["forward"] += 1
        return forward(*args)

    def counting_blocks(*args):
        for block in blocks(*args):
            counts["inverse"] += 1
            yield block

    monkeypatch.setattr(norms, "forward_transform", counting_forward)
    monkeypatch.setattr(norms, "multiplier_blocks", counting_blocks)
    return counts


class TestBandTable:
    @staticmethod
    def _traj(grid, n):
        f = random_divfree_field(grid, seed=12, k_lo=1.0, k_hi=6.0)
        return make_heat_trajectory(f, np.linspace(0.0, 0.2, n))

    def test_trajectory_is_read_only(self, grid2):
        traj = self._traj(grid2, 3)
        with pytest.raises(ValueError):
            traj.snapshots[0].data[0, 0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.snapshots = ()

    def test_window_matches_recomputation(self, grid2):
        traj = self._traj(grid2, 9)
        band_lp_matrix(traj, 3.0)  # the full table exists before the window is cut
        times, levels, eps = band_lp_matrix(traj, 3.0, (0.04, 0.16))
        keep = traj.window_indices((0.04, 0.16))
        w_times, w_snaps = traj.times[keep], [traj.snapshots[i] for i in keep]
        assert len(w_snaps) == 5 and np.array_equal(times, w_times)
        ref = [band_profile(s, 3.0) for s in w_snaps]
        assert np.array_equal(levels, ref[0][0])
        assert np.array_equal(eps, np.array([vals for _, vals in ref]).T)

    def test_one_table_per_trajectory_and_p(self, grid3, monkeypatch):
        # e_norm, chemin_lerner_norm and the sup Besov norm at one p share one
        # band table: one forward transform per snapshot, one engine block
        # (one inverse) per band
        traj = self._traj(grid3, 9)
        counts = _count_transforms(monkeypatch)
        p = 3.0
        idx = BesovIndex.critical(p, 3)
        e_norm(traj, p, p, 0.2)
        chemin_lerner_norm(traj, 2.0, idx)
        sup_critical_norm(traj, "besov", p=p)
        lo, hi = band_range(grid3)
        assert counts == {"forward": 9, "inverse": 9 * (hi - lo + 1)}


class TestCheminLerner:
    def test_zero_trajectory(self, grid2):
        traj = sample_trajectory(grid2, [0.0, 0.5, 1.0], lambda t: zero_field(grid2, 2))
        assert chemin_lerner_norm(traj, 2.0, BesovIndex(0.0, 2.0, 2.0)) == 0.0

    def test_needs_two_snapshots(self, grid2):
        traj = Trajectory(grid2, np.array([0.0]), [zero_field(grid2, 2)])
        with pytest.raises(DomainError):
            chemin_lerner_norm(traj, 2.0, BesovIndex(0.0, 2.0, 2.0))

    def test_time_constant_factorizes(self, grid2):
        f = random_smooth_field(grid2, seed=2, ncomp=2)
        T, rho = 0.8, 3.0
        idx = BesovIndex(0.3, 3.0, 3.0)
        traj = sample_trajectory(grid2, np.linspace(0, T, 9), lambda t: f)
        expected = T ** (1.0 / rho) * besov_norm(f, idx)
        assert abs(chemin_lerner_norm(traj, rho, idx) - expected) / expected < 1e-12

    def test_heat_single_mode_scalar_quadrature(self, grid2):
        # per-band temporal integral of exp(-rho k^2 t) pinned by scipy.quad
        j, rho, T = 1, 3.0, 0.5
        f = single_mode(grid2, (2 ** (j + 1), 0))
        k2 = (2 ** (j + 1) * 2 * np.pi / grid2.L) ** 2
        idx = BesovIndex(0.4, 3.0, 3.0)
        traj = make_heat_trajectory(f, np.linspace(0, T, 201))
        computed = chemin_lerner_norm(traj, rho, idx)
        factor = scipy.integrate.quad(lambda t: np.exp(-rho * k2 * t), 0, T)[0] ** (1.0 / rho)
        expected = besov_norm(f, idx) * factor
        assert abs(computed - expected) / expected < 0.01

    def test_stride_halving_gate(self, grid2):
        f = band_noise(grid2, 1.0, 3.0, seed=3, ncomp=2)
        traj = make_heat_trajectory(f, np.linspace(0, 0.25, 81))
        assert stride_halving_error(traj, 2.0, BesovIndex(0.0, 2.0, 2.0)) < 0.01

    @pytest.mark.parametrize("interval", [None, (0.03, 0.16)])
    def test_stride_halving_reads_the_band_table(self, grid3, monkeypatch, interval):
        # the thinned norm is that of thin(traj, 2), bit for bit, taken from
        # columns of the band table the full norm built: no further transform
        f = random_divfree_field(grid3, seed=12, k_lo=1.0, k_hi=6.0)
        traj = make_heat_trajectory(f, np.linspace(0.0, 0.2, 9))
        rho, idx = 8.0 / 5.0, BesovIndex(critical_exponent(4.0, 3) + 1.25, 4.0, 4.0)
        full = chemin_lerner_norm(traj, rho, idx, interval)
        half = chemin_lerner_norm(thin(traj, 2), rho, idx, interval)
        counts = _count_transforms(monkeypatch)
        assert stride_halving_error(traj, rho, idx, interval) == abs(full - half) / full
        assert counts == {"forward": 0, "inverse": 0}

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_minkowski_embedding(self, seed):
        # for rho >= q the plain time-Lebesgue Besov norm is dominated by the
        # Chemin-Lerner ordering
        grid = Grid(2, 32)
        rng = np.random.default_rng(seed)
        times = np.linspace(0, 1.0, 6)
        fields = [random_smooth_field(grid, seed=int(rng.integers(1e6)), ncomp=2) for _ in times]
        traj = Trajectory(grid, times, fields)
        idx = BesovIndex(0.2, 3.0, 2.0)
        rho = 4.0  # rho >= q = 2
        times, levels, eps = band_lp_matrix(traj, idx.p)
        per_time = [besov_from_profile(levels, col, idx)[0] for col in eps.T]
        plain = norms._time_lp(np.array(per_time), times, rho)
        cl = chemin_lerner_norm(traj, rho, idx)
        assert plain <= cl * (1 + 1e-9)


class TestENorm:
    def test_zero(self, grid2):
        traj = sample_trajectory(grid2, [0.0, 0.1, 0.2], lambda t: zero_field(grid2, 2))
        assert e_norm(traj, 4.0, 4.0, 0.2) == 0.0

    def test_time_constant_factorizes(self, grid3):
        f = random_divfree_field(grid3, seed=4, k_hi=4.0)
        p = q = 4.0
        T = 0.6
        sp = critical_exponent(p, 3)
        traj = sample_trajectory(grid3, np.linspace(0, T, 7), lambda t: f)
        low = besov_norm(f, BesovIndex(sp, p, q))
        high = T ** ((p + 1) / (2 * p)) * besov_norm(f, BesovIndex(sp + 1 + 1 / p, p, q))
        expected = max(low, high)
        assert abs(e_norm(traj, p, q, T) - expected) / expected < 1e-10

    def test_heat_flow_bounded_by_datum(self, grid3):
        # empirical linear-heat-estimate constant: recorded sweep stays under 1.5
        p = 4.0
        idx = BesovIndex.critical(p, 3)
        for seed in range(3):
            f = random_divfree_field(grid3, seed=seed, k_lo=1.0, k_hi=4.0, amplitude=0.1)
            traj = make_heat_trajectory(f, np.linspace(0, 1.0, 33))
            assert e_norm(traj, p, p, 1.0) <= 1.5 * besov_norm(f, idx)


class TestHeatBesov:
    def test_zero(self, grid2):
        assert heat_besov_norm(zero_field(grid2, 2), BesovIndex(0.0, 3.0, 3.0)) == 0.0

    def test_single_mode_scalar_quadrature(self, grid2):
        # smoothing-time integral of (tau^{-s/2} tau k^2 exp(-tau k^2))^q dtau/tau
        f = single_mode(grid2, (4, 0))
        k2 = (4 * 2 * np.pi / grid2.L) ** 2
        s, p, q = 0.4, 3.0, 3.0
        computed = heat_besov_norm(f, BesovIndex(s, p, q))
        mode_lp = lebesgue_norm(f, p)

        def integrand(tau):
            return (tau ** (-s / 2) * tau * k2 * np.exp(-tau * k2)) ** q / tau

        val = scipy.integrate.quad(integrand, 1e-12, 50.0, limit=400)[0] ** (1.0 / q)
        expected = mode_lp * val
        assert abs(computed - expected) / expected < 0.01

    def test_ratio_window_band_limited(self, grid3m):
        idx = BesovIndex.critical(3, 3)
        for seed in range(3):
            f = band_noise(grid3m, 3.0, 6.0, seed, ncomp=3)
            ratio = heat_besov_norm(f, idx) / besov_norm(f, idx)
            assert 0.1 <= ratio <= 10.0


class TestTauQuadrature:
    @pytest.mark.parametrize("N, count, fine_count", [(32, 51, 101), (64, 57, 111)])
    def test_default_grid_odd_count_same_ends(self, N, count, fine_count):
        grid = Grid(3, N)
        taus, fine = default_tau_grid(grid), default_tau_grid(grid, 16)
        assert (taus.size, fine.size) == (count, fine_count)
        assert taus[0] == fine[0] == 0.02 / grid.k_max**2
        assert taus[-1] == fine[-1] == 50.0 / grid.k_min**2

    # criterion 5's inputs and the analyze64 datum at 32^3
    CASES = ([(f"band-noise-{seed}", 3) for seed in range(90, 100)]
             + [("bump", 3), ("bump", 4)])

    @pytest.mark.parametrize("name, p", CASES, ids=[f"{n}-p{p}" for n, p in CASES])
    def test_eight_per_decade_matches_sixteen(self, name, p):
        # the trapezoid in log tau at 8 points per decade against 16; the
        # every-other-tau estimate (the error of 4 per decade) bounds the change
        grid = Grid(3, 32)
        if name == "bump":
            f = localized_divfree_bump(grid, sigma=grid.L / 10, mode_center=(2, 1, 1),
                                       seed=42, amplitude=1.0)
        else:
            f = band_noise(grid, 3.0, 6.0, int(name.rsplit("-", 1)[1]), ncomp=3)
        idx = BesovIndex.critical(p, 3)
        value, estimate = heat_besov_norm_detailed(f, idx)
        fine = heat_besov_norm(f, idx, default_tau_grid(grid, 16))
        change = abs(value - fine) / fine
        assert change <= 2e-8
        assert estimate >= change


class TestHeatSymbolTable:
    @pytest.mark.parametrize("N", [24, 32, 64])
    @pytest.mark.parametrize("d", [2, 3])
    def test_gathered_symbol_bitwise(self, d, N):
        # every radial symbol is evaluated once per distinct |k|^2 and gathered:
        # the symbol and its extent are those of the full-spectrum evaluation
        # and the full-spectrum support scan, for the heat symbols (including
        # the large tau where every mode but the lowest underflows to 0), the
        # low-pass symbols and bands of every level and the dealias masks
        grid = Grid(d, N)
        heat_extents = []
        table = grid.radial_table
        for tau in np.geomspace(1e-5, 80.0, 37):
            values = heat_derivative_symbol(grid, tau)
            ref = heat_symbol(grid, tau)
            assert on_half_spectrum(grid, values).tobytes() == ref.tobytes()
            assert table.extent_of(values) == support_extent(grid, ref)
            heat_extents.append(table.extent_of(values))
        assert heat_extents[0] == N // 2 and heat_extents[-1] <= 3
        lo, hi = band_range(grid)
        for j in range(lo - 1, hi + 3):
            values = lp._low_pass(grid, j)
            ref = chi(np.sqrt(grid.k_squared) / 2.0**j)
            assert on_half_spectrum(grid, values).tobytes() == ref.tobytes(), j
            assert table.extent_of(values) == support_extent(grid, ref), j
            _, band = dyadic_multipliers(grid, j, j)
            assert table.extent_of(band) == support_extent(grid, on_half_spectrum(grid, band)), j
        for fraction in (0.5, 2.0 / 3.0, 1.0):
            box = dealias_box(grid) if fraction == 2.0 / 3.0 else retained_box(grid, fraction)
            ref = dealias_mask(grid, fraction)
            assert _scatter(box.mask, grid, box.extent).tobytes() == ref.tobytes(), fraction
            assert box.extent == support_extent(grid, ref), fraction

    def test_band_norms_leave_nothing_behind(self, grid3m):
        # no symbol outlives the norm that asked for it: past the grid's own
        # radial table, a band profile and a heat norm keep only the slices
        # of the box slabs and stage lines, about 14 KiB; one half-spectrum
        # symbol at 32^3 is 136 KiB
        f = random_smooth_field(grid3m, seed=3, ncomp=3)
        idx = BesovIndex.critical(3.0, 3)
        grid3m.radial_table  # built once, kept by the grid
        _, held, _ = traced(lambda: (band_profile(f, 3), heat_besov_norm(f, idx)))
        assert held < 64 * 1024

    def test_table_is_read_only_and_cached(self, grid3):
        table = grid3.radial_table
        assert grid3.radial_table is table
        assert np.array_equal(table.k_squared[table.inverse], grid3.k_squared)
        for arr in table:
            assert not arr.flags.writeable


class TestSerrin:
    def test_zero(self, grid2):
        traj = sample_trajectory(grid2, [0.0, 0.1], lambda t: zero_field(grid2, 2))
        assert serrin_norm(traj, 4.0, 4.0) == 0.0

    def test_endpoint_is_sup_l3(self, grid3):
        f = random_divfree_field(grid3, seed=6, k_hi=4.0)
        traj = make_heat_trajectory(f, np.linspace(0, 0.3, 7))
        val = serrin_norm(traj, INF, 3.0)
        sup = max(lebesgue_norm(s, 3) for s in traj.snapshots)
        assert abs(val - sup) < 1e-12

    def test_noncritical_pair_warns(self, grid3):
        f = random_divfree_field(grid3, seed=7, k_hi=4.0)
        traj = make_heat_trajectory(f, np.linspace(0, 0.3, 5))
        with pytest.warns(AccuracyWarning):
            serrin_norm(traj, 4.0, 4.0)

    def test_gaussian_heat_quadrature(self):
        # Serrin norm of a heat-flowing Gaussian against the closed-form
        # L^q decay integrated in time by scipy.quad
        grid = Grid(2, 64)
        sigma = grid.L / 16
        f = gaussian_bump(grid, sigma=sigma, ncomp=1)
        p_t, q_x = 4.0, 4.0  # critical in d=2: 2/4 + 2/4 = 1
        T = 0.4
        traj = make_heat_trajectory(f, np.linspace(0, T, 81))
        computed = serrin_norm(traj, p_t, q_x)

        def lq_of_t(t):
            width2 = sigma**2 + 2 * t
            amp = (sigma**2 / width2) ** (grid.d / 2)
            return amp * (2 * np.pi * width2 / q_x) ** (grid.d / (2 * q_x))

        val = scipy.integrate.quad(lambda t: lq_of_t(t) ** p_t, 0, T)[0] ** (1.0 / p_t)
        assert abs(computed - val) / val < 0.01


class TestUtilities:
    def test_edge_share(self):
        levels = np.arange(-1, 4)
        low = np.array([2.0, 1.0, 0.5, 0.25, 0.0])
        assert edge_share(low, 2.0) == 1.0 / (1.0 + 0.25 + 0.0625 + 0.015625)
        assert edge_share(low, INF) == 1.0
        assert edge_share(low[::-1], 2.0) == edge_share(low, 2.0)
        assert edge_share(np.array([0.5, 2.0, 1.0, 0.5, 0.25]), 2.0) == 0.0
        assert edge_share(np.zeros(5), 2.0) == 0.0
        # powers of tiny bands underflow; the share does not
        assert edge_share(low * 1e-120, 3.0) == pytest.approx(edge_share(low, 3.0), rel=1e-14)
        assert norms._edge_warning(levels, low, 2.0)[0].startswith(
            "spectral content concentrated at the low band-range edge (level -1 holds 75.3%")

    def test_norm_report_error_estimate(self):
        rep = norm_report("heat_besov", {}, 1.0, [], {"tau": np.float64(2e-7)})
        assert rep["error_estimate"] == {"tau": 2e-7}
        assert "error_estimate" not in norm_report("besov", {}, 1.0)

    def test_norm_report_shape(self):
        rep = norm_report("besov", {"s": 0.0, "p": 3.0, "q": 3.0}, 1.25, ["warn"])
        assert set(rep) == {"norm_name", "parameters", "value", "warnings"}

    def test_grid_refinement_stability(self):
        # norms move by <= 1% when N doubles, for a field resolvable at coarse N
        coarse, fine = Grid(2, 32), Grid(2, 64)
        f_c = band_noise(coarse, 1.0, 6.0, seed=8, ncomp=2)
        from critns.grid import forward_transform, inverse_transform

        c = forward_transform(f_c.data, coarse)
        cf = np.zeros((2,) + fine.spectral_shape, dtype=complex)
        n = coarse.N
        half = n // 2
        sl = np.r_[0:half, fine.N - half : fine.N]
        cf[np.ix_(range(2), sl, range(half))] = c[..., :half]
        f_f = RealVectorField(fine, inverse_transform(cf, fine))
        idx = BesovIndex(0.3, 3.0, 3.0)
        for norm in (lambda g: lebesgue_norm(g, 3), lambda g: besov_norm(g, idx)):
            a, b = norm(f_c), norm(f_f)
            assert abs(a - b) / b < 0.01
