"""Dilation/translation operators and scale-core orthogonality functionals."""

import numpy as np
import pytest

from critns import Grid
from critns.errors import DomainError, SupportOverflowError, UndersampledScaleError
from critns.fields import band_noise, gabor_bump, gaussian_bump, localized_divfree_bump
from critns.grid import RealVectorField
from critns.norms import BesovIndex, besov_norm, lebesgue_norm
from critns.scaling import (
    OrthogonalityVerdict,
    ScaleCore,
    ScaleCoreSequence,
    _spectral_resample,
    apply_lambda,
    apply_lambda_spacetime,
    cross_term,
    norm_additivity_defect,
    orthogonality_check,
)
from critns.solver import SolverConfig, evolve, make_heat_trajectory

from conftest import rel_err, single_mode


def alias_free_positive_field(grid, seed, m_max=2, ncomp=1):
    """(c + band-noise)^2 per component: positive, with |f|^3 a trig polynomial,
    so L^3 Riemann sums are exact on every dyadic subgrid down to 6*m_max+1."""
    g = band_noise(grid, 0.5, m_max * grid.k_min + 1e-9, seed, ncomp=ncomp)
    data = (1.1 * np.max(np.abs(g.data)) + g.data) ** 2
    return RealVectorField(grid, data)


class TestApplyLambda:
    def test_identity(self, grid2):
        f = gabor_bump(grid2, sigma=grid2.L / 10, mode_center=(3, 1), ncomp=2)
        out = apply_lambda(f, ScaleCore.identity(2))
        assert np.array_equal(out.data, f.data)

    def test_pure_roll_exact(self, grid2):
        f = gabor_bump(grid2, sigma=grid2.L / 10, mode_center=(3, 1), ncomp=2)
        h = grid2.spacing
        out = apply_lambda(f, ScaleCore(1.0, (3 * h, -2 * h)))
        manual = np.roll(f.data, (3, -2), axis=(1, 2))
        assert np.array_equal(out.data, manual)

    def test_dyadic_contraction_l3_exact(self):
        # alias-free positive components: L^d quadrature is exactly preserved
        grid = Grid(3, 32)
        f = alias_free_positive_field(grid, seed=0, m_max=1, ncomp=3)
        n0 = lebesgue_norm(f, 3)
        for lam in (0.5, 0.25):
            out = apply_lambda(f, ScaleCore(lam, (0.0, 0.0, 0.0)), check_support=False)
            assert abs(lebesgue_norm(out, 3) - n0) / n0 < 1e-10

    def test_dyadic_expansion_preserves_ld(self):
        grid = Grid(2, 128)
        f = gabor_bump(grid, sigma=grid.L / 40, mode_center=(14, 5), ncomp=1)
        out = apply_lambda(f, ScaleCore(2.0, (0.0, 0.0)))
        n0, n1 = lebesgue_norm(f, 2), lebesgue_norm(out, 2)
        assert abs(n1 - n0) / n0 < 1e-10

    def test_generic_scale_preserves_ld(self):
        # an off-grid core, which apply_lambda would snap: the resampler itself
        grid = Grid(2, 128)
        f = gabor_bump(grid, sigma=grid.L / 20, mode_center=(6, 2), ncomp=1)
        out = _spectral_resample(f, ScaleCore(1.3, (0.05 * grid.L, 0.0)))
        n0, n1 = lebesgue_norm(f, 2), lebesgue_norm(out, 2)
        assert abs(n1 - n0) / n0 < 5e-3

    @pytest.mark.parametrize("d", [2, 3])
    def test_off_grid_translation_exact(self, d):
        # a band-limited mode with no Nyquist content is its own trigonometric
        # interpolant, so a half-cell translate is exact on the in-box points
        grid = Grid(d, 16)
        mode, phase = (3, -2, 5)[:d], 0.4
        h = grid.spacing
        x0 = (h / 2, -h / 2, h / 2)[:d]
        out = _spectral_resample(single_mode(grid, mode, phase=phase), ScaleCore(1.0, x0))
        shifted = [x - c for x, c in zip(grid.coordinate_mesh(), x0)]
        exact = np.cos(phase + sum(2 * np.pi * m / grid.L * y for m, y in zip(mode, shifted)))
        inside = np.all([y >= -grid.L / 2 for y in shifted], axis=0)
        assert not inside.all()
        assert np.max(np.abs(out.data[0] - exact)[inside]) < 1e-12
        assert np.all(out.data[0][~inside] == 0.0)

    def test_dyadic_roundtrip_exact(self):
        grid = Grid(2, 128)
        h = grid.spacing
        f = gabor_bump(grid, sigma=grid.L / 40, mode_center=(10, 4), ncomp=1)
        sc = ScaleCore(2.0, (8 * h, -4 * h))  # even-index core: aligned both ways
        back = apply_lambda(apply_lambda(f, sc), sc.inverse())
        assert rel_err(back.data, f.data) < 1e-10

    def test_generic_roundtrip(self):
        grid = Grid(2, 128)
        f = gabor_bump(grid, sigma=grid.L / 30, mode_center=(8, 3), ncomp=1)
        sc = ScaleCore(1.3, (0.04 * grid.L, 0.01 * grid.L))
        back = _spectral_resample(_spectral_resample(f, sc), sc.inverse())
        num = lebesgue_norm(back - f, 2)
        assert num / lebesgue_norm(f, 2) < 5e-3

    @pytest.mark.parametrize("lam", [1.0, 0.5, 1.3])
    @pytest.mark.parametrize("ncore", [1, 4])
    def test_core_length_must_match_grid(self, ncore, lam):
        grid = Grid(3, 16)
        f = gaussian_bump(grid, sigma=grid.L / 10)
        with pytest.raises(DomainError, match=f"{ncore} coordinates, the grid has 3 axes"):
            apply_lambda(f, ScaleCore(lam, (grid.spacing,) * ncore))

    @pytest.mark.parametrize("lam, x0", [
        (np.inf, (0.0, 0.0)), (np.nan, (0.0, 0.0)), (0.0, (0.0, 0.0)),
        (1.0, (np.nan, 0.0)), (1.0, (0.0, -np.inf))])
    def test_non_finite_scale_or_core_rejected(self, lam, x0):
        with pytest.raises(DomainError):
            ScaleCore(lam, x0)

    def test_undersampling_rejected(self, grid2):
        f = gabor_bump(grid2, sigma=grid2.L / 8, mode_center=(2, 1))
        with pytest.raises(UndersampledScaleError):
            apply_lambda(f, ScaleCore(2.0 / grid2.N, (0.0, 0.0)))

    def test_support_overflow_rejected(self):
        grid = Grid(2, 64)
        f = gaussian_bump(grid, sigma=grid.L / 10, ncomp=1)
        with pytest.raises(SupportOverflowError):
            apply_lambda(f, ScaleCore(4.0, (0.0, 0.0)))

    def test_critical_besov_invariance(self):
        grid = Grid(2, 256)
        f = gabor_bump(grid, sigma=grid.L / 16, mode_center=(8, 3), ncomp=1)
        idx = BesovIndex.critical(2, 2)
        b0 = besov_norm(f, idx)
        for lam in (0.5, 0.25):
            out = apply_lambda(f, ScaleCore(lam, (0.0, 0.0)))
            assert abs(besov_norm(out, idx) - b0) / b0 < 0.02


class TestSpacetime:
    def test_identity(self, grid2):
        f = gabor_bump(grid2, sigma=grid2.L / 10, mode_center=(3, 1), ncomp=2)
        traj = make_heat_trajectory(f, [0.0, 0.1, 0.2])
        out = apply_lambda_spacetime(traj, ScaleCore.identity(2))
        assert np.allclose(out.times, traj.times)
        assert rel_err(out.snapshots[-1].data, traj.snapshots[-1].data) == 0.0

    def test_zero(self, grid2):
        z = RealVectorField(grid2, np.zeros((2,) + grid2.shape))
        traj = make_heat_trajectory(z, [0.0, 0.1])
        out = apply_lambda_spacetime(traj, ScaleCore(2.0, (0.0, 0.0)))
        assert out.snapshots[-1].max_abs() == 0.0

    def test_heat_flow_commutes_with_parabolic_rescaling(self):
        # evolve-then-scale equals scale-then-evolve for the heat semigroup;
        # the contraction direction keeps the spreading tails inside the box
        grid = Grid(2, 128)
        f = gabor_bump(grid, sigma=grid.L / 14, mode_center=(4, 2), ncomp=2)
        sc = ScaleCore(0.5, (0.0, 0.0))
        times = np.linspace(0.0, 0.1, 5)
        flowed = make_heat_trajectory(f, times)
        scaled_then = make_heat_trajectory(apply_lambda(f, sc), times * sc.lam**2)
        then_scaled = apply_lambda_spacetime(flowed, sc, check_support=False)
        # drift is the periodization error of the spread Gaussian tail at the
        # box seam (~4e-6 here); far below the 1% resampling tolerance
        for a, b in zip(scaled_then.snapshots, then_scaled.snapshots):
            assert rel_err(a.data, b.data) < 1e-4

    def test_ns_parabolic_covariance(self):
        # full solver: Lambda(NS(u0)) matches NS(Lambda u0) at matched times
        grid = Grid(2, 64)
        u0 = localized_divfree_bump(grid, sigma=grid.L / 14, mode_center=(3, 1),
                                    seed=3, amplitude=0.5)
        sc = ScaleCore(0.5, (0.0, 0.0))
        cfg = SolverConfig(dt=4e-3, T=0.2, snapshot_stride=10)
        cfg2 = SolverConfig(dt=1e-3, T=0.05, snapshot_stride=10)
        a = evolve(apply_lambda(u0, sc), cfg2)
        b = apply_lambda_spacetime(evolve(u0, cfg), sc, check_support=False)
        n0 = lebesgue_norm(b.snapshots[-1], 2)
        assert abs(a.final_time - b.final_time) < 1e-9
        assert lebesgue_norm(a.snapshots[-1] - b.snapshots[-1], 2) / n0 < 0.01
        from critns.norms import e_norm

        p = 3.0
        ea = e_norm(a, p, p, a.final_time)
        eb = e_norm(b, p, p, b.final_time)
        assert abs(ea - eb) / eb < 0.01


class TestCrossTerm:
    def test_identity_cores_direct_quadrature(self, grid2):
        f = gabor_bump(grid2, sigma=grid2.L / 10, mode_center=(3, 1), ncomp=1)
        g = gabor_bump(grid2, sigma=grid2.L / 12, mode_center=(2, 2), ncomp=1)
        ident = ScaleCore.identity(2)
        val = cross_term(f, g, ident, ident, 3.0)
        direct = float(np.sum(np.abs(f.data) ** 2 * np.abs(g.data)) * grid2.cell_volume)
        assert abs(val - direct) < 1e-14

    def test_disjoint_supports_vanish(self):
        grid = Grid(2, 64)
        f = gaussian_bump(grid, sigma=grid.L / 40, center=(-grid.L / 4, 0), ncomp=1)
        g = gaussian_bump(grid, sigma=grid.L / 40, center=(grid.L / 4, 0), ncomp=1)
        ident = ScaleCore.identity(2)
        assert cross_term(f, g, ident, ident, 2.0) < 1e-12

    def test_scale_sweep_monotone_decay(self):
        grid = Grid(2, 128)
        f = gabor_bump(grid, sigma=grid.L / 10, mode_center=(3, 1), ncomp=1)
        g = gabor_bump(grid, sigma=grid.L / 12, mode_center=(2, 2), ncomp=1)
        ident = ScaleCore.identity(2)
        vals = [
            cross_term(f, g, ident, ScaleCore(2.0**-m, (0.0, 0.0)), 2.0)
            for m in range(0, 5)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAdditivityDefect:
    def test_disjoint_supports(self):
        grid = Grid(2, 64)
        f = gaussian_bump(grid, sigma=grid.L / 40, center=(-grid.L / 4, 0), ncomp=1)
        g = gaussian_bump(grid, sigma=grid.L / 40, center=(grid.L / 4, 0), ncomp=1)
        ident = ScaleCore.identity(2)
        assert abs(norm_additivity_defect(f, g, ident, ident, 3.0)) < 1e-10

    def test_identical_transforms_algebra(self, grid2):
        # f = g under the same transform: defect is (2^p - 2) ||f||_p^p exactly
        f = gabor_bump(grid2, sigma=grid2.L / 10, mode_center=(3, 1), ncomp=1)
        ident = ScaleCore.identity(2)
        for p in (2.0, 3.0):
            d = norm_additivity_defect(f, f, ident, ident, p)
            expected = (2.0**p - 2.0) * lebesgue_norm(f, p) ** p
            assert abs(d - expected) / expected < 1e-12

    def test_separation_sweep_decay(self):
        grid = Grid(2, 128)
        f = gaussian_bump(grid, sigma=grid.L / 32, ncomp=1)
        g = gaussian_bump(grid, sigma=grid.L / 32, ncomp=1)
        vals = []
        for sep in (0.0, grid.L / 8, grid.L / 4):
            a = ScaleCore(1.0, (-sep / 2, 0.0))
            b = ScaleCore(1.0, (sep / 2, 0.0))
            vals.append(abs(norm_additivity_defect(f, g, a, b, 3.0)))
        assert vals[0] > vals[1] > vals[2]

    def test_defect_dominated_by_cross_terms(self, grid2):
        # power-expansion defect bounded by pairwise cross terms, fitted constant
        f = gabor_bump(grid2, sigma=grid2.L / 10, mode_center=(3, 1), ncomp=1)
        g = gabor_bump(grid2, sigma=grid2.L / 9, mode_center=(2, 2), ncomp=1)
        a = ScaleCore(1.0, (-grid2.L / 16, 0.0))
        b = ScaleCore(1.0, (grid2.L / 16, 0.0))
        for p in (2.0, 3.0):
            d = abs(norm_additivity_defect(f, g, a, b, p))
            bound = cross_term(f, g, a, b, p) + cross_term(g, f, b, a, p)
            assert d <= 4.0 * bound


class TestOrthogonalityCheck:
    def test_scale_divergence(self):
        sa = ScaleCoreSequence([ScaleCore(1.0, (0.0, 0.0)) for _ in range(8)])
        sb = ScaleCoreSequence([ScaleCore(2.0**-n, (0.0, 0.0)) for n in range(8)])
        assert orthogonality_check(sa, sb, 3) is OrthogonalityVerdict.ORTHOGONAL_BY_SCALES

    def test_identical_sequences(self):
        sa = ScaleCoreSequence([ScaleCore(1.0, (0.1 * n, 0.0)) for n in range(6)])
        assert orthogonality_check(sa, sa, 3) is OrthogonalityVerdict.NOT_ORTHOGONAL

    def test_core_separation(self):
        sa = ScaleCoreSequence([ScaleCore(1.0, (0.0, 0.0)) for n in range(8)])
        sb = ScaleCoreSequence([ScaleCore(1.0, (30.0 * (n + 1), 0.0)) for n in range(8)])
        assert orthogonality_check(sa, sb, 3) is OrthogonalityVerdict.ORTHOGONAL_BY_CORES

    def test_threshold_not_reached(self):
        sa = ScaleCoreSequence([ScaleCore(1.0, (0.0, 0.0)) for n in range(8)])
        sb = ScaleCoreSequence([ScaleCore(1.0, (0.1 * (n + 1), 0.0)) for n in range(8)])
        assert orthogonality_check(sa, sb, 3) is OrthogonalityVerdict.NOT_ORTHOGONAL

    def test_validation(self):
        sa = ScaleCoreSequence([ScaleCore(1.0, (0.0, 0.0))] * 4)
        sb = ScaleCoreSequence([ScaleCore(1.0, (0.0, 0.0))] * 5)
        with pytest.raises(DomainError):
            orthogonality_check(sa, sb, 3)
        with pytest.raises(DomainError):
            orthogonality_check(sa, ScaleCoreSequence(sa.entries), 2)

    def test_monotone_cross_term_along_verdict_passing_sequence(self):
        grid = Grid(2, 128)
        f = gaussian_bump(grid, sigma=grid.L / 24, ncomp=1)
        g = gaussian_bump(grid, sigma=grid.L / 24, ncomp=1)
        sa = ScaleCoreSequence([ScaleCore(1.0, (0.0, 0.0)) for _ in range(14)])
        sb = ScaleCoreSequence([ScaleCore(2.0 ** (-n / 2), (0.0, 0.0)) for n in range(14)])
        assert orthogonality_check(sa, sb, 3) is OrthogonalityVerdict.ORTHOGONAL_BY_SCALES
        vals = [cross_term(f, g, sa[n], sb[n], 2.0) for n in range(0, 6)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
