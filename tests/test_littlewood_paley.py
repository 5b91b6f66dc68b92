"""Dyadic localization: cutoff profile, bands, reconstruction, paraproduct."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critns import Grid
from critns.errors import EmptyBandWarning, GridMismatchError
from critns.fields import band_noise
from critns.grid import RealVectorField, forward_transform
from critns import grid as grid_mod, lp
from critns.lp import (
    _low_pass,
    band_project,
    band_range,
    chi,
    decompose,
    dyadic_multipliers,
    low_high,
    low_pass,
    paraproduct,
)
from critns.norms import band_profile, lebesgue_norm

from conftest import (full_product_blocks, gradient, on_half_spectrum, random_smooth_field,
                      rel_err, single_mode, traced)


class TestCutoff:
    def test_plateau_values(self):
        r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        assert np.allclose(chi(r), [1, 1, 1, 0, 0])

    def test_bridge_monotone_and_bounded(self):
        r = np.linspace(0.0, 3.0, 601)
        v = chi(r)
        assert np.all(v >= 0) and np.all(v <= 1)
        assert np.all(np.diff(v) <= 1e-12)

    def test_partition_telescopes(self):
        # sum over j of [chi(r/2^{j+1}) - chi(r/2^j)] telescopes to 1 inside range
        r = np.linspace(1.0, 100.0, 500)
        total = np.zeros_like(r)
        for j in range(-3, 12):
            total += chi(r / 2.0 ** (j + 1)) - chi(r / 2.0**j)
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestBands:
    def test_zero_field(self, grid2):
        z = RealVectorField(grid2, np.zeros((2,) + grid2.shape))
        assert band_project(z, 1).max_abs() == 0.0

    def test_single_mode_passthrough(self, grid2):
        # |k| = 2^{j+1} lies on the flat part of band j and is zeroed two bands away
        j = 1
        f = single_mode(grid2, (2 ** (j + 1), 0))
        assert rel_err(band_project(f, j).data, f.data) < 1e-12
        assert band_project(f, j + 2).max_abs() < 1e-12
        assert band_project(f, j - 2).max_abs() < 1e-12

    def test_band_support_annulus(self, grid2):
        f = random_smooth_field(grid2, seed=0, ncomp=1)
        j = 2
        band = band_project(f, j)
        coeff = forward_transform(band.data, grid2)
        kmag = np.sqrt(grid2.k_squared)
        outside = (kmag < 2.0**j) | (kmag > 2.0 ** (j + 2))
        assert np.max(np.abs(coeff[:, outside])) < 1e-14 * np.max(np.abs(coeff))

    def test_reconstruction(self, grid3):
        f = random_smooth_field(grid3, seed=1, ncomp=3)
        bands = decompose(f)
        assert rel_err(bands.reconstruct().data, f.data) < 1e-10

    def test_reconstruction_adds_in_place_in_order(self, grid3):
        # the same adds in the same order as a sum of new fields, bit for bit,
        # and no band (nor the low block) is written
        bands = decompose(random_smooth_field(grid3, seed=1, ncomp=3))
        before = [b.data.copy() for b in [bands.low, *bands.bands]]
        ref = sum(bands.bands, bands.low.copy())
        assert bands.reconstruct().data.tobytes() == ref.data.tobytes()
        for b, old in zip([bands.low, *bands.bands], before):
            assert b.data.tobytes() == old.tobytes()

    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_on_read_blocks_equal_the_eager_blocks(self, grid):
        # low, every band and reconstruct() are the blocks dyadic_blocks
        # yields and their sum in that order, bit for bit, and every block
        # handed out is read-only
        f = random_smooth_field(grid, seed=17, ncomp=grid.d)
        lo, hi = band_range(grid)
        for levels in ((lo, hi), (lo + 1, hi - 1)):
            bands = decompose(f, *levels)
            low, *eager = list(lp.dyadic_blocks(grid, f.data, *levels))
            for block, want in zip([bands.low, *bands.bands], [low, *eager], strict=True):
                assert block.data.tobytes() == want.tobytes()
                assert not block.data.flags.writeable
            total = low.copy()
            for band in eager:
                total += band
            assert bands.reconstruct().data.tobytes() == total.tobytes()

    def test_band_set_keeps_one_spectrum(self, grid3m):
        # decompose holds f's half spectrum, 1.06 fields where keeping every
        # block took 7.0; reconstruct peaks with the engine's work array, the
        # sum and one band buffer alive
        f = random_smooth_field(grid3m, seed=18, ncomp=3)
        decompose(f).reconstruct()  # the grid's radial table, built once
        bands, held, _ = traced(lambda: decompose(f))
        assert held < 1.2 * f.data.nbytes
        _, _, peak = traced(bands.reconstruct)
        assert peak < 4 * f.data.nbytes

    @pytest.mark.parametrize("grid", [Grid(2, 24), Grid(3, 16)], ids=["2d", "3d"])
    def test_low_pass_values_match_chi(self, grid):
        # chi evaluated once per distinct |k|^2 and gathered onto the half
        # spectrum is chi(|k|/2^j) bit for bit; a level far outside the range
        # gives the mean-mode indicator or all ones
        lo, hi = band_range(grid)
        kmag = np.sqrt(grid.k_squared)
        for j in range(lo - 3, hi + 4):
            symbol = on_half_spectrum(grid, _low_pass(grid, j))
            assert symbol.tobytes() == chi(kmag / 2.0**j).tobytes(), j
        mean = on_half_spectrum(grid, _low_pass(grid, -2000))
        assert mean.tobytes() == (kmag == 0).astype(float).tobytes()
        assert np.all(_low_pass(grid, 2000) == 1.0)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_band_profile_matches_decompose(self, grid3, p):
        f = random_smooth_field(grid3, seed=2, ncomp=3)
        bands = decompose(f)
        levels, vals = band_profile(f, p)
        assert list(levels) == list(range(bands.j_min, bands.j_max + 1))
        assert list(vals) == [lebesgue_norm(b, p) for b in bands.bands]

    def test_low_pass_telescoping(self, grid2):
        f = random_smooth_field(grid2, seed=2, ncomp=2)
        j = 2
        lhs = low_pass(f, j + 1)
        rhs = low_pass(f, j) + band_project(f, j)
        assert rel_err(lhs.data, rhs.data) < 1e-12

    def test_low_pass_above_nyquist_is_identity(self, grid2):
        f = random_smooth_field(grid2, seed=3, ncomp=2)
        j_hi = band_range(grid2)[1]
        assert rel_err(low_pass(f, j_hi + 1).data, f.data) < 1e-12

    def test_low_pass_below_range_keeps_mean(self, grid2):
        f = random_smooth_field(grid2, seed=4, ncomp=2)
        shifted = RealVectorField(grid2, f.data + 0.7)
        j_lo = band_range(grid2)[0]
        low = low_pass(shifted, j_lo)
        assert rel_err(low.data, 0.7 * np.ones_like(low.data)) < 1e-10

    def test_near_orthogonality(self, grid3):
        f = random_smooth_field(grid3, seed=5, ncomp=3)
        for j, jp in [(0, 2), (-1, 1), (1, 3)]:
            twice = band_project(band_project(f, j), jp)
            assert lebesgue_norm(twice, 2) <= 1e-12 * lebesgue_norm(f, 2)

    def test_empty_band_warning(self, grid2):
        f = random_smooth_field(grid2, seed=6, ncomp=1)
        with pytest.warns(EmptyBandWarning):
            out = band_project(f, 40)
        assert out.max_abs() == 0.0

    def test_bernstein(self, grid2):
        # ||grad Delta_j f||_p <= C 2^{j+2} ||Delta_j f||_p with C <= 1.05
        f = random_smooth_field(grid2, seed=7, ncomp=1)
        for j in range(0, 3):
            band = band_project(f, j)
            g = gradient(grid2, band.data[0])
            for p in (2.0, 3.0):
                lhs = lebesgue_norm(g, p)
                rhs = 2.0 ** (j + 2) * lebesgue_norm(band, p)
                assert lhs <= 1.05 * rhs

    def test_dyadic_shift_covariance(self):
        # ||Delta_j f_lam||_p = lam^{1-d/p} ||Delta_{j+m} f||_p for lam = 2^m
        from critns.scaling import ScaleCore, apply_lambda

        grid = Grid(2, 128)
        from critns.fields import gabor_bump

        f = gabor_bump(grid, sigma=grid.L / 16, mode_center=(6, 2), ncomp=1)
        m = 1
        f_lam = apply_lambda(f, ScaleCore(1.0 / 2.0**m, (0.0, 0.0)))  # 2 f(2x)
        for j in (1, 2):
            for p in (2.0, 3.0):
                lhs = lebesgue_norm(band_project(f_lam, j + m), p)
                rhs = (2.0**m) ** (1 - grid.d / p) * lebesgue_norm(band_project(f, j), p)
                if rhs > 1e-12:
                    assert abs(lhs - rhs) / rhs < 0.01


class TestParaproduct:
    def test_grid_mismatch(self, grid2):
        other = Grid(2, 64)
        f = np.zeros(grid2.shape)
        g = np.zeros(other.shape)
        with pytest.raises(GridMismatchError):
            paraproduct(grid2, f, g)

    def test_identity_random(self, grid2):
        f = random_smooth_field(grid2, seed=8, ncomp=1).data[0]
        g = random_smooth_field(grid2, seed=9, ncomp=1).data[0]
        tfg, tgf, pi = paraproduct(grid2, f, g)
        assert rel_err(tfg + tgf + pi, f * g) < 1e-8

    def test_constant_first_factor(self, grid2):
        # a constant lives in the low block: T_g f vanishes, T_f g carries
        # everything above the lowest bands
        g = random_smooth_field(grid2, seed=10, ncomp=1).data[0]
        f = 0.8 * np.ones(grid2.shape)
        tfg, tgf, pi = paraproduct(grid2, f, g)
        assert np.max(np.abs(tgf)) < 1e-12
        assert rel_err(tfg + pi, f * g) < 1e-12
        # the paraproduct term dominates away from the lowest bands
        hi = band_noise(grid2, 8.0, 12.0, seed=11, ncomp=1).data[0]
        tfg2, tgf2, pi2 = paraproduct(grid2, f, hi)
        assert rel_err(tfg2, f * hi) < 1e-10

    def test_equal_single_modes_diagonal(self, grid2):
        f = single_mode(grid2, (3, 1)).data[0]
        tfg, tgf, pi = paraproduct(grid2, f, f)
        assert rel_err(pi, f * f) < 1e-10
        assert np.max(np.abs(tfg)) < 1e-10
        assert np.max(np.abs(tgf)) < 1e-10

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)], ids=["2d", "3d"])
    def test_low_high_matches_scalar_paraproduct(self, d, N):
        # the broadcast low-high sum gives T_{f_i} g_j for every component
        # pair, bit for bit as the scalar paraproduct does
        grid = Grid(d, N)
        f = random_smooth_field(grid, seed=12, ncomp=d).data
        g = random_smooth_field(grid, seed=13, ncomp=d).data
        pairs = low_high(grid, f[:, None], g[None])
        assert pairs.shape == (d, d) + grid.shape
        for i in range(d):
            for j in range(d):
                assert np.array_equal(pairs[i, j], paraproduct(grid, f[i], g[j])[0])

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)], ids=["2d", "3d"])
    def test_low_high_rows_equal_the_broadcast_sum(self, d, N):
        # reference: every block listed first, each whole (d, d) product of
        # the (d, 1) low-pass sum and the (1, d) band formed by broadcasting
        grid = Grid(d, N)
        f = random_smooth_field(grid, seed=17, ncomp=d).data[:, None]
        g = random_smooth_field(grid, seed=18, ncomp=d).data[None]
        blocks_f = list(lp.dyadic_blocks(grid, f, *band_range(grid)))
        blocks_g = list(lp.dyadic_blocks(grid, g, *band_range(grid)))
        want = low = 0.0
        for b in range(2, len(blocks_g)):
            low += blocks_f[b - 2]
            want += low * blocks_g[b]
        assert low_high(grid, f, g).tobytes() == want.tobytes()

    def test_low_high_pairs_peak_memory(self, grid3m):
        # one f block waiting, no g block alive while the next is made and
        # one row of products at a time: 12.3 snapshots' bytes (each factor's
        # spectrum and work array, its blocks, the low-pass sum, the (3, 3)
        # sum and one row), where a (3, 3) product temporary and two waiting
        # f blocks took 14.3
        f = random_smooth_field(grid3m, seed=19, ncomp=3).data
        g = random_smooth_field(grid3m, seed=20, ncomp=3).data
        low_high(grid3m, f[:, None], g[None])  # the symbols every equal grid shares
        pairs, _, peak = traced(lambda: low_high(grid3m, f[:, None], g[None]))
        assert pairs.shape == (3, 3) + grid3m.shape
        assert peak < 13 * f.nbytes

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)], ids=["2d", "3d"])
    def test_streamed_parts_equal_the_block_list_sums(self, d, N):
        # reference: every block of both factors listed first, then each part
        # summed over the lists in the same order
        grid = Grid(d, N)
        f = random_smooth_field(grid, seed=14, ncomp=1).data[0]
        g = random_smooth_field(grid, seed=15, ncomp=1).data[0]
        blocks_f = list(lp.dyadic_blocks(grid, f, *band_range(grid)))
        blocks_g = list(lp.dyadic_blocks(grid, g, *band_range(grid)))
        pi = np.zeros(grid.shape)
        for b, (f_b, g_b) in enumerate(zip(blocks_f, blocks_g)):
            if b:
                pi += blocks_f[b - 1] * g_b + f_b * blocks_g[b - 1]
            pi += f_b * g_b
        want = (lp._low_high_sum(blocks_f, blocks_g), lp._low_high_sum(blocks_g, blocks_f), pi)
        for got, ref in zip(paraproduct(grid, f, g), want, strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_streamed_peak_memory(self, grid3m):
        # the current and previous blocks of each factor, the low-pass sums,
        # the parts and each factor's spectrum and work array: 16.3 fields,
        # where listing every block of both factors took 19.0
        rng = np.random.default_rng(16)
        f, g = rng.standard_normal((2,) + grid3m.shape)
        paraproduct(grid3m, f, g)  # the symbols every equal grid shares
        _, held, peak = traced(lambda: paraproduct(grid3m, f, g))
        assert held < 3.1 * f.nbytes
        assert peak < 17 * f.nbytes

    @settings(max_examples=8, deadline=None)
    @given(s1=st.integers(0, 1000), s2=st.integers(0, 1000))
    def test_identity_property(self, s1, s2):
        grid = Grid(2, 32)
        f = random_smooth_field(grid, seed=s1, ncomp=1).data[0]
        g = random_smooth_field(grid, seed=s2, ncomp=1).data[0]
        tfg, tgf, pi = paraproduct(grid, f, g)
        assert rel_err(tfg + tgf + pi, f * g) < 1e-8


class TestPrunedBlocks:
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_bitwise_equal_to_full_transform(self, grid, monkeypatch):
        # each block's product and inverse transform are pruned to its
        # multiplier's support, which changes no bit of decompose,
        # paraproduct, low_high, low_pass or band_project; the reference
        # engine forms the whole product and runs irfftn
        extents = [grid.radial_table.extent_of(m)
                   for m in dyadic_multipliers(grid, *band_range(grid))]
        assert min(extents) < grid.N // 2
        f = random_smooth_field(grid, seed=11, ncomp=grid.d)
        g = random_smooth_field(grid, seed=12, ncomp=1).data[0]
        lo, hi = band_range(grid)

        def blocks():
            bands = decompose(f)
            pairs = low_high(grid, f.data[:, None], f.data[None])
            parts = (*paraproduct(grid, f.data[0], g), pairs)
            single = [low_pass(f, j) for j in range(lo - 1, hi + 3)]
            single += [band_project(f, j) for j in range(lo, hi + 1)]
            return [bands.low, *bands.bands, *single], parts

        pruned_bands, pruned_parts = blocks()
        full_product_blocks(monkeypatch, lp, grid_mod)
        full_bands, full_parts = blocks()
        for got, want in zip(pruned_bands, full_bands):
            assert got.data.tobytes() == want.data.tobytes()
        for got, want in zip(pruned_parts, full_parts):
            assert got.tobytes() == want.tobytes()
