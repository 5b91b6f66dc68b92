"""Spectral core: grids, transforms, Leray projection, heat operators."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from critns import Grid, RealVectorField, heat_semigroup, leray_project
from critns.errors import DomainError, InvalidFieldError
from critns.fields import band_noise, curl_field, localized_divfree_bump, taylor_green
from critns.grid import (
    HeatFlow,
    TransformPlan,
    forward_transform,
    heat_derivative_symbol,
    inverse_transform,
    last_inverse_stage,
    multiplier_blocks,
    spectral_divergence_ratio,
    zero_field,
)
from critns.norms import lebesgue_norm

from conftest import (gradient, irfftn, laplacian, on_half_spectrum, radial_multiplier,
                      random_smooth_field, rel_err, rfftn, single_mode, support_extent,
                      traced)


def heat_derivative_kernel(f, tau):
    """K(tau) = tau * d/dtau exp(tau*Laplacian) applied to f through the
    symbol the heat norms use."""
    blocks = multiplier_blocks(forward_transform(f.data, f.grid),
                               [heat_derivative_symbol(f.grid, tau)], f.grid)
    return RealVectorField(f.grid, last_inverse_stage(next(blocks), f.grid))


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            Grid(4, 32)
        with pytest.raises(DomainError):
            Grid(2, 20)  # 20 = 2^2 * 5 is not 2,3-smooth
        with pytest.raises(DomainError):
            Grid(2, 32, L=-1.0)
        for box in (np.inf, np.nan):
            with pytest.raises(DomainError, match="finite"):
                Grid(3, 16, L=box)
        with pytest.raises(DomainError):
            Grid(3, 4)
        # one 3-component half spectrum would take 3.0e28 bytes
        with pytest.raises(DomainError, match="more than an array can hold"):
            Grid(3, 2**30)

    def test_accepts_fft_friendly_sizes(self):
        for n in (8, 16, 24, 32, 48, 64):
            Grid(2, n)

    def test_wavenumbers(self, grid2):
        # leading axes in FFT order, the last axis holds m = 0..N/2 only
        first, last = (k.ravel() * grid2.L / (2 * np.pi) for k in grid2.wavenumber_mesh)
        assert first[0] == 0 and last[0] == 0
        assert first[1] == 1 and last[1] == 1
        assert first[grid2.N // 2] == -grid2.N // 2
        assert last[-1] == grid2.N // 2 and last.size == grid2.N // 2 + 1
        assert np.isclose(grid2.k_min, 2 * np.pi / grid2.L)

    def test_coordinates_centered(self, grid2):
        x = grid2.axis_coords
        assert np.isclose(x[0], -grid2.L / 2)
        assert np.isclose(x[-1], grid2.L / 2 - grid2.spacing)


class TestTransforms:
    def test_roundtrip(self, grid3):
        f = random_smooth_field(grid3, seed=0, ncomp=3)
        back = inverse_transform(forward_transform(f.data, grid3), grid3)
        assert rel_err(back, f.data) < 1e-13

    def test_plancherel(self, grid3):
        # forward transform carries 1/N^d, so L^2 quadrature matches L^{d/2} l^2
        f = random_smooth_field(grid3, seed=1, ncomp=3)
        coeff = forward_transform(f.data, grid3)
        l2_spec = np.sqrt(grid3.L**grid3.d * np.sum(grid3.multiplicity * np.abs(coeff) ** 2))
        assert abs(lebesgue_norm(f, 2) - l2_spec) / l2_spec < 1e-10

    def test_half_spectrum_layout(self, grid2):
        # the stored coefficients are the m_last >= 0 half of the full FFT
        # with the 1/N^d normalization
        f = random_smooth_field(grid2, seed=2, ncomp=2)
        coeff = forward_transform(f.data, grid2)
        full = np.fft.fftn(f.data, axes=(1, 2)) / grid2.N**grid2.d
        assert coeff.shape[1:] == grid2.spectral_shape
        assert rel_err(coeff, full[..., : grid2.N // 2 + 1]) < 1e-12


def _box_of(half, grid, M):
    """Reference, by fancy indexing: the box |m| <= M of half-spectrum
    coefficients in RetainedBox layout (leading axes m = 0..M then -M..-1),
    and the half spectrum zeroed outside the box."""
    index = np.ix_(*([np.r_[0:M + 1, grid.N - M:grid.N]] * (grid.d - 1) + [np.arange(M + 1)]))
    padded = np.zeros_like(half)
    padded[(..., *index)] = half[(..., *index)]
    return half[(..., *index)], padded


class TestPrunedInverse:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("N", [8, 12, 18, 24, 32, 48])
    def test_bitwise_equal_to_irfftn(self, d, N):
        # the whole half spectrum and every box from the origin alone to the
        # last one below Nyquist, with 0, 1 or 2 leading axes, against irfftn
        # of the zero-padded box; the band engine's block of the all-ones
        # symbol gives the same rows, its last stage run one row at a time
        grid = Grid(d, N)
        rng = np.random.default_rng(N + d)
        for lead in ((), (2,), (2, 3)):
            shape = lead + grid.spectral_shape
            half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = inverse_transform(half, grid)
            assert got.shape == lead + grid.shape
            assert got.tobytes() == irfftn(half, grid).tobytes(), lead
            for M in range(N // 2):
                coeff, padded = _box_of(half, grid, M)
                want = irfftn(padded, grid)
                got = inverse_transform(coeff, grid, M)
                assert got.tobytes() == want.tobytes(), (lead, M)
                if lead:
                    ones = np.ones(grid.radial_table.k_squared.size)
                    (block,) = multiplier_blocks(padded, [ones], grid)
                    rows = np.stack([last_inverse_stage(row, grid) for row in block])
                    assert rows.tobytes() == want.tobytes(), (lead, M)

    def test_rejects_another_layout(self, grid3):
        half = np.ones((3,) + grid3.spectral_shape, dtype=complex)
        with pytest.raises(InvalidFieldError, match="box of extent 2"):
            inverse_transform(half, grid3, 2)

    def test_consumes_its_input(self, grid3):
        # it consumes nothing: the coefficients it is given, the whole half
        # spectrum or a box, are as they were after the transform
        data = random_smooth_field(grid3, seed=5, ncomp=3).data
        for extent in (None, 0, 3, 5, grid3.N // 2 - 1):
            coeff = forward_transform(data, grid3, extent)
            spectrum = coeff.copy()
            inverse_transform(coeff, grid3, extent)
            assert coeff.tobytes() == spectrum.tobytes(), extent

    def test_support_extent(self, grid3):
        symbol = np.zeros(grid3.spectral_shape)
        assert support_extent(grid3, symbol) == 0
        symbol[0, grid3.N - 3, 1] = 0.5  # m = (0, -3, 1)
        assert support_extent(grid3, symbol) == 3
        symbol[0, 0, grid3.N // 2] = 1.0  # the last axis' Nyquist column
        assert support_extent(grid3, symbol) == grid3.N // 2


class TestBandEngine:
    LEADS = [(), (3,), (3, 1), (1, 3)]  # low_high passes (3, 1) and (1, 3)

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_blocks_in_any_extent_order(self, grid, lead):
        # full -> pruned -> smaller -> larger -> full: each block re-zeroes
        # only what the previous one wrote, and its product is formed on its
        # own support box; every block is irfftn of the whole product, bit for
        # bit, also with its last stage run one leading row at a time, and
        # the symbols are read one per block
        rng = np.random.default_rng(11)
        coeff = forward_transform(rng.standard_normal(lead + grid.shape), grid)
        half = grid.N // 2
        extents = [half, half // 2 + 1, 1, 0, half // 2, half]
        mults = [radial_multiplier(grid, M, rng)[0] for M in extents]
        pulled = []

        def lazy():
            for values in mults:
                pulled.append(values)
                yield values

        for i, block in enumerate(multiplier_blocks(coeff, lazy(), grid)):
            assert len(pulled) == i + 1
            want = irfftn(coeff * on_half_spectrum(grid, mults[i]), grid)
            assert last_inverse_stage(block, grid).tobytes() == want.tobytes(), i
            if lead:
                rows = np.stack([last_inverse_stage(row, grid) for row in block])
                assert rows.tobytes() == want.tobytes(), i
        assert i + 1 == len(pulled) == len(mults)

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_blocks_read_only_the_support_box(self, grid, lead):
        # every coefficient outside the largest box is NaN: a product or
        # transform that read it would put NaN into a block
        rng = np.random.default_rng(12)
        coeff = forward_transform(rng.standard_normal(lead + grid.shape), grid)
        extents = [grid.N // 4 + 1, 1, 0, grid.N // 4]
        pairs = [radial_multiplier(grid, M, rng) for M in extents]
        mults = [values for values, _ in pairs]
        poisoned = np.where(pairs[0][1], coeff, np.nan)
        assert np.isnan(irfftn(poisoned * on_half_spectrum(grid, mults[0]), grid)).all()
        blocks = multiplier_blocks(poisoned, mults, grid)
        for values, block in zip(mults, blocks, strict=True):
            want = irfftn(coeff * on_half_spectrum(grid, values), grid)
            assert last_inverse_stage(block, grid).tobytes() == want.tobytes()


class TestPrunedForward:
    @staticmethod
    def _assert_box_of_rfftn(grid, data, extents):
        whole = rfftn(data, grid)
        for M in extents:
            got = forward_transform(data, grid, M)
            want, _ = _box_of(whole, grid, M)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (data.shape, M)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("N", [8, 12, 18, 24, 32, 48, 64])
    def test_bitwise_equal_to_rfftn_box(self, d, N):
        # every extent from the origin alone to the last one below Nyquist,
        # with no leading axis and with 1 or 3 leading components
        grid = Grid(d, N)
        rng = np.random.default_rng(N + d)
        for lead in ((), (1,), (3,)):
            data = rng.standard_normal(lead + grid.shape)
            self._assert_box_of_rfftn(grid, data, range(N // 2))

    def test_leaves_its_input(self, grid3):
        # the samples it is given are as they were, at every extent
        data = random_smooth_field(grid3, seed=5, ncomp=3).data
        kept = data.copy()
        for extent in (None, 0, 3, 5, grid3.N // 2 - 1):
            forward_transform(data, grid3, extent)
            assert data.tobytes() == kept.tobytes(), extent

    def test_copies_back_a_stage_that_did_not_run_in_place(self, grid3, monkeypatch):
        # overwrite_x permits an in-place fft but does not promise one
        monkeypatch.setattr(scipy.fft, "fft", _copying(scipy.fft.fft))
        data = random_smooth_field(grid3, seed=6, ncomp=3).data
        self._assert_box_of_rfftn(grid3, data, (0, 3, grid3.N // 2 - 1))


def _copying(stage):
    """stage run on a copy of its input: overwrite_x not honoured."""
    def copying(x, *args, overwrite_x=False, **kwargs):
        return stage(x.copy(), *args, **kwargs)
    return copying


class TestTransformPlan:
    @pytest.mark.parametrize("copying", [False, True], ids=["in-place", "copying"])
    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_reused_buffers_hold_nothing_stale(self, grid, copying, monkeypatch):
        # one plan per extent runs on three different inputs in a row, each
        # result bitwise the box of rfftn, or irfftn of the zero-padded box,
        # and written into the plan's own buffers; also when the complex
        # stages do not run in place
        if copying:
            monkeypatch.setattr(scipy.fft, "fft", _copying(scipy.fft.fft))
            monkeypatch.setattr(scipy.fft, "ifft", _copying(scipy.fft.ifft))
        rng = np.random.default_rng(21)
        for M in (0, 3, grid.N // 2 - 1):
            plan = TransformPlan(grid, M, (3,))
            for _ in range(3):
                data = rng.standard_normal((3,) + grid.shape)
                got = forward_transform(data, grid, M, plan)
                want, _ = _box_of(rfftn(data, grid), grid, M)
                assert got.tobytes() == want.tobytes(), M
                assert got is plan.box

                shape = (3,) + grid.spectral_shape
                half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                coeff, padded = _box_of(half, grid, M)
                got = inverse_transform(coeff, grid, M, plan)
                assert got.tobytes() == irfftn(padded, grid).tobytes(), M
                assert got is plan.samples
            # the inverse works in the box's last-axis columns only
            assert plan.padded.shape == (3,) + grid.shape[:-1] + (M + 1,)

    @pytest.mark.parametrize("case", ["another extent", "another extent, forward",
                                      "whole spectrum", "another lead",
                                      "another lead, forward", "another grid shape"])
    def test_refuses_a_plan_made_for_another_transform(self, case):
        # a whole-spectrum plan's work array keeps the columns above M that a
        # full inverse wrote, which a pruned inverse through it would read
        grid, M = Grid(3, 16), 4
        rng = np.random.default_rng(22)
        shape = (3,) + grid.spectral_shape
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data = rng.standard_normal((3,) + grid.shape)
        coeff, padded = _box_of(half, grid, M)
        whole = TransformPlan(grid, None, (3,))
        inverse_transform(half, grid, plan=whole)
        call = {
            "another extent": lambda: inverse_transform(coeff, grid, M, whole),
            "another extent, forward": lambda: forward_transform(data, grid, M, whole),
            "whole spectrum": lambda: inverse_transform(half, grid, None,
                                                        TransformPlan(grid, M, (3,))),
            "another lead": lambda: inverse_transform(coeff[:1], grid, M,
                                                      TransformPlan(grid, M, (3,))),
            "another lead, forward": lambda: forward_transform(data, grid, M,
                                                               TransformPlan(grid, M)),
            "another grid shape": lambda: inverse_transform(coeff, grid, M,
                                                            TransformPlan(Grid(3, 32), M, (3,))),
        }[case]
        with pytest.raises(InvalidFieldError, match="transform plan"):
            call()
        # a plan serves every grid of its shape: the buffers do not depend on L
        plan = TransformPlan(Grid(3, 16, 1.0), M, (3,))
        got = inverse_transform(coeff, grid, M, plan)
        assert got is plan.samples and got.tobytes() == irfftn(padded, grid).tobytes()


class TestLeray:
    def test_annihilates_gradients(self, grid3):
        g = random_smooth_field(grid3, seed=3, ncomp=1)
        grad = gradient(grid3, g.data[0] - g.data[0].mean())
        projected = leray_project(grad)
        assert projected.max_abs() < 1e-12 * grad.max_abs()

    def test_fixes_divergence_free_fields(self, grid3):
        f = leray_project(random_smooth_field(grid3, seed=4, ncomp=3))
        again = leray_project(f)
        assert rel_err(again.data, f.data) < 1e-12

    def test_divergence_oracle(self, grid3):
        # independent oracle: assemble k . u_hat directly from the raw FFT
        f = leray_project(random_smooth_field(grid3, seed=5, ncomp=3))
        coeff = forward_transform(f.data, grid3)
        div = sum(1j * ka * coeff[c] for c, ka in enumerate(grid3.deriv_wavenumber_mesh))
        assert np.max(np.abs(div)) <= 1e-10 * np.max(np.abs(coeff))
        assert spectral_divergence_ratio(f) <= 1e-10

    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("projected", [False, True], ids=["divergent", "divfree"])
    def test_divergence_ratio_is_the_modulus_of_i_k_dot_u(self, grid, projected):
        # |i k.u_hat| = |k.u_hat| exactly: the ratio equals the formula with
        # the i, bit for bit
        f = random_smooth_field(grid, seed=7, ncomp=grid.d)
        f = leray_project(f) if projected else f
        coeff = forward_transform(f.data, grid)
        div = sum(1j * ka * coeff[c] for c, ka in enumerate(grid.deriv_wavenumber_mesh))
        ref = float(np.max(np.abs(div)) / np.max(np.abs(coeff)))
        assert spectral_divergence_ratio(f) == ref
        assert (ref <= 1e-12) == projected

    def test_mean_preserved(self, grid3):
        f = random_smooth_field(grid3, seed=6, ncomp=3)
        shifted = RealVectorField(grid3, f.data + np.array([0.3, -0.2, 0.1])[:, None, None, None])
        projected = leray_project(shifted)
        mean = projected.data.reshape(3, -1).mean(axis=1)
        assert np.allclose(mean, [0.3, -0.2, 0.1], atol=1e-13)

    def test_rejects_non_finite(self, grid3):
        data = np.zeros((3,) + grid3.shape)
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidFieldError):
            leray_project(RealVectorField(grid3, data))

    def test_band_noise_projects_its_coefficients(self, grid3):
        # the shell coefficients are projected before the one inverse: the
        # result is the projection of the unprojected shell field at roundoff
        f = band_noise(grid3, 1.0, 5.0, seed=14, divergence_free=True)
        raw = band_noise(grid3, 1.0, 5.0, seed=14)
        ref = leray_project(raw)
        assert rel_err(f.data, ref.data / ref.max_abs()) < 1e-14
        assert spectral_divergence_ratio(f) <= 1e-14
        with pytest.raises(InvalidFieldError):
            band_noise(grid3, 1.0, 5.0, seed=14, ncomp=2, divergence_free=True)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotence_property(self, seed):
        grid = Grid(2, 32)
        f = random_smooth_field(grid, seed=seed, ncomp=2)
        once = leray_project(f)
        twice = leray_project(once)
        assert rel_err(twice.data, once.data) < 1e-12


def _periodized_gaussian(grid, sigma, images=2):
    """True image-sum periodization of exp(-|x|^2 / (2 sigma^2))."""
    mesh = grid.coordinate_mesh()
    total = np.zeros(grid.shape)
    ranges = [range(-images, images + 1)] * grid.d
    import itertools

    for shift in itertools.product(*ranges):
        r2 = np.zeros(grid.shape)
        for x, m in zip(mesh, shift):
            r2 = r2 + (x - m * grid.L) ** 2
        total += np.exp(-r2 / (2 * sigma**2))
    return RealVectorField(grid, total[None])


class TestHeat:
    def test_identity_at_zero(self, grid2):
        f = random_smooth_field(grid2, seed=7, ncomp=2)
        assert rel_err(heat_semigroup(f, 0.0).data, f.data) == 0.0

    def test_negative_time_rejected(self, grid2):
        with pytest.raises(DomainError):
            heat_semigroup(random_smooth_field(grid2, seed=8), -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, grid2, t):
        # NaN passes a t < 0 test, and 0 * inf at k = 0 gives a NaN field
        with pytest.raises(DomainError, match="finite"):
            heat_semigroup(random_smooth_field(grid2, seed=8), t)

    def test_flow_is_heat_semigroup_bitwise(self, grid3):
        f = random_smooth_field(grid3, seed=12, ncomp=3)
        flow = HeatFlow(f)
        for t in (0.01, 0.3, 2.0):
            assert np.array_equal(flow.at(t).data, heat_semigroup(f, t).data)
        assert rel_err(flow.at(0.0).data, f.data) < 1e-14
        with pytest.raises(DomainError):
            flow.at(np.nan)

    def test_flow_inverts_its_work_array_in_place(self, grid3):
        # at(t) forms the damped coefficients in its inverse's work array and
        # inverts them there, bitwise the inverse of the fresh coefficients;
        # any other coefficients a full inverse reads stay unwritten
        flow = HeatFlow(random_smooth_field(grid3, seed=12, ncomp=3))
        coeff = flow.coefficients(0.3)
        kept = coeff.copy()
        want = inverse_transform(coeff, grid3)
        assert flow.at(0.3).data.tobytes() == want.tobytes()
        plan = TransformPlan(grid3, lead=(3,))
        assert inverse_transform(coeff, grid3, plan=plan).tobytes() == want.tobytes()
        assert coeff.tobytes() == kept.tobytes()
        np.copyto(plan.padded, kept)
        assert inverse_transform(plan.padded, grid3, plan=plan).tobytes() == want.tobytes()

    def test_single_mode_eigenvalue(self, grid2):
        f = single_mode(grid2, (2, 1))
        k2 = (2**2 + 1**2) * (2 * np.pi / grid2.L) ** 2
        t = 0.37
        assert rel_err(heat_semigroup(f, t).data, np.exp(-k2 * t) * f.data) < 1e-12

    def test_gaussian_width_oracle(self):
        # closed-form heat flow of a periodized Gaussian: width sqrt(sigma^2+2t),
        # amplitude (sigma/width)^d, image sum unchanged
        grid = Grid(2, 64)
        sigma, t = grid.L / 16, 0.25
        f = _periodized_gaussian(grid, sigma)
        flowed = heat_semigroup(f, t)
        width = np.sqrt(sigma**2 + 2 * t)
        oracle = _periodized_gaussian(grid, width) * (sigma / width) ** grid.d
        assert rel_err(flowed.data, oracle.data) < 1e-10

    def test_composition(self, grid3):
        f = random_smooth_field(grid3, seed=9, ncomp=3)
        ab = heat_semigroup(heat_semigroup(f, 0.07), 0.13)
        direct = heat_semigroup(f, 0.2)
        assert rel_err(ab.data, direct.data) < 1e-12

    def test_commutes_with_projection(self, grid3):
        f = random_smooth_field(grid3, seed=10, ncomp=3)
        a = heat_semigroup(leray_project(f), 0.1)
        b = leray_project(heat_semigroup(f, 0.1))
        assert rel_err(a.data, b.data) < 1e-12

    def test_mean_preserved(self, grid2):
        f = RealVectorField(grid2, np.ones((2,) + grid2.shape))
        assert rel_err(heat_semigroup(f, 1.0).data, f.data) < 1e-14


class TestHeatDerivativeKernel:
    def test_constant_killed(self, grid2):
        f = RealVectorField(grid2, np.ones((2,) + grid2.shape))
        assert heat_derivative_kernel(f, 0.5).max_abs() < 1e-14

    def test_unit_mode_at_unit_time(self, grid2):
        f = single_mode(grid2, (1, 0))
        out = heat_derivative_kernel(f, 1.0)
        assert rel_err(out.data, -np.exp(-1.0) * f.data) < 1e-12

    def test_peak_over_tau(self, grid2):
        f = single_mode(grid2, (2, 0))
        k2 = 4.0 * (2 * np.pi / grid2.L) ** 2
        taus = np.linspace(0.01, 2.0, 400) / k2
        amps = [heat_derivative_kernel(f, t).max_abs() for t in taus]
        t_star = taus[int(np.argmax(amps))]
        assert abs(t_star - 1.0 / k2) < 0.02 / k2
        assert abs(max(amps) - np.exp(-1.0)) < 1e-3

    def test_operator_composition_oracle(self, grid3):
        # K(tau) = tau d/dtau exp(tau Lap) equals tau * Lap after the semigroup
        f = random_smooth_field(grid3, seed=11, ncomp=3)
        tau = 0.08
        direct = heat_derivative_kernel(f, tau)
        composed = laplacian(heat_semigroup(f, tau)) * tau
        assert rel_err(direct.data, composed.data) < 1e-12


class TestFieldAlgebra:
    def test_zero_field(self, grid3):
        z = zero_field(grid3)
        assert z.ncomp == 3 and z.max_abs() == 0.0

    def test_shape_validation(self, grid3):
        with pytest.raises(InvalidFieldError):
            RealVectorField(grid3, np.zeros((3, 8, 8, 8)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_curl_keeps_its_operation_order(self, d):
        # each component is formed in the inverse's work array with the
        # operations of 1j * (k_a c_b - k_b c_a) (3D) or -1j k_1 psi,
        # 1j k_0 psi (2D), in that order: the bits of the formula
        grid = Grid(d, 16)
        potential = random_smooth_field(grid, seed=13, ncomp=1 if d == 2 else 3)
        c = forward_transform(potential.data, grid)
        k = grid.deriv_wavenumber_mesh
        if d == 2:
            comps = [-1j * k[1] * c[0], 1j * k[0] * c[0]]
        else:
            comps = [1j * (k[1] * c[2] - k[2] * c[1]), 1j * (k[2] * c[0] - k[0] * c[2]),
                     1j * (k[0] * c[1] - k[1] * c[0])]
        want = inverse_transform(np.stack(comps), grid)
        assert curl_field(potential).data.tobytes() == want.tobytes()

    def test_bump_peak(self, grid3m):
        # the potential is built in one array and the curl formed in the
        # inverse's work array, the potential's coefficients freed before it
        # runs: 3.65 datum sizes traced here, 7.26 with a stacked potential
        # and stacked components
        localized_divfree_bump(grid3m, 0.5)  # the grid's meshes, built once
        f, _, peak = traced(lambda: localized_divfree_bump(grid3m, 0.5, seed=3))
        assert peak / f.data.nbytes <= 4.0

    def test_taylor_green_divergence_free(self):
        tg = taylor_green(Grid(2, 32))
        assert spectral_divergence_ratio(tg) <= 1e-10
