"""Field constructors for the CLI generators, the benchmark and the suite.

Random generators take an explicit numpy Generator (or an int seed) so that
every artifact is reproducible from its config document.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidFieldError
from .grid import (
    Grid,
    RealVectorField,
    TransformPlan,
    _leray_coefficients,
    forward_transform,
    inverse_transform,
)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _components(ncomp: int) -> int:
    if ncomp < 1:
        raise DomainError(f"a field needs at least one component, got ncomp={ncomp}")
    return ncomp


def _peak_scaled(f: RealVectorField, amplitude: float) -> RealVectorField:
    """f scaled in place so that its largest |sample| is amplitude, unless
    it is zero: the bits of f * (amplitude / max|f|), with no second field."""
    top = f.max_abs()
    if top > 0:
        np.multiply(f.data, float(amplitude / top), out=f.data)
    return f


def taylor_green(grid: Grid, amplitude: float = 1.0) -> RealVectorField:
    """2D vortex lattice u = A(cos x sin y, -sin x cos y) on the L=2*pi box.

    The convection term is a pure gradient, so the exact evolution is
    amplitude decay exp(-2t) with pressure -A^2 (cos 2x + cos 2y)/4.
    """
    if grid.d != 2:
        raise DomainError("taylor_green is a 2D field")
    x, y = grid.coordinate_mesh()
    u = np.cos(x) * np.sin(y)
    v = -np.sin(x) * np.cos(y)
    return RealVectorField(grid, amplitude * np.stack([u, v]))


def _check_width(sigma: float) -> None:
    if not sigma > 0:
        raise DomainError(f"bump width sigma must be positive, got {sigma}")


def gaussian_bump(grid: Grid, sigma: float, center=None, ncomp: int = 1,
                  amplitude: float = 1.0) -> RealVectorField:
    """Isotropic Gaussian exp(-|x-c|^2 / (2 sigma^2)) per component."""
    _components(ncomp)
    _check_width(sigma)
    # periodic distance keeps the bump single-valued across the seam
    r2 = sum(dx**2 for dx in grid.periodic_offsets(center))
    bump = amplitude * np.exp(-r2 / (2.0 * sigma**2))
    return RealVectorField(grid, np.stack([bump] * ncomp))


def gaussian_factors(grid: Grid, sigma: float, center=None) -> np.ndarray:
    """The per-axis factors exp(-dx_a^2 / (2 sigma^2)) of gaussian_bump's
    Gaussian, a (d, N) array over the same periodic offsets: their outer
    product is the bump up to roundoff, held in d*N samples instead of N^d."""
    _check_width(sigma)
    return np.stack([np.exp(-dx.ravel()**2 / (2.0 * sigma**2))
                     for dx in grid.periodic_offsets(center)])


def gabor_bump(grid: Grid, sigma: float, mode_center, center=None, ncomp: int = 1,
               amplitude: float = 1.0) -> RealVectorField:
    """Gaussian envelope modulated by sin(k0.(x-c)): localized in space and frequency.

    The odd modulation makes the integral vanish exactly for the symmetric
    envelope, so the far field decays to zero rather than to a mean-correction
    floor (which would defeat support detection).
    """
    _components(ncomp)
    env = gaussian_bump(grid, sigma, center=center, ncomp=1, amplitude=amplitude)
    arg = sum((2.0 * np.pi * m / grid.L) * dx
              for m, dx in zip(mode_center, grid.periodic_offsets(center)))
    comp = env.data[0] * np.sin(arg)
    return RealVectorField(grid, np.stack([comp] * ncomp))


def band_noise(grid: Grid, k_lo: float, k_hi: float, seed, ncomp: int | None = None,
               amplitude: float = 1.0, divergence_free: bool = False) -> RealVectorField:
    """Random field with spectrum supported on the shell k_lo <= |k| < k_hi,
    Leray-projected on its coefficients (before the one inverse transform)
    if divergence_free."""
    nc = grid.d if ncomp is None else _components(ncomp)
    if divergence_free and nc != grid.d:
        raise InvalidFieldError("Leray projection needs one component per axis")
    # the noise is freed when the forward returns, before the inverse runs
    coeff = forward_transform(_rng(seed).standard_normal((nc,) + grid.shape), grid)
    kmag = np.sqrt(grid.k_squared)
    mask = (kmag >= k_lo) & (kmag < k_hi)
    coeff *= mask
    if divergence_free:
        _leray_coefficients(coeff, grid)
    return _peak_scaled(RealVectorField(grid, inverse_transform(coeff, grid)), amplitude)


def random_divfree_field(grid: Grid, seed, k_lo: float = 1.0, k_hi: float | None = None,
                         amplitude: float = 1.0) -> RealVectorField:
    """Mean-free, divergence-free random field, band-limited well inside Nyquist."""
    if k_hi is None:
        k_hi = 0.5 * grid.k_max_axis
    return band_noise(grid, k_lo, k_hi, seed, ncomp=grid.d,
                      amplitude=amplitude, divergence_free=True)


def _curl_coefficients(coeff: np.ndarray, grid: Grid, out: np.ndarray) -> None:
    """The curl's (3D) or perpendicular gradient's (2D) half-spectrum
    coefficients of a potential's coeff, written into out."""
    k = grid.deriv_wavenumber_mesh
    if grid.d == 2:
        np.multiply(-1j * k[1], coeff[0], out=out[0])
        np.multiply(1j * k[0], coeff[0], out=out[1])
        return
    # 1j * (k_a c_b - k_b c_a) for (a, b) = (1, 2), (2, 0), (0, 1)
    term = np.empty_like(coeff[0])
    for comp, (a, b) in zip(out, ((1, 2), (2, 0), (0, 1))):
        np.multiply(k[a], coeff[b], out=comp)
        comp -= np.multiply(k[b], coeff[a], out=term)
        np.multiply(1j, comp, out=comp)


def curl_field(potential: RealVectorField) -> RealVectorField:
    """Spectral curl (3D) or perpendicular gradient of the first component (2D).

    Exactly divergence-free in the discrete calculus, and it preserves the
    spatial decay of the potential (unlike the nonlocal Leray projector).
    The curl's coefficients are formed in the work array of the inverse
    transform that consumes them, and the potential's are freed before it
    runs.
    """
    grid = potential.grid
    plan = TransformPlan(grid, lead=(grid.d,))
    _curl_coefficients(forward_transform(potential.data, grid), grid, plan.padded)
    return RealVectorField(grid, inverse_transform(plan.padded, grid, plan=plan))


def localized_divfree_bump(grid: Grid, sigma: float, center=None, seed=0,
                           mode_center=None, amplitude: float = 1.0) -> RealVectorField:
    """Divergence-free localized bump: curl of a Gabor-type vector potential.

    The curl keeps the Gaussian envelope, so the field respects
    boundary-amplitude guards whenever sigma is well below the box size.
    """
    rng = _rng(seed)
    if mode_center is None:
        mode_center = [3.0] + [1.0] * (grid.d - 1)
    potential = np.empty((1 if grid.d == 2 else 3,) + grid.shape)
    for comp in potential:
        direction = rng.permutation(np.asarray(mode_center, dtype=float))
        comp[...] = gabor_bump(grid, sigma, direction, center=center, ncomp=1).data[0]
    return _peak_scaled(curl_field(RealVectorField(grid, potential)), amplitude)
