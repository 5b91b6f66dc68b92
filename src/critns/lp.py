"""Dyadic frequency localization and the Bony product split.

The radial cutoff chi equals 1 below r=1, 0 above r=2, with a smooth
exponential bridge in between.  Low-pass at level j multiplies by
chi(|k|/2^j); the band at level j is the difference of consecutive low-pass
operators and is supported on the annulus 2^j <= |k| <= 2^{j+2}.

Every multiplier is radial and is held as its values on the grid's radial
table (`grid.RadialTable`): chi is evaluated once per distinct |k|^2 when a
low-pass symbol is asked for (`_low_pass`), a band's values are the
difference of two of them, and nothing is kept.

dyadic_blocks transforms once and yields the low block, then each band, each
through the grid's band engine (`grid.multiplier_blocks`, which gathers each
symbol only onto the slabs of its support box and forms one component at a
time), each component's last stage run into its rows of a new array; it
feeds paraproduct and the low-high sum T_f g.  Both need each factor's
blocks only once (Bahouri, Chemin & Danchin, ch. 2), so they take them as
they come, hold a few at a time and add each product into its sum one row
(leading index) at a time.

decompose keeps only the field's forward coefficients, one read-only half
spectrum, and makes each block when it is read (`LPBandSet`): a read of the
low block or of a band costs one block of the band engine and its last
inverse stage, bitwise the block dyadic_blocks yields, and `reconstruct()`
streams every block through one one-component buffer.  low_pass and
band_project read one block of decompose(f, j, j): its low block and its
one band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBandWarning, GridMismatchError
from .grid import (
    DerivedSnapshots,
    Grid,
    RealVectorField,
    forward_transform,
    last_inverse_stage,
    multiplier_blocks,
)


def _psi(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def chi(r) -> np.ndarray:
    """Radial cutoff: 1 on [0,1], 0 on [2,inf), smooth monotone bridge between."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    a = _psi(2.0 - r[mid])
    b = _psi(r[mid] - 1.0)
    out[mid] = a / (a + b)
    return out


def band_range(grid: Grid) -> tuple[int, int]:
    """Smallest and largest dyadic level with nonvacuous band content.

    The low-pass at j_min captures only the mean mode, and the low-pass at
    j_max + 1 is the identity on every resolvable mode, so the bands in
    [j_min, j_max] telescope exactly to Id - mean.
    """
    j_min = int(np.floor(np.log2(grid.k_min))) - 1
    j_max = int(np.ceil(np.log2(grid.k_max))) - 1
    return j_min, j_max


def _low_pass(grid: Grid, j: int) -> np.ndarray:
    """The values of S_j's symbol chi(|k|/2^j) on grid.radial_table.  |k|/2^j
    is formed by ldexp, exact as division by 2^j is, so that a level far
    outside band_range gives the mean-mode indicator or all ones."""
    with np.errstate(over="ignore"):
        return chi(np.ldexp(np.sqrt(grid.radial_table.k_squared), -j))


def dyadic_multipliers(grid: Grid, j_min: int, j_max: int):
    """Yield the values on grid.radial_table of the low-pass S_{j_min}, then
    of the Delta_j multiplier S_{j+1} - S_j for each j in [j_min, j_max]."""
    low = _low_pass(grid, j_min)
    yield low
    for j in range(j_min, j_max + 1):
        high = _low_pass(grid, j + 1)
        yield high - low
        low = high


def band_is_resolvable(grid: Grid, j: int) -> bool:
    return 2.0**j < grid.k_max and 2.0 ** (j + 2) > grid.k_min


def low_pass(f: RealVectorField, j: int) -> RealVectorField:
    """S_j: multiplier chi(|k|/2^j), the low block of decompose(f, j, j);
    read-only.  Above the range it is the identity."""
    return decompose(f, j, j).low


def band_project(f: RealVectorField, j: int) -> RealVectorField:
    """Delta_j = S_{j+1} - S_j, supported on 2^j <= |k| <= 2^{j+2}: the band
    of decompose(f, j, j), read-only."""
    if not band_is_resolvable(f.grid, j):
        warnings.warn(
            f"band j={j} lies outside the resolvable range of the grid",
            EmptyBandWarning,
            stacklevel=2,
        )
        return RealVectorField(f.grid, np.zeros_like(f.data))
    return decompose(f, j, j).bands[0]


@dataclass(frozen=True)
class LPBandSet:
    """The low-pass S_{j_min} f (`low`) and the bands Delta_j f for j in
    [j_min, j_max] (`bands`) of a field f, made when they are read.

    Keeps f's forward coefficients, one read-only half spectrum ((N + 2)/N
    of f's bytes), and nothing else.  Each read of `low` or of a band is one
    new read-only field: one block of `grid.multiplier_blocks` over the
    level's multiplier values (`dyadic_multipliers`), and its
    `last_inverse_stage`, bitwise the block `dyadic_blocks` yields.  A read
    recomputes its block, so a reader that needs a band twice keeps it.
    """

    grid: Grid
    coeff: np.ndarray
    j_min: int
    j_max: int

    def __post_init__(self):
        self.coeff.flags.writeable = False

    def _block(self, values: np.ndarray) -> RealVectorField:
        (read,) = multiplier_blocks(self.coeff, [values], self.grid)
        block = _samples(read, self.grid, self._lead)
        block.flags.writeable = False
        return RealVectorField(self.grid, block)

    @property
    def _lead(self) -> tuple:
        return self.coeff.shape[: self.coeff.ndim - self.grid.d]

    @property
    def low(self) -> RealVectorField:
        return self._block(_low_pass(self.grid, self.j_min))

    @property
    def bands(self) -> DerivedSnapshots:
        """Delta_j f for j = j_min..j_max, a read-only sequence made on read."""
        def band(i: int) -> RealVectorField:
            _, values = dyadic_multipliers(self.grid, self.j_min + i, self.j_min + i)
            return self._block(values)

        return DerivedSnapshots(self.j_max - self.j_min + 1, band)

    def reconstruct(self) -> RealVectorField:
        """low + bands[0] + bands[1] + ..., added in that order into the low
        block: one pass of the band engine over every multiplier, each band
        component's last stage run into one reused one-component buffer, so
        the sum holds one field and one component beside the engine's
        one-component work array."""
        grid = self.grid
        blocks = multiplier_blocks(
            self.coeff, dyadic_multipliers(grid, self.j_min, self.j_max), grid)
        out = _samples(next(blocks), grid, self._lead)
        band = np.empty(grid.shape)
        for read in blocks:
            for i, row in enumerate(out.reshape((-1,) + grid.shape)):
                row += last_inverse_stage(read(i), grid, out=band)
            del read  # its gathered symbol goes before the next is gathered
        return RealVectorField(grid, out)


def _samples(read, grid: Grid, lead: tuple) -> np.ndarray:
    """A band-engine block's samples, a new array of shape lead + grid.shape:
    each component read and its last inverse stage run into its row, one at
    a time."""
    out = np.empty(lead + grid.shape)
    for i, row in enumerate(out.reshape((-1,) + grid.shape)):
        last_inverse_stage(read(i), grid, out=row)
    return out


def dyadic_blocks(grid: Grid, data: np.ndarray, j_min: int, j_max: int):
    """Yield S_{j_min} data, then Delta_j data for j in [j_min, j_max], over the last
    grid.d axes: one forward transform, then one block of the band engine
    each, its last inverse stage run one component at a time into a new
    array."""
    coeff = forward_transform(data, grid)
    for read in multiplier_blocks(coeff, dyadic_multipliers(grid, j_min, j_max), grid):
        samples = _samples(read, grid, data.shape[: data.ndim - grid.d])
        del read  # its gathered symbol goes before the samples are used
        yield samples


def decompose(f: RealVectorField, j_min: int | None = None,
              j_max: int | None = None) -> LPBandSet:
    """Split f into its resolvable dyadic bands; exact telescoping by
    construction.  One forward transform, kept by the LPBandSet, which makes
    each block when it is read."""
    lo, hi = band_range(f.grid)
    j_min = lo if j_min is None else j_min
    j_max = hi if j_max is None else j_max
    return LPBandSet(f.grid, forward_transform(f.data, f.grid), j_min, j_max)


def _low_high_sum(blocks_f, blocks_g):
    """sum_b (sum_{a <= b - 2} f_a) * g_b over aligned block sequences led by the
    low block, streamed: f_{b-1} joins the low-pass sum once block b has used
    it, so one f block waits, and no g block is alive while the next is made.
    Each product is formed one row (leading index) at a time and added into
    its row of the sum, so for f[:, None] and g[None] no temporary holds
    every pair.  The first += on the float zero makes a new array, so no
    block is written to."""
    total = low = 0.0
    blocks_g = iter(blocks_g)
    for b, f_b in enumerate(blocks_f):
        g_b = next(blocks_g)
        if b >= 2:
            if b == 2:
                shape = np.broadcast_shapes(low.shape, g_b.shape)
                total = np.zeros(shape)
            for out, low_i, g_i in zip(total, np.broadcast_to(low, shape),
                                       np.broadcast_to(g_b, shape)):
                out += low_i * g_i
        if b:
            low += prev_f
        prev_f = f_b
        del g_b
    return total


def low_high(grid: Grid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """T_f g = sum_j S_{j-1} f * Delta_j g over the last grid.d axes; leading axes
    broadcast, so f[:, None] and g[None] give T_{f_i} g_j for every pair (i, j)."""
    levels = band_range(grid)
    return _low_high_sum(dyadic_blocks(grid, f, *levels), dyadic_blocks(grid, g, *levels))


def paraproduct(grid: Grid, f: np.ndarray, g: np.ndarray):
    """Bony split of the pointwise product of two scalar sample arrays.

    Returns (T_f g, T_g f, Pi) with T_f g = sum_j S_{j-1} f * Delta_j g, the
    symmetric term, and Pi collecting |j - j'| <= 1 interactions together with
    the below-range low block.  The three parts sum to f*g pointwise up to
    roundoff because the blocks partition every mode of both factors.

    One pass over the blocks of both factors holds the current and previous
    block of each, the two low-pass sums and the three parts.  The low-pass
    sum of f gains f_{b-1} once block b has used it, which adds the blocks
    in the order `_low_high_sum` does, so each part takes the same
    operations in the same order as sums over lists of all the blocks.  Each
    product is formed one row (leading index) at a time and added into its
    row of the part, so no temporary holds a whole field.
    """
    if f.shape != grid.shape or g.shape != grid.shape:
        raise GridMismatchError("paraproduct factors must live on the given grid")
    levels = band_range(grid)
    tfg, tgf, pi = (np.zeros(grid.shape) for _ in range(3))
    low_f = low_g = 0.0
    for b, (f_b, g_b) in enumerate(zip(dyadic_blocks(grid, f, *levels),
                                       dyadic_blocks(grid, g, *levels))):
        for i in range(grid.N):
            if b >= 2:
                tfg[i] += low_f[i] * g_b[i]
                tgf[i] += low_g[i] * f_b[i]
            if b:
                pi[i] += prev_f[i] * g_b[i] + f_b[i] * prev_g[i]
            pi[i] += f_b[i] * g_b[i]
        if b:
            low_f += prev_f
            low_g += prev_g
        prev_f, prev_g = f_b, g_b
    return tfg, tgf, pi
