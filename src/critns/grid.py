"""Periodic grids, real vector fields and Fourier-multiplier operators.

The box is [-L/2, L/2)^d sampled with N points per axis, N an even 2,3-smooth
number.  Wavenumbers are k = 2*pi*m/L.  The transform pair is real-to-complex
(norm="forward", so the mode-m coefficient of exp(i k.x) has modulus 1) and
stores the half spectrum: m in FFT order on the leading axes, m = 0..N/2 on
the last.  A full-spectrum sum counts each interior column of the last axis
twice (`Grid.multiplicity`).  Odd-order derivatives zero the unpaired Nyquist
mode |m| = N/2 on every axis.

Both transforms take an optional extent M < N/2 and then hold only the box
|m| <= M in `RetainedBox` layout: the forward returns it, the inverse reads it.
One helper, `_complex_stages`, runs the complex 1-D stages of either
direction, each only over the lines the box reaches, bitwise equal to rfftn
and to irfftn of the zero-padded box.  The full inverse runs the same stages;
the full forward is rfftn, whose staged form is bitwise equal but slower.
Neither direction writes into its input.  The real last-axis stages are
numpy.fft's rfft and irfft, the pocketfft of scipy.fft and bitwise equal to
it, which write into a given array; the complex stages are in-place
scipy.fft calls.  The pruned inverse works in the box's last-axis columns
0..M only: its irfft zero-pads each line to N/2 + 1 inside the call.
Every array a staged transform (all but the full forward) writes belongs to
a `TransformPlan` for one grid shape, extent and leading shape, and a
transform refuses a plan made for another: the solver's stepping loop keeps
one per run, a one-shot call builds a fresh one, and both run the same
code.  numpy.fft has no worker setting, so the real stages run on one
thread and `scipy.fft.set_workers` reaches only the complex ones.

Every radial symbol m(|k|^2), the band and heat-kernel multipliers, the heat
factor and the dealias mask, is held as its values at the distinct |k|^2 of
the grid's `RadialTable`, a 1-D array of a few thousand entries at 64^3,
never as a half-spectrum array.  The table reads each symbol's support
extent M off its values (`RadialTable.extent_of`).  `multiplier_blocks`,
the one band engine, gathers each symbol onto the slabs of its box |m| <= M
only (`_box_slabs`, the transforms' own slabs), forms the product there and
runs the pruned complex stages; its callers run the last stage.  `HeatFlow`
gathers exp(-t|k|^2) onto the half spectrum and `RetainedBox` its mask onto
the box.

A `RetainedBox` is the index box |m| <= M of the half spectrum that holds
every mode a truncation mask keeps, stored as a dense array of its own; it
carries the Grid's spectral attributes restricted to the box, so spectral
arithmetic (`_leray_coefficients`) reads either one.  One gather and one
scatter, slab copies over the cached `_box_slabs`, serve both transforms and
the box, and only the inverse transform scatters.  Every memo is kept by the
code that builds it: the grid's own spectral arrays, the radial table among
them, are cached properties, and `solver.dealias_box` is `functools.cache`d
on the frozen, hashable Grid; symbol values are made when they are asked
for and kept by no one.  `_box_slabs` is keyed on (d, N, M) instead, and the
stage lines `_stage_lines` on (d, N, M, direction): their slices do not
depend on L, so grids that differ only in L share them.

`DerivedSnapshots` is the one sequence of fields made on read: every
trajectory that does not hold its snapshots and every `lp.LPBandSet` hands
its fields out through it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
import scipy.fft

from .errors import DomainError, GridMismatchError, InvalidFieldError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sampling lattice on a centered box."""

    d: int
    N: int
    L: float = 2.0 * np.pi

    def __post_init__(self):
        if self.d not in (2, 3):
            raise DomainError(f"spatial dimension must be 2 or 3, got {self.d}")
        if self.N < 8 or self.N % 2 != 0 or not self._fft_friendly(self.N):
            raise DomainError(
                f"N must be an even 2,3-smooth number >= 8 (powers of two preferred), got {self.N}"
            )
        if not (np.isfinite(self.L) and self.L > 0):
            raise DomainError(f"box side must be finite and positive, got {self.L}")
        # the box volume, the cell volume and the largest |k|^2 must be finite
        # positive doubles; numpy's power gives inf or 0 where Python's raises
        with np.errstate(over="ignore", under="ignore"):
            sizes = (np.float64(self.L) ** self.d, np.float64(self.spacing) ** self.d,
                     self.k_max**2)
        if not all(0.0 < size < np.inf for size in sizes):
            raise DomainError(f"box side L = {self.L} makes L^d, (L/N)^d or the largest "
                              f"|k|^2 = d (pi N / L)^2 overflow or vanish in double precision")
        # one complex d-component half spectrum must fit in an array
        nbytes = 16 * self.d * self.N ** (self.d - 1) * (self.N // 2 + 1)
        if nbytes > np.iinfo(np.intp).max:
            raise DomainError(f"a {self.d}-component half spectrum of N = {self.N} takes "
                              f"{nbytes} bytes, more than an array can hold")

    @staticmethod
    def _fft_friendly(n: int) -> bool:
        for p in (2, 3):
            while n % p == 0:
                n //= p
        return n == 1

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def spacing(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.d

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """1D coordinates, origin at the box center."""
        return -self.L / 2.0 + self.spacing * np.arange(self.N)

    def coordinate_mesh(self) -> list:
        axes = [self.axis_coords] * self.d
        return list(np.meshgrid(*axes, indexing="ij"))

    def periodic_offsets(self, center=None) -> list:
        """Per-axis offsets x_a - c_a wrapped into [-L/2, L/2), the periodic
        distance to a center (the origin if None), each a 1-D array shaped to
        broadcast over the grid."""
        c = np.zeros(self.d) if center is None else np.asarray(center, dtype=float)
        out = []
        for axis, ci in zip(range(self.d), c):
            dx = (self.axis_coords - ci + self.L / 2.0) % self.L - self.L / 2.0
            out.append(dx.reshape([self.N if a == axis else 1 for a in range(self.d)]))
        return out

    @property
    def spectral_shape(self) -> tuple:
        """Shape of the stored half spectrum: the last axis keeps m = 0..N/2."""
        return self.shape[:-1] + (self.N // 2 + 1,)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Full-spectrum count of each stored coefficient along the last axis:
        1 for the m = 0 and m = N/2 columns, 2 for the interior ones."""
        w = np.full(self.N // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def _mesh(self, zero_nyquist: bool) -> list:
        """Per-axis wavenumbers, each shaped to broadcast over the half spectrum."""
        out = []
        for axis in range(self.d):
            freq = scipy.fft.rfftfreq if axis == self.d - 1 else scipy.fft.fftfreq
            m = freq(self.N, d=1.0 / self.N)
            if zero_nyquist:
                m[self.N // 2] = 0.0
            shape = [m.size if a == axis else 1 for a in range(self.d)]
            out.append((2.0 * np.pi * m / self.L).reshape(shape))
        return out

    @cached_property
    def wavenumber_mesh(self) -> list:
        return self._mesh(zero_nyquist=False)

    @cached_property
    def deriv_wavenumber_mesh(self) -> list:
        """Wavenumbers for odd-order derivatives: the unpaired Nyquist mode is
        zeroed so first derivatives of real fields stay Hermitian-consistent."""
        return self._mesh(zero_nyquist=True)

    @cached_property
    def inv_deriv_k_squared(self) -> np.ndarray:
        """1/|k|^2 on the derivative mesh, 0 where |k| vanishes (Leray, pressure)."""
        k2 = sum(ka**2 for ka in self.deriv_wavenumber_mesh)
        inv = np.zeros_like(k2)
        nz = k2 > 0
        inv[nz] = 1.0 / k2[nz]
        return inv

    @property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the half spectrum, a fresh array: the grid keeps only its
        distinct values (`radial_table`)."""
        return sum(ka**2 for ka in self.wavenumber_mesh)

    @cached_property
    def radial_table(self) -> "RadialTable":
        """The distinct |k|^2 of the half spectrum, read-only; see RadialTable."""
        k2, inverse = np.unique(self.k_squared, return_inverse=True)
        inverse = inverse.reshape(self.spectral_shape)
        # the largest |m| on any axis of each entry, index i holding min(i, N - i)
        box = np.zeros(self.spectral_shape, dtype=np.intp)
        for axis, n in enumerate(self.spectral_shape):
            i = np.arange(n)
            shape = [n if a == axis else 1 for a in range(self.d)]
            np.maximum(box, np.minimum(i, self.N - i).reshape(shape), out=box)
        extent = np.zeros(k2.size, dtype=np.intp)
        np.maximum.at(extent, inverse.ravel(), box.ravel())
        table = RadialTable(k2, inverse, np.maximum.accumulate(extent))
        for arr in table:
            arr.flags.writeable = False
        return table

    @property
    def k_min(self) -> float:
        """Smallest nonzero wavenumber magnitude."""
        return 2.0 * np.pi / self.L

    @property
    def k_max_axis(self) -> float:
        """Per-axis Nyquist wavenumber."""
        return np.pi * self.N / self.L

    @property
    def k_max(self) -> float:
        """Largest resolvable wavenumber magnitude (corner of the spectral cube)."""
        return np.sqrt(self.d) * self.k_max_axis

    def compatible(self, other: "Grid") -> bool:
        return self.d == other.d and self.N == other.N and np.isclose(self.L, other.L)


class RadialTable(NamedTuple):
    """The distinct |k|^2 of a grid's half spectrum, on which every radial
    symbol m(|k|^2) is held as its values: a 1-D array aligned with
    `k_squared`, the symbol evaluated once per distinct |k|^2.

    `k_squared` holds the distinct |k|^2 in ascending order, `inverse`
    (half-spectrum shaped) the position of each entry's |k|^2 in it, so
    np.take(values, inverse) is the symbol on the half spectrum, and
    `extent[i]` the largest |m| on any axis over the entries with |k|^2 <=
    k_squared[i].
    """

    k_squared: np.ndarray
    inverse: np.ndarray
    extent: np.ndarray

    def extent_of(self, values: np.ndarray) -> int:
        """The support extent M of the symbol with these values: the table's
        extent at the largest |k|^2 where the symbol is nonzero (0 if it is
        zero everywhere), so that it is zero wherever |m| > M on some axis."""
        nonzero = np.flatnonzero(values)
        return int(self.extent[nonzero[-1]]) if nonzero.size else 0


class RetainedBox:
    """The index box |m| <= M on every axis of the half spectrum, M the
    largest |m| of any mode a radial truncation mask keeps.

    Box coefficients are stored densely with shape (2M+1,)*(d-1) + (M+1,):
    the leading axes hold m = 0..M then -M..-1 (FFT order, the two contiguous
    slabs 0..M and N-M..N-1 of the full axis), the last axis m = 0..M.  M < N/2,
    so no Nyquist mode is in the box.  The box is a tensor product of per-axis
    index sets, so its wavenumber meshes stay 1D broadcasts, and it carries
    the attributes `_leray_coefficients` and the solver read from a Grid (d,
    spectral_shape, deriv_wavenumber_mesh, inv_deriv_k_squared, k_squared,
    multiplicity), each restricted to the box, plus `mask`, the truncation mask
    inside the box.  The caller gives the mask as its values on
    grid.radial_table; M is read off the table and the mask gathered onto the
    box.  Every array is read-only; scratch buffers belong to the caller.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        d, N, table = grid.d, grid.N, grid.radial_table
        M = table.extent_of(values)
        self.grid, self.d, self.extent = grid, d, M
        self.spectral_shape = _box_shape(d, M)
        index = [np.r_[0:M + 1, N - M:N]] * (d - 1) + [np.arange(M + 1)]
        self.deriv_wavenumber_mesh = [np.take(ka, index[a], axis=a)
                                      for a, ka in enumerate(grid.deriv_wavenumber_mesh)]
        radial = self.gather(table.inverse)
        self.k_squared = np.take(table.k_squared, radial)
        self.inv_deriv_k_squared = self.gather(grid.inv_deriv_k_squared)
        self.multiplicity = grid.multiplicity[: M + 1]
        self.mask = np.take(values, radial)
        for arr in (*self.deriv_wavenumber_mesh, self.k_squared, self.inv_deriv_k_squared,
                    self.multiplicity, self.mask):
            arr.flags.writeable = False

    def gather(self, coeff: np.ndarray) -> np.ndarray:
        """The box entries of half-spectrum coefficients (trailing d axes)."""
        return _gather(coeff, self.grid, self.extent)


def _require_same_grid(*fields) -> Grid:
    g = fields[0].grid
    for f in fields[1:]:
        if not g.compatible(f.grid):
            raise GridMismatchError("fields live on different grids")
    return g


@dataclass(frozen=True)
class RealVectorField:
    """Real samples of a vector field; data has shape (components, N, ..., N)."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != self.grid.d + 1 or self.data.shape[1:] != self.grid.shape:
            raise InvalidFieldError(
                f"data shape {self.data.shape} incompatible with grid {self.grid.shape}"
            )
        if self.data.dtype != np.float64:
            object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    def require_finite(self) -> "RealVectorField":
        if not np.all(np.isfinite(self.data)):
            raise InvalidFieldError("field contains non-finite samples")
        return self

    def __add__(self, other: "RealVectorField") -> "RealVectorField":
        _require_same_grid(self, other)
        return RealVectorField(self.grid, self.data + other.data)

    def __sub__(self, other: "RealVectorField") -> "RealVectorField":
        _require_same_grid(self, other)
        return RealVectorField(self.grid, self.data - other.data)

    def __mul__(self, scalar: float) -> "RealVectorField":
        return RealVectorField(self.grid, self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "RealVectorField":
        return RealVectorField(self.grid, -self.data)

    def copy(self) -> "RealVectorField":
        return RealVectorField(self.grid, self.data.copy())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


class DerivedSnapshots(Sequence):
    """Fields made when they are read: item i is make(i), handed out
    read-only.  Nothing is kept between reads, so each read remakes the
    field (reads a snapshot's file, inverts kept coefficients, recomputes a
    derived snapshot or runs one band of a kept spectrum), a reduction holds
    one field however many there are, and an error in making it surfaces at
    the read.  A reader that needs an item twice keeps it."""

    def __init__(self, count: int, make):
        self._count = count
        self._make = make

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> RealVectorField:
        snap = self._make(range(self._count)[i])
        snap.data.flags.writeable = False
        return snap


def _lead_slices(N: int, M: int) -> list:
    """The |m| <= M indices of a leading axis: 0..M and N-M..N-1, or all of it."""
    if 2 * M + 1 >= N:
        return [slice(None)]
    return [slice(0, M + 1), slice(N - M, N)] if M > 0 else [slice(0, 1)]


def _box_shape(d: int, M: int) -> tuple:
    """The trailing shape of the box |m| <= M in RetainedBox layout."""
    return (2 * M + 1,) * (d - 1) + (M + 1,)


@cache
def _box_slabs(d: int, N: int, M: int) -> tuple:
    """(box slices, half-spectrum slices) over the trailing d axes of each
    slab of the box |m| <= M in RetainedBox layout, one per choice of the
    0..M or -M..-1 range on every leading axis.  When 2M+1 >= N a leading
    axis has one range, all of it, so the one slab spans every leading index
    (only its half-spectrum slices are meant: `multiplier_blocks`; the
    transforms' boxes have M < N/2).  Built once per (d, N, M), not per Grid:
    the slices do not depend on L."""
    lead = list(zip([slice(0, M + 1), slice(M + 1, 2 * M + 1)], _lead_slices(N, M)))
    last = [(slice(0, M + 1), slice(0, M + 1))]
    return tuple(tuple(zip(*combo)) for combo in itertools.product(*([lead] * (d - 1) + [last])))


def _gather(half: np.ndarray, grid: Grid, M: int, out: np.ndarray | None = None) -> np.ndarray:
    """The box |m| <= M of half-spectrum coefficients in RetainedBox layout,
    written into out if given."""
    if out is None:
        out = np.empty(half.shape[: half.ndim - grid.d] + _box_shape(grid.d, M), half.dtype)
    for box, part in _box_slabs(grid.d, grid.N, M):
        out[(..., *box)] = half[(..., *part)]
    return out


def _scatter(coeff: np.ndarray, grid: Grid, M: int, out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum coefficients that hold box coefficients on the box |m| <= M
    and zero outside it, or, written into out if given, their last-axis
    columns 0..M: out is a pruned inverse's work array (see
    `TransformPlan`), zeroed before the box is written."""
    if coeff.shape[coeff.ndim - grid.d:] != _box_shape(grid.d, M):
        raise InvalidFieldError(f"coefficients of shape {coeff.shape} are not the box "
                                f"of extent {M}")
    if out is None:
        out = np.zeros(coeff.shape[: coeff.ndim - grid.d] + grid.spectral_shape, coeff.dtype)
    else:
        out.fill(0.0)
    for box, part in _box_slabs(grid.d, grid.N, M):
        out[(..., *part)] = coeff[(..., *box)]
    return out


class TransformPlan:
    """The buffers of the transform pair for one grid shape, extent M (None
    for the whole half spectrum) and shape of the leading axes, each
    allocated when first used and overwritten by every later transform
    through the plan.

    `padded` is the inverse's work array: with an extent, the box's
    last-axis columns 0..M over every leading index, shape lead +
    (N,)*(d-1) + (M+1,); without one, the whole half spectrum.  `spectrum`
    is the forward's last-axis rfft; `box` the forward's result and
    `samples` the inverse's.  A result written through a plan is valid
    until the next transform in the same direction through it; `padded` is
    dead between one inverse and the next, so an owner may lend it out.
    """

    def __init__(self, grid: Grid, extent: int | None = None, lead: tuple = ()):
        self.grid, self.extent, self.lead = grid, extent, tuple(lead)

    @cached_property
    def padded(self) -> np.ndarray:
        last = self.grid.N // 2 if self.extent is None else self.extent
        return np.zeros(self.lead + self.grid.shape[:-1] + (last + 1,), dtype=np.complex128)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.empty(self.lead + self.grid.spectral_shape, dtype=np.complex128)

    @cached_property
    def box(self) -> np.ndarray:
        return np.empty(self.lead + _box_shape(self.grid.d, self.extent), dtype=np.complex128)

    @cached_property
    def samples(self) -> np.ndarray:
        return np.empty(self.lead + self.grid.shape)


def _plan_for(plan, grid: Grid, extent: int | None, lead: tuple) -> TransformPlan:
    """plan, or a fresh plan for grid, extent and the leading shape lead if
    None; InvalidFieldError if plan was made for another grid shape, extent
    or leading shape, whose buffers would not fit or would hold stale
    columns."""
    if plan is not None and (plan.grid.shape, plan.extent, plan.lead) != (grid.shape, extent, lead):
        raise InvalidFieldError(f"a transform plan for (grid shape, extent, leading shape) "
                                f"{plan.grid.shape, plan.extent, plan.lead} cannot serve "
                                f"{grid.shape, extent, lead}")
    return TransformPlan(grid, extent, lead) if plan is None else plan


def forward_transform(data: np.ndarray, grid: Grid, extent: int | None = None,
                      plan: TransformPlan | None = None) -> np.ndarray:
    """Real-to-complex FFT over the spatial axes with the 1/N^d normalization;
    the result has the half-spectrum shape grid.spectral_shape.

    With an extent M < N/2 the result is only the box |m| <= M, laid out as a
    RetainedBox of that extent lays out its coefficients, and bitwise equal to
    the box entries of the whole transform.  rfftn's 1-D stages run one by
    one: an rfft along the last axis (numpy.fft, the same pocketfft), scaled
    by rfftn's own factor; then the complex stages (`_complex_stages`),
    pruned to the box; then a gather into the box layout.  The rfft and the
    box are written into plan's `spectrum` and `box` (a plan for grid, M and
    data's leading axes, see `_plan_for`), or into a fresh plan's if none is
    given.
    """
    plan = _plan_for(plan, grid, extent, data.shape[: data.ndim - grid.d])
    if extent is None:
        return scipy.fft.rfftn(data, axes=range(data.ndim - grid.d, data.ndim), norm="forward")
    half = np.fft.rfft(data, axis=-1, out=plan.spectrum)
    # pocketfft's factor: 1/N^d formed in long double, then rounded, applied
    # to each real and imaginary part of the last-axis stage
    flat = half.view(np.float64)
    np.multiply(flat, np.float64(np.longdouble(1) / np.longdouble(grid.N**grid.d)), out=flat)
    _complex_stages(half, grid, extent, inverse=False)
    return _gather(half, grid, extent, out=plan.box)


@cache
def _stage_lines(d: int, N: int, M: int, inverse: bool) -> tuple:
    """(axis, line slices) over the trailing d axes of every complex stage of
    `_complex_stages`, in the order they run.  Built once per (d, N, M,
    direction), like `_box_slabs`."""
    lead = _lead_slices(N, M)
    out = []
    for axis in range(d - 1):
        held = range(axis + 1, d - 1) if inverse else range(axis)
        for box in itertools.product(lead, repeat=len(held)):
            index = [slice(None)] * (d - 1) + [slice(0, M + 1)]
            index[held.start:held.stop] = box
            out.append((axis - d, (..., *index)))
    return tuple(out)


def _complex_stages(work: np.ndarray, grid: Grid, extent: int, inverse: bool) -> None:
    """The unscaled complex stages of rfftn (fft) or, if inverse, of irfftn
    (ifft), along each leading axis in ascending order, in place in work's
    last-axis columns 0..extent.  A stage runs only over the lines whose other
    leading axes that hold coefficients, the axes already transformed going
    forward and those not yet transformed going back, are in the box
    |m| <= extent."""
    stage, norm = (scipy.fft.ifft, "forward") if inverse else (scipy.fft.fft, "backward")
    for axis, index in _stage_lines(grid.d, grid.N, extent, inverse):
        lines = work[index]
        done = stage(lines, axis=axis, norm=norm, overwrite_x=True)
        # overwrite_x permits writing into lines but does not promise it
        if not np.may_share_memory(done, lines):
            lines[...] = done


def last_inverse_stage(partial: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """irfftn's last stage, the irfft along the last axis (numpy.fft, the same
    pocketfft), of the whole of a partial transform (`multiplier_blocks`) or
    of any leading slice of it, written into out if given."""
    return np.fft.irfft(partial, n=grid.N, axis=-1, norm="forward", out=out)


def inverse_transform(coeff: np.ndarray, grid: Grid, extent: int | None = None,
                      plan: TransformPlan | None = None) -> np.ndarray:
    """Inverse of forward_transform(..., extent): real samples of shape grid.shape.

    coeff is copied, or with an extent M < N/2 scattered, into plan's
    `padded` work array (a plan for grid, the extent and coeff's leading
    axes, see `_plan_for`, or a fresh plan's if none is given), and
    irfftn's stages run in place there: the complex ones
    (`_complex_stages`), pruned to the box |m| <= M, then an irfft along the
    last axis into plan's `samples`, which zero-pads the columns 0..M of each
    line to the whole half spectrum.  Whole-spectrum coefficients that a
    caller formed in the plan's `padded` itself are not copied, and are
    overwritten; any other coeff is left unwritten.  The samples are
    irfftn's bit for bit."""
    plan = _plan_for(plan, grid, extent, coeff.shape[: coeff.ndim - grid.d])
    if extent is None:
        if coeff is not plan.padded:
            np.copyto(plan.padded, coeff)
    else:
        _scatter(np.asarray(coeff, dtype=np.complex128), grid, extent, plan.padded)
    # over the work array's columns: 0..M, or the whole half spectrum's
    _complex_stages(plan.padded, grid, plan.padded.shape[-1] - 1, inverse=True)
    return last_inverse_stage(plan.padded, grid, out=plan.samples)


def multiplier_blocks(coeff: np.ndarray, symbols, grid: Grid):
    """For each radial symbol, given as its values on grid.radial_table, yield
    symbol * coeff after irfftn's complex stages: its last_inverse_stage is
    bitwise equal to inverse_transform(coeff * symbol).

    The symbol's support extent M is read off the table, and the product is
    formed on the slabs of the box |m| <= M only, each slab's symbol gathered
    from the values, in one work array that every block reuses (a block is
    valid until the next is asked for): only the last-axis columns the
    previous block wrote are zeroed again, less those the new product
    overwrites.  The complex stages run in place, pruned to the box.  symbols
    is read lazily, one per block.
    """
    table = grid.radial_table
    work = np.zeros(coeff.shape, coeff.dtype)
    dirty = 0  # work is zero from last-axis column `dirty` on
    for values in symbols:
        extent = table.extent_of(values)
        # a box spanning every leading index overwrites its columns 0..extent
        covered = extent + 1 if 2 * extent + 1 >= grid.N else 0
        work[..., covered:dirty] = 0.0
        for _, slab in _box_slabs(grid.d, grid.N, extent):
            np.multiply(coeff[(..., *slab)], np.take(values, table.inverse[slab]),
                        out=work[(..., *slab)])
        dirty = extent + 1
        _complex_stages(work, grid, extent, inverse=True)
        yield work


def spectral_divergence_ratio(f: RealVectorField) -> float:
    """max_k |k.u_hat(k)| / max_k |u_hat(k)| over components.  The sum
    k.u_hat is accumulated in place; the i of the divergence i k.u_hat is left
    out, as it does not change the modulus."""
    grid = f.grid
    coeff = forward_transform(f.data, grid)
    terms = zip(grid.deriv_wavenumber_mesh, coeff)
    ka, comp = next(terms)
    div = ka * comp
    for ka, comp in terms:
        div += ka * comp
    top = np.max(np.abs(coeff))
    if top == 0.0:
        return 0.0
    return float(np.max(np.abs(div)) / top)


def _leray_coefficients(coeff: np.ndarray, grid: Grid,
                        scratch: tuple | np.ndarray | None = None) -> np.ndarray:
    """In-place Leray projection of a (d, ...) coefficient array.  scratch,
    two arrays of one component's shape and dtype (a pair of separate
    arrays or one array of two), holds k.u and one term; it is allocated if
    not given."""
    kmesh = grid.deriv_wavenumber_mesh
    if scratch is None:
        scratch = np.empty((2,) + coeff.shape[1:], coeff.dtype)
    kdotu, term = scratch
    np.multiply(kmesh[0], coeff[0], out=kdotu)
    for c in range(1, len(kmesh)):
        kdotu += np.multiply(kmesh[c], coeff[c], out=term)
    kdotu *= grid.inv_deriv_k_squared
    for c, ka in enumerate(kmesh):
        coeff[c] -= np.multiply(ka, kdotu, out=term)
    return coeff


def leray_project(f: RealVectorField) -> RealVectorField:
    """Project onto divergence-free fields; the k=0 (mean) mode passes through."""
    f.require_finite()
    if f.ncomp != f.grid.d:
        raise InvalidFieldError("Leray projection needs one component per axis")
    coeff = forward_transform(f.data, f.grid)
    _leray_coefficients(coeff, f.grid)
    return RealVectorField(f.grid, inverse_transform(coeff, f.grid))


def _check_time(t: float) -> None:
    """DomainError unless the heat-flow time t is finite and >= 0."""
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"heat semigroup needs a finite t >= 0, got {t}")


class HeatFlow:
    """exp(t*Laplacian) f at any number of times t from one forward transform
    of f, made once and kept; each value at t > 0 is bitwise equal to
    heat_semigroup(f, t)."""

    def __init__(self, f: RealVectorField):
        self.grid = f.grid
        self.spectrum = forward_transform(f.require_finite().data, f.grid)
        self.spectrum.flags.writeable = False

    def coefficients(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """Half-spectrum coefficients of the flow at t, exp(-t|k|^2) times the
        kept ones, in a fresh array or written into out if given; the factor
        is evaluated once per distinct |k|^2 and gathered
        (`Grid.radial_table`)."""
        _check_time(t)
        table = self.grid.radial_table
        return np.multiply(self.spectrum, np.take(np.exp(-t * table.k_squared), table.inverse),
                           out=out)

    def at(self, t: float) -> RealVectorField:
        """The flow at t, transformed back from its coefficients (so at t = 0
        it is f at roundoff, where heat_semigroup returns f itself); the
        coefficients are formed in the inverse's own work array."""
        grid = self.grid
        plan = TransformPlan(grid, lead=self.spectrum.shape[: self.spectrum.ndim - grid.d])
        return RealVectorField(grid, inverse_transform(self.coefficients(t, plan.padded), grid,
                                                       plan=plan))


def heat_semigroup(f: RealVectorField, t: float) -> RealVectorField:
    """exp(t*Laplacian): multiplier exp(-t|k|^2).  Identity at t=0."""
    _check_time(t)
    if t == 0.0:
        return f.require_finite().copy()
    return HeatFlow(f).at(t)


def heat_derivative_symbol(grid: Grid, tau: float) -> np.ndarray:
    """The values on grid.radial_table of K(tau) = tau * d/dtau
    exp(tau*Laplacian), -tau|k|^2 exp(-tau|k|^2).  The symbol vanishes at
    k = 0 and, where exp(-tau|k|^2) underflows, above some |k|^2; on a single
    mode k its value over tau peaks at tau = 1/|k|^2, at -exp(-1)."""
    k2 = grid.radial_table.k_squared
    return -tau * k2 * np.exp(-tau * k2)


def zero_field(grid: Grid, ncomp: int | None = None) -> RealVectorField:
    return RealVectorField(grid, np.zeros((ncomp or grid.d,) + grid.shape))
