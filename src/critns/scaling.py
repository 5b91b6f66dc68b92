"""Dilation/translation operators and scale-core orthogonality functionals.

The basic operator sends f to (1/lambda) f((x - x0)/lambda), which preserves
L^d and critical Besov norms.  Cores snap to the nearest grid point, so a unit
scale is a whole-cell roll and a dyadic contraction an exact index gather;
every other scale evaluates the trigonometric interpolant of the band-limited
samples on the mapped lattice.  Points mapped outside the box read zero (the
field is treated as compactly supported inside the box, so the periodic
images are discarded rather than wrapped).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SupportOverflowError, UndersampledScaleError
from .grid import DerivedSnapshots, RealVectorField, forward_transform
from .norms import lebesgue_norm
from .solver import Trajectory

SUPPORT_AMPLITUDE_THRESHOLD = 1e-6
# the level past which orthogonality_check's scale ratio or core separation
# counts as diverging
ORTHOGONALITY_THETA = 2.0**6


@dataclass(frozen=True)
class ScaleCore:
    """A dilation scale and a translation core."""

    lam: float
    x0: tuple

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise DomainError(f"scale must be finite and positive, got {self.lam}")
        x0 = tuple(float(v) for v in self.x0)
        if not all(map(math.isfinite, x0)):
            raise DomainError(f"core must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)

    @staticmethod
    def identity(d: int) -> "ScaleCore":
        return ScaleCore(1.0, (0.0,) * d)

    def inverse(self) -> "ScaleCore":
        return ScaleCore(1.0 / self.lam, tuple(-v / self.lam for v in self.x0))

    def compose_inverse_of(self, frame: "ScaleCore") -> "ScaleCore":
        """Parameters of Lambda_frame^{-1} Lambda_self (both acting spatially)."""
        lam = self.lam / frame.lam
        x0 = tuple((a - b) / frame.lam for a, b in zip(self.x0, frame.x0))
        return ScaleCore(lam, x0)


@dataclass
class ScaleCoreSequence:
    entries: list

    def __post_init__(self):
        if not self.entries:
            raise DomainError("scale/core sequence must be nonempty")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, n: int) -> ScaleCore:
        """Entry n; DomainError unless 0 <= n < len."""
        if not 0 <= n < len(self.entries):
            raise DomainError(f"sequence index {n} outside the range [0, {len(self.entries)})")
        return self.entries[n]


class OrthogonalityVerdict(Enum):
    ORTHOGONAL_BY_SCALES = "Orthogonal-by-scales"
    ORTHOGONAL_BY_CORES = "Orthogonal-by-cores"
    NOT_ORTHOGONAL = "NotOrthogonal"


def _support_extent(f: RealVectorField):
    """Per-axis (lo, hi) coordinates where amplitude exceeds the support threshold."""
    top = f.max_abs()
    if top == 0.0:
        return None
    mask = np.any(np.abs(f.data) > SUPPORT_AMPLITUDE_THRESHOLD * top, axis=0)
    coords = f.grid.axis_coords
    extents = []
    for axis in range(f.grid.d):
        other = tuple(a for a in range(f.grid.d) if a != axis)
        line = np.any(mask, axis=other)
        idx = np.nonzero(line)[0]
        extents.append((coords[idx[0]], coords[idx[-1]]))
    return extents


def _check_support(f: RealVectorField, sc: ScaleCore, name: str = "field") -> None:
    extents = _support_extent(f)
    if extents is None:
        return
    half = f.grid.L / 2.0
    slack = f.grid.spacing / 2.0
    for axis, (lo, hi) in enumerate(extents):
        new_lo = sc.lam * lo + sc.x0[axis]
        new_hi = sc.lam * hi + sc.x0[axis]
        if new_lo < -half - slack or new_hi >= half + slack:
            raise SupportOverflowError(
                f"{name}: rescaled support [{new_lo:.3g}, {new_hi:.3g}] exits the box "
                f"on axis {axis} (scale {sc.lam}, core {sc.x0})"
            )


def _snap_core(f: RealVectorField, sc: ScaleCore) -> ScaleCore:
    h = f.grid.spacing
    return ScaleCore(sc.lam, tuple(h * round(v / h) for v in sc.x0))


def _is_dyadic(lam: float):
    m = round(np.log2(lam))
    if abs(lam - 2.0**m) <= 1e-12 * lam:
        return m
    return None


def _gather_contraction(f: RealVectorField, sc: ScaleCore, m: int) -> RealVectorField:
    """Exact remap for lam = 2^{-m} with a snapped core; out-of-box reads are zero."""
    grid = f.grid
    factor = 2**m
    h = grid.spacing
    i0 = [round(v / h) for v in sc.x0]
    idx_axes, mask_axes = [], []
    for axis in range(grid.d):
        i = np.arange(grid.N)
        j = (1 - factor) * grid.N // 2 + factor * (i - i0[axis])
        ok = (j >= 0) & (j < grid.N)
        idx_axes.append(np.where(ok, j, 0))
        mask_axes.append(ok)
    mesh = np.meshgrid(*idx_axes, indexing="ij")
    gathered = f.data[(slice(None),) + tuple(mesh)]
    mask = functools.reduce(np.logical_and.outer, mask_axes)
    return RealVectorField(grid, float(factor) * gathered * mask)


def _roll_translation(f: RealVectorField, sc: ScaleCore) -> RealVectorField:
    h = f.grid.spacing
    shifts = [round(v / h) for v in sc.x0]
    return RealVectorField(f.grid, np.roll(f.data, shifts, axis=tuple(range(1, f.grid.d + 1))))


def _spectral_resample(f: RealVectorField, sc: ScaleCore) -> RealVectorField:
    """Evaluate the trigonometric interpolant at (x - x0)/lam; exact for band-limited f."""
    grid = f.grid
    # weighting by multiplicity makes the real part of the half-spectrum sum
    # the full one
    out = forward_transform(f.data, grid) * grid.multiplicity
    coords = grid.axis_coords
    half = grid.L / 2.0
    masks = []
    for axis, k in enumerate(grid.wavenumber_mesh):
        m = np.rint(k.ravel() * grid.L / (2.0 * np.pi))
        y = (coords - sc.x0[axis]) / sc.lam
        masks.append((y >= -half - 1e-12) & (y < half - 1e-12))
        phase = 2.0 * np.pi * np.outer(m, (y + half) / grid.L)
        emat = np.exp(1j * phase)
        nyq = np.abs(m) == grid.N // 2
        emat[nyq, :] = np.cos(phase[nyq, :])
        # contract the current leading spatial axis against the evaluation matrix
        out = np.tensordot(out, emat, axes=([1], [0]))
    result = np.real(out) / sc.lam
    return RealVectorField(grid, result * functools.reduce(np.logical_and.outer, masks))


def is_whole_cell_roll(sc: ScaleCore) -> bool:
    """Whether apply_lambda(f, sc), whose core snaps to the grid, is a periodic
    roll of f by whole cells (unit scale to 1e-12), which is exact and
    commutes with every Fourier multiplier."""
    return _is_dyadic(sc.lam) == 0


def apply_lambda(f: RealVectorField, sc: ScaleCore, check_support: bool = True,
                 name: str = "field") -> RealVectorField:
    """(1/lam) f((x - x0)/lam) sampled on the grid of f.

    Cores snap to the nearest grid point, so a unit scale is an exact roll
    and a dyadic contraction an exact remap; other scales use spectral
    interpolation (resampling-limited rather than exact).
    """
    f.require_finite()
    if len(sc.x0) != f.grid.d:
        raise DomainError(f"core has {len(sc.x0)} coordinates, the grid has {f.grid.d} axes")
    if sc.lam < 4.0 / f.grid.N:
        raise UndersampledScaleError(
            f"scale {sc.lam} below the resolvable floor 4/N = {4.0 / f.grid.N}"
        )
    sc = _snap_core(f, sc)
    m = _is_dyadic(sc.lam)
    if m == 0:
        # pure periodic roll: exact, no clipping, support is immaterial
        return _roll_translation(f, sc)
    if check_support:
        _check_support(f, sc, name=name)
    if m is not None and m < 0:
        return _gather_contraction(f, sc, -m)
    return _spectral_resample(f, sc)


def apply_lambda_spacetime(traj, sc: ScaleCore, check_support: bool = True):
    """Parabolic rescaling: (1/lam) U((x - x0)/lam, t/lam^2) as a new trajectory.

    Its snapshots are made on read (`DerivedSnapshots`): snapshot i is
    apply_lambda(traj.snapshots[i], sc, check_support), recomputed at each
    read, so the rescaling holds one snapshot at a time, and an error of the
    map (a support leaving the box) surfaces at the read.
    """
    snaps = traj.snapshots
    return Trajectory(
        grid=traj.grid,
        times=np.asarray(traj.times) * sc.lam**2,
        snapshots=DerivedSnapshots(len(snaps),
                                   lambda i: apply_lambda(snaps[i], sc, check_support)),
        status=traj.status,
        config_echo=dict(traj.config_echo),
    )


def cross_term(f: RealVectorField, g: RealVectorField, a: ScaleCore, b: ScaleCore,
               p: float) -> float:
    """Quadrature of sum_c |Lambda_a f_c|^{p-1} |Lambda_b g_c| over the box."""
    fa = apply_lambda(f, a, name="first factor")
    gb = apply_lambda(g, b, name="second factor")
    w = f.grid.cell_volume
    return float(np.sum(np.abs(fa.data) ** (p - 1.0) * np.abs(gb.data)) * w)


def norm_additivity_defect(f: RealVectorField, g: RealVectorField, a: ScaleCore,
                           b: ScaleCore, p: float) -> float:
    """||Lambda_a f + Lambda_b g||_p^p - ||Lambda_a f||_p^p - ||Lambda_b g||_p^p."""
    fa = apply_lambda(f, a, name="first summand")
    gb = apply_lambda(g, b, name="second summand")
    return (
        lebesgue_norm(fa + gb, p) ** p
        - lebesgue_norm(fa, p) ** p
        - lebesgue_norm(gb, p) ** p
    )


def _strictly_increasing(vals: np.ndarray) -> bool:
    return bool(np.all(np.diff(vals) > 0))


def orthogonality_check(sa: ScaleCoreSequence, sb: ScaleCoreSequence,
                        K: int) -> OrthogonalityVerdict:
    """Finite-window proxy for the divergence conditions on scales and cores.

    Scale branch: lam_a/lam_b + lam_b/lam_a strictly increasing over the last K
    indices and exceeding ORTHOGONALITY_THETA.  Core branch (only when the
    ratios are identically 1): |x_a - x_b|/lam_a strictly increasing past
    ORTHOGONALITY_THETA.
    """
    if len(sa) != len(sb):
        raise DomainError("scale/core sequences must have equal length")
    if K < 3 or len(sa) < K:
        raise DomainError("need at least K >= 3 indices in both sequences")
    la = np.array([sc.lam for sc in sa.entries[-K:]])
    lb = np.array([sc.lam for sc in sb.entries[-K:]])
    ratios = la / lb + lb / la
    if np.all(np.abs(la / lb - 1.0) <= 1e-12):
        xa = np.array([sc.x0 for sc in sa.entries[-K:]])
        xb = np.array([sc.x0 for sc in sb.entries[-K:]])
        seps = np.linalg.norm(xa - xb, axis=1) / la
        if _strictly_increasing(seps) and seps[-1] > ORTHOGONALITY_THETA:
            return OrthogonalityVerdict.ORTHOGONAL_BY_CORES
        return OrthogonalityVerdict.NOT_ORTHOGONAL
    if _strictly_increasing(ratios) and ratios[-1] > ORTHOGONALITY_THETA:
        return OrthogonalityVerdict.ORTHOGONAL_BY_SCALES
    return OrthogonalityVerdict.NOT_ORTHOGONAL
