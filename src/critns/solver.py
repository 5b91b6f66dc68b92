"""Mild Navier-Stokes evolution on the periodic box at unit viscosity.

Time stepping is integrating-factor Heun: the heat factor exp(dt*Laplacian) is
applied exactly in spectral space and the projected convection term gets a
second-order explicit treatment.  Quadratic products are formed in physical
space and truncated by a sharp radial cutoff, the 2/3 rule of
`DEALIAS_FRACTION`, the one fraction of every run and every flux.  Every
coefficient the cutoff can leave nonzero has |m| < R = N/3 on each axis, so
the step keeps its spectral state on the retained box |m| <= ceil(R)-1
(`dealias_box`, 30% of the half spectrum).  Both transforms are pruned to the
box and take its coefficients in the grid's box layout: the forward returns
them and the inverse reads them.  The truncated coefficients outside the box
are exactly zero, so this changes no snapshot bit.

There is one flux kernel, `_div_flux_hat`: the divergence of a symmetric
tensor, formed trace-free (S - S_{d-1,d-1} I), one forward transform fewer
than the full tensor for a change that Leray projection removes, and every
caller projects.  Its products are formed in one reused buffer and its
derivative terms summed through one reused box temporary, with the dealias
mask applied once per component; the box temporary, the trace copy and the
entries' transform plan form a `FluxWorkspace`, a `StepWorkspace`'s (whose
plan's last-axis rfft lives in the state's inverse work array) or a fresh
one per one-shot call.  The convection term P div(u (x) u)
(`nonlinear_term`), the symmetric pair Q(a, b) (`q_bilinear`), the solver's
right-hand side and the profile sources all go through it.

The discretized equation has one owner, `StepWorkspace`: its one
right-hand side P[-div(u (x) u) - div(u (x) F + F (x) u) + G] (`rhs`), its
box Parseval energy (`energy`) and its integrating-factor Heun step
(`heun`, of a time step and its heat factor), with every large array they
write (transform plans, flux and product buffers, stage arrays, the Leray
scratch and the power array).  A buffer that is dead when a later stage
needs one holds that stage: the flux's rfft, the Leray scratch's second
half and the second stage's right-hand side have no array of their own.
A run builds one, so a step allocates nothing of the grid's size;
`profiles.ns_equation_residual` builds one per call and reads the flux
and the L^2 norm of the equation from it.  A forced run is a
`PerturbationProblem`, whose `sweep` gives one run's forcing: the drift
at a time, read through a two-frame window that lives for that run, and
the source, made only when the step has summed its fluxes; `evolve` and
`evolve_streaming` run the plain equation.

There is one stepping loop, `_integrate`, which inverts the state, records
it, hands out its snapshot, applies the trip rule (`trip_reason`, which its
`RunLog` keeps) and steps.  It starts from box coefficients, not from a
datum: `_start` checks the datum finite, transforms it onto the box,
truncates it to the mask and projects it, and `evolve` and
`evolve_streaming` drop their name for the datum before the loop, so a
datum passed to them as a temporary (`cli evolve`'s, each threshold
probe's) is freed once it is transformed.  The loop hands each snapshot to
a consumer the step it is taken, with the box coefficients it is the
inverse transform of; a snapshot handed out is a read-only view of the
workspace's samples, valid until the consumer returns.  `evolve` and
`evolve_perturbed` keep a copy of the coefficients inside the dealias
sphere per snapshot (about 16% of the snapshots' bytes at the 2/3 rule,
against 30% for the whole box; the rest of the box is exactly zero) and
return a read-only `Trajectory` whose snapshots are made on read
(`DerivedSnapshots`): one pruned inverse per read, bitwise the snapshot the
step took.  `evolve_streaming` passes the snapshots on (`cli evolve` writes
each to disk and drops it, so it holds one at a time, and the threshold
search reduces each to its critical norm) and returns the rest of the run
as a `RunLog`.

A run aborts with status "ResolutionLimit" on the first step where the
sup-norm or the top-octave spectral energy fraction exceeds its threshold
(`TRIP_MONITORS`); that termination time is a fixed-resolution proxy for the
maximal existence time, never the true blow-up time.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import DomainError, GridMismatchError, TrajectoryCoverageError
from .grid import (
    DerivedSnapshots,
    Grid,
    HeatFlow,
    RealVectorField,
    RetainedBox,
    TransformPlan,
    forward_transform,
    inverse_transform,
    _check_time,
    _leray_coefficients,
)
from .norms import (
    BesovIndex,
    band_tables,
    besov_norm,
    chemin_lerner_norm,
    e_norm,
    lebesgue_norm,
    perturbation_spaces,
    sampled_norms,
)

COMPLETED = "Completed"
RESOLUTION_LIMIT = "ResolutionLimit"
NON_FINITE = "NonFinite"

# The sharp radial dealias cutoff |m| < DEALIAS_FRACTION * N/2 (the 2/3 rule)
# of every flux, in a solver run and outside it.
DEALIAS_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    blowup_sup_threshold: float = 1e3
    spectral_tail_threshold: float = 1.0
    snapshot_stride: int = 1
    tail_octave_shift: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DomainError(f"time step must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise DomainError(f"horizon must be finite and positive, got {self.T}")
        if not math.isfinite(self.T / self.dt):
            raise DomainError(f"step count T/dt must be finite, got T={self.T}, dt={self.dt}")
        if not (self.blowup_sup_threshold > 0):
            raise DomainError("sup-norm abort level must be positive")
        if not (self.spectral_tail_threshold > 0):
            raise DomainError("spectral tail abort level must be positive")
        if self.snapshot_stride < 1:
            raise DomainError("snapshot stride must be >= 1")
        if self.tail_octave_shift < 0:
            raise DomainError("tail octave shift must be >= 0")

    def echo(self) -> dict:
        return asdict(self)


# The trip rule, (trip reason, record key, SolverConfig threshold field) per
# monitor; a step trips on the first monitor above its threshold (tie order).
TRIP_MONITORS = (("sup", "linf", "blowup_sup_threshold"),
                 ("tail", "tail_fraction", "spectral_tail_threshold"))


def trip_reason(values, cfg: SolverConfig) -> str | None:
    """The first trip reason whose record key in values (one step) exceeds its threshold."""
    for reason, key, threshold in TRIP_MONITORS:
        if values[key] > getattr(cfg, threshold):
            return reason
    return None


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed snapshots with per-step norm records.

    Read-only: the fields cannot be reassigned and every snapshot array is
    non-writeable, so quantities derived from the snapshots (`band_table`,
    `lebesgue_column`) can be kept on it.  Snapshots given as a
    `DerivedSnapshots` are kept as given, and each read makes a new
    read-only snapshot: `io.load_trajectory` reads the snapshot's file, a
    collected solver run (`evolve`, `evolve_perturbed`) makes one pruned
    inverse transform of the dealias-sphere coefficients it keeps (about 16%
    of a snapshot's bytes at the 2/3 rule), a heat trajectory
    (`make_heat_trajectory`) one inverse transform of its datum's damped
    coefficients (at t = 0 it hands out the one copy of the datum it
    keeps), and a
    `profiles.remainder` or a `scaling.apply_lambda_spacetime` rescaling
    recomputes the snapshot from the trajectory it is derived from.  Any
    other snapshots are held in memory as a read-only tuple, and a read
    costs nothing.  The trajectory keeps no frame it has read: `at` reads
    the one or two frames it needs on each call.  A reader that needs a
    snapshot twice keeps it: a sweep forward through the times reads
    through its own window of the two frames used last (`sweep`, which
    `evolve_perturbed` makes for its drift, one per run), and
    `profiles.ns_equation_residual` keeps each snapshot beside its
    dealias-box coefficients.  Every band table of the trajectory comes
    from `norms.band_tables`, one snapshot a sample.
    """

    grid: Grid
    times: np.ndarray
    snapshots: Sequence
    records: dict = field(default_factory=dict)
    status: str = COMPLETED
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if not isinstance(self.snapshots, DerivedSnapshots):
            object.__setattr__(self, "snapshots", tuple(self.snapshots))
            for snap in self.snapshots:
                snap.data.flags.writeable = False
        if self.times.size != len(self.snapshots):
            raise DomainError("one snapshot per time required")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise DomainError("snapshot times must be strictly increasing")

    @cached_property
    def _tables(self) -> dict:
        return {}

    def _keep(self, key, *arrays) -> tuple:
        for array in arrays:
            array.flags.writeable = False
        self._tables[key] = arrays
        return arrays

    def band_table(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(levels, eps) with eps[j, i] = ||Delta_j u(t_i)||_{L^p} for every
        band j and every snapshot i, built once per p and kept read-only, so
        every norm of the trajectory at this p reads the same table."""
        table = self._tables.get(("bands", p))
        if table is None:
            snaps = self.snapshots
            levels, (eps,) = band_tables(self.grid, len(snaps), lambda i: (snaps[i],), p)
            table = self._keep(("bands", p), levels, eps)
        return table

    def lebesgue_column(self, q: float) -> np.ndarray:
        """||u(t_i)||_{L^q} for every snapshot i, built once per q and kept
        read-only like the band tables."""
        column = self._tables.get(("lebesgue", q))
        if column is None:
            snaps = self.snapshots
            column = self._keep(("lebesgue", q),
                                np.array([lebesgue_norm(snaps[i], q) for i in range(len(snaps))]))
        return column[0]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def covers(self, t: float) -> bool:
        """Whether t lies in the recorded range; a trajectory with no
        snapshot covers no time."""
        if not self.times.size:
            return False
        eps = 1e-9 * max(1.0, abs(self.final_time))
        return self.times[0] - eps <= t <= self.final_time + eps

    def at(self, t: float) -> RealVectorField:
        """Snapshot at time t, linearly interpolated between recorded frames,
        each frame read for this call."""
        return self._interpolated(t, self.snapshots.__getitem__)

    def sweep(self):
        """t -> at(t), bitwise, for a reader sweeping forward through the
        times: the frames are read through a window of the two used last,
        which lives as long as the returned callable, so each snapshot of
        an on-demand sequence is read about once per sweep."""
        frame = lru_cache(maxsize=2)(self.snapshots.__getitem__)
        return lambda t: self._interpolated(t, frame)

    def _interpolated(self, t: float, frame) -> RealVectorField:
        """Snapshot at time t from frame(i) -> snapshot i."""
        if not self.covers(t):
            recorded = (f"recorded range [{self.times[0]}, {self.final_time}]"
                        if self.times.size else "a trajectory with no snapshot")
            raise TrajectoryCoverageError(f"time {t} outside {recorded}")
        if len(self.snapshots) == 1:
            return frame(0)
        t = min(max(t, self.times[0]), self.final_time)
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        i = min(max(i, 0), len(self.snapshots) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        theta = (t - t0) / (t1 - t0)
        if theta <= 1e-12:
            return frame(i)
        if theta >= 1.0 - 1e-12:
            return frame(i + 1)
        return frame(i) * (1.0 - theta) + frame(i + 1) * theta

    def window_indices(self, interval=None) -> np.ndarray:
        """Indices of the snapshots whose times lie in a closed interval."""
        if interval is None:
            return np.arange(self.times.size)
        a, b = interval
        eps = 1e-9 * max(1.0, abs(b))
        return np.flatnonzero((a - eps <= self.times) & (self.times <= b + eps))


@dataclass
class PerturbationProblem:
    """Initial perturbation, divergence-free drift and split source of the
    linearized-around-drift system; with neither, the plain equation."""

    w0: RealVectorField
    drift: Trajectory | None = None
    force_parts: tuple = (None, None)

    def source(self, t: float) -> RealVectorField | None:
        """The source G at time t, the sum of the force parts, or None."""
        parts = [g(t) for g in self.force_parts if g is not None]
        return sum(parts[1:], parts[0]) if parts else None

    def sweep(self):
        """The forcing of one run, s -> (drift F at s, source G at s as a
        callable), each None when absent, as `StepWorkspace.rhs` takes them.
        The drift is read through a window of its two frames used last
        (`Trajectory.sweep`), which lives as long as the returned callable."""
        drift = None if self.drift is None else self.drift.sweep()
        forced = any(g is not None for g in self.force_parts)

        def forcing(s: float) -> tuple:
            return (None if drift is None else drift(s),
                    (lambda: self.source(s)) if forced else None)
        return forcing


def _unforced(t: float) -> tuple:
    """The forcing of the plain equation: neither a drift nor a source."""
    return None, None


def _inside_radius(k_squared: np.ndarray, grid: Grid, fraction: float) -> np.ndarray:
    """|m| < fraction * N/2 in index units, on any array of the grid's |k|^2."""
    radius = fraction * grid.N / 2.0
    m2 = k_squared * (grid.L / (2.0 * np.pi)) ** 2
    return m2 < radius**2


@cache
def dealias_box(grid: Grid) -> RetainedBox:
    """The retained box of the dealias sphere, the sharp radial truncation
    |m| < DEALIAS_FRACTION * N/2: every mode of the sphere lies in the box,
    and the sphere inside it, gathered from its values on the radial table
    over the box indices, is the box's mask.  Built once per grid,
    read-only."""
    k2 = grid.radial_table.k_squared
    return RetainedBox(grid, _inside_radius(k2, grid, DEALIAS_FRACTION))


def _tail_octave_mask(box: RetainedBox, octave_shift: int) -> np.ndarray:
    """Octave [K/2, K) on the box, K = DEALIAS_FRACTION * Nyquist /
    2^octave_shift; a shift of s monitors the octave s steps below the dealias
    radius (used for parabolically matched rescaled runs).  Raises DomainError
    when the octave holds no mode of the grid."""
    top = math.ldexp(DEALIAS_FRACTION, -octave_shift)  # 2/3 / 2^s, and 0.0 for a huge s
    k2, grid = box.k_squared, box.grid
    tail = _inside_radius(k2, grid, top) & ~_inside_radius(k2, grid, top / 2.0)
    if not tail.any():
        raise DomainError(f"tail octave shift {octave_shift} leaves no mode of the "
                          f"{grid.N}-point grid in the monitored octave")
    return tail


def _box_forward(data: np.ndarray, box: RetainedBox,
                 plan: TransformPlan | None = None) -> np.ndarray:
    """Coefficients of real samples laid out on box, truncated to its mask,
    written into plan's box if a plan is given (see forward_transform)."""
    coeff = forward_transform(data, box.grid, box.extent, plan)
    coeff *= box.mask
    return coeff


# The product entries below are formed in the buffers the caller gives (a
# `StepWorkspace`'s) or else in buffers that the first call
# allocates and every later call reuses.  Allocated on first use, they sit
# after the flux's long-lived result on the heap, so freeing them leaves no
# hole below it.


def _self_product(u: np.ndarray, buf: np.ndarray | None = None):
    """Entries of u (x) u, for _div_flux_hat."""

    def entry(i, j):
        nonlocal buf
        buf = np.multiply(u[i], u[j], out=buf)
        return buf
    return entry


def _pair_product(a: np.ndarray, b: np.ndarray, buf: np.ndarray | None = None,
                  tmp: np.ndarray | None = None):
    """Entries of the symmetric a (x) b + b (x) a, for _div_flux_hat."""

    def entry(i, j):
        nonlocal buf, tmp
        buf = np.multiply(a[i], b[j], out=buf)
        tmp = np.multiply(b[i], a[j], out=tmp)
        return np.add(buf, tmp, out=buf)
    return entry


class FluxWorkspace:
    """The buffers `_div_flux_hat` writes on one box besides its result: the
    transform plan of one tensor entry, the copy of the trace entry and one
    derivative term, all made with the workspace.  The plan's last-axis
    rfft `spectrum` is the first half spectrum's worth of entries of spare,
    a contiguous complex array that is dead while the flux runs, if one is
    given: a `StepWorkspace` holds one workspace and lends it its state's
    inverse work array, and its `rhs` lends its Leray projection the
    workspace's `term`.  A one-shot call builds its own, with its own
    spectrum."""

    def __init__(self, box: RetainedBox, spare: np.ndarray | None = None):
        self.plan = TransformPlan(box.grid, box.extent)
        # a view of spare's first entries, or a fresh array if spare is None
        self.plan.spectrum = np.ndarray(box.grid.spectral_shape, np.complex128, spare)
        self.plan.box  # every call transforms entries forward
        self.term = np.empty(box.spectral_shape, dtype=np.complex128)
        self.trace = np.empty(box.grid.shape)


def _div_flux_hat(entry, box: RetainedBox, sign: float = 1.0,
                  work: FluxWorkspace | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Spectral coefficients of sign * (div S')_i = sign * sum_j d_j S'_ij for
    the trace-free part S' = S - S_{d-1,d-1} I of a symmetric tensor S,
    dealiased by box, written into out (a fresh array if None) with the
    buffers of work (a fresh FluxWorkspace if None).

    entry(i, j) returns an array of the physical samples of S_ij for i <= j,
    which the next call may overwrite.  S' is read from its upper triangle
    less its last diagonal entry, which is zero: d(d+1)/2 - 1 transforms
    instead of d^2.  Each entry is transformed onto the box only, and each
    component of the result is truncated to the box's mask once, at the end
    (the mask is 0 or 1, so this is the sum of the truncated terms).

    div S' differs from div S by the gradient of S_{d-1,d-1}, which Leray
    projection removes, and every caller projects the result (Basdevant,
    J. Comput. Phys. 50, 1983).
    """
    d = box.d
    deriv = [sign * 1j * ka for ka in box.deriv_wavenumber_mesh]
    acc = np.empty((d,) + box.spectral_shape, dtype=np.complex128) if out is None else out
    work = FluxWorkspace(box) if work is None else work
    term, trace = work.term, work.trace
    started = [False] * d

    def add(c, factor, t):
        # the first term of a component is assigned, the rest added
        if started[c]:
            acc[c] += np.multiply(factor, t, out=term)
        else:
            np.multiply(factor, t, out=acc[c])
            started[c] = True

    np.copyto(trace, entry(d - 1, d - 1))
    for i in range(d):
        for j in range(i, d):
            if i == j == d - 1:
                continue
            sij = entry(i, j)
            if i == j:
                sij -= trace
            tij = forward_transform(sij, box.grid, box.extent, work.plan)
            add(i, deriv[j], tij)
            if j != i:
                add(j, deriv[i], tij)
    acc *= box.mask
    return acc


def _projected_flux(entry, grid: Grid) -> RealVectorField:
    """P div S, dealiased at DEALIAS_FRACTION."""
    box = dealias_box(grid)
    acc = _leray_coefficients(_div_flux_hat(entry, box), box)
    return RealVectorField(grid, inverse_transform(acc, grid, box.extent))


def nonlinear_term(u: RealVectorField) -> RealVectorField:
    """P div(u (x) u), the projected convection term."""
    u.require_finite()
    return _projected_flux(_self_product(u.data), u.grid)


def q_bilinear(a: RealVectorField, b: RealVectorField) -> RealVectorField:
    """Q(a, b) = P(a.grad b + b.grad a); symmetric, and Q(u, u) = 2 P div(u (x) u)."""
    a.require_finite()
    b.require_finite()
    return _projected_flux(_pair_product(a.data, b.data), a.grid)


@dataclass(frozen=True)
class RunLog:
    """A solver run less its snapshots: the snapshot times, the per-step
    records, the status and the config echo, under the names a Trajectory
    gives them, so a trajectory writer (`io.TrajectoryWriter.finish`) reads
    either; and the reason the run stopped early: "sup" or "tail" (the trip
    rule, `trip_reason`), "non_finite", or None for a completed run."""

    grid: Grid
    times: np.ndarray
    records: dict
    status: str
    trip_reason: str | None
    config_echo: dict


class StepWorkspace:
    """The discretized equation on the retained box of the dealias sphere,
    with every large array it writes.

    Three pieces read it: the projected right-hand side
    P[-div(u (x) u) - div(u (x) F + F (x) u) + G] (`rhs`), the box Parseval
    energy (`energy`) and the integrating-factor Heun step (`heun`).  The
    arrays are the state's transform plan, the flux kernel's
    `FluxWorkspace` and product buffers (one of the grid's size, and with a
    drift a second, which only the pair product writes), the drift flux
    (only with a drift), the Leray scratch, the stage arrays (`pred`, `n1`)
    and the power scratch, all allocated here.  A buffer dead when the next
    stage needs one holds that stage: the flux's last-axis rfft lives in
    the state's inverse work array (`TransformPlan.padded`, dead from the
    end of one state inverse to the start of the next), the Leray
    projection's second scratch is the flux's `term`, and the second
    stage's right-hand side is written into `pred` once the predictor is
    inverted.  A source is forwarded one component at a time through the
    flux's plan, so the state's plan never transforms forward.  A solver
    run builds one, so a step allocates nothing of the grid's size; so does
    each `profiles.ns_equation_residual` call, which reads the flux and the
    L^2 norm of the equation the step solves.
    """

    def __init__(self, box: RetainedBox, ncomp: int, drift: bool):
        grid, shape = box.grid, (ncomp,) + box.spectral_shape
        self.box = box
        self.state = TransformPlan(grid, box.extent, (ncomp,))
        self.flux = FluxWorkspace(box, self.state.padded)
        self.products = np.empty((2 if drift else 1,) + grid.shape)
        self.pred, self.n1 = (np.empty(shape, dtype=np.complex128) for _ in range(2))
        self.drift_flux = np.empty(shape, dtype=np.complex128) if drift else None
        self.leray = np.empty(box.spectral_shape, dtype=np.complex128)
        self.power = np.empty(shape)
        self.square = np.empty(box.spectral_shape)

    def rhs(self, phys: np.ndarray, acc: np.ndarray, drift: RealVectorField | None = None,
            source: Callable[[], RealVectorField] | None = None) -> None:
        """P[-div(u (x) u) - div(u (x) F + F (x) u) + G] for the samples phys
        of u, the drift F and the source G (each term only when given),
        written into acc.  source() gives G; it is asked for once the
        fluxes are summed, so the field it makes is not alive while they
        run."""
        box = self.box
        _div_flux_hat(_self_product(phys, self.products[0]), box, -1.0, self.flux, acc)
        if drift is not None:
            acc -= _div_flux_hat(_pair_product(phys, drift.data, *self.products), box,
                                 work=self.flux, out=self.drift_flux)
        if source is not None:
            # one component at a time through the flux's plan, whose rfft is
            # one component's
            for total, comp in zip(acc, source().data):
                total += _box_forward(comp, box, self.flux.plan)
        _leray_coefficients(acc, box, (self.leray, self.flux.term))

    def energy(self, coeff: np.ndarray) -> float:
        """sum of multiplicity * |coeff|^2 over the box, the squared L^2 norm
        over the box volume by Parseval; the weighted powers stay in
        `power`."""
        np.multiply(coeff.real, coeff.real, out=self.power)
        for comp, part in zip(coeff, self.power):
            part += np.multiply(comp.imag, comp.imag, out=self.square)
        self.power *= self.box.multiplicity
        return float(np.sum(self.power))

    def heun(self, uh: np.ndarray, phys: np.ndarray, t: float, dt: float,
             heat: np.ndarray, forcing) -> None:
        """One integrating-factor Heun step of the box coefficients uh, whose
        samples are phys, from t to t + dt with the heat factor heat =
        exp(-dt |k|^2), in place; forcing(s) gives the drift at time s and
        the source at time s as a callable (see rhs).  pred = heat * (uh +
        dt * n1), then uh = heat * uh + (dt / 2) * (heat * n1 + n2), with the
        operands in that order; n2, the right-hand side at the predictor, is
        written into pred, dead once the predictor is inverted.  phys is
        overwritten by the predictor's samples."""
        box, pred, n1 = self.box, self.pred, self.n1
        self.rhs(phys, n1, *forcing(t))
        np.multiply(dt, n1, out=pred)
        np.add(uh, pred, out=pred)
        np.multiply(heat, pred, out=pred)
        self.rhs(inverse_transform(pred, box.grid, box.extent, self.state), pred,
                 *forcing(t + dt))
        np.multiply(heat, n1, out=n1)
        np.add(n1, pred, out=n1)
        np.multiply(0.5 * dt, n1, out=n1)
        np.multiply(heat, uh, out=uh)
        np.add(uh, n1, out=uh)


def _start(w0: RealVectorField) -> np.ndarray:
    """The box coefficients a run starts from: the datum w0, checked finite,
    transformed onto its grid's dealias box, truncated to the box's mask
    and Leray-projected."""
    w0.require_finite()
    box = dealias_box(w0.grid)
    return _leray_coefficients(_box_forward(w0.data, box), box)


def _integrate(grid: Grid, uh: np.ndarray, cfg: SolverConfig, take,
               prob: PerturbationProblem | None = None) -> RunLog:
    """Integrating-factor Heun steps, on the retained box of grid's dealias
    sphere, from the box coefficients uh (`_start`, stepped in place) under
    the drift and the source of prob, or of the plain equation if prob is
    None.

    The run starts from coefficients, not from a datum, so a datum that
    only the caller's first lines named is freed before the first step.
    The spectral state uh, the heat factor and the tail-octave mask live on
    the box, in the box layout that both transforms read and write, and
    every large array a step writes belongs to one `StepWorkspace` built
    here.  Each step inverts the state, records it, hands out its snapshot,
    applies the trip rule and steps (`StepWorkspace.heun`).

    Each snapshot is handed to take(snapshot, uh) the step it is taken,
    with the box coefficients it is the inverse transform of.  The snapshot
    is a new read-only view of the state plan's samples and uh is
    overwritten in place on the next step, so both are valid until take
    returns: a consumer keeps what it copies (`_collected`), reduces or
    writes out (`cli evolve`), and holds one snapshot at a time however
    many the run records.
    """
    box = dealias_box(grid)
    tail_mask = _tail_octave_mask(box, cfg.tail_octave_shift)
    heat = np.exp(-cfg.dt * box.k_squared)
    forcing = _unforced if prob is None else prob.sweep()
    work = StepWorkspace(box, uh.shape[0], prob is not None and prob.drift is not None)
    n_steps = max(1, round(cfg.T / cfg.dt))
    times = []
    records = {"t": [], "l2": [], "linf": [], "tail_fraction": []}
    status, reason = COMPLETED, None
    for step in range(n_steps + 1):
        t = step * cfg.dt
        phys = inverse_transform(uh, grid, box.extent, work.state)
        linf = float(max(phys.max(), -phys.min()))
        if not math.isfinite(linf):
            status, reason = NON_FINITE, "non_finite"
            break
        energy = work.energy(uh)
        tail = float(np.sum(work.power, where=tail_mask) / energy) if energy > 0 else 0.0
        values = {"t": t, "l2": float(np.sqrt(grid.L**grid.d * energy)),
                  "linf": linf, "tail_fraction": tail}
        for key, value in values.items():
            records[key].append(value)
        reason = trip_reason(values, cfg)
        if step % cfg.snapshot_stride == 0 or step == n_steps or reason is not None:
            times.append(t)
            snap = phys.view()
            snap.flags.writeable = False
            take(RealVectorField(grid, snap), uh)
        if reason is not None:
            status = RESOLUTION_LIMIT
            break
        if step < n_steps:
            work.heun(uh, phys, t, cfg.dt, heat, forcing)

    return RunLog(
        grid=grid,
        times=np.asarray(times),
        records={key: np.asarray(vals) for key, vals in records.items()},
        status=status,
        trip_reason=reason,
        config_echo=cfg.echo(),
    )


def _collected(grid: Grid, uh: np.ndarray, cfg: SolverConfig,
               prob: PerturbationProblem | None = None) -> Trajectory:
    """_integrate from uh under prob with every snapshot kept as a read-only
    copy of its box coefficients inside the dealias sphere (`uh[:, inside]`,
    about 16% of the snapshot's bytes at the 2/3 rule), as a read-only
    Trajectory whose snapshot i is their inverse transform, the call the
    step made.

    The box entries outside the sphere are exactly zero at every step (the
    datum and every right-hand side are truncated to the mask, and Leray
    projection keeps zeros), so a read scatters the kept entries into a
    zeroed box and inverts it, bitwise the step's snapshot."""
    box = dealias_box(grid)
    inside = box.mask.astype(bool)
    packed = []

    def keep(snap, uh):
        packed.append(uh[:, inside])
        packed[-1].flags.writeable = False

    def snapshot(i: int) -> RealVectorField:
        coeff = np.zeros((packed[i].shape[0],) + box.spectral_shape, dtype=np.complex128)
        coeff[:, inside] = packed[i]
        return RealVectorField(grid, inverse_transform(coeff, grid, box.extent))

    run = _integrate(grid, uh, cfg, keep, prob)
    return Trajectory(grid=grid, times=run.times,
                      snapshots=DerivedSnapshots(len(packed), snapshot),
                      records=run.records, status=run.status, config_echo=run.config_echo)


def condition_datum(f: RealVectorField) -> RealVectorField:
    """Dealias-truncate and project a datum exactly as evolve does internally.

    Shipped profile systems pass their profiles through this so that the
    solver's own conditioning is a no-op and decompositions close at roundoff.
    """
    grid = f.grid
    return RealVectorField(grid, inverse_transform(_start(f), grid, dealias_box(grid).extent))


def evolve(u0: RealVectorField, cfg: SolverConfig) -> Trajectory:
    """Mild Navier-Stokes evolution of a divergence-free, mean-free datum."""
    grid, uh = u0.grid, _start(u0)
    del u0  # a datum passed as a temporary is freed here
    return _collected(grid, uh, cfg)


def evolve_streaming(u0: RealVectorField, cfg: SolverConfig, take) -> RunLog:
    """evolve, with each snapshot handed to take(snapshot) the step it is
    taken instead of kept: the same steps and snapshots, bit for bit, in
    the memory of one snapshot.  The snapshot is a new read-only view of
    the solver's own samples, valid until take returns: take reduces it,
    writes it out or copies it.

    The run starts from the datum's box coefficients, and this call drops
    its name for u0 once they are made: a datum passed as a temporary
    (`evolve_streaming(make(...), cfg, take)`) is freed before the first
    step, while a datum the caller keeps a name for stays the caller's,
    unchanged."""
    grid, uh = u0.grid, _start(u0)
    del u0
    return _integrate(grid, uh, cfg, lambda snap, coeff: take(snap))


def evolve_perturbed(prob: PerturbationProblem, cfg: SolverConfig) -> Trajectory:
    """Perturbed system: d/ds R + P(R.grad R) - Lap R + Q(R, F) = G.

    With no drift and no source this runs exactly the same step sequence as
    evolve (bitwise).  The drift trajectory must lie on w0's grid, have w0's
    component count and cover [0, T].
    """
    if prob.drift is not None and not prob.drift.grid.compatible(prob.w0.grid):
        raise GridMismatchError(f"drift trajectory on {prob.drift.grid}, w0 on {prob.w0.grid}")
    horizon = max(1, round(cfg.T / cfg.dt)) * cfg.dt
    if prob.drift is not None:
        if not prob.drift.covers(horizon):
            raise TrajectoryCoverageError(
                f"drift trajectory must cover the rounded horizon {horizon} "
                "(the corrector stage samples the drift at full steps)"
            )
        ncomp = prob.drift.snapshots[0].ncomp
        if ncomp != prob.w0.ncomp:
            raise GridMismatchError(f"drift trajectory has {ncomp} components, "
                                    f"w0 has {prob.w0.ncomp}")
    return _collected(prob.w0.grid, _start(prob.w0), cfg, prob)


def make_heat_trajectory(u0: RealVectorField, times) -> Trajectory:
    """Pure heat flow of a datum recorded at the given times (linear oracle).

    Keeps u0's forward coefficients (one `HeatFlow`, a half spectrum of
    (N + 2)/N times u0's bytes) and, if a time is 0, one read-only copy of
    u0; the snapshots are made on read (`DerivedSnapshots`).  Snapshot i is
    HeatFlow(u0).at(t_i), one multiply and one inverse transform per read,
    bitwise heat_semigroup(u0, t_i) for t_i > 0; at t = 0 it is the copy.
    Every time is checked here, so a bad one raises when the trajectory is
    made, not at its read."""
    times = np.asarray(sorted(float(t) for t in times))
    flow = HeatFlow(u0)
    for t in times:
        _check_time(t)
    start = u0.copy() if 0.0 in times else None

    def snapshot(i: int) -> RealVectorField:
        return start if times[i] == 0 else flow.at(times[i])

    return Trajectory(grid=u0.grid, times=times,
                      snapshots=DerivedSnapshots(times.size, snapshot))


def sample_trajectory(grid: Grid, times, func) -> Trajectory:
    """Trajectory built by sampling a callable t -> RealVectorField."""
    times = np.asarray(sorted(float(t) for t in times))
    return Trajectory(grid=grid, times=times, snapshots=[func(t) for t in times])


@dataclass
class PerturbationReport:
    """Empirical content of the perturbation estimate: LHS, data bracket, drift norm."""

    lhs_e_norm: float
    w0_norm: float
    force_norm: float
    drift_norm: float
    implied_constant: float | None
    inconsistent: bool
    p: float
    horizon: float

    @property
    def bracket(self) -> float:
        return self.w0_norm + self.force_norm

    def to_dict(self) -> dict:
        return {**asdict(self), "bracket": self.bracket}


SOLVER_FLOOR = 1e-9


def verify_perturbation_bound(prob: PerturbationProblem, cfg: SolverConfig,
                              p: float) -> PerturbationReport:
    """Run the perturbed system and report the pieces of the exponential bound.

    The force norm uses the explicit two-part decomposition of the problem,
    each part and the drift measured in its space of `perturbation_spaces`.
    """
    grid = prob.w0.grid
    d = grid.d
    if not (1 <= p < 2 * d + 3):  # NaN fails too
        raise DomainError(f"perturbation bound requires 1 <= p < 2d+3 = {2*d+3}, got {p}")
    traj = evolve_perturbed(prob, cfg)
    if not traj.times.size:
        raise DomainError("the w0 run went non-finite at t = 0 and took no snapshot")
    lhs = e_norm(traj, p, p, cfg.T)

    w0_norm = besov_norm(prob.w0, BesovIndex.critical(p, d))
    *force_spaces, drift = perturbation_spaces(p, d)

    sample_times = np.linspace(0.0, cfg.T, min(33, max(5, len(traj.times))))
    forces = [(g, space) for g, space in zip(prob.force_parts, force_spaces, strict=True)
              if g is not None]
    force_norm = sum(sampled_norms(grid, sample_times, lambda t: [g(t) for g, _ in forces], p,
                                   [space for _, space in forces]), 0.0)

    drift_norm = 0.0
    if prob.drift is not None:
        drift_norm = chemin_lerner_norm(prob.drift, *drift, interval=(0.0, cfg.T))

    bracket = w0_norm + force_norm
    inconsistent = bracket <= SOLVER_FLOOR and lhs > 10.0 * SOLVER_FLOOR
    implied = None
    if bracket > 0 and drift_norm > 0 and lhs > 0:
        implied = math.log(lhs / bracket) / drift_norm
    return PerturbationReport(
        lhs_e_norm=lhs,
        w0_norm=w0_norm,
        force_norm=force_norm,
        drift_norm=drift_norm,
        implied_constant=implied,
        inconsistent=inconsistent,
        p=p,
        horizon=cfg.T,
    )
