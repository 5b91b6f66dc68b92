"""Mild Navier-Stokes evolution on the periodic box at unit viscosity.

Time stepping is integrating-factor Heun: the heat factor exp(dt*Laplacian) is
applied exactly in spectral space and the projected convection term gets a
second-order explicit treatment.  Quadratic products are formed in physical
space and truncated by a sharp radial cutoff (2/3 rule by default).

A run aborts with status "ResolutionLimit" when the sup-norm or the
top-octave spectral energy fraction crosses its configured threshold; that
termination time is a fixed-resolution proxy for the maximal existence time,
never the true blow-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InvalidFieldError,
    TrajectoryCoverageError,
)
from .grid import (
    Grid,
    RealVectorField,
    forward_transform,
    heat_semigroup,
    inverse_transform,
    _leray_coefficients,
)
from .norms import (
    BesovIndex,
    _trapezoid_weights,
    besov_norm,
    chemin_lerner_norm,
    critical_exponent,
    e_norm,
    lebesgue_norm,
)

COMPLETED = "Completed"
RESOLUTION_LIMIT = "ResolutionLimit"
NON_FINITE = "NonFinite"


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    dealias_fraction: float = 2.0 / 3.0
    blowup_sup_threshold: float = 1e3
    spectral_tail_threshold: float = 1.0
    snapshot_stride: int = 1
    linear_only: bool = False
    tail_octave_shift: int = 0

    def __post_init__(self):
        if not (self.dt > 0):
            raise DomainError("time step must be positive")
        if not (self.T > 0):
            raise DomainError("horizon must be positive")
        if not (0 < self.dealias_fraction <= 1.0):
            raise DomainError("dealias fraction must be in (0, 1]")
        if not (self.blowup_sup_threshold > 0):
            raise DomainError("sup-norm abort level must be positive")
        if self.snapshot_stride < 1:
            raise DomainError("snapshot stride must be >= 1")

    def echo(self) -> dict:
        return {
            "dt": self.dt,
            "T": self.T,
            "dealias_fraction": self.dealias_fraction,
            "blowup_sup_threshold": self.blowup_sup_threshold,
            "spectral_tail_threshold": self.spectral_tail_threshold,
            "snapshot_stride": self.snapshot_stride,
            "linear_only": self.linear_only,
            "tail_octave_shift": self.tail_octave_shift,
        }


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed snapshots with per-step norm records.

    Read-only: the fields cannot be reassigned, snapshots is a tuple and every
    snapshot array is made non-writeable, so quantities derived from the
    snapshots (the band tables of `norms.band_table`) can be kept on it.
    """

    grid: Grid
    times: np.ndarray
    snapshots: tuple
    records: dict = field(default_factory=dict)
    status: str = COMPLETED
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        if self.times.size != len(self.snapshots):
            raise DomainError("one snapshot per time required")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise DomainError("snapshot times must be strictly increasing")
        for snap in self.snapshots:
            snap.data.flags.writeable = False

    @cached_property
    def band_tables(self) -> dict:
        """p -> read-only (levels, eps) band table, filled by `norms.band_table`."""
        return {}

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def covers(self, t: float) -> bool:
        eps = 1e-9 * max(1.0, abs(self.final_time))
        return self.times[0] - eps <= t <= self.final_time + eps

    def at(self, t: float) -> RealVectorField:
        """Snapshot at time t, linearly interpolated between recorded frames."""
        if not self.covers(t):
            raise TrajectoryCoverageError(
                f"time {t} outside recorded range [{self.times[0]}, {self.final_time}]"
            )
        if len(self.snapshots) == 1:
            return self.snapshots[0]
        t = min(max(t, self.times[0]), self.final_time)
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        i = min(max(i, 0), len(self.snapshots) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        theta = (t - t0) / (t1 - t0)
        if theta <= 1e-12:
            return self.snapshots[i]
        if theta >= 1.0 - 1e-12:
            return self.snapshots[i + 1]
        return self.snapshots[i] * (1.0 - theta) + self.snapshots[i + 1] * theta

    def window_indices(self, interval=None) -> np.ndarray:
        """Indices of the snapshots whose times lie in a closed interval."""
        if interval is None:
            return np.arange(self.times.size)
        a, b = interval
        eps = 1e-9 * max(1.0, abs(b))
        return np.flatnonzero((a - eps <= self.times) & (self.times <= b + eps))

    def window(self, interval=None):
        """(times, snapshots) restricted to a closed interval."""
        keep = self.window_indices(interval)
        return list(self.times[keep]), [self.snapshots[i] for i in keep]

    def thin(self, stride: int) -> "Trajectory":
        idx = list(range(0, len(self.snapshots), stride))
        if idx[-1] != len(self.snapshots) - 1:
            idx.append(len(self.snapshots) - 1)
        return Trajectory(
            grid=self.grid,
            times=self.times[idx],
            snapshots=[self.snapshots[i] for i in idx],
            records={},
            status=self.status,
            config_echo=dict(self.config_echo),
        )


@dataclass
class PerturbationProblem:
    """Initial perturbation, divergence-free drift and split source of the linearized-around-drift system."""

    w0: RealVectorField
    drift: Trajectory | None = None
    force_parts: tuple = (None, None)

    def source_at(self, t: float):
        parts = [g(t) for g in self.force_parts if g is not None]
        return sum(parts[1:], parts[0]) if parts else None


def dealias_mask(grid: Grid, fraction: float) -> np.ndarray:
    """Sharp radial truncation at fraction * Nyquist (index units)."""
    radius = fraction * grid.N / 2.0
    m2 = grid.k_squared * (grid.L / (2.0 * np.pi)) ** 2
    return m2 < radius**2


def _tail_octave_mask(grid: Grid, fraction: float, octave_shift: int = 0) -> np.ndarray:
    """Octave [K/2, K) with K the dealias radius; a shift of s monitors the
    octave s steps lower (used for parabolically matched rescaled runs)."""
    top = fraction / 2.0**octave_shift
    return dealias_mask(grid, top) & ~dealias_mask(grid, top / 2.0)


def convective_divergence(u: RealVectorField, dealias_fraction: float | None = None) -> RealVectorField:
    """div(u (x) u): products in physical space, derivatives in spectral space."""
    u.require_finite()
    grid = u.grid
    mask = None if dealias_fraction is None else dealias_mask(grid, dealias_fraction)
    acc = _div_flux_hat(_self_product(u.data), grid, mask)
    return RealVectorField(grid, inverse_transform(acc, grid))


def _self_product(u: np.ndarray):
    """Entries of u (x) u, for _div_flux_hat."""
    return lambda i, j: u[i] * u[j]


def _pair_product(a: np.ndarray, b: np.ndarray):
    """Entries of the symmetric a (x) b + b (x) a, for _div_flux_hat."""
    return lambda i, j: a[i] * b[j] + b[i] * a[j]


def _div_flux_hat(entry, grid: Grid, mask, symmetric: bool = True) -> np.ndarray:
    """Spectral coefficients of (div S)_i = sum_j d_j S_ij, dealiased by mask.

    entry(i, j) returns the physical samples of S_ij.  A symmetric tensor is
    read from its upper triangle only (d(d+1)/2 transforms instead of d^2).
    """
    d = grid.d
    kmesh = grid.deriv_wavenumber_mesh
    acc = np.zeros((d,) + grid.spectral_shape, dtype=np.complex128)
    for i in range(d):
        for j in range(i if symmetric else 0, d):
            tij = forward_transform(entry(i, j), grid)
            if mask is not None:
                tij *= mask
            acc[i] += 1j * kmesh[j] * tij
            if symmetric and j != i:
                acc[j] += 1j * kmesh[i] * tij
    return acc


def nonlinear_term(u: RealVectorField, dealias_fraction: float = 2.0 / 3.0) -> RealVectorField:
    """P div(u (x) u), the projected convection term."""
    u.require_finite()
    grid = u.grid
    acc = _div_flux_hat(_self_product(u.data), grid, dealias_mask(grid, dealias_fraction))
    _leray_coefficients(acc, grid)
    return RealVectorField(grid, inverse_transform(acc, grid))


def q_bilinear(a: RealVectorField, b: RealVectorField,
               dealias_fraction: float = 2.0 / 3.0) -> RealVectorField:
    """Q(a, b) = P(a.grad b + b.grad a); symmetric, and Q(u, u) = 2 P div(u (x) u)."""
    a.require_finite()
    b.require_finite()
    grid = a.grid
    acc = _div_flux_hat(_pair_product(a.data, b.data), grid, dealias_mask(grid, dealias_fraction))
    _leray_coefficients(acc, grid)
    return RealVectorField(grid, inverse_transform(acc, grid))


def recover_pressure(u: RealVectorField, dealias_fraction: float | None = None) -> RealVectorField:
    """pi = -inv(Laplacian) div div (u (x) u), zero-mean, as a one-component field."""
    u.require_finite()
    grid = u.grid
    mask = None if dealias_fraction is None else dealias_mask(grid, dealias_fraction)
    div_hat = _div_flux_hat(_self_product(u.data), grid, mask)
    divdiv = sum(1j * ka * div_hat[a] for a, ka in enumerate(grid.deriv_wavenumber_mesh))
    pi_hat = divdiv * grid.inv_deriv_k_squared
    return RealVectorField(grid, inverse_transform(pi_hat[None, ...], grid))


def _integrate(u0: RealVectorField, cfg: SolverConfig, drift: Trajectory | None,
               source, status_on_trip: str = RESOLUTION_LIMIT) -> Trajectory:
    grid = u0.grid
    u0.require_finite()
    mask = dealias_mask(grid, cfg.dealias_fraction)
    tail_mask = _tail_octave_mask(grid, cfg.dealias_fraction, cfg.tail_octave_shift)
    k2 = grid.k_squared
    heat = np.exp(-cfg.dt * k2)

    uh = forward_transform(u0.data, grid) * mask
    _leray_coefficients(uh, grid)

    n_steps = max(1, round(cfg.T / cfg.dt))
    times, snaps = [], []
    rec_t, rec_l2, rec_linf, rec_tail = [], [], [], []
    status = COMPLETED

    def rhs_hat(state_hat: np.ndarray, phys: np.ndarray, t: float) -> np.ndarray:
        acc = np.zeros_like(state_hat)
        if not cfg.linear_only:
            acc -= _div_flux_hat(_self_product(phys), grid, mask)
        if drift is not None:
            acc -= _div_flux_hat(_pair_product(phys, drift.at(t).data), grid, mask)
        if source is not None:
            g = source(t)
            if g is not None:
                acc += forward_transform(g.data, grid) * mask
        _leray_coefficients(acc, grid)
        return acc

    step_of_last_snap = -1
    for step in range(n_steps + 1):
        t = step * cfg.dt
        phys = inverse_transform(uh, grid)
        if not np.all(np.isfinite(phys)):
            status = NON_FINITE
            break
        linf = float(np.max(np.abs(phys)))
        power = grid.multiplicity * np.abs(uh) ** 2
        energy = float(np.sum(power))
        tail = float(np.sum(power[:, tail_mask]) / energy) if energy > 0 else 0.0
        rec_t.append(t)
        rec_l2.append(float(np.sqrt(grid.L**grid.d * energy)))
        rec_linf.append(linf)
        rec_tail.append(tail)
        tripped = linf > cfg.blowup_sup_threshold or tail > cfg.spectral_tail_threshold
        take_snapshot = (
            step % cfg.snapshot_stride == 0 or step == n_steps or tripped
        )
        if take_snapshot and step != step_of_last_snap:
            times.append(t)
            snaps.append(RealVectorField(grid, phys))
            step_of_last_snap = step
        if tripped:
            status = status_on_trip
            break
        if step == n_steps:
            break
        n1 = rhs_hat(uh, phys, t)
        pred = heat * (uh + cfg.dt * n1)
        pred_phys = inverse_transform(pred, grid)
        n2 = rhs_hat(pred, pred_phys, t + cfg.dt)
        uh = heat * uh + 0.5 * cfg.dt * (heat * n1 + n2)

    records = {
        "t": np.asarray(rec_t),
        "l2": np.asarray(rec_l2),
        "linf": np.asarray(rec_linf),
        "tail_fraction": np.asarray(rec_tail),
    }
    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        snapshots=snaps,
        records=records,
        status=status,
        config_echo=cfg.echo(),
    )


def condition_datum(f: RealVectorField, dealias_fraction: float = 2.0 / 3.0) -> RealVectorField:
    """Dealias-truncate and project a datum exactly as evolve does internally.

    Shipped profile systems pass their profiles through this so that the
    solver's own conditioning is a no-op and decompositions close at roundoff.
    """
    grid = f.grid
    coeff = forward_transform(f.data, grid) * dealias_mask(grid, dealias_fraction)
    _leray_coefficients(coeff, grid)
    return RealVectorField(grid, inverse_transform(coeff, grid))


def evolve(u0: RealVectorField, cfg: SolverConfig) -> Trajectory:
    """Mild Navier-Stokes evolution of a divergence-free, mean-free datum."""
    return _integrate(u0, cfg, drift=None, source=None)


def evolve_perturbed(prob: PerturbationProblem, cfg: SolverConfig) -> Trajectory:
    """Perturbed system: d/ds R + P(R.grad R) - Lap R + Q(R, F) = G.

    With no drift and no source this runs exactly the same step sequence as
    evolve (bitwise).  The drift trajectory must cover [0, T].
    """
    horizon = max(1, round(cfg.T / cfg.dt)) * cfg.dt
    if prob.drift is not None and not prob.drift.covers(horizon):
        raise TrajectoryCoverageError(
            f"drift trajectory must cover the rounded horizon {horizon} "
            "(the corrector stage samples the drift at full steps)"
        )
    return _integrate(prob.w0, cfg, drift=prob.drift, source=prob.source_at)


def make_heat_trajectory(u0: RealVectorField, times) -> Trajectory:
    """Pure heat flow of a datum recorded at the given times (linear oracle)."""
    times = np.asarray(sorted(float(t) for t in times))
    snaps = [heat_semigroup(u0, t) for t in times]
    return Trajectory(grid=u0.grid, times=times, snapshots=snaps)


def sample_trajectory(grid: Grid, times, func) -> Trajectory:
    """Trajectory built by sampling a callable t -> RealVectorField."""
    times = np.asarray(sorted(float(t) for t in times))
    return Trajectory(grid=grid, times=times, snapshots=[func(t) for t in times])


def bilinear_duhamel(f_traj: Trajectory, g_traj: Trajectory, t: float,
                     dealias_fraction: float | None = None) -> RealVectorField:
    """B(f, g)(t) = integral_0^t exp((t-tau) Lap) P div(f (x) g)(tau) dtau.

    Trapezoid over the common snapshot grid; B(f, f) relates to the mild
    solution by u = exp(t Lap) u0 - B(u, u).
    """
    grid = f_traj.grid
    if not grid.compatible(g_traj.grid):
        raise DomainError("trajectories live on different grids")
    if not (f_traj.covers(t) and g_traj.covers(t)):
        raise TrajectoryCoverageError("both trajectories must cover [0, t]")
    taus = [float(x) for x in f_traj.times if x <= t + 1e-12]
    if abs(taus[-1] - t) > 1e-12:
        taus.append(t)
    taus = np.asarray(taus)
    mask = None if dealias_fraction is None else dealias_mask(grid, dealias_fraction)
    k2 = grid.k_squared
    acc = np.zeros((grid.d,) + grid.spectral_shape, dtype=np.complex128)
    for tau, weight in zip(taus, _trapezoid_weights(taus)):
        fa = f_traj.at(tau).data
        gb = g_traj.at(tau).data
        s = _div_flux_hat(lambda i, j: fa[i] * gb[j], grid, mask, symmetric=False)
        _leray_coefficients(s, grid)
        acc += weight * np.exp(-(t - tau) * k2) * s
    return RealVectorField(grid, inverse_transform(acc, grid))


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
        return {
            "lhs_e_norm": self.lhs_e_norm,
            "w0_norm": self.w0_norm,
            "force_norm": self.force_norm,
            "bracket": self.bracket,
            "drift_norm": self.drift_norm,
            "implied_constant": self.implied_constant,
            "inconsistent": self.inconsistent,
            "p": self.p,
            "horizon": self.horizon,
        }


SOLVER_FLOOR = 1e-9


def verify_perturbation_bound(prob: PerturbationProblem, cfg: SolverConfig,
                              p: float) -> PerturbationReport:
    """Run the perturbed system and report the pieces of the exponential bound.

    The force norm uses the explicit two-part decomposition of the problem
    (first part measured in L^{2p/(p+1)} B^{s_p-1+1/p}, second in
    L^{p'} B^{s_p-2/p}); the drift norm lives in L^p B^{s_p+2/p}.
    """
    grid = prob.w0.grid
    d = grid.d
    if not (p < 2 * d + 3):
        raise DomainError(f"perturbation bound requires p < 2d+3 = {2*d+3}, got {p}")
    sp = critical_exponent(p, d)
    traj = evolve_perturbed(prob, cfg)
    lhs = e_norm(traj, p, p, cfg.T)

    w0_norm = besov_norm(prob.w0, BesovIndex(sp, p, p))

    sample_times = np.linspace(0.0, cfg.T, min(33, max(5, len(traj.times))))
    force_norm = 0.0
    g1, g2 = prob.force_parts
    if g1 is not None:
        t1 = sample_trajectory(grid, sample_times, g1)
        force_norm += chemin_lerner_norm(
            t1, 2.0 * p / (p + 1.0), BesovIndex(sp - 1.0 + 1.0 / p, p, p)
        )
    if g2 is not None:
        pprime = p / (p - 1.0)
        t2 = sample_trajectory(grid, sample_times, g2)
        force_norm += chemin_lerner_norm(t2, pprime, BesovIndex(sp - 2.0 / p, p, p))

    drift_norm = 0.0
    if prob.drift is not None:
        drift_norm = chemin_lerner_norm(
            prob.drift, p, BesovIndex(sp + 2.0 / p, p, p), interval=(0.0, cfg.T)
        )

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


def richardson_order(u0: RealVectorField, cfg: SolverConfig, norm_p: float = 2.0) -> float:
    """Observed temporal order from self-convergence under dt halving."""
    t1 = evolve(u0, cfg)
    t2 = evolve(u0, replace(cfg, dt=cfg.dt / 2.0, snapshot_stride=cfg.snapshot_stride * 2))
    t4 = evolve(u0, replace(cfg, dt=cfg.dt / 4.0, snapshot_stride=cfg.snapshot_stride * 4))
    e1 = lebesgue_norm(t1.snapshots[-1] - t2.snapshots[-1], norm_p)
    e2 = lebesgue_norm(t2.snapshots[-1] - t4.snapshots[-1], norm_p)
    if e2 == 0:
        raise InvalidFieldError("self-convergence differences vanished; cannot fit an order")
    return math.log2(e1 / e2)
