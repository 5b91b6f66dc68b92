"""Resolution-limited blow-up monitors: sup-in-time critical norms, amplitude
threshold search by a safeguarded secant on the trip margin (falling back to
geometric bisection), and weak-convergence probes.

Every threshold report carries a mandatory disclaimer flag: the search
locates a numerical-continuation threshold at fixed resolution, not a maximal
existence time or a true minimal-norm datum.

The weak-convergence battery lives here, beside its probe: `RankOneBattery`,
`make_test_battery`, `pairing_table` and `weak_convergence_probe`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, DomainError
from .fields import _rng, gaussian_factors
from .grid import Grid, RealVectorField
from .lp import band_range
from .norms import (BesovIndex, band_profile, besov_from_profile, besov_norm_detailed,
                    lebesgue_norm)
from .solver import (NON_FINITE, TRIP_MONITORS, RunLog, SolverConfig, Trajectory,
                     evolve_streaming)

PROXY_DISCLAIMER = (
    "resolution-limited numerical threshold at fixed grid and step; "
    "not a statement about true blow-up or maximal existence times"
)


@dataclass(frozen=True)
class DatumFamily:
    """Amplitude family alpha * base over a bracketing amplitude range."""

    base: RealVectorField
    alpha_lo: float
    alpha_hi: float

    def __post_init__(self):
        if not (0 < self.alpha_lo < self.alpha_hi):
            raise DomainError("need 0 < alpha_lo < alpha_hi")

    def member(self, alpha: float) -> RealVectorField:
        return self.base * alpha


@dataclass
class SupNormReport:
    value: float
    time_of_max: float


def sup_critical_norm(traj: Trajectory, norm_kind: str = "L3",
                      p: float | None = None) -> SupNormReport:
    """Max over snapshots of the chosen critical norm, with its location."""
    if not traj.snapshots:
        raise DomainError("empty trajectory")
    if norm_kind == "L3":
        if traj.grid.d != 3:
            raise DomainError("the L3 critical norm needs d = 3")
        return _sup_report(traj.times, traj.lebesgue_column(3), traj.grid)[0]
    if norm_kind != "besov":
        raise DomainError(f"unknown critical norm kind {norm_kind!r}")
    if p is None:
        p = float(traj.grid.d)
    idx = BesovIndex.critical(p, traj.grid.d)
    report, warns = _sup_report(traj.times, traj.band_table(p)[1].T, traj.grid, idx)
    for w in warns:
        warnings.warn(w, AccuracyWarning, stacklevel=2)
    return report


def _sup_report(times, columns, grid: Grid, idx: BesovIndex | None = None):
    """(SupNormReport, edge warnings): the max over snapshots of their
    critical norms and its time.  The columns are the snapshots' L3 norms or,
    given the critical Besov index, their band profiles at its p, each
    reduced to its Besov norm; the warnings are each snapshot's edge
    warnings, in snapshot order."""
    if idx is None:
        vals, warns = columns, []
    else:
        lo, hi = band_range(grid)
        levels = np.arange(lo, hi + 1)
        vals, warns = [], []
        for col in columns:
            value, _, col_warns = besov_from_profile(levels, col, idx)
            vals.append(value)
            warns += col_warns
    i = int(np.argmax(vals))
    return SupNormReport(value=float(vals[i]), time_of_max=float(times[i])), warns


@dataclass
class ThresholdReport:
    bracket: tuple
    datum_l3_norm: float | None
    datum_besov_norm: float
    sup_critical_norm: float
    sup_critical_time: float
    probes: list
    config_echo: dict
    proxy_disclaimer: bool = True
    disclaimer_text: str = PROXY_DISCLAIMER

    def to_dict(self) -> dict:
        return {
            "bracket": list(self.bracket),
            "relative_width": self.bracket[1] / self.bracket[0] - 1.0,
            "datum_l3_norm": self.datum_l3_norm,
            "datum_besov_norm": self.datum_besov_norm,
            "sup_critical_norm": self.sup_critical_norm,
            "sup_critical_time": self.sup_critical_time,
            # a non-finite probe value (a NonFinite trip's margin, a CFL
            # number past the largest double) has no JSON number
            "probes": [{key: None if isinstance(value, float) and not math.isfinite(value)
                        else value for key, value in p.items()} for p in self.probes],
            "config": self.config_echo,
            "proxy_disclaimer": self.proxy_disclaimer,
            "disclaimer_text": self.disclaimer_text,
        }


def _margin(run: RunLog, cfg: SolverConfig) -> float:
    """Largest trip ratio over the recorded steps, the max over TRIP_MONITORS
    of max(record) / threshold: a run trips once it passes 1.  A non-finite
    run has margin infinity."""
    if run.status == NON_FINITE:
        return math.inf
    return float(max(np.max(run.records[key], initial=0.0) / getattr(cfg, threshold)
                     for _, key, threshold in TRIP_MONITORS))


def _log_margin(m: float) -> float:
    return math.log(m) if 0.0 < m < math.inf else math.nan


def _secant_root(x1: float, y1: float, x2: float, y2: float) -> float:
    """Root of the line through (x1, y1) and (x2, y2); nan unless y1 < y2,
    which also rules out a non-finite or non-positive margin."""
    return x1 - y1 * (x2 - x1) / (y2 - y1) if y1 < y2 else math.nan


def _secant_probe(lo: float, hi: float, roots: list, tol: float) -> float | None:
    """Next amplitude from the lowest candidate root r (in log alpha) inside the
    bracket, or None when no candidate is usable.

    Within log(1 + tol) of an end, probe 0.98 of that width in from it, so one
    correct guess closes the bracket; otherwise probe just below r.
    """
    x_lo, x_hi = math.log(lo), math.log(hi)
    inside = [r for r in roots if x_lo <= r <= x_hi]
    if not inside:
        return None
    r = min(inside)
    width = math.log1p(tol)
    if min(r - x_lo, x_hi - r) <= width:
        return lo * (1.0 + tol) ** 0.98 if r - x_lo <= x_hi - r else hi / (1.0 + tol) ** 0.98
    return math.exp(r) / (1.0 + tol) ** 0.49


def threshold_bisection(fam: DatumFamily, cfg: SolverConfig, tol: float,
                        besov_p: float | None = None) -> ThresholdReport:
    """Bracket the amplitude between a completing and a resolution-tripping
    member until hi / lo - 1 <= tol.

    A probe trips when its run goes non-finite or on the solver's trip rule
    (`solver.TRIP_MONITORS`), as the run's `trip_reason` says.  It records
    its margin (see _margin), its largest CFL number max linf * dt / h over
    the recorded steps, h the grid spacing (None for a non-finite run), and
    whether that number passes 1 or the run went non-finite.  The next
    amplitude comes from a safeguarded secant on log margin against log
    alpha (Dekker, Brent): the lower of two roots, that of the secant through
    the bracket ends and that of the secant through the two highest
    completing probes.  A completing run's margin is its maximum over the
    whole horizon, while a tripped run stops at its first crossing, so its
    margin sits just above 1 and pulls the end-to-end root toward hi; the
    completing pair has no such bias.  The search falls back to the
    geometric midpoint when neither root is usable (a non-finite or
    non-positive margin, a root outside the bracket) or when the last two
    probes did not halve log(hi / lo).  Every probe lies strictly inside the
    current bracket, so tol must be at least the double epsilon: below it a
    bracket of adjacent doubles never closes.

    The outcome is assumed monotone in amplitude, not detected: lo is always
    the largest completing and hi the smallest tripping amplitude, and no probe
    leaves (lo, hi), so a family that trips only on a window inside the bracket
    goes unnoticed.

    Probes stream (`evolve_streaming`): each snapshot is reduced, the step it
    is taken, to what `sup_critical_norm` reads of it (its L3 norm at d = 3,
    otherwise its band profile at besov_p), and a probe keeps its RunLog and
    those reductions; the search keeps them for its last completing probe
    only, and the report's sup critical norm is theirs.
    """
    eps = float(np.finfo(float).eps)
    if not tol >= eps:
        raise DomainError(f"bracket tolerance must be at least {eps:.3g} "
                          f"(double-precision epsilon), got {tol}")
    grid = fam.base.grid
    if besov_p is None:
        besov_p = float(grid.d) + 1.0
    idx = BesovIndex.critical(besov_p, grid.d)

    def reduce(snap: RealVectorField):
        """What sup_critical_norm reads of a snapshot: its L3 norm at d = 3,
        otherwise its band profile at besov_p."""
        if grid.d == 3:
            return lebesgue_norm(snap, 3)
        return band_profile(snap, besov_p)[1]

    probes = []
    last_completing = None  # (RunLog, per-snapshot reductions)

    def probe(alpha: float) -> bool:
        nonlocal last_completing
        columns = []
        run = evolve_streaming(fam.member(alpha), cfg, lambda snap: columns.append(reduce(snap)))
        tripped = run.trip_reason is not None
        # a run that goes non-finite at t = 0 takes no snapshot and ends there
        final_time = float(run.times[-1]) if run.times.size else 0.0
        max_cfl = (None if run.status == NON_FINITE
                   else float(np.max(run.records["linf"]) * cfg.dt / grid.spacing))
        probes.append({"alpha": alpha, "status": run.status,
                       "final_time": final_time, "margin": _margin(run, cfg),
                       "trip_reason": run.trip_reason, "max_cfl": max_cfl,
                       "cfl_over_1": max_cfl is None or max_cfl > 1.0})
        if not tripped:
            last_completing = run, columns
        return tripped

    if probe(fam.alpha_lo):
        raise DomainError(
            f"family invariant violated: member({fam.alpha_lo}) did not complete"
        )
    if not probe(fam.alpha_hi):
        raise DomainError(
            f"family invariant violated: member({fam.alpha_hi}) completed; "
            "no resolution limit inside the amplitude range"
        )
    lo, hi = fam.alpha_lo, fam.alpha_hi
    # the bracket ends and the completing probes as (log alpha, log margin)
    lo_pt, hi_pt = ((math.log(p["alpha"]), _log_margin(p["margin"])) for p in probes)
    completing = [lo_pt]
    widths = [math.log(hi / lo)]
    while hi / lo - 1.0 > tol:
        alpha = None
        if len(widths) < 3 or widths[-1] <= 0.5 * widths[-3]:
            roots = [_secant_root(*lo_pt, *hi_pt)]
            if len(completing) > 1:
                roots.append(_secant_root(*completing[-2], *completing[-1]))
            alpha = _secant_probe(lo, hi, roots, tol)
        if alpha is None or not lo < alpha < hi:
            alpha = float(np.sqrt(lo * hi))
        tripped = probe(alpha)
        point = (math.log(alpha), _log_margin(probes[-1]["margin"]))
        if tripped:
            hi, hi_pt = alpha, point
        else:
            lo, lo_pt = alpha, point
            completing.append(point)
        widths.append(math.log(hi / lo))

    datum = fam.member(lo)
    l3 = lebesgue_norm(datum, 3) if grid.d == 3 else None
    bes, _, _, datum_warns = besov_norm_detailed(datum, idx)
    run, columns = last_completing
    sup, sup_warns = _sup_report(run.times, columns, grid, None if grid.d == 3 else idx)
    # the sup run starts from the datum, so the two often warn alike: each
    # distinct message is raised once
    for w in dict.fromkeys(datum_warns + sup_warns):
        warnings.warn(w, AccuracyWarning, stacklevel=2)
    return ThresholdReport(
        bracket=(lo, hi),
        datum_l3_norm=l3,
        datum_besov_norm=bes,
        sup_critical_norm=sup.value,
        sup_critical_time=sup.time_of_max,
        probes=probes,
        config_echo=cfg.echo(),
    )


@dataclass(frozen=True)
class RankOneBattery:
    """Test fields phi_i = bump_i * weights[i]: a separable scalar bump on the
    grid times a constant vector.  bump_i(x) = prod_a factors[i, a, x_a], so
    the battery is held as the per-axis factors (count, d, N) and the weights
    (count, components), never as N^d arrays or full vector fields."""

    grid: Grid
    factors: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.factors)


def pairing_table(traj: Trajectory, tests: RankOneBattery) -> np.ndarray:
    """Grid-quadrature pairings <u(t_k), phi_i> for a battery on the
    trajectory's grid whose test fields have as many components as it.

    Each component of a snapshot is contracted against the factors one axis at
    a time: one matrix product over the last axis, then one einsum per
    remaining axis, last to first.  No bump is formed; the largest temporary
    is N^(d-1) * count per component.  The weights then sum over components.
    Each snapshot is read inside its own row's call, so it is freed before
    the next one is read.
    """
    grid = traj.grid
    if not grid.compatible(tests.grid):
        raise DomainError("test field grid mismatch")
    snaps = traj.snapshots
    table = np.empty((len(snaps), len(tests)))
    for k in range(len(snaps)):
        table[k] = _pairings(snaps[k], tests)
    return table


def _pairings(snap: RealVectorField, tests: RankOneBattery) -> np.ndarray:
    """The row of pairing_table for one snapshot."""
    grid = snap.grid
    if tests.weights.shape[1] != snap.ncomp:
        raise DomainError(f"the test fields have {tests.weights.shape[1]} components, "
                          f"the trajectory has {snap.ncomp}")
    last = tests.factors[:, -1].T
    per_comp = np.empty((len(tests), snap.ncomp))
    for c, comp in enumerate(snap.data):
        partial = (comp.reshape(-1, grid.N) @ last).reshape(grid.shape[:-1] + (-1,))
        for a in range(grid.d - 2, -1, -1):
            partial = np.einsum("...xi,ix->...i", partial, tests.factors[:, a])
        per_comp[:, c] = partial
    return np.sum(tests.weights * per_comp, axis=1) * grid.cell_volume


def make_test_battery(grid: Grid, count: int = 8, seed: int = 7) -> RankOneBattery:
    """Battery of smooth localized vector test functions for weak-convergence
    probes: Gaussian bumps of random width and center, each times a random
    vector.  Each bump is kept as its per-axis factors (`gaussian_factors`),
    count * d * N samples in all, never as an N^d array."""
    rng = _rng(seed)
    if count < 1:
        raise DomainError("test battery must be nonempty")
    factors = np.empty((count, grid.d, grid.N))
    weights = np.empty((count, grid.d))
    for i in range(count):
        sigma = grid.L * (0.04 + 0.05 * rng.random())
        center = (rng.random(grid.d) - 0.5) * grid.L * 0.5
        weights[i] = rng.standard_normal(grid.d)
        factors[i] = gaussian_factors(grid, sigma, center=center)
    return RankOneBattery(grid, factors, weights)


@dataclass
class ProbeReport:
    times: np.ndarray
    pairings: np.ndarray
    all_decaying: bool

    def to_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "pairings": [[float(v) for v in row] for row in self.pairings],
            "all_decaying_final_third": self.all_decaying,
        }


def weak_convergence_probe(traj: Trajectory, tests: RankOneBattery) -> ProbeReport:
    """Pairings of every snapshot against the battery, with a late-time decay flag.

    The flag is set when every |pairing| is nonincreasing over the final third
    of the snapshots, up to a 1% slack relative to the largest late pairing
    (sign-crossing pairings wiggle at small amplitude without signaling growth).
    """
    if not tests:
        raise DomainError("test battery must be nonempty")
    if not traj.snapshots:
        raise DomainError("empty trajectory")
    table = pairing_table(traj, tests)
    k0 = max(0, len(traj.snapshots) - max(2, len(traj.snapshots) // 3))
    tail = np.abs(table[k0:, :])
    slack = 1e-12 + 0.01 * np.max(tail)
    decaying = bool(np.all(np.diff(tail, axis=0) <= slack))
    return ProbeReport(times=np.asarray(traj.times), pairings=table,
                       all_decaying=decaying)
