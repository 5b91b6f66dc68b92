"""Lebesgue, homogeneous Besov, space-time and heat-characterized norms.

Vector fields use the component convention ||(f^c)|| = ||(||f^c||_{L^p})||_{l^p}.
Besov norms sum over the grid's resolvable dyadic range; space-time norms use
trapezoid quadrature on the snapshot times (per band first, then the l^q sum,
which is the stronger ordering of the two).

Every L^p value ends in one reduction, `_lp_norm`: p = inf, the power sums,
and their re-sum relative to the sample max when a power overflows, fed one
component at a time (a copy of a field's component for lebesgue_norm, a
block's last inverse stage for the block norms).  Every block norm
||F^{-1}(m * coeff)||_{L^p} (dyadic bands, heat-kernel curves) goes through
`_multiplier_norms`, which takes each radial multiplier m as its values on
the grid's radial table (`grid.RadialTable`) and its blocks from the grid's
band engine (`grid.multiplier_blocks`: m gathered onto its support box only,
each component's product formed there when it is read, in one work array of
one component's shape, and its complex inverse stages pruned to that box).
No multiplier is kept between norms.

Every space-time band table comes from one builder, `band_tables`: a
trajectory's eps[j, i] = ||Delta_j u(t_i)||_{L^p}, built once per (read-only
trajectory, p) and kept on the trajectory (`Trajectory.band_table`), which
the Chemin-Lerner norms, `e_norm` and the sup-in-time Besov norm read, and
the tables of sampled parts.  The perturbation estimate's drift, source and
force norms reduce each sample to such a table in one sampler,
`sampled_norms`, and nowhere else.  Every Chemin-Lerner-type norm ends in
`_cl_from_matrix`, which asks for at least 2 strictly increasing times.  The
Serrin norm and the sup-in-time L^3 norm read one column ||u(t_i)||_{L^q},
kept like the band table (`Trajectory.lebesgue_column`).

Heat-characterized norms integrate over smoothing times tau by the trapezoid
rule in log tau, on `default_tau_grid`: 8 points per decade, an odd count, so
that every other tau keeps both end points.  Each reports, from the same
curve, the relative change of the trapezoid sum on every other tau: the error
of the 4-per-decade sum, a conservative estimate of the error of the 8.  The
heat symbol of each tau is its values on the radial table
(`grid.heat_derivative_symbol`), a few thousand entries at 64^3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, DomainError
from .grid import (
    Grid,
    RealVectorField,
    forward_transform,
    heat_derivative_symbol,
    last_inverse_stage,
    multiplier_blocks,
)
from .lp import band_range, dyadic_multipliers

INF = float("inf")


def critical_exponent(p: float, d: int) -> float:
    """s_p = -1 + d/p, the regularity making the Besov norm scale-invariant."""
    if not p > 0:
        raise DomainError(f"critical exponent needs p > 0, got {p}")
    return -1.0 + d / p


@dataclass(frozen=True)
class BesovIndex:
    s: float
    p: float
    q: float

    def __post_init__(self):
        # written so that NaN fails too
        if not (abs(self.s) < INF and self.p >= 1 and self.q >= 1):
            raise DomainError(f"Besov index needs a finite smoothness and integrability "
                              f">= 1, got s={self.s}, p={self.p}, q={self.q}")

    @staticmethod
    def critical(p: float, d: int) -> "BesovIndex":
        """(s_p, p, p): the scale-invariant index with q = p."""
        return BesovIndex(critical_exponent(p, d), p, p)


def perturbation_spaces(p: float, d: int) -> tuple:
    """(time exponent rho, Besov index) of each L^rho_t B^s_{p,p} space of
    the perturbation estimate at p: the source's first part in
    L^{2p/(p+1)} B^{s_p-1+1/p}, its second part in L^{p'} B^{s_p-2/p} (p' the
    conjugate exponent), and the drift in L^p B^{s_p+2/p}."""
    sp = critical_exponent(p, d)
    pprime = INF if p == 1 else p / (p - 1.0)
    return ((2.0 * p / (p + 1.0), BesovIndex(sp - 1.0 + 1.0 / p, p, p)),
            (pprime, BesovIndex(sp - 2.0 / p, p, p)),
            (p, BesovIndex(sp + 2.0 / p, p, p)))


def _power_sums_in_place(x: np.ndarray, p: float, square: np.ndarray | None = None):
    """power_sums that overwrites x with |x|^p; square is one component's worth
    of scratch for p = 3, allocated here if not given.

    The operations and their order are those of the product forms x*x,
    (x*x)*|x| and (x*x)^2, so the sums are the same bit for bit.
    """
    if p == 2:
        x *= x
    elif p == 3:
        if square is None:
            square = np.empty(x.shape[1:])
        for comp in x:
            np.multiply(comp, comp, out=square)
            np.abs(comp, out=comp)
            comp *= square
    elif p == 4:
        x *= x
        x *= x
    else:
        np.abs(x, out=x)
        x **= p
    return np.sum(x, axis=tuple(range(1, x.ndim)))


def power_sums(data: np.ndarray, p: float) -> np.ndarray:
    """Per-component sums of |x|^p over the sample axes of a (C, N, ..., N) array.

    p = 2, 3 and 4 are products (x*x, x*x*|x|, (x*x)^2), several times faster
    than the generic pow() that every other p takes.
    """
    return _power_sums_in_place(data.copy(order="K"), p)


def _check_exponent(p: float) -> None:
    if not (p >= 1):  # NaN fails too
        raise DomainError(f"Lebesgue exponent must be >= 1, got {p}")


def _lp_norm(make, ncomp: int, grid: Grid, p: float, square: np.ndarray | None) -> float:
    """The L^p norm of the components make(0), ..., make(ncomp - 1), each a
    fresh writable sample array, made inside the call that reduces it so that
    one exists at a time; p = inf is the sample max.  Powers that overflow are
    summed again relative to the sample max (|x|^400 of x = 10).  square is
    the p = 3 scratch of `_power_sums_in_place`, one per norm call."""
    def abs_max(x):
        return np.max(np.abs(x, out=x))

    def lp(make) -> float:
        sums = np.array([_power_sums_in_place(make(c)[np.newaxis], p, square)[0]
                         for c in range(ncomp)])
        comp = (sums * grid.cell_volume) ** (1.0 / p)
        return float(np.sum(comp**p) ** (1.0 / p))

    if p == INF:
        return float(np.max([abs_max(make(c)) for c in range(ncomp)], initial=0.0))
    with np.errstate(over="ignore"):  # an overflow ends as inf, summed again below
        value = lp(make)
    if value != INF:
        return value
    top = float(np.max([abs_max(make(c)) for c in range(ncomp)]))
    # the powers of x / top are those of |x| / top, bit for bit
    return INF if top == INF else top * lp(lambda c: make(c) / top)


def lebesgue_norm(f: RealVectorField, p: float) -> float:
    """Riemann-sum L^p norm with cell weight (L/N)^d; p = inf is the sample max.
    Powers that overflow are summed again relative to the sample max."""
    _check_exponent(p)
    square = np.empty(f.grid.shape) if p == 3 else None
    return _lp_norm(lambda c: f.data[c].copy(), f.ncomp, f.grid, p, square)


def _multiplier_norms(coeff: np.ndarray, mults, grid: Grid, p: float) -> np.ndarray:
    """||F^{-1}(m * coeff)||_{L^p} for each multiplier m in turn, given as its
    values on grid.radial_table, as lebesgue_norm would give it, bit for bit.

    The blocks come from `grid.multiplier_blocks`; each component is formed
    when the reduction (`_lp_norm`) reads it and its last inverse stage runs
    there, so its samples are summed right after they are made and only one
    component's spectrum and samples exist at a time.  A block whose powers
    overflow reads its components again.
    """
    _check_exponent(p)
    square = np.empty(grid.shape) if p == 3 else None
    return np.array([_lp_norm(lambda c: last_inverse_stage(read(c), grid), len(coeff),
                              grid, p, square)
                     for read in multiplier_blocks(coeff, mults, grid)])


def _lq_sum(values: np.ndarray, q: float) -> float:
    """The l^q norm of nonnegative values, summed relative to the largest, as
    edge_share sums, so that no power overflows; a largest value of 0 or inf
    is the norm itself."""
    top = float(np.max(values)) if values.size else 0.0
    if q == INF or top == 0.0 or top == INF:
        return top
    return top * float(np.sum((values / top) ** q) ** (1.0 / q))


def _band_norms(coeff: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    """||Delta_j f||_{L^p} over the resolvable range, from f's forward_transform."""
    mults = dyadic_multipliers(grid, *band_range(grid))
    next(mults)  # the low-pass block is not a band
    return _multiplier_norms(coeff, mults, grid, p)


def band_profile(f: RealVectorField, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(levels, ||Delta_j f||_{L^p}) over the resolvable range; one forward FFT."""
    lo, hi = band_range(f.grid)
    return np.arange(lo, hi + 1), _band_norms(forward_transform(f.data, f.grid), f.grid, p)


def band_tables(grid: Grid, count: int, sample, p: float) -> tuple[np.ndarray, list]:
    """(levels, tables) with tables[k][j, i] = ||Delta_j F_k^i||_{L^p} for the
    parts (F_0^i, F_1^i, ...) that sample(i) returns, i = 0, ..., count - 1;
    with no sample, one empty table.  sample is called once per i, in order,
    and every part it returns is transformed before any band is formed, so
    that no loop variable holds a part: a sample made on demand is in memory
    one at a time, and none while its bands are formed."""
    lo, hi = band_range(grid)
    levels = np.arange(lo, hi + 1)
    rows = [[_band_norms(coeff, grid, p)
             for coeff in [forward_transform(part.data, grid) for part in sample(i)]]
            for i in range(count)]
    return levels, [np.array(col).T for col in zip(*rows)] or [np.empty((levels.size, 0))]


def sampled_norms(grid: Grid, times: np.ndarray, sample, p: float, spaces) -> list:
    """The Chemin-Lerner norm over times of each part that sample(t) returns,
    part k in the space (rho, BesovIndex) spaces[k]: the parts' band tables
    (`band_tables`, one sample at a time), each reduced by `_cl_from_matrix`.
    The drift, source and force norms of the perturbation estimate are these."""
    levels, tables = band_tables(grid, times.size, lambda i: sample(times[i]), p)
    # no sample gives one empty table, which the first norm's time check refuses
    return [_cl_from_matrix(times, levels, eps, *space)
            for eps, space in zip(tables, spaces)]


def edge_share(eps: np.ndarray, q: float) -> float:
    """The share of the l^q sum held by the largest weighted band when it sits
    at either end of the range, the low edge (e.g. heat-flow decay leaving only
    the lowest band) or the top two bands (under-resolution); 0 when it does
    not, or when every band is 0."""
    if eps.size < 3 or not np.max(eps) > 0:
        return 0.0
    peak = int(np.argmax(eps))
    if 0 < peak < eps.size - 2:
        return 0.0
    # relative to the peak, so that no power underflows
    return 1.0 if q == INF else 1.0 / float(np.sum((eps / eps[peak]) ** q))


def _edge_warning(levels: np.ndarray, eps: np.ndarray, q: float) -> list[str]:
    """A warning naming the edge band and its edge_share, if that is nonzero.
    Only the high edge truncates: the bands of band_range telescope exactly
    to Id - mean, so a low-edge peak is a datum whose lowest torus band
    dominates."""
    share = edge_share(eps, q)
    if share == 0.0:
        return []
    peak = int(np.argmax(eps))
    edge, note = (("low", "the lowest torus band dominates") if peak == 0
                  else ("high", "truncated dyadic sum may be inaccurate"))
    return [f"spectral content concentrated at the {edge} band-range edge "
            f"(level {levels[peak]} holds {share:.1%} of the l^q sum); {note}"]


def besov_from_profile(levels: np.ndarray, vals: np.ndarray, idx: BesovIndex):
    """(value, weighted bands 2^{js} ||Delta_j f||_{L^p}, edge warnings) of the
    Besov norm from a band profile."""
    eps = 2.0 ** (levels * idx.s) * vals
    return _lq_sum(eps, idx.q), eps, _edge_warning(levels, eps, idx.q)


def besov_norm_detailed(f: RealVectorField, idx: BesovIndex):
    levels, vals = band_profile(f, idx.p)
    value, eps, warns = besov_from_profile(levels, vals, idx)
    return value, levels, eps, warns


def besov_norm(f: RealVectorField, idx: BesovIndex) -> float:
    value, _, _, warns = besov_norm_detailed(f, idx)
    for w in warns:
        warnings.warn(w, AccuracyWarning, stacklevel=2)
    return value


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += dt / 2.0
    w[1:] += dt / 2.0
    return w


def _time_lp(values: np.ndarray, times: np.ndarray, rho: float) -> float:
    """Temporal L^rho of sampled |values(t)| by trapezoid; rho = inf is the max."""
    if rho == INF:
        return float(np.max(values))
    w = _trapezoid_weights(times)
    return float(np.sum(w * values**rho) ** (1.0 / rho))


def _thinned_indices(n: int, stride: int) -> np.ndarray:
    """Indices 0, stride, 2*stride, ... of n samples, plus the last one; at
    stride 2 and odd n, the samples of the trapezoid rule at twice the
    spacing."""
    keep = list(range(0, n, stride))
    if keep and keep[-1] != n - 1:
        keep.append(n - 1)
    return np.array(keep, dtype=int)


def _relative_change(full: float, coarse: float) -> float:
    return abs(full - coarse) / full if full > 0 else 0.0


def band_lp_matrix(traj, p: float, interval=None):
    """(times, levels, eps) for the snapshots in a closed time interval: the
    window's columns of the trajectory's band table."""
    keep = traj.window_indices(interval)
    levels, eps = traj.band_table(p)
    return traj.times[keep], levels, eps[:, keep]


def _cl_from_matrix(times, levels, eps, rho: float, idx: BesovIndex) -> float:
    """The Chemin-Lerner norm of a band table eps[j, i] sampled at times,
    at least 2 of them and strictly increasing: the one end of every
    space-time Besov norm."""
    if times.size < 2:
        raise DomainError("space-time norms need at least 2 snapshots")
    if not np.all(np.diff(times) > 0):
        raise DomainError("snapshot times must be strictly increasing")
    per_band = np.array([_time_lp(eps[i], times, rho) for i in range(levels.size)])
    return _lq_sum(2.0 ** (levels * idx.s) * per_band, idx.q)


def chemin_lerner_norm(traj, rho: float, idx: BesovIndex, interval=None) -> float:
    """Per-band temporal L^rho first, then the l^q sum over bands."""
    times, levels, eps = band_lp_matrix(traj, idx.p, interval)
    return _cl_from_matrix(times, levels, eps, rho, idx)


def stride_halving_error(traj, rho: float, idx: BesovIndex, interval=None) -> float:
    """Relative change of the Chemin-Lerner norm when every other snapshot is
    dropped (snapshots 0, 2, 4, ... and the last, then the window), read from
    the columns of the trajectory's band table."""
    full = chemin_lerner_norm(traj, rho, idx, interval)
    thin = _thinned_indices(traj.times.size, 2)
    keep = thin[np.isin(thin, traj.window_indices(interval))]
    levels, eps = traj.band_table(idx.p)
    half = _cl_from_matrix(traj.times[keep], levels, eps[:, keep], rho, idx)
    return _relative_change(full, half)


def e_norm(traj, p: float, q: float, T: float) -> float:
    """Intersection-space norm: max of L^inf(B^{s_p}) and L^{2p/(p+1)}(B^{s_p+1+1/p})."""
    sp = critical_exponent(p, traj.grid.d)
    times, levels, eps = band_lp_matrix(traj, p, (0.0, T))
    n_low = _cl_from_matrix(times, levels, eps, INF, BesovIndex(sp, p, q))
    n_high = _cl_from_matrix(
        times, levels, eps, 2.0 * p / (p + 1.0), BesovIndex(sp + 1.0 + 1.0 / p, p, q)
    )
    return max(n_low, n_high)


def default_tau_grid(grid: Grid, points_per_decade: int = 8) -> np.ndarray:
    """Log-spaced smoothing times covering the resolvable scale range, an odd
    number of them, so that every other tau keeps both end points."""
    tau_min = 0.02 / grid.k_max**2
    tau_max = 50.0 / grid.k_min**2
    n = int(np.ceil(points_per_decade * np.log10(tau_max / tau_min)))
    return np.geomspace(tau_min, tau_max, n + 1 - n % 2)


def _heat_kernel_lp_curve(f: RealVectorField, taus: np.ndarray, p: float) -> np.ndarray:
    """||K(tau) f||_{L^p} sampled over taus, K(tau) = tau d/dtau exp(tau Lap)."""
    grid = f.grid
    # exp(-tau|k|^2) underflows to 0 at large tau|k|^2, which prunes the inverse
    symbols = (heat_derivative_symbol(grid, tau) for tau in taus)
    return _multiplier_norms(forward_transform(f.data, grid), symbols, grid, p)


def heat_besov_norm_detailed(f: RealVectorField, idx: BesovIndex,
                             taus: np.ndarray | None = None) -> tuple[float, float]:
    """(heat_besov_norm, its relative tau-quadrature error estimate).

    The estimate is the relative change of the norm when only every other
    tau is kept: the error of the coarser sum, a conservative estimate of
    the error of the full one.
    """
    if taus is None:
        taus = default_tau_grid(f.grid)
    curve = _heat_kernel_lp_curve(f, taus, idx.p)
    integrand = taus ** (-idx.s / 2.0) * curve

    def norm(keep) -> float:
        """The L^q(dtau/tau) norm on taus[keep]: the max, or the trapezoid rule in log tau."""
        if idx.q == INF:
            return float(np.max(integrand[keep]))
        dln = _trapezoid_weights(np.log(taus[keep]))
        return float(np.sum(dln * integrand[keep] ** idx.q) ** (1.0 / idx.q))

    value = norm(slice(None))
    return value, _relative_change(value, norm(_thinned_indices(taus.size, 2)))


def heat_besov_norm(f: RealVectorField, idx: BesovIndex,
                    taus: np.ndarray | None = None) -> float:
    """Heat characterization: || tau^{-s/2} ||K(tau) f||_{L^p} ||_{L^q(dtau/tau)}.

    Comparable to besov_norm with equivalence constants fixed empirically per
    (d, s, p, q); the suite pins the ratio window.
    """
    return heat_besov_norm_detailed(f, idx, taus)[0]


def serrin_norm(traj, p_t: float, q_x: float) -> float:
    """L^{p_t} in time of L^{q_x} in space; warns off the scaling-critical line."""
    _check_exponent(p_t)
    _check_exponent(q_x)
    d = traj.grid.d
    if p_t != INF and abs(2.0 / p_t + d / q_x - 1.0) > 1e-12:
        warnings.warn(
            f"(p_t, q_x) = ({p_t}, {q_x}) is not scaling-critical in d={d}",
            AccuracyWarning,
            stacklevel=2,
        )
    elif p_t == INF and q_x != d:
        warnings.warn(
            f"(inf, {q_x}) is not the critical endpoint pair in d={d}",
            AccuracyWarning,
            stacklevel=2,
        )
    if len(traj.snapshots) < 2:
        raise DomainError("space-time norms need at least 2 snapshots")
    return _time_lp(traj.lebesgue_column(q_x), traj.times, p_t)


def norm_report(norm_name: str, parameters: dict, value: float, warns: list | None = None,
                error_estimate: dict | None = None) -> dict:
    report = {
        "norm_name": norm_name,
        "parameters": parameters,
        "value": float(value),
        "warnings": list(warns or []),
    }
    if error_estimate is not None:
        report["error_estimate"] = dict(error_estimate)
    return report
