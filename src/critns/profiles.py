"""Profile synthesis, evolution superposition and remainder tracking.

A profile system is a list of divergence-free profiles, each with its own
scale/core sequence (the entry with the identity sequence is the weak-limit
slot), plus a remainder rule producing the small high-frequency tail per
sequence index.  Synthesized data evolve under the full dynamics; the
superposition of individually evolved profiles plus the heat flow of the tail
approximates that evolution, and the difference is the tracked remainder.

Bookkeeping avoids transform round trips.  A solver snapshot is already
divergence-free, and a whole-cell translation (unit scale) is an exact roll
that commutes with Leray projection, so such a part is rolled and not
re-projected; only real dilations are.  A synthesized datum is projected once.
`ProfileSystem.validate` requires the remainder's base, like every profile,
to be a divergence-free velocity field, so its heat flow is one more such
part: every frame, the lab frame's superposition and the rescaled frame of
the remainder equation alike, reads it from `EvolvedSystem.remainder_heat`,
one forward transform per index n.  The EvolvedSystem keeps the flow of the
index last asked for only: a sweep over one index reuses it, and a new index
replaces it.  The profile runs keep no frame either: each lookup reads the
frame it needs.  The remainder equation's source G is summed on the dealias
box as Leray-projected coefficients; its paraproduct piece is split off with
one low-high sum over every component pair, formed one row of pairs at a
time, and part1 and G - part1 are the only inverse transforms.  The equation
residual stays on that box too: one pruned forward transform per snapshot,
and the solver's own right-hand side and Parseval energy
(`solver.StepWorkspace`).

The bookkeeping is bounded in memory: every trajectory it derives makes its
snapshots on read.  A remainder (`remainder`) and its frame rescaling
(`scaling.apply_lambda_spacetime`, in `remainder_equation_residual`)
recompute each snapshot when it is read, and the drift and source norms
reduce each sample to its band profiles before the next is made
(`norms.sampled_norms`).

The weak-convergence battery that probes these trajectories lives in
`criticality`, beside the probe that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (DomainError, GridMismatchError, SupportOverflowError,
                     TrajectoryCoverageError)
from .fields import band_noise
from .grid import (
    DerivedSnapshots,
    Grid,
    HeatFlow,
    RealVectorField,
    _leray_coefficients,
    forward_transform,
    inverse_transform,
    leray_project,
    spectral_divergence_ratio,
    zero_field,
)
from .lp import low_high, low_pass
from .norms import (
    _trapezoid_weights,
    band_profile,
    critical_exponent,
    perturbation_spaces,
    power_sums,
    sampled_norms,
)
from .scaling import (ScaleCore, ScaleCoreSequence, apply_lambda, apply_lambda_spacetime,
                      is_whole_cell_roll, orthogonality_check)
from .solver import (
    SolverConfig,
    StepWorkspace,
    Trajectory,
    _div_flux_hat,
    _pair_product,
    _self_product,
    dealias_box,
    evolve,
)


@dataclass
class RemainderRule:
    """Fixed base field scaled by decay^n; the default base is a small
    divergence-free packet in the top resolvable octave."""

    base: RealVectorField
    decay: float = 0.5

    def at(self, n: int) -> RealVectorField:
        return self.base * self.decay**n


def default_remainder(grid: Grid, seed=0, amplitude: float = 1e-2,
                      decay: float = 0.5) -> RemainderRule:
    k_hi = grid.k_max_axis * 2.0 / 3.0
    base = band_noise(grid, k_hi / 2.0, k_hi, seed, ncomp=grid.d,
                      amplitude=amplitude, divergence_free=True)
    return RemainderRule(base=base, decay=decay)


@dataclass
class ProfileSystem:
    """Profiles with their scale/core sequences and the remainder rule."""

    profiles: list  # [(RealVectorField, ScaleCoreSequence), ...]
    remainder: RemainderRule | None = None

    @property
    def grid(self) -> Grid:
        return self.profiles[0][0].grid

    def sequence(self, j: int) -> ScaleCoreSequence:
        return self.profiles[j][1]

    def truncate(self, J: int) -> "ProfileSystem":
        """Profiles 0..J and the same remainder; DomainError unless J >= 0."""
        if J < 0:
            raise DomainError(f"J must be >= 0, got {J}")
        return ProfileSystem(profiles=self.profiles[: J + 1], remainder=self.remainder)

    def validate(self) -> None:
        """DomainError unless every profile and the remainder's base is a
        divergence-free velocity field (spectral divergence ratio <= 1e-8;
        the remainder is checked at index 0, its base) and every pair of
        scale/core sequences is orthogonal over its last 3 indices.  The
        remainder's heat flow is then divergence-free too, so every frame
        maps it as it maps a profile part (`_rescaled`)."""
        parts = [(f"profile {j}", phi) for j, (phi, _) in enumerate(self.profiles)]
        for name, f in parts + [("the remainder", self.remainder_at(0))]:
            if f.ncomp != self.grid.d:
                raise DomainError(f"{name} is not a velocity field")
            if spectral_divergence_ratio(f) > 1e-8:
                raise DomainError(f"{name} is not divergence-free")
        for j in range(len(self.profiles)):
            for jp in range(j + 1, len(self.profiles)):
                verdict = orthogonality_check(self.sequence(j), self.sequence(jp), 3)
                if verdict.value == "NotOrthogonal":
                    raise DomainError(
                        f"scale/core sequences of profiles {j} and {jp} are not orthogonal"
                    )

    def remainder_at(self, n: int) -> RealVectorField:
        if self.remainder is None:
            return zero_field(self.grid)
        return self.remainder.at(n)


def _rescaled(f: RealVectorField, sc: ScaleCore, name: str = "field") -> RealVectorField:
    """Dilate/translate a divergence-free field.  A whole-cell translation is
    an exact roll, which commutes with Leray projection, so it is returned as
    is; any other map is re-projected, which removes its clip dust so the part
    stays divergence-free at spectral tolerance."""
    out = apply_lambda(f, sc, name=name)
    return out if is_whole_cell_roll(sc) else leray_project(out)


def synthesize_datum(sys: ProfileSystem, n: int) -> RealVectorField:
    """phi_0-style superposed datum at sequence index n, including the remainder.

    The profiles validate only to a divergence tolerance, so their rescaled
    sum is Leray-projected once; the remainder is added as given.
    """
    total = None
    for j, (phi, seq) in enumerate(sys.profiles):
        try:
            part = apply_lambda(phi, seq[n], name=f"profile {j}")
        except SupportOverflowError as exc:
            raise SupportOverflowError(f"profile {j} overflows at index {n}: {exc}") from exc
        total = part if total is None else total + part
    return leray_project(total) + sys.remainder_at(n)


def order_profiles(sys: ProfileSystem, lifespans: list, n_ref: int) -> list:
    """The permutation that sorts the profiles stably by lambda_{j,n_ref}^2
    * T_j ascending (inf sorts last)."""
    if len(lifespans) != len(sys.profiles):
        raise DomainError("one lifespan per profile required")
    products = [sys.sequence(j)[n_ref].lam ** 2 * lifespans[j] for j in range(len(lifespans))]
    return sorted(range(len(products)), key=lambda j: (products[j], j))


@dataclass
class EvolvedSystem:
    """Per-profile evolutions in their native frames, their lifespans (inf
    for a run that completed) and the profile ordering."""

    system: ProfileSystem
    trajectories: list
    lifespans: list
    ordering: list

    def tau(self, n: int) -> float:
        """Blow-up-proxy horizon min over finite-lifespan profiles of lambda^2 T_j."""
        vals = [self.system.sequence(j)[n].lam ** 2 * life
                for j, life in enumerate(self.lifespans) if np.isfinite(life)]
        return min(vals) if vals else float("inf")

    def frame(self, n: int) -> ScaleCore:
        """Scale/core of the first profile in the ordering (the 0-frame)."""
        return self.system.sequence(self.ordering[0])[n]

    @cached_property
    def remainder_flow(self):
        """n -> heat flow of the system's remainder at index n: its spectrum,
        transformed once and kept, for the index last asked for only, for
        every later time at that index.  The cache refers to the system,
        not to this object."""
        remainder_at = self.system.remainder_at
        return lru_cache(maxsize=1)(lambda n: HeatFlow(remainder_at(n)))

    def remainder_heat(self, n: int, t: float) -> RealVectorField:
        """heat_semigroup(system.remainder_at(n), t), bitwise, from the kept
        spectrum."""
        if t == 0.0:
            return self.system.remainder_at(n).require_finite()
        return self.remainder_flow(n).at(t)


def evolve_system(sys: ProfileSystem, cfg: SolverConfig, n_window) -> EvolvedSystem:
    """Evolve every profile in its native frame with a parabolically matched step.

    Each profile's horizon covers cfg.T / min_n lambda_{j,n}^2 over the tested
    window, so rescaled lookups never run off the end.  The profiles are
    ordered at the window's first index.  Every sequence reads the window
    before any profile runs, so an index outside a sequence's range stops
    the call first (`ScaleCoreSequence`).
    """
    n_window = list(n_window)
    lam_mins = [min(seq[n].lam for n in n_window) for _, seq in sys.profiles]
    trajectories, lifespans = [], []
    for j, (phi, _) in enumerate(sys.profiles):
        scale = 1.0 / lam_mins[j]**2
        # snapshot every step: superposition lookups at t/lambda^2 then hit
        # recorded frames exactly for dyadic lambda^2, avoiding interpolation
        # error in the remainder.  The run keeps each frame as its
        # coefficients inside the dealias sphere (about 16% of a frame's
        # bytes) and makes it on read (grid.DerivedSnapshots), so every
        # lookup is one pruned inverse transform, bitwise the stepped frame.
        cfg_j = replace(cfg, T=cfg.T * scale, dt=cfg.dt * scale, snapshot_stride=1)
        traj = evolve(phi, cfg_j)
        if not traj.times.size:
            raise DomainError(f"profile {j}'s run went non-finite at t = 0 and took "
                              "no snapshot")
        trajectories.append(traj)
        lifespans.append(traj.final_time if traj.status != "Completed" else float("inf"))
    ordering = order_profiles(sys, lifespans, n_window[0])
    return EvolvedSystem(system=sys, trajectories=trajectories,
                         lifespans=lifespans, ordering=ordering)


def superpose_evolution(ev: EvolvedSystem, sys: ProfileSystem, n: int,
                        t: float) -> RealVectorField:
    """Sum of rescaled profile evolutions plus the heat flow of the remainder,
    formed in the first part's own buffer (each rescaled part is a new array)."""
    tau_n = ev.tau(n)
    if t > tau_n * (1 + 1e-9):
        raise TrajectoryCoverageError(
            f"requested time {t} beyond the blow-up-proxy horizon {tau_n}"
        )
    parts = _profile_parts(ev, sys, n, t, ScaleCore.identity(sys.grid.d))
    total = next(parts)
    for part in parts:
        np.add(total.data, part.data, out=total.data)
    np.add(total.data, ev.remainder_heat(n, t).data, out=total.data)
    return total


def remainder(u_n: Trajectory, ev: EvolvedSystem, sys: ProfileSystem, n: int) -> Trajectory:
    """r(t) = u_n(t) - superposition(t) on the snapshot grid of u_n, up to
    the first of its final time and the horizon tau_n.

    The snapshots are made on read (`DerivedSnapshots`): snapshot i is
    u_n.snapshots[i] - superpose_evolution(ev, sys, n, t_i), and each read
    recomputes it, so a reduction over the remainder holds one snapshot
    at a time.  Nothing is read when the remainder is made: an error of
    the superposition (a profile's support leaving the box) surfaces at
    the read, inside the norm that reads it.
    """
    if not u_n.grid.compatible(sys.grid):
        raise GridMismatchError(f"u_{n} on {u_n.grid}, the profile system on {sys.grid}")
    if not u_n.times.size:
        raise DomainError(f"the run of u_{n} went non-finite at t = 0 and took no snapshot")
    t_max = min(u_n.final_time, ev.tau(n))
    times = u_n.times[: np.count_nonzero(u_n.times <= t_max * (1 + 1e-9))]
    snaps = u_n.snapshots

    def snapshot(i: int) -> RealVectorField:
        # u - superposition, written into the superposition's buffer
        total = superpose_evolution(ev, sys, n, times[i])
        np.subtract(snaps[i].data, total.data, out=total.data)
        return total

    return Trajectory(grid=u_n.grid, times=times,
                      snapshots=DerivedSnapshots(times.size, snapshot),
                      status=u_n.status, config_echo={"kind": "remainder", "n": n})


def _profile_parts(ev: EvolvedSystem, sys: ProfileSystem, n: int, t: float,
                   frame: ScaleCore):
    """Profile j's run at t lam_frame^2 / lam_{j,n}^2 mapped by Lambda_frame^{-1}
    Lambda_{j,n} into the frame, one new field per profile.  In the lab frame
    (the identity) both are bitwise those of Lambda_{j,n} alone."""
    for j, (_, seq) in enumerate(sys.profiles):
        sc = seq[n].compose_inverse_of(frame)
        native_t = t * frame.lam**2 / seq[n].lam ** 2
        yield _rescaled(ev.trajectories[j].at(native_t), sc, name=f"profile {j}")


def _frame_components(ev: EvolvedSystem, sys: ProfileSystem, n: int, t: float):
    """Rescaled-frame profile fields U^{j,0}(t) and remainder heat flow W(t).

    W is the lab frame's remainder heat flow (`EvolvedSystem.remainder_heat`)
    at t lam_frame^2, mapped into the frame like a profile part: a validated
    remainder is divergence-free, so a whole-cell roll keeps it as is and a
    real dilation is re-projected (`_rescaled`).
    """
    frame = ev.frame(n)
    parts = list(_profile_parts(ev, sys, n, t, frame))
    w = _rescaled(ev.remainder_heat(n, t * frame.lam**2), frame.inverse(), name="remainder")
    return parts, w


def drift_term(ev: EvolvedSystem, sys: ProfileSystem, n: int, t: float) -> RealVectorField:
    """The rescaled-frame drift: sum of frame-transported profile evolutions
    plus the transported remainder heat flow."""
    parts, w = _frame_components(ev, sys, n, t)
    return sum(parts, w)


def drift_norm(ev: EvolvedSystem, sys: ProfileSystem, n: int, T0: float, p: float,
               n_samples: int) -> float:
    """L^p-in-time B^{s_p + 2/p}_{p,p} norm of the drift over [0, T0]."""
    grid = sys.grid
    *_, drift = perturbation_spaces(p, grid.d)
    times = np.linspace(0.0, T0, n_samples)
    return sampled_norms(grid, times, lambda t: (drift_term(ev, sys, n, t),), p, [drift])[0]


def _source(parts: list, w: RealVectorField):
    """Frame profile sum u = sum_a U_a and the full remainder-equation source
    G = -Q(u, w) - Q(w, w)/2 - sum_{a<b} Q(U_a, U_b) from the frame parts, as
    Leray-projected coefficients on the dealias box.

    Q(a, b) = P div(a (x) b + b (x) a), so the flux divergences are summed on
    the box and projected once; Q(w, w)/2 is the divergence of w (x) w.
    """
    box = dealias_box(w.grid)

    def minus_div(entry):
        return _div_flux_hat(entry, box, sign=-1.0)

    u = sum(parts[1:], parts[0])
    g = minus_div(_pair_product(u.data, w.data))
    g += minus_div(_self_product(w.data))
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            g += minus_div(_pair_product(parts[a].data, parts[b].data))
    return u, _leray_coefficients(g, box)


def source_term(ev: EvolvedSystem, sys: ProfileSystem, n: int, t: float):
    """The split (part1, part2) of the remainder equation's source G at time t.

    part1 = -P div(T_u w + (T_u w)^T) carries the low-frequency profiles u
    against the high-frequency remainder w; part2 = G - part1 holds the other
    Bony pieces, the remainder self-interaction and the profile cross terms.
    """
    grid = sys.grid
    box = dealias_box(grid)
    parts, w = _frame_components(ev, sys, n, t)
    u, g = _source(parts, w)
    del parts  # only u and w enter the Bony split; free the profile fields first
    tuw = low_high(grid, u.data[:, None], w.data[None])
    # P div(T_u w + (T_u w)^T) = -part1 on the box; G - part1 = g + it
    p1 = _leray_coefficients(
        _div_flux_hat(lambda i, j: tuw[i, j] + tuw[j, i], box), box)
    del tuw
    g += p1
    return (RealVectorField(grid, -inverse_transform(p1, grid, box.extent)),
            RealVectorField(grid, inverse_transform(g, grid, box.extent)))


def source_norms(ev: EvolvedSystem, sys: ProfileSystem, n: int, T0: float, p: float,
                 n_samples: int) -> dict:
    """Sum-space upper bound: part1 in L^{2p/(p+1)} B^{s_p-1+1/p}, part2 in
    L^{p'} B^{s_p-2/p}; the F-norm bound is their sum.  One source_term per
    sample time gives both parts' band profiles, and the parts are dropped
    before the next time."""
    grid = sys.grid
    *spaces, _ = perturbation_spaces(p, grid.d)
    times = np.linspace(0.0, T0, n_samples)
    n1, n2 = sampled_norms(grid, times, lambda t: source_term(ev, sys, n, t), p, spaces)
    return {"paraproduct_part": n1, "zeta_part": n2, "upper_bound": n1 + n2}


def norm_splitting_check(ev: EvolvedSystem, sys: ProfileSystem, n: int, t_n: float) -> float:
    """Additivity defect of the critical L^3 norm over the rescaled evolved
    profiles, |sum_c (||sum_j F_j^c||_3^3 - sum_j ||F_j^c||_3^3)| with the
    component-wise cube convention."""
    grid = sys.grid
    if grid.d != 3:
        raise DomainError("the L3 splitting form needs d = 3")
    fields = list(_profile_parts(ev, sys, n, t_n, ScaleCore.identity(grid.d)))
    w = grid.cell_volume
    total = sum(fields[1:], fields[0])
    parts = sum(power_sums(f.data, 3) * w for f in fields)
    return abs(float(np.sum(power_sums(total.data, 3) * w - parts)))


def extract_cores(f: RealVectorField, count: int = 1):
    """Dominant concentration scale/cores of a field, amplitude-descending.

    The scale estimate is 2^{-j*} for the band j* maximizing the critical-norm
    content 2^{j s_p} ||Delta_j f||_{L^p} at p = d; cores are peaks of the low-passed
    magnitude, suppressing a 2-scale neighborhood between picks.  Ties break
    by lexicographic core order.  Returns None for a zero field.
    """
    if f.max_abs() == 0.0:
        return None
    grid = f.grid
    p = float(grid.d)
    sp = critical_exponent(p, grid.d)
    levels, vals = band_profile(f, p)
    weights = 2.0 ** (levels * sp) * vals
    j_star = int(levels[int(np.argmax(weights))])
    lam_hat = 2.0**-j_star
    smooth = low_pass(f, j_star + 2)
    mag = np.sqrt(np.sum(smooth.data**2, axis=0))
    coords = grid.axis_coords
    out = []
    mag_work = mag.copy()
    for _ in range(count):
        peak = np.max(mag_work)
        if peak <= 0:
            break
        candidates = np.argwhere(mag_work >= peak * (1.0 - 1e-9))
        pts = sorted(tuple(coords[i] for i in idx) for idx in candidates)
        x_hat = pts[0]
        out.append(ScaleCore(lam_hat, x_hat))
        r2 = sum(dx**2 for dx in grid.periodic_offsets(x_hat))
        mag_work[r2 <= (2.0 * lam_hat) ** 2] = 0.0
    return out


def ns_equation_residual(traj: Trajectory, forcing=None) -> float:
    """L^2-in-time L^2-in-space residual of du/dt + P div(u x u) - Lap u
    + Q(u, F) - G on the snapshot grid, with centered time differences.

    With a forcing callable t -> (drift F, source G) this is the
    perturbed-system residual, G given as Leray-projected coefficients on the
    dealias box (as `_source` returns it); without it it
    is the plain equation residual, which serves as the discrete floor (the
    time-differencing error dominates both).  The residual lives on that box,
    the solver's state space, and reads the equation from the solver's
    `StepWorkspace`, one per call: its right-hand side (`rhs`, with F), to
    which the projected G is added, and its Parseval `energy`, which gives
    each L^2 norm as it gives the solver's l2 record.  Each snapshot is read
    once and transformed onto the box unmasked, and the time difference is
    taken on the coefficients (a rolling window of three, the last two beside
    their snapshots).  What a
    trajectory holds outside the box is left out (a solver run, its remainder
    and their frame rescalings hold nothing there above roundoff).
    """
    grid = traj.grid
    box = dealias_box(grid)
    if len(traj.snapshots) < 3:
        raise DomainError("residual check needs at least 3 snapshots")
    times = traj.times
    window = ((s, forward_transform(s.data, grid, box.extent)) for s in traj.snapshots)
    (_, prev_hat), (u, uh) = next(window), next(window)
    work = StepWorkspace(box, uh.shape[0], forcing is not None)
    rhs, resid = work.n1, work.pred
    res_l2 = []
    for i, (u_next, next_hat) in enumerate(window, start=1):
        f, g_hat = (None, None) if forcing is None else forcing(float(times[i]))
        work.rhs(u.data, rhs, f)
        if g_hat is not None:
            rhs += g_hat
        del f, g_hat  # so the next forcing call does not hold two frames
        np.subtract(next_hat, prev_hat, out=resid)
        resid /= times[i + 1] - times[i - 1]
        resid -= rhs
        # the right-hand side is dead once subtracted, and holds k^2 uh
        resid += np.multiply(box.k_squared, uh, out=rhs)
        res_l2.append(np.sqrt(grid.L**grid.d * work.energy(resid)))
        prev_hat, u, uh = uh, u_next, next_hat
    wts = _trapezoid_weights(times[1:-1])
    return float(np.sqrt(np.sum(wts * np.asarray(res_l2)**2)))


def remainder_equation_residual(r_traj: Trajectory, ev: EvolvedSystem,
                                sys: ProfileSystem, n: int) -> float:
    """Residual of the rescaled-frame remainder equation with the assembled
    drift and source; ties the profile bookkeeping to the perturbed solver."""
    frame = ev.frame(n)
    r0 = apply_lambda_spacetime(r_traj, frame.inverse(), check_support=False)

    def forcing(s: float):
        # one set of frame parts per time serves both the drift and the source
        parts, w = _frame_components(ev, sys, n, s)
        return sum(parts, w), _source(parts, w)[1]

    return ns_equation_residual(r0, forcing=forcing)
