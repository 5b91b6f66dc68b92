"""The four benchmark workloads: set-up, body and output checks.

Every critns function is looked up on its module at call time, so a tracer
installed before this module runs sees every call.  A workload seed n shifts
each generator seed of the workload by n; n = 0 reproduces the acceptance
gate's seeds.  Output checks use the acceptance gate's pinned tolerances
(tests/test_acceptance.py) and are never looser.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from critns import cli, criticality, fields, grid as grid_mod, io, lp, norms, profiles
from critns import scaling, solver

DIVERGENCE_TOL = 1e-10  # criterion 6
L2_MONOTONE_SLACK = 1e-8  # criterion 6
BRACKET_WIDTH = 0.01  # criterion 12
MAX_PROBES = 12  # criterion 12
REMAINDER_FINAL_FRAC = 0.10  # criterion 8
RESIDUAL_FLOOR_FACTOR = 10.0  # criterion 8
PARAPRODUCT_TOL = 1e-8  # criterion 2
RECONSTRUCT_TOL = 1e-10  # criterion 2
HEAT_LP_WINDOW = (0.1, 10.0)  # criterion 5

# Each workload's contention_exponent: how strongly it slows, on a log scale,
# when the speed probe's kernel slows (speed.py).  Fitted once from 15-20 runs
# per workload spread over fast and slow contention phases, as the slope that
# made the rescaled body time independent of the measured slowdown.  A wrong
# value widens the run-to-run spread; it cannot bias a comparison of two
# commits whose runs meet the same mix of phases.


class Evolve64:
    """CLI evolve of a random divergence-free datum at 64^3 (50 Heun steps)."""

    checks = ("exit_code", "status", "divergence", "l2_monotone", "snapshots")
    contention_exponent = 0.9

    def setup(self, seed, workdir):
        config = {
            "grid": {"d": 3, "N": 64},
            "u0": {"generator": {"type": "random_divfree", "seed": 7 + seed,
                                  "k_hi": 4.0, "amplitude": 0.3}},
            "solver": {"dt": 4e-3, "T": 0.2, "snapshot_stride": 5},
        }
        path = os.path.join(workdir, "evolve.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return {"config": path, "out": os.path.join(workdir, "evolve_out")}

    def body(self, st):
        return cli.main(["evolve", "--config", st["config"], "--out", st["out"],
                         "--threads", "1"])

    def check(self, st, code):
        summary = io.load_json(os.path.join(st["out"], "evolve.json"))
        traj = io.load_trajectory(os.path.join(st["out"], "trajectory"))
        div = max(grid_mod.spectral_divergence_ratio(s) for s in traj.snapshots)
        l2 = traj.records["l2"]
        return {
            "exit_code": (code == 0, code),
            "status": (summary["status"] == solver.COMPLETED, summary["status"]),
            "divergence": (div <= DIVERGENCE_TOL, div),
            "l2_monotone": (bool(np.all(np.diff(l2) <= L2_MONOTONE_SLACK * l2[:-1])),
                            float(np.max(np.diff(l2) / l2[:-1]))),
            "snapshots": (len(traj.snapshots) == 11, len(traj.snapshots)),
        }


class Threshold32:
    """Criterion 12 scaled to 32^3: 11 bisection probes of short solves.

    The seed moves the gate's bump by a whole number of cells.  Translation
    is an exact symmetry of the periodic discretization, so every seed bisects
    to the same bracket with the same steps: a different bump would move the
    threshold, and with it how many probes run to the horizon, by +-15% of the
    work.  alpha_hi is 128, not criterion 12's 64: at 64 the bumps of 10 of
    gate seeds 42..66 still complete, which breaks the family invariant.
    """

    checks = ("bracket_width", "probe_count", "disclaimer")
    contention_exponent = 1.05
    SHIFT_STRIDES = (5, 11, 17)

    def setup(self, seed, workdir):
        g = grid_mod.Grid(3, 32)
        shift = [(seed * k) % g.N for k in self.SHIFT_STRIDES]
        center = [(i * g.spacing + g.L / 2) % g.L - g.L / 2 for i in shift]
        base = fields.localized_divfree_bump(g, sigma=g.L / 10, center=center,
                                             mode_center=(2, 1, 1), seed=42, amplitude=1.0)
        cfg = solver.SolverConfig(dt=4e-3, T=0.25, snapshot_stride=8,
                                  blowup_sup_threshold=1e4, spectral_tail_threshold=0.1)
        return {"family": criticality.DatumFamily(base=base, alpha_lo=4.0, alpha_hi=128.0),
                "cfg": cfg}

    def body(self, st):
        return criticality.threshold_bisection(st["family"], st["cfg"], tol=0.01)

    def check(self, st, rep):
        width = rep.bracket[1] / rep.bracket[0] - 1.0
        return {
            "bracket_width": (width <= BRACKET_WIDTH, width),
            "probe_count": (len(rep.probes) <= MAX_PROBES, len(rep.probes)),
            "disclaimer": (bool(rep.proxy_disclaimer), rep.disclaimer_text),
        }


def shipped_two_profile_system(g, seed):
    """The acceptance gate's two-profile system (criteria 8 and 9), seeds shifted."""
    L = g.L
    phi1 = solver.condition_datum(fields.localized_divfree_bump(
        g, sigma=L / 10, mode_center=(2, 1, 1), seed=11 + seed, amplitude=0.25))
    phi2 = solver.condition_datum(fields.localized_divfree_bump(
        g, sigma=L / 10, mode_center=(2, 1, 1), seed=22 + seed, amplitude=0.25))

    def delta(n):
        return min(0.03 + 0.07 * n, 0.24)

    def entries(sign):
        out = []
        for n in range(20):
            lam = 1.0 if n < 4 else 2.0 ** (-(n - 3))
            out.append(scaling.ScaleCore(lam, tuple(sign * delta(min(n, 3)) * L * np.ones(3))))
        return scaling.ScaleCoreSequence(out)

    rem = profiles.default_remainder(g, seed=33 + seed, amplitude=1e-2, decay=0.25)
    return profiles.ProfileSystem(profiles=[(phi1, entries(-1)), (phi2, entries(+1))],
                                  remainder=rem)


class Superpose32:
    """Criterion 8 at 32^3 plus the criterion-9 source assembly at n = 1."""

    checks = ("remainder_decreasing", "remainder_final_frac", "residual_vs_floor",
              "source_finite")
    contention_exponent = 0.95

    def setup(self, seed, workdir):
        system = shipped_two_profile_system(grid_mod.Grid(3, 32), seed)
        system.validate()
        return {"system": system, "cfg": solver.SolverConfig(dt=2e-3, T=0.08, snapshot_stride=4)}

    def body(self, st):
        system, cfg = st["system"], st["cfg"]
        ev = profiles.evolve_system(system, cfg, [0, 1, 2])
        vals, trajs, rems = [], {}, {}
        for n in (0, 1, 2):
            trajs[n] = solver.evolve(profiles.synthesize_datum(system, n), cfg)
            rems[n] = profiles.remainder(trajs[n], ev, system, n)
            vals.append(norms.e_norm(rems[n], 4, 4, cfg.T))
        return {
            "e_norms": vals,
            "residual": profiles.remainder_equation_residual(rems[1], ev, system, 1),
            "floor": profiles.ns_equation_residual(trajs[1]),
            "source": profiles.source_norms(ev, system, 1, cfg.T, 4.0, n_samples=5),
        }

    def check(self, st, out):
        v = out["e_norms"]
        ratio = out["residual"] / out["floor"]
        bound = out["source"]["upper_bound"]
        return {
            "remainder_decreasing": (v[0] > v[1] > v[2], v),
            "remainder_final_frac": (v[2] / v[0] <= REMAINDER_FINAL_FRAC, v[2] / v[0]),
            "residual_vs_floor": (ratio <= RESIDUAL_FLOOR_FACTOR, ratio),
            "source_finite": (math.isfinite(bound) and bound > 0, bound),
        }


class Analyze64:
    """Critical-norm analysis of a stored 64^3 heat-flow trajectory (no solver)."""

    checks = ("paraproduct_sum", "heat_lp_ratio", "reconstruction", "norms_finite")
    contention_exponent = 0.8
    T = 0.16

    def setup(self, seed, workdir):
        g = grid_mod.Grid(3, 64)
        u0 = fields.localized_divfree_bump(g, sigma=g.L / 10, mode_center=(2, 1, 1),
                                           seed=42 + seed, amplitude=1.0)
        traj = solver.make_heat_trajectory(u0, np.linspace(0.0, self.T, 9))
        path = os.path.join(workdir, "heat_trajectory")
        io.save_trajectory(path, traj)
        return {"path": path, "battery_seed": 7 + seed}

    def body(self, st):
        traj = io.load_trajectory(st["path"])
        g, s0 = traj.grid, traj.snapshots[0]
        crit3 = norms.BesovIndex.critical(3, 3)
        tfg, tgf, pi = lp.paraproduct(g, s0.data[0], s0.data[1])
        tests = criticality.make_test_battery(g, count=8, seed=st["battery_seed"])
        return {
            "source": s0,
            "e_norm": norms.e_norm(traj, 4, 4, self.T),
            "sup_besov": criticality.sup_critical_norm(traj, "besov", p=4.0).value,
            "sup_l3": criticality.sup_critical_norm(traj, "L3").value,
            "serrin": norms.serrin_norm(traj, float("inf"), 3),
            "heat_besov": norms.heat_besov_norm(s0, crit3),
            "besov": norms.besov_norm(s0, crit3),
            "bands": lp.decompose(s0),
            "para": (tfg, tgf, pi),
            "probe": criticality.weak_convergence_probe(traj, tests),
            "cores": profiles.extract_cores(s0, count=2),
        }

    def check(self, st, out):
        s0 = out["source"]
        tfg, tgf, pi = out["para"]
        prod = s0.data[0] * s0.data[1]
        para_err = float(np.max(np.abs(tfg + tgf + pi - prod)) / np.max(np.abs(prod)))
        ratio = out["heat_besov"] / out["besov"]
        recon = float(np.max(np.abs(out["bands"].reconstruct().data - s0.data)) / s0.max_abs())
        scalars = [out[k] for k in ("e_norm", "sup_besov", "sup_l3", "serrin")]
        return {
            "paraproduct_sum": (para_err <= PARAPRODUCT_TOL, para_err),
            "heat_lp_ratio": (HEAT_LP_WINDOW[0] <= ratio <= HEAT_LP_WINDOW[1], ratio),
            "reconstruction": (recon <= RECONSTRUCT_TOL, recon),
            "norms_finite": (all(math.isfinite(x) and x > 0 for x in scalars)
                             and len(out["cores"]) == 2, scalars),
        }


WORKLOADS = {
    "evolve64": Evolve64(),
    "threshold32": Threshold32(),
    "superpose32": Superpose32(),
    "analyze64": Analyze64(),
}
