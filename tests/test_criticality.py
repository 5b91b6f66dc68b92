"""Sup-in-time critical norms, threshold search and weak-convergence probes."""

import json
import math
import warnings

import numpy as np
import pytest

from critns import Grid, criticality, solver
from critns.criticality import (
    PROXY_DISCLAIMER,
    DatumFamily,
    RankOneBattery,
    make_test_battery,
    pairing_table,
    sup_critical_norm,
    threshold_bisection,
    weak_convergence_probe,
)
from critns.errors import AccuracyWarning, DomainError
from critns.fields import (gaussian_bump, gaussian_factors, localized_divfree_bump,
                           random_divfree_field, taylor_green)
from critns.grid import zero_field
from critns.norms import BesovIndex, besov_norm, lebesgue_norm
from critns.scaling import ScaleCore, apply_lambda
from critns.solver import (
    COMPLETED,
    NON_FINITE,
    RESOLUTION_LIMIT,
    RunLog,
    SolverConfig,
    Trajectory,
    evolve,
    evolve_streaming,
    make_heat_trajectory,
)


def outer(factors):
    """Reference oracle: the whole N^d array prod_a factors[a][x_a] of a
    battery bump's (d, N) factors."""
    bump = factors[0]
    for f in factors[1:]:
        bump = np.multiply.outer(bump, f)
    return bump


class TestSupCriticalNorm:
    def test_zero_trajectory(self, grid3):
        traj = make_heat_trajectory(zero_field(grid3), [0.0, 0.1])
        rep = sup_critical_norm(traj, "L3")
        assert rep.value == 0.0

    def test_needs_3d_for_l3(self, grid2):
        traj = make_heat_trajectory(zero_field(grid2, 2), [0.0, 0.1])
        with pytest.raises(DomainError):
            sup_critical_norm(traj, "L3")

    def test_heat_flow_max_at_zero(self, grid3m):
        # critical norms are nonincreasing under the heat flow: each band
        # multiplier is bounded by one
        f = random_divfree_field(grid3m, seed=0, k_hi=4.0)
        traj = make_heat_trajectory(f, np.linspace(0, 0.3, 7))
        for kind, p in (("L3", None), ("besov", 4.0)):
            rep = sup_critical_norm(traj, kind, p=p)
            assert rep.time_of_max == 0.0

    def test_small_data_run_sup_at_zero_and_decaying(self, grid3m):
        u0 = random_divfree_field(grid3m, seed=1, k_lo=1.0, k_hi=4.0, amplitude=0.02)
        traj = evolve(u0, SolverConfig(dt=5e-3, T=1.0, snapshot_stride=40))
        rep = sup_critical_norm(traj, "besov", p=4.0)
        assert rep.time_of_max == 0.0 and traj.status == COMPLETED
        idx = BesovIndex.critical(4.0, 3)
        assert besov_norm(traj.snapshots[-1], idx) < 0.5 * rep.value

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
    def test_besov_sup_matches_per_snapshot_norms(self, grid3, p):
        # read from the band table, bit for bit the max of besov_norm over the
        # snapshots, with the same warnings (the late ones peak at the low edge)
        f = random_divfree_field(grid3, seed=3, k_lo=1.0, k_hi=6.0)
        traj = make_heat_trajectory(f, np.linspace(0.0, 1.0, 5))
        idx = BesovIndex.critical(p, 3)
        with warnings.catch_warnings(record=True) as direct:
            warnings.simplefilter("always")
            ref = max(besov_norm(s, idx) for s in traj.snapshots)
        with warnings.catch_warnings(record=True) as table:
            warnings.simplefilter("always")
            rep = sup_critical_norm(traj, "besov", p=p)
        assert rep.value == ref
        assert direct and [(w.category, str(w.message)) for w in table] == [
            (w.category, str(w.message)) for w in direct]


class TestThresholdBisection:
    def _family(self, grid, always_completes=False):
        base = localized_divfree_bump(grid, sigma=grid.L / 8, mode_center=(2, 1, 1),
                                      seed=42, amplitude=1.0)
        hi = 0.1 if always_completes else 48.0
        return DatumFamily(base=base, alpha_lo=0.05, alpha_hi=hi)

    def test_family_validation(self, grid3):
        with pytest.raises(DomainError):
            DatumFamily(base=zero_field(grid3), alpha_lo=2.0, alpha_hi=1.0)

    def test_tiny_family_precondition_fails(self, grid3m):
        fam = self._family(grid3m, always_completes=True)
        cfg = SolverConfig(dt=5e-3, T=0.1, spectral_tail_threshold=0.02)
        with pytest.raises(DomainError, match="no resolution limit"):
            threshold_bisection(fam, cfg, tol=0.05)

    def test_bisection_converges(self, grid3m):
        fam = self._family(grid3m)
        cfg = SolverConfig(dt=5e-3, T=0.1, snapshot_stride=5,
                           spectral_tail_threshold=0.02)
        rep = threshold_bisection(fam, cfg, tol=0.05)
        lo, hi = rep.bracket
        assert hi / lo - 1.0 <= 0.05
        assert rep.proxy_disclaimer is True
        assert rep.disclaimer_text == PROXY_DISCLAIMER
        assert rep.datum_l3_norm > 0
        statuses = {p["status"] for p in rep.probes}
        assert statuses == {"Completed", "ResolutionLimit"}
        for p in rep.probes:
            completed = p["status"] == COMPLETED
            assert (p["margin"] >= 1.0) == (not completed)
            assert (p["trip_reason"] is None) == completed

    def test_both_monitors_crossing_report_sup(self, grid3):
        # both thresholds tiny: the sup norm and the tail fraction cross on
        # step 0, and the reason read back follows the tie order
        u0 = random_divfree_field(grid3, seed=6, k_hi=6.0)
        cfg = SolverConfig(dt=5e-3, T=0.02, blowup_sup_threshold=1e-12,
                           spectral_tail_threshold=1e-12)
        traj = evolve(u0, cfg)
        assert traj.status == RESOLUTION_LIMIT and traj.final_time == 0.0
        assert traj.records["linf"][-1] > cfg.blowup_sup_threshold
        assert traj.records["tail_fraction"][-1] > cfg.spectral_tail_threshold
        assert evolve_streaming(u0, cfg, lambda snap: None).trip_reason == "sup"

    def test_probes_flag_a_cfl_number_over_1(self):
        # Taylor-Green decays from its datum, so a probe's largest CFL number
        # is its step-0 one, alpha * dt / h (its peak is 1), whether it
        # completes or trips the sup monitor at t = 0: 48 * 0.01 / h = 1.22
        # at the top, 0.0013 at alpha_lo
        grid = Grid(2, 16)
        cfg = SolverConfig(dt=1e-2, T=0.1, blowup_sup_threshold=20.0)
        fam = DatumFamily(base=taylor_green(grid), alpha_lo=0.05, alpha_hi=48.0)
        with warnings.catch_warnings():
            # the datum's Besov norm warns that Taylor-Green sits in the lowest band
            warnings.simplefilter("ignore", AccuracyWarning)
            rep = threshold_bisection(fam, cfg, tol=0.1)
        lo, top = rep.probes[:2]
        assert top["alpha"] == 48.0 and top["cfl_over_1"] and top["max_cfl"] > 1.0
        assert lo["alpha"] == 0.05 and not lo["cfl_over_1"]
        for p in rep.probes:
            assert p["max_cfl"] == pytest.approx(p["alpha"] * cfg.dt / grid.spacing, rel=1e-12)
            assert p["cfl_over_1"] == (p["max_cfl"] > 1.0)

    def test_report_serializes(self, grid3m):
        fam = self._family(grid3m)
        cfg = SolverConfig(dt=5e-3, T=0.1, snapshot_stride=5,
                           spectral_tail_threshold=0.02)
        rep = threshold_bisection(fam, cfg, tol=0.1)
        doc = rep.to_dict()
        assert doc["proxy_disclaimer"] is True
        assert "disclaimer_text" in doc and doc["relative_width"] <= 0.1

    # small families whose sup monitor trips near alpha = 20
    SUP_CFG = SolverConfig(dt=5e-3, T=0.1, snapshot_stride=5, blowup_sup_threshold=20.0)

    @staticmethod
    def _sup_family(d):
        grid = Grid(d, 16)
        base = (localized_divfree_bump(grid, sigma=grid.L / 5, mode_center=(2, 1, 1), seed=42,
                                       amplitude=1.0) if d == 3 else taylor_green(grid))
        return DatumFamily(base=base, alpha_lo=0.05, alpha_hi=48.0)

    @pytest.mark.parametrize("d", [3, 2])
    def test_streamed_report_equals_the_collected_run(self, d):
        # the L3 sup at d = 3 and the Besov sup at p = 3 at d = 2, whose
        # late snapshots peak at the low band edge and warn: the report is
        # bit for bit that of the collected run of its lo member, with each
        # distinct warning once, in the order the collected run first raises it
        fam = self._sup_family(d)
        with warnings.catch_warnings(record=True) as streamed:
            warnings.simplefilter("always")
            rep = threshold_bisection(fam, self.SUP_CFG, tol=0.1)
        lo = rep.bracket[0]
        with warnings.catch_warnings(record=True) as collected:
            warnings.simplefilter("always")
            bes = besov_norm(fam.member(lo), BesovIndex.critical(d + 1.0, d))
            ref = sup_critical_norm(evolve(fam.member(lo), self.SUP_CFG),
                                    "L3" if d == 3 else "besov", p=d + 1.0)
        assert rep.datum_besov_norm == bes
        assert rep.sup_critical_norm == ref.value
        assert rep.sup_critical_time == ref.time_of_max
        assert collected or d == 3
        assert [(w.category, str(w.message)) for w in streamed] == list(dict.fromkeys(
            (w.category, str(w.message)) for w in collected))

    def test_sup_family_probe_count(self):
        # the end-to-end secant through each end's own log margin closes this
        # family in 7 probes
        rep = threshold_bisection(self._sup_family(3), self.SUP_CFG, tol=0.1)
        assert len(rep.probes) <= 7

    def test_search_collects_no_run(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a threshold probe collected its run")

        monkeypatch.setattr(solver, "_collected", refuse)
        rep = threshold_bisection(self._sup_family(3), self.SUP_CFG, tol=0.1)
        assert rep.bracket[1] / rep.bracket[0] - 1.0 <= 0.1


class SyntheticFamily:
    """Stands in for the streaming solver in a threshold search, so the search
    logic runs without it.  The run of amplitude alpha records the trip ratio
    margin(alpha) * k / STEPS, times the threshold, on one monitor at steps
    k = 0..STEPS; as in the solver, it trips iff a recorded value is strictly
    above the threshold and then stops at that step.  At alpha >=
    non_finite_above the run goes non-finite after step 0.  Its one snapshot,
    the datum, is handed to take.  A run past the first budget fails the
    test, so a search that would not end fails instead of hanging."""

    STEPS = 16

    def __init__(self, base, margin, non_finite_above=math.inf, monitor="tail_fraction",
                 budget=200):
        self.base, self.margin = base, margin
        self.non_finite_above, self.monitor = non_finite_above, monitor
        self.peak = float(np.max(np.abs(base.data)))
        self.budget = budget

    def __call__(self, u0, cfg, take):
        self.budget -= 1
        if self.budget < 0:
            raise AssertionError("the threshold search ran past its probe budget")
        alpha = float(np.max(np.abs(u0.data))) / self.peak
        ratios = self.margin(alpha) * np.arange(self.STEPS + 1) / self.STEPS
        scale = {"linf": cfg.blowup_sup_threshold, "tail_fraction": cfg.spectral_tail_threshold}
        values = ratios * scale[self.monitor]
        over = values > scale[self.monitor]
        steps, status = len(values), COMPLETED
        if alpha >= self.non_finite_above:
            steps, status = 1, NON_FINITE
        elif over.any():
            steps, status = int(np.argmax(over)) + 1, RESOLUTION_LIMIT
        records = {key: values[:steps] if key == self.monitor else np.zeros(steps)
                   for key in scale}
        records["t"] = cfg.dt * np.arange(steps)
        reason = {COMPLETED: None, NON_FINITE: "non_finite",
                  RESOLUTION_LIMIT: "sup" if self.monitor == "linf" else "tail"}[status]
        take(u0)
        return RunLog(grid=u0.grid, times=np.array([0.0]), records=records, status=status,
                      trip_reason=reason, config_echo=cfg.echo())


class TestThresholdSearchLogic:
    ALPHA_STAR = 37.0
    TOL = 0.01
    CFG = SolverConfig(dt=1e-2, T=0.16, spectral_tail_threshold=0.1)

    def _search(self, monkeypatch, margin, tol=TOL, **kwargs):
        base = random_divfree_field(Grid(2, 32), seed=0, k_lo=2.0, k_hi=6.0)
        monkeypatch.setattr(criticality, "evolve_streaming",
                            SyntheticFamily(base, margin, **kwargs))
        fam = DatumFamily(base=base, alpha_lo=4.0, alpha_hi=128.0)
        rep = threshold_bisection(fam, self.CFG, tol=tol)
        lo, hi = rep.bracket
        assert hi / lo - 1.0 <= tol
        self._check_probes_inside_brackets(rep.probes)
        return rep

    @staticmethod
    def _check_probes_inside_brackets(probes):
        lo, hi = probes[0]["alpha"], probes[1]["alpha"]
        for p in probes[2:]:
            assert lo < p["alpha"] < hi
            if p["status"] == COMPLETED:
                lo = p["alpha"]
            else:
                hi = p["alpha"]

    def test_smooth_margin(self, monkeypatch):
        rep = self._search(monkeypatch, lambda a: (a / self.ALPHA_STAR) ** 2)
        lo, hi = rep.bracket
        assert lo < self.ALPHA_STAR <= hi
        assert len(rep.probes) <= 7
        for p in rep.probes:
            tripped = p["status"] != COMPLETED
            assert (p["margin"] >= 1.0) == tripped
            assert p["trip_reason"] == ("tail" if tripped else None)

    def test_flat_floor_margin(self, monkeypatch):
        rep = self._search(monkeypatch, lambda a: max(0.42, (a / self.ALPHA_STAR) ** 2))
        lo, hi = rep.bracket
        assert lo < self.ALPHA_STAR <= hi
        assert len(rep.probes) <= 12

    def test_step_margin_takes_no_more_than_bisection(self, monkeypatch):
        # a margin that jumps at the threshold gives the secant nothing to
        # fit; 11 probes is geometric bisection's count to tol from 4..128
        rep = self._search(monkeypatch, lambda a: 0.5 if a < self.ALPHA_STAR else 2.0)
        lo, hi = rep.bracket
        assert lo < self.ALPHA_STAR <= hi
        assert len(rep.probes) <= 11

    def test_tolerance_floor_is_double_epsilon(self, monkeypatch):
        # below epsilon no double lies strictly inside a bracket of adjacent
        # doubles, so the search could not end; at epsilon it does
        eps = float(np.finfo(float).eps)

        def smooth(a):
            return (a / self.ALPHA_STAR) ** 2

        with pytest.raises(DomainError, match="at least 2.22e-16"):
            self._search(monkeypatch, smooth, tol=0.99 * eps)
        rep = self._search(monkeypatch, smooth, tol=eps)
        # member(37) has margin 1.0 exactly, which completes
        assert rep.bracket[0] <= self.ALPHA_STAR < rep.bracket[1]

    def test_sup_trip_reason(self, monkeypatch):
        rep = self._search(monkeypatch, lambda a: (a / self.ALPHA_STAR) ** 2, monitor="linf")
        assert {p["trip_reason"] for p in rep.probes} == {None, "sup"}

    def test_max_cfl_is_read_off_the_linf_record(self, monkeypatch):
        # each probe's max CFL number is max(linf) dt / h of the run it made
        base = random_divfree_field(Grid(2, 32), seed=0, k_lo=2.0, k_hi=6.0)
        family = SyntheticFamily(base, lambda a: (a / self.ALPHA_STAR) ** 2, monitor="linf")
        runs = []

        def recorded(u0, cfg, take):
            runs.append(family(u0, cfg, take))
            return runs[-1]

        monkeypatch.setattr(criticality, "evolve_streaming", recorded)
        fam = DatumFamily(base=base, alpha_lo=4.0, alpha_hi=128.0)
        rep = threshold_bisection(fam, self.CFG, tol=self.TOL)
        h = base.grid.spacing
        assert len(runs) == len(rep.probes) > 2
        assert [p["max_cfl"] for p in rep.probes] == [
            float(np.max(run.records["linf"])) * self.CFG.dt / h for run in runs]
        assert [p["cfl_over_1"] for p in rep.probes] == [p["max_cfl"] > 1.0 for p in rep.probes]

    def test_non_finite_trip_falls_back_to_midpoint(self, monkeypatch):
        rep = self._search(monkeypatch, lambda a: (a / self.ALPHA_STAR) ** 2,
                           non_finite_above=2.0 * self.ALPHA_STAR)
        lo, hi = rep.bracket
        assert lo < self.ALPHA_STAR <= hi
        top = rep.probes[1]
        assert top["status"] == NON_FINITE and top["trip_reason"] == "non_finite"
        assert top["margin"] == math.inf
        assert rep.probes[2]["alpha"] == float(np.sqrt(4.0 * 128.0))
        doc = rep.to_dict()
        assert doc["probes"][1]["margin"] is None
        json.dumps(doc, allow_nan=False)


class TestWeakConvergenceProbe:
    def test_empty_battery_rejected(self, grid3):
        traj = make_heat_trajectory(zero_field(grid3), [0.0, 0.1])
        with pytest.raises(DomainError):
            weak_convergence_probe(traj, [])

    def test_component_count_mismatch_rejected(self, grid3):
        # a 1-component test field would broadcast over a 3-component snapshot
        traj = make_heat_trajectory(random_divfree_field(grid3, seed=4), [0.0, 0.1])
        factors = gaussian_factors(grid3, grid3.L / 8)[np.newaxis]
        battery = RankOneBattery(grid3, factors, np.ones((1, 1)))
        for pair in (weak_convergence_probe, pairing_table):
            with pytest.raises(DomainError, match="1 components, the trajectory has 3"):
                pair(traj, battery)

    def test_zero_trajectory(self, grid3):
        traj = make_heat_trajectory(zero_field(grid3), [0.0, 0.1, 0.2])
        rep = weak_convergence_probe(traj, make_test_battery(grid3, count=4))
        assert np.all(rep.pairings == 0.0)
        assert rep.all_decaying

    def test_heat_flow_pairings_decay(self, grid3m):
        f = random_divfree_field(grid3m, seed=2, k_lo=1.0, k_hi=4.0)
        traj = make_heat_trajectory(f, np.linspace(0.0, 1.0, 9))
        rep = weak_convergence_probe(traj, make_test_battery(grid3m, count=8))
        assert rep.all_decaying
        col_max = np.max(np.abs(rep.pairings), axis=1)
        assert np.all(np.diff(col_max[-3:]) < 0)

    def test_concentration_mechanism(self):
        # Lambda-rescaled concentrating snapshots: pairings shrink while the
        # critical norm stays constant (the weak-convergence mechanism)
        grid = Grid(3, 64)
        f = localized_divfree_bump(grid, sigma=grid.L / 10, mode_center=(2, 1, 0),
                                   seed=3, amplitude=1.0)
        lams = [1.0, 0.5, 0.25]
        snaps = [apply_lambda(f, ScaleCore(lam, (0.0, 0.0, 0.0))) for lam in lams]
        traj = Trajectory(grid, np.array([0.0, 0.1, 0.2]), snaps)
        rep = weak_convergence_probe(traj, make_test_battery(grid, count=6, seed=1))
        col_max = np.max(np.abs(rep.pairings), axis=1)
        assert col_max[0] > col_max[1] > col_max[2]
        norms = [lebesgue_norm(s, 3) for s in snaps]
        assert abs(norms[2] - norms[0]) / norms[0] < 0.02

    def test_pairings_match_the_full_field_sums(self, grid3):
        # reference: each test field formed whole, bump times weight vector,
        # and paired by one grid sum; the matrix product sums in another
        # order, so the two agree to roundoff of the absolute sum
        traj = make_heat_trajectory(random_divfree_field(grid3, seed=4), [0.0, 0.05, 0.1])
        battery = make_test_battery(grid3, count=5, seed=2)
        table = pairing_table(traj, battery)
        w = grid3.cell_volume
        for k, snap in enumerate(traj.snapshots):
            for i, (factors, weight) in enumerate(zip(battery.factors, battery.weights)):
                bump = outer(factors)
                products = snap.data * (bump * weight.reshape((3, 1, 1, 1)))
                scale = float(np.sum(np.abs(products)) * w)
                assert abs(table[k, i] - float(np.sum(products) * w)) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("center", [None, "random", "seam"])
    def test_factor_products_are_the_gaussian_bumps(self, grid, center):
        # exp(-|x-c|^2/2s^2) = prod_a exp(-dx_a^2/2s^2): one rounding per factor
        # and per product instead of one of the whole sum; near the seam the
        # periodic offsets wrap on every axis
        if center == "random":
            center = (np.random.default_rng(3).random(grid.d) - 0.5) * grid.L
        elif center == "seam":
            center = np.full(grid.d, grid.L / 2 - 1e-3)
        sigma = grid.L / 12
        bump = gaussian_bump(grid, sigma, center=center).data[0]
        factors = gaussian_factors(grid, sigma, center=center)
        assert factors.shape == (grid.d, grid.N)
        assert np.max(np.abs(outer(factors) - bump)) <= 1e-15

    @pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["2d", "3d"])
    def test_battery_holds_count_d_n_samples(self, grid):
        count = 8
        battery = make_test_battery(grid, count=count)
        assert battery.factors.nbytes == 8 * count * grid.d * grid.N

    @pytest.mark.parametrize("other", [Grid(3, 32), Grid(3, 16, L=3.0)], ids=["N", "L"])
    def test_battery_on_another_grid_rejected(self, grid3, other):
        # another N would not contract; another L would pair against bumps
        # placed in another box
        traj = make_heat_trajectory(random_divfree_field(grid3, seed=4), [0.0, 0.1])
        battery = make_test_battery(other, count=4)
        for pair in (weak_convergence_probe, pairing_table):
            with pytest.raises(DomainError, match="test field grid mismatch"):
                pair(traj, battery)

    def test_battery_is_localized_and_deterministic(self, grid3):
        a = make_test_battery(grid3, count=8, seed=7)
        b = make_test_battery(grid3, count=8, seed=7)
        assert len(a) == 8
        assert np.array_equal(a.factors, b.factors) and np.array_equal(a.weights, b.weights)
