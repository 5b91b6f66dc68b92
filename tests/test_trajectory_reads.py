"""Every trajectory not held as a tuple reads its snapshots on demand
through one sequence, `grid.DerivedSnapshots`, whose make(i) reads a file
(a loaded trajectory), inverts kept dealias-sphere coefficients (a
collected solver run), damps and inverts a datum's coefficients (a heat
trajectory) or recomputes a derived snapshot (a remainder, its frame rescaling).
The reductions of a loaded trajectory hold a few snapshots whatever the
count and give the in-memory norms bit for bit, a drift is read about once
per snapshot, and a snapshot file that changes after loading is a JSON
error.  A collected solver run holds its coefficients inside the dealias
sphere, about 16% of its snapshots' bytes, and hands out the snapshots the
step took, bit for bit.
A derived snapshot is made when it is read, and the drift, source and force
norms reduce each sample to its band profiles before the next."""

import json
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from critns import Grid, cli, profiles
from critns import io as critns_io
from critns.criticality import (make_test_battery, pairing_table, sup_critical_norm,
                                weak_convergence_probe)
from critns.errors import DomainError, SupportOverflowError, TrajectoryCoverageError
from critns.fields import (gaussian_bump, localized_divfree_bump, random_divfree_field,
                           taylor_green)
from critns.grid import heat_semigroup
from critns.io import TrajectoryWriter, load_trajectory, save_trajectory, write_field
from critns.lp import band_range
from critns.norms import (BesovIndex, _cl_from_matrix, band_profile, band_tables,
                          chemin_lerner_norm, critical_exponent, e_norm, lebesgue_norm,
                          serrin_norm)
from critns.profiles import (drift_norm, drift_term, evolve_system, ns_equation_residual,
                             remainder, source_norms, source_term, superpose_evolution,
                             synthesize_datum)
from critns.solver import (RESOLUTION_LIMIT, PerturbationProblem, SolverConfig, Trajectory,
                           evolve, evolve_perturbed, evolve_streaming, make_heat_trajectory,
                           sample_trajectory, verify_perturbation_bound)

from conftest import run_cli, traced
from test_profiles import _two_profile_system


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """An 11-snapshot 32^3 heat-flow trajectory, in memory and the directory
    it was saved to."""
    grid = Grid(3, 32)
    u0 = localized_divfree_bump(grid, sigma=grid.L / 10, mode_center=(2, 1, 1), seed=42,
                                amplitude=1.0)
    traj = make_heat_trajectory(u0, np.linspace(0.0, 0.1, 11))
    path = tmp_path_factory.mktemp("trajectory") / "heat"
    save_trajectory(path, traj)
    return traj, path


def counting_reads(monkeypatch):
    """The paths read_field reads from now on, in order."""
    reads, real = [], critns_io.read_field
    monkeypatch.setattr(critns_io, "read_field", lambda path: reads.append(path) or real(path))
    return reads


@pytest.mark.parametrize("reduction", [
    lambda traj, battery: serrin_norm(traj, float("inf"), 3),
    lambda traj, battery: traj.band_table(4.0),
    lambda traj, battery: weak_convergence_probe(traj, battery),
], ids=["serrin", "band_table", "probe"])
def test_loaded_reduction_holds_under_three_snapshots(saved, reduction):
    # loading and reducing together: a trajectory read whole would be 11
    mem, path = saved
    battery = make_test_battery(mem.grid)
    band_profile(mem.snapshots[0], 4.0)  # the symbols every equal grid shares
    _, _, peak = traced(lambda: reduction(load_trajectory(path), battery))
    assert peak < 3 * mem.snapshots[0].data.nbytes


def test_pairing_table_holds_one_snapshot_at_a_time(saved):
    # each snapshot is freed before the next is read: 1.10 snapshots' bytes,
    # where a loop keeping the last snapshot while reading the next took 2.02
    mem, path = saved
    battery = make_test_battery(mem.grid)
    pairing_table(load_trajectory(path), battery)  # the grid's shared tables
    table, _, peak = traced(lambda: pairing_table(load_trajectory(path), battery))
    assert table.tobytes() == pairing_table(mem, battery).tobytes()
    assert peak < 1.5 * mem.snapshots[0].data.nbytes


def test_large_battery_probe_holds_under_three_snapshots(saved):
    # the battery is made inside the traced call: 64 bumps stacked whole would
    # be 21 snapshots alone, their factors are 48 KiB
    mem, path = saved
    _, _, peak = traced(lambda: weak_convergence_probe(load_trajectory(path),
                                                     make_test_battery(mem.grid, count=64)))
    assert peak < 3 * mem.snapshots[0].data.nbytes


def test_loaded_norms_equal_in_memory_bitwise(saved):
    mem, path = saved
    loaded = load_trajectory(path)
    for p in (3.0, 4.0):
        for a, b in zip(mem.band_table(p), loaded.band_table(p)):
            assert a.tobytes() == b.tobytes()
    battery = make_test_battery(mem.grid, count=4, seed=3)
    assert pairing_table(mem, battery).tobytes() == pairing_table(loaded, battery).tobytes()
    norms = {
        "e_norm": lambda t: e_norm(t, 4, 4, 0.1),
        "sup_l3": lambda t: sup_critical_norm(t, "L3").value,
        "sup_besov": lambda t: sup_critical_norm(t, "besov", p=4.0).value,
        "serrin_inf_3": lambda t: serrin_norm(t, float("inf"), 3),
        "serrin_4_6": lambda t: serrin_norm(t, 4.0, 6.0),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the low-edge AccuracyWarning of the decayed flow
        for name, norm in norms.items():
            assert norm(mem) == norm(loaded), name


def test_lebesgue_column_read_once_per_q(saved, monkeypatch):
    # sup_t ||u||_{L^3} and the (inf, 3) Serrin norm read one column, made
    # from one read of each snapshot, and equal the max of the snapshot norms
    mem, path = saved
    loaded = load_trajectory(path)
    reads = counting_reads(monkeypatch)
    sup = sup_critical_norm(loaded, "L3")
    assert serrin_norm(loaded, float("inf"), 3.0) == sup.value
    assert len(reads) == 11
    assert loaded.lebesgue_column(3) is loaded.lebesgue_column(3.0)
    assert sup.value == max(lebesgue_norm(s, 3) for s in mem.snapshots)


def test_loaded_drift_reads_each_snapshot_about_once(tmp_path, monkeypatch):
    grid = Grid(3, 16)
    drift = make_heat_trajectory(random_divfree_field(grid, seed=1, k_hi=3.0, amplitude=0.3),
                                 np.linspace(0.0, 0.1, 11))
    save_trajectory(tmp_path / "drift", drift)
    loaded = load_trajectory(tmp_path / "drift")
    w0 = random_divfree_field(grid, seed=2, k_hi=3.0, amplitude=0.1)
    cfg = SolverConfig(dt=0.004, T=0.1)  # stage times between and on the frames
    reads = counting_reads(monkeypatch)
    run = evolve_perturbed(PerturbationProblem(w0=w0, drift=loaded), cfg)
    assert len(reads) <= 11 + 2
    ref = evolve_perturbed(PerturbationProblem(w0=w0, drift=drift), cfg)
    assert np.array_equal(run.times, ref.times)
    for a, b in zip(run.snapshots, ref.snapshots):
        assert a.data.tobytes() == b.data.tobytes()


def test_in_memory_frame_is_the_stored_snapshot():
    grid = Grid(2, 16)
    f = taylor_green(grid)
    traj = sample_trajectory(grid, np.linspace(0.0, 0.1, 5), lambda t: heat_semigroup(f, t))
    for i, t in enumerate(traj.times):
        assert traj.at(t) is traj.snapshots[i]
    assert traj.at(0.0125) is not traj.snapshots[0]


def _delete(path):
    path.unlink()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _one_component(path):
    # on the same grid, so only the component count tells it from the original
    write_field(path, gaussian_bump(Grid(3, 16), 1.0))


@pytest.mark.parametrize("command", ["serrin", "probe"])
@pytest.mark.parametrize("change, error", [
    (_delete, "FileNotFoundError"),
    (_truncate, "InvalidFieldError"),
    (_one_component, "InvalidFieldError"),
], ids=["deleted", "truncated", "one-component"])
def test_snapshot_changed_after_loading_json_error(tmp_path, monkeypatch, command, change,
                                                   error):
    traj_dir = tmp_path / "traj"
    save_trajectory(traj_dir, make_heat_trajectory(
        random_divfree_field(Grid(3, 16), seed=3, k_hi=3.0), [0.0, 0.05, 0.1]))
    real = cli.load_trajectory

    def load_then_change(path):
        traj = real(path)
        change(traj_dir / "snap_1.cfd")
        return traj

    monkeypatch.setattr(cli, "load_trajectory", load_then_change)
    doc = {"trajectory": str(traj_dir)}
    if command == "serrin":
        doc.update(p_t="inf", q_x=3)
    (tmp_path / "c.json").write_text(json.dumps(doc))
    res = run_cli([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"] == error
    assert "snap_1.cfd" in report["message"]


def test_residual_reads_each_snapshot_once(saved, monkeypatch):
    mem, path = saved
    loaded = load_trajectory(path)
    reads = counting_reads(monkeypatch)
    assert ns_equation_residual(loaded) == ns_equation_residual(mem)
    assert len(reads) == 11


@pytest.fixture(scope="module")
def collected():
    """A 21-snapshot collected run at 32^3, stride 1."""
    grid = Grid(3, 32)
    u0 = random_divfree_field(grid, seed=5, k_hi=4.0, amplitude=0.5)
    return u0, SolverConfig(dt=0.005, T=0.1)


def test_collected_run_holds_its_dealias_sphere(collected):
    # the 2/3-rule sphere holds 16.5% of a 32^3 snapshot's bytes, the box
    # around it 29.6% and the physical snapshot 1.0
    u0, cfg = collected
    evolve(u0, replace(cfg, T=2 * cfg.dt))  # the masks and tables every equal grid shares
    traj, held, _ = traced(lambda: evolve(u0, cfg))
    assert len(traj.snapshots) == 21
    assert held / len(traj.snapshots) <= 0.18 * u0.data.nbytes


def test_collected_reads_are_equal_and_read_only(collected):
    u0, cfg = collected
    snaps = evolve(u0, cfg).snapshots
    a, b, last = snaps[7], snaps[7], snaps[-1]
    assert a.data.tobytes() == b.data.tobytes()
    assert not a.data.flags.writeable and not b.data.flags.writeable
    assert last.data.tobytes() == snaps[len(snaps) - 1].data.tobytes()
    assert sum(1 for _ in snaps) == len(snaps)
    with pytest.raises(IndexError):
        snaps[len(snaps)]


def test_saved_collected_run_equals_the_streamed_files(collected, tmp_path):
    # save_trajectory of a collected run writes the files cli evolve streams
    u0, cfg = collected
    writer = TrajectoryWriter(tmp_path / "streamed")
    writer.finish(evolve_streaming(u0, cfg, writer.add))
    save_trajectory(tmp_path / "collected", evolve(u0, cfg))
    names = sorted(p.name for p in (tmp_path / "streamed").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "collected").iterdir())
    for name in names:
        assert (tmp_path / "streamed" / name).read_bytes() == \
            (tmp_path / "collected" / name).read_bytes(), name


def test_collected_drift_equals_the_physical_drift():
    grid = Grid(3, 16)
    drift = evolve(random_divfree_field(grid, seed=1, k_hi=3.0, amplitude=0.3),
                   SolverConfig(dt=0.01, T=0.1))
    held = Trajectory(drift.grid, drift.times, list(drift.snapshots))
    w0 = random_divfree_field(grid, seed=2, k_hi=3.0, amplitude=0.1)
    cfg = SolverConfig(dt=0.004, T=0.1)  # stage times between and on the frames
    run = evolve_perturbed(PerturbationProblem(w0=w0, drift=drift), cfg)
    ref = evolve_perturbed(PerturbationProblem(w0=w0, drift=held), cfg)
    assert run.times.tobytes() == ref.times.tobytes()
    for a, b in zip(run.snapshots, ref.snapshots, strict=True):
        assert a.data.tobytes() == b.data.tobytes()


def test_collected_storage_is_not_sized_by_the_step_count():
    # 10^12 steps asked for, one taken before the sup monitor trips
    grid = Grid(3, 16)
    u0 = random_divfree_field(grid, seed=4, k_hi=3.0, amplitude=0.5)
    cfg = SolverConfig(dt=1e-12, T=1.0, blowup_sup_threshold=1e-6)
    traj, _, peak = traced(lambda: evolve(u0, cfg))
    assert traj.status == RESOLUTION_LIMIT and len(traj.snapshots) == 1
    assert peak < 10 * u0.data.nbytes


@pytest.fixture(scope="module")
def superposed():
    """The two-profile system at 32^3 evolved for index 1 (unit scales, so
    the profile runs share the datum's frames), and the 11-snapshot run of
    its datum."""
    sys_ = _two_profile_system(Grid(3, 32))
    cfg = SolverConfig(dt=2e-3, T=0.08, snapshot_stride=4)
    ev = evolve_system(sys_, cfg, [1])
    return sys_, cfg, ev, evolve(synthesize_datum(sys_, 1), cfg)


def eager_remainder(u_n, ev, sys_, n):
    """Reference oracle: the remainder with every snapshot made up front."""
    t_max = min(u_n.final_time, ev.tau(n))
    times, snaps = [], []
    for t, snap in zip(u_n.times, u_n.snapshots):
        if t > t_max * (1 + 1e-9):
            break
        times.append(float(t))
        snaps.append(snap - superpose_evolution(ev, sys_, n, t))
    return Trajectory(grid=u_n.grid, times=np.asarray(times), snapshots=snaps,
                      status=u_n.status, config_echo={"kind": "remainder", "n": n})


def test_remainder_reads_equal_the_eager_formula(superposed):
    sys_, cfg, ev, u = superposed
    # a first profile with lifespan 0.03 ends the remainder at tau_1 = 0.03
    short = replace(ev, lifespans=[0.03, float("inf")])
    for evolved, count in ((ev, 11), (short, 4)):
        lazy, ref = remainder(u, evolved, sys_, 1), eager_remainder(u, evolved, sys_, 1)
        assert len(lazy.snapshots) == count
        assert lazy.times.tobytes() == ref.times.tobytes()
        assert (lazy.status, lazy.config_echo) == (ref.status, ref.config_echo)
        for i in (*range(count), -1):
            snap = lazy.snapshots[i]
            assert not snap.data.flags.writeable
            assert snap.data.tobytes() == ref.snapshots[i].data.tobytes()
        with pytest.raises(IndexError):
            lazy.snapshots[count]
    assert e_norm(remainder(u, ev, sys_, 1), 4, 4, cfg.T) == \
        e_norm(eager_remainder(u, ev, sys_, 1), 4, 4, cfg.T)


def test_remainder_reads_nothing_until_its_norm(superposed, snapshot_reads):
    # making a remainder reads no snapshot; its e_norm reads each snapshot of
    # u_n once (the profile runs' frames are read through their windows)
    sys_, cfg, ev, u = superposed
    r = remainder(u, ev, sys_, 1)
    assert snapshot_reads == []
    e_norm(r, 4, 4, cfg.T)
    assert [i for seq, i in snapshot_reads if seq is u.snapshots] == list(range(11))


def test_remainder_norm_holds_under_three_snapshots(superposed):
    # the eager remainder held its 11 snapshots; the on-read one holds its
    # band table, and the profile runs keep no frame it read
    sys_, cfg, ev, u = superposed
    snapshot = u.snapshots[0].data.nbytes

    def reduce():
        r = remainder(u, ev, sys_, 1)
        return r, e_norm(r, 4, 4, cfg.T)

    reduce()  # the symbols and tables every equal grid shares
    _, held, peak = traced(reduce)
    assert held < 3 * snapshot
    assert peak < 15 * snapshot


def test_swept_system_keeps_no_frame_and_one_remainder_flow(superposed):
    # after a remainder norm at index 1 and the source norms at index 0 the
    # system keeps the remainder flow of index 0 (1.06 snapshots' bytes) and
    # nothing else: no profile frame and no flow of index 1, which with
    # two-frame windows on the runs and one flow per index held 6.2
    sys_, cfg, ev, u = superposed
    snapshot = u.snapshots[0].data.nbytes

    def sweep(system):
        e_norm(remainder(u, system, sys_, 1), 4, 4, cfg.T)
        source_norms(system, sys_, 0, cfg.T, 4.0, n_samples=3)

    sweep(replace(ev))  # the symbols and tables every equal grid shares
    fresh = replace(ev)  # the same runs with no remainder flow made yet
    _, held, _ = traced(lambda: sweep(fresh))
    assert held < 1.5 * snapshot


def test_source_norms_equal_the_two_trajectory_form(superposed):
    sys_, cfg, ev, _ = superposed
    p, T0, n_samples = 4.0, cfg.T, 5
    snapshot = sys_.profiles[0][0].data.nbytes

    def two_trajectory_form():
        # every sample's two parts kept, then one sampled trajectory per part
        sp = critical_exponent(p, 3)
        times = np.linspace(0.0, T0, n_samples)
        cache = {t: source_term(ev, sys_, 1, t) for t in times}
        t1 = sample_trajectory(sys_.grid, times, lambda t: cache[t][0])
        t2 = sample_trajectory(sys_.grid, times, lambda t: cache[t][1])
        n1 = chemin_lerner_norm(t1, 2.0 * p / (p + 1.0), BesovIndex(sp - 1.0 + 1.0 / p, p, p))
        n2 = chemin_lerner_norm(t2, p / (p - 1.0), BesovIndex(sp - 2.0 / p, p, p))
        return {"paraproduct_part": n1, "zeta_part": n2, "upper_bound": n1 + n2}

    ref, _, ref_peak = traced(two_trajectory_form)
    out, _, peak = traced(lambda: source_norms(ev, sys_, 1, T0, p, n_samples=n_samples))
    assert out == ref
    # the two-trajectory form peaks with all 2 x 5 parts alive
    assert peak < ref_peak - 5 * snapshot


def test_drift_norm_equals_the_sampled_trajectory_form(superposed):
    sys_, cfg, ev, _ = superposed
    p = 4.0
    times = np.linspace(0.0, cfg.T, 5)
    traj = sample_trajectory(sys_.grid, times, lambda t: drift_term(ev, sys_, 1, t))
    ref = chemin_lerner_norm(traj, p, BesovIndex(critical_exponent(p, 3) + 2.0 / p, p, p))
    assert drift_norm(ev, sys_, 1, cfg.T, p, n_samples=5) == ref


def test_sampled_band_tables_need_increasing_times():
    # the time rule of every Chemin-Lerner-type norm is checked where they end
    grid = Grid(2, 16)
    f = taylor_green(grid)
    idx = BesovIndex.critical(3.0, 2)
    levels, (one,) = band_tables(grid, 1, lambda i: (f,), 3.0)
    with pytest.raises(DomainError, match="at least 2"):
        _cl_from_matrix(np.array([0.0]), levels, one, 3.0, idx)
    levels, (three,) = band_tables(grid, 3, lambda i: (f,), 3.0)
    with pytest.raises(DomainError, match="strictly increasing"):
        _cl_from_matrix(np.zeros(3), levels, three, 3.0, idx)


def test_no_snapshot_and_too_few_samples(superposed):
    # a trajectory with no snapshot has an empty band table and no e-norm;
    # the sampled norms refuse fewer than 2 samples and a zero horizon
    grid = Grid(2, 16)
    empty = Trajectory(grid, np.array([]), [])
    levels, eps = empty.band_table(3.0)
    lo, hi = band_range(grid)
    assert levels.tolist() == list(range(lo, hi + 1))
    assert eps.size == 0 and not eps.flags.writeable
    with pytest.raises(DomainError, match="at least 2"):
        e_norm(empty, 3, 3, 0.1)
    # evolve returns such a trajectory when its first inverse transform
    # overflows: it covers no time, is no drift and has no pairings
    assert not empty.covers(0.0)
    with pytest.raises(TrajectoryCoverageError, match="no snapshot"):
        empty.at(0.0)
    prob = PerturbationProblem(w0=taylor_green(grid), drift=empty)
    with pytest.raises(TrajectoryCoverageError, match="must cover"):
        evolve_perturbed(prob, SolverConfig(dt=0.01, T=0.02))
    with pytest.raises(DomainError, match="empty trajectory"):
        weak_convergence_probe(empty, make_test_battery(grid, count=2))
    sys_, cfg, ev, _ = superposed
    for norm in (drift_norm, source_norms):
        for T0, n_samples in ((cfg.T, 0), (cfg.T, 1), (0.0, 3)):
            match = "at least 2" if n_samples < 2 else "strictly increasing"
            with pytest.raises(DomainError, match=match):
                norm(ev, sys_, 1, T0, 4.0, n_samples=n_samples)


def test_force_norm_holds_one_sample_per_part():
    # each part's force sample is freed before the part is asked for the
    # next, and the force norm is the sampled-trajectory one bit for bit
    grid = Grid(3, 16)
    w0 = random_divfree_field(grid, seed=2, k_hi=3.0, amplitude=0.1)
    base = random_divfree_field(grid, seed=6, k_hi=3.0, amplitude=0.2)

    def part(scale):
        alive = []

        def g(t):
            assert all(ref() is None for ref in alive), "an earlier force sample is alive"
            f = base * (scale * (1.0 + t))
            alive.append(weakref.ref(f))
            return f
        return g

    cfg, p = SolverConfig(dt=5e-3, T=0.05), 4.0
    prob = PerturbationProblem(w0=w0, force_parts=(part(1.0), part(0.5)))
    rep = verify_perturbation_bound(prob, cfg, p)
    sp = critical_exponent(p, 3)
    times = np.linspace(0.0, cfg.T, 11)
    ref = chemin_lerner_norm(sample_trajectory(grid, times, lambda t: base * (1.0 + t)),
                             2.0 * p / (p + 1.0), BesovIndex(sp - 1.0 + 1.0 / p, p, p))
    ref += chemin_lerner_norm(sample_trajectory(grid, times, lambda t: base * (0.5 * (1.0 + t))),
                              p / (p - 1.0), BesovIndex(sp - 2.0 / p, p, p))
    assert rep.force_norm == ref


def test_superposition_error_at_a_read_json_error(tmp_path, monkeypatch):
    # remainder() reads nothing, so a profile leaving the box surfaces inside
    # e_norm, at the read that makes the superposition: still one JSON line
    real_superpose, real_remainder = profiles.superpose_evolution, cli.remainder
    calls, made = [], []

    def overflow_at_second_read(*args):
        calls.append(args)
        if len(calls) == 2:
            raise SupportOverflowError("profile 0: rescaled support exits the box")
        return real_superpose(*args)

    monkeypatch.setattr(profiles, "superpose_evolution", overflow_at_second_read)
    monkeypatch.setattr(cli, "remainder", lambda *args: made.append(real_remainder(*args))
                        or made[-1])
    doc = {"grid": {"d": 2, "N": 16},
           "profiles": [{"field": {"generator": {"type": "taylor_green"}},
                         "scale_cores": [{"lambda": 1, "x0": [0, 0]}] * 3}],
           "n_values": [0], "solver": {"dt": 0.01, "T": 0.02}, "p": 3}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    res = run_cli(["superpose", "--config", str(tmp_path / "c.json"),
                   "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert len(made) == 1 and len(calls) == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "SupportOverflowError",
                                    "message": "profile 0: rescaled support exits the box"}
    assert not (tmp_path / "out" / "trend.json").exists()
