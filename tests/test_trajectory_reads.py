"""Loaded and collected solver trajectories read their snapshots on demand.
The reductions of a loaded one hold a few snapshots whatever the count and
give the in-memory norms bit for bit, a drift is read about once per
snapshot, and a snapshot file that changes after loading is a JSON error.  A
collected solver run holds its box coefficients, about 30% of its
snapshots' bytes, and hands out the snapshots the step took, bit for bit."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from critns import Grid, cli
from critns import io as critns_io
from critns.criticality import make_test_battery, sup_critical_norm, weak_convergence_probe
from critns.fields import (gaussian_bump, localized_divfree_bump, random_divfree_field,
                           taylor_green)
from critns.io import TrajectoryWriter, load_trajectory, save_trajectory, write_field
from critns.norms import (band_profile, e_norm, heat_besov_spacetime_norm, lebesgue_norm,
                          serrin_norm)
from critns.profiles import ns_equation_residual, pairing_table
from critns.solver import (RESOLUTION_LIMIT, PerturbationProblem, SolverConfig, Trajectory,
                           evolve, evolve_perturbed, evolve_streaming, make_heat_trajectory)

from conftest import traced


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
        "heat_besov_spacetime": lambda t: heat_besov_spacetime_norm(t, 4.0, 4.0),
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
    traj = make_heat_trajectory(taylor_green(grid), np.linspace(0.0, 0.1, 5))
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
def test_snapshot_changed_after_loading_json_error(tmp_path, monkeypatch, capsys, command,
                                                   change, error):
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
    code = cli.main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
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


def test_collected_run_holds_its_box_spectra(collected):
    # the 2/3-rule box holds 29.6% of a 32^3 snapshot's bytes; the physical
    # snapshots the run used to keep were 1.0 of them
    u0, cfg = collected
    evolve(u0, replace(cfg, T=2 * cfg.dt))  # the masks and tables every equal grid shares
    traj, held, _ = traced(lambda: evolve(u0, cfg))
    assert len(traj.snapshots) == 21
    assert held / len(traj.snapshots) <= 0.35 * u0.data.nbytes


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
