"""CFD1 field files, trajectory directories and the CLI surface."""

import json
import math
import os
import re
import shlex
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from critns import Grid, cli
from critns import io as critns_io
from critns.cli import parse_grid, parse_solver
from critns.errors import InvalidFieldError
from critns.fields import gaussian_bump, random_divfree_field, taylor_green
from critns.grid import RealVectorField
from critns.io import (TrajectoryWriter, load_trajectory, read_field, save_trajectory,
                       write_field)
from critns.solver import SolverConfig, evolve, make_heat_trajectory
from conftest import run_cli, traced


class TestCFD1:
    def test_roundtrip(self, tmp_path, grid3):
        f = random_divfree_field(grid3, seed=0, k_hi=3.0)
        path = tmp_path / "field.cfd"
        write_field(path, f)
        back = read_field(path)
        assert back.grid.compatible(grid3)
        assert np.array_equal(back.data, f.data)

    def test_header_format(self, tmp_path, grid3):
        f = random_divfree_field(grid3, seed=1, k_hi=3.0)
        path = tmp_path / "field.cfd"
        write_field(path, f)
        header = open(path, "rb").readline().decode()
        assert header.startswith("CFD1 d=3 N=16 L=")
        assert header.rstrip().endswith("C=3")

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.cfd"
        path.write_bytes(b"NOPE d=2 N=8 L=1.0 C=1\n" + b"\x00" * 512)
        with pytest.raises(InvalidFieldError):
            read_field(path)

    def test_rejects_truncated_payload(self, tmp_path, grid3):
        f = random_divfree_field(grid3, seed=2, k_hi=3.0)
        path = tmp_path / "field.cfd"
        write_field(path, f)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(InvalidFieldError):
            read_field(path)


    def test_bytes_are_the_c_order_little_endian_layout(self, tmp_path, grid3):
        # written from the array itself: the bytes tobytes() gave, from a
        # Fortran-ordered array too
        f = random_divfree_field(grid3, seed=5, k_hi=3.0)
        header = f"CFD1 d=3 N=16 L={grid3.L!r} C=3\n".encode("ascii")
        payload = np.ascontiguousarray(f.data, dtype="<f8").tobytes()
        for data in (f.data, np.asfortranarray(f.data)):
            write_field(tmp_path / "field.cfd", RealVectorField(grid3, data))
            assert (tmp_path / "field.cfd").read_bytes() == header + payload

    def test_roundtrip_bitwise(self, tmp_path):
        grid = Grid(2, 8)
        data = np.random.default_rng(0).standard_normal((2,) + grid.shape)
        data[0, 0, :4] = [-0.0, 5e-324, np.inf, np.nan]
        write_field(tmp_path / "field.cfd", RealVectorField(grid, data))
        back = read_field(tmp_path / "field.cfd").data
        assert back.tobytes() == data.tobytes()
        assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable

    @pytest.mark.parametrize("cut", [1, 8, 2 * 16**3 * 8])
    def test_rejects_payload_short_by(self, tmp_path, grid3, cut):
        path = tmp_path / "field.cfd"
        write_field(path, random_divfree_field(grid3, seed=2, k_hi=3.0))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(InvalidFieldError, match="claims"):
            read_field(path)

    def test_rejects_payload_that_shrinks_after_the_size_check(self, tmp_path, grid3,
                                                                monkeypatch):
        path = tmp_path / "field.cfd"
        write_field(path, random_divfree_field(grid3, seed=2, k_hi=3.0))
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = os.fstat
        monkeypatch.setattr(critns_io.os, "fstat", lambda fd: types.SimpleNamespace(
            st_size=real_fstat(fd).st_size + 8))
        with pytest.raises(InvalidFieldError, match="read"):
            read_field(path)


class TestTrajectoryPersistence:
    def test_roundtrip(self, tmp_path, grid3):
        f = random_divfree_field(grid3, seed=3, k_hi=3.0)
        traj = make_heat_trajectory(f, [0.0, 0.05, 0.1])
        save_trajectory(tmp_path / "traj", traj)
        back = load_trajectory(tmp_path / "traj")
        assert back.status == traj.status
        assert np.allclose(back.times, traj.times)
        for a, b in zip(back.snapshots, traj.snapshots):
            assert np.array_equal(a.data, b.data)
            assert a.grid is back.grid

    def test_rejects_mixed_grids(self, tmp_path, grid3):
        f = random_divfree_field(grid3, seed=3, k_hi=3.0)
        save_trajectory(tmp_path / "traj", make_heat_trajectory(f, [0.0, 0.05]))
        write_field(tmp_path / "traj" / "snap_1.cfd", taylor_green(Grid(2, 16)))
        with pytest.raises(InvalidFieldError):
            load_trajectory(tmp_path / "traj")

    def test_unfinished_writer_leaves_no_manifest(self, tmp_path, grid3):
        # a manifest an earlier run left is removed with the first new snapshot
        f = random_divfree_field(grid3, seed=3, k_hi=3.0)
        save_trajectory(tmp_path / "traj", make_heat_trajectory(f, [0.0, 0.05]))
        writer = TrajectoryWriter(tmp_path / "traj")
        writer.add(f)
        with pytest.raises(FileNotFoundError):
            load_trajectory(tmp_path / "traj")

    def test_save_holds_one_snapshot_at_a_time(self, tmp_path):
        # snapshot i is read by index and written, so no loop variable holds
        # the one before while the next is made: 2.07 snapshots traced here
        # (a snapshot and the inverse's work array), 4.13 when it did
        grid = Grid(3, 32)
        u0 = random_divfree_field(grid, seed=4, k_hi=3.0)
        traj = make_heat_trajectory(u0, np.linspace(0.0, 0.1, 9))
        save_trajectory(tmp_path / "warm", traj)  # the radial table, built once
        _, _, peak = traced(lambda: save_trajectory(tmp_path / "traj", traj))
        assert peak / u0.data.nbytes <= 2.5
        for i, snap in enumerate(traj.snapshots):
            assert read_field(tmp_path / "traj" / f"snap_{i}.cfd").data.tobytes() == \
                snap.data.tobytes()

    def test_manifest_contents(self, tmp_path, grid3):
        u0 = random_divfree_field(grid3, seed=4, k_hi=3.0, amplitude=0.1)
        traj = evolve(u0, SolverConfig(dt=0.01, T=0.03))
        save_trajectory(tmp_path / "traj", traj)
        manifest = json.loads((tmp_path / "traj" / "manifest.json").read_text())
        assert manifest["status"] == "Completed"
        assert manifest["config"]["dt"] == 0.01
        assert "l2" in manifest["records"]


# id -> (d, generator amplitude, k_hi, solver document, status, snapshots)
STREAM_CASES = {
    "2d-completed": (2, 0.5, 3.0, {"dt": 0.01, "T": 0.06, "snapshot_stride": 2},
                     "Completed", 4),
    "3d-completed": (3, 0.5, 3.0, {"dt": 0.01, "T": 0.06, "snapshot_stride": 2},
                     "Completed", 4),
    # 7 steps at stride 3: snapshots at steps 0, 3, 6 and the last, 7
    "2d-stride-not-dividing": (2, 0.5, 3.0, {"dt": 0.01, "T": 0.07, "snapshot_stride": 3},
                               "Completed", 4),
    "3d-stride-not-dividing": (3, 0.5, 3.0, {"dt": 0.01, "T": 0.07, "snapshot_stride": 3},
                               "Completed", 4),
    # the tail fraction crosses its threshold at step 6 (2D) or 5 (3D),
    # between strides: snapshots at steps 0, 4 and the trip
    "2d-resolution-limit": (2, 60.0, 2.0, {"dt": 0.002, "T": 0.03, "snapshot_stride": 4,
                                           "spectral_tail_threshold": 1.5e-5},
                            "ResolutionLimit", 3),
    "3d-resolution-limit": (3, 20.0, 2.0, {"dt": 0.002, "T": 0.03, "snapshot_stride": 4,
                                           "spectral_tail_threshold": 4e-4},
                            "ResolutionLimit", 3),
}


class TestStreamingEvolve:
    """cli evolve writes each snapshot the step it is taken and drops it."""

    def _evolve_doc(self, workdir, d, amplitude, k_hi, solver):
        doc = {"grid": {"d": d, "N": 16},
               "u0": {"generator": {"type": "random_divfree", "seed": 5, "k_hi": k_hi,
                                     "amplitude": amplitude}},
               "solver": solver}
        (workdir / "c.json").write_text(json.dumps(doc))
        return str(workdir / "c.json")

    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_directory_matches_save_trajectory(self, workdir, case):
        d, amplitude, k_hi, solver, status, count = STREAM_CASES[case]
        cfg = self._evolve_doc(workdir, d, amplitude, k_hi, solver)
        res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        u0 = random_divfree_field(Grid(d, 16), seed=5, k_hi=k_hi, amplitude=amplitude)
        traj = evolve(u0, parse_solver(solver))
        assert (traj.status, len(traj.snapshots)) == (status, count)
        save_trajectory(workdir / "ref", traj)
        streamed, ref = workdir / "out" / "trajectory", workdir / "ref"
        names = sorted(path.name for path in ref.iterdir())
        assert sorted(path.name for path in streamed.iterdir()) == names
        for name in names:
            assert (streamed / name).read_bytes() == (ref / name).read_bytes(), name
        summary = json.loads((workdir / "out" / "evolve.json").read_text())
        assert summary == {"status": status, "final_time": traj.final_time, "snapshots": count}

    @pytest.mark.parametrize("stride, count", [(1, 6), (2, 4)])
    def test_earlier_snapshots_freed_when_each_is_written(self, workdir, monkeypatch,
                                                          stride, count):
        written = []
        write = critns_io.write_field

        def spy(path, f):
            assert all(ref() is None for ref in written), "an earlier snapshot is alive"
            written.append(weakref.ref(f.data))
            write(path, f)

        monkeypatch.setattr(critns_io, "write_field", spy)
        cfg = self._evolve_doc(workdir, 3, 0.5, 3.0,
                               {"dt": 0.01, "T": 0.05, "snapshot_stride": stride})
        res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        assert len(written) == count

    def test_datum_freed_before_the_first_write(self, workdir, monkeypatch):
        # cmd_evolve hands the built datum to the run as a temporary, and the
        # run drops it once it has its box coefficients
        datum, dead = [], []
        build, add = cli.build_field, TrajectoryWriter.add

        def built(source, grid):
            f = build(source, grid)
            datum.append(weakref.ref(f.data))
            return f

        def added(writer, snap):
            dead.append(datum[0]() is None)
            add(writer, snap)

        monkeypatch.setattr(cli, "build_field", built)
        monkeypatch.setattr(TrajectoryWriter, "add", added)
        cfg = self._evolve_doc(workdir, 3, 0.5, 3.0, {"dt": 0.01, "T": 0.03})
        res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        assert len(datum) == 1 and dead == [True] * 4


TG = {"generator": {"type": "taylor_green"}}
SEQ3 = [{"lambda": 1, "x0": [0, 0]}] * 3
SOLVER = {"dt": 0.01, "T": 0.02}
HEAT_FLOW = "<a stored heat-flow trajectory>"  # written by the test that reads it


def superpose_doc(**changes):
    doc = {"grid": {"d": 2, "N": 16}, "profiles": [{"field": TG, "scale_cores": SEQ3}],
           "n_values": [0], "solver": SOLVER, "p": 3}
    doc.update(changes)
    return doc


def superpose_3d_doc(remainder_field):
    """A superpose document on a 3D grid whose remainder is the given field."""
    return superpose_doc(grid={"d": 3, "N": 16},
                         profiles=[{"field": {"generator": {"type": "random_divfree", "seed": 0}},
                                    "scale_cores": [{"lambda": 1, "x0": [0, 0, 0]}] * 3}],
                         remainder={"field": remainder_field})


def ortho_doc(**changes):
    doc = {"grid": {"d": 2, "N": 16}, "f": TG, "g": TG, "seq_a": SEQ3, "seq_b": SEQ3,
           "p": 3, "n_values": [0]}
    doc.update(changes)
    return doc


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


class TestCLI:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_norm_command(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "field": {"generator": {"type": "taylor_green", "amplitude": 1.0}},
            "norm": {"kind": "lebesgue", "p": 2},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        report = json.loads((workdir / "out" / "norm.json").read_text())
        grid = Grid(2, 16)
        from critns.norms import lebesgue_norm

        assert abs(report["value"] - lebesgue_norm(taylor_green(grid), 2)) < 1e-12

    def test_zero_field_norm(self, workdir):
        import critns.io as cio

        z = Grid(2, 16)
        from critns.grid import zero_field

        cio.write_field(workdir / "z.cfd", zero_field(z, 2))
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "field": {"file": str(workdir / "z.cfd")},
            "norm": {"kind": "lebesgue", "p": 2},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == 0.0

    @pytest.mark.parametrize("kind, field, key, positive", [
        ("besov", TG, "band_edge", True),
        ("besov", {"generator": {"type": "band_noise", "k_lo": 2.0, "k_hi": 5.0, "seed": 3}},
         "band_edge", False),
        ("besov", "zero", "band_edge", False),
        ("heat_besov", TG, "tau", True),
        ("heat_besov", "zero", "tau", False),
    ], ids=["besov-edge", "besov-interior", "besov-zero", "heat-besov", "heat-besov-zero"])
    def test_norm_error_estimate(self, workdir, kind, field, key, positive):
        # besov reports the edge band's share of the l^q sum (0 without an
        # edge warning), heat_besov the every-other-tau change; a zero field
        # gives 0, not NaN
        from critns.grid import zero_field
        from critns.norms import BesovIndex, besov_norm_detailed, edge_share
        from critns.norms import heat_besov_norm_detailed

        grid = Grid(2, 32)
        if field == "zero":
            write_field(workdir / "z.cfd", zero_field(grid, 2))
            field = str(workdir / "z.cfd")
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 32}, "field": field,
            "norm": {"kind": kind, "p": 3, "s": 0.0},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        report = json.loads((workdir / "out" / "norm.json").read_text())
        assert list(report["error_estimate"]) == [key]
        estimate = report["error_estimate"][key]
        assert (estimate > 0) == positive
        f = cli.build_field(field, grid)
        idx = BesovIndex(0.0, 3.0, 3.0)
        if kind == "besov":
            _, _, eps, warns = besov_norm_detailed(f, idx)
            assert estimate == edge_share(eps, 3.0) and bool(warns) == positive
        else:
            assert estimate == heat_besov_norm_detailed(f, idx)[1]

    def test_lp_command(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "field": {"generator": {"type": "band_noise", "k_lo": 1.0, "k_hi": 4.0,
                                     "seed": 5}},
        })
        res = run_cli(["lp", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        bands = json.loads((workdir / "out" / "bands.json").read_text())
        assert (workdir / "out" / "low.cfd").exists()
        assert len(bands["bands"]) >= 3

    def test_evolve_and_serrin_and_probe(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 3, "N": 16},
            "u0": {"generator": {"type": "random_divfree", "seed": 6, "k_hi": 3.0,
                                  "amplitude": 0.2}},
            "solver": {"dt": 0.01, "T": 0.05, "snapshot_stride": 1},
        })
        res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        traj_dir = str(workdir / "out" / "trajectory")
        scfg = self._write(workdir / "s.json", {
            "trajectory": traj_dir, "p_t": "inf", "q_x": 3.0,
        })
        res = run_cli(["serrin", "--config", scfg, "--out", str(workdir / "outs")])
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] > 0
        pcfg = self._write(workdir / "p.json", {
            "trajectory": traj_dir, "battery": {"count": 4, "seed": 1},
        })
        res = run_cli(["probe", "--config", pcfg, "--out", str(workdir / "outp")])
        assert res.returncode == 0
        probe = json.loads((workdir / "outp" / "probe.json").read_text())
        assert len(probe["pairings"][0]) == 4

    def test_ortho_command(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 32},
            "f": {"generator": {"type": "gaussian", "sigma": 0.4}},
            "g": {"generator": {"type": "gaussian", "sigma": 0.4}},
            "seq_a": [{"lambda": 1.0, "x0": [0.0, 0.0]} for _ in range(4)],
            "seq_b": [{"lambda": 2.0 ** -n, "x0": [0.0, 0.0]} for n in range(4)],
            "p": 2.0,
            "n_values": [0, 1],
        })
        res = run_cli(["ortho", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        doc = json.loads((workdir / "out" / "ortho.json").read_text())
        assert doc["rows"][0]["cross_term"] > doc["rows"][1]["cross_term"]

    def test_superpose_command_with_cfd_paths(self, workdir):
        # exercises the profile-system JSON schema: field entries are CFD1 paths
        import critns.io as cio
        from critns.fields import localized_divfree_bump
        from critns.solver import condition_datum

        grid = Grid(3, 16)
        L = grid.L
        for name, seed in (("p1", 11), ("p2", 22)):
            f = condition_datum(localized_divfree_bump(
                grid, sigma=L / 8, mode_center=(2, 1, 1), seed=seed, amplitude=0.25))
            cio.write_field(workdir / f"{name}.cfd", f)

        def entries(sign):
            out = []
            for n in range(14):
                lam = 1.0 if n < 3 else 2.0 ** (-(n - 2))
                d = min(0.05 + 0.08 * n, 0.22)
                out.append({"lambda": lam, "x0": [sign * d * L] * 3})
            return out

        cfg = self._write(workdir / "sup.json", {
            "grid": {"d": 3, "N": 16},
            "profiles": [
                {"field": str(workdir / "p1.cfd"), "scale_cores": entries(-1)},
                {"field": str(workdir / "p2.cfd"), "scale_cores": entries(+1)},
            ],
            "remainder": {"seed": 3, "amplitude": 0.005, "decay": 0.25},
            "n_values": [0, 1, 2],
            "solver": {"dt": 0.005, "T": 0.04, "snapshot_stride": 2},
            "p": 4.0,
        })
        res = run_cli(["superpose", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        trend = json.loads((workdir / "out" / "trend.json").read_text())
        vals = [row["remainder_e_norm"] for row in trend["rows"]]
        assert vals[0] > vals[1] > vals[2]

    def test_threshold_command(self, workdir):
        cfg = self._write(workdir / "thr.json", {
            "grid": {"d": 3, "N": 16},
            "base": {"generator": {"type": "band_noise", "k_lo": 1.0, "k_hi": 2.2,
                                    "seed": 5, "divergence_free": True,
                                    "amplitude": 1.0}},
            "alpha_lo": 0.1, "alpha_hi": 80.0, "tol": 0.1,
            "solver": {"dt": 0.005, "T": 0.1, "snapshot_stride": 5,
                       "spectral_tail_threshold": 0.05,
                       "blowup_sup_threshold": 10000.0},
        })
        res = run_cli(["threshold", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        doc = json.loads((workdir / "out" / "threshold.json").read_text())
        assert doc["proxy_disclaimer"] is True
        assert doc["relative_width"] <= 0.1

    def test_perturb_command(self, workdir):
        cfg = self._write(workdir / "per.json", {
            "grid": {"d": 3, "N": 16},
            "w0": {"generator": {"type": "random_divfree", "seed": 9, "k_hi": 3.0,
                                  "amplitude": 0.05}},
            "solver": {"dt": 0.005, "T": 0.05, "snapshot_stride": 2},
            "p": 4.0,
        })
        res = run_cli(["perturb", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        doc = json.loads((workdir / "out" / "perturb.json").read_text())
        assert doc["lhs_e_norm"] > 0 and not doc["inconsistent"]

    def test_unknown_key_rejected(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "bogus": 1,
            "field": {"generator": {"type": "taylor_green"}},
            "norm": {"kind": "lebesgue", "p": 2},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "ConfigValidationError"

    def test_seed_required(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "field": {"generator": {"type": "band_noise", "k_lo": 1.0, "k_hi": 3.0}},
            "norm": {"kind": "lebesgue", "p": 2},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1

    @pytest.mark.parametrize("command, doc", [
        ("evolve", {"grid": {"d": 2, "N": 16},
                    "u0": {"generator": {"type": "taylor_green"}},
                    "solver": {"dt": "x", "T": 0.1}}),
        ("norm", {"grid": {"d": 2, "N": "x"},
                  "field": {"generator": {"type": "taylor_green"}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("norm", {"grid": {"d": 3, "N": 16},
                  "field": {"generator": {"type": "taylor_green"}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("evolve", {"grid": {"d": 2, "N": 16},
                    "u0": {"generator": {"type": "taylor_green"}},
                    "solver": {"dt": 0.01, "T": 0.02}, "record_norms": True}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG,
                  "norm": {"kind": "lebesgue", "p": "x"}}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG,
                  "norm": {"kind": "besov", "p": 3, "s": 0.0, "q": [3]}}),
        ("lp", {"grid": {"d": 2, "N": 16}, "field": TG, "j_min": "x"}),
        ("superpose", superpose_doc(remainder={"decay": "x"})),
        ("ortho", {"grid": {"d": 2, "N": 16}, "f": TG, "g": TG,
                   "seq_a": [{"lambda": "x", "x0": [0, 0]}],
                   "seq_b": [{"lambda": 1, "x0": [0, 0]}], "p": 3, "n_values": [0]}),
        ("ortho", {"grid": {"d": 2, "N": 16}, "f": TG, "g": TG,
                   "seq_a": [{"lambda": 1, "x0": [0, 0]}] * 3,
                   "seq_b": [{"lambda": 1, "x0": [0, 0]}] * 3, "p": 3, "n_values": "x"}),
        ("perturb", {"grid": {"d": 2, "N": 16}, "w0": TG,
                     "solver": {"dt": 0.01, "T": 0.02}, "p": "x"}),
        ("threshold", {"grid": {"d": 2, "N": 16}, "base": TG, "alpha_lo": "a",
                       "alpha_hi": 2, "tol": 0.1, "solver": {"dt": 0.01, "T": 0.02}}),
        ("serrin", {"trajectory": "missing", "p_t": "x", "q_x": 3}),
        ("probe", {"trajectory": "missing", "battery": {"count": "x"}}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": {"generator": 5},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("probe", {"trajectory": "missing", "battery": 5}),
        ("norm", {"grid": {"d": 2, "N": 16.7}, "field": TG,
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("norm", {"grid": {"d": 2, "N": 16},
                  "field": {"generator": {"type": "band_noise", "k_lo": 1, "k_hi": 3,
                                          "seed": 5.5}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": {"dt": 0.01, "T": 0.02, "snapshot_stride": 1.5}}),
        ("lp", {"grid": {"d": 2, "N": 16}, "field": TG, "j_min": 0.5}),
        ("superpose", superpose_doc(J=0.5)),
        ("probe", {"trajectory": "missing", "battery": {"count": 4.5}}),
        ("superpose", superpose_doc(profiles=5)),
        ("superpose", superpose_doc(profiles=[])),
        ("superpose", superpose_doc(profiles=[{"field": TG, "scale_cores": 5}])),
        ("ortho", ortho_doc(seq_a=5)),
        ("ortho", ortho_doc(n_values=[7])),
        ("ortho", ortho_doc(n_values=[-1])),
        ("superpose", superpose_doc(n_values=[3])),
        ("superpose", superpose_doc(n_values=[-1])),
        ("superpose", superpose_doc(n_values=[])),
        ("superpose", superpose_doc(J=-1)),
        ("lp", {"grid": {"d": 2, "N": 16}, "field": TG, "j_min": 2, "j_max": 1}),
        ("lp", {"grid": {"d": 2, "N": 16}, "field": TG, "j_max": 40}),
        ("lp", {"grid": {"d": 2, "N": 16}, "field": TG, "j_min": -5}),
        ("serrin", {"trajectory": 5, "p_t": "inf", "q_x": 3}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": {"file": True},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": {"generator": {"type": ["gaussian"]}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": {"dt": 0.01, "T": float("inf")}}),
        ("evolve", {"grid": {"d": 2, "N": 16, "L": float("inf")}, "u0": TG,
                    "solver": {"dt": 0.01, "T": 0.02}}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": {"dt": float("inf"), "T": 0.02}}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": {"dt": 10**400, "T": 0.02}}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": {"dt": 5e-324, "T": 1.0}}),
        ("evolve", {"grid": {"d": 3, "N": 2**30},
                    "u0": {"generator": {"type": "random_divfree", "seed": 0}},
                    "solver": SOLVER}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG,
                  "norm": {"kind": "lebesgue", "p": float("nan")}}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG,
                  "norm": {"kind": "besov", "p": 3, "s": 0.0, "q": float("-inf")}}),
        ("superpose", superpose_doc(p=float("inf"))),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG, "seed": "x",
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG,
                  "norm": {"kind": "lebesgue", "p": 2, "s": "x", "q": []}}),
        ("perturb", {"grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 4,
                     "force_part1": 0}),
        ("perturb", {"grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 4,
                     "force_part2": {}}),
        ("perturb", {"grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 4,
                     "drift_trajectory": ""}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG, "norm": {"kind": "lebesgue"}}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG, "norm": {"kind": "besov", "p": 3}}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": dict(SOLVER, tail_octave_shift=2000)}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": dict(SOLVER, tail_octave_shift=-1)}),
        ("evolve", {"grid": {"d": 2, "N": 16}, "u0": TG,
                    "solver": dict(SOLVER, spectral_tail_threshold=-1.0)}),
        ("norm", {"grid": {"d": 2, "N": 16},
                  "field": {"generator": {"type": "gaussian", "sigma": 0.5, "ncomp": 0}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("norm", {"grid": {"d": 2, "N": 16},
                  "field": {"generator": {"type": "gaussian", "sigma": 0}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("norm", {"grid": {"d": 2, "N": 16},
                  "field": {"generator": {"type": "band_noise", "k_lo": 1, "k_hi": 3,
                                          "seed": -1}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("norm", {"grid": {"d": 2, "N": 16},
                  "field": {"generator": {"type": "band_noise", "k_lo": 1, "k_hi": 3,
                                          "seed": 5, "ncomp": -2}},
                  "norm": {"kind": "lebesgue", "p": 2}}),
        ("superpose", superpose_doc(remainder={"seed": -4})),
        ("perturb", {"grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 0}),
        ("superpose", superpose_doc(p=0)),
        ("serrin", {"trajectory": HEAT_FLOW, "p_t": 4, "q_x": 0}),
        ("probe", {"trajectory": HEAT_FLOW, "battery": {"seed": -1}}),
        ("norm", {"grid": {"d": 2, "N": 16}, "field": TG,
                  "norm": {"kind": "besov", "p": 2, "s": 1e308}}),
        # (L/N)^d overflows (an OverflowError in Grid.cell_volume)
        ("norm", {"grid": {"d": 2, "N": 16, "L": 1e200}, "field": TG,
                  "norm": {"kind": "lebesgue", "p": 2}}),
        # L^d overflows (an OverflowError in the solver's l2 record)
        ("evolve", {"grid": {"d": 3, "N": 16, "L": 1e120},
                    "u0": {"generator": {"type": "random_divfree", "seed": 0}},
                    "solver": SOLVER}),
        # |k|^2 overflows (the tail octave read as holding no mode)
        ("evolve", {"grid": {"d": 2, "N": 16, "L": 1e-300}, "u0": TG, "solver": SOLVER}),
        # a remainder that is no divergence-free velocity field
        ("superpose", superpose_3d_doc({"generator": {"type": "gaussian", "sigma": 0.5,
                                                      "amplitude": 0.01}})),
        ("superpose", superpose_3d_doc({"generator": {"type": "gaussian", "sigma": 0.5,
                                                      "ncomp": 3, "amplitude": 0.01}})),
    ], ids=["solver-dt-string", "grid-N-string", "taylor-green-3d", "record-norms",
            "norm-p-string", "norm-q-list", "lp-j_min-string", "remainder-decay-string",
            "scale-core-lambda-string", "ortho-n_values-string", "perturb-p-string",
            "threshold-alpha_lo-string", "serrin-p_t-string", "battery-count-string",
            "generator-not-object", "battery-not-object", "grid-N-fraction",
            "generator-seed-fraction", "solver-stride-fraction", "lp-j_min-fraction",
            "superpose-J-fraction", "battery-count-fraction", "profiles-not-list",
            "profiles-empty", "scale-cores-not-list", "seq_a-not-list",
            "ortho-n-too-large", "ortho-n-negative", "superpose-n-too-large",
            "superpose-n-negative", "superpose-n-empty", "superpose-J-negative",
            "lp-j_min-above-j_max", "lp-j_max-above-range", "lp-j_min-below-range",
            "trajectory-not-string",
            "file-not-string", "generator-type-list", "solver-T-infinity",
            "grid-L-infinity", "solver-dt-infinity", "solver-dt-overflow",
            "solver-dt-subnormal", "grid-too-large", "norm-p-nan", "norm-q-minus-infinity",
            "superpose-p-infinity", "norm-seed-unused",
            "lebesgue-s-string", "perturb-force-zero", "perturb-force-empty-object",
            "perturb-drift-empty-string", "norm-p-missing", "besov-s-missing",
            "solver-tail-shift-huge", "solver-tail-shift-negative",
            "solver-tail-threshold-negative", "gaussian-ncomp-zero",
            "gaussian-sigma-zero", "band-noise-seed-negative", "band-noise-ncomp-negative",
            "remainder-seed-negative", "perturb-p-zero", "superpose-p-zero",
            "serrin-qx-zero", "probe-battery-seed-negative", "besov-overflow",
            "grid-L-cell-volume-overflow", "grid-L-box-volume-overflow",
            "grid-L-wavenumber-overflow", "superpose-remainder-one-component",
            "superpose-remainder-not-divergence-free"])
    def test_invalid_document_json_error(self, workdir, command, doc):
        if doc.get("trajectory") == HEAT_FLOW:
            traj_dir = workdir / "traj"
            save_trajectory(traj_dir, make_heat_trajectory(taylor_green(Grid(2, 16)),
                                                           [0.0, 0.01]))
            doc = dict(doc, trajectory=str(traj_dir))
        cfg = self._write(workdir / "c.json", doc)
        res = run_cli([command, "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] in ("ConfigValidationError", "DomainError")
        if math.isfinite(doc.get("grid", {}).get("L", math.inf)):
            # a finite box side whose powers overflow or vanish is named
            assert "box side" in error["message"]
        assert not any((workdir / "out").iterdir())  # no artifact, no manifest

    def test_infinite_besov_q_accepted(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "field": TG,
            "norm": {"kind": "besov", "p": 3, "s": 0.0, "q": float("inf")},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        report = json.loads((workdir / "out" / "norm.json").read_text())
        assert report["parameters"]["q"] == "inf" and np.isfinite(report["value"])

    def test_large_besov_smoothness_accepted(self, workdir):
        # the weighted bands reach 4.9e253; their l^2 sum, taken relative to
        # the largest, is finite too
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "field": TG,
            "norm": {"kind": "besov", "p": 2, "s": 300},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        report = json.loads((workdir / "out" / "norm.json").read_text())
        assert 4.8e253 < report["value"] < 4.9e253

    def test_large_lebesgue_exponent_accepted(self, workdir):
        # |x|^400 of x = 10 overflows; summed relative to the sample max the
        # norm is about 10.005
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "field": {"generator": {"type": "taylor_green", "amplitude": 10}},
            "norm": {"kind": "lebesgue", "p": 400},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        report = json.loads((workdir / "out" / "norm.json").read_text())
        assert 10.0 < report["value"] < 10.01

    @pytest.mark.parametrize("amplitude, code, lines", [
        # the first step trips on the sup norm with an infinite energy (its
        # tail fraction inf/inf), and the manifest cannot hold the inf l2
        pytest.param(1e306, 1, 1, id="1e306-manifest-overflow"),
        # the datum's coefficients overflow: NonFinite before any snapshot
        pytest.param(1e308, 2, 0, id="1e308-non-finite"),
    ])
    def test_huge_datum_evolve_stderr(self, workdir, amplitude, code, lines):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "u0": {"generator": {"type": "random_divfree", "seed": 0,
                                  "amplitude": amplitude}},
            "solver": SOLVER,
        })
        res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == code
        errors = res.stderr.splitlines()
        assert len(errors) == lines, res.stderr
        if code == 1:
            assert json.loads(errors[0])["error"] == "DomainError"
            # snap_0.cfd was written, the manifest never was
            assert not (workdir / "out" / "trajectory" / "manifest.json").exists()
            with pytest.raises(FileNotFoundError):
                load_trajectory(workdir / "out" / "trajectory")
        else:
            summary = json.loads((workdir / "out" / "evolve.json").read_text())
            assert summary == {"status": "NonFinite", "final_time": None, "snapshots": 0}

    @pytest.mark.parametrize("command", ["serrin", "probe"])
    @pytest.mark.parametrize("change", [
        lambda m: [],
        lambda m: dict(m, times="abc"),
        lambda m: dict(m, times=[0.0, True]),
        lambda m: dict(m, snapshots=[]),
        lambda m: dict(m, snapshots=[5, 6]),
        lambda m: dict(m, records=[1]),
        lambda m: {k: v for k, v in m.items() if k != "status"},
        lambda m: dict(m, status=5),
    ], ids=["not-object", "times-string", "times-boolean", "snapshots-empty",
            "snapshots-not-names", "records-list", "status-missing", "status-not-string"])
    def test_malformed_manifest_json_error(self, workdir, command, change):
        traj_dir = workdir / "traj"
        save_trajectory(traj_dir, make_heat_trajectory(taylor_green(Grid(2, 16)), [0.0, 0.01]))
        manifest = json.loads((traj_dir / "manifest.json").read_text())
        (traj_dir / "manifest.json").write_text(json.dumps(change(manifest)))
        doc = {"trajectory": str(traj_dir)}
        if command == "serrin":
            doc.update(p_t="inf", q_x=2)
        cfg = self._write(workdir / "c.json", doc)
        res = run_cli([command, "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "ConfigValidationError"

    @pytest.mark.parametrize("N, error", [
        # one complex 3-component half spectrum at N = 2^20 takes 2.8e19
        # bytes, past any array, so the config grid is rejected first
        pytest.param(1048576, "DomainError", id="1048576"),
        pytest.param(524288, "InvalidFieldError", id="524288"),
    ])
    def test_oversized_cfd1_header_json_error(self, workdir, N, error):
        # a header that claims more data than the file holds is rejected
        # before the read asks for C * N^d * 8 bytes
        path = workdir / "big.cfd"
        path.write_bytes(f"CFD1 d=3 N={N} L=6.283185307179586 C=3\n".encode() + b"\0" * 64)
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 3, "N": N}, "field": str(path),
            "norm": {"kind": "lebesgue", "p": 2}})
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == error

    @pytest.mark.parametrize("kind", ["besov", "heat_besov"])
    def test_componentless_cfd1_json_error(self, workdir, kind):
        # C=0 claims a zero-byte payload, which the size check alone admits
        path = workdir / "empty.cfd"
        path.write_bytes(b"CFD1 d=2 N=16 L=6.283185307179586 C=0\n")
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "field": str(path),
            "norm": {"kind": kind, "p": 3, "s": 0.0}})
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "InvalidFieldError"

    def test_readme_examples(self, tmp_path, monkeypatch):
        # the README's evolve config and its two commands, run as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        commands = re.search(r"```bash\n(critns evolve.*?)```", readme, re.S).group(1)
        monkeypatch.chdir(tmp_path)
        Path("evolve.json").write_text(config)
        for line in commands.strip().splitlines():
            words = shlex.split(line)
            if words[0] == "echo":
                _, text, redirect, target = words
                assert redirect == ">"
                Path(target).write_text(text + "\n")
            else:
                assert words[0] == "critns" and run_cli(words[1:]).returncode == 0
        serrin = json.loads(Path("out/serrin1/serrin.json").read_text())
        assert np.isfinite(serrin["value"])

    def test_integral_float_accepted_as_int(self):
        grid = parse_grid({"d": 2.0, "N": 16.0})
        assert (grid.d, grid.N) == (2, 16) and type(grid.N) is int

    def test_solver_accepts_tail_octave_shift(self):
        cfg = parse_solver({"dt": 0.01, "T": 0.1, "tail_octave_shift": 1})
        assert cfg.tail_octave_shift == 1

    def test_solver_refuses_linear_only(self, workdir):
        # the linear flow is make_heat_trajectory's; the solver has no switch for it
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "u0": TG,
            "solver": {**SOLVER, "linear_only": False}})
        res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigValidationError"
        assert "unknown keys ['linear_only']" in error["message"]

    def test_threads_clamped_to_cpu_count(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "field": {"generator": {"type": "taylor_green"}},
            "norm": {"kind": "lebesgue", "p": 2},
        })
        n_cpu = os.cpu_count()
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out"),
                       "--threads", str(n_cpu + 1)])
        assert res.returncode == 0, res.stderr
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        assert manifest["threads"] == n_cpu

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
    def test_threads_scoped_to_command(self, workdir, monkeypatch):
        n = min(2, os.cpu_count())
        seen = []

        def spy(f, p):
            seen.append(scipy.fft.get_workers())
            return 0.0

        monkeypatch.setattr(cli, "lebesgue_norm", spy)
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "field": {"generator": {"type": "taylor_green"}},
            "norm": {"kind": "lebesgue", "p": 2},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out"),
                       "--threads", str(n)])
        assert res.returncode == 0
        assert seen == [n]
        assert scipy.fft.get_workers() == 1

    def test_memory_error_exit_1(self, workdir, monkeypatch):
        # an allocation that fails ends as the one JSON error line, not a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate the field")

        monkeypatch.setattr(cli.field_gen, "random_divfree_field", exhausted)
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16},
            "u0": {"generator": {"type": "random_divfree", "seed": 0}},
            "solver": SOLVER,
        })
        res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MemoryError",
                                        "message": "Unable to allocate the field"}
        assert not any((workdir / "out").iterdir())

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "under-file"])
    def test_out_over_a_file_exit_1(self, workdir, out):
        # an --out that cannot be a directory ends as the one JSON error line
        (workdir / "afile").write_text("")
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "field": TG, "norm": {"kind": "lebesgue", "p": 2}})
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / out)])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("FileExistsError", "NotADirectoryError")

    def test_config_not_utf8_exit_1(self, workdir):
        path = workdir / "c.json"
        path.write_bytes(b'{"grid": "\xff"}')
        res = run_cli(["norm", "--config", str(path), "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigValidationError"
        assert str(path) in error["message"]

    @pytest.mark.parametrize("command, doc", [
        ("serrin", {"trajectory": "traj", "p_t": "inf", "q_x": 2}),
        ("probe", {"trajectory": "traj"}),
        ("perturb", {"grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 4,
                     "drift_trajectory": "traj"}),
    ], ids=["serrin", "probe", "perturb"])
    def test_manifest_not_utf8_exit_1(self, workdir, command, doc):
        # "traj" stands for the stored trajectory whose manifest is not UTF-8
        traj_dir = workdir / "traj"
        save_trajectory(traj_dir, make_heat_trajectory(taylor_green(Grid(2, 16)), [0.0, 0.01]))
        (traj_dir / "manifest.json").write_bytes(b'{"format": "\xff"}')
        doc = {k: str(traj_dir) if v == "traj" else v for k, v in doc.items()}
        cfg = self._write(workdir / "c.json", doc)
        res = run_cli([command, "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigValidationError"
        assert "manifest.json" in error["message"]

    def test_perturb_at_p_1(self, workdir):
        # the second force part is measured in L^{p'} with p' = p/(p-1) = inf at p = 1
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 1,
            "force_part2": TG})
        res = run_cli(["perturb", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        assert "Traceback" not in res.stderr
        doc = json.loads((workdir / "out" / "perturb.json").read_text())
        assert doc["p"] == 1 and 0 < doc["force_norm"] < float("inf")

    def test_perturb_p_below_1_rejected_before_the_solve(self, workdir, monkeypatch):
        def solve(*args):
            raise AssertionError("the perturbed solve started")

        monkeypatch.setattr("critns.solver.evolve_perturbed", solve)
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 0.5})
        res = run_cli(["perturb", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        [line] = res.stderr.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "DomainError"
        assert "1 <= p < 2d+3" in error["message"] and "got 0.5" in error["message"]

    def test_superpose_profile_non_finite_at_t_0_exit_1(self, workdir):
        # the profile's coefficients overflow: its run takes no snapshot
        huge = {"generator": {"type": "random_divfree", "seed": 3, "k_lo": 1, "k_hi": 3,
                              "amplitude": 5e307}}
        cfg = self._write(workdir / "c.json", superpose_doc(
            profiles=[{"field": huge, "scale_cores": SEQ3}]))
        res = run_cli(["superpose", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "DomainError"
        assert "profile 0" in error["message"] and "no snapshot" in error["message"]

    def test_threshold_probe_non_finite_at_t_0(self, workdir):
        # the top member's run goes non-finite at t = 0: a non_finite trip
        # that ended at t = 0, and the search goes on to its bracket
        base = {"generator": {"type": "random_divfree", "seed": 3, "k_lo": 1, "k_hi": 3,
                              "amplitude": 1.0}}
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "base": base, "alpha_lo": 1e-3, "alpha_hi": 1e308,
            "tol": 0.5, "solver": SOLVER})
        res = run_cli(["threshold", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        assert res.stderr == ""
        doc = json.loads((workdir / "out" / "threshold.json").read_text())
        top = [p for p in doc["probes"] if p["alpha"] == 1e308]
        assert top == [{"alpha": 1e308, "status": "NonFinite", "final_time": 0.0,
                        "margin": None, "trip_reason": "non_finite",
                        "max_cfl": None, "cfl_over_1": True}]
        assert doc["relative_width"] <= 0.5

    def test_threshold_cfl_number_past_the_largest_double_is_null(self, workdir):
        # the top probe's linf * dt / h is about 2.5e309: it is flagged and
        # written as null, and the report stays strict JSON
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "base": TG, "alpha_lo": 1e-3, "alpha_hi": 1e300,
            "tol": 0.5, "solver": {"dt": 1e10, "T": 1e10}})
        res = run_cli(["threshold", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        doc = json.loads((workdir / "out" / "threshold.json").read_text())
        [top] = [p for p in doc["probes"] if p["alpha"] == 1e300]
        assert top["status"] == "ResolutionLimit" and top["trip_reason"] == "sup"
        assert top["max_cfl"] is None and top["cfl_over_1"] is True

    def test_threshold_tol_below_double_epsilon_exit_1(self, workdir):
        # no double lies strictly inside a bracket of adjacent doubles, so a
        # tol below epsilon never closed it and the command never ended
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "base": {"generator": {"type": "taylor_green",
                                                               "amplitude": 0.5}},
            "alpha_lo": 0.5, "alpha_hi": 2.0, "tol": 1e-17, "besov_p": 3,
            "solver": dict(SOLVER, blowup_sup_threshold=0.75)})
        res = run_cli(["threshold", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        [line] = res.stderr.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "DomainError" and "2.22e-16" in error["message"]

    def test_superpose_given_remainder_field(self, workdir):
        small = {"generator": {"type": "taylor_green", "amplitude": 0.01}}
        cfg = self._write(workdir / "c.json", superpose_doc(
            remainder={"field": small, "decay": 0.5}, n_values=[0, 1]))
        res = run_cli(["superpose", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0
        assert res.stderr == ""
        rows = json.loads((workdir / "out" / "trend.json").read_text())["rows"]
        assert [row["n"] for row in rows] == [0, 1]
        assert all(row["datum_status"] == "Completed" for row in rows)
        assert rows[0]["remainder_e_norm"] > rows[1]["remainder_e_norm"] > 0

    def test_superpose_given_remainder_field_with_seed_exit_1(self, workdir):
        cfg = self._write(workdir / "c.json", superpose_doc(
            remainder={"field": TG, "seed": 1}))
        res = run_cli(["superpose", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        [line] = res.stderr.strip().splitlines()
        error = json.loads(line)
        assert "['seed'] apply only without a 'field'" in error["message"]

    def test_field_file_on_another_grid_exit_1(self, workdir):
        write_field(workdir / "f.cfd", taylor_green(Grid(2, 32)))
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "field": {"file": str(workdir / "f.cfd")},
            "norm": {"kind": "lebesgue", "p": 2}})
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        [line] = res.stderr.strip().splitlines()
        assert "grid does not match the config grid" in json.loads(line)["message"]
        assert not (workdir / "out" / "norm.json").exists()

    def test_perturb_drift_on_another_grid_exit_1(self, workdir):
        drift = workdir / "drift"
        save_trajectory(drift, make_heat_trajectory(taylor_green(Grid(2, 16)), [0.0, 0.02]))
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 32}, "w0": TG, "solver": SOLVER, "p": 4,
            "drift_trajectory": str(drift)})
        res = run_cli(["perturb", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "GridMismatchError"

    def test_perturb_drift_with_another_component_count_exit_1(self, workdir):
        drift = workdir / "drift"
        grid = Grid(2, 16)
        save_trajectory(drift, make_heat_trajectory(gaussian_bump(grid, sigma=0.5), [0.0, 0.02]))
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "w0": TG, "solver": SOLVER, "p": 4,
            "drift_trajectory": str(drift)})
        res = run_cli(["perturb", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "GridMismatchError"
        assert "1 components" in error["message"] and "w0 has 2" in error["message"]

    def test_perturb_w0_non_finite_at_t_0_exit_1(self, workdir):
        # the datum's coefficients overflow: the w0 run takes no snapshot
        huge = {"generator": {"type": "taylor_green", "amplitude": 5e307}}
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "w0": huge, "solver": SOLVER, "p": 4})
        res = run_cli(["perturb", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "DomainError"
        assert "w0 run went non-finite at t = 0" in error["message"]
        assert "no snapshot" in error["message"]

    def test_missing_file_exit_1(self, workdir):
        res = run_cli(["norm", "--config", str(workdir / "nope.json"),
                       "--out", str(workdir / "out")])
        assert res.returncode == 1

    def test_reproducibility(self, workdir):
        doc = {
            "grid": {"d": 2, "N": 16},
            "u0": {"generator": {"type": "random_divfree", "seed": 9, "k_hi": 3.0,
                                  "amplitude": 0.2}},
            "solver": {"dt": 0.01, "T": 0.03, "snapshot_stride": 1},
        }
        cfg = self._write(workdir / "c.json", doc)
        for name in ("a", "b"):
            res = run_cli(["evolve", "--config", cfg, "--out", str(workdir / name)])
            assert res.returncode == 0
        for snap in sorted((workdir / "a" / "trajectory").iterdir()):
            other = workdir / "b" / "trajectory" / snap.name
            assert snap.read_bytes() == other.read_bytes()
        ma = json.loads((workdir / "a" / "manifest.json").read_text())
        mb = json.loads((workdir / "b" / "manifest.json").read_text())
        for key in ("timestamp", "wall_clock_s"):
            ma.pop(key), mb.pop(key)
        assert ma == mb
