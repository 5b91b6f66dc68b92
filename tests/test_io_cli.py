"""CFD1 field files, trajectory directories and the CLI surface."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from critns import Grid, cli
from critns.cli import parse_grid, parse_solver
from critns.errors import InvalidFieldError
from critns.fields import random_divfree_field, taylor_green
from critns.io import load_trajectory, read_field, save_trajectory, write_field
from critns.solver import SolverConfig, evolve, make_heat_trajectory


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

    def test_manifest_contents(self, tmp_path, grid3):
        u0 = random_divfree_field(grid3, seed=4, k_hi=3.0, amplitude=0.1)
        traj = evolve(u0, SolverConfig(dt=0.01, T=0.03))
        save_trajectory(tmp_path / "traj", traj)
        manifest = json.loads((tmp_path / "traj" / "manifest.json").read_text())
        assert manifest["status"] == "Completed"
        assert manifest["config"]["dt"] == 0.01
        assert "l2" in manifest["records"]


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "critns.cli", *args],
        capture_output=True, text=True,
    )


TG = {"generator": {"type": "taylor_green"}}
SEQ3 = [{"lambda": 1, "x0": [0, 0]}] * 3
SOLVER = {"dt": 0.01, "T": 0.02}


def superpose_doc(**changes):
    doc = {"grid": {"d": 2, "N": 16}, "profiles": [{"field": TG, "scale_cores": SEQ3}],
           "n_values": [0], "solver": SOLVER, "p": 3}
    doc.update(changes)
    return doc


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
            "grid-L-infinity", "solver-dt-infinity", "solver-dt-overflow", "norm-p-nan",
            "norm-q-minus-infinity", "superpose-p-infinity", "norm-seed-unused",
            "lebesgue-s-string", "perturb-force-zero", "perturb-force-empty-object",
            "perturb-drift-empty-string", "norm-p-missing", "besov-s-missing"])
    def test_invalid_document_json_error(self, workdir, command, doc):
        cfg = self._write(workdir / "c.json", doc)
        res = run_cli([command, "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 1
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("ConfigValidationError", "DomainError")

    def test_infinite_besov_q_accepted(self, workdir):
        cfg = self._write(workdir / "c.json", {
            "grid": {"d": 2, "N": 16}, "field": TG,
            "norm": {"kind": "besov", "p": 3, "s": 0.0, "q": float("inf")},
        })
        res = run_cli(["norm", "--config", cfg, "--out", str(workdir / "out")])
        assert res.returncode == 0, res.stderr
        report = json.loads((workdir / "out" / "norm.json").read_text())
        assert report["parameters"]["q"] == "inf" and np.isfinite(report["value"])

    @pytest.mark.parametrize("command", ["serrin", "probe"])
    @pytest.mark.parametrize("change", [
        lambda m: [],
        lambda m: dict(m, times="abc"),
        lambda m: dict(m, times=[0.0, True]),
        lambda m: dict(m, snapshots=[]),
        lambda m: dict(m, snapshots=[5, 6]),
        lambda m: dict(m, records=[1]),
    ], ids=["not-object", "times-string", "times-boolean", "snapshots-empty",
            "snapshots-not-names", "records-list"])
    def test_malformed_manifest_json_error(self, workdir, command, change):
        traj_dir = workdir / "traj"
        save_trajectory(traj_dir, make_heat_trajectory(taylor_green(Grid(2, 16)), [0.0, 0.01]))
        manifest = json.loads((traj_dir / "manifest.json").read_text())
        (traj_dir / "manifest.json").write_text(json.dumps(change(manifest)))
        doc = {"trajectory": str(traj_dir)}
        if command == "serrin":
            doc.update(p_t="inf", q_x=2)
        cfg = self._write(workdir / "c.json", doc)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", cfg, "--out", str(workdir / "out")])
        assert code == 1
        assert json.loads(stderr.getvalue())["error"] == "ConfigValidationError"

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
                assert words[0] == "critns" and cli.main(words[1:]) == 0
        serrin = json.loads(Path("out/serrin1/serrin.json").read_text())
        assert np.isfinite(serrin["value"])

    def test_integral_float_accepted_as_int(self):
        grid = parse_grid({"d": 2.0, "N": 16.0})
        assert (grid.d, grid.N) == (2, 16) and type(grid.N) is int

    def test_solver_accepts_tail_octave_shift(self):
        cfg = parse_solver({"dt": 0.01, "T": 0.1, "tail_octave_shift": 1})
        assert cfg.tail_octave_shift == 1

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
        assert cli.main(["norm", "--config", cfg, "--out", str(workdir / "out"),
                         "--threads", str(n)]) == 0
        assert seen == [n]
        assert scipy.fft.get_workers() == 1

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
