"""CFD1 field files, trajectory directories and deterministic JSON artifacts.

CFD1 layout: one ASCII header line

    CFD1 d=<d> N=<N> L=<float> C=<components>\n

followed by C*N^d little-endian float64 values, row-major per axis,
component-major overall.  Readers reject any other magic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigValidationError, InvalidFieldError
from .grid import Grid, RealVectorField
from .solver import Trajectory

CFD1_MAGIC = "CFD1"


def write_field(path, f: RealVectorField) -> None:
    header = f"{CFD1_MAGIC} d={f.grid.d} N={f.grid.N} L={f.grid.L!r} C={f.ncomp}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.data, dtype="<f8").tobytes())


def read_field(path) -> RealVectorField:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        parts = header.split()
        if not parts or parts[0] != CFD1_MAGIC:
            raise InvalidFieldError(f"{path}: not a CFD1 file (header {header!r})")
        try:
            kv = dict(p.split("=", 1) for p in parts[1:])
            d, n, ncomp = int(kv["d"]), int(kv["N"]), int(kv["C"])
            box = float(kv["L"])
        except (KeyError, ValueError) as exc:
            raise InvalidFieldError(f"{path}: malformed CFD1 header {header!r}") from exc
        count = ncomp * n**d
        payload = fh.read(count * 8)
        if len(payload) != count * 8:
            raise InvalidFieldError(
                f"{path}: truncated payload ({len(payload)}/{count * 8} bytes)"
            )
        raw = np.frombuffer(payload, dtype="<f8")
    grid = Grid(d=d, N=n, L=box)
    return RealVectorField(grid, raw.reshape((ncomp,) + grid.shape).copy())


def dump_json(path, obj) -> None:
    """Deterministic strict JSON (RFC 8259: no Infinity or NaN): sorted keys,
    no trailing whitespace drift."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_trajectory(dirpath, traj, extra_manifest: dict | None = None) -> None:
    """Write manifest.json plus snap_<index>.cfd files for every snapshot."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for i, snap in enumerate(traj.snapshots):
        write_field(dirpath / f"snap_{i}.cfd", snap)
    manifest = {
        "format": "critns-trajectory",
        "grid": {"d": traj.grid.d, "N": traj.grid.N, "L": traj.grid.L},
        "times": [float(t) for t in traj.times],
        "status": traj.status,
        "records": {k: [float(v) for v in vals] for k, vals in traj.records.items()},
        "config": traj.config_echo,
        "snapshots": [f"snap_{i}.cfd" for i in range(len(traj.snapshots))],
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    dump_json(dirpath / "manifest.json", manifest)


def _numbers(value) -> bool:
    """A JSON list of numbers (not booleans) that convert to float."""
    return isinstance(value, list) and all(
        isinstance(x, float) or (type(x) is int and abs(x) <= sys.float_info.max) for x in value)


def load_trajectory(dirpath):
    dirpath = Path(dirpath)
    manifest = load_json(dirpath / "manifest.json")
    if not isinstance(manifest, dict) or manifest.get("format") != "critns-trajectory":
        raise ConfigValidationError(f"{dirpath}: not a trajectory directory")
    times, names = manifest.get("times"), manifest.get("snapshots")
    records = manifest.get("records", {})
    if (not _numbers(times) or not isinstance(records, dict)
            or not all(map(_numbers, records.values()))
            or not isinstance(names, list) or not names
            or not all(isinstance(name, str) and name.isprintable() for name in names)):
        raise ConfigValidationError(f"{dirpath}: malformed manifest (times and records must be "
                                    "number lists, snapshots a non-empty list of file names)")
    snaps = [read_field(dirpath / name) for name in names]
    grid = snaps[0].grid
    # one Grid for all snapshots, so the symbols cached on it are computed once
    for i, snap in enumerate(snaps):
        if not grid.compatible(snap.grid):
            raise InvalidFieldError(f"{dirpath}: {names[i]} is on another grid")
        snaps[i] = RealVectorField(grid, snap.data)
    return Trajectory(
        grid=grid,
        times=np.asarray(times, dtype=float),
        snapshots=snaps,
        records={k: np.asarray(v, dtype=float) for k, v in records.items()},
        status=manifest["status"],
        config_echo=manifest.get("config", {}),
    )


def package_versions() -> dict:
    import platform

    import numpy
    import scipy

    from . import __version__

    return {
        "critns": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
