"""CFD1 field files, trajectory directories and deterministic JSON artifacts.

CFD1 layout: one ASCII header line

    CFD1 d=<d> N=<N> L=<float> C=<components>\n

followed by C*N^d little-endian float64 values, row-major per axis,
component-major overall.  Readers reject any other magic.  A field is written
from its own array and read straight into the array it returns, so neither
direction holds a second copy of the payload.

A trajectory directory holds snap_<i>.cfd per snapshot plus manifest.json,
written by one `TrajectoryWriter`, the snapshots as they come and the
manifest last: a directory without a manifest is an incomplete run, which
`load_trajectory` rejects.  `cli evolve` streams its run through the writer
and holds one snapshot at a time; `save_trajectory` writes a whole
`Trajectory` through it.

`load_trajectory` checks the manifest and every snapshot file's header and
size, and reads no payload: the `Trajectory` it returns holds a
`grid.DerivedSnapshots` sequence that reads snap_<i>.cfd each time
snapshot i is indexed or iterated, so a reader holds the snapshots it is
working on and no others.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigValidationError, DomainError, InvalidFieldError
from .grid import DerivedSnapshots, Grid, RealVectorField
from .solver import Trajectory

CFD1_MAGIC = "CFD1"


def write_field(path, f: RealVectorField) -> None:
    header = f"{CFD1_MAGIC} d={f.grid.d} N={f.grid.N} L={f.grid.L!r} C={f.ncomp}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.data, dtype="<f8").data)


def _read_header(fh, path) -> tuple[Grid, int]:
    """(grid, components) from the header of a CFD1 file open at its start,
    leaving the file at its payload, once the file is known to hold the
    payload the header claims."""
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
    if ncomp < 1:
        raise InvalidFieldError(f"{path}: CFD1 header {header!r} claims {ncomp} components")
    grid = Grid(d=d, N=n, L=box)
    # checked before reading, so a header that claims more than the file
    # holds never asks for an impossible allocation
    size = ncomp * n**d * 8
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= size <= left:
        raise InvalidFieldError(f"{path}: header claims {size} payload bytes, "
                                f"the file holds {left}")
    return grid, ncomp


def read_field(path) -> RealVectorField:
    with open(path, "rb") as fh:
        grid, ncomp = _read_header(fh, path)
        data = np.empty((ncomp,) + grid.shape, dtype="<f8")
        got = fh.readinto(data.data.cast("B"))
        if got != data.nbytes:  # the file shrank after the check
            raise InvalidFieldError(f"{path}: read {got} of {data.nbytes} payload bytes")
    return RealVectorField(grid, data)


def dump_json(path, obj) -> None:
    """Deterministic strict JSON (RFC 8259: no Infinity or NaN): sorted keys,
    no trailing whitespace drift."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a result that overflowed to inf; no file is written
        raise DomainError(f"{path}: result not representable in strict JSON ({exc})") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path):
    """The JSON document in a UTF-8 text file (RFC 8259)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigValidationError(f"{path}: not UTF-8 text ({exc})") from exc


class TrajectoryWriter:
    """Writes a trajectory directory one snapshot at a time: `add` writes the
    next snap_<i>.cfd, `finish` writes manifest.json last.

    The directory is made, and a manifest an earlier run left there removed,
    when the first snapshot comes, so a run that raises before it leaves
    nothing and one that raises after it leaves no manifest.
    """

    def __init__(self, dirpath):
        self.dirpath = Path(dirpath)
        self.names = []

    def add(self, snap: RealVectorField) -> None:
        if not self.names:
            self.dirpath.mkdir(parents=True, exist_ok=True)
            (self.dirpath / "manifest.json").unlink(missing_ok=True)
        name = f"snap_{len(self.names)}.cfd"
        write_field(self.dirpath / name, snap)
        self.names.append(name)

    def finish(self, run) -> None:
        """The manifest of run (a `Trajectory` or a `solver.RunLog`), whose
        snapshots are the ones added."""
        manifest = {
            "format": "critns-trajectory",
            "grid": {"d": run.grid.d, "N": run.grid.N, "L": run.grid.L},
            "times": [float(t) for t in run.times],
            "status": run.status,
            "records": {k: [float(v) for v in vals] for k, vals in run.records.items()},
            "config": run.config_echo,
            "snapshots": self.names,
        }
        self.dirpath.mkdir(parents=True, exist_ok=True)
        dump_json(self.dirpath / "manifest.json", manifest)


def save_trajectory(dirpath, traj) -> None:
    """Write snap_<index>.cfd for every snapshot, then manifest.json.
    Snapshots are read by index, so none outlives its write."""
    writer = TrajectoryWriter(dirpath)
    for i in range(len(traj.snapshots)):
        writer.add(traj.snapshots[i])
    writer.finish(traj)


def _read_snapshot(path, grid: Grid, ncomp: int) -> RealVectorField:
    """The field in path, on grid (one Grid for all snapshots of a loaded
    trajectory, so the spectral arrays it caches are built once).  A file
    that no longer holds the field its header gave at load raises
    `InvalidFieldError`; one that is gone, `FileNotFoundError`."""
    snap = read_field(path)
    if not (grid.compatible(snap.grid) and snap.ncomp == ncomp):
        raise InvalidFieldError(f"{path}: changed after its trajectory was loaded")
    return RealVectorField(grid, snap.data)


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
    records, status = manifest.get("records", {}), manifest.get("status")
    if (not _numbers(times) or not isinstance(records, dict)
            or not all(map(_numbers, records.values()))
            or not isinstance(names, list) or not names
            or not all(isinstance(name, str) and name.isprintable() for name in names)
            or not isinstance(status, str)):
        raise ConfigValidationError(f"{dirpath}: malformed manifest (times and records must be "
                                    "number lists, snapshots a non-empty list of file names, "
                                    "status a string)")
    # every header is checked now, every payload read when its snapshot is
    paths = [dirpath / name for name in names]
    headers = []
    for path in paths:
        with open(path, "rb") as fh:
            headers.append(_read_header(fh, path))
    grid = headers[0][0]
    for name, (other, _) in zip(names, headers):
        if not grid.compatible(other):
            raise InvalidFieldError(f"{dirpath}: {name} is on another grid")
    ncomps = [ncomp for _, ncomp in headers]
    return Trajectory(
        grid=grid,
        times=np.asarray(times, dtype=float),
        snapshots=DerivedSnapshots(len(paths),
                                   lambda i: _read_snapshot(paths[i], grid, ncomps[i])),
        records={k: np.asarray(v, dtype=float) for k, v in records.items()},
        status=status,
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
