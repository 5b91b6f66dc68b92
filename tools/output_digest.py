"""One sha256 per benchmark workload over everything its body produces.

    python3 tools/output_digest.py [--seed 0] [--workload evolve64 ...]

Run from the repository root.  Each workload of perfbench/workloads.py runs
its set-up and its body at the seed in a fresh temporary directory, in this
process.  The digest covers the body's result and every file left in the
directory: arrays by dtype, shape and bytes, floats by repr (bit for bit),
reports and dataclasses field by field, on-read snapshot sequences snapshot
by snapshot, JSON files by their parsed contents.  The keys `timestamp` and
`wall_clock_s` are left out, and the temporary directory's path is replaced
by a fixed name wherever a string holds it.  Two trees whose digests agree
produced the same bits for every workload.

One more case, `forced24`, is not a benchmark workload: the forced path that
no workload runs.  It digests a 24^3 `evolve_perturbed` run with a drift (a
solver run keeping every other step, so that half the stage times fall
between its frames and are interpolated) and a source, every snapshot and
record, and both forms of `ns_equation_residual`: the plain one of the
drift and the forced one of the perturbed run.

A last case, `frames16`, is not a benchmark workload either: the
remainder-equation paths that no workload digests.  On the benchmark's
two-profile system at 16^3 (`superpose32`'s system, evolved as there) it
digests, at n = 0, 1 and 2, `drift_norm`, `source_norms` and
`remainder_equation_residual`, and the report of `verify_perturbation_bound`
with both force parts (the n = 1 remainder as datum, the first profile's run
as drift, and the split source at t = 0 as force parts, each damped by
cos t).  It prints every value it digests too, one per line after its
digest, so that trees that differ only in the last bits can be compared by
relative difference.  It takes a few seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
UNTIMED = {"timestamp", "wall_clock_s"}
FORCED = "forced24"
FRAMES = "frames16"


class Digest:
    """A sha256 fed with a canonical byte form of Python and numpy values."""

    def __init__(self, workdir: str):
        self.hash = hashlib.sha256()
        self.workdir = workdir

    def tag(self, *parts) -> None:
        self.hash.update(("|".join(map(str, parts)) + "\n").encode())

    def feed(self, obj) -> None:
        if isinstance(obj, np.ndarray):
            self.tag("array", obj.dtype.str, obj.shape)
            self.hash.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, str):
            self.tag("str", obj.replace(self.workdir, "<workdir>"))
        elif obj is None or isinstance(obj, (bool, int, float, complex, np.generic)):
            self.tag(type(obj).__name__, repr(obj))
        elif isinstance(obj, dict):
            self.tag("dict", len(obj))
            for key in sorted(obj, key=repr):
                if key not in UNTIMED:
                    self.feed(key)
                    self.feed(obj[key])
        elif dataclasses.is_dataclass(obj):
            self.tag("dataclass", type(obj).__qualname__)
            self.feed({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
        elif isinstance(obj, (list, tuple, Sequence)):
            self.tag("sequence", len(obj))
            for item in obj:
                self.feed(item)
        else:
            raise TypeError(f"no digest form for {type(obj).__qualname__}")

    def feed_files(self, root: Path) -> None:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            self.tag("file", path.relative_to(root).as_posix())
            if path.suffix == ".json":
                self.feed(json.loads(path.read_text()))
            else:
                self.hash.update(path.read_bytes())


def workload_digest(workload, seed: int) -> str:
    with tempfile.TemporaryDirectory() as workdir:
        digest = Digest(workdir)
        digest.feed(workload.body(workload.setup(seed, workdir)))
        digest.feed_files(Path(workdir))
        return digest.hash.hexdigest()


def forced_digest(seed: int) -> str:
    """The forced24 case: a perturbed run with a drift and a source."""
    from critns import Grid
    from critns.fields import random_divfree_field
    from critns.grid import _leray_coefficients, forward_transform
    from critns.profiles import ns_equation_residual
    from critns.solver import (PerturbationProblem, SolverConfig, dealias_box, evolve,
                               evolve_perturbed)

    grid = Grid(3, 24)
    box = dealias_box(grid)
    cfg = SolverConfig(dt=5e-3, T=0.05)
    drift = evolve(random_divfree_field(grid, seed=seed + 1, k_hi=3.0, amplitude=0.5),
                   dataclasses.replace(cfg, snapshot_stride=2))
    g = random_divfree_field(grid, seed=seed + 2, k_hi=4.0, amplitude=0.3)

    def source(t):
        return g * np.cos(t)

    prob = PerturbationProblem(random_divfree_field(grid, seed=seed, k_hi=3.0, amplitude=0.4),
                               drift=drift, force_parts=(source, None))
    run = evolve_perturbed(prob, cfg)

    def forcing(t):
        coeff = forward_transform(source(t).data, grid, box.extent) * box.mask
        return drift.at(t), _leray_coefficients(coeff, box)

    digest = Digest("<workdir>")  # no directory: its name replaces only itself
    digest.feed(run)
    digest.feed([ns_equation_residual(drift), ns_equation_residual(run, forcing)])
    return digest.hash.hexdigest()


def frames_values(seed: int) -> dict:
    """The frames16 case's values, by name."""
    import workloads
    from critns import Grid
    from critns.profiles import (drift_norm, evolve_system, remainder,
                                 remainder_equation_residual, source_norms, source_term,
                                 synthesize_datum)
    from critns.solver import (PerturbationProblem, SolverConfig, evolve,
                               verify_perturbation_bound)

    system = workloads.shipped_two_profile_system(Grid(3, 16), seed)
    system.validate()
    cfg = SolverConfig(dt=2e-3, T=0.08, snapshot_stride=4)
    ev = evolve_system(system, cfg, [0, 1, 2])
    values = {}
    for n in (0, 1, 2):
        r = remainder(evolve(synthesize_datum(system, n), cfg), ev, system, n)
        values[f"drift_norm[{n}]"] = drift_norm(ev, system, n, cfg.T, 4.0, n_samples=5)
        for key, value in source_norms(ev, system, n, cfg.T, 4.0, n_samples=5).items():
            values[f"source_norms[{n}].{key}"] = value
        values[f"residual[{n}]"] = remainder_equation_residual(r, ev, system, n)
    part1, part2 = source_term(ev, system, 1, 0.0)
    prob = PerturbationProblem(system.remainder_at(1), drift=ev.trajectories[0],
                               force_parts=(lambda t: part1 * np.cos(t),
                                            lambda t: part2 * np.cos(t)))
    report = verify_perturbation_bound(prob, cfg, 4.0)
    values.update({f"bound.{key}": value for key, value in report.to_dict().items()})
    return values


def frames_digest(seed: int) -> str:
    """The frames16 case: its digest, then each value on a line of its own."""
    values = frames_values(seed)
    digest = Digest("<workdir>")
    digest.feed(values)
    return "\n".join([digest.hash.hexdigest(),
                      *(f"  {key} {value!r}" for key, value in values.items())])


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    cases = {FORCED: forced_digest, FRAMES: frames_digest}
    ap.add_argument("--workload", action="append", choices=[*sorted(workloads.WORKLOADS), *cases],
                    help="a workload, or the forced24 or frames16 case, to digest "
                         "(repeatable); all of them by default")
    args = ap.parse_args(argv)
    for name in args.workload or [*workloads.WORKLOADS, *cases]:
        value = (cases[name](args.seed) if name in cases
                 else workload_digest(workloads.WORKLOADS[name], args.seed))
        print(f"{name} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
