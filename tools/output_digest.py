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


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="a workload to digest (repeatable); all of them by default")
    args = ap.parse_args(argv)
    for name in args.workload or list(workloads.WORKLOADS):
        print(f"{name} {workload_digest(workloads.WORKLOADS[name], args.seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
