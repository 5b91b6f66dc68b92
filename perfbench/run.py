"""critns benchmark: run one workload, or compare two result sets.

    python3 perfbench/run.py --workload evolve64 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl

Run from the repository root.  Each body runs in a fresh worker process
(perfbench/worker.py) with one FFT worker and one BLAS thread; this process
takes the worker's CPU time and peak RSS from wait4.  Times are reported at
nominal machine speed (see speed.py); the raw times are kept in the record.
Bodies repeat until --seconds of body time are measured; set-up is measured
in extra set-up-only processes as well and reported as a median.  With
--trace 1 one more, traced body gives the per-layer metrics.

The last stdout line is the result; the line before it is the environment
record.  Both are also appended to perfbench/runs/results.jsonl, which is
what --compare reads.  Machine settings are left alone (no pinning, no cache
drop), so run-to-run noise is reported, not removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ("evolve64", "threshold32", "superpose32", "analyze64")
SETUP_SAMPLES = 7  # set-up measurements per untraced run, body processes included
RUN_BUDGET_S = 150.0  # a run must exit within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}  # _spectral_resample calls tensordot


def spawn(workload, seed, deadline, setup_only=False, spans=None):
    """Run one worker to completion; returns its result plus wait4 usage."""
    os.makedirs(RUNS, exist_ok=True)
    tag = f"{workload}-{os.getpid()}"
    result_path = os.path.join(RUNS, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", os.path.join(RUNS, f"work-{tag}"),
           "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **THREAD_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno())
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - spawned
    try:
        with open(result_path) as fh:
            res = json.load(fh)
        os.remove(result_path)
    except (OSError, ValueError):
        res = {"checks": {}, "error": f"worker exited with {proc.returncode}, no result"}
    cpu_raw = usage.ru_utime + usage.ru_stime
    res.update(exit=proc.returncode, elapsed_s=elapsed, cpu_raw_s=cpu_raw,
               peak_rss_mib=usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB
    # CPU time at nominal speed, without the speed probe's own CPU time
    res["cpu_s"] = (cpu_raw - res.get("probe_s", 0.0)) * res.get("speed_factor", 1.0)
    if proc.returncode != 0 and not res.get("error"):
        res["error"] = f"worker exited with {proc.returncode}"
    return res


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    bodies, setups = [], []
    while True:
        bodies.append(spawn(workload, seed, deadline))
        measured = sum(b.get("wall_s", b["elapsed_s"]) for b in bodies)
        longest = max(b["elapsed_s"] for b in bodies)
        # the traced body runs longer than an untraced one; leave it room
        reserve = longest * (2.5 if trace else 1.2)
        if measured >= seconds or time.monotonic() + reserve > deadline:
            break
    if trace:
        spans = os.path.join(RUNS, f"spans-{workload}.json")
        traced = spawn(workload, seed, deadline, spans=spans)
        procs = bodies + [traced]
    else:
        while len(setups) + len(bodies) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, deadline, setup_only=True))
        procs = bodies + setups

    attempted = failed = 0
    for p in bodies + ([traced] if trace else []):
        attempted += len(p["checks"])
        failed += sum(not c["ok"] for c in p["checks"].values())
    for p in setups:
        attempted += 1
        failed += bool(p["error"])
    if not attempted:
        attempted = failed = 1

    def median(key, ps):
        return statistics.median(p.get(key, p["elapsed_s"]) for p in ps)

    errors = [p["error"] for p in procs if p.get("error")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    if trace:
        values = dict(traced.get("layers") or {})
        values["trace.overhead_frac"] = (traced.get("wall_s", traced["elapsed_s"])
                                         / median("wall_s", bodies) - 1.0)
    else:
        values = {"wall_s": median("wall_s", bodies), "cpu_s": median("cpu_s", bodies),
                  "setup_s": median("setup_s", bodies + setups),
                  "peak_rss_mib": median("peak_rss_mib", bodies)}
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing and not errors:
        errors.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "processes": [{k: v for k, v in p.items() if k not in ("layers", "error")}
                      for p in procs],
        "errors": errors,
        "versions": procs[0].get("versions"),
        "result": {"correct": failed == 0 and not errors, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE; Python has no names for them
_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE = 191, 194


def _sysconf(key):
    try:
        return os.sysconf(key) or None
    except (ValueError, OSError):
        return None


def environment(versions):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": _sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_cache_bytes": _sysconf(_SC_LEVEL3_CACHE_SIZE),
        "versions": versions,
        "fft_workers": 1,
        "worker_thread_env": THREAD_ENV,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "machine_settings": "unchanged: no CPU pinning, no cache drop, no huge pages; "
                            "noise is reported, not removed",
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(path_a, path_b):
    """Per workload and metric: each side's median and quartiles, and B/A."""
    sides = []
    for path in (path_a, path_b):
        groups = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    groups.setdefault((rec["workload"], name), []).append(m["value"])
        sides.append(groups)
    keys = sorted(set(sides[0]) & set(sides[1]))
    print(f"{'workload':<12} {'metric':<30} {'n_a':>3} {'median_a':>12} {'q1_a':>12} "
          f"{'q3_a':>12} {'n_b':>3} {'median_b':>12} {'q1_b':>12} {'q3_b':>12} {'b/a':>8}")
    for wl, name in keys:
        a, b = sides[0][(wl, name)], sides[1][(wl, name)]
        qa, qb = _quartiles(a), _quartiles(b)
        ratio = f"{qb[1] / qa[1]:8.3f}" if qa[1] else "     n/a"
        print(f"{wl:<12} {name:<30} {len(a):>3} {qa[1]:>12.5g} {qa[0]:>12.5g} {qa[2]:>12.5g} "
              f"{len(b):>3} {qb[1]:>12.5g} {qb[0]:>12.5g} {qb[2]:>12.5g} {ratio}")
    for label, side in (("only in A", sides[0]), ("only in B", sides[1])):
        extra = sorted(set(side) - set(keys))
        if extra:
            print(f"{label}: " + ", ".join(f"{w}/{m}" for w, m in extra))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="two results.jsonl files to compare")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "critns", "__init__.py")):
        sys.stderr.write("perfbench: src/critns not found; run from a repository checkout\n")
        return 2
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    rec["environment"] = environment(rec.pop("versions"))
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(rec) + "\n")
    for err in rec["errors"]:
        sys.stderr.write(err + "\n")
    print(json.dumps({"environment": rec["environment"], "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
