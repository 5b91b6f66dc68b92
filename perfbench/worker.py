"""One workload process: imports, set-up, body and output checks.

Started by run.py, never by hand.  Writes one JSON result file with the raw
and nominal-speed (see speed.py) set-up time, from the parent's spawn to
inputs ready, and body time, from inputs ready to outputs checked; the check
outcomes; and with --spans the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import critns.cli  # noqa: F401  (loads every critns module before tracing)

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    probe = speed.SpeedProbe(wl.contention_exponent)
    result = {"checks": {}, "error": None}
    start = float("inf")

    def to_nominal(a, b):
        if a >= start:
            return probe.nominal(a, b)
        return (b - a) / result.get("setup_pace", 1.0)

    try:
        state = wl.setup(args.seed, args.workdir)
        # CLOCK_MONOTONIC is system-wide, so it compares with the parent's stamp
        ready = time.monotonic()
        result["setup_raw_s"] = ready - args.spawned_at
        result["setup_slowdown"] = speed.current_slowdown()
        result["setup_pace"] = result["setup_slowdown"] ** wl.contention_exponent
        result["setup_s"] = result["setup_raw_s"] / result["setup_pace"]
        if not args.setup_only:
            probe.start()
            start = time.monotonic()
            out = wl.body(state)
            if tracer is not None:
                tracer.enabled = False
            for name, (ok, detail) in wl.check(state, out).items():
                result["checks"][name] = {"ok": bool(ok), "detail": repr(detail)}
            done = time.monotonic()
            result["wall_raw_s"] = done - start
            result["wall_s"] = probe.nominal(start, done)
            result["probe_s"] = probe.probe_time(start, done)
    except Exception:
        result["error"] = traceback.format_exc()
        sys.stderr.write(result["error"])
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    probe.stop()
    # for rescaling the parent's whole-process CPU time; the body's many
    # samples give a steadier factor than set-up's single burst
    if "wall_s" in result:
        result["speed_factor"] = result["wall_s"] / (result["wall_raw_s"] - result["probe_s"])
        result["body_slowdown_median"] = statistics.median(probe.slowdown)
    elif "setup_s" in result:
        result["speed_factor"] = 1.0 / result["setup_pace"]
    if not args.setup_only:
        for name in wl.checks:
            result["checks"].setdefault(name, {"ok": False, "detail": "not reached"})
    if tracer is not None:
        tracer.dump(args.spans)
        result["layers"] = tracing.layer_metrics(tracer.spans, to_nominal)
        result["untraced_functions"] = tracer.missing
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "python": sys.version.split()[0]}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
