"""Span tracer that times calls into each critns layer from outside the package.

`Tracer.install` replaces every listed layer function with a wrapper that
records one span per call: layer, function, start, end, parent span and a few
attributes (bytes moved, steps taken).  Modules bind layer functions by name
(`from .grid import forward_transform`), so the wrapper is bound in place of
the original in *every* `critns.*` namespace that holds it; wrapping only the
defining module would silently miss those calls.

Spans stay in memory; `dump` writes them out once at the end of the run and
`layer_metrics` reduces them to the per-layer metrics of BENCHMARK.json.
Span times use time.monotonic, the clock of the speed probe (speed.py).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

# layer -> functions whose calls are that layer's spans
LAYERS = {
    "grid.transform": ("critns.grid", ["forward_transform", "inverse_transform"]),
    "grid.leray": ("critns.grid", ["leray_project", "_leray_coefficients"]),
    "grid.multiplier": ("critns.grid", ["apply_multiplier", "heat_semigroup"]),
    "solver.evolve": ("critns.solver", ["_integrate"]),
    "solver.flux": ("critns.solver", ["_div_flux_hat", "_div_pair_flux_hat",
                                      "nonlinear_term", "q_bilinear"]),
    "lp.paraproduct": ("critns.lp", ["paraproduct"]),
    "lp.decompose": ("critns.lp", ["decompose"]),
    "norms.band_profile": ("critns.norms", ["band_profile"]),
    "norms.lebesgue": ("critns.norms", ["lebesgue_norm"]),
    "norms.heat": ("critns.norms", ["heat_besov_norm", "_heat_kernel_lp_curve",
                                    "heat_besov_spacetime_norm"]),
    "norms.spacetime": ("critns.norms", ["band_lp_matrix", "e_norm", "chemin_lerner_norm"]),
    "scaling.apply_lambda": ("critns.scaling", ["apply_lambda"]),
    "scaling.exact": ("critns.scaling", ["_roll_translation", "_gather_contraction"]),
    "scaling.resample": ("critns.scaling", ["_spectral_resample"]),
    "profiles.source_term": ("critns.profiles", ["source_term"]),
    "profiles.superpose": ("critns.profiles", ["synthesize_datum", "superpose_evolution",
                                               "remainder"]),
    "profiles.residual": ("critns.profiles", ["remainder_equation_residual",
                                              "ns_equation_residual"]),
    "criticality.threshold": ("critns.criticality", ["threshold_bisection"]),
    "criticality.sup_norm": ("critns.criticality", ["sup_critical_norm"]),
    "io.write": ("critns.io", ["save_trajectory", "write_field", "dump_json"]),
    "io.read": ("critns.io", ["load_trajectory", "read_field", "load_json"]),
    "fields.gen": ("critns.fields", ["taylor_green", "single_mode", "gaussian_bump",
                                     "gabor_bump", "band_noise", "random_divfree_field",
                                     "random_smooth_field", "curl_field",
                                     "localized_divfree_bump"]),
    "cli.main": ("critns.cli", ["main"]),
}

TRIPPED = ("ResolutionLimit", "NonFinite")


def _transform_attrs(args, kwargs, result):
    # bytes read + written; flops by the 5 n log2 n convention, counted on the
    # complex side so a half-spectrum (real-to-complex) layout reads half
    data, grid = args[0], args[1]
    spectral = result if result.dtype.kind == "c" else data
    n = grid.N ** grid.d
    return {"bytes": data.nbytes + result.nbytes,
            "flops": 5.0 * spectral.size * math.log2(n)}


def _integrate_attrs(args, kwargs, result):
    # the step loop records one entry per visited step, the last of which
    # does not advance
    return {"steps": max(len(result.records["t"]) - 1, 0), "status": result.status}


def _file_attrs(args, kwargs, result):
    # the path is the first argument of every single-file read and write
    return {"bytes": os.path.getsize(args[0])}


ATTRS = {
    "forward_transform": _transform_attrs,
    "inverse_transform": _transform_attrs,
    "_integrate": _integrate_attrs,
    "read_field": _file_attrs,
    "load_json": _file_attrs,
    "write_field": _file_attrs,
    "dump_json": _file_attrs,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []  # [layer, function, start, end, parent, attrs]
        self.stack = []
        self.enabled = True
        self.missing = []

    def _wrap(self, layer, fn):
        name = fn.__name__
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function and rebind it in all critns namespaces."""
        replacements = {}
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                replacements[id(fn)] = (fn, self._wrap(layer, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "critns" and not modname.startswith("critns."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "fields": ["layer", "function", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, duration):
    """Per-layer metrics from a span list (inclusive times unless named self_s).

    `duration(start, end)` turns a span's interval into the time reported,
    which lets the caller rescale it to nominal machine speed.
    """
    n = len(spans)
    dur = [duration(s[2], s[3]) for s in spans]
    child_time = [0.0] * n
    above = [frozenset()] * n  # layers of all ancestors; parents precede children
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child_time[s[4]] += dur[i]
            above[i] = above[s[4]] | {spans[s[4]][0]}

    def outer(layers):
        # spans of these layers not nested in another span of the same layers
        return [i for i, s in enumerate(spans)
                if s[0] in layers and above[i].isdisjoint(layers)]

    def inclusive(*layers):
        return sum(dur[i] for i in outer(layers))

    def calls(*layers):
        return len(outer(layers))

    def attr_sum(key, *layers):
        return sum(s[5][key] for s in spans if s[0] in layers and s[5] and key in s[5])

    def self_time(prefix):
        return sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                   if s[0].startswith(prefix))

    evolves = outer(("solver.evolve",))
    run = {i: spans[i][5] or {"steps": 0, "status": "raised"} for i in evolves}
    steps = sum(r["steps"] for r in run.values())
    evolve_s = inclusive("solver.evolve")
    probe_steps = tripped_steps = probes = tripped = 0
    for i in evolves:
        if "criticality.threshold" in above[i]:
            probes += 1
            probe_steps += run[i]["steps"]
            if run[i]["status"] in TRIPPED:
                tripped += 1
                tripped_steps += run[i]["steps"]
    lam_calls = calls("scaling.apply_lambda")
    return {
        "grid.transform_calls": calls("grid.transform"),
        "grid.transform_s": inclusive("grid.transform"),
        "grid.transform_bytes": attr_sum("bytes", "grid.transform"),
        "grid.transform_flops": attr_sum("flops", "grid.transform"),
        "grid.leray_s": inclusive("grid.leray"),
        "grid.multiplier_s": inclusive("grid.multiplier"),
        "solver.evolve_calls": len(evolves),
        "solver.steps": steps,
        "solver.step_ms": 1e3 * evolve_s / steps if steps else 0.0,
        "solver.self_s": self_time("solver."),
        "solver.flux_calls": calls("solver.flux"),
        "solver.flux_s": inclusive("solver.flux"),
        "lp.paraproduct_calls": calls("lp.paraproduct"),
        "lp.paraproduct_s": inclusive("lp.paraproduct"),
        "lp.decompose_s": inclusive("lp.decompose"),
        "norms.band_profile_calls": calls("norms.band_profile"),
        "norms.band_profile_s": inclusive("norms.band_profile"),
        "norms.lebesgue_s": inclusive("norms.lebesgue"),
        "norms.heat_s": inclusive("norms.heat"),
        "norms.spacetime_s": inclusive("norms.spacetime"),
        "scaling.apply_lambda_calls": lam_calls,
        "scaling.apply_lambda_s": inclusive("scaling.apply_lambda"),
        "scaling.exact_frac": calls("scaling.exact") / lam_calls if lam_calls else 0.0,
        "profiles.source_term_calls": calls("profiles.source_term"),
        "profiles.source_term_s": inclusive("profiles.source_term"),
        "profiles.superpose_s": inclusive("profiles.superpose"),
        "profiles.residual_s": inclusive("profiles.residual"),
        "criticality.probes": probes,
        "criticality.tripped_probes": tripped,
        "criticality.wasted_step_frac": tripped_steps / probe_steps if probe_steps else 0.0,
        "criticality.sup_norm_s": inclusive("criticality.sup_norm"),
        "io.write_bytes": attr_sum("bytes", "io.write"),
        "io.write_s": inclusive("io.write"),
        "io.read_bytes": attr_sum("bytes", "io.read"),
        "io.read_s": inclusive("io.read"),
        "fields.gen_s": inclusive("fields.gen"),
        "cli.self_s": self_time("cli."),
    }
