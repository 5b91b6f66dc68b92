"""Command-line surface: every run is driven by a JSON config document and
writes JSON + CFD1 artifacts plus a manifest into the output directory.

Subcommands: norm, lp, evolve, superpose, ortho, perturb, threshold, serrin,
probe.  Each document, and each object inside it, is read once by `_read`
against a schema that states every key once with its parser: unknown keys
are rejected, missing required keys are named, and an absent optional key is
left out of the call it feeds, so the library (`Grid`, `SolverConfig`,
`fields.*`, `default_remainder`, `make_test_battery`) supplies its default.
A field source is a CFD1 path string, {"file": path} or
{"generator": {"type": ..., ...}}; random generators require a seed.
Exit codes: 0 success, 1 validation failure (machine-readable JSON on stderr),
2 numerical NonFinite.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import scipy.fft

from . import fields as field_gen
from .criticality import (
    DatumFamily,
    make_test_battery,
    threshold_bisection,
    weak_convergence_probe,
)
from .errors import ConfigValidationError, CritNSError
from .grid import Grid, RealVectorField
from .io import (
    dump_json,
    load_json,
    load_trajectory,
    package_versions,
    read_field,
    save_trajectory,
    write_field,
)
from .lp import band_range, decompose
from .norms import (
    BesovIndex,
    besov_norm_detailed,
    e_norm,
    heat_besov_norm,
    lebesgue_norm,
    norm_report,
    serrin_norm,
)
from .profiles import (
    ProfileSystem,
    RemainderRule,
    ScaleCoreSequence,
    default_remainder,
    evolve_system,
    remainder,
    synthesize_datum,
)
from .scaling import ScaleCore, cross_term, norm_additivity_defect, orthogonality_check
from .solver import (
    NON_FINITE,
    PerturbationProblem,
    SolverConfig,
    evolve,
    verify_perturbation_bound,
)


# Parsers: parse(value, where, d) returns the value converted or raises a
# ConfigValidationError that names where; d is the grid dimension, which only
# a d-vector reads.

def _scalar(value, where: str, d=None, kind=float, infinite: bool = False):
    """A JSON boolean for kind bool, a JSON number otherwise, converted to kind;
    kind int takes only integral numbers (16 or 16.0, not 16.7).  NaN and
    numbers beyond the float range are rejected; Infinity too unless infinite
    is set, for an exponent whose mathematics admits it (L^p, Besov, Serrin)."""
    is_bool = isinstance(value, bool)
    if (is_bool != (kind is bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())
            or not (abs(value) <= sys.float_info.max or (infinite and value == math.inf))):
        raise ConfigValidationError(f"{where}: expected {kind.__name__}, got {value!r}")
    return kind(value)


_number = _scalar
_integer = functools.partial(_scalar, kind=int)
_boolean = functools.partial(_scalar, kind=bool)
_exponent = functools.partial(_scalar, infinite=True)  # L^p, Besov, Serrin: admits +Infinity


def _time_exponent(value, where: str, d=None) -> float:
    """The Serrin time exponent: an exponent, or "inf" / null for +Infinity."""
    return math.inf if value in ("inf", None) else _exponent(value, where)


def _object(value, where: str, d=None) -> dict:
    if not isinstance(value, dict):
        raise ConfigValidationError(f"{where}: expected a JSON object, got {value!r}")
    return value


def _list(value, where: str, d=None) -> list:
    """A non-empty JSON list."""
    if not isinstance(value, list) or not value:
        raise ConfigValidationError(f"{where}: expected a non-empty list, got {value!r}")
    return value


def _path(value, where: str, d=None) -> str:
    """A file or directory path: a non-empty JSON string of printable characters
    (no NUL, control or lone surrogate characters, which file systems refuse)."""
    if not isinstance(value, str) or not value or not value.isprintable():
        raise ConfigValidationError(f"{where}: expected a path string, got {value!r}")
    return value


def _source(value, where: str, d=None):
    """A field source, which build_field reads: a path string or an object."""
    return _path(value, where) if isinstance(value, str) else _object(value, where)


def _vector(value, where: str, d=None, kind=float) -> tuple:
    """A JSON list of numbers converted to kind; exactly d of them unless d is None."""
    if not isinstance(value, list) or d not in (None, len(value)):
        size = "" if d is None else f"{d} "
        raise ConfigValidationError(f"{where}: expected a list of {size}numbers, got {value!r}")
    return tuple(_scalar(x, where, kind=kind) for x in value)


def _indices(value, where: str, d=None) -> tuple:
    """A non-empty list of integers (sequence indices, see _check_indices)."""
    return _vector(_list(value, where), where, None, int)


def _read(doc, where: str, required: dict, optional: dict | None = None,
          d: int | None = None) -> dict:
    """The keys present in the JSON object doc, each converted by its parser in
    required or optional (key -> parser).  Unknown and missing keys are named in
    one ConfigValidationError.  An absent optional key is left out, so the call
    its value would feed supplies the default."""
    schema = {**required, **(optional or {})}
    unknown = sorted(set(_object(doc, where)) - set(schema))
    missing = [key for key in required if key not in doc]
    if unknown or missing:
        raise ConfigValidationError(f"{where}: unknown keys {unknown}, missing keys {missing}")
    return {key: schema[key](value, f"{where}: {key}", d) for key, value in doc.items()}


def _variant(doc, where: str, tag: str, table: dict) -> tuple:
    """(name, rest): doc[tag] names an entry of table, rest is doc without tag."""
    name = _object(doc, where).get(tag)
    if not isinstance(name, str) or name not in table:
        raise ConfigValidationError(f"{where}: unknown {tag} {name!r}, "
                                    f"expected one of {sorted(table)}")
    return name, {key: value for key, value in doc.items() if key != tag}


def _check_indices(n_values: tuple, sequences, where: str) -> None:
    size = min(len(s) for s in sequences)
    bad = [n for n in n_values if not 0 <= n < size]
    if bad:
        raise ConfigValidationError(
            f"{where}: n_values {bad} outside the sequence range [0, {size})")


def _inf_as_string(node):
    """node with every admitted infinite exponent written as the string "inf",
    which strict JSON can carry and which the serrin p_t already accepts."""
    if isinstance(node, dict):
        return {k: _inf_as_string(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_inf_as_string(v) for v in node]
    return "inf" if isinstance(node, float) and node == math.inf else node


# generator type -> (name of its fields.* constructor, required, optional
# parsers).  The constructor is looked up on the module at call time, so a
# wrapper bound there (perfbench's tracer) sees the call.
GENERATORS = {
    "taylor_green": ("taylor_green", {}, {"amplitude": _number}),
    "gaussian": ("gaussian_bump", {"sigma": _number},
                 {"center": _vector, "ncomp": _integer, "amplitude": _number}),
    "gabor": ("gabor_bump", {"sigma": _number, "mode_center": _vector},
              {"center": _vector, "ncomp": _integer, "amplitude": _number}),
    "band_noise": ("band_noise", {"k_lo": _number, "k_hi": _number, "seed": _integer},
                   {"ncomp": _integer, "amplitude": _number, "divergence_free": _boolean}),
    "random_divfree": ("random_divfree_field", {"seed": _integer},
                       {"k_lo": _number, "k_hi": _number, "amplitude": _number}),
}
# norm kind -> (required, optional) parsers beside the exponent p; the Besov q
# defaults to p
BESOV_SPEC = ({"s": _number}, {"q": _exponent})
NORM_SPECS = {"lebesgue": ({}, {}), "besov": BESOV_SPEC, "heat_besov": BESOV_SPEC}


def parse_grid(doc) -> Grid:
    return Grid(**_read(doc, "grid", {"d": _integer, "N": _integer}, {"L": _number}))


def parse_solver(doc) -> SolverConfig:
    return SolverConfig(**_read(doc, "solver", {"dt": _number, "T": _number}, {
        "dealias_fraction": _number, "blowup_sup_threshold": _number,
        "spectral_tail_threshold": _number, "snapshot_stride": _integer,
        "tail_octave_shift": _integer, "linear_only": _boolean}))


def build_field(source, grid: Grid) -> RealVectorField:
    """The field of a field source: a CFD1 path string, {"file": path}, or
    {"generator": {"type": ..., ...}} with the parameters of GENERATORS."""
    if isinstance(source, str):
        source = {"file": source}
    src = _read(source, "field source", {}, {"file": _path, "generator": _object})
    if "file" in src:
        f = read_field(src["file"])
        if not f.grid.compatible(grid):
            raise ConfigValidationError(
                f"field file {src['file']} grid does not match the config grid")
        return f
    if "generator" not in src:
        raise ConfigValidationError("field source needs 'file' or 'generator'")
    gtype, params = _variant(src["generator"], "generator", "type", GENERATORS)
    make, required, optional = GENERATORS[gtype]
    return getattr(field_gen, make)(
        grid, **_read(params, f"generator {gtype}", required, optional, grid.d))


def parse_sequence(items: list, d: int) -> ScaleCoreSequence:
    cores = [_read(item, "scale core", {"lambda": _number, "x0": _vector}, d=d) for item in items]
    return ScaleCoreSequence([ScaleCore(core["lambda"], core["x0"]) for core in cores])


def parse_remainder(doc, grid: Grid) -> RemainderRule:
    """A given field scaled by decay^n, or default_remainder's packet shaped by
    seed and amplitude, which a given field does not take."""
    rem = _read(doc, "remainder", {}, {"field": _source, "seed": _integer,
                                       "amplitude": _number, "decay": _number})
    if "field" not in rem:
        return default_remainder(grid, **rem)
    base = build_field(rem.pop("field"), grid)
    extra = sorted(set(rem) - {f.name for f in dataclasses.fields(RemainderRule)})
    if extra:
        raise ConfigValidationError(f"remainder: {extra} apply only without a 'field'")
    return RemainderRule(base, **rem)


def cmd_norm(config: dict, out: Path) -> dict:
    c = _read(config, "norm config", {"grid": _object, "field": _source, "norm": _object})
    grid = parse_grid(c["grid"])
    f = build_field(c["field"], grid)
    kind, spec = _variant(c["norm"], "norm spec", "kind", NORM_SPECS)
    required, optional = NORM_SPECS[kind]
    spec = _read(spec, f"norm spec {kind}", {"p": _exponent, **required}, optional)
    p = spec["p"]
    warns: list = []
    if kind == "lebesgue":
        value = lebesgue_norm(f, p)
        params = {"p": _inf_as_string(p)}
    else:
        idx = BesovIndex(spec["s"], p, spec.get("q", p))
        params = _inf_as_string({"s": idx.s, "p": idx.p, "q": idx.q})
        if kind == "besov":
            value, _, _, warns = besov_norm_detailed(f, idx)
        else:
            value = heat_besov_norm(f, idx)
    report = norm_report(kind, params, value, warns)
    dump_json(out / "norm.json", report)
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return {"artifacts": ["norm.json"]}


def cmd_lp(config: dict, out: Path) -> dict:
    c = _read(config, "lp config", {"grid": _object, "field": _source},
              {"j_min": _integer, "j_max": _integer, "p": _exponent})
    grid = parse_grid(c["grid"])
    f = build_field(c["field"], grid)
    lo, hi = band_range(grid)
    j_min, j_max, p = c.get("j_min", lo), c.get("j_max", hi), c.get("p", 2.0)
    if not lo <= j_min <= j_max <= hi:
        raise ConfigValidationError(
            f"lp config: need {lo} <= j_min <= j_max <= {hi} (the grid's band range), "
            f"got j_min={j_min}, j_max={j_max}")
    bands = decompose(f, j_min, j_max)
    written, table = ["low.cfd"], []
    write_field(out / "low.cfd", bands.low)
    for j, band in zip(range(bands.j_min, bands.j_max + 1), bands.bands):
        name = f"band_{j}.cfd"
        write_field(out / name, band)
        written.append(name)
        table.append({"j": j, "lp_norm": lebesgue_norm(band, p)})
    dump_json(out / "bands.json", {
        "j_min": bands.j_min, "j_max": bands.j_max, "p": _inf_as_string(p),
        "resolvable_range": list(band_range(grid)), "bands": table,
    })
    written.append("bands.json")
    return {"artifacts": written}


def cmd_evolve(config: dict, out: Path) -> dict:
    c = _read(config, "evolve config", {"grid": _object, "u0": _source, "solver": _object})
    grid = parse_grid(c["grid"])
    u0 = build_field(c["u0"], grid)
    traj = evolve(u0, parse_solver(c["solver"]))
    save_trajectory(out / "trajectory", traj)
    dump_json(out / "evolve.json", {"status": traj.status, "final_time": traj.final_time,
                                    "snapshots": len(traj.snapshots)})
    return {"artifacts": ["trajectory", "evolve.json"], "status": traj.status}


def cmd_superpose(config: dict, out: Path) -> dict:
    c = _read(config, "superpose config",
              {"grid": _object, "profiles": _list, "n_values": _indices, "solver": _object,
               "p": _number},
              {"remainder": _object, "J": _integer})
    grid = parse_grid(c["grid"])
    profiles = []
    for item in c["profiles"]:
        prof = _read(item, "profile", {"field": _source, "scale_cores": _list})
        profiles.append((build_field(prof["field"], grid),
                         parse_sequence(prof["scale_cores"], grid.d)))
    rem = parse_remainder(c["remainder"], grid) if "remainder" in c else None
    sys_ = ProfileSystem(profiles=profiles, remainder=rem)
    if "J" in c:
        if c["J"] < 0:
            raise ConfigValidationError(f"superpose config: J must be >= 0, got {c['J']}")
        sys_ = sys_.truncate(c["J"])
    sys_.validate()
    cfg = parse_solver(c["solver"])
    p, n_values = c["p"], c["n_values"]
    _check_indices(n_values, [seq for _, seq in sys_.profiles], "superpose config")
    ev = evolve_system(sys_, cfg, n_values)
    rows = []
    status = "Completed"
    for n in n_values:
        datum = synthesize_datum(sys_, n)
        traj = evolve(datum, cfg)
        if traj.status == NON_FINITE:
            status = NON_FINITE
        r = remainder(traj, ev, sys_, n)
        rows.append({
            "n": n,
            "remainder_e_norm": e_norm(r, p, p, min(cfg.T, r.final_time)),
            "datum_status": traj.status,
        })
    dump_json(out / "trend.json", {"p": p, "rows": rows})
    return {"artifacts": ["trend.json"], "status": status}


def cmd_ortho(config: dict, out: Path) -> dict:
    c = _read(config, "ortho config",
              {"grid": _object, "f": _source, "g": _source, "seq_a": _list, "seq_b": _list,
               "p": _number, "n_values": _indices},
              {"K": _integer})
    grid = parse_grid(c["grid"])
    f = build_field(c["f"], grid)
    g = build_field(c["g"], grid)
    sa = parse_sequence(c["seq_a"], grid.d)
    sb = parse_sequence(c["seq_b"], grid.d)
    p = c["p"]
    _check_indices(c["n_values"], [sa, sb], "ortho config")
    verdict = orthogonality_check(sa, sb, c.get("K", 3))
    rows = [{"n": n,
             "cross_term": cross_term(f, g, sa[n], sb[n], p),
             "cross_term_swapped": cross_term(g, f, sb[n], sa[n], p),
             "additivity_defect": norm_additivity_defect(f, g, sa[n], sb[n], p)}
            for n in c["n_values"]]
    doc = {"verdict": verdict.value, "p": p, "rows": rows}
    dump_json(out / "ortho.json", doc)
    return {"artifacts": ["ortho.json"]}


def cmd_perturb(config: dict, out: Path) -> dict:
    c = _read(config, "perturb config",
              {"grid": _object, "w0": _source, "solver": _object, "p": _number},
              {"drift_trajectory": _path, "force_part1": _source, "force_part2": _source})
    grid = parse_grid(c["grid"])
    w0 = build_field(c["w0"], grid)
    drift = load_trajectory(c["drift_trajectory"]) if "drift_trajectory" in c else None
    parts = tuple((lambda t, g=build_field(c[key], grid): g) if key in c else None
                  for key in ("force_part1", "force_part2"))  # constant in time
    prob = PerturbationProblem(w0=w0, drift=drift, force_parts=parts)
    report = verify_perturbation_bound(prob, parse_solver(c["solver"]), c["p"])
    dump_json(out / "perturb.json", report.to_dict())
    return {"artifacts": ["perturb.json"]}


def cmd_threshold(config: dict, out: Path) -> dict:
    c = _read(config, "threshold config",
              {"grid": _object, "base": _source, "alpha_lo": _number, "alpha_hi": _number,
               "tol": _number, "solver": _object},
              {"besov_p": _number})
    grid = parse_grid(c["grid"])
    fam = DatumFamily(base=build_field(c["base"], grid),
                      alpha_lo=c["alpha_lo"], alpha_hi=c["alpha_hi"])
    report = threshold_bisection(fam, parse_solver(c["solver"]), c["tol"],
                                 besov_p=c.get("besov_p"))
    dump_json(out / "threshold.json", report.to_dict())
    return {"artifacts": ["threshold.json"]}


def cmd_serrin(config: dict, out: Path) -> dict:
    c = _read(config, "serrin config",
              {"trajectory": _path, "p_t": _time_exponent, "q_x": _exponent})
    value = serrin_norm(load_trajectory(c["trajectory"]), c["p_t"], c["q_x"])
    # the report echoes the exponents as the document spells them ("inf", null, 3)
    doc = norm_report("serrin", _inf_as_string({"p_t": config["p_t"], "q_x": config["q_x"]}),
                      value)
    dump_json(out / "serrin.json", doc)
    print(json.dumps(doc, sort_keys=True, allow_nan=False))
    return {"artifacts": ["serrin.json"]}


def cmd_probe(config: dict, out: Path) -> dict:
    c = _read(config, "probe config", {"trajectory": _path}, {"battery": _object})
    battery = _read(c.get("battery", {}), "battery", {}, {"count": _integer, "seed": _integer})
    traj = load_trajectory(c["trajectory"])
    report = weak_convergence_probe(traj, make_test_battery(traj.grid, **battery))
    dump_json(out / "probe.json", report.to_dict())
    return {"artifacts": ["probe.json"]}


COMMANDS = {"norm": cmd_norm, "lp": cmd_lp, "evolve": cmd_evolve, "superpose": cmd_superpose,
            "ortho": cmd_ortho, "perturb": cmd_perturb, "threshold": cmd_threshold,
            "serrin": cmd_serrin, "probe": cmd_probe}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="critns",
        description="Pseudospectral Navier-Stokes toolkit with critical-space monitors",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--threads", type=int, default=1, help="FFT worker threads")
    args = parser.parse_args(argv)

    threads = max(1, min(args.threads, os.cpu_count() or 1))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        config = load_json(args.config)
        with scipy.fft.set_workers(threads):
            result = COMMANDS[args.command](config, out)
    except (CritNSError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                                    sort_keys=True) + "\n")
        return 1
    manifest = {
        "command": args.command,
        "config": _inf_as_string(config),
        "versions": package_versions(),
        "threads": threads,
        "artifacts": result.get("artifacts", []),
        "wall_clock_s": time.perf_counter() - started,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    dump_json(out / "manifest.json", manifest)
    if result.get("status") == NON_FINITE:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
