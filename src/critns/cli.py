"""Command-line surface: every run is driven by a JSON config document and
writes JSON + CFD1 artifacts plus a manifest into the output directory.

Subcommands: norm, lp, evolve, superpose, ortho, perturb, threshold, serrin,
probe.  Unknown config keys are rejected; random generators require a seed.
Exit codes: 0 success, 1 validation failure (machine-readable JSON on stderr),
2 numerical NonFinite.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
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
from .norms import e_norm

GENERATOR_KEYS = {
    "taylor_green": {"type", "amplitude"},
    "gaussian": {"type", "sigma", "center", "ncomp", "amplitude"},
    "gabor": {"type", "sigma", "mode_center", "center", "ncomp", "amplitude"},
    "band_noise": {"type", "k_lo", "k_hi", "seed", "ncomp", "amplitude", "divergence_free"},
    "random_divfree": {"type", "seed", "k_lo", "k_hi", "amplitude"},
}
RANDOM_GENERATORS = {"band_noise", "random_divfree"}
GENERATOR_PARAM_KINDS = {"amplitude": float, "sigma": float, "k_lo": float, "k_hi": float,
                         "seed": int, "ncomp": int, "divergence_free": bool}
GENERATOR_VECTORS = {"center", "mode_center"}
SOLVER_KINDS = {"dt": float, "T": float, "dealias_fraction": float,
                "blowup_sup_threshold": float, "spectral_tail_threshold": float,
                "snapshot_stride": int, "tail_octave_shift": int, "linear_only": bool}


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigValidationError(f"{where}: expected a JSON object, got {doc!r}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigValidationError(f"{where}: unknown keys {sorted(unknown)}")


def _require(doc: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ConfigValidationError(f"{where}: missing keys {missing}")


def _scalar(value, kind, where: str, infinite: bool = False):
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


def _inf_as_string(node):
    """node with every admitted infinite exponent written as the string "inf",
    which strict JSON can carry and which the serrin p_t already accepts."""
    if isinstance(node, dict):
        return {k: _inf_as_string(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_inf_as_string(v) for v in node]
    return "inf" if isinstance(node, float) and node == math.inf else node


def _list(value, where: str) -> list:
    """A non-empty JSON list."""
    if not isinstance(value, list) or not value:
        raise ConfigValidationError(f"{where}: expected a non-empty list, got {value!r}")
    return value


def _path(value, where: str) -> str:
    """A file or directory path: a JSON string of printable characters (no NUL,
    control or lone surrogate characters, which the file system cannot take)."""
    if not isinstance(value, str) or not value.isprintable():
        raise ConfigValidationError(f"{where}: expected a path string, got {value!r}")
    return value


def _indices(value, sequences, where: str) -> tuple:
    """A non-empty list of integers n with 0 <= n < len(s) for every sequence s."""
    n_values = _vector(value, None, where, int)
    if not n_values:
        raise ConfigValidationError(f"{where}: expected at least one index")
    size = min(len(s) for s in sequences)
    bad = [n for n in n_values if not 0 <= n < size]
    if bad:
        raise ConfigValidationError(f"{where}: {bad} outside the sequence range [0, {size})")
    return n_values


def _vector(value, d: int | None, where: str, kind=float) -> tuple:
    """A JSON list of numbers converted to kind; exactly d of them unless d is None."""
    if not isinstance(value, list) or d not in (None, len(value)):
        size = "" if d is None else f"{d} "
        raise ConfigValidationError(f"{where}: expected a list of {size}numbers, got {value!r}")
    return tuple(_scalar(x, kind, where) for x in value)


def parse_grid(doc: dict) -> Grid:
    _check_keys(doc, {"d", "N", "L"}, "grid")
    _require(doc, ["d", "N"], "grid")
    return Grid(d=_scalar(doc["d"], int, "grid: d"), N=_scalar(doc["N"], int, "grid: N"),
                L=_scalar(doc.get("L", 2.0 * np.pi), float, "grid: L"))


def build_field(source: dict, grid: Grid) -> RealVectorField:
    _check_keys(source, {"file", "generator"}, "field source")
    if "file" in source:
        f = read_field(_path(source["file"], "field source: file"))
        if not f.grid.compatible(grid):
            raise ConfigValidationError(
                f"field file {source['file']} grid does not match the config grid"
            )
        return f
    if "generator" not in source:
        raise ConfigValidationError("field source needs 'file' or 'generator'")
    _check_keys(source["generator"], set().union(*GENERATOR_KEYS.values()), "generator")
    gen = dict(source["generator"])
    gtype = gen.get("type")
    if not isinstance(gtype, str) or gtype not in GENERATOR_KEYS:
        raise ConfigValidationError(f"unknown generator type {gtype!r}")
    _check_keys(gen, GENERATOR_KEYS[gtype], f"generator {gtype}")
    if gtype in RANDOM_GENERATORS and "seed" not in gen:
        raise ConfigValidationError(f"generator {gtype} requires an explicit seed")
    for key in set(gen) - {"type"}:
        where = f"generator {gtype}: {key}"
        if key in GENERATOR_VECTORS:
            gen[key] = _vector(gen[key], grid.d, where)
        else:
            gen[key] = _scalar(gen[key], GENERATOR_PARAM_KINDS[key], where)
    if gtype == "taylor_green":
        return field_gen.taylor_green(grid, amplitude=gen.get("amplitude", 1.0))
    if gtype == "gaussian":
        return field_gen.gaussian_bump(
            grid, sigma=gen["sigma"], center=gen.get("center"),
            ncomp=gen.get("ncomp", 1), amplitude=gen.get("amplitude", 1.0))
    if gtype == "gabor":
        return field_gen.gabor_bump(
            grid, sigma=gen["sigma"], mode_center=gen["mode_center"],
            center=gen.get("center"), ncomp=gen.get("ncomp", 1),
            amplitude=gen.get("amplitude", 1.0))
    if gtype == "band_noise":
        return field_gen.band_noise(
            grid, k_lo=gen["k_lo"], k_hi=gen["k_hi"], seed=gen["seed"],
            ncomp=gen.get("ncomp"), amplitude=gen.get("amplitude", 1.0),
            divergence_free=gen.get("divergence_free", False))
    return field_gen.random_divfree_field(
        grid, seed=gen["seed"], k_lo=gen.get("k_lo", 1.0),
        k_hi=gen.get("k_hi"), amplitude=gen.get("amplitude", 1.0))


def parse_solver(doc: dict) -> SolverConfig:
    _check_keys(doc, set(SOLVER_KINDS), "solver")
    _require(doc, ["dt", "T"], "solver")
    return SolverConfig(**{k: _scalar(v, SOLVER_KINDS[k], f"solver: {k}") for k, v in doc.items()})


def parse_sequence(items, d: int, where: str) -> ScaleCoreSequence:
    entries = []
    for item in _list(items, where):
        _check_keys(item, {"lambda", "x0"}, "scale core")
        entries.append(ScaleCore(_scalar(item["lambda"], float, "scale core: lambda"),
                                 _vector(item["x0"], d, "scale core: x0")))
    return ScaleCoreSequence(entries)


def cmd_norm(config: dict, out: Path) -> dict:
    _check_keys(config, {"grid", "field", "norm", "seed"}, "norm config")
    _require(config, ["grid", "field", "norm"], "norm config")
    grid = parse_grid(config["grid"])
    f = build_field(config["field"], grid)
    spec = config["norm"]
    _check_keys(spec, {"kind", "p", "s", "q"}, "norm spec")
    kind = spec.get("kind")
    if kind not in ("lebesgue", "besov", "heat_besov"):
        raise ConfigValidationError(f"unknown norm kind {kind!r}")
    p = _scalar(spec["p"], float, "norm spec: p", infinite=True)
    warns: list = []
    if kind == "lebesgue":
        value = lebesgue_norm(f, p)
        params = {"p": _inf_as_string(p)}
    else:
        idx = BesovIndex(_scalar(spec["s"], float, "norm spec: s"), p,
                         _scalar(spec.get("q", p), float, "norm spec: q", infinite=True))
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
    _check_keys(config, {"grid", "field", "j_min", "j_max", "p"}, "lp config")
    _require(config, ["grid", "field"], "lp config")
    grid = parse_grid(config["grid"])
    f = build_field(config["field"], grid)
    lo, hi = band_range(grid)
    j_min = _scalar(config.get("j_min", lo), int, "lp config: j_min")
    j_max = _scalar(config.get("j_max", hi), int, "lp config: j_max")
    if not lo <= j_min <= j_max <= hi:
        raise ConfigValidationError(
            f"lp config: need {lo} <= j_min <= j_max <= {hi} (the grid's band range), "
            f"got j_min={j_min}, j_max={j_max}")
    bands = decompose(f, j_min, j_max)
    p = _scalar(config.get("p", 2.0), float, "lp config: p", infinite=True)
    written = []
    table = []
    write_field(out / "low.cfd", bands.low)
    written.append("low.cfd")
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
    _check_keys(config, {"grid", "u0", "solver"}, "evolve config")
    _require(config, ["grid", "u0", "solver"], "evolve config")
    grid = parse_grid(config["grid"])
    u0 = build_field(config["u0"], grid)
    cfg = parse_solver(config["solver"])
    traj = evolve(u0, cfg)
    save_trajectory(out / "trajectory", traj)
    summary = {
        "status": traj.status,
        "final_time": traj.final_time,
        "snapshots": len(traj.snapshots),
    }
    dump_json(out / "evolve.json", summary)
    return {"artifacts": ["trajectory", "evolve.json"], "status": traj.status}


def _field_source(spec, grid: Grid) -> RealVectorField:
    """A field source is either a CFD1 path string or a {file|generator} object."""
    if isinstance(spec, str):
        return build_field({"file": spec}, grid)
    return build_field(spec, grid)


def cmd_superpose(config: dict, out: Path) -> dict:
    allowed = {"grid", "profiles", "remainder", "n_values", "solver", "p", "J"}
    _check_keys(config, allowed, "superpose config")
    _require(config, ["grid", "profiles", "n_values", "solver", "p"], "superpose config")
    grid = parse_grid(config["grid"])
    profiles = []
    for item in _list(config["profiles"], "superpose config: profiles"):
        _check_keys(item, {"field", "scale_cores"}, "profile")
        phi = _field_source(item["field"], grid)
        profiles.append((phi, parse_sequence(item["scale_cores"], grid.d, "profile: scale_cores")))
    rem = None
    if "remainder" in config:
        rdoc = config["remainder"]
        _check_keys(rdoc, {"field", "decay", "seed", "amplitude"}, "remainder")
        decay = _scalar(rdoc.get("decay", 0.5), float, "remainder: decay")
        if "field" in rdoc:
            rem = RemainderRule(base=_field_source(rdoc["field"], grid), decay=decay)
        else:
            rem = default_remainder(
                grid, seed=_scalar(rdoc.get("seed", 0), int, "remainder: seed"),
                amplitude=_scalar(rdoc.get("amplitude", 1e-2), float, "remainder: amplitude"),
                decay=decay)
    sys_ = ProfileSystem(profiles=profiles, remainder=rem)
    if "J" in config:
        J = _scalar(config["J"], int, "superpose config: J")
        if J < 0:
            raise ConfigValidationError(f"superpose config: J must be >= 0, got {J}")
        sys_ = sys_.truncate(J)
    sys_.validate()
    cfg = parse_solver(config["solver"])
    p = _scalar(config["p"], float, "superpose config: p")
    n_values = _indices(config["n_values"], [seq for _, seq in sys_.profiles],
                        "superpose config: n_values")
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
    allowed = {"grid", "f", "g", "seq_a", "seq_b", "p", "n_values", "K"}
    _check_keys(config, allowed, "ortho config")
    _require(config, ["grid", "f", "g", "seq_a", "seq_b", "p", "n_values"], "ortho config")
    grid = parse_grid(config["grid"])
    f = build_field(config["f"], grid)
    g = build_field(config["g"], grid)
    sa = parse_sequence(config["seq_a"], grid.d, "ortho config: seq_a")
    sb = parse_sequence(config["seq_b"], grid.d, "ortho config: seq_b")
    p = _scalar(config["p"], float, "ortho config: p")
    n_values = _indices(config["n_values"], [sa, sb], "ortho config: n_values")
    verdict = orthogonality_check(sa, sb, _scalar(config.get("K", 3), int, "ortho config: K"))
    rows = []
    for n in n_values:
        rows.append({
            "n": n,
            "cross_term": cross_term(f, g, sa[n], sb[n], p),
            "cross_term_swapped": cross_term(g, f, sb[n], sa[n], p),
            "additivity_defect": norm_additivity_defect(f, g, sa[n], sb[n], p),
        })
    doc = {"verdict": verdict.value, "p": p, "rows": rows}
    dump_json(out / "ortho.json", doc)
    return {"artifacts": ["ortho.json"]}


def cmd_perturb(config: dict, out: Path) -> dict:
    allowed = {"grid", "w0", "drift_trajectory", "force_part1", "force_part2",
               "solver", "p"}
    _check_keys(config, allowed, "perturb config")
    _require(config, ["grid", "w0", "solver", "p"], "perturb config")
    grid = parse_grid(config["grid"])
    w0 = build_field(config["w0"], grid)
    drift = None
    if config.get("drift_trajectory"):
        drift = load_trajectory(_path(config["drift_trajectory"], "perturb config: drift_trajectory"))
    parts = []
    for key in ("force_part1", "force_part2"):
        if config.get(key):
            g = build_field(config[key], grid)
            parts.append(lambda t, g=g: g)
        else:
            parts.append(None)
    prob = PerturbationProblem(w0=w0, drift=drift, force_parts=tuple(parts))
    cfg = parse_solver(config["solver"])
    report = verify_perturbation_bound(prob, cfg, _scalar(config["p"], float, "perturb config: p"))
    dump_json(out / "perturb.json", report.to_dict())
    return {"artifacts": ["perturb.json"]}


def cmd_threshold(config: dict, out: Path) -> dict:
    allowed = {"grid", "base", "alpha_lo", "alpha_hi", "tol", "solver", "besov_p"}
    _check_keys(config, allowed, "threshold config")
    _require(config, ["grid", "base", "alpha_lo", "alpha_hi", "tol", "solver"],
             "threshold config")
    grid = parse_grid(config["grid"])
    base = build_field(config["base"], grid)
    fam = DatumFamily(base=base,
                      alpha_lo=_scalar(config["alpha_lo"], float, "threshold config: alpha_lo"),
                      alpha_hi=_scalar(config["alpha_hi"], float, "threshold config: alpha_hi"))
    cfg = parse_solver(config["solver"])
    besov_p = config.get("besov_p")
    report = threshold_bisection(
        fam, cfg, _scalar(config["tol"], float, "threshold config: tol"),
        besov_p=None if besov_p is None else _scalar(besov_p, float, "threshold config: besov_p"))
    dump_json(out / "threshold.json", report.to_dict())
    return {"artifacts": ["threshold.json"]}


def cmd_serrin(config: dict, out: Path) -> dict:
    _check_keys(config, {"trajectory", "p_t", "q_x"}, "serrin config")
    _require(config, ["trajectory", "p_t", "q_x"], "serrin config")
    p_t = config["p_t"]
    p_t = (math.inf if p_t in ("inf", None)
           else _scalar(p_t, float, "serrin config: p_t", infinite=True))
    q_x = _scalar(config["q_x"], float, "serrin config: q_x", infinite=True)
    value = serrin_norm(load_trajectory(_path(config["trajectory"], "serrin config: trajectory")),
                        p_t, q_x)
    doc = norm_report("serrin", _inf_as_string({"p_t": config["p_t"], "q_x": config["q_x"]}),
                      value)
    dump_json(out / "serrin.json", doc)
    print(json.dumps(doc, sort_keys=True, allow_nan=False))
    return {"artifacts": ["serrin.json"]}


def cmd_probe(config: dict, out: Path) -> dict:
    _check_keys(config, {"trajectory", "battery"}, "probe config")
    _require(config, ["trajectory"], "probe config")
    bat = config.get("battery", {})
    _check_keys(bat, {"count", "seed"}, "battery")
    count = _scalar(bat.get("count", 8), int, "battery: count")
    seed = _scalar(bat.get("seed", 7), int, "battery: seed")
    traj = load_trajectory(_path(config["trajectory"], "probe config: trajectory"))
    tests = make_test_battery(traj.grid, count=count, seed=seed)
    report = weak_convergence_probe(traj, tests)
    dump_json(out / "probe.json", report.to_dict())
    return {"artifacts": ["probe.json"]}


COMMANDS = {
    "norm": cmd_norm,
    "lp": cmd_lp,
    "evolve": cmd_evolve,
    "superpose": cmd_superpose,
    "ortho": cmd_ortho,
    "perturb": cmd_perturb,
    "threshold": cmd_threshold,
    "serrin": cmd_serrin,
    "probe": cmd_probe,
}


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
        if not isinstance(config, dict):
            raise ConfigValidationError("config document must be a JSON object")
        with scipy.fft.set_workers(threads):
            result = COMMANDS[args.command](config, out)
    except (CritNSError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }, sort_keys=True) + "\n")
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
