"""Fuzzed CLI config documents: every JSON document gives exit 0, 1 or 2, and
exit 1 always comes with a JSON error line on stderr.

Mutations drop keys, add unknown keys, or replace values with non-numeric JSON.
Magnitudes and --threads are not fuzzed: a huge grid size, step count or
worker count would ask for that much memory, time or threads.

Every run is made in process by conftest.run_cli; one parity test checks that
it shows what a `python -m critns.cli` process shows, once per exit code.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from critns import Grid
from critns.fields import taylor_green
from critns.io import save_trajectory
from critns.solver import make_heat_trajectory
from conftest import run_cli

GRID = {"d": 2, "N": 16}
TG = {"generator": {"type": "taylor_green", "amplitude": 0.5}}
SOLVER = {"dt": 0.01, "T": 0.02, "snapshot_stride": 1}
SEQ = [{"lambda": 2.0**-n, "x0": [0.0, 0.0]} for n in range(3)]
TRAJECTORY = "<trajectory>"  # replaced by the path of a stored 2D trajectory

BASE = {
    "norm": {"grid": GRID,
             "field": {"generator": {"type": "gaussian", "sigma": 0.6, "center": [0.0, 0.0],
                                     "ncomp": 1, "amplitude": 1.0}},
             "norm": {"kind": "besov", "p": 3, "s": 0.0, "q": 3}},
    "lp": {"grid": GRID, "j_min": -1, "j_max": 3, "p": 3,
           "field": {"generator": {"type": "band_noise", "k_lo": 1, "k_hi": 4, "seed": 5,
                                   "ncomp": 2, "amplitude": 1.0, "divergence_free": True}}},
    "evolve": {"grid": GRID, "solver": SOLVER,
               "u0": {"generator": {"type": "random_divfree", "seed": 3, "k_lo": 1,
                                    "k_hi": 3, "amplitude": 0.2}}},
    "superpose": {"grid": GRID, "profiles": [{"field": TG, "scale_cores": SEQ}],
                  "remainder": {"seed": 2, "amplitude": 0.01, "decay": 0.5},
                  "n_values": [0, 1], "solver": SOLVER, "p": 3, "J": 0},
    "ortho": {"grid": GRID, "K": 3, "p": 2, "n_values": [0, 1], "seq_a": SEQ, "seq_b": SEQ,
              "f": {"generator": {"type": "gabor", "sigma": 0.6, "mode_center": [2.0, 0.0],
                                  "center": [0.0, 0.0], "ncomp": 2, "amplitude": 1.0}},
              "g": TG},
    "perturb": {"grid": GRID, "w0": TG, "drift_trajectory": TRAJECTORY, "force_part1": TG,
                "solver": SOLVER, "p": 4},
    "threshold": {"grid": GRID, "base": TG, "alpha_lo": 0.5, "alpha_hi": 2.0, "tol": 0.5,
                  "besov_p": 3, "solver": dict(SOLVER, blowup_sup_threshold=0.75)},
    "serrin": {"trajectory": TRAJECTORY, "p_t": "inf", "q_x": 2},
    "probe": {"trajectory": TRAJECTORY, "battery": {"count": 2, "seed": 1}},
}

# text includes lone surrogates (valid JSON escapes) and directory paths
TEXT = (st.text(st.characters(exclude_categories=()), max_size=6)
        | st.sampled_from(["", ".", "/"]))
NON_NUMERIC = st.recursive(
    st.none() | st.booleans() | TEXT,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def trajectory_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "trajectory"
    save_trajectory(path, make_heat_trajectory(taylor_green(Grid(2, 16)), [0.0, 0.01, 0.02]))
    return str(path)


def _containers(node):
    """The document and every object or list inside it."""
    if isinstance(node, dict):
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return []
    return [node] + [c for child in children for c in _containers(child)]


def _mutate(data, doc):
    """Apply one drop, unknown-key or non-numeric replacement to doc in place."""
    node = data.draw(st.sampled_from(_containers(doc)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    actions = ["unknown"] if isinstance(node, dict) else []
    if keys:
        actions += ["replace"] + (["drop"] if isinstance(node, dict) else [])
    if not actions:
        return
    action = data.draw(st.sampled_from(actions))
    if action == "unknown":
        node["x_" + data.draw(st.text(max_size=4))] = data.draw(NON_NUMERIC)
        return
    key = data.draw(st.sampled_from(keys))
    if action == "drop":
        del node[key]
    else:
        node[key] = data.draw(NON_NUMERIC)


def _run(command, doc):
    """Exit code and stderr of a CLI run of one config document."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        res = run_cli([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    return res.returncode, res.stderr


def _base(command, trajectory_dir):
    return json.loads(json.dumps(BASE[command]).replace(TRAJECTORY, trajectory_dir))


LOW_EDGE = ("AccuracyWarning: spectral content concentrated at the low band-range edge "
            "(level -1 holds {}% of the l^q sum); the lowest torus band dominates")
# the level -1 shares of the low-edge warnings that the Besov norms of the
# 16^2 Taylor-Green data raise, once per distinct message (threshold: the
# lower bracket member's norm and the report's sup, whose maximum is that
# same datum at t = 0, raised once at the command's call); the other base
# configs print nothing
BASE_WARNINGS = {"perturb": ["98.5"], "threshold": ["94.3"]}


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_configs_run(trajectory_dir, command):
    code, stderr = _run(command, _base(command, trajectory_dir))
    assert code == 0
    # each warning is a "<file>:<line>: <category>: <message>" line and the
    # source line it points at
    lines = stderr.splitlines()
    expected = [LOW_EDGE.format(share) for share in BASE_WARNINGS.get(command, [])]
    assert len(lines) == 2 * len(expected), stderr
    assert [line.split(": ", 1)[1] for line in lines[::2]] == expected
    assert all(line.startswith("  ") for line in lines[1::2])


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_contract(trajectory_dir, data):
    command = data.draw(st.sampled_from(sorted(BASE)))
    doc = _base(command, trajectory_dir)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    code, stderr = _run(command, doc)
    assert code in (0, 1, 2)
    if code == 1:
        lines = stderr.strip().splitlines()
        assert lines and "error" in json.loads(lines[-1])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


STRICT_CASES = dict(BASE, **{
    "norm-p-infinity": dict(BASE["norm"], norm={"kind": "lebesgue", "p": float("inf")}),
    "serrin-p_t-infinity": dict(BASE["serrin"], p_t=float("inf")),
})


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_artifacts_are_strict_json(tmp_path, trajectory_dir, case):
    """Every JSON artifact and stdout echo parses without Infinity or NaN
    (RFC 8259); an admitted infinite exponent is echoed as "inf"."""
    command = case.split("-")[0]
    doc = json.loads(json.dumps(STRICT_CASES[case]).replace(TRAJECTORY, trajectory_dir))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = run_cli([command, "--config", str(config), "--out", str(out)])
    assert res.returncode == 0
    artifacts = sorted(out.rglob("*.json"))
    assert out / "manifest.json" in artifacts
    parsed = {str(path.relative_to(out)): json.loads(path.read_text(),
                                                     parse_constant=_reject_constant)
              for path in artifacts}
    for line in res.stdout.splitlines():
        json.loads(line, parse_constant=_reject_constant)
    if case == "norm-p-infinity":
        assert parsed["norm.json"]["parameters"]["p"] == "inf"
        assert parsed["manifest.json"]["config"]["norm"]["p"] == "inf"
    if case == "threshold":
        probes = parsed["threshold.json"]["probes"]
        assert all(p["trip_reason"] == (None if p["status"] == "Completed" else "sup")
                   and p["margin"] > 0 for p in probes)
    if case == "serrin-p_t-infinity":
        assert parsed["serrin.json"]["parameters"]["p_t"] == "inf"
        assert parsed["manifest.json"]["config"]["p_t"] == "inf"


# (command, config document or None for a missing file, exit code)
PARITY_CASES = {
    "threshold": ("threshold", BASE["threshold"], 0),
    "missing-config": ("norm", None, 1),
    "evolve-1e308": ("evolve", {
        "grid": GRID, "solver": {"dt": 0.01, "T": 0.02},
        "u0": {"generator": {"type": "random_divfree", "seed": 0, "amplitude": 1e308}}}, 2),
    "unknown-command": ("bogus", None, 2),
}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_in_process_run_matches_a_process(tmp_path, case):
    """run_cli gives the (returncode, stdout, stderr) of `python -m critns.cli`
    with the same arguments: exit 0 with warnings, 1, 2, and argparse's 2."""
    import subprocess
    import sys

    command, doc, code = PARITY_CASES[case]
    config, out = tmp_path / "config.json", tmp_path / "out"
    if doc is not None:
        config.write_text(json.dumps(doc))
    argv = [command, "--config", str(config), "--out", str(out)]
    in_process = run_cli(argv)
    assert in_process.returncode == code
    shutil.rmtree(out, ignore_errors=True)
    assert run_cli(argv) == in_process  # a second run shows its warnings again
    shutil.rmtree(out, ignore_errors=True)
    spawned = subprocess.run([sys.executable, "-m", "critns.cli", *argv],
                             capture_output=True, text=True)
    assert in_process == (spawned.returncode, spawned.stdout, spawned.stderr)
