import contextlib
import io
import os
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest
import scipy.fft

import critns
from critns import Grid, cli
from critns.fields import band_noise
from critns.grid import (DerivedSnapshots, RealVectorField, RetainedBox, _leray_coefficients,
                         forward_transform, inverse_transform)
from critns.norms import _trapezoid_weights
from critns.solver import Trajectory, _inside_radius, dealias_box

# The tests of the process boundary start `python -m critns.cli`: the child
# imports the critns this session imported, also from a checkout that is
# not installed (pyproject's pytest `pythonpath` puts src on sys.path only).
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(critns.__file__)),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture
def grid2():
    return Grid(2, 32)


@pytest.fixture
def grid3():
    return Grid(3, 16)


@pytest.fixture
def grid3m():
    return Grid(3, 32)


def single_mode(grid, mode, phase=0.0):
    """cos(k.x + phase) as a one-component field, k = 2*pi*mode/L."""
    mesh = grid.coordinate_mesh()
    arg = phase * np.ones(grid.shape)
    for m, x in zip(mode, mesh):
        arg = arg + (2.0 * np.pi * m / grid.L) * x
    return RealVectorField(grid, np.cos(arg)[np.newaxis])


def random_smooth_field(grid, seed, ncomp=None):
    """Unit-amplitude band noise on 0.5 k_min <= |k| < 0.4 k_max_axis."""
    return band_noise(grid, 0.5 * grid.k_min, 0.4 * grid.k_max_axis, seed, ncomp=ncomp)


def rel_err(a, b):
    denom = np.max(np.abs(b))
    if denom == 0:
        return np.max(np.abs(a))
    return np.max(np.abs(a - b)) / denom


def l2_rel(a, b):
    denom = np.sqrt(np.sum(b**2))
    if denom == 0:
        return np.sqrt(np.sum(a**2))
    return np.sqrt(np.sum((a - b) ** 2)) / denom


def support_extent(grid, symbol):
    """Reference oracle: the smallest M such that every nonzero entry of a
    half-spectrum array (a mask or a multiplier) has |m| <= M on every axis,
    found by scanning the whole array."""
    d, N = grid.d, grid.N
    nonzero = symbol != 0
    M = 0
    for axis in range(d):
        # index i holds |m| = min(i, N - i), on the last axis too (i <= N/2)
        hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(d) if a != axis)))
        M = max(M, int(np.minimum(hit, N - hit).max(initial=0)))
    return M


def dealias_mask(grid, fraction):
    """Reference oracle: the sharp radial truncation |m| < fraction * N/2
    (index units), evaluated on the whole half spectrum."""
    radius = fraction * grid.N / 2.0
    m2 = grid.k_squared * (grid.L / (2.0 * np.pi)) ** 2
    return m2 < radius**2


def retained_box(grid, fraction):
    """The retained box of the sharp radial truncation |m| < fraction * N/2
    at any fraction, built as solver.dealias_box builds the one at
    DEALIAS_FRACTION."""
    k2 = grid.radial_table.k_squared
    return RetainedBox(grid, _inside_radius(k2, grid, fraction))


def on_half_spectrum(grid, values):
    """A radial symbol given as its values on grid.radial_table, gathered
    onto the whole half spectrum."""
    return np.take(values, grid.radial_table.inverse)


def rfftn(data, grid):
    """Reference oracle: scipy's rfftn over the trailing grid.d axes with the
    1/N^d normalization, the whole half spectrum.  Every full-transform
    reference in the tests is this or irfftn."""
    axes = tuple(range(data.ndim - grid.d, data.ndim))
    return scipy.fft.rfftn(data, axes=axes, norm="forward")


def irfftn(coeff, grid):
    """Reference oracle: scipy's irfftn of a whole half spectrum over the
    trailing grid.d axes, the inverse of rfftn."""
    axes = tuple(range(coeff.ndim - grid.d, coeff.ndim))
    return scipy.fft.irfftn(coeff, s=grid.shape, axes=axes, norm="forward")


def laplacian(f):
    """Reference oracle: the spectral Laplacian, multiplier -|k|^2 on the
    whole half spectrum."""
    coeff = rfftn(f.data, f.grid)
    return RealVectorField(f.grid, irfftn(-f.grid.k_squared * coeff, f.grid))


def radial_multiplier(grid, extent, rng):
    """A random real radial multiplier, as its values on grid.radial_table,
    nonzero exactly at the |k|^2 whose modes all lie in the box |m| <= extent,
    so that its support extent is `extent`; and the box's indicator."""
    table = grid.radial_table
    values = np.where(table.extent <= extent, 0.5 + rng.random(table.k_squared.size), 0.0)
    inside = np.ones(grid.spectral_shape, dtype=bool)
    for axis, n in enumerate(grid.spectral_shape):
        i = np.arange(n)
        shape = [n if a == axis else 1 for a in range(grid.d)]
        inside &= (np.minimum(i, grid.N - i) <= extent).reshape(shape)
    assert support_extent(grid, on_half_spectrum(grid, values)) == extent
    return values, inside


def full_product_blocks(monkeypatch, *modules):
    """Replace the band engine in each module by the reference: every block's
    whole product coeff * m, inverted by irfftn, with the caller's last stage
    made the identity."""
    def blocks(coeff, symbols, grid):
        for values in symbols:
            yield irfftn(coeff * on_half_spectrum(grid, values), grid)

    for module in modules:
        monkeypatch.setattr(module, "multiplier_blocks", blocks)
        monkeypatch.setattr(module, "last_inverse_stage", lambda samples, grid: samples)


def gradient(grid, scalar):
    """Reference oracle: the spectral gradient of a scalar sample array, as a
    d-component field."""
    coeff = rfftn(scalar, grid)
    comps = [irfftn(1j * ka * coeff, grid) for ka in grid.deriv_wavenumber_mesh]
    return RealVectorField(grid, np.stack(comps))


def general_div_flux_hat(entry, box, trace_free=True):
    """Reference oracle: coefficients of (div S)_i = sum_j d_j S_ij of a general
    (not necessarily symmetric) tensor, every one of its d^2 entries
    transformed and truncated to the box's mask; trace_free takes
    S - S_{d-1,d-1} I, as the solver's kernel does for a symmetric S."""
    d = box.d
    trace = entry(d - 1, d - 1).copy() if trace_free else 0.0
    acc = np.zeros((d,) + box.spectral_shape, dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            sij = entry(i, j) - trace if i == j else entry(i, j)
            tij = forward_transform(sij, box.grid, box.extent) * box.mask
            acc[i] += 1j * box.deriv_wavenumber_mesh[j] * tij
    return acc


def bilinear_duhamel(f_traj, g_traj, t):
    """Reference oracle for the solver: B(f, g)(t) = integral_0^t
    exp((t-tau) Lap) P div(f (x) g)(tau) dtau, by the trapezoid rule over the
    snapshot times of f_traj up to t, the flux on the solver's dealias box.
    B(f, f) relates to the mild solution by u = exp(t Lap) u0 - B(u, u)."""
    grid = f_traj.grid
    taus = [float(x) for x in f_traj.times if x <= t + 1e-12]
    if abs(taus[-1] - t) > 1e-12:
        taus.append(t)
    taus = np.asarray(taus)
    box = dealias_box(grid)
    acc = np.zeros((grid.d,) + box.spectral_shape, dtype=np.complex128)
    for tau, weight in zip(taus, _trapezoid_weights(taus)):
        fa, gb = f_traj.at(tau).data, g_traj.at(tau).data
        s = _leray_coefficients(general_div_flux_hat(lambda i, j: fa[i] * gb[j], box), box)
        acc += weight * np.exp(-(t - tau) * box.k_squared) * s
    return RealVectorField(grid, inverse_transform(acc, grid, box.extent))


def thin(traj, stride):
    """Reference oracle: the trajectory of snapshots 0, stride, 2*stride, ...
    and the last one."""
    n = len(traj.snapshots)
    keep = sorted(set(range(0, n, stride)) | {n - 1})
    return Trajectory(traj.grid, traj.times[keep], [traj.snapshots[i] for i in keep])


def traced(fn):
    """(fn(), bytes still allocated when it returns, peak bytes during the
    call), as tracemalloc counts them: only what the call allocates, the
    result included."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


@pytest.fixture
def snapshot_reads(monkeypatch):
    """(sequence, index) of every snapshot read from an on-read sequence
    (`DerivedSnapshots.__getitem__`, iteration included) from now on, in
    order."""
    reads, real = [], DerivedSnapshots.__getitem__

    def counted(self, i):
        snap = real(self, i)
        reads.append((self, i))
        return snap

    monkeypatch.setattr(DerivedSnapshots, "__getitem__", counted)
    return reads


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliRun:
    """(returncode, stdout, stderr) of `critns <argv>`, run in this process
    by cli.main and shown as a fresh `python -m critns.cli` process shows them.

    argparse's SystemExit becomes its code; any other exception that escapes
    main fails the caller.  Warnings pass the interpreter's default filters
    and are written to the captured stderr; setting the filters resets the
    once-per-location registry, so a second run prints its warnings again.
    """
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        # the filters of a fresh interpreter without -W options
        warnings.resetwarnings()
        for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                         ResourceWarning):
            warnings.simplefilter("ignore", category)
        warnings.showwarning = show
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())
