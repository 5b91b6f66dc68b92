import numpy as np
import pytest

from critns import Grid


@pytest.fixture
def grid2():
    return Grid(2, 32)


@pytest.fixture
def grid3():
    return Grid(3, 16)


@pytest.fixture
def grid3m():
    return Grid(3, 32)


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
