"""Hardy-Littlewood, sharp and local (quantile) maximal operators.

All three take the pointwise supremum of a per-cube statistic over every
grid cube containing the cell.  The statistic sweeps are vectorized per cube
side; beyond the full-enumeration guards (N > 256 in 1D, N > 48 in 2D) the
operators switch to dyadic cubes, which requires N to be a power of two.

Each side's statistics reach the cells through _cover_max: with full cubes
a separable sliding maximum by power-of-two doubling, O(N^d log k) work in
O(d log k) numpy calls for side k; with dyadic cubes one np.repeat per axis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import Cube, GridFunction, _window_osc, cube_windows, sides_for
from .rearrange import rearrange
from .spaces import RISpaceSpec, norm

__all__ = [
    "DEFAULT_S",
    "FULL_GUARD_1D",
    "FULL_GUARD_2D",
    "hl_maximal",
    "sharp_maximal",
    "quantile_oscillation",
    "local_maximal",
    "sharp_norm",
    "exceedance_count",
    "resolve_cube_mode",
]

DEFAULT_S = 0.05
FULL_GUARD_1D = 256
FULL_GUARD_2D = 48


def resolve_cube_mode(f: GridFunction, cube_mode: str = "auto") -> bool:
    """Return True for dyadic-only sweeps.  'auto' stays exhaustive within
    the guards and degrades to dyadic cubes beyond them."""
    if cube_mode == "full":
        return False
    if cube_mode == "dyadic":
        return True
    if cube_mode != "auto":
        raise ConfigError(f"cube_mode must be full|dyadic|auto, got {cube_mode!r}")
    guard = FULL_GUARD_1D if f.dim == 1 else FULL_GUARD_2D
    return f.res > guard


def exceedance_count(s: float, m: int) -> int:
    """Cells allowed to exceed the deviation level: the exact translation of
    the strict bound count < s*m on an m-cell cube (snapped against float
    dust in s*m)."""
    if not 0 < s < 1:
        raise ConfigError(f"quantile parameter must lie in (0,1), got {s}")
    return max(math.ceil(s * m - 1e-9) - 1, 0)


def _window_max(a: np.ndarray, k: int, axis: int) -> None:
    """In place along one axis: a[x] <- max(a[x-k+1 .. x]), indices below 0
    left out.  Power-of-two doubling: after the step with shift j each entry
    holds the max of the 2j entries ending at it; floor(log2 k) steps reach
    the largest power of two L <= k, and one step with shift k - L joins the
    two overlapping L-windows that make up the k-window.  numpy buffers an
    input that overlaps the output, so each step reads the values from
    before it."""
    a = np.moveaxis(a, axis, 0)
    j = 1
    while 2 * j <= k:
        np.maximum(a[j:], a[:-j], out=a[j:])
        j *= 2
    if k > j:
        np.maximum(a[k - j:], a[:j - k], out=a[k - j:])


def _cover_max(stat: np.ndarray, k: int, n: int, d: int, dyadic: bool) -> np.ndarray:
    """Scatter per-origin statistics to cells: out[x] = max over cubes of
    side k containing x.

    Dyadic cubes tile the grid, so each statistic is repeated over its k^d
    cells.  Full mode pads the (N-k+1)^d origin table to N^d with -inf and
    takes, per axis, the max over the k origins o with x-k < o <= x: a
    separable sliding maximum of O(N^d log k) work in d*(floor(log2 k)+1)
    numpy calls, with temporaries of at most N^d floats.  A max of the same
    floats is exact, whichever order it is taken in.
    """
    if dyadic:
        out = stat.reshape((n // k,) * d)
        for axis in range(d):
            out = np.repeat(out, k, axis)
        return out
    m = n - k + 1
    out = np.full((n,) * d, -np.inf)
    out[(slice(0, m),) * d] = stat.reshape((m,) * d)
    for axis in range(d):
        _window_max(out, k, axis)
    return out


def _sup_over_cubes(f: GridFunction, per_side_stat, cube_mode: str) -> GridFunction:
    dyadic = resolve_cube_mode(f, cube_mode)
    n, d = f.res, f.dim
    best = np.full(n**d, -np.inf)
    for k in sides_for(n, dyadic):
        stat = per_side_stat(k, dyadic)
        cover = _cover_max(stat, k, n, d, dyadic).ravel()
        np.maximum(best, cover, out=best)
    return f.with_values(best)


def hl_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Hardy-Littlewood maximal function: sup of cube averages of |f| over
    cubes containing the cell.  Dominates |f| pointwise."""
    absf = f.with_values(np.abs(f.values))

    def stat(k, dyadic):
        return cube_windows(absf, k, dyadic).mean(axis=1)

    return _sup_over_cubes(f, stat, cube_mode)


def sharp_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Sharp maximal function: sup of mean oscillations over containing
    cubes.  Its sup norm is the BMO norm of f."""

    def stat(k, dyadic):
        w = cube_windows(f, k, dyadic)
        return _window_osc(w, w.mean(axis=1))

    return _sup_over_cubes(f, stat, cube_mode)


def _qosc_sorted(w_sorted: np.ndarray, s: float) -> np.ndarray:
    m = w_sorted.shape[1]
    kexc = exceedance_count(s, m)
    width = m - kexc
    upper = w_sorted[:, width - 1: width + kexc]
    lower = w_sorted[:, : kexc + 1]
    return (upper - lower).min(axis=1) / 2.0


def quantile_oscillation(f: GridFunction, q: Cube, s: float) -> float:
    """Best deviation level from an optimal constant with an s-fraction of
    the cube allowed to exceed it.

    With sorted cube values and kexc allowed exceedances the optimum drops j
    values below and kexc-j above and takes the half-width of the remaining
    window, minimized over j; this is the exact discrete infimum over the
    constant and the level.
    """
    q.check(f)
    vals = np.sort(f.values[q.flat_cells(f.res)])
    return float(_qosc_sorted(vals[None, :], s)[0])


def local_maximal(
    f: GridFunction, s: float = DEFAULT_S, cube_mode: str = "auto"
) -> GridFunction:
    """Local (quantile) maximal function: sup of quantile oscillations over
    containing cubes.  Decreases pointwise as s grows; bounded by osc/s
    through the Chebyshev inequality."""

    def stat(k, dyadic):
        w = np.sort(cube_windows(f, k, dyadic), axis=1)
        return _qosc_sorted(w, s)

    return _sup_over_cubes(f, stat, cube_mode)


def sharp_norm(f: GridFunction, space: RISpaceSpec, cube_mode: str = "auto") -> float:
    """Norm of the sharp maximal function: ||f||_{X#} = ||f#||_X."""
    return norm(space, rearrange(sharp_maximal(f, cube_mode)))
