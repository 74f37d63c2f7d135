"""Hardy-Littlewood, sharp and local (quantile) maximal operators.

All three take the pointwise supremum of a per-cube statistic over every
grid cube containing the cell.  The statistic sweeps are vectorized per cube
side; beyond the full-enumeration guards (N > 256 in 1D, N > 48 in 2D) the
operators switch to dyadic cubes, which requires N to be a power of two.

Each side's statistics reach the cells through _cover_max: with full cubes
a separable sliding maximum by power-of-two doubling, O(N^d log k) work in
O(d log k) numpy calls for side k; with dyadic cubes one np.repeat per axis.
The local maximal function at any number of quantile levels s sorts each
side's windows once (local_maximals) and scatters every level in one
_cover_max pass batched over a leading s axis; dyadic sides on which no s
allows an exceedance (kexc = 0) are not sorted at all, their (max - min)/2
coming from pairwise halving of the previous side's max and min.
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
    "local_maximals",
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
    """Scatter per-origin statistics to cells: out[..., x] = max over cubes
    of side k containing x, for each row of the leading axes of stat.

    Dyadic cubes tile the grid, so each statistic is repeated over its k^d
    cells.  Full mode pads the (N-k+1)^d origin table to N^d with -inf and
    takes, per axis, the max over the k origins o with x-k < o <= x: a
    separable sliding maximum of O(N^d log k) work in d*(floor(log2 k)+1)
    numpy calls, with temporaries of at most N^d floats per row.  A max of
    the same floats is exact, whichever order it is taken in.
    """
    lead = stat.shape[:-1]
    axes = range(len(lead), len(lead) + d)
    if dyadic:
        out = stat.reshape(lead + (n // k,) * d)
        for axis in axes:
            out = np.repeat(out, k, axis)
        return out
    m = n - k + 1
    out = np.full(lead + (n,) * d, -np.inf)
    out[(Ellipsis,) + (slice(0, m),) * d] = stat.reshape(lead + (m,) * d)
    for axis in axes:
        _window_max(out, k, axis)
    return out


def _sup_over_cubes(f: GridFunction, per_side_stat, cube_mode: str,
                    lead: tuple = ()) -> np.ndarray:
    """best[..., cell] = max over the sides k (ascending) of the cover max of
    per_side_stat(k, dyadic), an array of shape lead + (origins,)."""
    dyadic = resolve_cube_mode(f, cube_mode)
    n, d = f.res, f.dim
    best = np.full(lead + (n**d,), -np.inf)
    for k in sides_for(n, dyadic):
        # free each side's statistics and cover before the next side builds
        # its own: at dyadic N = 2^21 each is a full grid of floats
        cover = _cover_max(per_side_stat(k, dyadic), k, n, d, dyadic)
        np.maximum(best, cover.reshape(best.shape), out=best)
        del cover
    return best


def hl_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Hardy-Littlewood maximal function: sup of cube averages of |f| over
    cubes containing the cell.  Dominates |f| pointwise."""
    absf = f.with_values(np.abs(f.values))

    def stat(k, dyadic):
        return cube_windows(absf, k, dyadic).mean(axis=1)

    return f.with_values(_sup_over_cubes(f, stat, cube_mode))


def sharp_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Sharp maximal function: sup of mean oscillations over containing
    cubes.  Its sup norm is the BMO norm of f."""

    def stat(k, dyadic):
        w = cube_windows(f, k, dyadic)
        return _window_osc(w, w.mean(axis=1))

    return f.with_values(_sup_over_cubes(f, stat, cube_mode))


def _qosc_sorted(w_sorted: np.ndarray, kexc: int) -> np.ndarray:
    m = w_sorted.shape[1]
    width = m - kexc
    upper = w_sorted[:, width - 1: width + kexc]
    lower = w_sorted[:, : kexc + 1]
    return (upper - lower).min(axis=1) / 2.0


def _halve(a: np.ndarray, p: int, d: int, op) -> np.ndarray:
    """Combine with op the 2^d children of each dyadic cube: a holds one
    value per cube of a side, p cubes per axis in lex order; the result
    holds one per cube of twice that side."""
    a = a.reshape((p,) * d)
    for axis in range(d):
        even = (slice(None),) * axis + (slice(0, None, 2),)
        odd = (slice(None),) * axis + (slice(1, None, 2),)
        a = op(a[even], a[odd])
    return a.ravel()


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
    return float(_qosc_sorted(vals[None, :], exceedance_count(s, vals.size))[0])


def local_maximals(f: GridFunction, svals, cube_mode: str = "auto") -> list:
    """Local maximal functions M#_s f for every s of svals, in that order.

    Each side's windows are sorted once, O(N^d k^d log k) work for side k
    in full mode, and every s reads its quantile oscillations from the same
    sorted rows; one cover-max pass scatters all of them.  Dyadic sides on
    which no s allows an exceedance (kexc = 0, e.g. sides up to 16 in 1D at
    s = 0.05) need only (max - min)/2 of each cube, taken by pairwise
    halving of the previous side's max and min instead of a sort.  Each
    result equals local_maximal(f, s) bit for bit.
    """
    svals = list(svals)
    for s in svals:
        exceedance_count(s, 1)
    if not svals:
        return []
    spread = None  # (max, min) per cube of the previous side, while kexc = 0

    def stat(k, dyadic):
        nonlocal spread
        kexcs = [exceedance_count(s, k**f.dim) for s in svals]
        if dyadic and max(kexcs) == 0:
            if spread is None:
                spread = (f.values, f.values)
            else:
                p = f.res // (k // 2)
                spread = tuple(_halve(a, p, f.dim, op)
                               for a, op in zip(spread, (np.maximum, np.minimum)))
            half = (spread[0] - spread[1]) / 2.0
            return np.broadcast_to(half, (len(svals), half.size))
        w = np.sort(cube_windows(f, k, dyadic), axis=1)
        by_kexc = {e: _qosc_sorted(w, e) for e in set(kexcs)}
        return np.stack([by_kexc[e] for e in kexcs])

    best = _sup_over_cubes(f, stat, cube_mode, lead=(len(svals),))
    return [f.with_values(row) for row in best]


def local_maximal(
    f: GridFunction, s: float = DEFAULT_S, cube_mode: str = "auto"
) -> GridFunction:
    """Local (quantile) maximal function: sup of quantile oscillations over
    containing cubes.  Decreases pointwise as s grows; bounded by osc/s
    through the Chebyshev inequality.  The one-level call of local_maximals:
    one sort of each side's windows, except dyadic sides with kexc = 0
    (e.g. sides up to 16 in 1D at s = 0.05), which take (max - min)/2 from
    pairwise halving instead."""
    return local_maximals(f, [s], cube_mode)[0]


def sharp_norm(f: GridFunction, space: RISpaceSpec, cube_mode: str = "auto") -> float:
    """Norm of the sharp maximal function: ||f||_{X#} = ||f#||_X."""
    return norm(space, rearrange(sharp_maximal(f, cube_mode)))
