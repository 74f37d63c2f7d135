"""Hardy-Littlewood, sharp and local (quantile) maximal operators.

All three take the pointwise supremum of a per-cube statistic over every
grid cube containing the cell.  The statistic sweeps are vectorized per cube
side; beyond the full-enumeration guards (N > 256 in 1D, N > 48 in 2D) the
operators switch to dyadic cubes, which requires N to be a power of two.

The statistics reach the cells through one top-down container-max sweep
(_sup_over_cubes): from the largest side down, each cube takes the max of
its own statistic and those of the cubes containing it, O(#cubes) work in
a few numpy calls per side, with no per-side N^d temporary.  The
Hardy-Littlewood and sharp operators read the cube means and mean
oscillations of one grid.CubeTable, which reduces 2D full-cube windows in
cache-sized blocks of origin rows.  The local maximal function at
any number of quantile levels s sorts each side's windows once
(local_maximals) and sweeps every level at once over a leading s axis;
dyadic sides on which no s allows an exceedance (kexc = 0) are not sorted
at all, their (max - min)/2 coming from pairwise halving of the previous
side's max and min, and on the other dyadic sides only the cubes whose max
and min differ are sorted.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigError
from .grid import Cube, CubeTable, GridFunction, _window_stat, cube_windows, sides_for
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


def _sup_over_cubes(f: GridFunction, per_side_stat, dyadic: bool,
                    lead: tuple = ()) -> np.ndarray:
    """best[..., cell] = max of per_side_stat(k), an array of shape
    lead + (origins,), over every cube holding the cell.

    Sides are taken in descending order.  acc holds, per origin of the
    current side, the largest statistic over the cubes containing that cube;
    at side 1 these are the cells.  A full cube strictly inside another lies
    in a cube of the next side up inside it too, so its containers are
    itself and the containers of the 2^d cubes of side k+1 around it: 2^d
    shifted maxima of the previous acc.  Dyadic containers are the cube
    itself and its parent's, one broadcast maximum against a (m/2, 2)^d view
    of the side's statistics.  O(#cubes) work and no N^d temporary per side;
    a max of the same floats is exact, whichever order it is taken in.
    """
    n, d = f.res, f.dim
    acc = None
    for k in reversed(sides_for(n, dyadic)):
        stat = per_side_stat(k)
        if acc is None:
            acc = np.array(stat).reshape(lead + (1,) * d)
        elif dyadic:
            p = n // (2 * k)
            acc = np.maximum(stat.reshape(lead + (p, 2) * d),
                             acc.reshape(lead + (p, 1) * d))
        else:
            m = n - k + 1
            new = np.array(stat).reshape(lead + (m,) * d)
            for part in itertools.product((slice(0, -1), slice(1, None)), repeat=d):
                np.maximum(new[(Ellipsis,) + part], acc, out=new[(Ellipsis,) + part])
            acc = new
    return acc.reshape(lead + (n**d,))


def _sup_of(table: CubeTable, stat: np.ndarray) -> GridFunction:
    """Per cell, the sup of stat, flat over the table's cubes, over the
    cubes holding the cell."""
    best = _sup_over_cubes(table.f, table.by_side(stat).__getitem__, table.dyadic)
    return table.f.with_values(best)


def hl_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Hardy-Littlewood maximal function: sup of cube averages of |f| over
    cubes containing the cell.  Dominates |f| pointwise."""
    table = CubeTable(f.with_values(np.abs(f.values)), resolve_cube_mode(f, cube_mode))
    return _sup_of(table, table.mean)


def sharp_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Sharp maximal function: sup of mean oscillations over containing
    cubes.  Its sup norm is the BMO norm of f."""
    table = CubeTable(f, resolve_cube_mode(f, cube_mode))
    return _sup_of(table, table.osc)


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
    sorted rows; one container-max sweep carries all of them to the cells.
    Dyadic cubes first get their max and min by pairwise halving of the
    previous side's, smallest side first, before the sweep runs from the
    largest side down.  Sides on which no s allows an exceedance (kexc = 0,
    e.g. sides up to 16 in 1D at s = 0.05) need only (max - min)/2 of each
    cube; on the other sides a constant cube has quantile oscillation 0 at
    every s, and only the cubes with max != min are sorted.  Each result
    equals local_maximal(f, s) bit for bit.
    """
    svals = list(svals)
    for s in svals:
        exceedance_count(s, 1)
    if not svals:
        return []
    d = f.dim
    dyadic = resolve_cube_mode(f, cube_mode)
    # per dyadic side: (max - min)/2 per cube where kexc = 0 for every s,
    # else the flat origins of the cubes that are not constant
    spread = {}
    if dyadic:
        hi = lo = f.values
        for k in sides_for(f.res, True):
            if k > 1:
                p = f.res // (k // 2)
                hi, lo = _halve(hi, p, d, np.maximum), _halve(lo, p, d, np.minimum)
            if max(exceedance_count(s, k**d) for s in svals) == 0:
                spread[k] = (hi - lo) / 2.0
            else:
                spread[k] = np.flatnonzero(hi != lo)

    def stat(k):
        kexcs = [exceedance_count(s, k**d) for s in svals]

        def qosc(w):
            by_kexc = {e: _qosc_sorted(w, e) for e in set(kexcs)}
            return np.stack([by_kexc[e] for e in kexcs])

        if not dyadic:
            return _window_stat(f, k, dyadic, qosc, sort=True)
        cubes = (f.res // k)**d
        if max(kexcs) == 0:
            return np.broadcast_to(spread.pop(k), (len(svals), cubes))
        varied = spread.pop(k)
        out = np.zeros((len(svals), cubes))
        w = cube_windows(f, k, dyadic)[varied]  # a copy, never f's values
        w.sort(axis=1)
        out[:, varied] = qosc(w)
        return out

    best = _sup_over_cubes(f, stat, dyadic, lead=(len(svals),))
    return [f.with_values(row) for row in best]


def local_maximal(
    f: GridFunction, s: float = DEFAULT_S, cube_mode: str = "auto"
) -> GridFunction:
    """Local (quantile) maximal function: sup of quantile oscillations over
    containing cubes.  Decreases pointwise as s grows; bounded by osc/s
    through the Chebyshev inequality.  The one-level call of local_maximals:
    one sort of each side's windows (2D full windows in cache-sized blocks),
    except dyadic sides with kexc = 0 (e.g. sides up to 16 in 1D at
    s = 0.05), which take (max - min)/2 from pairwise halving instead, and
    constant dyadic cubes, whose statistic is 0; one container-max sweep
    from the largest side down carries the statistics to the cells."""
    return local_maximals(f, [s], cube_mode)[0]


def sharp_norm(f: GridFunction, space: RISpaceSpec, cube_mode: str = "auto") -> float:
    """Norm of the sharp maximal function: ||f||_{X#} = ||f#||_X."""
    return norm(space, rearrange(sharp_maximal(f, cube_mode)))
