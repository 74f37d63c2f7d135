"""Hardy-Littlewood, sharp and local (quantile) maximal operators.

All three take the pointwise supremum of a per-cube statistic over every
grid cube containing the cell.  Each operator builds one grid.CubeTable,
full cubes within the full-enumeration guards (N <= 256 in 1D, N <= 48 in
2D) and dyadic cubes beyond them, which requires N to be a power of two,
and reads one of its statistics: the cube means of |f|, the mean
oscillations, or the quantile oscillations CubeTable.qosc.

The statistic reaches the cells through one top-down container-max sweep
(_sup_over_cubes): from the largest side down, each cube takes the max of
its own statistic and those of the cubes containing it, O(#cubes) work in
a few numpy calls per side, with no per-side N^d temporary.  Leading axes
of the statistic are swept at once, so local_maximals carries every
quantile level s to the cells in one sweep.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError
from .grid import Cube, CubeTable, GridFunction, _qosc_sorted, exceedance_count
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
    return _past_full_guard(f)


def _past_full_guard(f: GridFunction) -> bool:
    """Is N past the full-cube enumeration guard of f's dimension?"""
    return f.res > (FULL_GUARD_1D if f.dim == 1 else FULL_GUARD_2D)


def _sup_over_cubes(table: CubeTable, stat: np.ndarray) -> np.ndarray:
    """best[..., cell] = max of stat, shape (..., cubes) flat over the
    table's cubes, over every cube holding the cell.

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
    n, d = table.f.res, table.f.dim
    lead = stat.shape[:-1]
    acc = None
    for k, part in reversed(table.by_side(stat).items()):
        if acc is None:
            acc = np.array(part).reshape(lead + (1,) * d)
        elif table.dyadic:
            p = n // (2 * k)
            acc = np.maximum(part.reshape(lead + (p, 2) * d),
                             acc.reshape(lead + (p, 1) * d))
        else:
            m = n - k + 1
            new = np.array(part).reshape(lead + (m,) * d)
            for cut in itertools.product((slice(0, -1), slice(1, None)), repeat=d):
                np.maximum(new[(Ellipsis,) + cut], acc, out=new[(Ellipsis,) + cut])
            acc = new
    return acc.reshape(lead + (n**d,))


def _sup_of(table: CubeTable, stat: np.ndarray) -> GridFunction:
    """Per cell, the sup of stat, flat over the table's cubes, over the
    cubes holding the cell."""
    return table.f.with_values(_sup_over_cubes(table, stat))


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

    One CubeTable gives the quantile oscillations at every s,
    CubeTable.qosc, from one sort of each side's windows, and one
    container-max sweep carries all of them to the cells.  Each result
    equals local_maximal(f, s) bit for bit.
    """
    svals = list(svals)
    for s in svals:
        exceedance_count(s, 1)
    if not svals:
        return []
    table = CubeTable(f, resolve_cube_mode(f, cube_mode))
    best = _sup_over_cubes(table, table.qosc(svals))
    return [f.with_values(row) for row in best]


def local_maximal(
    f: GridFunction, s: float = DEFAULT_S, cube_mode: str = "auto"
) -> GridFunction:
    """Local (quantile) maximal function: sup of quantile oscillations over
    containing cubes.  Decreases pointwise as s grows; bounded by osc/s
    through the Chebyshev inequality.  The one-level call of local_maximals:
    one sweep of CubeTable.qosc([s])."""
    return local_maximals(f, [s], cube_mode)[0]


def sharp_norm(f: GridFunction, space: RISpaceSpec, cube_mode: str = "auto") -> float:
    """Norm of the sharp maximal function: ||f||_{X#} = ||f#||_X."""
    return norm(space, rearrange(sharp_maximal(f, cube_mode)))
