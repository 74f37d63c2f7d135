"""Hardy-Littlewood, sharp and local (quantile) maximal operators.

All three take the pointwise supremum of a per-cube statistic over every
grid cube containing the cell.  Each operator builds one grid.CubeTable,
full cubes within the full-enumeration guards (N <= 256 in 1D, N <= 48 in
2D) and dyadic cubes beyond them, which requires N to be a power of two,
and reads one of its statistics: the cube means of |f|, the mean
oscillations, or the quantile oscillations CubeTable.side_qosc.

The statistic reaches the cells through the table's one top-down
container-max sweep, CubeTable.sup: from the largest side down, each cube
takes the max of its own statistic and those of the cubes containing it,
O(#cubes) work in a few numpy calls per side, with no per-side N^d
temporary.  Leading axes of the statistic are swept at once, so
local_maximals carries every quantile level s to the cells in one sweep.

local_maximals sorts a cube's cells only when the cube can still raise a
cell.  Each cube's half-range h = fl(fl(max - min)/2) comes from the 2^d
cubes of the next side down, O(#cubes) (CubeTable.half_range).  Its
computed statistic is min_j fl(fl(w_(m-kexc-1+j) - w_(j))/2) over its
sorted cells w; as w_(m-kexc-1+j) <= max, w_(j) >= min and rounding is
monotone, every term, so the statistic, is <= h.  A cube whose h is <= the
least s-row of what its containers already carry therefore cannot change
any cell at any s: the sweep's side rule, CubeTable._bounded_qosc, skips
it, and its h stands in for its statistic in a max that discards it.
Statistics are >= 0, so this skips every constant cube (h = 0) below the
largest side; a side with kexc = 0 at every s reads h itself, which is its
statistic.

A cube left is certified before it is sorted.  Next to each running max
the sweep carries a witness: an interval [lo, hi] of f's values whose
half-width fl(fl(hi - lo)/2) is at most that max, such as the interval
[w_(j), w_(m-kexc-1+j)] on which a sorted container attains its
statistic.  If at most kexc of the cube's cells lie outside the witness
its containers carry, its statistic is at most that half-width, so at most
what they carry (the proof, with rounding, is in _bounded_qosc's
docstring): the cube is skipped as a half-range-pruned one is, at every s
at once, and every output keeps its bits.  Only the cubes that fail the
count are sorted.  The count runs on sides whose cubes left hold many
cells (grid._COUNT_CELLS); there, on full-cube tables, the windows counted
and sorted hold dense integer ranks of f's values (CubeTable._sort_keys).
hl_maximal and sharp_maximal sweep a statistic array with no side rule.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import (Cube, CubeTable, GridFunction, _cube_values, _qosc_sorted,
                   exceedance_count)
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


def hl_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Hardy-Littlewood maximal function: sup of cube averages of |f| over
    cubes containing the cell.  Dominates |f| pointwise."""
    table = CubeTable(f.with_values(np.abs(f.values)), resolve_cube_mode(f, cube_mode))
    return f.with_values(table.sup(table.mean))


def sharp_maximal(f: GridFunction, cube_mode: str = "auto") -> GridFunction:
    """Sharp maximal function: sup of mean oscillations over containing
    cubes.  Its sup norm is the BMO norm of f."""
    table = CubeTable(f, resolve_cube_mode(f, cube_mode))
    return f.with_values(table.sup(table.osc))


def quantile_oscillation(f: GridFunction, q: Cube, s: float) -> float:
    """Best deviation level from an optimal constant with an s-fraction of
    the cube allowed to exceed it.

    With sorted cube values and kexc allowed exceedances the optimum drops j
    values below and kexc-j above and takes the half-width of the remaining
    window, minimized over j; this is the exact discrete infimum over the
    constant and the level.
    """
    vals = np.sort(_cube_values(f, q))
    return float(_qosc_sorted(vals[None, :], exceedance_count(s, vals.size))[0])


def local_maximals(f: GridFunction, svals, cube_mode: str = "auto") -> list:
    """Local maximal functions M#_s f for every s of svals, in that order.

    One container-max sweep, whose side rule CubeTable._bounded_qosc skips
    every cube that the half-range bound or the witness count shows cannot
    raise a cell, carries the quantile oscillations at every s to the
    cells, sorting each cube left once.  Each result equals
    local_maximal(f, s) bit for bit.
    """
    svals = list(svals)
    for s in svals:
        exceedance_count(s, 1)
    if not svals:
        return []
    table = CubeTable(f, resolve_cube_mode(f, cube_mode))
    best = table.sup(lambda k, *carried: table._bounded_qosc(k, svals, *carried))
    return [f.with_values(row) for row in best]


def local_maximal(
    f: GridFunction, s: float = DEFAULT_S, cube_mode: str = "auto"
) -> GridFunction:
    """Local (quantile) maximal function: sup of quantile oscillations over
    containing cubes.  Decreases pointwise as s grows; bounded by osc/s
    through the Chebyshev inequality.  The one-level call of
    local_maximals."""
    return local_maximals(f, [s], cube_mode)[0]


def sharp_norm(f: GridFunction, space: RISpaceSpec, cube_mode: str = "auto") -> float:
    """Norm of the sharp maximal function: ||f||_{X#} = ||f#||_X."""
    return norm(space, rearrange(sharp_maximal(f, cube_mode)))
