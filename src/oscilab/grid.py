"""Grid discretization of the unit cube: grid functions, subcubes, packings.

Everything downstream works on cell-constant functions over a uniform grid
on Q0 = [0,1]^d with d in {1,2} and total measure normalized to 1.  Cubes are
axis-aligned, grid-aligned subcubes addressed by an origin cell index vector
and a side length in cells.

This is the one module that maps cubes to integers, the one that computes
per-cube statistics, and the one that carries them to the cells.  Other
modules address a cube by its flat position in the (side, origin lex) order
of enumerate_cubes; _family gives each position its side and first cell
(the flat index of its origin cell), and CubeTable gives each position its
statistics, every one computed by a single reducer here: means, integrals,
mean and L_p oscillations, double oscillations and the quantile
oscillations of the local maximal function.
Every reader of a side's cube windows reads one layout, _side_view: a
read-only view, origins first, of the cells of every cube of that side;
CubeTable reads it through one method, CubeTable._view.  CubeTable.sup is
the one container sweep: per cell, the max of a per-cube statistic over
the family's cubes holding the cell, as the maximal operators and F take it;
with a side rule, as the local maximal function takes it, it carries with
each max a witness interval that certifies cubes without sorting them.

It also holds the one reader of input files, _read_csv_rows with
_csv_numbers; read_grid_csv, spaces.phi_from_csv and the CLI's profile
reader add only their own format rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, GeometryError

__all__ = [
    "GridFunction",
    "Cube",
    "Packing",
    "cube_mean",
    "mean_oscillation",
    "double_oscillation",
    "enumerate_cubes",
    "cubes_containing",
    "sides_for",
    "read_grid_csv",
    "write_grid_csv",
]

CSV_HEADER_PREFIX = "# oscilab"


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Cell-constant real function on the uniform N^d grid over [0,1]^d.

    ``values`` is flat, row-major (for d=2 cell (i,j) sits at index i*N+j),
    and read-only, but not a copy where numpy can view the caller's array:
    writes through that array still reach it.
    """

    dim: int
    res: int
    values: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if self.res < 1:
            raise ConfigError(f"res must be >= 1, got {self.res}")
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != self.res**self.dim:
            raise ConfigError(
                f"expected {self.res ** self.dim} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("grid values must be finite")
        vals.flags.writeable = False  # a new array object: the caller's stays writeable
        object.__setattr__(self, "values", vals)

    @property
    def cell_measure(self) -> float:
        return float(self.res) ** (-self.dim)

    @property
    def ncells(self) -> int:
        return self.res**self.dim

    @property
    def array(self) -> np.ndarray:
        """Values shaped (N,) for d=1 or (N,N) for d=2 (view)."""
        if self.dim == 1:
            return self.values
        return self.values.reshape(self.res, self.res)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.dim, self.res, values)

    def mean(self) -> float:
        return math.fsum(self.values) / self.ncells


@dataclass(frozen=True, order=True)
class Cube:
    """Axis-aligned grid-aligned subcube: origin cell indices + side in cells."""

    side: int = field()
    origin: tuple = field()

    def __init__(self, origin: Sequence[int], side: int):
        object.__setattr__(self, "origin", tuple(int(o) for o in origin))
        object.__setattr__(self, "side", int(side))
        if self.side < 1:
            raise GeometryError(f"cube side must be >= 1, got {side}")
        if any(o < 0 for o in self.origin):
            raise GeometryError(f"cube origin must be nonnegative, got {origin}")

    @property
    def dim(self) -> int:
        return len(self.origin)

    def check(self, f_or_res, dim: int | None = None) -> None:
        """Raise GeometryError unless the cube fits the given grid."""
        if isinstance(f_or_res, GridFunction):
            res, dim = f_or_res.res, f_or_res.dim
        else:
            res = int(f_or_res)
        if dim is not None and self.dim != dim:
            raise GeometryError(f"cube dim {self.dim} != grid dim {dim}")
        if any(o + self.side > res for o in self.origin):
            raise GeometryError(f"cube {self} exceeds grid of {res} cells per axis")

    def ncells(self) -> int:
        return self.side**self.dim

    def measure(self, res: int) -> float:
        return (self.side / res) ** self.dim

    def flat_cells(self, res: int) -> np.ndarray:
        """Flat row-major indices of the covered cells."""
        if self.dim == 1:
            return np.arange(self.origin[0], self.origin[0] + self.side)
        rows = np.arange(self.origin[0], self.origin[0] + self.side)
        cols = np.arange(self.origin[1], self.origin[1] + self.side)
        return (rows[:, None] * res + cols[None, :]).ravel()

    def contains_cell(self, x: Sequence[int]) -> bool:
        xs = tuple(int(v) for v in x)
        if len(xs) != self.dim:
            raise GeometryError("cell index dimension mismatch")
        return all(o <= v < o + self.side for o, v in zip(self.origin, xs))

    def to_json(self) -> dict:
        return {"origin": list(self.origin), "side": self.side}


@dataclass
class Packing:
    """Finite family of cubes with pairwise-disjoint cell sets."""

    cubes: list

    def __init__(self, cubes: Iterable[Cube], res: int | None = None):
        self.cubes = list(cubes)
        if res is not None:
            self.validate(res)

    def validate(self, res: int) -> None:
        seen = set()
        for q in self.cubes:
            q.check(res)
            cells = q.flat_cells(res)
            for c in cells.tolist():
                if c in seen:
                    raise GeometryError("packing cubes overlap")
                seen.add(c)

    def total_measure(self, res: int) -> float:
        return math.fsum(q.measure(res) for q in self.cubes)

    def total_cells(self) -> int:
        return sum(q.ncells() for q in self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def to_json(self) -> list:
        return [q.to_json() for q in self.cubes]


# ---------------------------------------------------------------------------
# single-cube integrals (compensated summation, canonical cell order)

def _cube_values(f: GridFunction, q: Cube) -> np.ndarray:
    q.check(f)
    return f.values[q.flat_cells(f.res)]


def cube_mean(f: GridFunction, q: Cube) -> float:
    """Average of f over the cube, (1/|Q|) * integral of f."""
    vals = _cube_values(f, q)
    return math.fsum(vals.tolist()) / vals.size


def mean_oscillation(f: GridFunction, q: Cube) -> float:
    """Mean deviation from the cube average, (1/|Q|) * integral |f - f_Q|."""
    vals = _cube_values(f, q)
    mu = math.fsum(vals.tolist()) / vals.size
    return math.fsum(abs(v - mu) for v in vals.tolist()) / vals.size


def double_oscillation(f: GridFunction, q: Cube) -> float:
    """Normalized double integral (1/|Q|) * iint_{QxQ} |f(x)-f(y)| dx dy.

    Computed from the sorted cube values: the full double sum over ordered
    cell pairs equals 2 * sum_i (2i-1-m) v_(i).  Always sits between
    |Q|*osc(Q) and 2*|Q|*osc(Q).
    """
    vals = np.sort(_cube_values(f, q))
    m = vals.size
    coef = 2.0 * (2.0 * np.arange(1, m + 1) - 1.0 - m)
    pair_sum = math.fsum((coef * vals).tolist())
    h = f.cell_measure
    return h * pair_sum / m


# ---------------------------------------------------------------------------
# cube enumeration

def _check_grid(grid) -> tuple:
    d, n = grid
    d, n = int(d), int(n)
    if d not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {d}")
    if n < 1:
        raise ConfigError(f"N must be >= 1, got {n}")
    return d, n


def sides_for(res: int, dyadic_only: bool = False) -> list:
    """Candidate cube sides, ascending.  Dyadic mode needs N a power of two."""
    if not dyadic_only:
        return list(range(1, res + 1))
    if res & (res - 1) != 0:
        raise ConfigError(f"dyadic cubes need N a power of two, got N={res}")
    sides = []
    k = 1
    while k <= res:
        sides.append(k)
        k *= 2
    return sides


def enumerate_cubes(grid, dyadic_only: bool = False) -> list:
    """All grid-aligned subcubes in canonical order (side, then origin lex).

    Full mode counts N(N+1)/2 cubes in 1D and sum_k (N-k+1)^2 in 2D.
    """
    d, n = _check_grid(grid)
    out = []
    for k in sides_for(n, dyadic_only):
        step = k if dyadic_only else 1
        origins = range(0, n - k + 1, step)
        if d == 1:
            out.extend(Cube((o,), k) for o in origins)
        else:
            out.extend(Cube((i, j), k) for i in origins for j in origins)
    return out


def _family(n: int, d: int, sides_list, dyadic: bool = False) -> tuple:
    """(sides, first cells) of every cube of the given sides, one entry per
    flat position, in the (side, origin lex) order of enumerate_cubes."""
    ks = np.array(list(sides_list), dtype=int)
    step = ks if dyadic else np.ones_like(ks)
    per_axis = (n - ks) // step + 1
    count = per_axis**d
    sides = np.repeat(ks, count)
    i = np.arange(sides.size) - np.repeat(np.cumsum(count) - count, count)
    step, per_axis = np.repeat(step, count), np.repeat(per_axis, count)
    starts = i if d == 1 else i // per_axis * n + i % per_axis  # in steps
    return sides, starts * step


def _index_to_cube(k: int, s: int, n: int, d: int) -> Cube:
    """The side-k cube whose origin is the cell of flat index s."""
    return Cube((s,) if d == 1 else divmod(s, n), k)


def _cube_index(cubes: Iterable[Cube], grid) -> tuple:
    """(sides, first cells) integer arrays of a cube sequence, after checking
    the grid and that every cube fits it."""
    d, n = _check_grid(grid)
    sides, starts = [], []
    for q in cubes:
        q.check(n, d)
        sides.append(q.side)
        starts.append(q.origin[0] if d == 1 else q.origin[0] * n + q.origin[1])
    return np.array(sides, dtype=int), np.array(starts, dtype=int)


def cubes_containing(grid, x: Sequence[int], dyadic_only: bool = False) -> list:
    """All cubes whose cell set contains the cell index vector x."""
    d, n = _check_grid(grid)
    xs = tuple(int(v) for v in (x if isinstance(x, (tuple, list, np.ndarray)) else (x,)))
    if len(xs) != d:
        raise GeometryError(f"expected {d} cell indices, got {xs}")
    if any(not 0 <= v < n for v in xs):
        raise GeometryError(f"cell index {xs} out of range for N={n}")
    out = []
    for k in sides_for(n, dyadic_only):
        step = k if dyadic_only else 1
        ranges = []
        for v in xs:
            lo = max(0, v - k + 1)
            hi = min(v, n - k)
            valid = [o for o in range(lo, hi + 1) if o % step == 0]
            ranges.append(valid)
        if d == 1:
            out.extend(Cube((o,), k) for o in ranges[0])
        else:
            out.extend(Cube((i, j), k) for i in ranges[0] for j in ranges[1])
    return out


# ---------------------------------------------------------------------------
# vectorized cube statistics (shared by maximal operators and functionals)

def _side_view(values: np.ndarray, n: int, d: int, k: int, dyadic: bool) -> np.ndarray:
    """Read-only view of shape (m,)*d + (k,)*d of every side-k cube's cells,
    origins in lex order first, over the flat row-major values of an n^d
    grid: full cubes (m = n-k+1) by one as_strided, dyadic cubes (m = n/k)
    by a reshape and transpose of the values.  A new cube family adds its
    origin rule here."""
    if dyadic:
        m = n // k
        view = values.reshape((m, k) * d).transpose(*range(0, 2 * d, 2),
                                                   *range(1, 2 * d, 2))
        view.flags.writeable = False
        return view
    (st,) = values.strides
    axes = (n * st, st)[2 - d:]
    return as_strided(values, (n - k + 1,) * d + (k,) * d, axes * 2, writeable=False)


_WINDOW_BLOCK = 1 << 15  # floats per 2D full window block: 256 KB, inside L2
# cells a side's cubes left after the half-range prune must hold for the
# local-maximal sweep to count them against carried witnesses before it
# sorts: on fewer, the count, the witnesses and the rank keys cost more
# numpy calls than the sorts they save (CubeTable._bounded_qosc).  Measured
# at s = 0.05, best of 15 in process: 2^13 ran 1D N=256 and 2D N=24 at
# 1.2-1.4x the time of 2^15, and 2^17 the 2D N=48 grids at 1.07-1.13x
_COUNT_CELLS = 1 << 15


def _row_mean(w: np.ndarray) -> np.ndarray:
    """w.mean(axis=1) without numpy's Python wrapper: the same bits."""
    return np.add.reduce(w, axis=1) / w.shape[1]


def _window_osc(w: np.ndarray, mu: np.ndarray, p: float | None = None) -> np.ndarray:
    """Per row of cube windows, the mean oscillation about the row mean mu,
    or with p the L_p oscillation (mean |w - mu|^p)^(1/p).  A writeable w is
    a private copy (CubeTable._window_stat's block buffer or a reshaped 2D
    dyadic view) and takes the deviations in place; a read-only w, a view
    of f's values, is never written and the deviations go to a fresh
    array."""
    dev = np.subtract(w, mu[:, None], out=w if w.flags.writeable else None)
    np.abs(dev, out=dev)
    if p is None:
        return _row_mean(dev)
    return _row_mean(np.power(dev, p, out=dev)) ** (1.0 / p)


def exceedance_count(s: float, m: int) -> int:
    """Cells allowed to exceed the deviation level: the exact translation of
    the strict bound count < s*m on an m-cell cube (snapped against float
    dust in s*m)."""
    if not 0 < s < 1:
        raise ConfigError(f"quantile parameter must lie in (0,1), got {s}")
    return max(math.ceil(s * m - 1e-9) - 1, 0)


def _qosc_sorted(w_sorted: np.ndarray, kexc: int) -> np.ndarray:
    m = w_sorted.shape[1]
    return (w_sorted[:, m - kexc - 1:] - w_sorted[:, : kexc + 1]).min(axis=1) / 2.0


def _qosc_rows(w_sorted: np.ndarray, kexcs, values=None, witness: bool = False) -> tuple:
    """(qosc, witnesses) of sorted windows, one qosc row per exceedance
    count of kexcs, each as _qosc_sorted: min over j of
    fl(fl(w_(m-kexc-1+j) - w_(j))/2).  With values, the windows hold keys
    into it, and only these 2(kexc+1) order statistics are read through
    it.  With witness, witnesses (2, rows, windows) holds each window's
    keys [w_(j*), w_(m-kexc-1+j*)] at the first j* where the minimum is
    attained, an interval whose half-width in values is the statistic;
    else None."""
    m, by_kexc, ends = w_sorted.shape[1], {}, {}
    for e in set(kexcs):
        upper, lower = w_sorted[:, m - e - 1:], w_sorted[:, : e + 1]
        gaps = upper - lower if values is None else values[upper] - values[lower]
        by_kexc[e] = gaps.min(axis=1) / 2.0
        if witness:
            at = gaps.argmin(axis=1)[:, None] + [0, m - e - 1]
            ends[e] = np.take_along_axis(w_sorted, at, axis=1).T
    qosc = np.array([by_kexc[e] for e in kexcs])
    return qosc, np.stack([ends[e] for e in kexcs], axis=1) if witness else None


def _up_one_side(a: np.ndarray, d: int, op, dyadic: bool, witness=None):
    """Combine with op, for each cube of the next side up, the values of the
    2^d cubes of side k that cover it.  a holds one value per side-k cube,
    shaped (..., m, ..., m) by origin over its last d axes.  Dyadic: the
    children of each side-2k cube, at even and odd origins.  Full: the
    side-(k+1) cube at origin o is covered by the side-k cubes at o + e,
    e in {0,1}^d, as k >= (k+1)/2; one axis at a time, d calls of op.
    With witness, shaped (2,) + a.shape, op is np.maximum and the result is
    (max, the witness of a cube holding the max): np.maximum keeps its
    second operand on ties, and so does the witness."""
    lo, hi = ((slice(0, None, 2), slice(1, None, 2)) if dyadic
              else (slice(0, -1), slice(1, None)))
    for axis in range(d):
        at = (slice(None),) * (d - 1 - axis)
        a0, a1 = a[(Ellipsis, lo, *at)], a[(Ellipsis, hi, *at)]
        if witness is not None:
            witness = np.where(a0 > a1, witness[(Ellipsis, lo, *at)],
                               witness[(Ellipsis, hi, *at)])
        a = op(a0, a1)
    return a if witness is None else (a, witness)


class CubeTable:
    """Every per-cube statistic of f over one cube family, full or dyadic.

    Each array is flat over cube positions in the _family order (side, then
    origin lex), and is computed on first read, once per table:
    - sides, starts: each cube's side and first cell (_family);
    - meas: each cube's measure, the per-side scalar (k/N)^d;
    - mean, sum: the cube average of f and the integral of f over it;
    - osc, osc_p(p): the mean oscillation as in mean_oscillation, and the
      L_p oscillation (mean |f - f_Q|^p)^(1/p);
    - do: the normalized double oscillation as in double_oscillation;
    - half_range: (max - min)/2 of f over each cube.
    side_qosc(k, svals, origins) gives the quantile oscillations of side
    k's cubes at the flat origin positions origins, one row per s, as in
    maximal.quantile_oscillation, and keeps none: local_maximals reads each
    side once through its sweep, whose side rule _bounded_qosc sorts only
    the cubes that can still raise a cell.  sup(stat) is the one container
    sweep: per cell, the max of a statistic over the cubes holding the
    cell.  Every statistic but half_range reads its windows through one
    reader, _view(k): full sides are slices of one strided view per table
    and source, dyadic sides a reshape of it.  mean, sum and the
    oscillations reduce each side's windows of f's values through
    _window_stat, in cache-sized blocks for 2D full cubes; the quantile
    sorts gather the cubes they are asked for, as sort keys (_sort_keys):
    a full table on which the sweep may count ranks f's values once and
    sorts integer ranks, while a dyadic table, a table too small to count
    and a grid holding -0.0 sort f's floats.  The arrays are read-only, as
    every reader of the table shares them.  by_side(stat) splits any such
    array along its last axis into views, {side: per-origin array}, in
    ascending side order.  Each call builds its own table and no
    statistic or view is kept on f:
    f.values may alias the caller's array, so a kept one could go stale.
    """

    def __init__(self, f: GridFunction, dyadic: bool = False):
        self.f, self.dyadic = f, dyadic
        self.side_list = sides_for(f.res, dyadic)
        self.counts = [((f.res - k) // (k if dyadic else 1) + 1) ** f.dim
                       for k in self.side_list]
        ends = np.cumsum(self.counts).tolist()
        self._slices = {k: slice(e - c, e)
                        for k, c, e in zip(self.side_list, self.counts, ends)}
        self._stats: dict = {}

    def _lazy(self, name, build) -> np.ndarray:
        if name not in self._stats:
            stat = self._stats[name] = build()
            stat.flags.writeable = False
        return self._stats[name]

    def _view(self, k: int, keys: bool = False) -> np.ndarray:
        """The table's one window reader: _side_view(f.values, N, d, k,
        dyadic), a read-only (m,)*d + (k,)*d view of every side-k cube's
        cells; with keys, of their sort keys (_sort_keys) instead.  A full
        side is the [:m]*d + [:k]*d slice, m = N-k+1, of one side-N view per
        table and source over the source zero-padded to (2N)^d, so no window
        reaches past its buffer and every slice reads f's cells."""
        f, n, d = self.f, self.f.res, self.f.dim
        src = self._sort_keys()[1] if keys else f.values
        if self.dyadic:
            return _side_view(src, n, d, k, True)

        def padded_view():
            buf = np.zeros((2 * n,) * d, src.dtype)
            buf[(slice(n),) * d] = src.reshape((n,) * d)
            return _side_view(buf.ravel(), 2 * n, d, n, False)

        name = "view" if src is f.values else "key view"
        return self._lazy(name, padded_view)[(slice(n - k + 1),) * d + (slice(k),) * d]

    def _sort_keys(self) -> tuple:
        """(values, keys): the quantile sorts gather, count and sort windows
        of keys and read their order statistics back as values[key] (the
        keys themselves where values is None).  Where a side may count
        (_count_from), a full table's keys are the dense ranks of f's
        values, one np.unique per table, as uint16 where they fit: sorts
        and counts then run on small integers.  A dyadic table reads each
        cell once per side, which a global rank sort does not repay, and a
        table where no side counts sorts too little to repay it, so both
        keep f's floats.  No side counts on a grid holding -0.0
        (_count_from), so it keeps them too: a rank merges -0.0 with 0.0,
        while the float sort's order of the two sets the sign of a zero
        statistic."""
        if "keys" not in self._stats:
            vals = self.f.values
            if self.dyadic or self._count_from() > self.f.res:
                self._stats["keys"] = None, vals
            else:
                u, ranks = np.unique(vals, return_inverse=True)
                small = u.size <= 1 << 16
                self._stats["keys"] = u, ranks.astype(np.uint16 if small else np.uint32)
        return self._stats["keys"]

    def _windows(self, k: int) -> np.ndarray:
        """_view(k), one row per cube, its cells in Cube.flat_cells order."""
        return self._view(k).reshape(-1, k**self.f.dim)

    def _window_stat(self, k: int, reduce) -> np.ndarray:
        """reduce(w) over the rows of _windows(k), joined along the last axis.

        1D and dyadic windows go to reduce as _windows gives them, often
        read-only views.  2D full windows are copied from _view(k) a few
        whole origin rows at a time (at most _WINDOW_BLOCK floats, or one
        origin row) into one reused buffer, so a side's windows never sit in
        memory at once; each row still holds its k^2 values in the order of
        _windows, so every row reduction gives the same bits.  reduce may
        write a writeable w, always a private copy, and must return a new
        array, never a view of w.
        """
        if self.f.dim == 1 or self.dyadic:
            return reduce(self._windows(k))
        view = self._view(k)
        m = view.shape[0]
        rows = min(m, max(1, _WINDOW_BLOCK // (m * k * k)))
        buf = np.empty((rows, m, k, k))
        parts = []
        for i in range(0, m, rows):
            b = buf[: min(rows, m - i)]
            b[...] = view[i: i + b.shape[0]]
            parts.append(reduce(b.reshape(-1, k * k)))
        return np.concatenate(parts, axis=-1)

    def _reduce(self, reduce) -> np.ndarray:
        return np.concatenate([self._window_stat(k, reduce)
                               for k in self.side_list], axis=-1)

    def by_side(self, stat: np.ndarray) -> dict:
        """{side: view of stat over that side's origins}, sliced along the
        last axis."""
        return {k: stat[..., sl] for k, sl in self._slices.items()}

    def sup(self, stat) -> np.ndarray:
        """best[..., cell] = max of a per-cube statistic over every cube of
        the table holding the cell.

        stat is an array (..., cubes) flat over the table's cubes, or a side
        rule stat(k, carried, witness) -> (part, witness) that gives each
        side's part itself from what its cubes' containers carry
        (local_maximals' rule is _bounded_qosc).  carried holds, per row,
        the max over the cubes strictly containing each cube of side k
        (-inf at the largest side); witness, with a leading axis of 2, holds
        per row and cube an interval of sort keys (lo, hi) whose half-width
        in values is at most that max, or is None.  Both flatten, after
        their leading axes, to the side's origins in order.  The rule
        returns part, (rows, origins), and the witnesses its cubes carry on,
        each of half-width at most max(part, carried), or None to carry
        none further.

        Sides are taken in descending order.  acc holds, per origin of the
        current side, the largest statistic over the cubes containing that
        cube; at side 1 these are the cells.  A full cube strictly inside
        another lies in a cube of the next side up inside it too, so its
        carried is the max of the previous acc over the 2^d cubes of side
        k+1 around it: acc keeps a -inf border so that max is _up_one_side
        of it, d maxima, which also pick the witness of a cube holding the
        max.  A dyadic cube's carried is its parent's acc, broadcast against
        a (m/2, 2)^d view of the side.  O(#cubes) work and no N^d temporary
        per side; a max of the same floats is exact, whichever order it is
        taken in.
        """
        n, d, dyadic = self.f.res, self.f.dim, self.dyadic
        parts = None if callable(stat) else self.by_side(stat)
        inner = (Ellipsis,) + (slice(1, -1),) * d
        acc, wit, carried = None, None, np.full(1, -np.inf)
        for k in reversed(self.side_list):
            m = n // k if dyadic else n - k + 1
            if acc is None:
                shape = (1,) * d
            elif dyadic:
                shape, up = (m // 2, 2) * d, lead + (m // 2, 1) * d
                carried = acc.reshape(up)
                if wit is not None:
                    wit = np.broadcast_to(wit.reshape((2,) + up), (2,) + lead + shape)
            elif wit is None:
                shape, carried = (m,) * d, _up_one_side(acc, d, np.maximum, False)
            else:
                shape = (m,) * d
                carried, wit = _up_one_side(acc, d, np.maximum, False, wit)
            if parts is None:
                whole = np.broadcast_to(carried, carried.shape[:1] + shape) if dyadic else carried
                part, wit = stat(k, whole, wit)
            else:
                part = parts[k]
            lead = part.shape[:-1]
            part = part.reshape(lead + shape)
            if wit is not None:
                wit = wit.reshape((2,) + lead + shape)
            if dyadic:
                acc = np.maximum(part, carried)
                continue
            acc = np.full(lead + (m + 2,) * d, -np.inf)
            np.maximum(part, carried, out=acc[inner])
            if wit is not None:
                border = np.empty((2,) + acc.shape, wit.dtype)
                border[inner] = wit
                wit = border
        return (acc if dyadic else acc[inner]).reshape(lead + (n**d,))

    @property
    def sides(self) -> np.ndarray:
        return self._lazy("sides", lambda: np.repeat(self.side_list, self.counts))

    @property
    def starts(self) -> np.ndarray:
        return self._lazy("starts", lambda: _family(
            self.f.res, self.f.dim, self.side_list, self.dyadic)[1])

    @property
    def meas(self) -> np.ndarray:
        n, d = self.f.res, self.f.dim
        return self._lazy("meas", lambda: np.repeat(
            [(k / n) ** d for k in self.side_list], self.counts))

    @property
    def mean(self) -> np.ndarray:
        return self._lazy("mean", lambda: self._reduce(_row_mean))

    @property
    def sum(self) -> np.ndarray:
        return self._lazy("sum", lambda: self._reduce(
            lambda w: w.sum(axis=1)) * self.f.cell_measure)

    @property
    def osc(self) -> np.ndarray:
        return self.osc_p(None)

    def osc_p(self, p: float | None) -> np.ndarray:
        return self._lazy(("osc", p), lambda: self._reduce(
            lambda w: _window_osc(w, _row_mean(w), p)))

    @property
    def half_range(self) -> np.ndarray:
        return self._lazy("half_range", self._half_ranges)

    def _half_ranges(self) -> np.ndarray:
        # each cube's max and min from those of the 2^d cubes of the next
        # side down that cover it, O(#cubes): a max or min of the same
        # floats is exact in any order.  Written into one array, so only
        # two sides' max and min live beside it
        f, d = self.f, self.f.dim
        out = np.empty(sum(self.counts))
        hi = lo = f.values.reshape((f.res,) * d)
        for k in self.side_list:
            if k > 1:
                hi = _up_one_side(hi, d, np.maximum, self.dyadic)
                lo = _up_one_side(lo, d, np.minimum, self.dyadic)
            np.subtract(hi, lo, out=out[self._slices[k]].reshape(hi.shape))
        out /= 2.0
        return out

    def side_qosc(self, k: int, svals, origins: np.ndarray) -> np.ndarray:
        """Quantile oscillations of side k's cubes, one row per s of svals,
        at the flat origin positions origins, as in
        maximal.quantile_oscillation: each window sorted once
        (_sorted_windows), then _qosc_rows once per distinct exceedance
        count kexc."""
        kexcs = [exceedance_count(s, k**self.f.dim) for s in svals]
        w = self._sorted_windows(k, origins)
        return _qosc_rows(w, kexcs, self._sort_keys()[0])[0]

    def _sorted_windows(self, k: int, origins: np.ndarray) -> np.ndarray:
        """The sort-key windows of side k's cubes at flat origins (_gather),
        each row sorted in place: the one place a quantile statistic sorts."""
        w = self._gather(k, origins)
        w.sort(axis=1)
        return w

    def _gather(self, k: int, origins: np.ndarray) -> np.ndarray:
        """The sort-key windows of side k's cubes at flat origins, one row
        per cube, in one writeable copy."""
        view = self._view(k, keys=True)
        return view[np.unravel_index(origins, view.shape[:self.f.dim])].reshape(-1, k**self.f.dim)

    def _bounded_qosc(self, k: int, svals, carried, witness) -> tuple:
        """Side k's rule in local_maximals' sweep (see sup): its quantile
        oscillations at every s, sorted only for the cubes that can still
        raise a cell, and the witnesses the sweep carries on.

        A side with kexc = 0 at every s takes its half-range, which is then
        its statistic, and carries no witness on: every smaller side has
        kexc = 0 too.  Otherwise a cube whose half-range h is <= the least
        row of carried cannot raise a cell (maximal's docstring).

        Count certificate.  A cube left counts, per row, its cells outside
        the carried witness [lo, hi], whose half-width fl(fl(hi - lo)/2) in
        values is at most the carried value c.  If at most kexc cells lie
        outside, the cube's statistic is <= fl(fl(hi - lo)/2) <= c.  Proof:
        let a cells of its sorted window w lie below lo and b above hi.
        Then w_(a) >= lo, and as a + b <= kexc, w_(m-kexc-1+a) <= w_(m-1-b)
        <= hi.  Rounded subtraction and halving are monotone, so term j = a
        of the statistic's minimum, fl(fl(w_(m-kexc-1+a) - w_(a))/2), is at
        most fl(fl(hi - lo)/2).  Ranks order cells as their values do, so
        the count reads keys.

        A cube certified at every row, like one the half-range skips, is
        not sorted: it takes min(h, carried), <= carried at every row, and
        the sweep's max returns carried, the bits it returns for the
        cube's statistic.  Those are the same bits only where no zero of
        one sign meets a zero of the other, so a grid holding -0.0 never
        counts (_count_from); on any other grid every statistic is +0.0
        or positive.  The cubes left are sorted (_sorted_windows) and
        carry their own intervals on; every other cube keeps the carried
        one.  The count and the rank keys pay only on many cells: a side
        counts when its cubes left hold _COUNT_CELLS cells or more.
        Witnesses start at the first such side, at zero width (every value
        below the largest side is >= 0), and go down while a smaller side
        may hold that many (_count_from); a side that carries none sorts
        every cube left (side_qosc).
        """
        d, h, rows = self.f.dim, self.half_range[self._slices[k]], len(svals)
        if exceedance_count(max(svals), k**d) == 0:
            return np.broadcast_to(h, (rows, h.size)), None
        carried = carried.reshape(len(carried), -1)
        need = (h > carried.min(axis=0)).nonzero()[0]
        many = need.size * k**d >= _COUNT_CELLS
        if witness is not None and many:
            kexcs = np.array([exceedance_count(s, k**d) for s in svals])[:, None]
            lo, hi = witness.reshape(2, rows, -1)[:, :, need, None]
            w = self._gather(k, need)
            outside = (w < lo) | (w > hi)
            count = np.add.reduce(outside, axis=-1, dtype=np.min_scalar_type(w.shape[1]))
            need = need[(count > kexcs).any(axis=0)]
        carry = k > self._count_from() and (witness is not None or many)
        if need.size == h.size and not carry:
            return self.side_qosc(k, svals, need), None
        part = np.minimum(h, carried, out=np.empty((rows, h.size)))
        if not carry:
            if need.size:
                part[:, need] = self.side_qosc(k, svals, need)
            return part, None
        if witness is None:
            witness = np.zeros((2,) + part.shape, self._sort_keys()[1].dtype)
        elif need.size:
            witness = witness.reshape(2, rows, -1).copy()
        if need.size:
            kexcs = [exceedance_count(s, k**d) for s in svals]
            part[:, need], witness[:, :, need] = _qosc_rows(
                self._sorted_windows(k, need), kexcs, self._sort_keys()[0], witness=True)
        return part, witness

    def _count_from(self) -> int:
        """The smallest side whose windows hold _COUNT_CELLS cells or more
        (N + 1 if none, or if f holds -0.0): below it no side counts, so no
        witness goes down."""
        if "count from" not in self._stats:
            d, vals = self.f.dim, self.f.values
            big = [k for k, c in zip(self.side_list, self.counts) if c * k**d >= _COUNT_CELLS]
            if np.signbit(vals[vals == 0]).any():
                big = []
            self._stats["count from"] = min(big, default=self.f.res + 1)
        return self._stats["count from"]

    @property
    def do(self) -> np.ndarray:
        return self._lazy("do", self._double_oscillations)

    def _double_oscillations(self) -> np.ndarray:
        # one sort and one @ coef product over all of a side's windows, not
        # blocks of them: the BLAS matrix-vector product gives bits that
        # depend on the row count, so blocks would change the values.  A
        # writeable window array is a private copy and is sorted in place
        h = self.f.cell_measure
        parts = []
        for k in self.side_list:
            ws = self._windows(k)
            if ws.flags.writeable:
                ws.sort(axis=1)
            else:
                ws = np.sort(ws, axis=1)
            m = ws.shape[1]
            coef = 2.0 * (2.0 * np.arange(1, m + 1) - 1.0 - m)
            parts.append((ws @ coef) * h / m)
        return np.concatenate(parts)


# ---------------------------------------------------------------------------
# CSV ingestion

def write_grid_csv(f: GridFunction, path) -> None:
    """Grid file format: header line, then one value per line (1D) or
    N comma-separated rows (2D)."""
    with open(path, "w") as fh:
        fh.write(f"{CSV_HEADER_PREFIX} d={f.dim} N={f.res}\n")
        if f.dim == 1:
            for v in f.values:
                fh.write(f"{v:.17g}\n")
        else:
            for row in f.array:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _read_csv_rows(path, what: str) -> list:
    """The non-blank lines of a CSV file, stripped and split at commas; an
    unreadable file is a ConfigError that names it as `what`."""
    try:
        with open(path) as fh:
            return [line.split(",") for line in map(str.strip, fh) if line]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _csv_numbers(rows, width: int | None, what: str, path) -> np.ndarray:
    """The first `width` fields of each row (every field with width=None),
    row after row, as one flat array of finite floats; a short row, a
    non-number or a non-finite value is a ConfigError."""
    if width is not None and any(len(r) < width for r in rows):
        raise ConfigError(f"{what} {path} needs {width} fields a row")
    fields = rows if width is None else (r[:width] for r in rows)
    try:
        vals = np.fromiter(map(float, chain.from_iterable(fields)), float)
    except ValueError as exc:
        raise ConfigError(f"non-numeric field in {what} {path}: {exc}") from exc
    if not np.isfinite(vals).all():
        raise ConfigError(f"non-finite number in {what} {path}")
    return vals


def read_grid_csv(path) -> GridFunction:
    rows = _read_csv_rows(path, "grid file")
    header = ",".join(rows[0]) if rows else ""
    if not header.startswith(CSV_HEADER_PREFIX):
        raise ConfigError(
            f"missing grid header '{CSV_HEADER_PREFIX} d=<d> N=<N>' in {path}"
        )
    try:
        fields = dict(
            tok.split("=") for tok in header[len(CSV_HEADER_PREFIX):].split()
        )
        d, n = int(fields["d"]), int(fields["N"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed grid header: {header!r}") from exc
    widths = set(map(len, rows[1:]))
    if len(widths) > 1 or d == 1 and widths - {1}:  # a 1D row holds one value
        raise ConfigError(f"ragged rows in grid file {path}")
    return GridFunction(d, n, _csv_numbers(rows[1:], None, "grid file", path))
