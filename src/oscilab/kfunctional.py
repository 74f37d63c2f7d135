"""K-functional profiles for (L1, Linf) and (L1, BMO), by four routes.

The (L1, BMO) routes are equivalents of the true K-functional, not the
functional itself, so their raw values need not be monotone in t.  Profiles
therefore report the running maximum of the raw route values: this is the
canonical non-decreasing representative and preserves every equivalence
constant, since the true K-functional is non-decreasing.  The raw ratios
K(t)/t are non-increasing for every route, and remain so after the
correction.

The packing route evaluates F(t) = sup over packings of the rearranged
mean-oscillation step function at t: F(t) is the largest oscillation level
v for which the maximal total measure of a disjoint family of cubes with
oscillation >= v exceeds t.  Wherever it is exact (1D, dyadic cubes, and
2D full cubes with N <= 4, by the skyline DP of packing) one bottleneck
(max-min) computation gives the largest minimum oscillation for every
packed cell count, hence F at every t at once; larger 2D full-cube grids
count greedily packed cells per level, a lower bound.  Measures are
compared in integer cell counts so every route and the exhaustive oracle
use bitwise-identical comparisons.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .grid import CubeTable, GridFunction
from .maximal import DEFAULT_S, local_maximal, resolve_cube_mode, sharp_maximal
from .packing import _best_by_cells, _exact_packing, _greedy_disjoint, _vitali
from .rearrange import StepProfile, profile_from_cells, rearrange

__all__ = [
    "KProfile",
    "k_l1_linf",
    "k_l1_bmo",
    "f_sharp_profile",
    "f_sharp_curve",
    "vitali_threshold_estimate",
    "default_t_grid",
    "running_max",
    "equivalence_report",
]

_LEVEL_CAP_2D = 160


def running_max(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False)
class KProfile:
    """A K-functional profile on a t-grid.

    Invariants (validated): values >= 0, t -> K(t) non-decreasing and
    t -> K(t)/t non-increasing.
    """

    t: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size != v.size or t.size == 0:
            raise ConfigError("K profile needs matching nonempty t and values")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ConfigError("K profile t and values must be finite")
        if np.any(t <= 0) or np.any(t > 1) or np.any(np.diff(t) <= 0):
            raise ConfigError("t grid must be increasing inside (0, 1]")
        scale = max(1.0, float(v.max(initial=0.0)))
        if np.any(v < -1e-12 * scale):
            raise InvariantViolation(f"{self.method}: negative K values")
        if np.any(np.diff(v) < -1e-9 * scale):
            raise InvariantViolation(f"{self.method}: K not non-decreasing")
        ratios = v / t
        rscale = max(1.0, float(ratios.max(initial=0.0)))
        if np.any(np.diff(ratios) > 1e-9 * rscale):
            raise InvariantViolation(f"{self.method}: K/t not non-increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", np.maximum(v, 0.0))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,value,method\n")
            for t, v in zip(self.t, self.values):
                fh.write(f"{t:.17g},{v:.17g},{self.method}\n")


def equivalence_report(profiles: dict, function_id: str) -> list:
    """Pairwise ratio summary of K-profiles sharing a t-grid.

    One entry per method pair: {method_pair, min_ratio, max_ratio, argmax_t,
    function_id}; points where either profile vanishes are skipped.
    """
    names = sorted(profiles)
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pa, pb = profiles[a], profiles[b]
            if pa.t.size != pb.t.size or np.any(pa.t != pb.t):
                raise ConfigError("equivalence report needs a shared t-grid")
            mask = (pa.values > 0) & (pb.values > 0)
            entry = {
                "method_pair": f"{a}/{b}",
                "min_ratio": None,
                "max_ratio": None,
                "argmax_t": None,
                "function_id": function_id,
            }
            if mask.any():
                ratios = pa.values[mask] / pb.values[mask]
                j = int(np.argmax(ratios))
                entry.update(
                    min_ratio=float(ratios.min()),
                    max_ratio=float(ratios.max()),
                    argmax_t=float(pa.t[mask][j]),
                )
            out.append(entry)
    return out


def default_t_grid(
    f: GridFunction, cube_mode: str = "auto", sharp: StepProfile | None = None
) -> np.ndarray:
    """Breakpoints of (f#)* joined with a 64-point logarithmic grid; sharp
    is (f#)* when the caller has it already."""
    prof = rearrange(sharp_maximal(f, cube_mode)) if sharp is None else sharp
    lo = max(min(0.5 * f.cell_measure, 0.5), 1e-6)
    grid = np.union1d(prof.breakpoints[1:], np.geomspace(lo, 1.0, 64))
    grid = grid[(grid > 0) & (grid <= 1.0)]
    if grid.size > 4096:
        grid = grid[np.unique(np.linspace(0, grid.size - 1, 4096).astype(int))]
    return grid


def k_l1_linf(f: GridFunction, t_grid=None) -> KProfile:
    """K(t, f; L1, Linf) = int_0^t f*(u) du, exact from the step profile."""
    prof = rearrange(f)
    if t_grid is None:
        t_grid = np.union1d(prof.breakpoints[1:], np.geomspace(1e-4, 1.0, 64))
    t_grid = np.asarray(t_grid, dtype=float)
    return KProfile(t_grid, prof.integral_to(t_grid), "L1Linf")


def _mean_zero(f: GridFunction) -> GridFunction:
    return f.with_values(f.values - f.mean())


def k_l1_bmo(
    f: GridFunction,
    t_grid=None,
    method: str = "BS",
    s: float = DEFAULT_S,
    p: float | None = None,
    cube_mode: str = "auto",
) -> KProfile:
    """K-profile for (L1, BMO) by the chosen route, on mean-zero f.

    BS   -> t * (f#)*(t)
    JT   -> int_0^t (M#_s f)*(u) du
    PACK -> t * F(t), packing profile F
    PACK_P -> t * F_p(t), the L_p variant (needs p in (0,1))
    """
    f0 = _mean_zero(f)
    # (f#)* for BS and the default t-grid, and the packing profile F, read
    # one table's mean oscillations
    table = CubeTable(f0, resolve_cube_mode(f0, cube_mode))
    sharp = (profile_from_cells(table.sup(table.osc))
             if method == "BS" or t_grid is None else None)
    if t_grid is None:
        t_grid = default_t_grid(f0, cube_mode, sharp)
    t_grid = np.asarray(t_grid, dtype=float)
    if method == "BS":
        raw = t_grid * sharp.sample(t_grid)
    elif method == "JT":
        prof = rearrange(local_maximal(f0, s, cube_mode))
        raw = prof.integral_to(t_grid)
    elif method == "PACK":
        raw = t_grid * _f_values(table, table.osc, t_grid)
    elif method == "PACK_P":
        if p is None or not 0 < p < 1:
            raise ConfigError("PACK_P needs p in (0,1)")
        raw = t_grid * _f_values(table, table.osc_p(p), t_grid)
        method = f"PACK_P({p:g})"
    else:
        raise ConfigError(f"unknown K method {method!r}")
    return KProfile(t_grid, running_max(raw), method)


# ---------------------------------------------------------------------------
# the packing profile F

def _f_values(table: CubeTable, stat: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """F at every t of ts, each inside (0, 1], for one statistic of a
    grid.CubeTable, flat over its cube positions (side, origin lex).

    F(t) is the largest statistic level v for which the maximal cell count
    of a disjoint family of cubes with statistic >= v exceeds t*N^d, that
    is the largest minimum statistic over packings of more than t*N^d cells.
    Every exact case reads it from one table best[c], the largest minimum
    statistic over packings of at least c cells, with one searchsorted:
    - dyadic cubes, 1D and 2D: they are nested or disjoint, so the maximal
      cubes with statistic >= v pack their whole union and best[c] is the
      c-th largest over cells of the top statistic of a cube holding it,
      O(N^d log N).
    - full cubes where packing._exact_packing holds (1D, and 2D N <= 4):
      the suffix maximum of packing._best_by_cells with np.minimum, the
      largest minimum statistic per exactly covered cell count (the 1D
      cell-count DP, O(N^3), or the 2D skyline DP).
    2D full cubes beyond that guard search the greedy counts of
    _greedy_counts_2d with _level_search, a certified lower bound.
    """
    if not np.all((ts > 0) & (ts <= 1)):
        raise ConfigError("F is defined on (0, 1]")
    n, d = table.f.res, table.f.dim
    if table.dyadic:
        best = np.concatenate(([np.inf], np.sort(table.sup(stat))[::-1]))
    elif _exact_packing(n, d):
        best = _best_by_cells(table.sides, table.starts, stat, n, d, np.minimum)[0]
        best = np.maximum.accumulate(best[::-1])[::-1]
    else:
        levels, cells = _greedy_counts_2d(table, stat)
        return np.array([_level_search(levels, cells, float(t) * n**d) for t in ts])
    best = np.append(best, -np.inf)  # c = 0..N^d+1
    # smallest cell count c with c > t*N^d
    vals = best[np.searchsorted(np.arange(n**d + 1), ts * n**d, side="right")]
    return np.where(vals > 0, vals, 0.0)


def _greedy_counts_2d(table: CubeTable, stat: np.ndarray):
    """(levels, cells) for a 2D full-cube table: the positive statistic
    levels ascending, thinned to _LEVEL_CAP_2D, and cells(i), the cell count
    of one packing._greedy_disjoint pass, side descending then origin lex,
    over the cubes with statistic >= levels[i]; a lower bound on the
    maximal packed count, memoised per level."""
    levels = np.unique(stat[stat > 0])
    if levels.size > _LEVEL_CAP_2D:
        # keep the exact top levels and the whole-cube statistic (the
        # ||f||_1 witness near t=1), thin the rest uniformly
        top = levels[-32:]
        rest = levels[:-32]
        pick = np.unique(
            np.linspace(0, rest.size - 1, _LEVEL_CAP_2D - 32).astype(int)
        )
        levels = np.union1d(rest[pick], top)
        if stat[-1] > 0:
            levels = np.union1d(levels, [stat[-1]])
    n, sides, starts = table.f.res, table.sides, table.starts
    order = np.lexsort((starts, -sides))
    ranked = stat[order]  # gathered once for every level

    @functools.cache
    def cells(i: int) -> int:
        idx = order[ranked >= levels[i]]
        kept = _greedy_disjoint(sides[idx], starts[idx], n, 2)
        return int((sides[idx[kept]] ** 2).sum())

    return levels, cells


def _level_search(levels: np.ndarray, cells, threshold: float) -> float:
    """The largest of the ascending levels whose packed cell count
    cells(i) exceeds threshold, 0.0 if none does.

    A binary search: it assumes the counts fall as the level rises.  Greedy
    counts need not, and where they do not it may stop at a level below the
    largest one whose count exceeds threshold.
    """
    if levels.size == 0 or cells(0) <= threshold:
        return 0.0
    lo, hi = 0, levels.size - 1  # predicate cells(i) > threshold decreasing
    if cells(hi) > threshold:
        return float(levels[hi])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cells(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return float(levels[lo])


def f_sharp_curve(
    f: GridFunction,
    t_grid,
    p: float | None = None,
    cube_mode: str = "auto",
) -> np.ndarray:
    """F(t) (or its L_p variant, 0 < p < 1) on a grid of t values."""
    if p is not None and not 0 < p < 1:
        raise ConfigError(f"p must lie in (0,1), got {p}")
    ts = np.asarray(t_grid, dtype=float)
    table = CubeTable(f, resolve_cube_mode(f, cube_mode))
    return _f_values(table, table.osc_p(p), ts)


def f_sharp_profile(
    f: GridFunction, t: float, p: float | None = None, cube_mode: str = "auto"
) -> float:
    """The packing profile F(t) = sup over packings of (S_pi)*(t); for
    0 < p < 1 its L_p variant, with cube statistic
    ((1/|Q|) int_Q |f-f_Q|^p)^(1/p)."""
    return float(f_sharp_curve(f, [t], p, cube_mode)[0])


def vitali_threshold_estimate(
    f: GridFunction, t: float, cube_mode: str = "auto"
) -> float:
    """Lower-bound witness for F built from a Vitali selection.

    Threshold at tau = (f#)* evaluated at the dilated point min(5^d t, 1),
    select disjoint cubes among those with oscillation >= tau, and return
    the left-continuous value at t of the selection's rearranged step
    function.  Satisfies (f#)*(5^d t) <= estimate for t <= 5^-d.
    """
    if not 0 < t <= 1:
        raise ConfigError("t must lie in (0, 1]")
    n, d = f.res, f.dim
    table = CubeTable(f, resolve_cube_mode(f, cube_mode))  # f# and the cubes
    prof = profile_from_cells(table.sup(table.osc))
    u = min(5.0**d * t, 1.0)
    tau = prof.value_at(u)
    if tau <= 0:
        return 0.0
    keep = np.nonzero(table.osc >= tau)[0]
    kept = keep[_vitali(table.sides[keep], table.starts[keep], n, d)]
    pairs = sorted(zip(table.osc[kept].tolist(), table.meas[kept].tolist()),
                   reverse=True)
    widths = [m for _, m in pairs]
    values = [v for v, _ in pairs]
    total = math.fsum(widths)
    if total < 1.0 - 1e-12:
        widths.append(1.0 - total)
        values.append(0.0)
    bp = np.concatenate(([0.0], np.cumsum(widths)))
    bp[-1] = 1.0
    sprof = StepProfile(bp, np.array(values))
    return sprof.value_left(t)
