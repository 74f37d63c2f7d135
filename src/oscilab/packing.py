"""Optimization over cube packings: exhaustive enumeration, exact 1D dynamic
programs, an exact 2D subset DP for tiny grids, greedy Vitali selection.

1D problems are solved exactly: weighted interval scheduling, and DPs over
cell positions, each O(N) numpy steps that gather the weights of the cubes
ending at the current cell.  The unbudgeted DP solves a stack of weight rows
at once (O(N^2) work per row); the budgeted DP tracks cells used (O(N^3)
work, O(N^2) memory).  2D maximum-weight square packing is combinatorially
hard: on tiny grids (N <= 4) the best weight per covered cell count comes
from an include/exclude DP over bitmasks of covered cells (cubes x 2^(N^2)
numpy work) and the unconstrained optimum from pruned search over the cube
family; larger grids fall back to deterministic greedy selection whose value
is a certified lower bound.  Every greedy selection, here and in
functionals and kfunctional, is one pass of _greedy_disjoint.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, InvariantViolation, SizeGuardError
from .grid import Cube, Packing, enumerate_cubes

__all__ = [
    "enumerate_packings",
    "max_measure_packing",
    "max_additive_packing",
    "additive_pareto_1d",
    "additive_pareto_2d",
    "vitali_select",
    "union_measure",
    "ENUM_GUARD_1D",
    "ENUM_GUARD_2D",
]

ENUM_GUARD_1D = 12
ENUM_GUARD_2D = 4
VITALI_COVER_FACTOR = 5  # per-dimension constant of the covering argument


def _block(k: int, n: int, d: int) -> int:
    """Mask of the side-k cube at the origin of an N^d grid, bit c = cell c."""
    row = (1 << k) - 1
    return row if d == 1 else sum(row << (r * n) for r in range(k))


def _first_cell(q: Cube, n: int) -> int:
    return q.origin[0] if q.dim == 1 else q.origin[0] * n + q.origin[1]


def _cube_mask(q: Cube, res: int) -> int:
    return _block(q.side, res, q.dim) << _first_cell(q, res)


def _family(n: int, d: int, sides_list, dyadic: bool = False) -> tuple:
    """(sides, first cells) of every cube of the given sides, in the (side,
    origin lex) order of cube_stat_tables and enumerate_cubes."""
    sides, starts = [], []
    for k in sides_list:
        o = np.arange(0, n - k + 1, k if dyadic else 1)
        sides.append(np.full(o.size**d, k))
        starts.append(o if d == 1 else (o[:, None] * n + o).ravel())
    return np.concatenate(sides), np.concatenate(starts)


def _index(cubes: Sequence[Cube], n: int) -> tuple:
    """(sides, first cells) integer arrays of a list of cubes."""
    sides = np.array([q.side for q in cubes], dtype=int)
    return sides, np.array([_first_cell(q, n) for q in cubes], dtype=int)


def _cube(k: int, s: int, n: int, d: int) -> Cube:
    return Cube((s,) if d == 1 else divmod(s, n), k)


def _greedy_disjoint(sides, starts, n: int, d: int) -> list:
    """The one greedy disjoint selection: walk the cubes (side, first cell)
    in the given order, keep each that misses every cube kept so far, and
    return the kept positions in acceptance order.  The kept union is one
    Python int over the N^d cells and a cube's mask its side's block shifted
    to its first cell: one `&` per cube and one `|=` per keep, each on
    N^d-bit ints; the walk stops once every cell is covered."""
    sides, starts = sides.tolist(), starts.tolist()
    blocks = {k: _block(k, n, d) for k in set(sides)}
    full = (1 << n**d) - 1
    occ, kept = 0, []
    for i, (k, s) in enumerate(zip(sides, starts)):
        m = blocks[k] << s
        if not occ & m:
            occ |= m
            kept.append(i)
            if occ == full:
                break
    return kept


def enumerate_packings(grid) -> Iterator[Packing]:
    """Stream every nonempty packing exactly once, in canonical DFS order.

    Guarded: feasible only for 1D N <= 12 and 2D N <= 4.
    """
    d, n = int(grid[0]), int(grid[1])
    if (d == 1 and n > ENUM_GUARD_1D) or (d == 2 and n > ENUM_GUARD_2D):
        raise SizeGuardError(
            f"packing enumeration refused for d={d}, N={n} "
            f"(guards: 1D N<={ENUM_GUARD_1D}, 2D N<={ENUM_GUARD_2D})"
        )
    cubes = enumerate_cubes(grid)
    masks = [_cube_mask(q, n) for q in cubes]
    chosen: list = []

    def rec(start: int, used: int) -> Iterator[Packing]:
        for i in range(start, len(cubes)):
            if masks[i] & used:
                continue
            chosen.append(cubes[i])
            yield Packing(list(chosen))
            yield from rec(i + 1, used | masks[i])
            chosen.pop()

    yield from rec(0, 0)


# ---------------------------------------------------------------------------
# weight normalization

def _weight_vector_2d(weights, n: int) -> np.ndarray:
    """Weights of the cubes of enumerate_cubes((2, n)), in that order, from
    a {side: per-origin array in lexicographic origin order} dict (numpy,
    no Cube objects) or a Cube -> weight callable."""
    if isinstance(weights, dict):
        rows = [np.asarray(weights[k], dtype=float).ravel() for k in range(1, n + 1)]
        if any(r.size != (n - k + 1) ** 2 for k, r in enumerate(rows, 1)):
            raise ConfigError("weights[k] needs one entry per origin, (N-k+1)^2")
        return np.concatenate(rows)
    if callable(weights):
        return np.array([float(weights(q)) for q in enumerate_cubes((2, n))])
    raise ConfigError("weights must be a callable or {side: array} dict")


# ---------------------------------------------------------------------------
# 1D exact solvers

def _wis_1d(items: Sequence[tuple], n: int) -> tuple:
    """Weighted interval scheduling: items are (start, end, weight, cube).

    Exact max-weight disjoint subset; negative weights are never selected.
    Returns (chosen cubes, value).
    """
    items = sorted(items, key=lambda it: (it[1], it[0]))
    ends = [it[1] for it in items]
    m = len(items)
    best = [0.0] * (m + 1)
    take = [False] * (m + 1)
    pred = [0] * (m + 1)
    for i in range(1, m + 1):
        s, e, w, _ = items[i - 1]
        j = bisect_right(ends, s, 0, i - 1)
        cand = best[j] + w
        if cand > best[i - 1]:
            best[i], take[i], pred[i] = cand, True, j
        else:
            best[i] = best[i - 1]
    chosen = []
    i = m
    while i > 0:
        if take[i]:
            chosen.append(items[i - 1][3])
            i = pred[i]
        else:
            i -= 1
    chosen.sort()
    return chosen, best[m]


def _exact_search(entries: Sequence[tuple], res: int) -> tuple:
    """Exact max-weight packing by pruned DFS over (cube, weight) entries."""
    entries = [e for e in entries if e[1] > 0]
    entries.sort(key=lambda e: (-e[1], e[0]))
    masks = [_cube_mask(q, res) for q, _ in entries]
    suffix = [0.0] * (len(entries) + 1)
    for i in range(len(entries) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + entries[i][1]
    best_val = 0.0
    best_set: list = []
    cur: list = []

    def rec(i: int, used: int, acc: float):
        nonlocal best_val, best_set
        if acc > best_val:
            best_val, best_set = acc, list(cur)
        if i >= len(entries) or acc + suffix[i] <= best_val:
            return
        for j in range(i, len(entries)):
            if acc + suffix[j] <= best_val:
                return
            if masks[j] & used:
                continue
            cur.append(entries[j][0])
            rec(j + 1, used | masks[j], acc + entries[j][1])
            cur.pop()

    rec(0, 0, 0.0)
    best_set.sort()
    return best_set, best_val


def _greedy(sides, starts, w, n: int) -> tuple:
    """Deterministic 2D greedy: cubes with w > 0 by weight descending, ties
    by (side, origin) ascending.  Returns (kept positions sorted by (side,
    origin), the kept weights summed in acceptance order)."""
    pos = np.nonzero(w > 0)[0]
    order = pos[np.lexsort((starts[pos], sides[pos], -w[pos]))]
    kept = order[_greedy_disjoint(sides[order], starts[order], n, 2)]
    # cumsum adds left to right, the order of a running sum over acceptances
    val = float(np.cumsum(w[kept])[-1]) if kept.size else 0.0
    return kept[np.lexsort((starts[kept], sides[kept]))], val


def max_measure_packing(cubes: Iterable[Cube], grid) -> tuple:
    """Maximum total measure of pairwise-disjoint cubes from the candidates.

    1D: exact (weighted interval scheduling).  2D: exact for N <= 4, greedy
    by size descending otherwise (a certified lower bound).
    Returns (Packing, total measure).
    """
    d, n = int(grid[0]), int(grid[1])
    cubes = list(cubes)
    if d == 1:
        items = [
            (q.origin[0], q.origin[0] + q.side, q.measure(n), q) for q in cubes
        ]
        chosen, val = _wis_1d(items, n)
    elif n <= ENUM_GUARD_2D:
        chosen, val = _exact_search([(q, q.measure(n)) for q in cubes], n)
    else:
        w = np.array([q.measure(n) for q in cubes], dtype=float)
        kept, val = _greedy(*_index(cubes, n), w, n)
        chosen = [cubes[i] for i in kept]
    return Packing(chosen), val


def _weights_by_end_1d(sides, row_of, n: int) -> tuple:
    """(sides, at_end) with at_end(j)[i, r] the weight in row r of the cube
    [j - sides[i], j), -inf where sides[i] > j.

    row_of(k) gives the per-origin weights of side k, of shape (origins,) or
    (rows, origins); it is called once per side, and each result is copied
    straight into one flat (rows, cubes) table, side after side in the order
    of sides, which breaks ties between sides.  A trailing -inf column is
    what sides longer than j read.
    """
    keys = [k for k in sides if int(k) <= n]
    sides = np.array([int(k) for k in keys], dtype=int)
    width = n - sides + 1
    starts = np.cumsum(width) - width
    flat = np.full((1, 1), -np.inf)  # no sides: only the -inf column
    for i, (k, a, w) in enumerate(zip(keys, starts, width)):
        v = np.atleast_2d(np.asarray(row_of(k), dtype=float))
        if i == 0:  # the first side's rows give the row count
            flat = np.full((v.shape[0], width.sum() + 1), -np.inf)
        flat[:, a: a + w] = v[:, :w]
    first = starts - sides

    def at_end(j: int) -> np.ndarray:
        return flat[:, np.where(sides <= j, first + j, -1)].T

    return sides, at_end


def _dp_unbudgeted_1d(sides, row_of, n: int) -> list:
    """Max-weight packing for every weight row in one DP; the weights are
    read as in _weights_by_end_1d.

    best[j, r] is the best weight of row r inside [0, j); step j compares,
    for all rows at once, skipping cell j-1 with every cube ending at j.
    Skipping wins a tie, then the first side in the order of sides.  Returns
    one (chosen cubes, value) per row.
    """
    sides, at_end = _weights_by_end_1d(sides, row_of, n)
    choice = np.concatenate(([0], sides))  # 0 = skip
    rows = at_end(0).shape[1]
    best = np.zeros((n + 1, rows))
    taken = np.zeros((n + 1, rows), dtype=int)
    cand = np.empty((sides.size + 1, rows))
    cols = np.arange(rows)
    for j in range(1, n + 1):
        cand[0] = best[j - 1]
        np.add(best[np.maximum(j - sides, 0)], at_end(j), out=cand[1:])
        i = cand.argmax(axis=0)
        best[j] = cand[i, cols]
        taken[j] = choice[i]
    out = []
    for r in range(rows):
        chosen = []
        j = n
        while j > 0:
            k = int(taken[j, r])
            if k:
                chosen.append(Cube((j - k,), k))
            j -= k or 1
        chosen.sort()
        out.append((chosen, float(best[n, r])))
    return out


def additive_pareto_1d(weights, grid) -> np.ndarray:
    """value[m] = max sum of weights over packings covering exactly m cells.

    Exact DP over (cell position, cells used); -inf marks unreachable m for
    restricted candidate sets.  Non-decreasing in m when all weights >= 0.
    """
    d, n = int(grid[0]), int(grid[1])
    if d != 1:
        raise ConfigError("the exact budgeted DP is 1D only")
    g, _ = _dp_budgeted_1d(*_side_rows_1d(weights, n), n)
    return g[n, ::-1].copy()


def _side_rows_1d(weights, n: int) -> tuple:
    """(sides, row_of) for _weights_by_end_1d: the keys and values of a
    {side: per-origin array} dict, or every side of a Cube -> weight
    callable."""
    if isinstance(weights, dict):
        return list(weights), weights.__getitem__
    return range(1, n + 1), lambda k: [
        float(weights(Cube((o,), k))) for o in range(n - k + 1)
    ]


def additive_pareto_2d(weights, grid) -> np.ndarray:
    """value[m] = max sum of weights over 2D packings covering exactly m
    cells, for N <= ENUM_GUARD_2D; -inf marks unreachable m.

    Exact include/exclude DP over the cubes in enumerate_cubes order on one
    row of 2^(N^2) floats, best[mask] = the largest weight sum of a packing
    covering exactly the cells of mask.  Each cube is one numpy gather over
    the masks disjoint from it: cubes x 2^(N^2) work (30 x 65536 at N=4),
    one 512 KB row.  Weights are added in cube order, the order a
    left-to-right sum over enumerate_packings adds them, and x -> fl(x + w)
    is monotone, so value[m] equals the largest such sum bit for bit.
    """
    d, n = int(grid[0]), int(grid[1])
    if d != 2:
        raise ConfigError("additive_pareto_2d is 2D only")
    if n > ENUM_GUARD_2D:
        raise SizeGuardError(
            f"the 2D subset DP is guarded at N <= {ENUM_GUARD_2D}, got N={n}"
        )
    masks = np.arange(1 << (n * n))
    best = np.full(masks.size, -np.inf)
    best[0] = 0.0
    for q, w in zip(enumerate_cubes(grid), _weight_vector_2d(weights, n).tolist()):
        m = _cube_mask(q, n)
        src = masks[(masks & m) == 0]
        dst = src + m
        best[dst] = np.maximum(best[dst], best[src] + w)
    value = np.full(n * n + 1, -np.inf)
    np.maximum.at(value, np.bitwise_count(masks), best)
    return value


def max_additive_packing(weights, grid, measure_budget: int | None = None) -> tuple:
    """Maximize the sum of cube weights over packings.

    weights: callable Cube -> real, or {side: per-origin array}.  1D is an
    exact DP over cell positions in O(N) numpy steps: O(N^2) work, and
    O(N^3) work with O(N^2) memory for the budgeted variant.  2D is exact
    for N <= 4 and otherwise one _greedy_disjoint pass over the cubes with
    weight > 0, weight descending, ties by (side, origin); dict weights are
    read with numpy, a callable is called once per cube.  With
    measure_budget = m the packing must cover exactly m cells.  Returns
    (Packing, value); the empty packing (value 0) wins when every weight is
    <= 0.
    """
    d, n = int(grid[0]), int(grid[1])
    if d == 1:
        sides, row_of = _side_rows_1d(weights, n)
        if measure_budget is None:
            chosen, val = _dp_unbudgeted_1d(sides, row_of, n)[0]
            return Packing(chosen), val
        m = int(measure_budget)
        if not 0 <= m <= n:
            raise ConfigError(f"measure budget {m} outside 0..{n}")
        g, taken = _dp_budgeted_1d(sides, row_of, n)
        if not math.isfinite(g[n, n - m]):
            raise ConfigError(f"no packing covers exactly {m} cells")
        chosen = _reconstruct_budgeted(taken, n, m)
        return Packing(chosen), float(g[n, n - m])
    if measure_budget is not None:
        raise ConfigError("measure budgets are supported in 1D only")
    w = _weight_vector_2d(weights, n)
    if n <= ENUM_GUARD_2D:
        chosen, val = _exact_search(list(zip(enumerate_cubes(grid), w.tolist())), n)
        return Packing(chosen), val
    sides, starts = _family(n, 2, range(1, n + 1))
    kept, val = _greedy(sides, starts, w, n)
    return Packing([_cube(k, s, n, 2) for k, s in
                    zip(sides[kept].tolist(), starts[kept].tolist())]), val


def _dp_budgeted_1d(sides, row_of, n: int) -> tuple:
    """(g, taken): g[j, u] is the best weight of a packing inside [0, j)
    leaving exactly u of its cells uncovered (-inf where unreachable), and
    taken[j, u] the side of the cube ending at j in it, 0 for a skip.

    Indexing by uncovered count reads every earlier row unshifted: a cube
    [j-k, j) extends g[j-k, u] to g[j, u], skipping cell j-1 extends
    g[j-1, u-1].  Ties break as in _dp_unbudgeted_1d.
    """
    sides, at_end = _weights_by_end_1d(sides, row_of, n)
    choice = np.concatenate(([0], sides))
    g = np.full((n + 1, n + 1), -np.inf)
    g[0, 0] = 0.0
    taken = np.zeros((n + 1, n + 1), dtype=int)
    for j in range(1, n + 1):
        cand = np.empty((sides.size + 1, j))
        cand[0, 0] = -np.inf
        cand[0, 1:] = g[j - 1, : j - 1]
        np.add(g[np.maximum(j - sides, 0), :j], at_end(j), out=cand[1:])
        i = cand.argmax(axis=0)
        g[j, :j] = cand[i, np.arange(j)]
        g[j, j] = g[j - 1, j - 1]
        taken[j, :j] = choice[i]
    return g, taken


def _reconstruct_budgeted(taken: np.ndarray, n: int, m: int) -> list:
    chosen = []
    j, u = n, n - m
    while j > u:
        k = int(taken[j, u])
        if k:
            chosen.append(Cube((j - k,), k))
            j -= k
        else:
            j, u = j - 1, u - 1
    chosen.sort()
    return chosen


def _union_cells(sides, starts, n: int, d: int) -> int:
    occ = 0
    blocks = {k: _block(k, n, d) for k in set(sides.tolist())}
    for k, s in zip(sides.tolist(), starts.tolist()):
        occ |= blocks[k] << s
    return occ.bit_count()


def union_measure(cubes: Iterable[Cube], grid) -> float:
    d, n = int(grid[0]), int(grid[1])
    return _union_cells(*_index(list(cubes), n), n, d) / n**d


def _vitali(sides, starts, n: int, d: int) -> np.ndarray:
    """Positions kept by the Vitali selection of the cubes (side, first
    cell), sorted by (side, origin); asserts the 5^d covering bound."""
    order = np.lexsort((starts, -sides))
    kept = order[_greedy_disjoint(sides[order], starts[order], n, d)]
    selected = math.fsum((k / n) ** d for k in sides[kept].tolist())
    covered = _union_cells(sides, starts, n, d) / n**d
    if covered > VITALI_COVER_FACTOR**d * selected + 1e-12:
        raise InvariantViolation(
            f"covering factor exceeded: union {covered} > "
            f"{VITALI_COVER_FACTOR ** d} * {selected}"
        )
    return kept[np.lexsort((starts[kept], sides[kept]))]


def vitali_select(cubes: Iterable[Cube], grid) -> Packing:
    """Greedy Vitali selection: size descending, keep cubes disjoint from the
    kept set.  The union of all input cubes is covered within the factor
    5^d * (total selected measure); this guarantee is asserted on every call.
    """
    d, n = int(grid[0]), int(grid[1])
    cubes = list(cubes)
    return Packing([cubes[i] for i in _vitali(*_index(cubes, n), n, d)])
