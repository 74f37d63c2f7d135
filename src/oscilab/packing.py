"""Optimization over cube packings: exact 1D dynamic programs, one exact
2D skyline DP for small grids, greedy Vitali selection.

Max-weight packing has one private solve per dimension, _BEST_PACKING[d],
on flat (sides, starts, w) arrays, w one weight row or a (rows, cubes)
stack: _best_packing_1d is one exact DP over the cubes grouped by end
cell, O(N) numpy steps over all rows with work in proportion to the cubes
passed; _best_packing_2d takes the positive weights, weight descending,
one row after another.  The best value (sum or max-min) and its packing
per covered cell count have one interface, _best_by_cells: the 1D DP
_dp_budgeted_1d over cells left uncovered (O(N^3) work, O(N^2) memory),
or _skyline_dp, a row-major scan of the 2D cells over skyline states.
2D maximum-weight square packing is combinatorially hard: every exact 2D
answer is guarded at N = EXACT_GUARD_2D; beyond, the greedy selection
gives a certified lower bound.  Every greedy selection, here and in
functionals and kfunctional, is one pass of _greedy_disjoint: one bigint
test per walked cube, and after every _SEGMENT walked cubes one numpy
sieve, O(N^d + cubes left), that drops the cubes meeting the cells
covered so far.

The solvers take and return flat positions of grid._family; only the public
functions convert to and from Cube objects, through grid's helpers.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ConfigError, InvariantViolation, SizeGuardError
from .grid import Cube, Packing, _check_grid, _cube_index, _family, _index_to_cube

__all__ = [
    "max_measure_packing",
    "max_additive_packing",
    "additive_pareto",
    "vitali_select",
    "union_measure",
    "EXACT_GUARD_2D",
]

EXACT_GUARD_2D = 4  # 2D packings are exact up to N = 4, by _skyline_dp
VITALI_COVER_FACTOR = 5  # per-dimension constant of the covering argument
_SEGMENT = 128  # cubes walked by _greedy_disjoint between two sieves


def _exact_packing(n: int, d: int) -> bool:
    """Whether packings of the N^d grid are solved exactly, 1D always and 2D
    up to N = EXACT_GUARD_2D; beyond that every 2D route is greedy."""
    return d == 1 or n <= EXACT_GUARD_2D


def _require_exact(n: int, d: int) -> None:
    if not _exact_packing(n, d):
        raise SizeGuardError(f"the exact 2D packing DP is guarded at "
                             f"N <= {EXACT_GUARD_2D}, got N={n}")


def _blocks(sides, n: int, d: int) -> dict:
    """{k: mask of the side-k cube at the origin of an N^d grid} for each
    side k in the array sides, bit c = cell c: the row (1<<k)-1 times the
    repunit (2^{kN}-1)/(2^N-1) of its k rows in 2D (one row in 1D), O(1)
    int ops per side."""
    unit = (1 << n) - 1
    return {k: ((1 << k) - 1) * (((1 << (k if d == 2 else 1) * n) - 1) // unit)
            for k in np.flatnonzero(np.bincount(sides)).tolist()}


def _misses(occ: int, sides, starts, n: int, d: int) -> np.ndarray:
    """Whether each cube (side, first cell) misses every cell set in occ:
    its box sum over the unpacked cells is 0, read from one integer
    summed-area table ((N+1)^2 flat in 2D)."""
    cells = np.unpackbits(np.frombuffer(occ.to_bytes((n**d + 7) // 8, "little"),
                                        dtype=np.uint8), bitorder="little")
    sat = np.zeros((n + 1) ** d, dtype=np.int32)
    if d == 1:
        np.cumsum(cells[:n], out=sat[1:])
        return sat[starts + sides] == sat[starts]
    sat = sat.reshape(n + 1, n + 1)
    np.cumsum(cells[:n * n].reshape(n, n), axis=0, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
    sat = sat.ravel()
    a = starts + starts // n  # top-left corner in the (N+1)^2 table
    down = sides * (n + 1)
    return sat[a + down + sides] - sat[a + sides] - sat[a + down] + sat[a] == 0


def _packing(kept, sides, starts, n: int, d: int) -> Packing:
    """The cubes at the kept positions of the family (sides, starts),
    sorted by (side, origin)."""
    kept = kept[np.lexsort((starts[kept], sides[kept]))]
    return Packing([_index_to_cube(k, s, n, d)
                    for k, s in zip(sides[kept].tolist(), starts[kept].tolist())])


def _greedy_disjoint(sides, starts, n: int, d: int) -> list:
    """The one greedy disjoint selection: walk the cubes (side, first cell)
    in the given order, keep each that misses every cube kept so far, and
    return the kept positions in acceptance order.

    The kept union is one Python int over the N^d cells and a cube's mask
    its side's _blocks mask shifted to its first cell: one `&` per walked
    cube and one `|=` per keep, and the walk stops once every cell is
    covered.  The cubes are walked in segments of _SEGMENT; after each, one
    _misses sieve, O(N^d + cubes left) in numpy, drops every later cube that
    meets the union.  A cube meeting an earlier keep can never be kept, so
    the positions are those of the plain walk, and each segment opens with
    a keep.
    """
    blocks = _blocks(sides, n, d)
    full = (1 << n**d) - 1
    occ, kept = 0, []
    pos = np.arange(sides.size)
    while pos.size:
        head, pos = pos[:_SEGMENT], pos[_SEGMENT:]
        for i, k, s in zip(head.tolist(), sides[head].tolist(), starts[head].tolist()):
            m = blocks[k] << s
            if not occ & m:
                occ |= m
                kept.append(i)
                if occ == full:
                    return kept
        if pos.size:
            pos = pos[_misses(occ, sides[pos], starts[pos], n, d)]
    return kept


def _skyline_dp(sides, starts, w, n: int, op) -> tuple:
    """Exact DP over the 2D packings of the cubes (side, first cell) with
    flat weights w, scanning the N^2 cells in row-major order.

    A state is the skyline (per column, the rows at and below the scan line
    already covered: base-(N+1) digits of one int64 key) and the covered
    cell count, kept as key * (N^2+1) + count.  A covered cell counts its
    column down; a free cell is left uncovered or starts a cube whose top
    row runs along free columns (an earlier cube reaching a lower row of it
    would cover its top row too).  op=np.add (start 0) keeps each state's
    largest weight sum, a packing's weights added in row-major order of
    first cells; op=np.minimum (start +inf) the largest minimum weight.
    x -> op(x, w) is monotone, so the values are optimal bit for bit.  Value
    ties go to the carried state, then to the cubes in the given order.

    Returns (best, packing_of): best[c] is the best value over packings of
    exactly c cells, c = 0..N^2, -inf where none covers c; packing_of(c)
    gives the positions, ascending, of that packing.
    """
    m = n * n + 1
    base = np.int64(n + 1) ** np.arange(n + 1)
    order = np.argsort(starts, kind="stable")  # each cell's cubes in given order
    at = np.searchsorted(starts[order], np.arange(m)).tolist()
    k, col, w = sides[order], starts[order] % n, w[order]
    top_row = base[k]  # digits col..col+k-1 zero: the top row is free
    # a cube covers k-1 more rows of col and k rows of the next k-1 columns
    grow = ((k - 1) * base[col] + k * (base[col + k] - base[col + 1]) // n) * m + k * k
    state = np.zeros(1, dtype=np.int64)
    value = np.array([0.0 if op is np.add else np.inf])
    trail = []
    for cell, (lo, hi) in enumerate(zip(at, at[1:])):  # the cell's cubes: lo..hi-1
        p = base[cell % n] * m
        above = state // p
        ci, si = np.nonzero(above % top_row[lo:hi, None] == 0)
        ci += lo
        covered = above % (n + 1) > 0
        cand = np.concatenate((state - p * covered, state[si] + grow[ci]))
        cand_value = np.concatenate((value, op(value[si], w[ci])))
        ranked = np.lexsort((-cand_value, cand))  # stable: ties keep given order
        pick = ranked[np.diff(cand[ranked], prepend=-1) != 0]
        trail.append((pick, state.size, si, ci))
        state, value = cand[pick], cand_value[pick]
    best = np.full(m, -np.inf)
    best[state] = value  # the skyline is empty: a final state is its count

    def packing_of(c: int) -> np.ndarray:
        i, kept = int(np.searchsorted(state, c)), []
        for pick, carried, si, ci in reversed(trail):
            j = int(pick[i]) - carried  # candidates: carried states, then cubes
            if j >= 0:
                kept.append(order[ci[j]])
            i = j + carried if j < 0 else int(si[j])
        return np.sort(np.array(kept, dtype=int))

    return best, packing_of


def _best_by_cells(sides, starts, w, n: int, d: int, op) -> tuple:
    """(best, packing_of) for the cubes (side, first cell) with flat weights
    w: best[c] the best value over packings of exactly c cells, c = 0..N^d,
    the largest sum for op=np.add, the largest minimum for op=np.minimum
    (+inf for c = 0), -inf where none covers c; packing_of(c) the ascending
    positions of one.  1D reads _dp_budgeted_1d, 2D _skyline_dp."""
    return (_dp_budgeted_1d if d == 1 else _skyline_dp)(sides, starts, w, n, op)


# ---------------------------------------------------------------------------
# weight normalization

def _flat_weights(weights, n: int, d: int) -> tuple:
    """(sides, starts, w) over the flat family of every side.

    From a {side: per-origin array} dict, which must hold every side 1..N,
    side k with one entry per origin, (N-k+1)^d: in 1D side after side in
    the dict's order (the 1D DPs break ties by it), in 2D in (side, origin
    lex) order.  From a Cube -> weight callable, called once per cube in
    (side, origin lex) order.  A weight is finite, or -inf to drop its cube.
    """
    if callable(weights):
        sides, starts = _family(n, d, range(1, n + 1))
        w = np.array([float(weights(_index_to_cube(k, s, n, d)))
                      for k, s in zip(sides.tolist(), starts.tolist())])
    elif isinstance(weights, dict):
        rows = {k: np.asarray(v, dtype=float).ravel() for k, v in weights.items()}
        if set(rows) != set(range(1, n + 1)) or any(
            r.size != (n - k + 1) ** d for k, r in rows.items()
        ):
            raise ConfigError(
                f"weights need every side k = 1..{n}, each with one entry "
                f"per origin, (N-k+1)^{d}"
            )
        order = list(rows) if d == 1 else range(1, n + 1)
        sides, starts = _family(n, d, order)
        w = np.concatenate([rows[k] for k in order])
    else:
        raise ConfigError("weights must be a callable or {side: array} dict")
    if not np.all(w < np.inf):  # NaN too
        raise ConfigError("packing weights must be finite or -inf")
    return sides, starts, w


def max_measure_packing(cubes: Iterable[Cube], grid) -> tuple:
    """Maximum total measure of pairwise-disjoint cubes from the candidates.

    The one packing solve of the grid's dimension on the weights |Q| of the
    candidates alone, each offered once, in (side, origin) order: exact in
    1D (work in proportion to the candidate count) and for 2D N <= 4,
    greedy by size descending otherwise (a certified lower bound).  Ties go
    to the smaller side, then the earlier origin.  Returns (Packing, total
    measure).
    """
    d, n = _check_grid(grid)
    sides, starts = _cube_index(cubes, grid)
    key = np.unique(sides * n**d + starts)  # each candidate once, by (side, origin)
    sides, starts = key // n**d, key % n**d
    meas = np.array([(k / n) ** d for k in range(n + 1)])  # scalar powers
    kept, val = _BEST_PACKING[d](sides, starts, meas[sides], n)
    return _packing(kept, sides, starts, n, d), val


def _best_packing_1d(sides, starts, w, n: int):
    """Max-weight packing of the 1D cubes (side, first cell) with flat
    weights w, or of each row of a (rows, cubes) weight stack, in one DP.

    The cubes are grouped by end cell in a stable sort, so each group keeps
    the given order.  best[j, r] is the best weight of row r inside [0, j);
    step j compares, for all rows at once, skipping cell j-1 with each cube
    ending at j: the work follows the cube count.  Skipping wins a tie, then
    the first cube in the given order (argmax, kept in taken).  Returns
    (kept positions, value), one per row for a stack; the positions index
    the given arrays, in descending order of their cubes' ends.
    """
    stack = np.atleast_2d(w)
    rows = stack.shape[0]
    ends = starts + sides
    order = np.argsort(ends, kind="stable")
    # the cubes ending at j are order[at[j]:at[j + 1]], first cells first[...]
    at = np.searchsorted(ends[order], np.arange(n + 2)).tolist()
    first = starts[order]
    best = np.zeros((n + 1, rows))
    taken = np.zeros((n + 1, rows), dtype=int)  # 0 = skip, i = group cube i-1
    cols = np.arange(rows)
    for j in range(1, n + 1):
        lo, hi = at[j], at[j + 1]
        if lo == hi:
            best[j] = best[j - 1]
            continue
        cand = np.empty((hi - lo + 1, rows))
        cand[0] = best[j - 1]
        np.add(best[first[lo:hi]], stack[:, order[lo:hi]].T, out=cand[1:])
        i = cand.argmax(axis=0)
        best[j] = cand[i, cols]
        taken[j] = i
    order, first = order.tolist(), first.tolist()
    out = []
    for r, t in enumerate(taken.T.tolist()):
        kept, j = [], n
        while j > 0:
            if t[j]:
                c = at[j] + t[j] - 1  # the kept cube's place in end order
                kept.append(order[c])
                j = first[c]
            else:
                j -= 1
        out.append((np.array(kept, dtype=int), float(best[n, r])))
    return out if np.ndim(w) == 2 else out[0]


def additive_pareto(weights, grid) -> np.ndarray:
    """value[m] = max sum of weights over packings covering exactly m
    cells, m = 0..N^d; -inf marks unreachable m for restricted candidate
    sets.  Non-decreasing in m when all weights >= 0.  Exact in 1D, and in
    2D for N <= EXACT_GUARD_2D (SizeGuardError beyond), where value[m] is
    the largest sum of a packing's weights added in row-major order of the
    cubes' first cells, bit for bit.
    """
    d, n = _check_grid(grid)
    _require_exact(n, d)
    return _best_by_cells(*_flat_weights(weights, n, d), n, d, np.add)[0]


def max_additive_packing(weights, grid, measure_budget: int | None = None) -> tuple:
    """Maximize the sum of cube weights over packings.

    weights: callable Cube -> real, or {side: per-origin array} holding
    every side, flattened by _flat_weights for the one solve of the grid's
    dimension.  1D is the exact DP over cubes grouped by end cell, O(N)
    numpy steps and O(N^2) work, ties to a skipped cell, then to the first
    side in the weight dict's order.  2D takes the cubes with weight > 0,
    weight descending, ties by (side, origin): for N <= 4 the exact packing
    comes from _skyline_dp over them, beyond from one _greedy_disjoint pass;
    the value is the kept weights summed in that order.  With measure_budget
    = m the packing covers exactly m cells and its value is
    additive_pareto(weights, grid)[m], in 2D its weights summed in row-major
    order of the cubes' first cells.  Returns (Packing, value); the empty
    packing (value 0) wins when every weight is <= 0.
    """
    d, n = _check_grid(grid)
    sides, starts, w = _flat_weights(weights, n, d)
    if measure_budget is None:
        kept, val = _BEST_PACKING[d](sides, starts, w, n)
        return _packing(kept, sides, starts, n, d), val
    m = int(measure_budget)
    if not 0 <= m <= n**d:
        raise ConfigError(f"measure budget {m} outside 0..{n**d}")
    _require_exact(n, d)
    best, packing_of = _best_by_cells(sides, starts, w, n, d, np.add)
    if not math.isfinite(best[m]):
        raise ConfigError(f"no packing covers exactly {m} cells")
    return _packing(packing_of(m), sides, starts, n, d), float(best[m])


def _best_packing_2d(sides, starts, w, n: int):
    """(kept positions, value) of the 2D packing solve on the cubes (side,
    first cell) with flat weights w: the cubes with weight > 0, weight
    descending, ties by (side, origin), through _skyline_dp for N <= 4 (the
    packing of its best state, ties to the fewest covered cells) and one
    _greedy_disjoint pass beyond; the value summed over the kept positions
    in the order returned.  A (rows, cubes) weight stack gives one such
    pair per row, in row order."""
    if np.ndim(w) == 2:
        return [_best_packing_2d(sides, starts, row, n) for row in w]
    pos = np.nonzero(w > 0)[0]
    order = pos[np.lexsort((starts[pos], sides[pos], -w[pos]))]
    if _exact_packing(n, 2):
        best, packing_of = _skyline_dp(sides[order], starts[order], w[order], n, np.add)
        kept = order[packing_of(int(np.argmax(best)))]  # ties to the fewest cells
    else:
        kept = order[_greedy_disjoint(sides[order], starts[order], n, 2)]
    # cumsum adds left to right, as a running sum over acceptances
    return kept, float(np.cumsum(w[kept])[-1]) if kept.size else 0.0


# the one packing solve per dimension: (sides, starts, w, n) -> (kept, value),
# a list of them, one per row, for a (rows, cubes) weight stack w
_BEST_PACKING = {1: _best_packing_1d, 2: _best_packing_2d}


def _dp_budgeted_1d(sides, starts, w, n: int, op) -> tuple:
    """g[j, u] is the best value over packings inside [0, j) leaving exactly
    u of its cells uncovered, -inf where unreachable, over the 1D cubes
    (side, first cell) with flat weights w: the largest weight sum for
    op=np.add (start 0), the largest minimum weight for op=np.minimum
    (start +inf).

    Indexing by uncovered count reads every earlier row unshifted: a cube
    [s, j) extends g[s, u] to g[j, u], skipping cell j-1 extends
    g[j-1, u-1].  The weights sit in one end x start table, -inf where no
    cube is a candidate, so step j is one numpy op over g[:j, :j]: O(N^3)
    work and O(N^2) memory.  x -> op(x, w) is monotone, so g[j, u] is the
    optimum bit for bit.  Returns (best, packing_of) as _skyline_dp does,
    best[c] = g[N, N-c]; packing_of walks g back by value over a family
    grouped by side with every origin, skipping cell j-1 on a tie, then
    taking the first side in family order.
    """
    w_end = np.full((n + 1, n), -np.inf)
    w_end[starts + sides, starts] = w
    g = np.full((n + 1, n + 1), -np.inf)
    g[0, 0] = 0.0 if op is np.add else np.inf
    for j in range(1, n + 1):
        g[j, 1:j + 1] = g[j - 1, :j]  # cell j-1 left uncovered
        np.maximum(g[j, :j], op(g[:j, :j], w_end[j, :j, None]).max(axis=0),
                   out=g[j, :j])

    def packing_of(c: int) -> np.ndarray:
        head = np.flatnonzero(np.r_[True, sides[1:] != sides[:-1]])
        ks, first = sides[head], head - sides[head]  # first + j: cube ending at j
        kept, j, u = [], n, n - c
        while j > u:
            if u and g[j - 1, u - 1] == g[j, u]:
                j, u = j - 1, u - 1
                continue
            fit = ks <= j
            pos = first[fit] + j
            i = int(np.argmax(op(g[j - ks[fit], u], w[pos]) == g[j, u]))
            kept.append(pos[i])
            j -= int(ks[fit][i])
        return np.sort(np.array(kept, dtype=int))

    return g[n, ::-1].copy(), packing_of


def _union_cells(sides, starts, n: int, d: int) -> int:
    occ = 0
    blocks = _blocks(sides, n, d)
    for k, s in zip(sides.tolist(), starts.tolist()):
        occ |= blocks[k] << s
    return occ.bit_count()


def union_measure(cubes: Iterable[Cube], grid) -> float:
    """Measure of the union of the cubes, each checked to fit the grid."""
    d, n = _check_grid(grid)
    return _union_cells(*_cube_index(cubes, grid), n, d) / n**d


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
    d, n = _check_grid(grid)
    cubes = list(cubes)
    return Packing([cubes[i] for i in _vitali(*_cube_index(cubes, grid), n, d)])
