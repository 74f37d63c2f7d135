"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the mathematical definitions
with no reuse of the package's optimized paths: exhaustive packing sweeps on
tiny grids, an exact rational simplex for the majorant LPs, and direct
summation formulas.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from oscilab import (
    GridFunction,
    Packing,
    SizeGuardError,
    double_oscillation,
    enumerate_cubes,
    mean_oscillation,
)

ENUM_GUARD_1D = 12
ENUM_GUARD_2D = 4


def enumerate_packings(grid):
    """Iterate every nonempty packing exactly once, in canonical DFS order
    over the cubes of enumerate_cubes (each prefix before its extensions).

    Guarded: feasible only for 1D N <= 12 and 2D N <= 4.
    """
    d, n = int(grid[0]), int(grid[1])
    if (d == 1 and n > ENUM_GUARD_1D) or (d == 2 and n > ENUM_GUARD_2D):
        raise SizeGuardError(
            f"packing enumeration refused for d={d}, N={n} "
            f"(guards: 1D N<={ENUM_GUARD_1D}, 2D N<={ENUM_GUARD_2D})"
        )
    return iter(_packings(d, n))


@functools.cache
def _packings(d: int, n: int) -> tuple:
    """All nonempty packings of the grid, built once per (d, N)."""
    cubes = enumerate_cubes((d, n))
    masks = [sum(1 << c for c in q.flat_cells(n).tolist()) for q in cubes]
    out: list = []

    def rec(start: int, used: int, chosen: list) -> None:
        for i in range(start, len(cubes)):
            if masks[i] & used:
                continue
            chosen.append(cubes[i])
            out.append(Packing(list(chosen)))
            rec(i + 1, used | masks[i], chosen)
            chosen.pop()

    rec(0, 0, [])
    return tuple(out)


def cube_stats_map(f: GridFunction) -> dict:
    """Per-cube (osc, doubleosc, ncells) via the scalar cube integrals."""
    out = {}
    for q in enumerate_cubes((f.dim, f.res)):
        out[q] = (mean_oscillation(f, q), double_oscillation(f, q), q.ncells())
    return out


@functools.cache
def _cubes_by_side(d: int, n: int, dyadic: bool) -> dict:
    """{side: that side's cubes of enumerate_cubes, in its order}."""
    out: dict = {}
    for q in enumerate_cubes((d, n), dyadic):
        out.setdefault(q.side, []).append(q)
    return out


def window_rows(f: GridFunction, k: int, dyadic: bool = False) -> np.ndarray:
    """Cell values of every side-k cube, one row per cube in enumerate_cubes
    order, each row in Cube.flat_cells order: a new array gathered cube by
    cube, sharing no code with the package's window views."""
    cubes = _cubes_by_side(f.dim, f.res, dyadic)[k]
    return np.array([f.values[q.flat_cells(f.res)] for q in cubes])


def brute_jn(f: GridFunction, p: float) -> float:
    stats = cube_stats_map(f)
    n = f.res
    best = 0.0
    for packing in enumerate_packings((f.dim, f.res)):
        tot = sum(q.measure(n) * stats[q][0] ** p for q in packing)
        best = max(best, tot)
    return best ** (1.0 / p)


def brute_gp(f: GridFunction, p: float) -> float:
    stats = cube_stats_map(f)
    n = f.res
    q_exp = 1.0 if math.isinf(p) else 1.0 - 1.0 / p
    best = 0.0
    for packing in enumerate_packings((f.dim, f.res)):
        do = sum(stats[q][1] for q in packing)
        meas = sum(q.measure(n) for q in packing)
        best = max(best, do / meas**q_exp)
    return best


def brute_garo_l1_lower(f: GridFunction) -> float:
    stats = cube_stats_map(f)
    best = 0.0
    for packing in enumerate_packings((f.dim, f.res)):
        best = max(best, sum(stats[q][1] for q in packing))
    return best


def brute_f_sharp(
    f: GridFunction, ts: np.ndarray, p: float | None = None, dyadic: bool = False
) -> np.ndarray:
    """sup over packings (of dyadic cubes only, with dyadic) of the
    rearranged mean-oscillation step value, inf-convention, comparing masses
    in integer cells."""
    n, d = f.res, f.dim
    thresholds = np.asarray(ts) * n**d
    best = np.zeros(len(ts))
    stat_of = {}
    for q in enumerate_cubes((d, n)):
        vals = f.values[q.flat_cells(n)]
        dev = np.abs(vals - vals.mean())
        stat = dev.mean() if p is None else (dev**p).mean() ** (1.0 / p)
        stat_of[q] = (stat, q.ncells())
    for packing in enumerate_packings((d, n)):
        if dyadic and any(q.side & (q.side - 1) or any(o % q.side for o in q.origin)
                          for q in packing):
            continue
        pairs = sorted((stat_of[q] for q in packing), reverse=True)
        cum = 0
        for stat, ncells in pairs:
            cum += ncells
            hit = (cum > thresholds) & (stat > best)
            best[hit] = stat
    return best


def packing_count_1d(n: int) -> int:
    """Interval-packing count including the empty packing:
    a(N) = a(N-1) + sum_{k=1..N} a(N-k), a(0) = 1."""
    a = [1]
    for m in range(1, n + 1):
        a.append(a[m - 1] + sum(a[m - k] for k in range(1, m + 1)))
    return a[n]


# ---------------------------------------------------------------------------
# exact rational simplex (two-phase, Bland's rule) for  min c.x, A x <= b, x >= 0

def solve_lp_exact(c, a_ub, b_ub):
    """Dense exact simplex.  Returns (optimal value, x) as Fractions.

    Small problems only; raises on infeasible/unbounded.
    """
    c = [_frac(v) for v in c]
    a = [[_frac(v) for v in row] for row in a_ub]
    b = [_frac(v) for v in b_ub]
    m, n = len(a), len(c)
    # rows with negative rhs need artificials after sign flip
    art_rows = []
    rows = []
    rhs = []
    for i in range(m):
        if b[i] >= 0:
            rows.append(list(a[i]))
            rhs.append(b[i])
        else:
            rows.append([-v for v in a[i]])
            rhs.append(-b[i])
            art_rows.append(len(rows) - 1)
    slack_sign = [1 if b[i] >= 0 else -1 for i in range(m)]
    n_art = len(art_rows)
    width = n + m + n_art
    tab = []
    basis = []
    art_of_row = {r: n + m + j for j, r in enumerate(art_rows)}
    for r in range(m):
        row = rows[r] + [Fraction(0)] * (m + n_art) + [rhs[r]]
        row[n + r] = Fraction(slack_sign[r])
        if r in art_of_row:
            row[art_of_row[r]] = Fraction(1)
            basis.append(art_of_row[r])
        else:
            basis.append(n + r)
        tab.append(row)

    def pivot(prow, pcol):
        piv = tab[prow][pcol]
        tab[prow] = [v / piv for v in tab[prow]]
        for r in range(m):
            if r != prow and tab[r][pcol] != 0:
                factor = tab[r][pcol]
                tab[r] = [v - factor * w for v, w in zip(tab[r], tab[prow])]
        basis[prow] = pcol

    def run(costs, allowed):
        while True:
            # reduced costs: costs[j] - costs[basis] . column_j
            ybar = [costs[basis[r]] for r in range(m)]
            enter = -1
            for j in range(width):
                if j not in allowed or j in basis:
                    continue
                red = costs[j] - sum(ybar[r] * tab[r][j] for r in range(m))
                if red < 0:
                    enter = j
                    break  # Bland: first improving index
            if enter < 0:
                return
            leave, best = -1, None
            for r in range(m):
                if tab[r][enter] > 0:
                    ratio = tab[r][width] / tab[r][enter]
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]
                    ):
                        best, leave = ratio, r
            if leave < 0:
                raise ArithmeticError("LP unbounded")
            pivot(leave, enter)

    if n_art:
        costs1 = [Fraction(0)] * (n + m) + [Fraction(1)] * n_art
        run(costs1, set(range(width)))
        val1 = sum(costs1[basis[r]] * tab[r][width] for r in range(m))
        if val1 != 0:
            raise ArithmeticError("LP infeasible")
        # drive leftover artificials out of the basis where possible
        for r in range(m):
            if basis[r] >= n + m:
                for j in range(n + m):
                    if tab[r][j] != 0:
                        pivot(r, j)
                        break
    costs2 = [*c] + [Fraction(0)] * (m + n_art)
    run(costs2, set(range(n + m)))
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][width]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def garo_l1_exact_oracle(f: GridFunction) -> float:
    """min sum gamma_x * h  s.t.  sum_{x in Q} gamma_x h >= doubleosc(Q)."""
    n_cells = f.ncells
    h = Fraction(1, f.res**f.dim)
    rows, rhs = [], []
    for q in enumerate_cubes((f.dim, f.res)):
        do = Fraction(double_oscillation(f, q))
        if do <= 0:
            continue
        row = [Fraction(0)] * n_cells
        for cell in q.flat_cells(f.res).tolist():
            row[cell] = -h
        rows.append(row)
        rhs.append(-do)
    if not rows:
        return 0.0
    value, _ = solve_lp_exact([h] * n_cells, rows, rhs)
    return float(value)


def garo_linf_exact_oracle(f: GridFunction) -> float:
    """Closed form: the optimal flat majorant level max_Q doubleosc(Q)/|Q|.

    A constant gamma = c is feasible iff c >= doubleosc(Q)/|Q| for every Q,
    and any feasible gamma has sup gamma >= doubleosc(Q)/|Q| at the argmax.
    """
    best = Fraction(0)
    n = f.res
    for q in enumerate_cubes((f.dim, f.res)):
        do = Fraction(double_oscillation(f, q))
        best = max(best, do / Fraction(q.ncells(), n**f.dim))
    return float(best)
