"""Packing functionals and related norms.

The packing suprema are exact in 1D (dynamic programs over cell positions)
and for small 2D grids (N <= 4: the skyline DP packing._skyline_dp, a
row-major scan of the cells, equal bit for bit to the maximum over every
packing of its weights summed in a fixed order); larger 2D grids are
estimated over a shared deterministic family of five greedy candidate
packings, which keeps the per-packing Holder comparison between the
functionals valid for the reported values.  The unit-cell partition is no
candidate: a side-1 cube is one cell, its osc and doubleosc are exactly 0,
so that partition scores 0.  Each greedy packing there, and in the 2D sweep
of garo_p_lambda, is one pass of the greedy kernel packing._greedy_disjoint
over integer cube indices (11,440 cubes at N=32): one bigint test per
walked cube, plus one numpy sieve, O(N^d + cubes left), per segment of
walked cubes, which drops the cubes meeting those kept so far.

Each functional reads the statistics it needs from one grid.CubeTable,
flat by cube position (grid._family order), and passes its weights to the
one packing solve of its dimension, packing._BEST_PACKING[d], as flat
arrays; garo_p_lambda's sweep is one call on a stack of weight rows.
Candidate packings and witnesses are positions, made Cube objects
only for returned witnesses, and every packing ratio, sum(num)/sum(den)^q
over a packing's cubes, is scored by the one left-to-right loop _best_ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SizeGuardError
from .grid import CubeTable, GridFunction, Packing, _index_to_cube
from .maximal import DEFAULT_S, _past_full_guard, local_maximal
from .packing import _BEST_PACKING, _best_by_cells, _exact_packing, _greedy_disjoint, _packing
from .rearrange import rearrange
from .spaces import RISpaceSpec, norm

__all__ = [
    "GaRoEstimate",
    "jn_norm",
    "gp_norm",
    "gamma_membership",
    "garo_norm",
    "garo_p_lambda",
    "campanato_norm",
    "sobolev_seminorm",
    "GARO_EXACT_GUARD_2D",
]

# GaRo_L1 is the best packing where the fractional packing polytope is
# integral.  This guard must not follow packing.EXACT_GUARD_2D upward: at
# N = 5 the side-2 squares at (row, col) (0,1), (0,2), (1,3), (2,2), (3,1),
# (2,0), (1,0) form an induced 7-cycle of the conflict graph, so there the
# majorant LP can exceed every packing and exactness needs a real LP.
GARO_EXACT_GUARD_2D = 4


def _require_desk_scale(f: GridFunction) -> None:
    if _past_full_guard(f):
        raise SizeGuardError(
            f"packing functionals enumerate all cubes; N={f.res} is past the "
            f"full-cube guard for d={f.dim}"
        )


def _conjugate_exponent(p: float) -> float:
    """1/p' = 1 - 1/p; returns the exponent 1/p' used on packing measures."""
    if not 1 < p <= math.inf:
        raise ConfigError(f"packing functionals need p in (1, inf], got {p}")
    return 1.0 - 1.0 / p


def _best_ratio(best: float, packings, num, den, q: float) -> float:
    """max(best, sum(num[pk]) / sum(den[pk])**q over the packings pk), both
    sums run left to right in the given order (built-in sum() compensates
    since 3.12); a packing whose den sum is 0 is skipped."""
    for pk in packings:
        top = bottom = 0.0
        for x, m in zip(num[pk].tolist(), den[pk].tolist()):
            top += x
            bottom += m
        if bottom > 0:
            best = max(best, top / bottom**q)
    return best


# ---------------------------------------------------------------------------
# shared 2D candidate packings

def _packing_family_2d(table: CubeTable, p: float) -> list:
    """Deterministic candidate packings beyond the exact regime (N > 4) for
    finite p > 1, each an array of flat positions in acceptance order: the
    greedy selections in stable key-descending order under five weight
    keys.  Single cubes are scored separately (vectorized).  The unit-cell
    partition is no candidate: a side-1 cube has osc = do = 0, so it scores
    0."""
    osc_arr, do_arr, meas_arr = table.osc, table.do, table.meas
    n, sides, starts = table.f.res, table.sides, table.starts
    keys = [
        osc_arr,
        do_arr,
        do_arr / meas_arr,
        meas_arr * osc_arr**p,
        do_arr / meas_arr**_conjugate_exponent(p),
    ]
    family = []
    for key in keys:
        order = np.argsort(-key, kind="stable")
        family.append(order[_greedy_disjoint(sides[order], starts[order], n, 2)])
    return family


# ---------------------------------------------------------------------------
# John-Nirenberg and Garsia-Rodemich packing conditions

def jn_norm(f: GridFunction, p: float) -> float:
    """sup over packings of (sum |Q_i| osc(Q_i)^p)^(1/p), 1 < p < inf.

    Exact in 1D via the additive packing DP and for 2D N <= 4 via the
    skyline DP; estimated over the shared candidate family otherwise.
    """
    if not 1 < p < math.inf:
        raise ConfigError(f"JN functional needs p in (1, inf), got {p}")
    _require_desk_scale(f)
    n, d = f.res, f.dim
    table = CubeTable(f)
    meas_arr, osc_arr = table.meas, table.osc
    family = None if _exact_packing(n, d) else _packing_family_2d(table, p)
    if d == 1:
        w = meas_arr * osc_arr**p
    else:
        # a scalar pow per cube that a 2D packing sum reads: numpy's array
        # power may round differently
        read = (np.arange(meas_arr.size) if family is None
                else np.unique(np.concatenate(family)))
        w = np.zeros(meas_arr.size)
        w[read] = [m * x**p for m, x in zip(meas_arr[read].tolist(), osc_arr[read].tolist())]
    if family is None:
        return float(_BEST_PACKING[d](table.sides, table.starts, w, n)[1] ** (1.0 / p))
    best = float(np.max(meas_arr * osc_arr**p, initial=0.0))
    return float(_best_ratio(best, family, w, meas_arr, 0.0) ** (1.0 / p))


def gp_norm(f: GridFunction, p: float) -> float:
    """sup over packings of sum_i doubleosc(Q_i) / (sum_i |Q_i|)^(1/p').

    p = inf reduces to the single-cube supremum of doubleosc(Q)/|Q| (the
    ratio is subadditive over packing members when the measure exponent is
    1), which is the BMO-equivalent value up to the sandwich factor 2.
    Exact in 1D and in 2D for N <= 4: the best doubleosc sum per covered
    cell count comes from packing._best_by_cells, in 2D the skyline DP, and
    the value equals bit for bit the maximum over every packing of its
    doubleosc values, summed left to right in row-major order of the cubes'
    first cells, over Packing.total_measure^(1/p').  Larger 2D grids give the best over
    single cubes and the shared candidate family, a lower bound.
    """
    _require_desk_scale(f)
    q = _conjugate_exponent(p)
    table = CubeTable(f)
    do_arr, meas_arr = table.do, table.meas
    if math.isinf(p):
        return float(np.max(do_arr / meas_arr, initial=0.0))
    n, d = f.res, f.dim
    if _exact_packing(n, d):
        vals = _best_by_cells(table.sides, table.starts, do_arr, n, d, np.add)[0][1:]
        ms = np.arange(1, n**d + 1)
        # Packing.total_measure of every 2D packing of m cells: at N <= 4 the
        # fsum of the cube measures depends on m alone, whatever the sides
        budget = ((ms / n) ** q if d == 1 else
                  np.array([math.fsum([(1 / n) ** 2] * m) ** q for m in ms.tolist()]))
        # every count is finite: m unit cubes pack m cells with doubleosc
        # exactly 0, so no count is left at -inf
        return float(np.max(vals / budget, initial=0.0))
    best = float(np.max(do_arr / meas_arr**q, initial=0.0))
    return float(_best_ratio(best, _packing_family_2d(table, p), do_arr, meas_arr, q))


def gamma_membership(f: GridFunction, gamma: GridFunction):
    """Is gamma an admissible majorant for f: doubleosc(Q) <= int_Q gamma
    for every cube Q?

    Both sides are additive over packing members, so the per-cube check is
    equivalent to the full packing condition.  Returns (member, worst cube,
    slack) where slack = int_Q gamma - doubleosc(Q) at the worst cube.
    """
    if gamma.dim != f.dim or gamma.res != f.res:
        raise ConfigError("gamma must live on the same grid as f")
    _require_desk_scale(f)
    table = CubeTable(f)
    slack = CubeTable(gamma).sum - table.do
    i = int(np.argmin(slack))  # the first worst cube in (side, origin) order
    worst = _index_to_cube(table.sides[i], table.starts[i], f.res, f.dim)
    worst_slack = float(slack[i])
    scale = max(1.0, float(np.max(np.abs(f.values))) ** 2)
    return worst_slack >= -1e-12 * scale, worst, worst_slack


@dataclass
class GaRoEstimate:
    """Two-sided information on the Garsia-Rodemich norm.

    upper: 16 * ||local maximal||_X (an admissible majorant route);
    exact: the infimum over admissible majorants, equal to lower wherever
           it is set: for Linf wherever lower is (closed form), for L1 in 1D
           wherever lower is and on 2D N <= GARO_EXACT_GUARD_2D (the best
           packing); None otherwise;
    witness_packing: packing certifying the reported lower bound;
    lower: the certified lower bound itself (L1/Linf only);
    method: the route of the reported value, exact where set, else upper:
            "exact packing", "exact closed form" or "16*local-maximal upper".

    L1: the majorant LP (min sum h*gamma, int_Q gamma >= doubleosc(Q),
    gamma >= 0) is dual to the fractional packing LP (sum of x_Q over the
    cubes Q holding c <= 1 for every cell c, x >= 0).  Its polytope is
    integral for intervals (totally unimodular) and for 2D N <= 4 (pairwise
    Helly squares: the cell rows are the clique rows of a perfect conflict
    graph), so both optima are the best doubleosc packing.
    """

    upper: float
    exact: float | None = None
    witness_packing: Packing | None = None
    lower: float | None = None
    method: str = "16*local-maximal upper"


def _space_kind(space: RISpaceSpec) -> str:
    if space.family == "lp" and space.p == 1:
        return "l1"
    if space.family == "lp" and math.isinf(space.p):
        return "linf"
    return "other"


def garo_norm(
    f: GridFunction,
    space: RISpaceSpec,
    s: float = DEFAULT_S,
    cube_mode: str = "auto",
) -> GaRoEstimate:
    """Garsia-Rodemich norm estimate for f in X.

    The upper route is 16 * ||M#_s f||_X.  For X in {L1, Linf} a certified
    packing lower bound is attached (1D N <= 256, 2D N <= 48), and the exact
    infimum over admissible majorants wherever it is reachable, in both
    cases the lower bound itself: for Linf max_Q doubleosc(Q)/|Q|, wherever
    that is computed; for L1 the best doubleosc packing, in 1D and on 2D
    N <= GARO_EXACT_GUARD_2D, where it equals the majorant LP's optimum
    (see GaRoEstimate).
    """
    if not 0 < s < 1:
        raise ConfigError(f"s must lie in (0,1), got {s}")
    upper = 16.0 * norm(space, rearrange(local_maximal(f, s, cube_mode)))
    kind = _space_kind(space)
    n, d = f.res, f.dim
    if kind == "other" or _past_full_guard(f):
        return GaRoEstimate(upper)
    table = CubeTable(f)
    if kind == "l1":
        kept, value = _BEST_PACKING[d](table.sides, table.starts, table.do, n)
        lower = float(value)
        witness = _packing(kept, table.sides, table.starts, n, d)
        integral = d == 1 or n <= GARO_EXACT_GUARD_2D
        exact = lower if integral else None
        method = "exact packing" if integral else GaRoEstimate.method
    else:
        # GaRo_Linf is max_Q doubleosc(Q)/|Q|, the lower bound: the constant
        # at that value is admissible, and an admissible gamma has
        # ||gamma||_inf |Q| >= int_Q gamma >= doubleosc(Q) on every cube.
        ratio = table.do / table.meas
        i = int(np.argmax(ratio))  # the first best single cube in (side, origin) order
        lower = exact = max(float(ratio[i]), 0.0)
        best = [_index_to_cube(table.sides[i], table.starts[i], n, d)]
        witness = Packing(best if ratio[i] > 0 else [])
        method = "exact closed form"
    return GaRoEstimate(upper, exact, witness, lower, method)


def garo_p_lambda(f: GridFunction, p: float, lam: float) -> float:
    """sup over packings of sum doubleosc(Q_i) / (sum |Q_i|^(1+lam/d))^(1/p').

    lam = 0 coincides with gp_norm (exact in 1D); p = inf reduces to the
    single-cube supremum.  For finite p with lam < 0 the measure budget is
    no longer integer-valued, so the value is a certified lower bound: the
    best over single cubes and the packings produced by an exact Lagrangian
    sweep on the penalized weights doubleosc - mu * budget over 33
    multipliers mu.  The sweep is one packing solve on a stack of 33 weight
    rows, one per mu: in 1D one batched DP, O(N) numpy steps over all rows;
    in 2D one solve per row.  Each packing is read by flat position, its
    cubes summed in (side, origin) order.
    """
    d = f.dim
    if not -d < lam <= 0:
        raise ConfigError(f"lambda must lie in (-{d}, 0], got {lam}")
    if lam == 0:
        return gp_norm(f, p)
    _require_desk_scale(f)
    q = _conjugate_exponent(p)
    table = CubeTable(f)
    n = f.res
    expo = 1.0 + lam / d
    do_arr = table.do
    budget_arr = table.meas**expo
    if math.isinf(p):
        return float(np.max(do_arr / budget_arr, initial=0.0))
    best = float(np.max(do_arr / budget_arr**q, initial=0.0))
    pos = do_arr > 0
    if pos.any():
        ratios = do_arr[pos] / budget_arr[pos]
        mu_grid = np.geomspace(max(float(ratios.min()), 1e-12), float(ratios.max()) + 1.0, 33)
        w = mu_grid[:, None] * budget_arr
        np.subtract(do_arr, w, out=w)
        packings = [np.sort(kept)
                    for kept, _ in _BEST_PACKING[d](table.sides, table.starts, w, n)]
        best = _best_ratio(best, packings, do_arr, budget_arr, q)
    return best


def campanato_norm(f: GridFunction, lam: float) -> float:
    """sup over cubes of |Q|^(-lam/d) * osc(Q): the homogeneous Campanato
    seminorm; the lam -> 0 limit is the BMO supremum."""
    d = f.dim
    if not -d < lam <= 0:
        raise ConfigError(f"lambda must lie in (-{d}, 0], got {lam}")
    _require_desk_scale(f)
    table = CubeTable(f)
    scale = np.repeat([((k / f.res) ** d) ** (-lam / d) for k in table.side_list],
                      table.counts)  # scalar powers, one per side
    return float(np.max(table.osc * scale, initial=0.0))


def sobolev_seminorm(f: GridFunction, alpha: float, p: float) -> float:
    """Discrete fractional seminorm: the double sum over distinct cell pairs
    of |f(x)-f(y)|^p / dist(x,y)^(d+alpha*p), times h^2, to the 1/p.

    Distances are Euclidean between cell centers.
    """
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    if not 1 <= p < math.inf:
        raise ConfigError(f"p must lie in [1, inf), got {p}")
    n, d, h = f.res, f.dim, f.cell_measure
    expo = d + alpha * p
    if d == 1:
        idx = np.arange(n)
        dist = np.abs(idx[:, None] - idx[None, :]) / n
        diff = np.abs(f.values[:, None] - f.values[None, :]) ** p
        mask = dist > 0
        total = float(np.sum(diff[mask] / dist[mask] ** expo)) * h * h
        return total ** (1.0 / p)
    v = f.array
    total = 0.0
    for di in range(n):
        js = range(1, n) if di == 0 else range(-(n - 1), n)
        for dj in js:
            a = v[max(0, -di): n - max(0, di) or None, max(0, -dj): n - max(0, dj) or None]
            b = v[max(0, di): n - max(0, -di) or None, max(0, dj): n - max(0, -dj) or None]
            dist = math.hypot(di, dj) / n
            total += 2.0 * float(np.sum(np.abs(a - b) ** p)) / dist**expo
    return (total * h * h) ** (1.0 / p)
