import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from oracles import (
    brute_garo_l1_lower,
    brute_gp,
    brute_jn,
    enumerate_packings,
    garo_l1_exact_oracle,
    garo_linf_exact_oracle,
)

from oscilab import (
    ConfigError,
    Cube,
    GridFunction,
    Packing,
    campanato_norm,
    double_oscillation,
    enumerate_cubes,
    gamma_membership,
    garo_norm,
    garo_p_lambda,
    generate,
    gp_norm,
    grid_norm,
    jn_norm,
    lp,
    sharp_maximal,
    sobolev_seminorm,
    weak_lp,
)
from oscilab.functionals import (
    GARO_EXACT_GUARD_2D,
    _packing_family_2d,
)
from oscilab.grid import CubeTable
from oscilab.packing import max_additive_packing


def gf(vals, d=1):
    vals = np.asarray(vals, dtype=float)
    n = vals.size if d == 1 else int(round(math.sqrt(vals.size)))
    return GridFunction(d, n, vals)


def test_jn_examples():
    f = gf([1, 0])
    for p in (1.5, 2.0, 7.0):
        assert jn_norm(f, p) == pytest.approx(0.5, abs=1e-12)
    assert jn_norm(gf([4, 4, 4]), 2.0) == 0.0


def test_jn_2d_family_sums_run_left_to_right():
    # built-in sum() over floats compensates since Python 3.12 and gives
    # ...091 here; a left-to-right sum gives the same bits on every version
    f = generate("random_steps", 2, 6, seed=1)
    table = CubeTable(f)
    best = float(np.max(table.meas * table.osc**2.0))
    for pk in _packing_family_2d(table, 2.0):
        total = 0.0
        for i in pk.tolist():
            total += float(table.meas[i]) * float(table.osc[i]) ** 2.0
        best = max(best, total)
    assert jn_norm(f, 2.0) == best**0.5 == 0.6327740746150092


def test_gp_examples():
    f = gf([1, 0])
    assert gp_norm(f, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert gp_norm(gf([2, 2]), 3.0) == 0.0
    assert gp_norm(f, math.inf) == pytest.approx(0.5, abs=1e-12)


def test_jn_gp_match_bruteforce(rng):
    for trial in range(12):
        d = 1 if trial % 3 else 2
        n = int(rng.integers(2, 8)) if d == 1 else int(rng.integers(2, 4))
        f = GridFunction(d, n, rng.normal(size=n**d))
        for p in (1.5, 2.0, 4.0):
            assert jn_norm(f, p) == pytest.approx(brute_jn(f, p), rel=1e-9)
            assert gp_norm(f, p) == pytest.approx(brute_gp(f, p), rel=1e-9)
        assert gp_norm(f, math.inf) == pytest.approx(
            brute_gp(f, math.inf), rel=1e-9
        )


def test_gp_below_two_jn(rng):
    for trial in range(10):
        d, n = (1, int(rng.integers(4, 32))) if trial % 2 else (2, 8)
        f = GridFunction(d, n, rng.normal(size=n**d))
        for p in (1.5, 3.0):
            assert gp_norm(f, p) <= 2 * jn_norm(f, p) * (1 + 1e-9)


def test_gamma_membership_examples(rng):
    f = gf([1, 0, 2, -1])
    ok, _, slack = gamma_membership(f, f.with_values(4 * np.abs(f.values)))
    assert ok and slack >= -1e-12
    ok, _, _ = gamma_membership(f, f.with_values(2 * sharp_maximal(f).values))
    assert ok
    ok, worst, slack = gamma_membership(f, f.with_values(0 * f.values))
    assert not ok and slack < 0
    assert worst is not None


def test_gamma_membership_equals_packing_verification(rng):
    # per-cube reduction == exhaustive packing check (both sides additive)
    from oscilab import double_oscillation

    for trial in range(6):
        n = int(rng.integers(2, 7))
        f = GridFunction(1, n, rng.normal(size=n))
        g = GridFunction(1, n, rng.uniform(0, 1.2, size=n))
        member, _, _ = gamma_membership(f, g)
        h = 1.0 / n
        brute_ok = True
        for packing in enumerate_packings((1, n)):
            lhs = sum(double_oscillation(f, q) for q in packing)
            rhs = sum(g.values[q.flat_cells(n)].sum() * h for q in packing)
            if lhs > rhs + 1e-12:
                brute_ok = False
                break
        assert member == brute_ok


def test_gamma_membership_grid_mismatch():
    with pytest.raises(ConfigError):
        gamma_membership(gf([1, 0]), gf([1, 0, 0]))


def test_garo_hand_lp():
    est = garo_norm(gf([1, 0]), lp(1))
    assert est.exact == pytest.approx(0.5, abs=1e-10)
    assert est.lower == pytest.approx(0.5, abs=1e-12)
    assert est.exact <= est.upper * (1 + 1e-9)
    assert est.witness_packing is not None


def test_garo_exact_matches_rational_simplex(rng):
    grids = []
    for trial in range(8):
        d = 1 if trial % 2 else 2
        n = int(rng.integers(2, 7)) if d == 1 else int(rng.integers(2, 4))
        grids.append(GridFunction(d, n, rng.normal(size=n**d)))
    # a grid on which the L-inf majorant problem solved as a linear program
    # lands 1.1e-16 below the lower bound
    grids.append(generate("random_steps", 1, 3, seed=0))
    for f in grids:
        est1 = garo_norm(f, lp(1))
        assert est1.exact == pytest.approx(garo_l1_exact_oracle(f), abs=1e-9)
        esti = garo_norm(f, lp(math.inf))
        assert esti.exact == pytest.approx(garo_linf_exact_oracle(f), abs=1e-9)
        # GaRo_Linf = max_Q doubleosc(Q)/|Q|: exact is the lower bound
        assert repr(esti.exact) == repr(esti.lower)
        # certified lower bound from the witness packing
        assert est1.lower == pytest.approx(brute_garo_l1_lower(f), abs=1e-9)
        assert est1.lower <= est1.exact


def test_garo_embedding_factor_four(rng):
    for trial in range(8):
        n = int(rng.integers(2, 12))
        f = GridFunction(1, n, rng.normal(size=n))
        for space in (lp(1), lp(math.inf)):
            est = garo_norm(f, space)
            assert est.exact <= 4 * grid_norm(space, f) * (1 + 1e-9)


@pytest.mark.parametrize("kind,d,n,seed", [
    ("random_steps", 1, 7, 0),
    ("cosine_mix", 1, 7, 1),
    ("random_steps", 1, 16, 1),
    ("random_steps", 2, 3, 1),
])
def test_garo_l1_exact_never_below_lower(kind, d, n, seed):
    # L1 exact is the best packing, repr-equal to lower, so never below it;
    # on these grids a floating-point LP optimum fell 1-2 ulp below lower
    est = garo_norm(generate(kind, d, n, seed=seed), lp(1))
    assert est.lower <= est.exact


def test_garo_exact_where_reachable(rng):
    # L1: exact in 1D wherever lower is, and in 2D up to the exact guard;
    # beyond it lower stays, exact goes
    for d, n in ((1, 17), (1, 256), (2, GARO_EXACT_GUARD_2D), (2, GARO_EXACT_GUARD_2D + 1)):
        est = garo_norm(GridFunction(d, n, rng.normal(size=n**d)), lp(1))
        assert est.lower is not None and est.witness_packing is not None
        assert (est.exact is not None) == (d == 1 or n <= GARO_EXACT_GUARD_2D)
        if est.exact is not None:
            assert est.lower <= est.exact
    # Linf: the exact value is the lower bound, so it is set wherever that is
    for g in (GridFunction(1, 256, rng.normal(size=256)),
              GridFunction(2, 48, rng.normal(size=48 * 48))):
        est = garo_norm(g, lp(math.inf))
        assert repr(est.exact) == repr(est.lower)
    # beyond the desk guards (1D N <= 256, 2D N <= 48) only the upper route
    for g, space in ((GridFunction(1, 512, rng.normal(size=512)), lp(math.inf)),
                     (GridFunction(2, 64, rng.normal(size=64 * 64)), lp(1)),
                     (GridFunction(1, 4, rng.normal(size=4)), lp(2))):
        est = garo_norm(g, space)
        assert est.exact is None and est.lower is None
        assert est.witness_packing is None and est.upper > 0


def test_garo_method_names_route(rng):
    # the route of the reported value: exact where set, else the upper bound
    for g, space, method in (
        (GridFunction(2, 4, rng.normal(size=16)), lp(1), "exact packing"),
        (GridFunction(1, 17, rng.normal(size=17)), lp(1), "exact packing"),
        (GridFunction(2, 5, rng.normal(size=25)), lp(1), "16*local-maximal upper"),
        (GridFunction(2, 5, rng.normal(size=25)), lp(math.inf), "exact closed form"),
        (GridFunction(1, 512, rng.normal(size=512)), lp(math.inf),
         "16*local-maximal upper"),
        (GridFunction(1, 8, rng.normal(size=8)), weak_lp(2), "16*local-maximal upper"),
    ):
        est = garo_norm(g, space)
        assert est.method == method
        assert (est.exact is None) == (method == "16*local-maximal upper")


def test_garo_upper_route_without_exact(rng):
    f = GridFunction(1, 24, rng.normal(size=24))
    est = garo_norm(f, weak_lp(2), s=0.05)
    assert est.exact is None and est.upper > 0


def _overlap_graph(n, squares):
    """Bitmask adjacency of the conflict graph of 2D squares on an N-grid:
    two squares are adjacent when they share a cell."""
    cells = [set(q.flat_cells(n).tolist()) for q in squares]
    return [sum(1 << j for j, b in enumerate(cells) if j != i and a & b)
            for i, a in enumerate(cells)]


def _has_odd_hole(adj):
    """Does the graph have an induced cycle of odd length >= 5?  A depth-first
    search over induced paths whose first vertex v0 is their smallest: a new
    vertex joins the last one, misses every interior one, and closes a cycle
    when it also joins v0."""

    def grow(v0, last, blocked, length):
        cand = adj[last] & ~blocked & (-1 << (v0 + 1))
        while cand:
            u = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if adj[u] >> v0 & 1:
                if length >= 4 and length % 2 == 0:
                    return True
            elif grow(v0, u, blocked | adj[last] | 1 << u, length + 1):
                return True
        return False

    for v0 in range(len(adj)):
        later = adj[v0] & (-1 << (v0 + 1))
        while later:
            p1 = (later & -later).bit_length() - 1
            later &= later - 1
            if grow(v0, p1, 1 << v0 | 1 << p1, 2):
                return True
    return False


@pytest.mark.parametrize("n", range(1, GARO_EXACT_GUARD_2D + 1))
def test_square_conflict_graph_is_perfect_within_garo_guard(n):
    # no odd hole and no odd antihole: the conflict graph is perfect (strong
    # perfect graph theorem), so the L1 packing polytope is integral and the
    # exact packing is GaRo_L1
    squares = enumerate_cubes((2, n))
    assert len(squares) == n * (n + 1) * (2 * n + 1) // 6  # 1, 5, 14, 30
    adj = _overlap_graph(n, squares)
    full = (1 << len(adj)) - 1
    disjoint = [full & ~a & ~(1 << i) for i, a in enumerate(adj)]
    assert not _has_odd_hole(adj)
    assert not _has_odd_hole(disjoint)


def test_square_conflict_graph_has_a_7_hole_at_5():
    # why GARO_EXACT_GUARD_2D stays at 4: seven side-2 squares of the N=5
    # grid form an induced 7-cycle
    ring = [Cube((r, c), 2) for r, c in ((0, 1), (0, 2), (1, 3), (2, 2), (3, 1), (2, 0), (1, 0))]
    adj = _overlap_graph(5, ring)
    assert adj == [1 << (i - 1) % 7 | 1 << (i + 1) % 7 for i in range(7)]
    assert _has_odd_hole(adj)


@pytest.mark.parametrize("d,n", [(1, 17), (1, 32), (1, 64), (2, 2), (2, 3), (2, 4)])
def test_garo_l1_exact_is_packing_and_lp_optimum(d, n):
    from scipy.optimize import linprog

    for kind, seed in (("random_steps", 0), ("cosine_mix", 1), ("logspike", 2)):
        f = generate(kind, d, n, seed=seed)
        est = garo_norm(f, lp(1))
        assert est.exact is not None and repr(est.exact) == repr(est.lower)
        # the majorant LP: min sum h gamma s.t. int_Q gamma >= doubleosc(Q),
        # gamma >= 0, one row per cube
        h = f.cell_measure
        cubes = enumerate_cubes((d, n))
        a_ub = np.zeros((len(cubes), f.ncells))
        for r, q in enumerate(cubes):
            a_ub[r, q.flat_cells(n)] = -h
        b_ub = [-double_oscillation(f, q) for q in cubes]
        res = linprog(np.full(f.ncells, h), A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                      method="highs")
        assert res.success and res.fun > 0
        assert abs(est.exact - res.fun) <= 1e-12 * res.fun


def test_library_runs_without_scipy():
    # scipy is a test dependency only: no library route imports it
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = """
import math, sys
import oscilab as o
f1, f2 = o.generate("random_steps", 1, 16, seed=0), o.generate("cosine_mix", 2, 4, seed=0)
for f in (f1, f2):
    for space in (o.lp(1), o.lp(math.inf)):
        o.garo_norm(f, space)
    o.hl_maximal(f), o.sharp_maximal(f), o.sharp_norm(f, o.lp(2))
    o.local_maximal(f), o.local_maximals(f, [0.1, 0.2])
    for method in ("BS", "JT", "PACK"):
        o.k_l1_bmo(f, method=method)
o.run_suite("garo")
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


def test_garo_p_lambda_reduces_to_gp(rng):
    f = GridFunction(1, 10, rng.normal(size=10))
    for p in (1.5, 2.0, math.inf):
        assert garo_p_lambda(f, p, 0.0) == pytest.approx(gp_norm(f, p), rel=1e-12)
    assert garo_p_lambda(gf([3, 3, 3]), 2.0, -0.5) == 0.0


def test_garo_p_lambda_infty_single_cube(rng):
    from oscilab import double_oscillation, enumerate_cubes

    f = GridFunction(1, 9, rng.normal(size=9))
    lam = -0.4
    got = garo_p_lambda(f, math.inf, lam)
    want = max(
        double_oscillation(f, q) * q.measure(9) ** (-lam - 1.0)
        for q in enumerate_cubes((1, 9))
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_garo_p_lambda_is_lower_bound_vs_bruteforce(rng):
    from oscilab import double_oscillation

    for trial in range(6):
        n = int(rng.integers(3, 8))
        f = GridFunction(1, n, rng.normal(size=n))
        p, lam = 2.0, -0.5
        got = garo_p_lambda(f, p, lam)
        best = 0.0
        for packing in enumerate_packings((1, n)):
            do = sum(double_oscillation(f, q) for q in packing)
            budget = sum(q.measure(n) ** (1 + lam) for q in packing)
            best = max(best, do / budget**0.5)
        assert got <= best * (1 + 1e-9)
        assert got >= 0.8 * best  # the candidate family is close on tiny grids


@pytest.mark.parametrize("call", [
    lambda f: jn_norm(f, math.inf),
    lambda f: jn_norm(f, math.nan),
    lambda f: gp_norm(f, math.nan),
    lambda f: gp_norm(f, -math.inf),
    lambda f: garo_p_lambda(f, math.nan, -0.5),
    lambda f: garo_p_lambda(f, -math.inf, -0.5),
    lambda f: sobolev_seminorm(f, 0.5, math.nan),
    lambda f: sobolev_seminorm(f, 0.5, math.inf),
    lambda f: grid_norm(lp(math.nan), f),
], ids=["jn-inf", "jn-nan", "gp-nan", "gp-neg-inf", "garo-nan", "garo-neg-inf",
        "sobolev-nan", "sobolev-inf", "lp-nan"])
def test_invalid_exponents_raise(call):
    # each returned a value that meant nothing: JN_inf gave 1.0 even on a
    # constant, NaN exponents gave nan, -inf gave the p = inf value
    with pytest.raises(ConfigError):
        call(gf([0.0, 1.0, 3.0, 2.0]))


def test_campanato_examples(rng):
    assert campanato_norm(gf([5, 5, 5, 5]), -0.5) == 0.0
    # linear function on an even grid: osc over a k-cell interval is
    # side/4 for even k, (1 - 1/k^2) side/4 for odd, so the full cube wins
    for n in (8, 16):
        f = gf((np.arange(n) + 0.5) / n)
        for lam in (-0.25, -0.5, -0.9):
            assert campanato_norm(f, lam) == pytest.approx(0.25, abs=1e-12)


def test_campanato_bmo_limit(rng):
    from oscilab import enumerate_cubes, mean_oscillation

    f = GridFunction(1, 10, rng.normal(size=10))
    bmo = max(mean_oscillation(f, q) for q in enumerate_cubes((1, 10)))
    assert campanato_norm(f, -1e-12) == pytest.approx(bmo, rel=1e-9)


def test_sobolev_matches_direct_double_sum(rng):
    for d, n in ((1, 7), (2, 4)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        alpha, p = 0.6, 2.0
        got = sobolev_seminorm(f, alpha, p)
        total = 0.0
        h = f.cell_measure
        centers = [(i + 0.5) / n for i in range(n)]
        cells = (
            [(i,) for i in range(n)]
            if d == 1
            else [(i, j) for i in range(n) for j in range(n)]
        )
        for x in cells:
            for y in cells:
                if x == y:
                    continue
                dist = math.dist(
                    [centers[c] for c in x], [centers[c] for c in y]
                )
                fx = f.array[x] if d == 2 else f.values[x[0]]
                fy = f.array[y] if d == 2 else f.values[y[0]]
                total += abs(fx - fy) ** p / dist ** (d + alpha * p) * h * h
        assert got == pytest.approx(total ** (1 / p), rel=1e-12)


def test_sobolev_constant_zero():
    assert sobolev_seminorm(gf([2, 2, 2, 2]), 0.5, 2.0) == 0.0


def test_morrey_chain_1d(rng):
    alpha, p = 0.75, 4.0
    lam = 1.0 / p - alpha
    for i in range(12):
        kind = ["cosine_mix", "random_steps", "logspike"][i % 3]
        f = generate(kind, 1, 24, seed=i)
        sob = sobolev_seminorm(f, alpha, p)
        camp = campanato_norm(f, lam)
        if sob > 0:
            assert camp <= sob * (1 + 1e-12)


def _garo_p_lambda_per_mu(f, p, lam):
    """1D garo_p_lambda with one max_additive_packing per multiplier, each
    packing's ratio summed in Cube order; every cube's budget |Q|^(1+lam)
    is read from one array power."""
    n = f.res
    table = CubeTable(f)
    do_by_side = table.by_side(table.do)
    expo = 1.0 + lam
    q = 1.0 - 1.0 / p
    do_arr = table.do
    budget_arr = np.concatenate(
        [np.full(do.size, k / n) for k, do in do_by_side.items()]
    ) ** expo
    budget_by_side = table.by_side(budget_arr)

    def ratio_of(keys):
        do = sum(float(do_by_side[k][o]) for k, o in keys)
        budget = sum(float(budget_by_side[k][o]) for k, o in keys)
        return do / budget**q if budget > 0 else 0.0

    best = max(
        float(np.max(do_arr / budget_arr**q, initial=0.0)),
        ratio_of([(1, o) for o in range(n)]),
    )
    pos = do_arr > 0
    ratios = do_arr[pos] / budget_arr[pos]
    lo, hi = max(float(ratios.min()), 1e-12), float(ratios.max()) + 1.0
    for mu in np.geomspace(lo, hi, 33):
        weights = {k: do - mu * budget_by_side[k] for k, do in do_by_side.items()}
        packing, _ = max_additive_packing(weights, (1, n))
        keys = [(qc.side, qc.origin[0]) for qc in packing]
        if keys:
            best = max(best, ratio_of(keys))
    return best


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", ["random_steps", "cosine_mix"])
@pytest.mark.parametrize("lam", [-0.3, -0.7])
def test_garo_p_lambda_batched_sweep_matches_per_mu(n, kind, lam):
    f = generate(kind, 1, n, seed=n + 1)
    assert garo_p_lambda(f, 2.0, lam) == _garo_p_lambda_per_mu(f, 2.0, lam)


def _gp_by_enumeration(f: GridFunction, ps) -> list:
    """gp_norm on a 2D N <= 4 grid as every packing gives it: the do values
    summed left to right in row-major order of first cells,
    Packing.total_measure, and the running max from 0.0, for each p in ps."""
    n = f.res
    table = CubeTable(f)
    do_by_side = table.by_side(table.do)
    sums = []
    for packing in enumerate_packings((2, n)):
        do = sum(
            float(do_by_side[qc.side][qc.origin[0] * (n - qc.side + 1)
                                      + qc.origin[1]])
            for qc in sorted(packing, key=lambda q: q.origin)
        )
        sums.append((do, packing.total_measure(n)))
    out = []
    for p in ps:
        q = 1.0 - 1.0 / p
        best = 0.0
        for do, meas in sums:
            best = max(best, do / meas**q)
        out.append(best)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packing_measure_depends_on_cell_count_only(n):
    # gp_norm's 2D subset DP keys packings by cells covered: every side
    # composition that fits must give the fsum of that many unit cells
    def compositions(k, room):
        if k > n:
            yield []
            return
        for c in range(room // (k * k) + 1):
            for rest in compositions(k + 1, room - c * k * k):
                yield [c] + rest

    for counts in compositions(1, n * n):
        # total_measure reads the sides only, so the origins may coincide
        cubes = [Cube((0, 0), k) for k, c in enumerate(counts, 1) for _ in range(c)]
        cells = sum(k * k * c for k, c in enumerate(counts, 1))
        assert Packing(cubes).total_measure(n) == math.fsum([(1 / n) ** 2] * cells)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["indicator", "random_steps", "cosine_mix"])
def test_gp_norm_2d_small_equals_enumeration(n, kind):
    ps = (1.1, 1.5, 2.0, 4.0)
    f = generate(kind, 2, n, seed=10 * n + 3)
    got = [repr(gp_norm(f, p)) for p in ps]
    assert got == [repr(v) for v in _gp_by_enumeration(f, ps)]
