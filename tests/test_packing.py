import functools
import math

import numpy as np
import pytest

from oracles import enumerate_packings, packing_count_1d

from oscilab import (
    ConfigError,
    Cube,
    GeometryError,
    Packing,
    SizeGuardError,
    additive_pareto,
    enumerate_cubes,
    max_additive_packing,
    max_measure_packing,
    union_measure,
    vitali_select,
)
from oscilab.grid import _family
from oscilab.packing import _BEST_PACKING, _best_by_cells, _best_packing_2d, _skyline_dp


def test_enumerate_packings_tiny():
    pks = list(enumerate_packings((1, 2)))
    as_sets = [frozenset(p.cubes) for p in pks]
    assert len(pks) == 4
    assert frozenset([Cube((0,), 2)]) in as_sets
    assert frozenset([Cube((0,), 1), Cube((1,), 1)]) in as_sets
    assert len(list(enumerate_packings((1, 1)))) == 1


def test_enumerate_packings_counts_match_recurrence():
    for n in range(1, 9):
        got = sum(1 for _ in enumerate_packings((1, n)))
        assert got == packing_count_1d(n) - 1  # nonempty only


def test_enumerate_packings_unique_and_disjoint():
    seen = set()
    for p in enumerate_packings((2, 3)):
        key = frozenset(p.cubes)
        assert key not in seen
        seen.add(key)
        p.validate(3)  # raises on overlap
    assert len(seen) > 100


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        next(enumerate_packings((1, 13)))
    with pytest.raises(SizeGuardError):
        next(enumerate_packings((2, 5)))


def test_max_measure_examples():
    # overlapping intervals of 2 and 3 cells: take the longer one
    cubes = [Cube((0,), 2), Cube((1,), 3)]
    pk, val = max_measure_packing(cubes, (1, 4))
    assert val == pytest.approx(0.75)
    assert pk.cubes == [Cube((1,), 3)]
    # disjoint candidates are all selected
    cubes = [Cube((0,), 2), Cube((2,), 2)]
    pk, val = max_measure_packing(cubes, (1, 4))
    assert len(pk) == 2 and val == pytest.approx(1.0)


def test_max_measure_matches_bruteforce(rng):
    for trial in range(60):
        n = int(rng.integers(2, 13))
        cubes = enumerate_cubes((1, n))
        keep = [q for q in cubes if rng.random() < 0.5]
        if not keep:
            continue
        _, val = max_measure_packing(keep, (1, n))
        keepset = set(keep)
        best = 0.0
        for p in enumerate_packings((1, n)):
            if all(q in keepset for q in p):
                best = max(best, p.total_measure(n))
        assert val == pytest.approx(best, abs=1e-12)


def test_max_measure_monotone_in_candidates(rng):
    n = 10
    cubes = enumerate_cubes((1, n))
    keep = [q for q in cubes if rng.random() < 0.6]
    _, big = max_measure_packing(keep, (1, n))
    _, small = max_measure_packing(keep[::2], (1, n))
    assert small <= big + 1e-12


def test_max_measure_2d_exact_small(rng):
    for trial in range(8):
        cubes = [q for q in enumerate_cubes((2, 4)) if rng.random() < 0.45]
        if not cubes:
            continue
        _, val = max_measure_packing(cubes, (2, 4))
        cubeset = set(cubes)
        best = 0.0
        for p in enumerate_packings((2, 4)):
            if all(q in cubeset for q in p):
                best = max(best, p.total_measure(4))
        assert val == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("d,n", [(1, 7), (1, 10), (2, 3), (2, 4)])
def test_max_measure_duplicated_candidates(rng, d, n):
    cubes = enumerate_cubes((d, n))
    for trial in range(3):
        keep = [q for q in cubes if rng.random() < 0.4]
        offered = keep + keep[::2]  # every other candidate offered twice
        pk, val = max_measure_packing(offered, (d, n))
        pk.validate(n)
        assert set(pk.cubes) <= set(keep)
        assert val == pytest.approx(pk.total_measure(n), abs=1e-12)
        keepset = set(keep)
        best = max((p.total_measure(n) for p in enumerate_packings((d, n))
                    if all(q in keepset for q in p)), default=0.0)
        assert val == pytest.approx(best, abs=1e-12)
        assert max_measure_packing(keep, (d, n))[1] == val
    # sides 2 and 3 (1D) or 1 and 3 (2D) only, offered shuffled with
    # duplicates: the witness is pinned, ties to the smaller side first
    keep = [q for q in cubes if q.side in ((2, 3) if d == 1 else (1, 3))]
    offered = keep + keep[::2]
    pk, val = max_measure_packing([offered[i] for i in rng.permutation(len(offered))],
                                  (d, n))
    pinned = {
        (1, 7): [((0,), 2), ((2,), 2), ((4,), 3)],
        (1, 10): [((o,), 2) for o in range(0, 10, 2)],
        (2, 3): [((i, j), 1) for i in range(3) for j in range(3)],
        (2, 4): [((0, j), 1) for j in range(4)] + [((i, 0), 1) for i in (1, 2, 3)]
        + [((1, 1), 3)],
    }
    assert [(q.origin, q.side) for q in pk] == pinned[d, n]
    ref, ref_val = max_measure_packing(keep, (d, n))
    assert pk.cubes == ref.cubes and val == ref_val


def _weight_desc_sum(weights, packing):
    """The packing's weights summed left to right, weight descending, then
    by (side, origin): the order max_additive_packing adds them in 2D."""
    total = 0.0
    for q in sorted(packing, key=lambda q: (-weights[q], q)):
        total += weights[q]
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["float", "tied"])
def test_max_additive_2d_small_equals_enumeration(n, kind):
    rng = np.random.default_rng(400 + n)
    cubes = enumerate_cubes((2, n))
    for trial in range(3):
        raw = (rng.integers(-2, 4, size=len(cubes)) / 2.0 if kind == "tied"
               else rng.normal(size=len(cubes)))
        weights = dict(zip(cubes, raw.tolist()))
        best = 0.0
        for p in enumerate_packings((2, n)):
            best = max(best, _weight_desc_sum(weights, [q for q in p if weights[q] > 0]))
        pk, val = max_additive_packing(lambda q: weights[q], (2, n))
        assert repr(val) == repr(best)
        pk.validate(n)
        assert all(weights[q] > 0 for q in pk)
        assert repr(_weight_desc_sum(weights, pk)) == repr(val)


def test_max_additive_examples():
    n = 6
    # a single positive-weight cube wins alone
    w = {q: -1.0 for q in enumerate_cubes((1, n))}
    star = Cube((2,), 3)
    w[star] = 2.0
    pk, val = max_additive_packing(lambda q: w[q], (1, n))
    assert pk.cubes == [star] and val == 2.0
    # all weights <= 0: empty packing, value 0
    pk, val = max_additive_packing(lambda q: -1.0, (1, n))
    assert len(pk) == 0 and val == 0.0


def test_max_additive_matches_bruteforce(rng):
    # together with the measure-packing draws this exceeds 100 random
    # DP-vs-exhaustive comparisons at N <= 12
    for trial in range(45):
        n = int(rng.integers(2, 13))
        weights = {q: float(rng.normal()) for q in enumerate_cubes((1, n))}
        pk, val = max_additive_packing(lambda q: weights[q], (1, n))
        best = 0.0
        for p in enumerate_packings((1, n)):
            best = max(best, sum(weights[q] for q in p))
        assert val == pytest.approx(best, abs=1e-12)
        assert sum(weights[q] for q in pk) == pytest.approx(val, abs=1e-12)


def test_max_additive_2d_exact_small(rng):
    for trial in range(6):
        weights = {q: float(rng.normal()) for q in enumerate_cubes((2, 3))}
        _, val = max_additive_packing(lambda q: weights[q], (2, 3))
        best = 0.0
        for p in enumerate_packings((2, 3)):
            best = max(best, sum(weights[q] for q in p))
        assert val == pytest.approx(best, abs=1e-12)


def test_additive_pareto_2d_matches_enumeration(rng):
    for trial in range(4):
        weights = {q: float(rng.normal()) for q in enumerate_cubes((2, 3))}
        if trial == 3:  # ties and exact zeros
            weights = {q: float(rng.integers(-1, 2)) for q in weights}
        expect = [0.0] + [-math.inf] * 9
        for p in enumerate_packings((2, 3)):
            m = p.total_cells()
            # summed in row-major order of first cells, as the DP adds them
            row_major = sorted(p, key=lambda q: q.origin)
            expect[m] = max(expect[m], sum(weights[q] for q in row_major))
        assert additive_pareto(lambda q: weights[q], (2, 3)).tolist() == expect


def test_additive_pareto_2d_guards():
    with pytest.raises(SizeGuardError):
        additive_pareto(lambda q: 1.0, (2, 5))
    # one entry for both dimensions: 1D is always exact
    assert additive_pareto(lambda q: 1.0, (1, 4)).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["normal", "halves", "restricted"])
def test_max_additive_2d_budget_matches_enumeration(n, kind):
    rng = np.random.default_rng(1000 + n)
    cubes = enumerate_cubes((2, n))
    for trial in range(3):
        weights = dict(zip(cubes, _skyline_weights(rng, kind, len(cubes)).tolist()))
        expect = [0.0] + [-math.inf] * (n * n)
        for p in enumerate_packings((2, n)):
            row_major = sorted(p, key=lambda q: q.origin)
            expect[p.total_cells()] = max(expect[p.total_cells()],
                                          sum(weights[q] for q in row_major))
        pareto = additive_pareto(lambda q: weights[q], (2, n))
        assert pareto.tolist() == expect
        for m in range(n * n + 1):
            if pareto[m] == -math.inf:
                with pytest.raises(ConfigError):
                    max_additive_packing(lambda q: weights[q], (2, n), measure_budget=m)
                continue
            pk, val = max_additive_packing(lambda q: weights[q], (2, n), measure_budget=m)
            pk.validate(n)
            assert pk.total_cells() == m and val == pareto[m]
            total = 0.0  # the packing's weights in row-major order of origins
            for q in sorted(pk, key=lambda q: q.origin):
                total += weights[q]
            assert total == val


def test_2d_budget_is_guarded():
    with pytest.raises(SizeGuardError):
        max_additive_packing(lambda q: 1.0, (2, 5), measure_budget=3)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 5), (1, 9), (2, 2), (2, 4)])
def test_best_by_cells_packing_of_both_ops(d, n):
    # packing_of(c) covers c cells and attains best[c], for sums and max-min
    rng = np.random.default_rng(1100 + 10 * d + n)
    sides, starts = _family(n, d, range(1, n + 1))
    for kind in ("normal", "halves", "restricted"):
        w = _skyline_weights(rng, kind, sides.size)
        for op in (np.add, np.minimum):
            best, packing_of = _best_by_cells(sides, starts, w, n, d, op)
            for c in np.flatnonzero(best > -math.inf).tolist():
                kept = packing_of(c)
                assert kept.tolist() == sorted(set(kept.tolist()))
                assert int((sides[kept] ** d).sum()) == c
                value = 0.0 if op is np.add else math.inf
                for i in kept[np.argsort(starts[kept], kind="stable")]:
                    value = float(op(value, w[i]))
                assert value == best[c]


@functools.cache
def _row_major_packings(n: int) -> np.ndarray:
    """Every 2D packing as a row of family positions, cubes in row-major
    order of first cells, padded with -1: the empty packing first."""
    sides, starts = _family(n, 2, range(1, n + 1))
    at = {(k, s): i for i, (k, s) in enumerate(zip(sides.tolist(), starts.tolist()))}
    rows = [[at[q.side, q.origin[0] * n + q.origin[1]]
             for q in sorted(p, key=lambda q: q.origin)]
            for p in enumerate_packings((2, n))]
    out = np.full((len(rows) + 1, n * n), -1)
    for r, row in enumerate(rows, start=1):
        out[r, :len(row)] = row
    return out


def _skyline_weights(rng, kind: str, size: int) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=size)
    if kind == "halves":  # ties and exact zeros
        return rng.integers(-2, 5, size=size) / 2.0
    return np.where(rng.random(size) < 0.4, -math.inf, rng.normal(size=size))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["normal", "halves", "restricted"])
def test_skyline_dp_matches_enumeration(n, kind):
    rng = np.random.default_rng(700 + n)
    sides, starts = _family(n, 2, range(1, n + 1))
    packings = _row_major_packings(n)
    real = packings >= 0
    cells = np.where(real, sides[packings] ** 2, 0).sum(axis=1)
    for trial in range(3):
        w = _skyline_weights(rng, kind, sides.size)
        total = np.zeros(len(packings))  # summed left to right, row-major
        for col in range(n * n):
            total = total + np.where(real[:, col], w[packings[:, col]], 0.0)
        low = np.where(real, w[packings], math.inf).min(axis=1)
        expect_sum = np.full(n * n + 1, -math.inf)
        expect_min = np.full(n * n + 1, -math.inf)
        np.maximum.at(expect_sum, cells, total)
        np.maximum.at(expect_min, cells, low)
        for op, expect in ((np.add, expect_sum), (np.minimum, expect_min)):
            assert _best_by_cells(sides, starts, w, n, 2, op)[0].tolist() == expect.tolist()
        # the witness: positive cubes only, the best row-major sum bit for
        # bit, ties to the fewest covered cells
        kept, val = _best_packing_2d(sides, starts, w, n)
        assert np.all(w[kept] > 0)
        Packing([Cube(divmod(s, n), k) for k, s in
                 zip(sides[kept].tolist(), starts[kept].tolist())]).validate(n)
        rm = 0.0
        for i in kept[np.argsort(starts[kept])]:
            rm += w[i]
        ok = low > 0
        best = total[ok].max()  # the empty packing (row 0) has low = inf
        assert rm == best
        assert sides[kept] @ sides[kept] == cells[ok][total[ok] == best].min()
        assert val == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 8, 13])
def test_best_packing_2d_stack_is_one_solve_per_row(n):
    # skyline (N <= 4) and greedy (beyond) rows: ties and weights <= 0
    rng = np.random.default_rng(900 + n)
    sides, starts = _family(n, 2, range(1, n + 1))
    stack = np.concatenate([rng.integers(-2, 4, size=(3, sides.size)) / 2.0,
                            rng.normal(size=(3, sides.size)),
                            np.zeros((1, sides.size)), -np.ones((1, sides.size))])
    got = _BEST_PACKING[2](sides, starts, stack, n)
    assert len(got) == len(stack)
    for (kept, val), row in zip(got, stack):
        want_kept, want_val = _best_packing_2d(sides, starts, row, n)
        assert kept.tolist() == want_kept.tolist()
        assert repr(val) == repr(want_val)


@pytest.mark.parametrize("n", [5, 6])
def test_skyline_dp_matches_milp(n):
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = np.random.default_rng(800 + n)
    sides, starts = _family(n, 2, range(1, n + 1))
    cover = np.zeros((n * n, sides.size))  # cover[cell, cube]
    for i, (k, s) in enumerate(zip(sides.tolist(), starts.tolist())):
        cover[Cube(divmod(s, n), k).flat_cells(n), i] = 1
    area = sides.astype(float) ** 2
    for kind in ("normal", "halves"):
        w = _skyline_weights(rng, kind, sides.size)
        best, _ = _skyline_dp(sides, starts, w, n, np.add)
        for c in (None, 3, n * n // 2 + 1, n * n):
            rows = [LinearConstraint(cover, 0, 1)]
            if c is not None:
                rows.append(LinearConstraint(area[None, :], c, c))
            res = milp(-w, constraints=rows, integrality=np.ones(sides.size),
                       bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
            assert res.success
            got = best.max() if c is None else best[c]
            assert got == pytest.approx(-res.fun, abs=1e-9)


def test_budgeted_dp_and_pareto(rng):
    n = 8
    cubes = enumerate_cubes((1, n))
    weights = {q: float(abs(rng.normal())) for q in cubes}
    # restricted candidates (-inf weights; no unit cube, so m = 1 is
    # unreachable), and half-integers for ties
    restricted = {q: weights[q] if q.side > 1 and rng.random() < 0.6 else -math.inf
                  for q in cubes}
    halves = {q: float(rng.integers(0, 5)) / 2 if rng.random() < 0.6 else -math.inf
              for q in cubes}

    def by_side(w, order):  # a {side: per-origin array} dict in this order
        return {int(k): np.array([w[q] for q in cubes if q.side == k]) for k in order}

    cases = [
        (weights, lambda q: weights[q]),
        (weights, by_side(weights, range(n, 0, -1))),  # reversed dict order
        (restricted, by_side(restricted, range(1, n + 1))),
        (halves, by_side(halves, rng.permutation(np.arange(1, n + 1)))),  # shuffled
    ]
    for w, arg in cases:
        pareto = additive_pareto(arg, (1, n))
        assert pareto.size == n + 1 and pareto[0] == 0.0
        # exact-m brute force; a -inf weight keeps its packings out
        expect = [0.0] + [-math.inf] * n
        for p in enumerate_packings((1, n)):
            m = p.total_cells()
            expect[m] = max(expect[m], sum(w[q] for q in p))
        for m in range(n + 1):
            if not math.isfinite(expect[m]):
                assert pareto[m] == -math.inf
                with pytest.raises(ConfigError):
                    max_additive_packing(arg, (1, n), measure_budget=m)
                continue
            assert pareto[m] == pytest.approx(expect[m], abs=1e-12)
            pk, val = max_additive_packing(arg, (1, n), measure_budget=m)
            assert pk.total_cells() == m and val == pareto[m]
            assert math.fsum(w[q] for q in pk) == pytest.approx(val, abs=1e-12)
    # nonnegative weights on every cube: the exact-m profile is non-decreasing
    assert np.all(np.diff(additive_pareto(cases[0][1], (1, n))) >= -1e-12)


def test_vitali_select_basics():
    disjoint = [Cube((0,), 2), Cube((2,), 2), Cube((5,), 1)]
    pk = vitali_select(disjoint, (1, 8))
    assert sorted(pk.cubes) == sorted(disjoint)
    nested = [Cube((0,), 8), Cube((0,), 4), Cube((2,), 2)]
    pk = vitali_select(nested, (1, 8))
    assert pk.cubes == [Cube((0,), 8)]


def test_vitali_coverage_factor(rng):
    worst = 0.0
    for d, n in ((1, 20), (2, 8)):
        for trial in range(12):
            cubes = [q for q in enumerate_cubes((d, n)) if rng.random() < 0.3]
            if not cubes:
                continue
            pk = vitali_select(cubes, (d, n))
            selected = sum(q.measure(n) for q in pk)
            cover = union_measure(cubes, (d, n))
            assert cover <= 5.0**d * selected + 1e-12
            worst = max(worst, cover / selected)
    assert worst > 1.0  # the bound is actually exercised


def test_budget_validation():
    with pytest.raises(ConfigError):
        max_additive_packing(lambda q: 1.0, (1, 4), measure_budget=7)
    with pytest.raises(ConfigError):  # 2D budgets run 0..N^2
        max_additive_packing(lambda q: 1.0, (2, 3), measure_budget=10)


@pytest.mark.parametrize("d,weights", [
    (1, {1: np.ones(4), 2: np.ones(7), 3: np.ones(2), 4: np.ones(1)}),  # too long
    (1, {1: np.ones(4), 2: np.ones(2), 3: np.ones(2), 4: np.ones(1)}),  # too short
    (1, {1: np.ones(4), 2: np.ones(3), 3: np.ones(2)}),  # a side missing
    (1, {1: np.ones(4), 2: np.ones(3), 3: np.ones(2), 4: np.ones(1), 5: []}),
    (2, {1: np.ones(16), 2: np.ones(9), 4: np.ones(1)}),  # side 3 missing
    (2, {1: np.ones(16), 2: np.ones(9), 3: np.ones(5), 4: np.ones(1)}),
    (2, "not weights"),
])
def test_packing_weights_validated(d, weights):
    with pytest.raises(ConfigError):
        max_additive_packing(weights, (d, 4))
    with pytest.raises(ConfigError):
        additive_pareto(weights, (d, 4))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_packing_weights_finite_or_minus_inf(d, bad):
    n = 3
    unit = Cube((1,) * d, 1)

    def weights(q):
        return bad if q == unit else 1.0

    per_side = {k: np.ones((n - k + 1) ** d) for k in range(1, n + 1)}
    per_side[1][(n ** d) // 2] = bad  # the cell at the grid's centre
    for w in (weights, per_side):
        with pytest.raises(ConfigError, match="finite or -inf"):
            max_additive_packing(w, (d, n))
        with pytest.raises(ConfigError, match="finite or -inf"):
            max_additive_packing(w, (d, n), measure_budget=1)
        with pytest.raises(ConfigError, match="finite or -inf"):
            additive_pareto(w, (d, n))
    # -inf stays the way to drop a candidate: no unit cube, no 1-cell packing
    dropped = additive_pareto(lambda q: -math.inf if q.side == 1 else 1.0, (d, n))
    assert dropped[1] == -math.inf and dropped[n ** d] == 1.0


@pytest.mark.parametrize("grid", [(3, 4), (0, 4), (2, 0)])
def test_packing_grid_validated(grid):
    with pytest.raises(ConfigError):
        max_additive_packing(lambda q: 1.0, grid)
    with pytest.raises(ConfigError):
        max_measure_packing([Cube((0, 0), 1)], grid)


def test_union_measure_rejects_cube_past_1d_grid():
    with pytest.raises(GeometryError):
        union_measure([Cube((3,), 4)], (1, 4))
    with pytest.raises(GeometryError):
        vitali_select([Cube((3,), 4)], (1, 4))


def test_2d_cube_past_row_end_is_rejected():
    # Cube((0, 3), 2) on N=4 would wrap into the next row, where its cells
    # meet the disjoint Cube((1, 0), 1)
    wrapped = [Cube((0, 3), 2), Cube((1, 0), 1)]
    with pytest.raises(GeometryError):
        union_measure(wrapped, (2, 4))
    with pytest.raises(GeometryError):
        vitali_select(wrapped, (2, 4))


def test_union_and_vitali_reject_unsupported_dim():
    for grid in ((3, 4), (0, 4), (2, 0)):
        with pytest.raises(ConfigError):
            union_measure([Cube((0, 0), 1)], grid)
        with pytest.raises(ConfigError):
            vitali_select([Cube((0, 0), 1)], grid)
    with pytest.raises(GeometryError):  # a 1D cube on a 2D grid
        union_measure([Cube((0,), 1)], (2, 4))


def test_max_additive_tie_break_pinned():
    # tied optima: skipping a cell wins a tie, then the first side in the
    # weight dict's order
    n = 6
    per_cell = {k: np.full(n - k + 1, float(k)) for k in range(1, n + 1)}
    reverse = dict(reversed(list(per_cell.items())))
    zero = {k: np.zeros(n - k + 1) for k in range(1, n + 1)}
    # restricted: no unit at an odd origin and no side-4 cube
    restricted = {k: v.copy() for k, v in per_cell.items()}
    restricted[1][1::2] = restricted[4][:] = -math.inf
    # negative odd sides under ties of the even ones
    negative = {k: np.full(n - k + 1, float(k) if k % 2 == 0 else -1.0)
                for k in range(1, n + 1)}
    units = [Cube((o,), 1) for o in range(n)]
    pairs = [Cube((o,), 2) for o in range(0, n, 2)]
    for w, m, want, value in (
        (per_cell, None, units, 6.0),
        (reverse, None, [Cube((0,), 6)], 6.0),
        (zero, None, [], 0.0),
        (per_cell, 3, units[:3], 3.0),
        (per_cell, 4, units[:4], 4.0),
        (reverse, 4, [Cube((0,), 4)], 4.0),
        (zero, 3, units[:3], 0.0),
        (restricted, None, pairs, 6.0),
        (dict(reversed(list(restricted.items()))), None, [Cube((0,), 6)], 6.0),
        (restricted, 4, pairs[:2], 4.0),
        (negative, None, pairs, 6.0),
        (dict(reversed(list(negative.items()))), None, [Cube((0,), 6)], 6.0),
        (negative, 4, pairs[:2], 4.0),
    ):
        pk, val = max_additive_packing(w, (1, n), measure_budget=m)
        assert pk.cubes == want and val == value
