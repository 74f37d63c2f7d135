"""Pin every 2D greedy selection to a plain boolean-occupancy greedy loop.

The library runs all greedy disjoint selections through one cell-bitmask
kernel.  Each test here rebuilds the expected selection with a literal
loop over Cube objects and a boolean cell array, in the selection order
each caller documents, and asserts equality with == and repr: the same
cubes in the same order and bit-identical values.
"""


import numpy as np
import pytest

from oscilab import (
    Cube,
    enumerate_cubes,
    generate,
    max_additive_packing,
    max_measure_packing,
    vitali_select,
)
from oscilab.functionals import _packing_family_2d
from oscilab.grid import CubeTable, _family, _index_to_cube
from oscilab.kfunctional import _greedy_counts_2d, _level_search, f_sharp_curve
from oscilab.packing import _SEGMENT, _greedy_disjoint


def _occupancy_greedy(cubes, n, d):
    """Keep each cube, in the given order, whose cells are all still free."""
    occ = np.zeros(n**d, dtype=bool)
    kept = []
    for q in cubes:
        cells = q.flat_cells(n)
        if occ[cells].any():
            continue
        occ[cells] = True
        kept.append(q)
    return kept


def _weight_greedy(entries, n):
    """Weight descending, then (side, origin); weights <= 0 dropped; the
    value is summed in acceptance order and the cubes returned sorted."""
    entries = sorted((e for e in entries if e[1] > 0), key=lambda e: (-e[1], e[0]))
    weight = dict(entries)
    kept = _occupancy_greedy([q for q, _ in entries], n, 2)
    val = 0.0
    for q in kept:
        val += weight[q]
    return sorted(kept), val


def _by_side_origin(w, n):
    """{side: per-origin array} -> Cube -> weight."""
    return lambda q: float(w[q.side][q.origin[0] * (n - q.side + 1) + q.origin[1]])


@pytest.mark.parametrize("n", [5, 8, 13])
@pytest.mark.parametrize("kind", ["tied", "float"])
def test_max_additive_packing_2d_pinned(n, kind):
    rng = np.random.default_rng(100 + n)
    w = {}
    for k in range(1, n + 1):
        m = (n - k + 1) ** 2
        # small integers: many ties and many non-positive weights
        w[k] = (rng.integers(-2, 4, size=m) / 2.0 if kind == "tied"
                else rng.normal(size=m))
    look = _by_side_origin(w, n)
    expect = _weight_greedy([(q, look(q)) for q in enumerate_cubes((2, n))], n)
    for weights in (w, look):
        pk, val = max_additive_packing(weights, (2, n))
        assert pk.cubes == expect[0]
        assert repr(val) == repr(expect[1])


@pytest.mark.parametrize("n", [5, 8, 13])
def test_max_measure_packing_2d_pinned(n):
    rng = np.random.default_rng(200 + n)
    cubes = enumerate_cubes((2, n))
    cand = [cubes[i] for i in rng.permutation(len(cubes))[: len(cubes) // 3]]
    cand += cand[:4]  # duplicates are offered twice, kept at most once
    pk, val = max_measure_packing(cand, (2, n))
    kept, ref = _weight_greedy([(q, q.measure(n)) for q in cand], n)
    assert pk.cubes == kept
    assert repr(val) == repr(ref)


@pytest.mark.parametrize("d,n", [(1, 40), (2, 5), (2, 8), (2, 13)])
def test_vitali_select_pinned(d, n):
    rng = np.random.default_rng(300 + n)
    cubes = enumerate_cubes((d, n))
    cand = [cubes[i] for i in rng.permutation(len(cubes))[: len(cubes) // 4]]
    order = sorted(cand, key=lambda q: (-q.side, q.origin))
    assert vitali_select(cand, (d, n)).cubes == sorted(_occupancy_greedy(order, n, d))


@pytest.mark.parametrize("n,kind,p", [(8, "random_steps", 2.0),
                                      (13, "cosine_mix", 1.5),
                                      (16, "random_steps", 8.0)])
def test_packing_family_2d_pinned(n, kind, p):
    f = generate(kind, 2, n, seed=n)
    table = CubeTable(f)
    sides, origins = [], []
    for k, side_osc in table.by_side(table.osc).items():
        sides += [k] * side_osc.size
        origins += list(range(side_osc.size))
    osc, do = table.osc, table.do
    meas = np.array([(k / n) ** 2 for k in sides])
    q = 1.0 - 1.0 / p
    keys = [osc, do, do / meas, meas * osc**p, do / meas**q]
    expect = []  # no unit-cell partition: it scores 0
    for key in keys:  # stable key-descending order over (side, origin lex)
        order = []
        for i in np.argsort(-key, kind="stable"):
            k, o = sides[i], origins[i]
            order.append(Cube(divmod(o, n - k + 1), k))
        expect.append([(q.side, q.origin[0] * (n - q.side + 1) + q.origin[1])
                       for q in _occupancy_greedy(order, n, 2)])
    family = _packing_family_2d(CubeTable(f), p)
    cubes = enumerate_cubes((2, n))  # the family's flat positions index these
    assert [[(q.side, q.origin[0] * (n - q.side + 1) + q.origin[1])
             for q in (cubes[i] for i in pk)] for pk in family] == expect


@pytest.mark.parametrize("n,mode", [(8, "full"), (16, "full")])
def test_f_sharp_curve_2d_greedy_pinned(n, mode):
    f = generate("random_steps", 2, n, seed=7 + n)
    table = CubeTable(f, mode == "dyadic")
    levels, cells = _greedy_counts_2d(table, table.osc)
    cubes = enumerate_cubes((2, n), dyadic_only=mode == "dyadic")  # osc's order
    assert len(cubes) == table.osc.size
    stat = dict(zip(cubes, table.osc.tolist()))
    order = sorted(cubes, key=lambda q: (-q.side, q.origin))
    counts = []
    for lam in levels:  # side descending, then origin lex
        kept = _occupancy_greedy([q for q in order if not stat[q] < lam], n, 2)
        counts.append(sum(q.ncells() for q in kept))
    assert [cells(i) for i in range(len(counts))] == counts
    ts = np.geomspace(f.cell_measure / 2, 1.0, 64)
    got = f_sharp_curve(f, ts, cube_mode=mode)
    # the library's search over the pinned counts
    want = [_level_search(levels, counts.__getitem__, float(t) * n**2) for t in ts]
    assert repr(got.tolist()) == repr(want)


# _greedy_disjoint walks the cubes in segments and sieves the rest in numpy
# between them; each case below crosses at least one segment boundary
# unless it is trivially short, and must keep the plain walk's positions.

def _reference_positions(sides, starts, n, d):
    """Positions kept by _occupancy_greedy, one Cube object per position."""
    cubes = [_index_to_cube(k, s, n, d) for k, s in zip(sides.tolist(), starts.tolist())]
    at = {id(q): i for i, q in enumerate(cubes)}
    return [at[id(q)] for q in _occupancy_greedy(cubes, n, d)]


def _assert_kernel(sides, starts, n, d):
    sides, starts = np.asarray(sides, dtype=int), np.asarray(starts, dtype=int)
    assert _greedy_disjoint(sides, starts, n, d) == _reference_positions(sides, starts, n, d)


@pytest.mark.parametrize("d,n", [(2, 5), (2, 13), (2, 32), (1, 20), (1, 300)])
def test_kernel_shuffled_family(d, n):
    sides, starts = _family(n, d, range(1, n + 1))
    perm = np.random.default_rng(400 + n).permutation(sides.size)
    _assert_kernel(sides[perm], starts[perm], n, d)


@pytest.mark.parametrize("n", [5, 13, 32])
def test_kernel_key_descending_and_level_filtered(n):
    table = CubeTable(generate("random_steps", 2, n, seed=500 + n))
    sides, starts, stat = table.sides, table.starts, table.osc
    key = np.where(table.meas > 0, table.do / table.meas, 0.0)
    order = np.argsort(-key, kind="stable")  # as _packing_family_2d passes it
    _assert_kernel(sides[order], starts[order], n, 2)
    order = np.lexsort((starts, -sides))  # as _greedy_counts_2d passes it
    for level in np.quantile(stat[stat > 0], [0.0, 0.5, 0.9, 0.99]):
        idx = order[stat[order] >= level]
        _assert_kernel(sides[idx], starts[idx], n, 2)


@pytest.mark.parametrize("d,n", [(2, 13), (1, 300)])
def test_kernel_duplicated_cubes(d, n):
    sides, starts = _family(n, d, range(1, n + 1))
    pick = np.random.default_rng(600 + n).integers(0, sides.size, size=3 * _SEGMENT)
    pick = np.concatenate((pick, pick[::-1]))  # every cube offered at least twice
    _assert_kernel(sides[pick], starts[pick], n, d)


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_empty_input(d):
    assert _greedy_disjoint(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 7, d) == []


def test_kernel_grid_fills_before_input_ends():
    n = 13  # 169 unit cells: the grid fills in the second segment
    sides, starts = _family(n, 2, range(1, n + 1))
    assert _greedy_disjoint(sides, starts, n, 2) == list(range(n * n))
    back = np.arange(sides.size)[::-1]  # the whole grid first
    assert _greedy_disjoint(sides[back], starts[back], n, 2) == [0]
    _assert_kernel(sides, starts, n, 2)


def test_kernel_keep_at_segment_ends():
    # 2D N=13: the side-2 cube at (0,0) first, then cubes meeting it up to
    # the last position of the first segment, which holds a free cube; the
    # next segment opens with a free cube, then cubes meeting only the one
    # kept last in the first segment, and one more free cube
    n = 13
    dead = [(1, 0), (1, 1), (1, n), (1, n + 1), (2, 0), (3, 0)]
    sides = [2] + [dead[i % len(dead)][0] for i in range(_SEGMENT - 2)] + [2]
    starts = [0] + [dead[i % len(dead)][1] for i in range(_SEGMENT - 2)] + [5 * n + 5]
    sides += [2, 1, 3, 4, 1]
    starts += [10 * n + 10, 6 * n + 6, 4 * n + 4, 0, 12 * n + 12]
    assert len(sides) == _SEGMENT + 5
    _assert_kernel(sides, starts, n, 2)
    assert _greedy_disjoint(np.array(sides), np.array(starts), n, 2) == [
        0, _SEGMENT - 1, _SEGMENT, _SEGMENT + 4]
