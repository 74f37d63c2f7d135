"""Pin every 2D greedy selection to a plain boolean-occupancy greedy loop.

The library runs all greedy disjoint selections through one cell-bitmask
kernel.  Each test here rebuilds the expected selection with a literal
loop over Cube objects and a boolean cell array, in the selection order
each caller documents, and asserts equality with == and repr: the same
cubes in the same order and bit-identical values.
"""

import math

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
from oscilab.grid import CubeTable
from oscilab.kfunctional import _greedy_counts_2d, _level_search, f_sharp_curve


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
                                      (16, "random_steps", math.inf)])
def test_packing_family_2d_pinned(n, kind, p):
    f = generate(kind, 2, n, seed=n)
    table = CubeTable(f)
    sides, origins = [], []
    for k, side_osc in table.by_side(table.osc).items():
        sides += [k] * side_osc.size
        origins += list(range(side_osc.size))
    osc, do = table.osc, table.do
    meas = np.array([(k / n) ** 2 for k in sides])
    q = 1.0 if math.isinf(p) else 1.0 - 1.0 / p
    pw = p if math.isfinite(p) else 8.0
    keys = [osc, do, np.where(meas > 0, do / meas, 0.0), meas * osc**pw,
            np.where(meas > 0, do / meas**q, 0.0)]
    expect = [[(1, o) for o in range(n * n)]]
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
