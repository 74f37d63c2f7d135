import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscilab.grid as grid_mod
from oscilab import (
    ConfigError,
    Cube,
    GeometryError,
    GridFunction,
    Packing,
    cube_mean,
    cubes_containing,
    double_oscillation,
    enumerate_cubes,
    generate,
    gp_norm,
    k_l1_bmo,
    mean_oscillation,
    read_grid_csv,
    vitali_threshold_estimate,
    write_grid_csv,
)
from oscilab.grid import (
    CubeTable,
    _cube_index,
    _family,
    _index_to_cube,
    sides_for,
)
from oracles import window_rows


def gf(vals, d=1):
    vals = np.asarray(vals, dtype=float)
    n = vals.size if d == 1 else int(round(math.sqrt(vals.size)))
    return GridFunction(d, n, vals)


def test_cube_mean_examples():
    assert cube_mean(gf([1, 0]), Cube((0,), 2)) == 0.5
    assert cube_mean(gf([7, 7, 7]), Cube((1,), 2)) == 7.0
    # direct summation oracle: (1 + 2) / 2
    assert cube_mean(gf([3, 1, 2]), Cube((1,), 2)) == pytest.approx(1.5, abs=0)


def test_mean_oscillation_examples():
    assert mean_oscillation(gf([1, 0]), Cube((0,), 2)) == 0.5
    assert mean_oscillation(gf([4, 4, 4, 4]), Cube((0,), 4)) == 0.0
    # mean 1.5, deviations (1.5, 1.5, 0.5, 3.5) -> average 1.75
    assert mean_oscillation(gf([0, 0, 1, 5]), Cube((0,), 4)) == pytest.approx(
        1.75, abs=1e-15
    )


def test_double_oscillation_examples():
    assert double_oscillation(gf([1, 0]), Cube((0,), 2)) == pytest.approx(0.5)
    assert double_oscillation(gf([2, 2, 2]), Cube((0,), 3)) == 0.0


def test_double_oscillation_matches_naive_pair_sum(rng):
    for d, n in ((1, 7), (2, 4)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        for q in (Cube((0,) * d, n), Cube((1,) * d, n - 2)):
            vals = f.values[q.flat_cells(n)]
            h = f.cell_measure
            naive = sum(abs(a - b) for a in vals for b in vals) * h * h
            naive /= q.ncells() * h
            assert double_oscillation(f, q) == pytest.approx(naive, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=16),
    st.data(),
)
def test_sandwich_property(values, data):
    f = gf(values)
    side = data.draw(st.integers(2, len(values)))
    origin = data.draw(st.integers(0, len(values) - side))
    q = Cube((origin,), side)
    osc_int = mean_oscillation(f, q) * q.measure(f.res)
    do = double_oscillation(f, q)
    assert osc_int <= do + 1e-12
    assert do <= 2 * osc_int + 1e-12


def test_enumerate_cube_counts():
    assert len(enumerate_cubes((1, 3))) == 6
    assert len(enumerate_cubes((2, 2))) == 5
    assert len(enumerate_cubes((1, 4), dyadic_only=True)) == 7
    for n in (1, 5, 17, 64):
        assert len(enumerate_cubes((1, n))) == n * (n + 1) // 2
    for n in (1, 3, 8, 12, 64):
        expected = sum((n - k + 1) ** 2 for k in range(1, n + 1))
        assert len(enumerate_cubes((2, n))) == expected


def test_enumerate_cubes_canonical_order():
    cubes = enumerate_cubes((2, 3))
    assert cubes == sorted(cubes)


@pytest.mark.parametrize("d,n,dyadic", [(1, n, False) for n in range(1, 10)]
                         + [(1, n, True) for n in (1, 2, 4, 8)]
                         + [(2, n, False) for n in range(1, 7)]
                         + [(2, n, True) for n in (1, 2, 4)])
def test_cube_index_round_trip(rng, d, n, dyadic):
    # the family's flat positions follow enumerate_cubes and CubeTable's
    # arrays; Cube -> (side, first cell) -> Cube is the identity
    cubes = enumerate_cubes((d, n), dyadic_only=dyadic)
    sides, starts = _family(n, d, sides_for(n, dyadic), dyadic)
    assert [_index_to_cube(k, s, n, d)
            for k, s in zip(sides.tolist(), starts.tolist())] == cubes
    got_sides, got_starts = _cube_index(cubes, (d, n))
    assert np.array_equal(got_sides, sides) and np.array_equal(got_starts, starts)
    assert [q.flat_cells(n)[0] for q in cubes] == starts.tolist()
    f = GridFunction(d, n, rng.normal(size=n**d))
    table = CubeTable(f, dyadic)
    assert np.array_equal(table.sides, sides) and np.array_equal(table.starts, starts)
    assert np.allclose(table.mean, [cube_mean(f, q) for q in cubes], rtol=0, atol=1e-12)


def test_cube_index_checks_grid_and_fit():
    with pytest.raises(ConfigError):
        _cube_index([Cube((0,), 1)], (3, 4))
    with pytest.raises(GeometryError):
        _cube_index([Cube((0, 3), 2)], (2, 4))
    with pytest.raises(GeometryError):
        _cube_index([Cube((0,), 1)], (2, 4))


def test_dyadic_requires_power_of_two():
    with pytest.raises(ConfigError):
        enumerate_cubes((1, 6), dyadic_only=True)


def test_cubes_containing_against_filter_oracle():
    for grid, x in (((1, 2), (0,)), ((1, 3), (1,)), ((2, 2), (0, 0)), ((2, 4), (1, 2))):
        got = cubes_containing(grid, x)
        expect = [q for q in enumerate_cubes(grid) if q.contains_cell(x)]
        assert got == expect
    assert len(cubes_containing((1, 3), (1,))) == 4
    assert len(cubes_containing((1, 2), (0,))) == 2
    assert len(cubes_containing((2, 2), (0, 0))) == 2


def test_cubes_containing_range_check():
    with pytest.raises(GeometryError):
        cubes_containing((1, 4), (4,))


def test_cube_geometry_errors():
    f = gf([1, 2, 3])
    with pytest.raises(GeometryError):
        cube_mean(f, Cube((2,), 2))
    with pytest.raises(GeometryError):
        Cube((0,), 0)


def test_grid_values_are_a_read_only_view():
    # no copy at construction: g.values is a read-only view of the caller's
    # array, which stays writeable, so writes through it reach g.values
    for d, n, a in ((1, 4, np.arange(4.0)), (2, 2, np.arange(4.0).reshape(2, 2))):
        g = GridFunction(d, n, a)
        with pytest.raises(ValueError):
            g.values[0] = 1
        assert a.flags.writeable and np.shares_memory(a, g.values)
        a.flat[0] = 9
        assert g.values[0] == 9


def test_packing_rejects_overlap():
    with pytest.raises(GeometryError):
        Packing([Cube((0,), 2), Cube((1,), 2)], res=4)
    pk = Packing([Cube((0,), 2), Cube((2,), 2)], res=4)
    assert pk.total_measure(4) == 1.0


def test_cube_windows_match_flat_cells(rng):
    # a table's window array never lets a caller write f: it is a read-only
    # view of f's values or shares no memory with them
    for d, n, dyadic in ((1, 9, False), (2, 5, False), (1, 8, True), (2, 4, True)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        table = CubeTable(f, dyadic)
        for k in table.side_list:
            w = table._windows(k)
            assert not w.flags.writeable or not np.shares_memory(w, f.values)
            cubes = [q for q in enumerate_cubes((d, n), dyadic) if q.side == k]
            assert w.shape[0] == len(cubes)
            for row, q in zip(w, cubes):
                assert np.array_equal(np.sort(row), np.sort(f.values[q.flat_cells(n)]))


def test_stat_tables_match_scalar_ops(rng):
    # every CubeTable statistic against the single-cube integrals, full and
    # dyadic (2D N=33 reduces its windows in blocks), flat and by side
    for d, n, dyadic in ((1, 7, False), (1, 8, True), (2, 4, False),
                         (2, 33, False), (2, 4, True)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        table = CubeTable(f, dyadic)
        cubes = enumerate_cubes((d, n), dyadic_only=dyadic)
        cells = [f.values[q.flat_cells(n)] for q in cubes]
        want = {
            "mean": [cube_mean(f, q) for q in cubes],
            "osc": [mean_oscillation(f, q) for q in cubes],
            "do": [double_oscillation(f, q) for q in cubes],
            "sum": [math.fsum(c.tolist()) * f.cell_measure for c in cells],
            "meas": [q.measure(n) for q in cubes],
        }
        for name, vals in want.items():
            assert np.allclose(getattr(table, name), vals, rtol=0, atol=1e-13), name
            assert not getattr(table, name).flags.writeable  # shared by readers
        for p in (0.5, 2.0):
            lp_osc = [np.mean(np.abs(c - c.mean()) ** p) ** (1 / p) for c in cells]
            assert np.allclose(table.osc_p(p), lp_osc, rtol=0, atol=1e-13)
        assert table.osc_p(None) is table.osc  # each statistic is built once
        views = table.by_side(table.osc)
        assert list(views) == sides_for(n, dyadic)
        for k, v in views.items():
            assert np.shares_memory(v, table.osc)
            assert np.array_equal(v, table.osc[table.sides == k])


def _per_cube_stats(f, dyadic):
    """The 1D CubeTable statistics, cube by cube in enumerate_cubes order,
    from np.mean and np.sort on each cube's own cells.  The double
    oscillation takes one sorted-row matrix per side through `@ coef`, as
    the table does, since a BLAS product's bits depend on its row count."""
    n, h = f.res, f.cell_measure
    out = {"mean": [], "sum": [], "osc": [], "osc_p(0.5)": [], "osc_p(2)": [],
           "do": [], "qosc": [[], []]}
    by_side = {}
    for q in enumerate_cubes((1, n), dyadic_only=dyadic):
        v = f.values[q.flat_cells(n)]
        mu = np.mean(v)
        dev = np.abs(v - mu)
        out["mean"].append(mu)
        out["sum"].append(np.sum(v) * h)
        out["osc"].append(np.mean(dev))
        out["osc_p(0.5)"].append(np.mean(dev**0.5))
        out["osc_p(2)"].append(np.mean(dev**2.0))
        vs = np.sort(v)
        by_side.setdefault(q.side, []).append(vs)
        for row, s in zip(out["qosc"], (0.05, 0.3)):
            e = grid_mod.exceedance_count(s, v.size)
            row.append(np.min(vs[v.size - e - 1:] - vs[: e + 1]) / 2.0)
    for k, rows in by_side.items():
        coef = 2.0 * (2.0 * np.arange(1, k + 1) - 1.0 - k)
        out["do"].extend((np.array(rows) @ coef) * h / k)
    out = {name: np.array(vals) for name, vals in out.items()}
    # the 1/p root on the array of means, as the table takes it: numpy's
    # array power by 0.5 is a sqrt, which a float64 scalar power is not
    out["osc_p(0.5)"] **= 1 / 0.5
    out["osc_p(2)"] **= 1 / 2.0
    return out


@pytest.mark.parametrize("n,dyadic", [(n, False) for n in (1, 2, 7, 8, 9, 31, 128, 256)]
                         + [(8, True), (64, True)])
def test_1d_table_is_bit_identical_to_per_cube_reference(n, dyadic):
    # the table's 1D windows are slices of one strided view per table; each
    # statistic must keep the bits of a reduction over the cube's own cells
    rng = np.random.default_rng(n)
    spikes = np.zeros(n)
    spikes[rng.choice(n, size=max(1, n // 16), replace=False)] = 1e3
    data = {
        "rounded normal": np.round(rng.normal(size=n), 1),
        "constant blocks": np.repeat(rng.integers(-3, 4, size=n // 4 + 1), 4)[:n] * 0.5,
        "spikes": spikes,
    }
    for name, vals in data.items():
        f = GridFunction(1, n, vals)
        t = CubeTable(f, dyadic)
        got = {"mean": t.mean, "sum": t.sum, "osc": t.osc, "osc_p(0.5)": t.osc_p(0.5),
               "osc_p(2)": t.osc_p(2.0), "do": t.do,
               "qosc": np.concatenate([t.side_qosc(k, (0.05, 0.3), np.arange(c))
                                       for k, c in zip(t.side_list, t.counts)], axis=-1)}
        for stat, want in _per_cube_stats(f, dyadic).items():
            assert np.array_equal(got[stat], want), (name, stat)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_one_strided_view_per_full_table(monkeypatch, d, n):
    # a count-based guard, no timing: a full table reads every side from
    # one strided view
    views = []
    strided = grid_mod.as_strided
    monkeypatch.setattr(grid_mod, "as_strided",
                        lambda *a, **kw: views.append(1) or strided(*a, **kw))
    table = CubeTable(generate("random_steps", d, n, seed=2))
    table.osc, table.do
    [table.side_qosc(k, (0.05,), np.arange(c)) for k, c in zip(table.side_list, table.counts)]
    assert len(views) == 1


@pytest.mark.parametrize("d,n,dyadic", [(1, n, False) for n in (1, 7, 64)]
                         + [(2, n, False) for n in (1, 2, 7, 33)]
                         + [(1, 64, True), (2, 16, True)])
def test_table_windows_equal_cube_windows(d, n, dyadic):
    # the table's one reader against oracles.window_rows, each cube's cells
    # gathered through Cube.flat_cells: every side agrees byte for byte
    f = generate("random_steps", d, n, seed=n)
    table = CubeTable(f, dyadic)
    for k in table.side_list:
        got, want = table._windows(k), window_rows(f, k, dyadic)
        assert got.shape == want.shape and got.dtype == want.dtype, k
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("d,n,dyadic", [(1, 7, False), (1, 64, True), (2, 5, False),
                                        (2, 33, False), (2, 16, True)])
def test_side_one_statistics_are_exactly_zero(d, n, dyadic):
    # a side-1 cube is one cell: its window minus its own mean is exactly 0,
    # which is why no packing functional scores the unit-cell partition
    for kind in ("random_steps", "cosine_mix", "logspike"):
        for seed in range(3):
            table = CubeTable(generate(kind, d, n, seed=seed), dyadic)
            unit = table.by_side(table.sides)[1].size
            assert unit == n**d
            for stat in (table.osc, table.osc_p(0.5), table.do):
                assert stat[:unit].tolist() == [0.0] * unit


def test_osc_built_once_and_only_where_read(monkeypatch):
    # one build of a table's osc sends every cube's window once through the
    # osc reducer, grid._window_osc
    rows = []
    reducer = grid_mod._window_osc

    def counting(w, mu, p=None):
        rows.append(w.shape[0])
        return reducer(w, mu, p)

    monkeypatch.setattr(grid_mod, "_window_osc", counting)
    for d, n in ((1, 16), (1, 33), (2, 2), (2, 4)):
        f = generate("random_steps", d, n, seed=n)
        for p in (1.5, 3.0, math.inf):
            gp_norm(f, p)
    assert rows == []
    for d, n, mode in ((1, 16, "full"), (1, 16, "dyadic"), (2, 8, "full"),
                       (2, 33, "full"), (2, 8, "dyadic")):
        f = generate("cosine_mix", d, n, seed=1)
        cubes = len(enumerate_cubes((d, n), dyadic_only=mode == "dyadic"))
        rows.clear()
        vitali_threshold_estimate(f, 0.01, mode)
        assert sum(rows) == cubes
        rows.clear()
        k_l1_bmo(f, method="PACK", cube_mode=mode)  # f# for the t-grid, and F
        assert sum(rows) == cubes


def test_csv_roundtrip(tmp_path, rng):
    for d, n in ((1, 6), (2, 4)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        path = tmp_path / f"grid{d}.csv"
        write_grid_csv(f, path)
        first = path.read_text().splitlines()[0]
        assert first == f"# oscilab d={d} N={n}"
        g = read_grid_csv(path)
        assert g.dim == d and g.res == n
        assert np.array_equal(g.values, f.values)


def test_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ConfigError):
        read_grid_csv(path)
