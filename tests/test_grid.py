import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mean_oscillation,
    read_grid_csv,
    write_grid_csv,
)
from oscilab.grid import (
    _cube_index,
    _family,
    _index_to_cube,
    cube_stat_tables,
    cube_windows,
    sides_for,
)


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
    # the family's flat positions follow enumerate_cubes and the rows of
    # cube_stat_tables; Cube -> (side, first cell) -> Cube is the identity
    cubes = enumerate_cubes((d, n), dyadic_only=dyadic)
    sides, starts = _family(n, d, sides_for(n, dyadic), dyadic)
    assert [_index_to_cube(k, s, n, d)
            for k, s in zip(sides.tolist(), starts.tolist())] == cubes
    got_sides, got_starts = _cube_index(cubes, (d, n))
    assert np.array_equal(got_sides, sides) and np.array_equal(got_starts, starts)
    assert [q.flat_cells(n)[0] for q in cubes] == starts.tolist()
    f = GridFunction(d, n, rng.normal(size=n**d))
    tables = cube_stat_tables(f, stats=("mean",), dyadic=dyadic)
    means = np.concatenate([tables[k]["mean"] for k in tables])
    assert np.allclose(means, [cube_mean(f, q) for q in cubes], rtol=0, atol=1e-12)


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


def test_packing_rejects_overlap():
    with pytest.raises(GeometryError):
        Packing([Cube((0,), 2), Cube((1,), 2)], res=4)
    pk = Packing([Cube((0,), 2), Cube((2,), 2)], res=4)
    assert pk.total_measure(4) == 1.0


def test_cube_windows_match_flat_cells(rng):
    for d, n in ((1, 9), (2, 5)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        for k in (1, 2, n):
            w = cube_windows(f, k)
            cubes = [q for q in enumerate_cubes((d, n)) if q.side == k]
            assert w.shape[0] == len(cubes)
            for row, q in zip(w, cubes):
                assert np.array_equal(np.sort(row), np.sort(f.values[q.flat_cells(n)]))


def test_stat_tables_match_scalar_ops(rng):
    f = GridFunction(2, 4, rng.normal(size=16))
    tables = cube_stat_tables(f, stats=("mean", "osc", "do"))
    for q in enumerate_cubes((2, 4)):
        m = f.res - q.side + 1
        idx = q.origin[0] * m + q.origin[1]
        assert tables[q.side]["mean"][idx] == pytest.approx(cube_mean(f, q), abs=1e-13)
        assert tables[q.side]["osc"][idx] == pytest.approx(
            mean_oscillation(f, q), abs=1e-13
        )
        assert tables[q.side]["do"][idx] == pytest.approx(
            double_oscillation(f, q), abs=1e-13
        )


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
