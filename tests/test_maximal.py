import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import oscilab.grid as grid_mod
from oscilab import (
    ConfigError,
    Cube,
    GridFunction,
    cube_mean,
    cubes_containing,
    enumerate_cubes,
    generate,
    hl_maximal,
    local_maximal,
    local_maximals,
    lp,
    mean_oscillation,
    quantile_oscillation,
    sharp_maximal,
    sharp_norm,
)
from oscilab.grid import CubeTable, _window_osc, sides_for
from oscilab.maximal import _qosc_sorted, exceedance_count, resolve_cube_mode
from oracles import cube_stats_map, window_rows


def gf(vals, d=1):
    vals = np.asarray(vals, dtype=float)
    n = vals.size if d == 1 else int(round(math.sqrt(vals.size)))
    return GridFunction(d, n, vals)


def enumeration_maximal(f, stat):
    """Oracle: pointwise sup over cubes_containing of a per-cube statistic."""
    out = np.empty(f.ncells)
    n = f.res
    for flat in range(f.ncells):
        x = (flat,) if f.dim == 1 else divmod(flat, n)
        out[flat] = max(stat(f, q) for q in cubes_containing((f.dim, n), x))
    return out


def test_hl_examples():
    assert np.allclose(hl_maximal(gf([1, 0])).values, [1.0, 0.5])
    assert np.allclose(hl_maximal(gf([-3, -3, -3])).values, 3.0)


def test_sharp_examples():
    assert np.allclose(sharp_maximal(gf([1, 0])).values, [0.5, 0.5])
    assert np.allclose(sharp_maximal(gf([7, 7])).values, 0.0)


def test_maximal_ops_match_enumeration_oracle(rng):
    for d, n in ((1, 7), (2, 4)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        got = hl_maximal(f).values
        want = enumeration_maximal(
            f, lambda ff, q: cube_mean(ff.with_values(np.abs(ff.values)), q)
        )
        assert np.allclose(got, want, atol=1e-12)
        got = sharp_maximal(f).values
        want = enumeration_maximal(f, mean_oscillation)
        assert np.allclose(got, want, atol=1e-12)
        for s in (0.2, 0.6):
            got = local_maximal(f, s).values
            want = enumeration_maximal(
                f, lambda ff, q, s=s: quantile_oscillation(ff, q, s)
            )
            assert np.array_equal(got, want)


def scatter_cover_max(stat, k, n, d, dyadic):
    """Each cube's statistic written over its own cells, one cube at a
    time, origins in lex order."""
    origins = range(0, n - k + 1, k if dyadic else 1)
    out = np.full((n,) * d, -np.inf)
    for value, origin in zip(stat, itertools.product(origins, repeat=d)):
        block = tuple(slice(o, o + k) for o in origin)
        out[block] = np.maximum(out[block], value)
    return out


def scatter_sup(f, stats, dyadic):
    """Reference for CubeTable.sup: the max over the sides of the
    per-cube scatters of that side's statistics, one side at a time."""
    best = np.full((f.res,) * f.dim, -np.inf)
    for k in sides_for(f.res, dyadic):
        np.maximum(best, scatter_cover_max(stats[k], k, f.res, f.dim, dyadic), out=best)
    return best.ravel()


@pytest.mark.parametrize("d,n_max", [(1, 40), (2, 17)])
def test_container_sweep_matches_per_cube_scatter(d, n_max):
    # every side of every N, full and dyadic: few distinct values with
    # negatives (ties everywhere) on odd sides, normals on even ones, flat
    # over the table's cubes, and a (2, cubes) stack of two independent
    # rows as local_maximals sweeps them
    rng = np.random.default_rng(d)
    for n in range(1, n_max + 1):
        f = GridFunction(d, n, np.zeros(n**d))
        for dyadic in (False, True) if n & (n - 1) == 0 else (False,):
            table = CubeTable(f, dyadic)
            rows = []
            for _ in range(2):
                stats = {}
                for k in sides_for(n, dyadic):
                    m = (n // k if dyadic else n - k + 1) ** d
                    stats[k] = (rng.integers(-4, 4, size=m) / 2.0 if k % 2
                                else rng.normal(size=m))
                rows.append(stats)
            flat = [np.concatenate([st[k] for k in sides_for(n, dyadic)]) for st in rows]
            for stats, stat in zip(rows, flat):
                got = table.sup(stat)
                assert np.array_equal(got, scatter_sup(f, stats, dyadic)), (n, dyadic)
            got = table.sup(np.stack(flat))
            assert got.shape == (2, n**d)
            for row, stats in zip(got, rows):
                assert np.array_equal(row, scatter_sup(f, stats, dyadic)), (n, dyadic)


@pytest.mark.parametrize("n", [5, 8, 33, 48])
def test_maximal_ops_match_cube_stats_oracle(rng, n):
    f = GridFunction(2, n, rng.normal(size=n * n))
    absf = f.with_values(np.abs(f.values))
    s = 0.3
    want = {op: np.full(n * n, -np.inf) for op in ("hl", "sharp", "local")}
    for q, (osc, _, _) in cube_stats_map(f).items():
        cells = q.flat_cells(n)
        for op, v in (("hl", cube_mean(absf, q)), ("sharp", osc),
                      ("local", quantile_oscillation(f, q, s))):
            want[op][cells] = np.maximum(want[op][cells], v)
    for op, got in (("hl", hl_maximal(f, "full")), ("sharp", sharp_maximal(f, "full"))):
        assert np.allclose(got.values, want[op], rtol=0, atol=1e-12), op
    assert np.array_equal(local_maximal(f, s, "full").values, want["local"])


def test_hl_dominates_pointwise(rng):
    f = GridFunction(2, 6, rng.normal(size=36))
    assert np.all(hl_maximal(f).values >= np.abs(f.values) - 1e-15)


def test_quantile_oscillation_examples():
    f = gf([0, 0, 1, 5])
    assert quantile_oscillation(f, Cube((0,), 4), 0.3) == pytest.approx(0.5)
    assert quantile_oscillation(gf([2, 2, 2]), Cube((0,), 3), 0.5) == 0.0
    # s -> 0+: half the range (Chebyshev center)
    assert quantile_oscillation(f, Cube((0,), 4), 1e-9) == pytest.approx(2.5)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=14),
    st.floats(0.01, 0.99),
)
def test_quantile_oscillation_brute_force(values, s):
    f = gf(values)
    m = f.ncells
    q = Cube((0,), m)
    got = quantile_oscillation(f, q, s)
    kexc = exceedance_count(s, m)
    vals = np.sort(np.asarray(values, dtype=float))
    # optimal centers are midpoints of value pairs (window Chebyshev centers)
    cands = np.unique(np.concatenate([vals, (vals[:, None] + vals[None, :]).ravel() / 2]))
    best = min(np.sort(np.abs(np.asarray(values) - c))[::-1][kexc] for c in cands)
    assert got == pytest.approx(best, abs=1e-12)
    # definition check: at level got, strictly fewer than s*m cells exceed
    exceed = np.count_nonzero(np.abs(np.asarray(values) - _opt_c(values, kexc)) > got + 1e-12)
    assert exceed <= kexc


def _opt_c(values, kexc):
    vals = np.sort(np.asarray(values, dtype=float))
    m = vals.size
    width = m - kexc
    j = int(np.argmin(vals[width - 1:] - vals[: kexc + 1]))
    return (vals[j + width - 1] + vals[j]) / 2


def test_local_maximal_examples():
    f = gf([1, 0])
    assert np.allclose(local_maximal(f, 0.4).values, [0.5, 0.5])
    assert np.allclose(local_maximal(f, 0.6).values, [0.0, 0.0])


def test_local_maximal_monotone_in_s(rng):
    f = GridFunction(1, 24, rng.normal(size=24))
    prev = local_maximal(f, 0.05).values
    for s in (0.1, 0.25, 0.5, 0.8):
        cur = local_maximal(f, s).values
        assert np.all(cur <= prev + 1e-12)
        prev = cur


def test_local_bounded_by_sharp_over_s(rng):
    # Chebyshev: M#_s f <= f# / s pointwise
    for d, n in ((1, 16), (2, 6)):
        f = GridFunction(d, n, rng.normal(size=n**d))
        sharp = sharp_maximal(f).values
        for s in (0.1, 0.3):
            assert np.all(local_maximal(f, s).values <= sharp / s + 1e-12)


def test_sharp_norm_examples():
    f = gf([1, 0])
    assert sharp_norm(f, lp(1)) == pytest.approx(0.5)
    assert sharp_norm(gf([3, 3, 3]), lp(1)) == 0.0
    # Linf of f# equals the BMO supremum over all cubes
    rng = np.random.default_rng(5)
    g = GridFunction(1, 12, rng.normal(size=12))
    bmo = max(
        mean_oscillation(g, q) for q in cubes_containing((1, 12), (0,))
    )
    from oscilab import enumerate_cubes

    bmo = max(mean_oscillation(g, q) for q in enumerate_cubes((1, 12)))
    assert sharp_norm(g, lp(math.inf)) == pytest.approx(bmo, abs=1e-12)


def test_dyadic_mode_and_guards(rng):
    f = GridFunction(1, 16, rng.normal(size=16))
    assert not resolve_cube_mode(f, "auto")
    full = sharp_maximal(f, cube_mode="full").values
    dy = sharp_maximal(f, cube_mode="dyadic").values
    assert np.all(dy <= full + 1e-12)  # fewer cubes, smaller sup
    big = GridFunction(1, 512, rng.normal(size=512))
    assert resolve_cube_mode(big, "auto")
    sharp_maximal(big)  # auto-dyadic must run fast and not raise
    odd = GridFunction(1, 300, rng.normal(size=300))
    with pytest.raises(ConfigError):
        sharp_maximal(odd)  # beyond guard, not a power of two


def test_exceedance_count_translation():
    # count < s*m with integer counts: allowed exceedances = ceil(s m) - 1
    assert exceedance_count(0.3, 4) == 1
    assert exceedance_count(0.5, 4) == 1
    assert exceedance_count(0.05, 20) == 0  # snapped against float dust
    assert exceedance_count(0.05, 2) == 0
    assert exceedance_count(0.99, 100) == 98
    with pytest.raises(ConfigError):
        exceedance_count(1.0, 4)


def sort_path_local_maximals(f, svals, dyadic):
    """Reference for local_maximals, {s: M#_s f} for each s of svals: every
    side's windows sorted, however few cells they have, and scattered cube
    by cube."""
    best = {s: np.full((f.res,) * f.dim, -np.inf) for s in svals}
    for k in sides_for(f.res, dyadic):
        w = np.sort(window_rows(f, k, dyadic), axis=1)
        for s, b in best.items():
            stat = _qosc_sorted(w, exceedance_count(s, k**f.dim))
            np.maximum(b, scatter_cover_max(stat, k, f.res, f.dim, dyadic), out=b)
    return {s: b.ravel() for s, b in best.items()}


def sort_path_local_maximal(f, s, dyadic):
    """sort_path_local_maximals at the one level s."""
    return sort_path_local_maximals(f, [s], dyadic)[s]


def kexc_steps(f, dyadic):
    """s at and on both sides of kexc steps j/m of every side's m cells:
    all steps of small cubes, the first two and the middle one of large."""
    out = []
    for k in sides_for(f.res, dyadic):
        m = k**f.dim
        js = range(1, m) if m <= 9 else (1, 2, m // 2)
        out += [(j + eps) / m for j in js for eps in (-1e-7, 0.0, 1e-7)]
    return sorted(set(out))


@pytest.mark.parametrize("d,n,mode", [
    (1, 1, "full"), (1, 7, "full"), (1, 1, "dyadic"), (1, 8, "dyadic"),
    (1, 64, "dyadic"), (1, 1024, "dyadic"), (2, 1, "full"), (2, 4, "full"),
    (2, 5, "full"), (2, 1, "dyadic"), (2, 4, "dyadic"), (2, 16, "dyadic"),
    (2, 64, "dyadic"),
])
def test_local_maximals_equal_one_sort_per_s(rng, d, n, mode):
    # the dyadic sides with kexc = 0 for every s skip the sort; steps on
    # both sides of every kexc jump, and duplicate s, must not change a bit
    f = GridFunction(d, n, np.round(rng.normal(size=n**d), 1))  # with ties
    steps = kexc_steps(f, mode == "dyadic")
    small = [s for s in steps if s < 0.13]  # kexc = 0 up to sides 8 or 16
    wants = sort_path_local_maximals(f, steps + [0.05], mode == "dyadic")
    for svals in (steps + steps[::3] + [0.05, 0.05], small + small[:2]):
        got = local_maximals(f, svals, mode)
        assert len(got) == len(svals)
        for s, g in zip(svals, got):
            assert np.array_equal(g.values, wants[s]), s
            assert np.array_equal(local_maximal(f, s, mode).values, wants[s]), s


@pytest.mark.parametrize("d,n,mode", [
    (1, 12, "full"), (1, 64, "dyadic"), (2, 8, "full"), (2, 16, "dyadic"),
])
def test_cube_table_qosc_equals_quantile_oscillation(rng, d, n, mode):
    # cube by cube in enumerate_cubes order, at s on both sides of every
    # kexc step, on values with ties and on the constant-block and spike
    # grids whose constant dyadic cubes skip the sort; the small s alone
    # leave kexc = 0 on the dyadic sides up to 8 or 16, which skip it too
    dyadic = mode == "dyadic"
    cubes = enumerate_cubes((d, n), dyadic)
    # the grids of test_dyadic_constant_cubes_skip_the_sort
    blocks = np.kron(rng.integers(-2, 3, size=(n // 4,) * d), np.ones((4,) * d))
    spikes = np.where(rng.random(n**d) < 0.05, rng.normal(size=n**d), 0.0)
    for vals in (np.round(rng.normal(size=n**d), 1), blocks.ravel(), spikes):
        f = GridFunction(d, n, vals)
        steps = kexc_steps(f, dyadic)
        want = {s: [quantile_oscillation(f, q, s) for q in cubes] for s in steps}
        for svals in (steps, [s for s in steps if s < 0.13]):
            table = CubeTable(f, dyadic)
            got = np.concatenate([table.side_qosc(k, svals, np.arange(c))
                                  for k, c in zip(table.side_list, table.counts)], axis=-1)
            assert got.shape == (len(svals), len(cubes))
            assert np.array_equal(got, [want[s] for s in svals])


def window_path_maximal(f, stat, dyadic):
    """Reference for hl/sharp: stat of each side's whole window_rows array,
    scattered cube by cube."""
    stats = {k: stat(window_rows(f, k, dyadic)) for k in sides_for(f.res, dyadic)}
    return scatter_sup(f, stats, dyadic)


@pytest.mark.parametrize("n", [33, 48])
def test_window_blocks_match_whole_windows(rng, n):
    # 2D full windows go through blocks of whole origin rows; at these N
    # some sides split their origin rows into blocks with a shorter last
    # one (N=33, k=10: 13 + 11 rows; N=48, k=20: 2 rows a block, 29 rows)
    f = GridFunction(2, n, np.round(rng.normal(size=n * n), 1))
    absf = f.with_values(np.abs(f.values))
    assert np.array_equal(hl_maximal(f, "full").values,
                          window_path_maximal(absf, lambda w: w.mean(axis=1), False))
    assert np.array_equal(sharp_maximal(f, "full").values,
                          window_path_maximal(f, lambda w: _window_osc(w, w.mean(axis=1)),
                                              False))
    svals = [0.05, 0.3]
    for s, g in zip(svals, local_maximals(f, svals, "full")):
        want = sort_path_local_maximal(f, s, False)
        assert np.array_equal(g.values, want), s
        assert np.array_equal(local_maximal(f, s, "full").values, want), s


@pytest.mark.parametrize("d,n,mode", [
    (1, 16, "full"), (1, 16, "dyadic"), (2, 9, "full"), (2, 33, "full"),
    (2, 1, "dyadic"), (2, 2, "dyadic"), (2, 8, "dyadic"),
])
def test_operators_never_write_the_grid(rng, d, n, mode):
    # 1D windows and 2D dyadic sides 1 and N are views of f.values: a
    # read-only values array makes any write into one raise
    f = GridFunction(d, n, np.round(rng.normal(size=n**d), 1))
    before = f.values.copy()
    f.values.flags.writeable = False
    hl_maximal(f, mode)
    sharp_maximal(f, mode)
    local_maximal(f, 0.3, mode)
    local_maximals(f, [0.05, 0.3, 0.6], mode)
    assert np.array_equal(f.values, before)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_dyadic_constant_cubes_skip_the_sort(rng, d, n):
    # piecewise constant grids: constant blocks of side 4, and zeros with a
    # few spikes; on sides with kexc > 0 their constant cubes take 0 at
    # every s without a sort, and the other cubes must keep their values
    blocks = np.kron(rng.integers(-2, 3, size=(n // 4,) * d), np.ones((4,) * d))
    spikes = np.where(rng.random(n**d) < 0.05, rng.normal(size=n**d), 0.0)
    for vals in (blocks.ravel(), spikes):
        f = GridFunction(d, n, vals)
        steps = kexc_steps(f, True)
        wants = sort_path_local_maximals(f, steps, True)
        for s, g in zip(steps, local_maximals(f, steps, "dyadic")):
            assert np.array_equal(g.values, wants[s]), s


def prune_boundary_grids(rng, d, n):
    """Grids that put the prune rule on its boundary: two-valued
    checkerboards, whose cubes have qosc = half-range = what their
    containers carry; constant blocks of side 2; one spike; and zeros of
    both signs with a spike."""
    parity = np.indices((n,) * d).sum(axis=0).ravel() % 2
    blocks = np.kron(rng.integers(-2, 3, size=((n + 1) // 2,) * d), np.ones((2,) * d))
    spike = np.zeros(n**d)
    spike[rng.integers(n**d)] = 1.5
    zeros = np.where(rng.random(n**d) < 0.5, -0.0, 0.0)
    zeros[rng.integers(n**d)] = -2.0
    return {"two_valued": parity - 0.5, "blocks": blocks[(slice(n),) * d].ravel(),
            "spike": spike, "signed_zeros": zeros}


@pytest.mark.parametrize("d,n,mode", [
    (1, 13, "full"), (1, 16, "full"), (1, 64, "dyadic"), (2, 7, "full"),
    (2, 8, "full"), (2, 16, "dyadic"),
])
def test_pruned_sweep_equals_sort_path_on_boundary_grids(monkeypatch, rng, d, n, mode):
    # duplicate s and s on both sides of kexc steps: every pruned result
    # equals the sort path.  At small s the checkerboard's largest cube
    # carries 0.5, every cube's half-range, so every other cube is skipped
    dyadic = mode == "dyadic"
    asked = []
    kernel = CubeTable.side_qosc

    def counting(table, k, svals, origins):
        asked.append(origins.size)
        return kernel(table, k, svals, origins)

    monkeypatch.setattr(CubeTable, "side_qosc", counting)
    for name, vals in prune_boundary_grids(rng, d, n).items():
        f = GridFunction(d, n, vals)
        steps = kexc_steps(f, dyadic)
        svals = steps[::2] + steps[1::4] + [0.05, 0.05]
        wants = sort_path_local_maximals(f, svals, dyadic)
        for s, g in zip(svals, local_maximals(f, svals, mode)):
            assert np.array_equal(g.values, wants[s]), (name, s)
    f = GridFunction(d, n, prune_boundary_grids(rng, d, n)["two_valued"])
    asked.clear()
    for s, g in zip((0.05, 0.2, 0.05), local_maximals(f, [0.05, 0.2, 0.05], mode)):
        assert np.array_equal(g.values, np.full(n**d, 0.5)), s
    assert asked == [1]


@pytest.mark.parametrize("bad", [[0.1, 1.0], [0.0], [0.3, -0.1, 0.5], [0.2, math.nan]])
def test_local_maximals_reject_any_invalid_s(bad):
    f = gf(np.arange(8.0))
    with pytest.raises(ConfigError):
        local_maximals(f, bad)


def numpy_local_maximals(f, svals, dyadic):
    """Reference for M#_s f at each s, from numpy alone: every side's
    windows of f.array (sliding_window_view, every k-th origin for dyadic
    cubes) sorted with np.sort, each cube's statistic from the sorted
    window, and per cell the max over the cubes containing it, sides
    descending."""
    n, d = f.res, f.dim
    best = np.full((len(svals),) + (n,) * d, -np.inf)
    for k in sides_for(n, dyadic)[::-1]:
        win = sliding_window_view(f.array, (k,) * d)
        if dyadic:
            win = win[(slice(None, None, k),) * d]
        w = np.sort(win.reshape(-1, k**d), axis=1)
        kexcs = [exceedance_count(s, k**d) for s in svals]
        stat = np.array([(w[:, k**d - e - 1:] - w[:, :e + 1]).min(axis=1) / 2.0
                         for e in kexcs]).reshape((len(svals),) + win.shape[:d])
        for axis in range(1, d + 1):  # each cell's max over the cubes holding it
            if dyadic:
                stat = np.repeat(stat, k, axis=axis)
            else:
                pad = [(0, 0)] * (d + 1)
                pad[axis] = (k - 1, k - 1)
                stat = sliding_window_view(np.pad(stat, pad, constant_values=-np.inf),
                                           k, axis=axis).max(axis=-1)
        np.maximum(stat, best, out=best)
    return best.reshape(len(svals), -1)


def signed_zero_grid(d, n):
    """Zeros of both signs and one 1.5: ranks would merge -0.0 with 0.0."""
    rng = np.random.default_rng(n)
    vals = np.where(rng.random(n**d) < 0.5, -0.0, 0.0)
    vals[rng.integers(n**d)] = 1.5
    return GridFunction(d, n, vals)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("d,n_max", [(1, 64), (2, 24)])
def test_local_maximals_equal_numpy_reference_bit_for_bit(monkeypatch, d, n_max):
    # every N, full cubes and dyadic ones where N is a power of two, on
    # ties, smooth values, an indicator and signed zeros, sign bits
    # included; each grid twice: as the library runs, and with
    # _COUNT_CELLS = 1, where every side with a cube left counts it against
    # the carried witnesses, so the certificate runs at every N (on every
    # grid but the signed-zero one, as a grid holding -0.0 never counts)
    svals = [0.01, 0.05, 0.2, 0.45]
    default = getattr(grid_mod, "_COUNT_CELLS", None)
    for n in range(1, n_max + 1):
        grids = [generate(kind, d, n, seed=n)
                 for kind in ("random_steps", "cosine_mix", "indicator")]
        for f in grids + [signed_zero_grid(d, n)]:
            for dyadic in (False, True) if n & (n - 1) == 0 else (False,):
                mode = "dyadic" if dyadic else "full"
                want = numpy_local_maximals(f, svals, dyadic)
                for count_cells in (default, 1):
                    monkeypatch.setattr(grid_mod, "_COUNT_CELLS", count_cells, raising=False)
                    for g, row in zip(local_maximals(f, svals, mode), want):
                        assert same_bits(g.values, row), (n, mode, count_cells)
                    i = n % len(svals)  # one single-s call a grid, each s in turn
                    assert same_bits(local_maximal(f, svals[i], mode).values, want[i])


values_with_ties = st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
                            | st.floats(-100, 100), min_size=1, max_size=16)


@settings(max_examples=150, deadline=None)
@given(values_with_ties, st.data())
def test_count_certificate_bounds_the_statistic(values, data):
    # the certificate of CubeTable._bounded_qosc: at most kexc cells outside
    # an interval [lo, hi] of the window's own values bound the quantile
    # oscillation by the interval's half-width, rounding included
    w = np.array(values)
    lo, hi = sorted(data.draw(st.sampled_from(values)) for _ in range(2))
    outside = int(np.count_nonzero((w < lo) | (w > hi)))  # < m: lo is a cell
    kexc = data.draw(st.integers(outside, w.size - 1))
    assert _qosc_sorted(np.sort(w)[None], kexc)[0] <= (hi - lo) / 2.0


def test_witness_count_sorts_few_cells(monkeypatch):
    # on this grid the half-range bound alone leaves 60% of the family's
    # window cells to sort; the witness count leaves under a quarter, and
    # M#_s keeps every bit of the numpy reference
    f = generate("cosine_mix", 2, 48, seed=2)
    table = CubeTable(f)
    family = sum(c * k**2 for k, c in zip(table.side_list, table.counts))
    sorted_cells = []
    kernel = CubeTable._sorted_windows

    def counting(table, k, origins):
        w = kernel(table, k, origins)
        sorted_cells.append(w.size)
        return w

    monkeypatch.setattr(CubeTable, "_sorted_windows", counting)
    got = local_maximal(f, 0.05, "full").values
    assert sum(sorted_cells) <= 0.25 * family
    assert same_bits(got, numpy_local_maximals(f, [0.05], False)[0])
