import math

import numpy as np
import pytest

from oracles import brute_f_sharp, window_rows

from oscilab import (
    ConfigError,
    GridFunction,
    default_t_grid,
    f_sharp_curve,
    f_sharp_profile,
    generate,
    k_l1_bmo,
    k_l1_linf,
    rearrange,
    sharp_maximal,
    vitali_threshold_estimate,
)
from oscilab.grid import Cube, CubeTable, enumerate_cubes, sides_for
from oscilab.kfunctional import KProfile, _level_search, running_max
from oscilab.packing import max_measure_packing


def gf(vals, d=1):
    vals = np.asarray(vals, dtype=float)
    n = vals.size if d == 1 else int(round(math.sqrt(vals.size)))
    return GridFunction(d, n, vals)


def test_k_l1_linf_indicator():
    f = gf([1, 0])
    ts = np.array([0.1, 0.25, 0.5, 0.8, 1.0])
    prof = k_l1_linf(f, ts)
    assert np.allclose(prof.values, np.minimum(ts, 0.5), atol=1e-15)
    assert prof.values[-1] == pytest.approx(np.abs(f.values).mean())


def test_k_l1_linf_truncation_oracle(rng):
    # K(t; L1, Linf) = inf_c ||(|f|-c)_+||_1 + t c, swept over levels
    for _ in range(8):
        n = int(rng.integers(2, 20))
        f = gf(rng.normal(size=n))
        ts = np.linspace(0.05, 1.0, 11)
        got = k_l1_linf(f, ts).values
        absf = np.abs(f.values)
        cands = np.unique(np.concatenate([absf, [0.0]]))
        cands = np.concatenate([cands, (cands[1:] + cands[:-1]) / 2])
        best = np.full(ts.size, np.inf)
        for c in cands:
            val = np.maximum(absf - c, 0).mean() + ts * c
            best = np.minimum(best, val)
        assert np.allclose(got, best, atol=1e-9)


def test_k_bs_example():
    f = gf([1, 0])
    prof = k_l1_bmo(f, np.array([1.0]), method="BS")
    assert prof.values[0] == pytest.approx(0.5)


def test_k_methods_constant_zero():
    f = gf([3, 3, 3, 3])
    ts = np.array([0.25, 0.5, 1.0])
    for method in ("BS", "JT", "PACK"):
        assert np.allclose(k_l1_bmo(f, ts, method=method).values, 0.0)


def test_k_profile_invariants_all_methods(rng):
    ts = np.geomspace(5e-3, 1.0, 21)
    for trial in range(8):
        d = 1 if trial % 2 else 2
        n = int(rng.integers(4, 20)) if d == 1 else int(rng.integers(3, 7))
        f = GridFunction(d, n, rng.normal(size=n**d))
        for method in ("BS", "JT", "PACK"):
            prof = k_l1_bmo(f, ts, method=method)  # constructor validates
            assert np.all(prof.values >= 0)
            assert np.all(np.diff(prof.values) >= -1e-9 * max(1, prof.values.max()))
            ratios = prof.values / prof.t
            assert np.all(np.diff(ratios) <= 1e-9 * max(1, ratios.max()))


def test_kprofile_rejects_bad_data():
    with pytest.raises(Exception):
        KProfile(np.array([0.5, 0.25]), np.array([1.0, 2.0]), "X")
    for t, v in (([math.nan, 1.0], [1.0, 2.0]), ([0.5, 1.0], [1.0, math.nan]),
                 ([0.5, 1.0], [1.0, math.inf])):
        with pytest.raises(ConfigError):
            KProfile(np.array(t), np.array(v), "X")


def test_running_max():
    assert np.array_equal(running_max([1.0, 0.5, 2.0]), [1.0, 1.0, 2.0])


def test_f_sharp_examples():
    f = gf([1, 0])
    assert f_sharp_profile(f, 0.3) == pytest.approx(0.5)
    assert f_sharp_profile(f, 0.999) == pytest.approx(0.5)
    assert f_sharp_profile(f, 1.0) == 0.0  # strict inf-convention at t=1
    assert f_sharp_profile(gf([2, 2, 2]), 0.5) == 0.0


def test_f_sharp_matches_bruteforce(rng):
    for trial in range(14):
        d = 1 if trial % 3 else 2
        n = int(rng.integers(2, 9)) if d == 1 else int(rng.integers(2, 4))
        f = GridFunction(d, n, rng.normal(size=n**d))
        ts = rng.uniform(0.02, 0.999, size=5)
        ts.sort()
        got = f_sharp_curve(f, ts)
        want = brute_f_sharp(f, ts, None)
        assert np.allclose(got, want, atol=1e-12)


def test_f_sharp_2d_exact_where_greedy_fails():
    # frozen case where greedy-by-size packing under-covers (a large cube
    # blocks disjoint smaller ones): the tiny-2D sweep must search exactly
    vals = [-1.5, -0.5, -1.3, 0.8, 7.4, -12.8, -1.2, 0.9,
            1.5, -1.9, -8.8, 1.6, 8.6, -7.7, 4.3, -1.6]
    f = GridFunction(2, 4, np.array(vals))
    ts = np.array([0.3, 0.55, 0.65, 0.8])
    got = f_sharp_curve(f, ts)
    want = brute_f_sharp(f, ts, None)
    assert np.allclose(got, want, atol=1e-12)
    assert got[2] == pytest.approx(4.075, abs=1e-9)


@pytest.mark.parametrize(
    "n,mode", [(2, "full"), (3, "full"), (4, "full"), (2, "dyadic"), (4, "dyadic")]
)
@pytest.mark.parametrize("p", [None, 0.5])
def test_f_sharp_2d_small_equals_bruteforce(n, mode, p):
    f = generate("random_steps", 2, n, seed=20 + n)
    ts = np.arange(1, n * n + 1) / (n * n)  # every cell count threshold
    got = f_sharp_curve(f, ts, p=p, cube_mode=mode)
    want = brute_f_sharp(f, ts, p, dyadic=mode == "dyadic")
    assert want.max() > 0 and np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_f_sharp_2d_dyadic_matches_union_count(n):
    # dyadic cubes are nested or disjoint, so F(t) is the largest level v
    # whose cubes with statistic >= v cover more than t*N^2 cells
    f = generate("random_steps", 2, n, seed=7 + n)
    stat = CubeTable(f, dyadic=True).osc.tolist()
    cubes = enumerate_cubes((2, n), dyadic_only=True)  # stat's order
    assert len(cubes) == len(stat)
    covered = np.zeros((n, n), dtype=bool)
    levels, counts = [], []  # levels descending, cells covered at each
    for i in sorted(range(len(stat)), key=lambda i: -stat[i]):
        if stat[i] <= 0:
            break
        q = cubes[i]
        (r, c), k = q.origin, q.side
        covered[r:r + k, c:c + k] = True
        if not levels or levels[-1] != stat[i]:
            levels.append(stat[i])
            counts.append(0)
        counts[-1] = int(covered.sum())
    ts = np.union1d(np.geomspace(0.5 / n**2, 1.0, 64), np.arange(1, n * n + 1) / n**2)
    want = [next((v for v, c in zip(levels, counts) if c > t * n * n), 0.0) for t in ts]
    assert np.array_equal(f_sharp_curve(f, ts, cube_mode="dyadic"), want)


@pytest.mark.parametrize("d,n,mode", [
    (1, 8, "full"),
    (2, 4, "full"),  # the exact subset DP
    (2, 8, "dyadic"),
    (2, 8, "full"),  # the greedy level search
])
@pytest.mark.parametrize("t", [0.0, 1.5, math.nan])
def test_f_rejects_t_outside_unit_interval(d, n, mode, t):
    f = generate("random_steps", d, n, seed=3)
    with pytest.raises(ConfigError, match=r"F is defined on \(0, 1\]"):
        f_sharp_curve(f, [0.5, t], cube_mode=mode)
    with pytest.raises(ConfigError, match=r"F is defined on \(0, 1\]"):
        k_l1_bmo(f, [0.5, t], method="PACK", cube_mode=mode)


def test_level_search_on_hand_made_counts():
    levels = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert _level_search(np.array([]), [].__getitem__, 5) == 0.0
    assert _level_search(levels, [5, 4, 3, 2, 1].__getitem__, 5) == 0.0
    assert _level_search(levels, [9, 8, 7, 6, 6].__getitem__, 5) == 5.0
    assert _level_search(levels, [9, 8, 7, 3, 1].__getitem__, 5) == 3.0
    # the counts need not fall as the level rises: the binary search stops
    # at levels[1], while the largest level whose count exceeds 5 is
    # levels[3].  This pins today's search; a monotone envelope over the
    # evaluated levels would return levels[3], a declared value change.
    assert _level_search(levels, [10, 9, 1, 9, 1].__getitem__, 5) == levels[1]


def test_f_sharp_p_example():
    f = gf([1, 0])
    # statistic on the full cube at p=1/2: ((2*(1/2)^(1/2))/2)^2 = 1/2
    assert f_sharp_profile(f, 0.3, 0.5) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ConfigError):
        f_sharp_profile(f, 0.3, 1.5)
    for p in (0, -1, 1, math.nan, math.inf):
        with pytest.raises(ConfigError):
            f_sharp_curve(f, [0.3], p=p)


def test_f_sharp_p_matches_bruteforce(rng):
    for trial in range(6):
        n = int(rng.integers(2, 8))
        f = gf(rng.normal(size=n))
        ts = np.array([0.15, 0.45, 0.85])
        got = np.array([f_sharp_profile(f, t, 0.5) for t in ts])
        want = brute_f_sharp(f, ts, 0.5)
        assert np.allclose(got, want, atol=1e-12)


def test_f_sharp_p_limit_recovers_mean_oscillation(rng):
    for trial in range(6):
        n = int(rng.integers(3, 9))
        f = gf(rng.normal(size=n))
        ts = np.array([0.2, 0.6])
        base = f_sharp_curve(f, ts)
        near = np.array([f_sharp_profile(f, t, 1 - 1e-7) for t in ts])
        assert np.allclose(near, base, atol=1e-6 * max(1, np.abs(f.values).max()))


def test_f_sharp_lower_bound_near_one(rng):
    # pi = {Q0} certifies F(t) >= ||f||_1 for mean-zero f, t below 1
    for _ in range(6):
        n = int(rng.integers(2, 12))
        vals = rng.normal(size=n)
        vals -= vals.mean()
        f = gf(vals)
        t = 1.0 - 0.5 / n
        assert f_sharp_curve(f, [t])[0] >= np.abs(vals).mean() - 1e-12


def test_k_pack_endpoint(rng):
    for _ in range(6):
        n = int(rng.integers(2, 12))
        f = gf(rng.normal(size=n))
        l1 = np.abs(f.values - f.values.mean()).mean()
        kp = k_l1_bmo(f, np.array([1.0]), method="PACK").values[0]
        assert kp <= 2 * l1 * (1 + 1e-9) + 1e-15


def test_vitali_threshold_example():
    assert vitali_threshold_estimate(gf([1, 0]), 0.5) == pytest.approx(0.5)
    assert vitali_threshold_estimate(gf([4, 4]), 0.3) == 0.0


def test_vitali_threshold_inequality(rng):
    for trial in range(20):
        d = 1 if trial % 3 else 2
        n = int(rng.integers(2, 14)) if d == 1 else int(rng.integers(2, 6))
        f = GridFunction(d, n, rng.normal(size=n**d))
        prof = rearrange(sharp_maximal(f))
        for _ in range(3):
            t = float(rng.uniform(0.05, 1.0)) * 5.0**-d
            est = vitali_threshold_estimate(f, t)
            target = prof.value_at(min(5.0**d * t, 1.0))
            assert target <= est + 1e-12


def test_default_t_grid(rng):
    f = gf(rng.normal(size=16))
    ts = default_t_grid(f)
    assert ts[0] > 0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0)
    prof_bp = rearrange(sharp_maximal(f)).breakpoints[1:]
    assert set(np.round(prof_bp, 12)).issubset(set(np.round(ts, 12)))


def test_kprofile_csv(tmp_path):
    prof = k_l1_bmo(gf([1, 0]), np.array([0.25, 1.0]), method="BS")
    path = tmp_path / "k.csv"
    prof.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value,method"
    assert lines[1].endswith(",BS")


def _level_search_f(f, ts, p, dyadic):
    """For each t, the largest distinct statistic level v whose cubes with
    statistic >= v pack more than t*N cells, by the exact interval
    scheduling of max_measure_packing at each level."""
    n = f.res
    cubes, stats = [], []
    for k in sides_for(n, dyadic):
        w = window_rows(f, k, dyadic)
        dev = np.abs(w - w.mean(axis=1)[:, None])
        stat = dev.mean(axis=1) if p is None else (dev**p).mean(axis=1) ** (1.0 / p)
        cubes += [Cube((o * (k if dyadic else 1),), k) for o in range(w.shape[0])]
        stats += stat.tolist()
    levels = sorted({s for s in stats if s > 0}, reverse=True)
    cells = {}

    def packed(v):
        if v not in cells:
            keep = [q for q, s in zip(cubes, stats) if s >= v]
            cells[v] = max_measure_packing(keep, (1, n))[0].total_cells()
        return cells[v]

    return np.array(
        [next((v for v in levels if packed(v) > t * n), 0.0) for t in ts]
    )


@pytest.mark.parametrize(
    "n,mode", [(24, "full"), (48, "full"), (32, "dyadic"), (64, "dyadic")]
)
@pytest.mark.parametrize("p", [None, 0.5])
def test_f_sharp_curve_matches_level_search(rng, n, mode, p):
    # beyond the brute-force guard; t = c/N for every cell count c puts the
    # strict inequality cells > t*N on every threshold
    ts = np.union1d(np.geomspace(0.5 / n, 1.0, 64), np.arange(1, n + 1) / n)
    for f in (gf(rng.normal(size=n)), generate("random_steps", 1, n, seed=n)):
        got = f_sharp_curve(f, ts, p=p, cube_mode=mode)
        want = _level_search_f(f, ts, p, mode == "dyadic")
        assert want.max() > 0 and np.array_equal(got, want)
