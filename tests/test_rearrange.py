import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oscilab import (
    ConfigError,
    Cube,
    GridFunction,
    StepProfile,
    dilate,
    dilation_norm_estimate,
    distribution,
    double_star,
    hardy_P,
    hardy_Q,
    hlpc_dominates,
    lp,
    median,
    norm,
    oscillation_gap,
    rearrange,
    weak_lp,
)
from oscilab.rearrange import profile_from_cells


def gf(vals):
    vals = np.asarray(vals, dtype=float)
    return GridFunction(1, vals.size, vals)


def test_rearrange_sorting():
    prof = rearrange(gf([3, 1, 2]))
    assert np.allclose(prof.breakpoints, [0, 1 / 3, 2 / 3, 1])
    assert np.array_equal(prof.values, [3, 2, 1])


def test_rearrange_absolute_values():
    a = rearrange(gf([3, -1, 2]))
    b = rearrange(gf([-3, 1, -2]))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.breakpoints, b.breakpoints)


def test_distribution_examples():
    f = gf([1, 0])
    assert distribution(f, 0.5) == 0.5
    assert distribution(f, 2.0) == 0.0


@pytest.mark.parametrize("t", [-0.5, math.nan])
def test_distribution_rejects_bad_level(t):
    with pytest.raises(ConfigError):
        distribution(gf([1, 0]), t)


def test_equimeasurability(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        f = gf(rng.normal(size=n))
        prof = rearrange(f)
        for t in np.abs(f.values):
            # lambda_f(f*(s)) <= s at matching points, and measures agree
            assert distribution(f, t) == pytest.approx(
                np.count_nonzero(prof.sample((np.arange(n) + 0.5) / n) > t) / n,
                abs=0,
            )


def test_double_star_examples():
    prof = StepProfile(np.array([0.0, 1.0]), np.array([4.0]))
    assert double_star(prof).at(0.37) == pytest.approx(4.0)
    steps = rearrange(gf([3, 1, 2]))
    assert double_star(steps).at(2 / 3) == pytest.approx(2.5)


def test_double_star_dominates_and_decreases(rng):
    f = gf(rng.normal(size=17))
    prof = rearrange(f)
    avg = double_star(prof)
    ts = np.linspace(0.01, 1.0, 97)
    vals = avg.sample(ts)
    assert np.all(vals >= prof.sample(ts) - 1e-12)
    assert np.all(np.diff(vals) <= 1e-12)


def test_oscillation_gap_indicator():
    curve, sup = oscillation_gap(gf([1, 0]))
    # exact piecewise form: gap = A/t on each piece; fine sampling oracle
    ts = np.linspace(1e-4, 1.0, 20001)
    sampled = float(np.max(curve.sample(ts)))
    assert sup == pytest.approx(1.0, abs=1e-12)
    assert sampled <= sup + 1e-12
    assert sup - sampled < 2e-3


def test_oscillation_gap_constant():
    _, sup = oscillation_gap(gf([5, 5, 5]))
    assert sup == 0.0


def test_oscillation_gap_sup_vs_dense_oracle(rng):
    for _ in range(10):
        f = gf(rng.normal(size=int(rng.integers(2, 30))))
        curve, sup = oscillation_gap(f)
        ts = np.linspace(1e-5, 1.0, 50001)
        assert float(np.max(curve.sample(ts))) <= sup + 1e-12


def test_dilate_examples():
    g = StepProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]))
    assert dilate(g, 1.0) is g
    half = dilate(g, 0.5)
    assert np.allclose(half.breakpoints, [0, 0.25, 0.5, 1.0])
    assert np.allclose(half.values, [1, 0, 0])
    ts = np.array([0.1, 0.3, 0.6, 0.999])  # contract pins t < min(s,1) only
    assert np.allclose(dilate(g, 2.0).sample(ts), g.sample(ts / 2.0))


def test_dilate_norm_bound(rng):
    battery = [lp(1), lp(2), lp(math.inf), weak_lp(2)]
    for _ in range(12):
        prof = rearrange(gf(rng.normal(size=int(rng.integers(2, 24)))))
        for s in (0.25, 0.5, 2.0, 3.5):
            for space in battery:
                base = norm(space, prof)
                if base > 0:
                    ratio = norm(space, dilate(prof, s)) / base
                    assert ratio <= max(1.0, s) * (1 + 1e-9)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_dilate_rejects_bad_parameter(s):
    g = StepProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ConfigError, match="dilation parameter s"):
        dilate(g, s)
    with pytest.raises(ConfigError, match="dilation parameter s"):
        dilation_norm_estimate(lp(2), s, [g])


def test_hardy_p_examples():
    ones = StepProfile(np.array([0.0, 1.0]), np.array([1.0]))
    ts = np.linspace(0.05, 1, 21)
    assert np.allclose(hardy_P(ones).sample(ts), 1.0)


def test_hardy_q_examples():
    ones = StepProfile(np.array([0.0, 1.0]), np.array([1.0]))
    ts = np.linspace(0.05, 1, 21)
    assert np.allclose(hardy_Q(ones).sample(ts), np.log(1 / ts), atol=1e-12)


def test_hardy_ops_vs_quadrature(rng):
    prof = rearrange(gf(np.abs(rng.normal(size=9))))

    def step(u):
        return prof.value_at(min(max(u, 1e-12), 1.0))

    pts = prof.breakpoints[1:-1].tolist()
    for t in (0.07, 0.31, 0.6, 0.95):
        ref_p, _ = quad(step, 0, t, points=[b for b in pts if b < t], limit=200)
        assert hardy_P(prof).at(t) == pytest.approx(ref_p / t, abs=1e-9)
        ref_q, _ = quad(
            lambda u: step(u) / u, t, 1, points=[b for b in pts if b > t], limit=200
        )
        assert hardy_Q(prof).at(t) == pytest.approx(ref_q, abs=1e-9)


def test_p_of_rearrangement_is_double_star(rng):
    f = gf(rng.normal(size=23))
    prof = rearrange(f)
    ts = np.union1d(prof.breakpoints[1:], np.linspace(0.01, 1, 53))
    assert np.allclose(
        hardy_P(prof).sample(ts), double_star(prof).sample(ts), atol=1e-12
    )


def test_median_examples():
    assert median(gf([1, 0])) == 0.0
    assert median(gf([3, 3, 3])) == 3.0
    f = gf([5, 1, 2, 9])
    m = median(f)
    vals = f.values
    assert np.count_nonzero(vals > m) <= 2
    assert np.count_nonzero(vals < m) <= 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=1, max_size=15))
def test_median_is_smallest_valid(values):
    f = gf(values)
    m = median(f)
    n = f.ncells
    assert np.count_nonzero(f.values > m) <= n / 2
    assert np.count_nonzero(f.values < m) <= n / 2
    smaller = [v for v in f.values if v < m]
    for v in smaller:
        ok = (
            np.count_nonzero(f.values > v) <= n / 2
            and np.count_nonzero(f.values < v) <= n / 2
        )
        assert not ok


def test_median_on_subcube():
    f = gf([9, 0, 0, 9])
    assert median(f, Cube((1,), 2)) == 0.0
    assert median(f, Cube((0,), 2)) == 0.0  # smallest valid of {0, 9}


def smallest_valid_median(vals):
    """Reference: the smallest distinct value with at most half the cells
    on either side, over np.unique of the sorted values."""
    srt = np.sort(vals)
    m = srt.size
    uniq = np.unique(srt)
    n_less = np.searchsorted(srt, uniq, side="left")
    n_greater = m - np.searchsorted(srt, uniq, side="right")
    return float(uniq[np.argmax((n_less <= m / 2) & (n_greater <= m / 2))])


def test_median_is_lower_middle_of_one_sort(rng):
    # odd and even sizes, heavy ties, and sub-cubes of 1D and 2D grids
    for n in range(1, 40):
        for vals in (rng.normal(size=n), rng.integers(-2, 3, size=n).astype(float)):
            f = gf(vals)
            assert median(f) == smallest_valid_median(f.values)
            for q in (Cube((0,), n), Cube((n // 3,), max(1, n - n // 2 - n // 3))):
                assert median(f, q) == smallest_valid_median(f.values[q.flat_cells(n)])
    f = GridFunction(2, 6, rng.integers(0, 3, size=36).astype(float))
    for side in range(1, 7):
        q = Cube((6 - side, 0), side)
        assert median(f, q) == smallest_valid_median(f.values[q.flat_cells(6)])


def test_median_rearrangement_factor_two(rng):
    for _ in range(25):
        n = int(rng.integers(2, 30))
        f = gf(rng.normal(size=n))
        m = median(f)
        prof_m = rearrange(gf(f.values - m))
        cands = np.unique(f.values)
        cands = np.concatenate([cands, (cands[1:] + cands[:-1]) / 2, [f.values.mean()]])
        # step profiles change only at cell breakpoints: checking the
        # breakpoints strictly below 1/2 covers every t < 1/2; at t = 1/2
        # exactly the bound is convention-dependent (atoms of mass 1/2)
        ts = np.arange(1, n + 1) / n
        ts = ts[ts < 0.5]
        if not ts.size:
            continue
        best = np.full(ts.size, np.inf)
        for c in cands:
            best = np.minimum(best, rearrange(gf(f.values - c)).sample(ts))
        assert np.all(prof_m.sample(ts) <= 2 * best + 1e-12)


def test_median_norm_factor_four(rng):
    battery = [lp(1), lp(2), lp(math.inf), weak_lp(2)]
    for _ in range(10):
        n = int(rng.integers(2, 20))
        f = gf(rng.normal(size=n))
        m = median(f)
        cands = np.unique(np.concatenate([f.values, [f.values.mean()]]))
        cands = np.concatenate([cands, (cands[1:] + cands[:-1]) / 2])
        for space in battery:
            lhs = norm(space, rearrange(gf(f.values - m)))
            best = min(norm(space, rearrange(gf(f.values - c))) for c in cands)
            assert lhs <= 4 * best + 1e-9


def test_l1_contraction(rng):
    for _ in range(40):
        n = int(rng.integers(2, 50))
        a, b = rng.normal(size=n), rng.normal(size=n)
        lhs = np.abs(np.sort(np.abs(a)) - np.sort(np.abs(b))).sum() / n
        rhs = np.abs(a - b).sum() / n
        assert lhs <= rhs + 0.0


def test_hlpc_dominates_basics():
    g = StepProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]))
    ones = StepProfile(np.array([0.0, 1.0]), np.array([1.0]))
    assert hlpc_dominates(g, g)
    assert hlpc_dominates(g, ones)
    assert not hlpc_dominates(ones, g)


def test_hlpc_implies_norm_monotone(rng):
    battery = [lp(1), lp(2), lp(math.inf), weak_lp(2)]
    profs = [rearrange(gf(rng.normal(size=int(rng.integers(2, 20))))) for _ in range(8)]
    hits = 0
    for g1 in profs:
        for g2 in profs:
            if hlpc_dominates(g1, g2):
                hits += 1
                for space in battery:
                    assert norm(space, g1) <= norm(space, g2) + 1e-9
    assert hits >= len(profs)  # at least the diagonal


@pytest.mark.parametrize("bp,vals", [
    ([0, 0.5, 1], [math.nan, 0]),  # a nan value
    ([0, 0.5, 1], [math.inf, 0]),  # an inf value
    ([0, math.nan, 1], [1, 0]),  # a nan breakpoint
])
def test_step_profile_rejects_non_finite(bp, vals):
    with pytest.raises(ConfigError):
        StepProfile(np.array(bp, dtype=float), np.array(vals, dtype=float))


@pytest.mark.parametrize("t", [math.nan, 0.0, 1.5, -0.5])
@pytest.mark.parametrize("call", [
    lambda g, ts: g.sample(ts),
    lambda g, ts: g.sample_left(ts),
    lambda g, ts: double_star(g).sample(ts),
    lambda g, ts: hardy_Q(g).sample(ts),
], ids=["sample", "sample_left", "double_star", "hardy_Q"])
def test_profile_domain_rejects_nan_and_outside(call, t):
    g = StepProfile(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
    with pytest.raises(ConfigError):
        call(g, [0.5, t])


@pytest.mark.parametrize("t", [math.nan, -0.5, 1.5])
def test_integral_to_rejects_nan_and_outside(t):
    g = StepProfile(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
    with pytest.raises(ConfigError):
        g.integral_to([0.5, t])
    assert g.integral_to([0.0, 1.0 + 1e-13]).tolist() == [0.0, 1.5]


def test_logspike_rearrangement_matches_closed_form():
    from oscilab import generate

    n, a = 4096, 0.25
    f = generate("logspike", 1, n, a=a)
    prof = rearrange(f)
    ts = np.arange(1, int(a * n)) / n
    got = prof.sample(ts)
    want = np.log(a / ts)
    err = np.abs(got - want)
    # one-cell resolution bound: |log(a/t) - log(a/center)| <= log(1 + 1/(2j))
    j = np.arange(1, ts.size + 1)
    assert np.all(err <= np.log(1 + 1.0 / (2 * j)) + 1e-12)
    mid = ts >= a / 8
    assert float(err[mid].max()) < 5e-3


def descending_profile(values):
    """Reference for profile_from_cells: |values| sorted descending, the
    last cell of each equal run kept, breakpoints read from arange(m+1)/m."""
    vals = np.sort(np.abs(np.asarray(values, dtype=float)))[::-1]
    bp = np.arange(vals.size + 1) / vals.size
    keep = np.nonzero(np.concatenate((np.diff(vals) != 0, [True])))[0]
    return StepProfile(np.concatenate(([0.0], bp[keep + 1])), vals[keep])


def test_profile_from_cells_matches_descending_construction(rng):
    from oscilab import generate, local_maximal

    signed_zeros = np.array([0.0, -0.0, 1.5, -1.5, -0.0, 2.0, 0.0, -2.0, 0.25])
    dyadic_max = local_maximal(generate("random_steps", 2, 256, seed=3), 0.05, "dyadic")
    for vals in ([7.0], [-3.0] * 9, rng.integers(-3, 4, size=257).astype(float),
                 signed_zeros, rng.normal(size=1000), dyadic_max.values):
        got, want = profile_from_cells(vals), descending_profile(vals)
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
    assert dyadic_max.values.size == 2**16


@pytest.mark.parametrize("d", [1, 2])
def test_logspike_log_on_support_matches_where_form(d):
    from oscilab import generate
    from oscilab.generators import cell_centers

    for n in (1, 2, 7, 64, 333):
        for a in (1e-6, 0.01, 0.25, 0.3, 0.5, 1.0):
            x = cell_centers(n)
            if d == 1:
                want = np.where(x <= a, np.log(a / np.maximum(x, 1e-300)), 0.0)
            else:
                r = np.maximum(x[:, None], x[None, :])
                edge = np.sqrt(a)
                want = np.where(r <= edge, 2.0 * np.log(edge / r), 0.0)
            got = generate("logspike", d, n, a=a).values
            assert got.tobytes() == want.ravel().tobytes(), (n, a)
