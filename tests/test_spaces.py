import math

import numpy as np
import pytest

from oscilab import (
    ConfigError,
    GridFunction,
    StepProfile,
    boyd_indices,
    dilation_norm_estimate,
    fundamental_function,
    lp,
    marcinkiewicz,
    norm,
    phi_from_csv,
    phi_preset,
    rearrange,
    space_from_string,
    weak_lp,
)
from oscilab.spaces import TablePhi, marcinkiewicz_sup


def profile(vals):
    vals = np.sort(np.abs(np.asarray(vals, dtype=float)))[::-1]
    bp = np.arange(vals.size + 1) / vals.size
    return StepProfile(bp, vals)


def test_lp_norm_examples():
    chi = StepProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]))
    assert norm(lp(1), chi) == 0.5
    assert norm(lp(math.inf), chi) == 1.0
    assert norm(lp(2), chi) == pytest.approx(math.sqrt(0.5))


def test_lp_norm_matches_cell_sum(rng):
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(10):
            n = int(rng.integers(2, 40))
            vals = rng.normal(size=n)
            f = GridFunction(1, n, vals)
            direct = (np.sum(np.abs(vals) ** p) / n) ** (1 / p)
            assert norm(lp(p), rearrange(f)) == pytest.approx(direct, abs=1e-12)


def test_linf_is_max(rng):
    vals = rng.normal(size=9)
    assert norm(lp(math.inf), rearrange(GridFunction(1, 9, vals))) == pytest.approx(
        np.max(np.abs(vals))
    )


def test_weak_l2_inverse_sqrt_profile():
    # step discretization of t^(-1/2) truncated at level V: closed form norm
    # approaches 2 from below (deficit 1/V plus discretization)
    v_top = 100.0
    ts = np.geomspace(v_top**-2, 1.0, 4000)
    bp = np.concatenate(([0.0], ts))
    vals = np.minimum(ts**-0.5, v_top)  # right-endpoint sampling, decreasing
    prof = StepProfile(bp, vals)
    got = norm(weak_lp(2), prof)
    # independent dense oracle for the same step profile
    s_grid = np.geomspace(1e-7, 1.0, 200001)
    dense = float(np.max(np.sqrt(s_grid) * prof.integral_to(s_grid) / s_grid))
    assert got == pytest.approx(dense, rel=1e-9)
    assert 1.97 <= got <= 2.0 + 1e-9


def test_fundamental_function():
    assert fundamental_function(lp(2), 0.25) == 0.5
    assert fundamental_function(lp(math.inf), 0.3) == 1.0
    phi = phi_preset("log-slow")
    x = marcinkiewicz(phi)
    for s in (0.01, 0.3, 1.0):
        assert fundamental_function(x, s) == pytest.approx(float(phi(s)))


def test_norm_of_indicator_is_fundamental_function():
    spaces = [lp(1), lp(2), lp(math.inf), weak_lp(2), weak_lp(3),
              marcinkiewicz(phi_preset("log-slow"))]
    for space in spaces:
        for s in (0.125, 0.25, 0.5, 0.75, 1.0):
            chi = StepProfile.indicator(s)
            assert norm(space, chi) == pytest.approx(
                fundamental_function(space, s), abs=1e-12
            )


@pytest.mark.parametrize("phi", [
    phi_preset("power:2"),
    phi_preset("power:5"),
    phi_preset("log-slow"),
    TablePhi([0.05, 0.2, 0.5, 1.0], [0.3, 0.6, 0.8, 1.0]),
], ids=["power2", "power5", "log-slow", "table"])
def test_marcinkiewicz_sup_dominates_dense_grid(rng, phi):
    # breakpoints and phi knots alone give the supremum: no point of a dense
    # logarithmic grid beats them by more than rounding
    s = np.geomspace(1e-6, 1.0, 20001)
    for n in (3, 24, 24, 100, 400):
        prof = rearrange(GridFunction(1, n, rng.lognormal(sigma=2.0, size=n)))
        value, at = marcinkiewicz_sup(phi, prof)
        dense = float(np.max(phi(s) * prof.integral_to(s) / s))
        assert value >= dense * (1.0 - 1e-15)
        at = np.array([at])
        assert value == pytest.approx((phi(at) * prof.integral_to(at) / at)[0],
                                      rel=1e-14)


def test_boyd_indices_exact():
    idx = boyd_indices(lp(3))
    assert (idx.alpha, idx.beta, idx.exact) == (1 / 3, 1 / 3, True)
    idx = boyd_indices(lp(math.inf))
    assert (idx.alpha, idx.beta, idx.exact) == (0.0, 0.0, True)
    idx = boyd_indices(lp(1))
    assert (idx.alpha, idx.beta, idx.exact) == (1.0, 1.0, True)
    idx = boyd_indices(weak_lp(2))
    assert (idx.alpha, idx.beta) == (0.5, 0.5) and idx.exact


def test_boyd_indices_log_slow_near_zero():
    idx = boyd_indices(marcinkiewicz(phi_preset("log-slow")))
    assert not idx.exact
    assert 0.0 <= idx.alpha <= 0.12
    assert 0.0 <= idx.beta <= 0.2


def test_boyd_indices_power_preset_matches_exponent():
    idx = boyd_indices(marcinkiewicz(phi_preset("power:2")))
    assert idx.alpha == pytest.approx(0.5, abs=0.02)
    assert idx.beta == pytest.approx(0.5, abs=0.02)
    assert not idx.exact


def test_boyd_indices_power_table_lower_index():
    s = np.geomspace(1e-6, 1.0, 200)
    table = phi_from_csv_like(s, np.sqrt(s))
    idx = boyd_indices(marcinkiewicz(table))
    assert idx.alpha == pytest.approx(0.5, abs=0.06)
    # the linear extension below the first knot legitimately drives the
    # upper dilation exponent toward 1 for any finite table
    assert 0.5 - 0.06 <= idx.beta <= 1.0


def phi_from_csv_like(s, v):
    from oscilab.spaces import TablePhi

    return TablePhi(s, v)


def test_phi_table_csv_loader(tmp_path):
    path = tmp_path / "phi.csv"
    s = np.linspace(0.05, 1.0, 20)
    path.write_text("s,phi\n" + "\n".join(f"{a},{math.sqrt(a)}" for a in s))
    phi = phi_from_csv(path)
    assert phi(0.25) == pytest.approx(0.5, abs=5e-3)


def test_phi_table_validation(tmp_path):
    from oscilab.spaces import TablePhi

    with pytest.raises(ConfigError):
        TablePhi([0.5, 1.0], [1.0, 0.5])  # decreasing
    with pytest.raises(ConfigError):
        TablePhi([0.2, 0.6, 1.0], [0.1, 0.2, 0.9])  # convex kink


def test_dilation_norm_estimate():
    battery = [StepProfile.indicator(u) for u in (0.1, 0.25, 0.5, 1.0)]
    assert dilation_norm_estimate(lp(2), 1.0, battery) == pytest.approx(1.0)
    # sigma_{1/2} chi_(0,u) = chi_(0,u/2): L1 ratio exactly 1/2 on indicators
    assert dilation_norm_estimate(lp(1), 0.5, battery) == pytest.approx(0.5, abs=1e-12)
    for space in (lp(1), lp(2), weak_lp(2), marcinkiewicz(phi_preset("log-slow"))):
        for s in (0.3, 0.7, 2.0):
            est = dilation_norm_estimate(space, s, battery)
            assert est <= max(1.0, s) * (1 + 1e-9)


def test_space_from_string():
    assert space_from_string("lp:2").p == 2
    assert math.isinf(space_from_string("lp:inf").p)
    assert space_from_string("weak:3").family == "weak-lp"
    assert space_from_string("marcinkiewicz:log-slow").family == "marcinkiewicz"
    with pytest.raises(ConfigError):
        space_from_string("banach:2")


def test_invalid_spaces():
    with pytest.raises(ConfigError):
        lp(0.5)
    with pytest.raises(ConfigError):
        lp(math.nan)  # a NaN exponent once made grid_norm return nan
    with pytest.raises(ConfigError):
        weak_lp(1.0)
    with pytest.raises(ConfigError):
        weak_lp(math.inf)
