"""Decreasing rearrangements, maximal averages, dilation/Hardy operators, medians.

Profiles are right-continuous non-increasing step functions on (0,1]: the
value ``values[k]`` is taken on [breakpoints[k], breakpoints[k+1]), and the
last piece is closed at t=1.  Rearrangements of grid functions are exact
(cell values sorted, each on an interval of one cell measure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Cube, GridFunction, _cube_values

__all__ = [
    "StepProfile",
    "ProfileCurve",
    "rearrange",
    "distribution",
    "double_star",
    "oscillation_gap",
    "dilate",
    "hardy_P",
    "hardy_Q",
    "median",
    "hlpc_dominates",
    "profile_from_cells",
]


@dataclass(frozen=True, eq=False)
class StepProfile:
    """Non-increasing right-continuous step function on (0,1]."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise ConfigError("need m+1 breakpoints for m values")
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise ConfigError("profile breakpoints and values must be finite")
        if bp[0] != 0.0 or abs(bp[-1] - 1.0) > 1e-12:
            raise ConfigError("breakpoints must run from 0 to 1")
        if np.any(np.diff(bp) <= 0):
            raise ConfigError("breakpoints must be strictly increasing")
        scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
        if np.any(np.diff(vals) > 1e-12 * scale):
            raise ConfigError("profile values must be non-increasing")
        bp = bp.copy()
        bp[-1] = 1.0
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        # exact cumulative integral at breakpoints, cum[k] = int_0^{t_k}
        cum = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
        object.__setattr__(self, "_cum", cum)

    @property
    def npieces(self) -> int:
        return self.values.size

    def _piece_right(self, ts: np.ndarray) -> np.ndarray:
        # piece index for right-continuous evaluation
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        return np.clip(idx, 0, self.npieces - 1)

    def _piece_left(self, ts: np.ndarray) -> np.ndarray:
        # piece whose half-open interval (t_{k}, t_{k+1}] contains t
        idx = np.searchsorted(self.breakpoints, ts, side="left") - 1
        return np.clip(idx, 0, self.npieces - 1)

    def sample(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if not np.all((ts > 0) & (ts <= 1)):  # NaN too
            raise ConfigError("profile domain is (0, 1]")
        return self.values[self._piece_right(ts)]

    def value_at(self, t: float) -> float:
        return float(self.sample([t])[0])

    def sample_left(self, ts) -> np.ndarray:
        """Left-continuous evaluation: the value on the piece (t_k, t_{k+1}]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if not np.all((ts > 0) & (ts <= 1)):
            raise ConfigError("profile domain is (0, 1]")
        return self.values[self._piece_left(ts)]

    def value_left(self, t: float) -> float:
        return float(self.sample_left([t])[0])

    def integral_to(self, ts) -> np.ndarray:
        """Exact int_0^t of the step function, vectorized."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if not np.all((ts >= 0) & (ts <= 1 + 1e-12)):
            raise ConfigError("integration endpoint must lie in [0, 1]")
        ts = np.minimum(ts, 1.0)
        idx = self._piece_left(ts)
        return self._cum[idx] + self.values[idx] * (ts - self.breakpoints[idx])

    @classmethod
    def constant(cls, c: float) -> "StepProfile":
        return cls(np.array([0.0, 1.0]), np.array([float(c)]))

    @classmethod
    def indicator(cls, s: float) -> "StepProfile":
        """chi_(0,s] as a profile; s=1 gives the constant 1."""
        if not 0 < s <= 1:
            raise ConfigError("indicator length must be in (0,1]")
        if s >= 1.0:
            return cls.constant(1.0)
        return cls(np.array([0.0, s, 1.0]), np.array([1.0, 0.0]))


def profile_from_cells(values: np.ndarray) -> StepProfile:
    """Profile of |values| sorted descending, each cell on one 1/m interval.

    Equal-valued runs merge into one piece.  |values| is sorted ascending
    in place; the run starting at ascending position j holds the descending
    cells up to m - j, so its piece ends at (m - j)/m, the float
    np.arange(m + 1)[m - j] / m, computed at run starts only."""
    vals = np.abs(np.asarray(values, dtype=float))
    vals.sort()
    m = vals.size
    first = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    return StepProfile(np.concatenate(([0.0], ((m - first) / m)[::-1])), vals[first[::-1]])


def rearrange(f: GridFunction) -> StepProfile:
    """Decreasing rearrangement of |f|, equimeasurable with |f| exactly."""
    return profile_from_cells(f.values)


def distribution(f: GridFunction, t: float) -> float:
    """Measure of {|f| > t}."""
    if not t >= 0:  # NaN too
        raise ConfigError("distribution function is defined for t >= 0")
    return float(np.count_nonzero(np.abs(f.values) > t)) / f.res**f.dim


class ProfileCurve:
    """An exact curve t -> evaluate(ts) derived from a step profile base:
    g**, Q g and g** - g are all evaluated on demand from the breakpoint
    data of base, never resampled; evaluate also checks the domain."""

    def __init__(self, base: StepProfile, evaluate):
        self.base, self._evaluate = base, evaluate

    @property
    def breakpoints(self) -> np.ndarray:
        return self.base.breakpoints

    def sample(self, ts) -> np.ndarray:
        return self._evaluate(np.atleast_1d(np.asarray(ts, dtype=float)))

    def at(self, t: float) -> float:
        return float(self.sample([t])[0])


def double_star(g: StepProfile) -> ProfileCurve:
    """The maximal average g**(t) = (1/t) int_0^t g(s) ds.

    Piecewise smooth, non-increasing when g is non-increasing, >= g pointwise.
    """
    def evaluate(ts):
        if not np.all(ts > 0):
            raise ConfigError("running average undefined at t=0")
        return g.integral_to(ts) / ts

    return ProfileCurve(g, evaluate)


hardy_P = double_star
"""Hardy operator P g(t) = (1/t) int_0^t g: identical to the maximal average."""


def hardy_Q(g: StepProfile) -> ProfileCurve:
    """Hardy operator Q g(t) = int_t^1 g(s) ds/s (exact logarithmic form)."""
    bp, vals = g.breakpoints, g.values
    lo = np.maximum(bp[:-1], np.finfo(float).tiny)
    piece_logs = vals * np.log(bp[1:] / lo)
    # suffix[k] = contribution of pieces k+1..m-1
    suffix = np.concatenate((np.cumsum(piece_logs[::-1])[::-1], [0.0]))[1:]

    def evaluate(ts):
        if not np.all((ts > 0) & (ts <= 1)):
            raise ConfigError("domain of Q g is (0, 1]")
        idx = g._piece_right(ts)
        return vals[idx] * np.log(bp[idx + 1] / ts) + suffix[idx]

    return ProfileCurve(g, evaluate)


def oscillation_gap(f: GridFunction) -> tuple:
    """The curve f** - f* together with its exact supremum over (0,1].

    On each piece the gap is A/t with A >= 0, so the supremum is attained at
    a breakpoint approached from the right; sup_t (f**-f*)(t) is the
    Bennett-DeVore-Sharpley functional of f.
    """
    g = rearrange(f)
    avg = double_star(g)
    curve = ProfileCurve(g, lambda ts: avg.sample(ts) - g.sample(ts))
    interior = g.breakpoints[1:-1]
    if interior.size == 0:
        return curve, 0.0
    return curve, float(np.max(curve.sample(interior)))


def dilate(g: StepProfile, s: float) -> StepProfile:
    """Compression/dilation: (sigma_s g)(t) = g(t/s) for t < min(s,1), else 0.

    Operator norm on every r.i. space is at most max(1, s).  Requires a
    nonnegative profile (rearrangements are).
    """
    if not 0 < s < np.inf:
        raise ConfigError(f"dilation parameter s must be finite and > 0, got {s}")
    if s == 1.0:
        return g
    bp, vals = g.breakpoints, g.values
    if s < 1 and vals.size and vals[-1] < -1e-15:
        raise ConfigError("dilate with s<1 zero-extends: profile must be >= 0")
    new_bp = bp * s
    if s < 1:
        return StepProfile(
            np.concatenate((new_bp, [1.0])), np.concatenate((vals, [0.0]))
        )
    keep = new_bp[:-1] < 1.0
    return StepProfile(
        np.concatenate((new_bp[:-1][keep], [1.0])), vals[keep]
    )


def median(f: GridFunction, q: Cube | None = None) -> float:
    """Smallest median value of f on the cube (whole domain by default).

    A median c has |{f > c} ∩ Q| <= |Q|/2 and |{f < c} ∩ Q| <= |Q|/2.  With
    the m cell values sorted, v = srt[(m-1)//2] is one: at most (m-1)//2
    cells lie below v and at most m-1-(m-1)//2 = ceil((m-1)/2) above it,
    both <= m/2.  No smaller real number is one: every c < v has the
    m - (m-1)//2 > m/2 cells from position (m-1)//2 on above it.
    """
    srt = np.sort(f.values if q is None else _cube_values(f, q))
    return float(srt[(srt.size - 1) // 2])


def _sorted_abs(g: StepProfile) -> StepProfile:
    """Decreasing rearrangement of |g| (no-op for nonnegative profiles)."""
    vals = np.abs(g.values)
    widths = np.diff(g.breakpoints)
    order = np.argsort(-vals, kind="stable")
    bp = np.concatenate(([0.0], np.cumsum(widths[order])))
    bp[-1] = 1.0
    return StepProfile(bp, vals[order])


def hlpc_dominates(g1: StepProfile, g2: StepProfile) -> bool:
    """True iff int_0^t g1* <= int_0^t g2* for all t in (0,1].

    The difference of cumulative integrals is piecewise linear, so checking
    the union of breakpoints is exact.  When true, ||g1||_X <= ||g2||_X for
    every rearrangement-invariant norm (majorization).
    """
    r1, r2 = _sorted_abs(g1), _sorted_abs(g2)
    ts = np.union1d(r1.breakpoints[1:], r2.breakpoints[1:])
    i1 = r1.integral_to(ts)
    i2 = r2.integral_to(ts)
    scale = max(1.0, float(np.max(np.abs(i2))))
    return bool(np.all(i1 <= i2 + 1e-12 * scale))
