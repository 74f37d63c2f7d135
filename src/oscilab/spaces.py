"""Rearrangement-invariant norm families: Lp, weak-Lp, Marcinkiewicz M(phi).

Norms act on non-increasing step profiles (a function's decreasing
rearrangement), so every space is handled through its representation on
(0,1].  The Marcinkiewicz norm sup_{0<s<=1} phi(s) * (1/s) int_0^s g is
evaluated at the profile breakpoints and the phi knots only: for the
built-in phi families the objective is quasi-convex between consecutive
candidates (and increasing below the first breakpoint, where the average
is constant), so its maximum over them is the true supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .grid import _csv_numbers, _read_csv_rows
from .rearrange import StepProfile, dilate, rearrange

__all__ = [
    "RISpaceSpec",
    "BoydIndices",
    "lp",
    "weak_lp",
    "marcinkiewicz",
    "phi_preset",
    "phi_from_csv",
    "norm",
    "grid_norm",
    "fundamental_function",
    "boyd_indices",
    "dilation_norm_estimate",
    "space_from_string",
]

class PowerPhi:
    """phi(s) = s**q with q in [0, 1]."""

    def __init__(self, q: float):
        if not 0 <= q <= 1:
            raise ConfigError(f"power exponent must lie in [0,1], got {q}")
        self.q = float(q)
        self.knots = np.array([])

    def __call__(self, s):
        return np.asarray(s, dtype=float) ** self.q

    def label(self) -> str:
        return f"power q={self.q:g}"


class LogSlowPhi:
    """phi(t) = 1 / (1 + ln(1/t)): concave, increasing, phi(0+) = 0.

    Its dilation function is identically 1 for t < 1, so both dilation
    exponents vanish; this is the canonical zero-lower-index example.
    """

    def __init__(self):
        self.knots = np.array([])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return 1.0 / (1.0 + np.log(1.0 / s))

    def label(self) -> str:
        return "log-slow"


class TablePhi:
    """Concave increasing piecewise-linear phi from a (s, phi(s)) table.

    Extended linearly through the origin below the first knot, which keeps
    concavity and phi(0+) = 0.
    """

    def __init__(self, s: Sequence[float], v: Sequence[float]):
        s = np.asarray(s, dtype=float)
        v = np.asarray(v, dtype=float)
        if s.ndim != 1 or s.size < 1 or s.size != v.size:
            raise ConfigError("phi table needs matching s and phi(s) columns")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
            raise ConfigError("phi table entries must be finite numbers")
        order = np.argsort(s)
        s, v = s[order], v[order]
        if s[0] <= 0 or s[-1] > 1 + 1e-12:
            raise ConfigError("phi table abscissae must lie in (0, 1]")
        if np.any(np.diff(s) <= 0):
            raise ConfigError("phi table abscissae must be distinct")
        if np.any(v <= 0) or np.any(np.diff(v) < -1e-12 * max(1.0, v.max())):
            raise ConfigError("phi must be positive and increasing")
        slopes = np.diff(np.concatenate(([0.0], v))) / np.diff(
            np.concatenate(([0.0], s))
        )
        if np.any(np.diff(slopes) > 1e-9 * max(1.0, slopes[0])):
            raise ConfigError("phi table is not concave")
        self.s = s
        self.v = v
        self.knots = s[s < 1.0]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, np.concatenate(([0.0], self.s)),
                         np.concatenate(([0.0], self.v)))

    def label(self) -> str:
        return f"table[{self.s.size} knots]"


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{what} must be a number, got {text!r}") from exc
    if math.isnan(value):
        raise ConfigError(f"{what} must be a number, got {text!r}")
    return value


def phi_preset(name: str):
    """Built-in phi presets: 'power:p' and 'log-slow'."""
    if name == "log-slow":
        return LogSlowPhi()
    if name.startswith("power:"):
        p = _parse_float(name.split(":", 1)[1], "power preset exponent")
        if p < 1:
            raise ConfigError("power preset needs p >= 1")
        return PowerPhi(1.0 / p if math.isfinite(p) else 0.0)
    raise ConfigError(f"unknown phi preset {name!r}")


def phi_from_csv(path) -> TablePhi:
    """Load a phi table from CSV rows 's,phi(s)'; '#' lines are comments, and
    the first data row is a header if it does not start with two numbers."""
    rows = [r for r in _read_csv_rows(path, "phi table") if not r[0].startswith("#")]
    try:
        float(rows[0][0]), float(rows[0][1])
    except (IndexError, ValueError):
        rows = rows[1:]  # a header row, or no row at all
    s, v = _csv_numbers(rows, 2, "phi table", path).reshape(-1, 2).T
    return TablePhi(s, v)


@dataclass(frozen=True, eq=False)
class RISpaceSpec:
    """A rearrangement-invariant norm family on (0,1].

    family: 'lp' (p in [1, inf]), 'weak-lp' (p in (1, inf)), or
    'marcinkiewicz' with a concave phi; weak-Lp is Marcinkiewicz with
    phi(s) = s^(1/p).
    """

    family: str
    p: float | None = None
    phi: object | None = None

    def __post_init__(self):
        if self.family == "lp":
            if self.p is None or not 1 <= self.p:
                raise ConfigError("Lp needs p in [1, inf]")
        elif self.family == "weak-lp":
            if self.p is None or not 1 < self.p < math.inf:
                raise ConfigError("weak-Lp needs p in (1, inf)")
            object.__setattr__(self, "phi", PowerPhi(1.0 / self.p))
        elif self.family == "marcinkiewicz":
            if self.phi is None:
                raise ConfigError("Marcinkiewicz space needs phi")
        else:
            raise ConfigError(f"unknown space family {self.family!r}")

    @property
    def name(self) -> str:
        if self.family == "lp":
            return "Linf" if math.isinf(self.p) else f"L{self.p:g}"
        if self.family == "weak-lp":
            return f"weak-L{self.p:g}"
        return f"M({self.phi.label()})"


def lp(p: float) -> RISpaceSpec:
    return RISpaceSpec("lp", p=float(p))


def weak_lp(p: float) -> RISpaceSpec:
    return RISpaceSpec("weak-lp", p=float(p))


def marcinkiewicz(phi) -> RISpaceSpec:
    return RISpaceSpec("marcinkiewicz", phi=phi)


def space_from_string(spec: str) -> RISpaceSpec:
    """Parse 'lp:p' | 'weak:p' | 'marcinkiewicz:<preset or csv path>'."""
    head, _, rest = spec.partition(":")
    if head == "lp":
        return lp(math.inf if rest in ("inf", "infinity")
                  else _parse_float(rest, "Lp exponent"))
    if head == "weak":
        return weak_lp(_parse_float(rest, "weak-Lp exponent"))
    if head == "marcinkiewicz":
        if rest == "log-slow" or rest.startswith("power:"):
            return marcinkiewicz(phi_preset(rest))
        return marcinkiewicz(phi_from_csv(rest))
    raise ConfigError(f"cannot parse space spec {spec!r}")


# ---------------------------------------------------------------------------
# norms

def marcinkiewicz_sup(phi, g: StepProfile):
    """sup over (0,1] of phi(s) * (1/s) int_0^s g, with its argmax point,
    from the profile breakpoints and phi knots."""
    knots = getattr(phi, "knots", np.array([]))
    s = np.unique(np.concatenate([g.breakpoints[1:], knots]))
    s = s[(s > 0) & (s <= 1.0)]
    h = phi(s) * g.integral_to(s) / s
    i = int(np.argmax(h))
    return float(h[i]), float(s[i])


def norm(space: RISpaceSpec, g: StepProfile) -> float:
    """Norm of a profile: exact power integral for Lp, certified sup for
    Marcinkiewicz/weak-Lp."""
    vals = np.abs(g.values)
    if space.family == "lp":
        if math.isinf(space.p):
            return float(vals.max(initial=0.0))
        widths = np.diff(g.breakpoints)
        if space.p == 1:
            return float(np.dot(vals, widths))
        return float(np.dot(vals**space.p, widths) ** (1.0 / space.p))
    value, _ = marcinkiewicz_sup(space.phi, g)
    return value


def grid_norm(space: RISpaceSpec, f) -> float:
    """Norm of a grid function through its decreasing rearrangement."""
    return norm(space, rearrange(f))


def fundamental_function(space: RISpaceSpec, s: float) -> float:
    """phi_X(s) = norm of the indicator of (0, s]."""
    if not 0 < s <= 1:
        raise ConfigError("fundamental function domain is (0, 1]")
    if space.family == "lp":
        if math.isinf(space.p):
            return 1.0
        return float(s ** (1.0 / space.p))
    return float(space.phi(s))


# ---------------------------------------------------------------------------
# Boyd indices and dilation norms

@dataclass(frozen=True)
class BoydIndices:
    alpha: float
    beta: float
    exact: bool


def _phi_dilation(phi, t: float, u_grid: np.ndarray) -> float:
    """sup over u (with ut <= 1) of phi(ut) / phi(u)."""
    u = u_grid[u_grid * t <= 1.0]
    ratios = phi(u * t) / phi(u)
    return float(ratios.max())


def boyd_indices(space: RISpaceSpec) -> BoydIndices:
    """Boyd indices of the space.

    Lp and weak-Lp are exact: alpha = beta = 1/p.  Marcinkiewicz indices are
    reported as the dilation exponents of phi, estimated from log-log slopes
    of sup_u phi(ut)/phi(u); flagged approximate since the identification is
    not asserted here.
    """
    if space.family in ("lp", "weak-lp"):
        q = 0.0 if math.isinf(space.p) else 1.0 / space.p
        return BoydIndices(q, q, True)
    phi = space.phi
    u_grid = np.geomspace(1e-12, 1.0, 481)
    small = 2.0 ** (-np.arange(8, 17, dtype=float))
    m_small = np.array([_phi_dilation(phi, t, u_grid) for t in small])
    alpha = float(np.polyfit(np.log(small), np.log(m_small), 1)[0])
    large = 2.0 ** np.arange(8, 17, dtype=float)
    m_large = np.array([_phi_dilation(phi, t, u_grid) for t in large])
    beta = float(np.polyfit(np.log(large), np.log(m_large), 1)[0])
    return BoydIndices(min(max(alpha, 0.0), 1.0), min(max(beta, 0.0), 1.0), False)


def dilation_norm_estimate(
    space: RISpaceSpec, s: float, battery: Sequence[StepProfile]
) -> float:
    """Certified lower bound on the dilation operator norm: the best ratio
    ||sigma_s g|| / ||g|| over the battery.  Never exceeds max(1, s)."""
    if not battery:
        raise ConfigError("dilation estimate needs a nonempty battery")
    best = 0.0
    for g in battery:
        denom = norm(space, g)
        if denom == 0.0:
            continue
        best = max(best, norm(space, dilate(g, s)) / denom)
    return best
