"""Deterministic SVG step plots for profiles and K-curves.

Hand-rolled on purpose: byte-identical output for identical input is part
of the interface contract (golden-file tests), which rules out plotting
libraries with environment-dependent output.
"""

from __future__ import annotations

import math

from .errors import ConfigError

__all__ = ["plot_profiles"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 24, 36, 48
_PALETTE = ["#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#17a2b8"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12:
        ticks.append(round(v, 12))
        v += step
    return ticks


def plot_profiles(curves, path, title: str = "") -> None:
    """Log-x step plot.  curves: list of (label, t array, value array)."""
    if not curves:
        raise ConfigError("nothing to plot: need at least one profile")
    for label, ts, vs in curves:
        if len(ts) != len(vs) or len(ts) == 0:
            raise ConfigError(f"curve {label!r} needs matching nonempty data")
        if min(ts) <= 0:
            raise ConfigError("log-x plot needs t > 0")
    tmin = min(min(ts) for _, ts, _ in curves)
    vlo = min(0.0, min(min(vs) for _, _, vs in curves))
    vhi = max(max(vs) for _, _, vs in curves)
    if vhi <= vlo:
        vhi = vlo + 1.0
    lx0, lx1 = math.log10(tmin), 0.0
    if lx1 - lx0 < 1e-9:
        lx0 = lx1 - 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(t: float) -> float:
        return _ML + pw * (math.log10(t) - lx0) / (lx1 - lx0)

    def sy(v: float) -> float:
        return _MT + ph * (1.0 - (v - vlo) / (vhi - vlo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W // 2}" y="22" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    # x ticks at powers of ten
    dec = math.ceil(lx0 - 1e-9)
    while dec <= 0:
        t = 10.0**dec
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_MT + ph}" x2="{_fmt(x)}" '
            f'y2="{_MT + ph + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_MT + ph + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">1e{dec}</text>'
        )
        dec += 1
    for tv in _nice_ticks(vlo, vhi):
        y = sy(tv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" '
            'stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{tv:g}</text>'
        )
    parts.append(
        f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
        'font-family="monospace" font-size="12">t (log scale)</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph // 2})">value</text>'
    )
    for ci, (label, ts, vs) in enumerate(curves):
        color = _PALETTE[ci % len(_PALETTE)]
        pts = sorted(zip(ts, vs))
        d = [f"M {_fmt(sx(pts[0][0]))} {_fmt(sy(pts[0][1]))}"]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            d.append(f"H {_fmt(sx(t1))}")
            if v1 != v0:
                d.append(f"V {_fmt(sy(v1))}")
        parts.append(
            f'<path d="{" ".join(d)}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * ci
        parts.append(
            f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" x2="{_ML + pw - 120}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_ML + pw - 114}" y="{ly}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
