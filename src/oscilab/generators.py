"""Builtin deterministic test-function generators.

Every generator is a pure function of (kind, d, N, seed, params); random
kinds draw their shape parameters from the seed only, so refining N samples
the same underlying function.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import Cube, GridFunction

__all__ = ["generate", "GENERATOR_KINDS", "cell_centers"]

GENERATOR_KINDS = (
    "constant",
    "indicator",
    "logspike",
    "random_steps",
    "cosine_mix",
    "checkerboard",
)


def cell_centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def generate(kind: str, d: int, n: int, seed: int = 0, **params) -> GridFunction:
    """Builtin function corpus; see GENERATOR_KINDS.

    constant: value c (default 1); indicator: subcube origin/side (default
    the left half); logspike: the log singularity d*ln(a^(1/d)/|x|_inf) on
    the corner cube of measure a, sampled at cell centers; random_steps and
    cosine_mix: seeded; checkerboard: alternating blocks of the given period.
    """
    if d not in (1, 2) or n < 1 or seed < 0:
        raise ConfigError(f"generators need d in {{1, 2}}, N >= 1 and seed >= 0, "
                          f"got d={d}, N={n}, seed={seed}")
    if kind == "constant":
        return GridFunction(d, n, np.full(n**d, float(params.get("c", 1.0))))
    if kind == "indicator":
        cube = Cube(params.get("origin", (0,) * d), params.get("side", max(n // 2, 1)))
        cube.check(n, d)
        vals = np.zeros(n**d)
        vals[cube.flat_cells(n)] = 1.0
        return GridFunction(d, n, vals)
    if kind == "logspike":
        a = float(params.get("a", 0.25))
        if not 0 < a <= 1:
            raise ConfigError(f"logspike needs a in (0,1], got {a}")
        # the log only on the support: the c cell centres x <= a^(1/d), a
        # prefix of x in 1D and the c x c corner square max(x, y) <= sqrt(a)
        # in 2D; every other cell is 0
        x = cell_centers(n)
        vals = np.zeros((n,) * d)
        if d == 1:
            c = np.searchsorted(x, a, side="right")
            vals[:c] = np.log(a / x[:c])
        else:
            edge = np.sqrt(a)
            c = np.searchsorted(x, edge, side="right")
            vals[:c, :c] = 2.0 * np.log(edge / np.maximum(x[:c, None], x[None, :c]))
        return GridFunction(d, n, vals.ravel())
    if kind == "random_steps":
        rng = np.random.default_rng(seed)
        if d == 1:
            nlev = int(rng.integers(3, 9))
            cuts = np.sort(rng.uniform(0.05, 0.95, nlev - 1))
            levels = rng.normal(0.0, 1.0, nlev)
            idx = np.searchsorted(cuts, cell_centers(n))
            vals = levels[idx]
        else:
            vals = np.full((n, n), rng.normal())
            x = cell_centers(n)
            for _ in range(int(rng.integers(4, 8))):
                x0, y0 = rng.uniform(0, 0.8, 2)
                w, hgt = rng.uniform(0.1, 0.5, 2)
                height = rng.normal(0.0, 1.0)
                box = (
                    (x[:, None] >= x0)
                    & (x[:, None] < x0 + w)
                    & (x[None, :] >= y0)
                    & (x[None, :] < y0 + hgt)
                )
                vals = vals + height * box
        return GridFunction(d, n, vals.ravel())
    if kind == "cosine_mix":
        rng = np.random.default_rng(seed)
        nmodes = 4
        amps = rng.normal(0.0, 1.0, nmodes)
        phases = rng.uniform(0, 2 * np.pi, nmodes)
        x = cell_centers(n)
        if d == 1:
            freqs = rng.integers(1, 5, nmodes)
            vals = sum(
                a * np.cos(2 * np.pi * k * x + th)
                for a, k, th in zip(amps, freqs, phases)
            )
        else:
            kx = rng.integers(0, 4, nmodes)
            ky = rng.integers(1, 4, nmodes)
            vals = sum(
                a * np.cos(2 * np.pi * (kxi * x[:, None] + kyi * x[None, :]) + th)
                for a, kxi, kyi, th in zip(amps, kx, ky, phases)
            )
        return GridFunction(d, n, np.asarray(vals).ravel())
    if kind == "checkerboard":
        period = int(params.get("period", 1))
        if period < 1:
            raise ConfigError(f"checkerboard needs period >= 1, got {period}")
        idx = np.arange(n) // period
        if d == 1:
            vals = np.where(idx % 2 == 0, 1.0, -1.0)
        else:
            vals = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
        return GridFunction(d, n, vals.ravel())
    raise ConfigError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
