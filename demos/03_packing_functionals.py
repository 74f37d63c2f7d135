"""Packing functionals: John-Nirenberg, the doubled-oscillation conditions,
admissible majorants and the two-sided Garsia-Rodemich estimate.

Run:  python demos/03_packing_functionals.py
"""

import math

import numpy as np

from oscilab import (
    campanato_norm,
    gamma_membership,
    garo_norm,
    garo_p_lambda,
    generate,
    gp_norm,
    grid_norm,
    jn_norm,
    lp,
    sharp_maximal,
    sobolev_seminorm,
)

f = generate("random_steps", 1, 12, seed=5)

# JN and the doubled-oscillation functional optimize over cube packings;
# in 1D both are exact dynamic programs.  Holder gives G_p <= 2 JN_p.
for p in (1.5, 2.0, 4.0):
    print(f"p={p}: JN = {jn_norm(f, p):.4f}   G = {gp_norm(f, p):.4f}"
          f"   (G <= 2 JN: {gp_norm(f, p) <= 2 * jn_norm(f, p) + 1e-12})")
print("p=inf single-cube reduction:", gp_norm(f, math.inf))

# Admissible majorants: gamma qualifies iff its cube integrals dominate the
# doubled oscillations.  4|f| and 2 f# always qualify.
for label, gamma in (
    ("4|f|", f.with_values(4 * np.abs(f.values))),
    ("2 f#", f.with_values(2 * sharp_maximal(f).values)),
    ("0", f.with_values(0 * f.values)),
):
    member, worst, slack = gamma_membership(f, gamma)
    print(f"gamma = {label:5s}: admissible = {member}  (worst slack {slack:+.4f})")

# The Garsia-Rodemich norm: exact wherever reachable (an LP for L1 on tiny
# grids, closed form for Linf), bracketed by the certified packing lower
# bound and the 16*||M#_s f||_X upper route.
for space, label in ((lp(1), "L1"), (lp(math.inf), "Linf")):
    est = garo_norm(f, space)
    print(f"\nGaRo in {label}: lower {est.lower:.4f} <= exact {est.exact:.4f}"
          f" <= upper {est.upper:.4f}")
    print(f"  witness packing: {est.witness_packing.to_json()}")
    print(f"  embedding check: exact <= 4 ||f||_X = {4 * grid_norm(space, f):.4f}")

# The lambda-weighted variant interpolates toward Campanato seminorms.
lam = -0.5
print(f"\nGaRo_(inf,{lam}) = {garo_p_lambda(f, math.inf, lam):.4f}"
      f"  vs campanato = {campanato_norm(f, lam):.4f} (sandwich factor <= 2)")

# Morrey chain on a smooth function: fractional energy controls the
# Campanato seminorm with constant 1 in 1D.
g = generate("cosine_mix", 1, 48, seed=2)
alpha, p = 0.75, 4.0
print(f"\nsmooth g: campanato({1/p - alpha:+.2f}) = "
      f"{campanato_norm(g, 1/p - alpha):.4f} <= "
      f"sobolev({alpha},{p}) = {sobolev_seminorm(g, alpha, p):.4f}")
