"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line.  Tolerances are pinned here:
exact identities allow 1e-12 arithmetic slack (relative to the value
scale), norm comparisons 1e-9, and the hard constants come from the
statements under test (8, 2*8^d/s, 16*5^d, the 4x embedding, the sanity
ceiling 100 for the oscillation inequality).

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.
"""

import math

import numpy as np
import pytest

from oracles import (
    brute_f_sharp,
    brute_gp,
    brute_jn,
    garo_l1_exact_oracle,
    garo_linf_exact_oracle,
)

from oscilab import (
    GridFunction,
    campanato_norm,
    dilate,
    double_star,
    f_sharp_curve,
    f_sharp_profile,
    garo_norm,
    generate,
    gp_norm,
    grid_norm,
    hl_maximal,
    hlpc_dominates,
    jn_norm,
    k_l1_linf,
    local_maximal,
    lp,
    marcinkiewicz,
    median,
    norm,
    phi_preset,
    rearrange,
    sharp_maximal,
    sobolev_seminorm,
    weak_lp,
)
from oscilab.grid import CubeTable
from oscilab.kfunctional import running_max
from oscilab.maximal import DEFAULT_S
from oscilab.verify import equ103_max_ratio, run_suite

S_DEFAULT = DEFAULT_S  # 0.05, the spec default for the local maximal operator
NORM_TOL = 1e-9
EXACT_TOL = 1e-12


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared corpus with cached per-function products (criteria 2-6)

class Entry:
    def __init__(self, f: GridFunction):
        self.f = f
        self.scale = max(1.0, float(np.max(np.abs(f.values))))
        self.f0 = f.with_values(f.values - f.mean())
        self.l1_mean_zero = float(np.abs(self.f0.values).mean())
        self.prof = rearrange(f)
        self.sharp = sharp_maximal(f)  # shift-invariant: equals sharp of f0
        self.sharp_prof = rearrange(self.sharp)
        self.mloc = local_maximal(f, S_DEFAULT)
        self.mloc_prof = rearrange(self.mloc)
        self.hl_of_local = hl_maximal(self.mloc)
        self.hl = hl_maximal(f)
        n = f.ncells
        self.t_last = 1.0 - 0.5 / n
        self.ts = np.unique(np.concatenate(
            [np.geomspace(2e-3, 1.0, 20), [self.t_last]]
        ))
        self.fcurve = f_sharp_curve(f, self.ts)
        self.k_raw = {
            "BS": self.ts * self.sharp_prof.sample(self.ts),
            "JT": self.mloc_prof.integral_to(self.ts),
            "PACK": self.ts * self.fcurve,
        }
        self.k = {m: running_max(v) for m, v in self.k_raw.items()}


def _build_corpus() -> list:
    kinds = ["random_steps", "cosine_mix", "indicator", "logspike",
             "checkerboard", "random_steps", "cosine_mix", "random_steps"]
    entries = []
    seed = 0
    plan_1d = {8: 16, 12: 16, 16: 16, 24: 16, 32: 16, 48: 16, 64: 16}
    plan_2d = {8: 24, 12: 24, 16: 20, 24: 12, 32: 6, 48: 4}
    for d, plan in ((1, plan_1d), (2, plan_2d)):
        for n, count in plan.items():
            for j in range(count):
                kind = kinds[j % len(kinds)]
                params = {}
                if kind == "logspike":
                    params["a"] = [0.25, 0.0625][j % 2]
                if kind == "indicator":
                    params["side"] = max(1, n // (2 + j % 3))
                if kind == "checkerboard":
                    params["period"] = 1 + (j % 2) * max(1, n // 8)
                entries.append(generate(kind, d, n, seed=seed, **params))
                seed += 1
    return entries


@pytest.fixture(scope="module")
def corpus():
    return [Entry(f) for f in _build_corpus()]


@pytest.fixture(scope="module")
def battery():
    return [lp(1), lp(2), lp(math.inf), weak_lp(2)]


# ---------------------------------------------------------------------------
# criterion 1: oracle equality for the packing optimizations

def test_criterion_1_oracle_equality():
    rng = np.random.default_rng(101)
    funcs = []
    for n in range(2, 11):
        for _ in range(9):
            funcs.append(GridFunction(1, n, rng.normal(size=n)))
    for n, reps in ((2, 8), (3, 8), (4, 3)):
        for _ in range(reps):
            funcs.append(GridFunction(2, n, rng.normal(size=n * n)))
    assert len(funcs) == 100
    worst = 0.0
    for f in funcs:
        for p in (1.5, 3.0):
            worst = max(worst, abs(jn_norm(f, p) - brute_jn(f, p)))
        for p in (2.0, math.inf):
            worst = max(worst, abs(gp_norm(f, p) - brute_gp(f, p)))
        ts = rng.uniform(0.05, 0.999, size=3)
        ts.sort()
        worst = max(worst, float(np.max(np.abs(
            f_sharp_curve(f, ts) - brute_f_sharp(f, ts, None)
        ))))
        if f.dim == 1 and f.res <= 6:
            est1 = garo_norm(f, lp(1))
            worst = max(worst, abs(est1.exact - garo_l1_exact_oracle(f)))
            esti = garo_norm(f, lp(math.inf))
            worst = max(worst, abs(esti.exact - garo_linf_exact_oracle(f)))
    # LP hand solution: half indicator on two cells
    est = garo_norm(GridFunction(1, 2, [1.0, 0.0]), lp(1))
    worst = max(worst, abs(est.exact - 0.5))
    _report(1, worst <= 1e-9,
            f"jn/gp/F/garo vs exhaustive oracles on 100 functions, "
            f"max |diff| = {worst:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# criterion 2: exact inequalities over the corpus

def test_criterion_2_exact_inequalities(corpus, battery):
    failures = []

    def checkmark(label, ok):
        if not ok:
            failures.append(label)

    sandwich_worst = 0.0
    for e in corpus:
        table = CubeTable(e.f)
        intosc = table.meas * table.osc
        sandwich_worst = max(
            sandwich_worst,
            float(np.max(intosc - table.do, initial=0.0)) / e.scale,
            float(np.max(table.do - 2 * intosc, initial=0.0)) / e.scale,
        )
    checkmark("sandwich", sandwich_worst <= EXACT_TOL)

    gp_worst = 0.0
    for e in corpus[:: 6]:
        g2, j2 = gp_norm(e.f, 2.0), jn_norm(e.f, 2.0)
        if j2 > 0:
            gp_worst = max(gp_worst, g2 / j2)
    checkmark("gp<=2jn", gp_worst <= 2 * (1 + NORM_TOL))

    dil_worst = 0.0
    for e in corpus[:: 10]:
        for s in (0.5, 2.0):
            for x in battery:
                base = norm(x, e.prof)
                if base > 0:
                    dil_worst = max(
                        dil_worst, norm(x, dilate(e.prof, s)) / base / max(1, s)
                    )
    checkmark("dilation", dil_worst <= 1 + NORM_TOL)

    contraction_ok = True
    by_grid = {}
    for e in corpus:
        by_grid.setdefault((e.f.dim, e.f.res), []).append(e)
    for (d, n), group in by_grid.items():
        for e1, e2 in zip(group, group[1:]):
            lhs = np.abs(
                np.sort(np.abs(e1.f.values)) - np.sort(np.abs(e2.f.values))
            ).mean()
            rhs = np.abs(e1.f.values - e2.f.values).mean()
            contraction_ok &= lhs <= rhs + EXACT_TOL * max(e1.scale, e2.scale)
    checkmark("l1-contraction", contraction_ok)

    hlpc_ok = True
    for (d, n), group in by_grid.items():
        for e1, e2 in zip(group, group[1:]):
            if hlpc_dominates(e1.prof, e2.prof):
                for x in battery:
                    hlpc_ok &= norm(x, e1.prof) <= norm(x, e2.prof) + NORM_TOL
    checkmark("hlpc-monotone", hlpc_ok)

    med_ok = True
    for e in corpus[:: 4]:
        f = e.f
        m = median(f)
        prof_m = rearrange(f.with_values(f.values - m))
        cands = np.unique(np.concatenate([f.values, [f.mean()]]))
        if cands.size > 40:
            cands = cands[:: cands.size // 40 + 1]
        cands = np.concatenate([cands, (cands[1:] + cands[:-1]) / 2])
        n = f.ncells
        ts = np.arange(1, n + 1) / n
        ts = ts[ts < 0.5]
        if ts.size:
            best = np.full(ts.size, np.inf)
            best_norm = [math.inf] * len(battery)
            for c in cands:
                pc = rearrange(f.with_values(f.values - c))
                best = np.minimum(best, pc.sample(ts))
                for i, x in enumerate(battery):
                    best_norm[i] = min(best_norm[i], norm(x, pc))
            med_ok &= bool(np.all(
                prof_m.sample(ts) <= 2 * best + EXACT_TOL * e.scale
            ))
            for i, x in enumerate(battery):
                med_ok &= norm(x, prof_m) <= 4 * best_norm[i] + NORM_TOL
    checkmark("median-2-and-4", med_ok)

    garo4_worst = 0.0
    rng = np.random.default_rng(33)
    for n in (4, 8, 12, 16):
        for _ in range(3):
            f = GridFunction(1, n, rng.normal(size=n))
            for space in (lp(1), lp(math.inf)):
                est = garo_norm(f, space)
                base = grid_norm(space, f)
                if base > 0:
                    garo4_worst = max(garo4_worst, est.exact / base)
    checkmark("garo-embedding-4x", garo4_worst <= 4 * (1 + NORM_TOL))

    k_ok = True
    endpoint_ok = True
    flower_ok = True
    for e in corpus:
        for m, vals in e.k.items():
            k_ok &= bool(np.all(np.diff(vals) >= 0))  # running max: exact
            ratios = vals / e.ts
            rscale = max(1.0, float(ratios.max(initial=0.0)))
            k_ok &= bool(np.all(np.diff(ratios) <= EXACT_TOL * rscale))
        k1 = k_l1_linf(e.f0, np.array([1.0])).values[0]
        endpoint_ok &= abs(k1 - e.l1_mean_zero) <= EXACT_TOL * max(1, e.scale)
        fcurve0 = f_sharp_curve(e.f0, np.array([e.t_last]))[0]
        flower_ok &= fcurve0 >= e.l1_mean_zero - EXACT_TOL * max(1, e.scale)
    checkmark("K-monotone-antitone", k_ok)
    checkmark("K(1)<=||f||_1", endpoint_ok)
    checkmark("F(1-)>=||f||_1", flower_ok)

    _report(2, not failures,
            f"{len(corpus)} functions; exact-inequality battery "
            f"(failures: {failures or 'none'}; sandwich slack "
            f"{sandwich_worst:.2e}, gp/jn max {gp_worst:.3f}, "
            f"garo 4x max {garo4_worst:.3f})")


# ---------------------------------------------------------------------------
# criterion 3: equivalence-constant boundedness

def test_criterion_3_equivalence_constants(corpus):
    pair_hi = {}
    herz_lo, herz_hi = math.inf, 0.0
    for e in corpus:
        names = list(e.k)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                va, vb = e.k[a], e.k[b]
                mask = (va > 0) & (vb > 0)
                if mask.any():
                    r = max(float(np.max(va[mask] / vb[mask])),
                            float(np.max(vb[mask] / va[mask])))
                    key = f"{a}/{b}"
                    pair_hi[key] = max(pair_hi.get(key, 0.0), r)
        favg = double_star(e.prof).sample(e.ts)
        mvals = rearrange(e.hl).sample(e.ts)
        mask = favg > 0
        if mask.any():
            herz_lo = min(herz_lo, float(np.min(mvals[mask] / favg[mask])))
            herz_hi = max(herz_hi, float(np.max(mvals[mask] / favg[mask])))
    ceiling = {1: 16 * 5.0, 2: 16 * 25.0}
    dmax = max(e.f.dim for e in corpus)
    hard = ceiling[dmax]
    ratios_ok = all(v <= hard for v in pair_hi.values())
    herz_ok = herz_hi <= hard and herz_lo >= 1.0 / hard

    cworst = 0.0
    for e in corpus[:: 7]:
        f = e.f
        if f.ncells > 256:
            continue  # keep the 1D rearranged grid within the full-cube guard
        fstar_vals = np.sort(np.abs(f.values))[::-1]
        fstar = GridFunction(1, f.ncells, fstar_vals)
        lhs = double_star(rearrange(local_maximal(fstar, S_DEFAULT)))
        rhs = double_star(e.mloc_prof)
        tg = np.geomspace(1e-2, 1.0, 17)
        denom = rhs.sample(tg)
        mask = denom > 0
        if mask.any():
            cworst = max(cworst, float(np.max(lhs.sample(tg)[mask] / denom[mask])))

    ok = ratios_ok and herz_ok
    _report(3, ok,
            f"K-route ratios {pair_hi} <= {hard}; Herz ratio in "
            f"[{herz_lo:.3f}, {herz_hi:.3f}]; rearranged-local C = {cworst:.3f}")


# ---------------------------------------------------------------------------
# criterion 4: pointwise lemma bounds

def test_criterion_4_pointwise_bounds(corpus):
    stro_worst = {1: 0.0, 2: 0.0}
    equ_worst = 0.0
    for e in corpus:
        mask = e.sharp.values > 0
        if mask.any():
            stro_worst[e.f.dim] = max(
                stro_worst[e.f.dim],
                float(np.max(e.hl_of_local.values[mask] / e.sharp.values[mask])),
            )
        equ_worst = max(equ_worst, equ103_max_ratio(e.f, e.mloc))
    stro_ok = all(
        stro_worst[d] <= 2 * 8.0**d / S_DEFAULT * (1 + NORM_TOL)
        for d in stro_worst
    )
    equ_ok = equ_worst <= 8.0 * (1 + NORM_TOL)

    sweep = np.linspace(0.05, 0.95, 20)
    sub = corpus[:: 12]
    s0 = 0.0
    for sv in sweep:
        worst = max(
            equ103_max_ratio(e.f, local_maximal(e.f, float(sv))) for e in sub
        )
        if worst <= 8.0 * (1 + NORM_TOL):
            s0 = float(sv)
    ok = stro_ok and equ_ok
    _report(4, ok,
            f"M(M#_s f) <= (2*8^d/s) f#: measured {stro_worst} vs bounds "
            f"{{1: {2 * 8 / S_DEFAULT:.0f}, 2: {2 * 64 / S_DEFAULT:.0f}}}; "
            f"factor-8 oscillation bound: measured {equ_worst:.3f}; "
            f"empirical s0 = {s0:.3f} (20-point sweep)")


# ---------------------------------------------------------------------------
# criterion 5: oscillation inequality

def test_criterion_5_oscillation_inequality(corpus):
    c_worst = 0.0
    for e in corpus:
        n = e.f.ncells
        ts = (np.arange(1, n + 1) / n)
        ts = ts[ts < 1 / 6]
        if not ts.size:
            continue
        gap = double_star(e.prof).sample(ts) - e.prof.sample(ts)
        denom = e.sharp_prof.sample(ts)
        mask = denom > 0
        if mask.any():
            c_worst = max(c_worst, float(np.max(gap[mask] / denom[mask])))
    # the ceiling 100 is a sanity bound for d <= 2, not a stated constant
    _report(5, c_worst <= 100.0,
            f"f**(t)-f*(t) <= c (f#)*(t) for t < 1/6: measured c = "
            f"{c_worst:.3f} (sanity ceiling 100)")


# ---------------------------------------------------------------------------
# criterion 6: Fefferman-Stein regime

def test_criterion_6_fefferman_stein(corpus):
    consts = {}
    for space, label in ((lp(2), "L2"), (lp(3), "L3")):
        c1 = c2 = 0.0
        for e in corpus[:: 3]:
            f = e.f
            sharp_n = norm(space, e.sharp_prof)
            cands = np.unique(np.concatenate([f.values, [f.mean()]]))
            if cands.size > 30:
                cands = cands[:: cands.size // 30 + 1]
            infc = min(
                norm(space, rearrange(f.with_values(f.values - c)))
                for c in cands
            )
            if sharp_n > 0:
                c1 = max(c1, infc / sharp_n)
            upper = 16.0 * norm(space, e.mloc_prof)
            if upper > 0:
                c2 = max(c2, sharp_n / upper)
        consts[label] = (c1, c2)
    reg_ok = all(
        0 < c1 < math.inf and 0 < c2 < math.inf for c1, c2 in consts.values()
    )

    l1 = lp(1)
    seq = []
    for k in range(2, 9):
        f = generate("logspike", 1, 2**14, a=2.0**-k)
        seq.append(
            grid_norm(l1, sharp_maximal(f, cube_mode="dyadic")) / grid_norm(l1, f)
        )
    grow_ok = all(b > a for a, b in zip(seq, seq[1:]))
    _report(6, reg_ok and grow_ok,
            f"inf_c||f-c||_X <= C||f#||_X and ||f#||_X <= C'||f||_GaRo-upper: "
            f"{ {k: (round(a, 3), round(b, 3)) for k, (a, b) in consts.items()} }; "
            f"L1 failure mechanism ||f#||_1/||f||_1 = "
            f"{[round(v, 2) for v in seq]} strictly increasing")


# ---------------------------------------------------------------------------
# criterion 7: blow-up of the zero-lower-index space

def test_criterion_7_blowup():
    rep = run_suite("blowup", {"seed": 0})
    checks = {c["name"]: c for c in rep["checks"]}
    blow = checks["logslow-blowup"]
    band = checks["l2-stable-band"]
    ok = blow["status"] == "pass" and band["status"] == "pass"
    _report(7, ok,
            f"log-slow ratio growth {blow['measured_constant']['growth']:.2f}x "
            f"(monotone, >3x); L2 band {band['measured_constant']['band']:.3f} (<2)")


# ---------------------------------------------------------------------------
# criterion 8: Morrey chain

def test_criterion_8_morrey_chain():
    alpha, p = 0.75, 4.0
    lam = 1.0 / p - alpha
    rng = np.random.default_rng(88)
    kinds = ["cosine_mix", "random_steps", "logspike", "indicator", "checkerboard"]
    worst = 0.0
    violations = 0
    for i in range(50):
        n = int(rng.choice([16, 24, 32, 48]))
        f = generate(kinds[i % len(kinds)], 1, n, seed=900 + i)
        sob = sobolev_seminorm(f, alpha, p)
        camp = campanato_norm(f, lam)
        if sob > 0:
            ratio = camp / sob
            worst = max(worst, ratio)
            if ratio > 1 + EXACT_TOL:
                violations += 1
        elif camp > EXACT_TOL:
            violations += 1
    _report(8, violations == 0,
            f"campanato(d/p - alpha) <= C sobolev(alpha,p), 50 functions: "
            f"C = {worst:.4f} (discrete bound 1 in 1D), violations = {violations}")


# ---------------------------------------------------------------------------
# criterion 9: refinement stability

def _functional_panel(f: GridFunction) -> dict:
    out = {}
    prof = rearrange(f)
    out["L1"] = norm(lp(1), prof)
    out["L2"] = norm(lp(2), prof)
    out["Linf"] = norm(lp(math.inf), prof)
    out["weakL2"] = norm(weak_lp(2), prof)
    out["M(log-slow)"] = norm(marcinkiewicz(phi_preset("log-slow")), prof)
    sharp = sharp_maximal(f)
    out["BMO"] = float(np.max(sharp.values))
    out["sharp-L1"] = norm(lp(1), rearrange(sharp))
    mloc = local_maximal(f, S_DEFAULT)
    out["local-L1"] = norm(lp(1), rearrange(mloc))
    out["hl-L1"] = norm(lp(1), rearrange(hl_maximal(f)))
    out["jn(2)"] = jn_norm(f, 2.0)
    out["gp(2)"] = gp_norm(f, 2.0)
    out["garo-upper-L1"] = garo_norm(f, lp(1), s=S_DEFAULT).upper
    out["garo-upper-L2"] = garo_norm(f, lp(2), s=S_DEFAULT).upper
    out["campanato(-0.5)"] = campanato_norm(f, -0.5)
    out["sobolev(0.75,4)"] = sobolev_seminorm(f, 0.75, 4.0)
    from oscilab import oscillation_gap

    out["Linf-inf-gap"] = oscillation_gap(f)[1]
    f0 = f.with_values(f.values - f.mean())
    sharp_prof = rearrange(sharp)
    for t in (0.25, 0.75):
        out[f"K-BS({t})"] = t * sharp_prof.value_at(t)
        out[f"K-JT({t})"] = rearrange(mloc).integral_to(np.array([t]))[0]
    out["F(0.5)"] = f_sharp_profile(f0, 0.5)
    return out


def test_criterion_9_refinement_stability():
    coarse = _functional_panel(generate("cosine_mix", 1, 64, seed=0))
    fine = _functional_panel(generate("cosine_mix", 1, 128, seed=0))
    rel = {
        k: abs(fine[k] - coarse[k]) / max(abs(coarse[k]), 1e-12)
        for k in coarse
    }
    worst_key = max(rel, key=rel.get)
    ok = all(v < 0.02 for v in rel.values())
    _report(9, ok,
            f"N 64 -> 128: max relative change {rel[worst_key]:.4f} "
            f"({worst_key}); all {len(rel)} functionals < 2%")
