"""Verification suites behind the `verify` subcommand.

Each suite runs a battery of checks at desk scale, reports one entry per
check (pass/fail plus the measured constant), and is sized to finish in
well under five minutes.  The pytest acceptance module runs the same
mathematics at the full stated scales; the suites are the packaged,
machine-readable front door.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError
from .functionals import (
    GARO_EXACT_GUARD_2D,
    campanato_norm,
    gamma_membership,
    garo_norm,
    garo_p_lambda,
    gp_norm,
    jn_norm,
    sobolev_seminorm,
)
from .generators import generate
from .grid import Cube, CubeTable, GridFunction, enumerate_cubes
from .kfunctional import (
    equivalence_report,
    f_sharp_curve,
    k_l1_bmo,
    k_l1_linf,
    vitali_threshold_estimate,
)
from .maximal import (
    DEFAULT_S,
    hl_maximal,
    local_maximal,
    local_maximals,
    quantile_oscillation,
    sharp_maximal,
)
from .packing import union_measure, vitali_select
from .rearrange import (
    distribution,
    double_star,
    hlpc_dominates,
    median,
    rearrange,
)
from .report import check, suite_report
from .spaces import (dilation_norm_estimate, grid_norm, lp, marcinkiewicz, norm,
                     phi_preset, weak_lp)

_CORPUS_PER_GRID = 3  # functions of each grid size in _corpus

__all__ = ["SUITE_IDS", "run_suite"]


def _corpus(seed: int, n_1d, n_2d) -> list:
    """Deterministic mixed corpus of grid functions."""
    out = []
    kinds = ["random_steps", "cosine_mix", "indicator", "logspike", "checkerboard"]
    i = 0
    for d, sizes in ((1, n_1d), (2, n_2d)):
        for n in sizes:
            for j in range(_CORPUS_PER_GRID):
                kind = kinds[(i + j) % len(kinds)]
                params = {}
                if kind == "logspike":
                    params["a"] = 0.25 if j % 2 == 0 else 0.0625
                if kind == "checkerboard":
                    params["period"] = 1 + (n // 8) * (j % 2)
                out.append(generate(kind, d, n, seed=seed + i + j, **params))
            i += _CORPUS_PER_GRID
    return out


def _spaces_battery():
    return [lp(1), lp(2), lp(math.inf), weak_lp(2)]


# ---------------------------------------------------------------------------
# rearr suite

def _sandwich_worst(f: GridFunction) -> tuple:
    table = CubeTable(f)
    intosc = table.meas * table.osc
    return (max(0.0, float(np.max(intosc - table.do))),
            max(0.0, float(np.max(table.do - 2 * intosc))))


def _abs_diff_parts(x: np.ndarray, y: np.ndarray) -> tuple:
    """|x - y| elementwise and exactly, as two float arrays summing to it:
    the TwoSum s + e = x - y, negated where s < 0 (|e| <= ulp(s)/2, so s
    carries the sign and s = 0 forces e = 0).  math.fsum over the parts of
    two such sums compares them exactly, whatever order numpy would add in."""
    s = x - y
    z = s - x
    e = (x - (s - z)) - (y + z)
    sign = np.where(s < 0, -1.0, 1.0)
    return s * sign, e * sign


def suite_rearr(seed: int, s: float) -> list:
    corpus = _corpus(seed, n_1d=(8, 16, 32), n_2d=(6, 8, 12))
    profiles = [rearrange(f) for f in corpus]  # read by four checks
    checks = []

    worst = 0.0
    for lo, hi in map(_sandwich_worst, corpus):
        worst = max(worst, lo, hi)
    checks.append(check(
        "oscillation-sandwich",
        "int_Q|f-f_Q| <= (1/|Q|)iint|f(x)-f(y)| <= 2 int_Q|f-f_Q|",
        worst <= 1e-12, measured=worst, tolerance=1e-12,
    ))

    ok = True
    for f, prof in zip(corpus, profiles):
        for t in np.unique(np.abs(f.values)):
            lhs = distribution(f, float(t))
            rhs = float(np.count_nonzero(prof.sample(
                (np.arange(f.ncells) + 0.5) / f.ncells) > t)) / f.ncells
            ok &= abs(lhs - rhs) == 0.0
    checks.append(check(
        "equimeasurability", "|{|f|>t}| = |{f*>t}| for all t", ok, tolerance=0.0,
    ))

    contraction_excess = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(4, 64))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        lhs = _abs_diff_parts(np.sort(np.abs(a))[::-1], np.sort(np.abs(b))[::-1])
        rhs = _abs_diff_parts(a, b)
        excess = math.fsum(np.concatenate(lhs + tuple(-r for r in rhs)).tolist())
        contraction_excess = max(contraction_excess, excess / n)
    checks.append(check(
        "rearrangement-L1-contraction", "||f*-g*||_1 <= ||f-g||_1",
        contraction_excess <= 0.0, measured=contraction_excess, tolerance=0.0,
    ))

    # reference from the cells alone: with v the |f| cells sorted
    # descending, t*f**(t) = sum of the first j = floor(t*m) cells, each of
    # measure 1/m, plus (t - j/m) of the next one
    worst = 0.0
    for f, prof in zip(corpus[:12], profiles[:12]):
        ts = np.union1d(prof.breakpoints[1:], np.geomspace(1e-3, 1, 37))
        v, m = np.sort(np.abs(f.values))[::-1], f.ncells
        ref = []
        for t in ts.tolist():
            j = min(int(t * m), m)
            head = math.fsum(v[:j].tolist()) / m
            ref.append((head if j == m else head + (t - j / m) * v[j]) / t)
        worst = max(worst, float(np.max(np.abs(double_star(prof).sample(ts) - ref))))
    checks.append(check(
        "double-star-is-hardy-P", "f** = P f* at all evaluation points",
        worst <= 1e-12, measured=worst, tolerance=1e-12,
    ))

    battery = _spaces_battery()
    viol = 0.0
    for g1 in profiles[:10]:
        for g2 in profiles[:10]:
            if hlpc_dominates(g1, g2):
                for x in battery:
                    viol = max(viol, norm(x, g1) - norm(x, g2))
    checks.append(check(
        "majorization-monotonicity",
        "int_0^t g1* <= int_0^t g2* for all t implies ||g1||_X <= ||g2||_X",
        viol <= 1e-9, measured=viol, tolerance=1e-9,
    ))

    worst_ratio = max(dilation_norm_estimate(x, r, profiles[:12]) / max(1.0, r)
                      for r in (1 / 3, 0.5, 1.0, 2.0, 3.0) for x in battery)
    checks.append(check(
        "dilation-bound", "||sigma_s||_{X->X} <= max(1, s)",
        worst_ratio <= 1 + 1e-9, measured=worst_ratio, tolerance=1e-9,
    ))

    worst2 = worst4 = 0.0
    for f in corpus:
        m = median(f)
        shifted = f.with_values(f.values - m)
        prof_m = rearrange(shifted)
        cands = np.unique(np.concatenate([f.values, [f.mean()]]))
        mids = (cands[1:] + cands[:-1]) / 2 if cands.size > 1 else np.array([])
        cands = np.concatenate([cands, mids])
        # breakpoints strictly below 1/2 cover all t < 1/2; the boundary
        # point itself is convention-dependent for atoms of mass exactly 1/2
        ts = (np.arange(1, f.ncells + 1) / f.ncells)
        ts = ts[ts < 0.5]
        if ts.size:
            best = np.full(ts.size, np.inf)
            best_norms = {i: math.inf for i in range(len(battery))}
            for c in cands:
                pc = rearrange(f.with_values(f.values - c))
                best = np.minimum(best, pc.sample(ts))
                for i, x in enumerate(battery):
                    best_norms[i] = min(best_norms[i], norm(x, pc))
            worst2 = max(worst2, float(np.max(prof_m.sample(ts) - 2 * best)))
            for i, x in enumerate(battery):
                worst4 = max(worst4, norm(x, prof_m) - 4 * best_norms[i])
    checks.append(check(
        "median-rearrangement-factor-2",
        "(f - median)*(t) <= 2 inf_c (f-c)*(t) for t <= 1/2",
        worst2 <= 1e-12, measured=worst2, tolerance=1e-12,
    ))
    checks.append(check(
        "median-norm-factor-4", "||f - median||_X <= 4 inf_c ||f-c||_X",
        worst4 <= 1e-9, measured=worst4, tolerance=1e-9,
    ))
    return checks


# ---------------------------------------------------------------------------
# maximal suite

def equ103_max_ratio(
    f: GridFunction, mloc: GridFunction, table: CubeTable | None = None
) -> float:
    """max over cubes of int_Q|f-f_Q| / int_Q M#_s f (0/0 counts as 0).
    table, f's CubeTable, lets a sweep over s build its oscillations once."""
    table = CubeTable(f) if table is None else table
    lhs = table.meas * table.osc
    rhs = CubeTable(mloc).sum
    mask = lhs > 0
    with np.errstate(divide="ignore"):
        ratios = np.where(rhs[mask] > 0, lhs[mask] / rhs[mask], np.inf)
    return float(np.max(ratios, initial=0.0))  # ratios are > 0


def _herz_bounds(f: GridFunction) -> tuple:
    prof = rearrange(f)
    mprof = rearrange(hl_maximal(f))
    ts = np.geomspace(f.cell_measure, 1.0, 33)
    favg = double_star(prof).sample(ts)
    ratios = mprof.sample(ts) / favg
    return float(ratios.min()), float(ratios.max())


def suite_maximal(seed: int, s: float) -> list:
    corpus = _corpus(seed, n_1d=(16, 32, 64), n_2d=(8, 12, 16))
    checks = []

    ok = True
    for f in corpus:
        mf = hl_maximal(f)
        ok &= bool(np.all(mf.values >= np.abs(f.values) - 1e-12))
    checks.append(check(
        "hl-dominates", "M f >= |f| pointwise", ok, tolerance=1e-12))

    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(60):
        m = int(rng.integers(1, 24))
        vals = rng.normal(size=m)
        f = GridFunction(1, m, vals)
        q = Cube((0,), m)
        sq = float(rng.uniform(0.05, 0.95))
        got = quantile_oscillation(f, q, sq)
        kexc = max(math.ceil(sq * m - 1e-9) - 1, 0)
        cands = np.concatenate([vals, (np.sort(vals)[1:] + np.sort(vals)[:-1]) / 2]) \
            if m > 1 else vals
        best = math.inf
        for c in cands:
            dev = np.sort(np.abs(vals - c))[::-1]
            best = min(best, dev[kexc])
        worst = max(worst, got - best)
    checks.append(check(
        "quantile-oscillation-oracle",
        "window formula equals brute force over candidate constants",
        worst <= 1e-12, measured=worst, tolerance=1e-12,
    ))

    # every M#_s f the checks below read, one local_maximals call per grid:
    # s itself, 0.1 and 0.3 on the first nine, the s0 sweep on every third
    sweep = [float(sv) for sv in np.linspace(0.05, 0.95, 20)]

    def mlocs_for(i):
        svals = [s] + ([0.1, 0.3] if i < 9 else []) + (sweep if i % 3 == 0 else [])
        return dict(zip(svals, local_maximals(corpus[i], svals)))

    mlocs = [mlocs_for(i) for i in range(len(corpus))]
    tables = [CubeTable(f) for f in corpus]

    ok = True
    for ml in mlocs[:9]:
        ok &= bool(np.all(ml[0.1].values >= ml[0.3].values - 1e-12))
    checks.append(check(
        "monotone-in-s", "s1 <= s2 implies M#_{s1} f >= M#_{s2} f", ok,
        tolerance=1e-12,
    ))

    worsts = {1: 0.0, 2: 0.0}
    for f, ml in zip(corpus, mlocs):
        mm = hl_maximal(ml[s])
        msharp = sharp_maximal(f)
        mask = msharp.values > 0
        if mask.any():
            worsts[f.dim] = max(
                worsts[f.dim], float(np.max(mm.values[mask] / msharp.values[mask]))
            )
    ok = all(worsts[d] <= 2.0 * 8.0**d / s * (1 + 1e-9) for d in worsts)
    checks.append(check(
        "hl-of-local-bound", "M(M#_s f) <= (2*8^d/s) f# pointwise",
        ok, measured=worsts, tolerance=f"2*8^d/s at s={s}",
    ))

    worst = max(equ103_max_ratio(f, ml[s], table)
                for f, ml, table in zip(corpus, mlocs, tables))
    checks.append(check(
        "oscillation-vs-local-integral",
        "int_Q|f-f_Q| <= 8 int_Q M#_s f for every cube",
        worst <= 8.0 * (1 + 1e-9), measured=worst, tolerance=8.0,
    ))

    s0 = 0.0
    sub = range(0, len(corpus), 3)
    for sv in sweep:
        worst = max(equ103_max_ratio(corpus[i], mlocs[i][sv], tables[i]) for i in sub)
        if worst <= 8.0 * (1 + 1e-9):
            s0 = sv
    checks.append(check(
        "empirical-s0", "largest s passing the factor-8 oscillation bound",
        "info", measured=s0,
    ))

    lo, hi = math.inf, 0.0
    for f in corpus:
        f0 = f.with_values(np.abs(f.values) + 0.1)  # keep f** positive
        a, b = _herz_bounds(f0)
        lo, hi = min(lo, a), max(hi, b)
    ceiling = 16.0 * 5.0 ** max(f.dim for f in corpus)
    checks.append(check(
        "herz-equivalence", "(Mf)*(t) ~ f**(t) with bounded ratio",
        bool(hi <= ceiling and lo >= 1.0 / ceiling),
        measured={"min": lo, "max": hi}, tolerance=ceiling,
    ))
    return checks


# ---------------------------------------------------------------------------
# garo suite

def suite_garo(seed: int, s: float) -> list:
    checks = []
    corpus = _corpus(seed, n_1d=(8, 12, 16), n_2d=(4, 6, 8))

    ok0 = ok4 = oksharp = True
    for f in corpus:
        member4, _, _ = gamma_membership(f, f.with_values(4 * np.abs(f.values)))
        ok4 &= member4
        membersharp, _, _ = gamma_membership(
            f, f.with_values(2 * sharp_maximal(f).values))
        oksharp &= membersharp
        if np.ptp(f.values) > 0:
            member0, _, _ = gamma_membership(f, f.with_values(0 * f.values))
            ok0 &= not member0
    checks.append(check(
        "admissible-4|f|", "4|f| is an admissible majorant of f", ok4))
    checks.append(check(
        "admissible-2-sharp", "2 f# is an admissible majorant of f", oksharp))
    checks.append(check(
        "zero-not-admissible", "0 is inadmissible for nonconstant f", ok0))

    tiny = [f for f in corpus if f.dim == 1 or f.res <= GARO_EXACT_GUARD_2D]
    bracket = 0.0
    factor4 = 0.0
    lower_ok = True
    for f in tiny:
        for space in (lp(1), lp(math.inf)):
            est = garo_norm(f, space, s=s)
            if est.upper > 0:
                bracket = max(bracket, est.exact / est.upper)
            lower_ok &= est.lower <= est.exact
            fnorm = grid_norm(space, f)
            if fnorm > 0:
                factor4 = max(factor4, est.exact / fnorm)
    checks.append(check(
        "exact-below-upper",
        "certified lower bound <= best packing <= 16 ||M#_s f||_X",
        bool(lower_ok and bracket <= 1 + 1e-9), measured=bracket,
    ))
    checks.append(check(
        "embedding-factor-4", "exact GaRo norm <= 4 ||f||_X",
        factor4 <= 4 * (1 + 1e-9), measured=factor4, tolerance=4.0,
    ))

    worst = 0.0
    for f in corpus:
        for p in (1.5, 2.0, 4.0):
            g = gp_norm(f, p)
            j = jn_norm(f, p)
            if j > 0:
                worst = max(worst, g / j)
            else:
                worst = max(worst, 1.0 if g > 1e-12 else 0.0)
    checks.append(check(
        "gp-below-2jn", "||f||_{G_p} <= 2 ||f||_{JN_p}",
        worst <= 2 * (1 + 1e-9), measured=worst, tolerance=2.0,
    ))
    return checks


# ---------------------------------------------------------------------------
# kfun suite

def suite_kfun(seed: int, s: float) -> list:
    checks = []
    corpus = _corpus(seed, n_1d=(8, 16, 32), n_2d=(6, 8))
    ts = np.geomspace(1e-3, 1.0, 25)

    # profile invariants are validated by the KProfile constructor
    ratio_hi = {}
    sample_report = None
    for fid, f in enumerate(corpus):
        profs = {
            "BS": k_l1_bmo(f, ts, method="BS", s=s),
            "JT": k_l1_bmo(f, ts, method="JT", s=s),
            "PACK": k_l1_bmo(f, ts, method="PACK", s=s),
        }
        if sample_report is None:
            sample_report = equivalence_report(profs, f"corpus-{fid}")
        for a in profs:
            for b in profs:
                if a >= b:
                    continue
                va, vb = profs[a].values, profs[b].values
                mask = (va > 0) & (vb > 0)
                if mask.any():
                    r = max(float(np.max(va[mask] / vb[mask])),
                            float(np.max(vb[mask] / va[mask])))
                    key = f"{a}/{b}"
                    ratio_hi[key] = max(ratio_hi.get(key, 0.0), r)
    dmax = max(f.dim for f in corpus)
    ceiling = 16.0 * 5.0**dmax
    checks.append(check(
        "k-route-equivalence",
        "pairwise K-route ratios bounded by the synthesized constant",
        all(v <= ceiling for v in ratio_hi.values()),
        measured={"worst": ratio_hi, "sample": sample_report},
        tolerance=ceiling,
    ))

    ok_k1 = True
    worst_f1 = 0.0
    for f in corpus:
        f0 = f.with_values(f.values - f.mean())
        l1 = float(np.abs(f0.values).mean())
        kl = k_l1_linf(f0, np.array([1.0])).values[0]
        ok_k1 &= abs(kl - l1) <= 1e-12 * max(1, l1)
        kp = k_l1_bmo(f, np.array([1.0]), method="PACK", s=s).values[0]
        ok_k1 &= kp <= 2 * l1 * (1 + 1e-9) + 1e-15
        tlast = 1.0 - 0.5 * f.cell_measure
        fl = f_sharp_curve(f0, np.array([tlast]))[0]
        worst_f1 = max(worst_f1, l1 - fl)
    checks.append(check(
        "endpoint-identities",
        "K(1;L1,Linf) = ||f||_1 and F(t) >= ||f||_1 just below t=1 (mean-zero)",
        bool(ok_k1 and worst_f1 <= 1e-12), measured=worst_f1, tolerance=1e-12,
    ))

    worst = -math.inf
    rng = np.random.default_rng(seed + 7)
    for f in corpus:
        if f.dim == 2 and f.res > 6:
            continue
        d = f.dim
        sharp_star = rearrange(sharp_maximal(f))
        for _ in range(3):
            t = float(rng.uniform(0.2, 1.0)) * 5.0**-d
            est = vitali_threshold_estimate(f, t)
            target = sharp_star.value_at(min(5.0**d * t, 1.0))
            worst = max(worst, target - est)
    checks.append(check(
        "vitali-witness", "(f#)*(5^d t) <= witness estimate for t <= 5^-d",
        worst <= 1e-12, measured=worst, tolerance=1e-12,
    ))

    factor = 0.0
    for f in corpus[:8]:
        cubes = enumerate_cubes((f.dim, f.res))
        rich = [q for q in cubes if q.side > 1][:200]
        sel = vitali_select(rich, (f.dim, f.res))
        tot = 0.0  # left to right: built-in sum() compensates since 3.12
        for q in sel:
            tot += q.measure(f.res)
        if tot > 0:
            factor = max(factor, union_measure(rich, (f.dim, f.res)) / tot)
    checks.append(check(
        "vitali-coverage", "|union| <= 5^d * sum of selected measures",
        factor <= 5.0**dmax, measured=factor, tolerance=5.0**dmax,
    ))

    # rearranged local maximal comparison, measured constant only
    cworst = 0.0
    for f in corpus:
        if f.dim != 2:
            continue
        fstar = GridFunction(1, f.ncells, np.sort(np.abs(f.values))[::-1])
        lhs = double_star(rearrange(local_maximal(fstar, s)))
        rhs = double_star(rearrange(local_maximal(f, s)))
        tg = np.geomspace(1e-2, 1.0, 17)
        denom = rhs.sample(tg)
        mask = denom > 0
        if mask.any():
            cworst = max(cworst, float(np.max(lhs.sample(tg)[mask] / denom[mask])))
    checks.append(check(
        "rearranged-local-maximal",
        "(M#_s f*)** <= C (M#_s f)**, measured C", "info", measured=cworst,
    ))
    return checks


# ---------------------------------------------------------------------------
# morrey suite

def suite_morrey(seed: int, s: float) -> list:
    checks = []
    alpha, p = 0.75, 4.0
    lam = 1.0 / p - alpha
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    for i in range(50):
        n = int(rng.choice([16, 24, 32]))
        kind = ["cosine_mix", "random_steps", "logspike", "indicator"][i % 4]
        f = generate(kind, 1, n, seed=seed + i)
        sob = sobolev_seminorm(f, alpha, p)
        camp = campanato_norm(f, lam)
        if sob > 0:
            ratio = camp / sob
            worst = max(worst, ratio)
            if ratio > 1 + 1e-12:
                violations += 1
        elif camp > 1e-12:
            violations += 1
    checks.append(check(
        "morrey-chain",
        "campanato(f, d/p - alpha) <= C sobolev(f, alpha, p) for p > d/alpha; "
        "discrete C = 1 in 1D",
        violations == 0, measured={"C": worst, "violations": violations},
        tolerance=1.0,
    ))

    worstlo, worsthi = math.inf, 0.0
    for i in range(10):
        f = generate("random_steps", 1, 24, seed=seed + 100 + i)
        lamv = -0.4
        g = garo_p_lambda(f, math.inf, lamv)
        c = campanato_norm(f, lamv)
        if c > 0:
            worstlo = min(worstlo, g / c)
            worsthi = max(worsthi, g / c)
    checks.append(check(
        "campanato-bracket",
        "single-cube GaRo_{inf,lambda} sits in [1,2] * campanato norm",
        bool(worstlo >= 1 - 1e-9 and worsthi <= 2 + 1e-9),
        measured={"min": worstlo, "max": worsthi}, tolerance="[1,2]",
    ))

    ok = True
    for i in range(6):
        f = generate("random_steps", 1, 16, seed=seed + 200 + i)
        bmo = float(CubeTable(f).osc.max(initial=0.0))
        ok &= abs(campanato_norm(f, -1e-12) - bmo) <= 1e-9 * max(1, bmo)
    checks.append(check(
        "campanato-bmo-limit", "lambda -> 0 recovers the BMO supremum", ok,
    ))
    return checks


# ---------------------------------------------------------------------------
# blowup suite

def suite_blowup(seed: int, s: float) -> list:
    checks = []
    xlog = marcinkiewicz(phi_preset("log-slow"))

    # resolution scales with the spike: 2^11 cells per spike width 2^-k; a
    # fixed grid would leave the slowly-varying norm floor-dominated and
    # flatten the ratio growth.  Each spike, its median, M#_s f and the two
    # rearrangements once per k, read by both spaces; the centred profile is
    # dropped before M#_s f, so at most two full grids live
    l2 = lp(2)
    ratios, ratios2 = [], []
    for k in range(2, 11):
        f = generate("logspike", 1, 2 ** (k + 11), a=2.0**-k)
        centred = rearrange(f.with_values(f.values - median(f)))
        num, num2 = norm(xlog, centred), norm(l2, centred)
        del centred
        mloc = rearrange(local_maximal(f, s, cube_mode="dyadic"))
        ratios.append(num / norm(xlog, mloc))
        ratios2.append(num2 / norm(l2, mloc))
        del f, mloc

    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    growth = ratios[-1] / ratios[0]
    checks.append(check(
        "logslow-blowup",
        "||f_a - median||_X / ||M#_s f_a||_X grows without bound as a -> 0 "
        "for X = M(log-slow)",
        bool(monotone and growth > 3.0),
        measured={"ratios": [round(r, 4) for r in ratios], "growth": growth},
        tolerance="monotone and >3x",
    ))

    band = max(ratios2) / min(ratios2)
    checks.append(check(
        "l2-stable-band", "the same ratio for X = L2 stays in a factor-2 band",
        band < 2.0, measured={"band": band}, tolerance=2.0,
    ))

    l1 = lp(1)
    growth_seq = []
    for k in range(2, 9):
        f = generate("logspike", 1, 2**14, a=2.0**-k)
        fsharp = sharp_maximal(f, cube_mode="dyadic")
        growth_seq.append(
            grid_norm(l1, fsharp) / grid_norm(l1, f)
        )
    monotone = all(b > a for a, b in zip(growth_seq, growth_seq[1:]))
    checks.append(check(
        "sharp-l1-unbounded",
        "||f#||_1 / ||f||_1 on the logspike family increases without bound "
        "(X subset X# fails for L1)",
        monotone, measured=[round(r, 4) for r in growth_seq],
    ))
    return checks


_SUITES = {
    "rearr": suite_rearr,
    "maximal": suite_maximal,
    "garo": suite_garo,
    "kfun": suite_kfun,
    "morrey": suite_morrey,
    "blowup": suite_blowup,
}
SUITE_IDS = tuple(_SUITES)


def _check_config(config: dict) -> None:
    unknown = ", ".join(sorted(map(repr, set(config) - {"seed", "s"})))
    if unknown:
        raise ConfigError(f"the suites read only the config keys 'seed' and "
                          f"'s', got {unknown}")
    s = config.get("s", DEFAULT_S)
    if isinstance(s, bool) or not isinstance(s, numbers.Real) or not 0 < s < 1:
        raise ConfigError(f"config key 's' must be a number in (0,1), got {s!r}")
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"config key 'seed' must be an integer >= 0, got {seed!r}")


def run_suite(suite_id: str, config: dict | None = None) -> dict:
    """Run one verification suite and return its JSON-ready report.  config
    holds at most seed (default 0) and s (default DEFAULT_S)."""
    if suite_id not in _SUITES:
        raise ConfigError(f"unknown suite {suite_id!r}; choose from {SUITE_IDS}")
    config = dict(config or {})
    _check_config(config)
    config.setdefault("seed", 0)
    checks = _SUITES[suite_id](config["seed"], config.get("s", DEFAULT_S))
    return suite_report(suite_id, config, checks)
