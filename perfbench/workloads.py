"""The four closed-loop workloads: inputs, the ops of one pass, and checks.

Every input grid comes from `oscilab.generate(kind, d, N, seed=...)` with a
seed derived from the benchmark seed and the input set index, so the same
seed gives the same inputs.  Each pass of a run uses the next input set of
a pool built during set-up, which averages the data-dependent cost of the
packing routes over more grids per run.

Ops call the library through module attributes looked up at call time, so
the wrappers installed by `spans.Tracer` see them.  Checks run after a pass,
outside the timed region, and use only relations that hold whether a value
is exact or a certified lower bound, so a 2D value rising to the exact
optimum is never a failure.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import oscilab
import oscilab.cli
import oscilab.functionals as F
import oscilab.kfunctional as K
import oscilab.maximal as M
import oscilab.spaces as S
import oscilab.verify as V
from oscilab.kfunctional import KProfile
from oscilab.report import dump_json

import oracles  # tests/oracles.py, imported by path only

REL = 1e-9
NORM_SPECS = ("lp:1", "lp:2", "weak:2", "marcinkiewicz:log-slow")
K_METHODS = ("L1Linf", "BS", "JT", "PACK", "PACK_P")
P_NORM = 2.0
LAMBDA = -0.3
VITALI_T = 0.02  # below 5^-2, where the witness bound is asserted
# K-profiles of the packing workloads use a fixed log-spaced t-grid, the
# CLI's --points grid: the default grid adds one t per breakpoint of
# (f#)*, whose count varies with the data and widens run-to-run spread.
T_POINTS = 64
LOCAL_S = 0.05  # local_maximal's quantile level s
# the op parameters, exported beside the workload record
PARAMS = {"p": P_NORM, "lambda": LAMBDA, "t_points": T_POINTS,
          "norm_specs": list(NORM_SPECS), "k_methods": list(K_METHODS),
          "vitali_t": VITALI_T, "local_s": LOCAL_S}

# Per workload: the grids of one input set as (d, N, kind, cube mode).  The
# ops of a pass are built from them by `Workload.ops`; `describe()` exports
# both.  Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "pack1d": [(1, n, kind, "full") for n in (32, 64, 128)
               for kind in ("random_steps", "cosine_mix")],
    # one N=8 grid, two of each larger size: with two N=8 grids the median
    # op latency sits in the gap between the N<=16 and N>=24 ops
    "pack2d": [(2, 8, "random_steps", "full")]
    + [(2, n, kind, "full") for n in (16, 24, 32)
       for kind in ("random_steps", "cosine_mix")],
    "operators": [(1, 256, "cosine_mix", "full"), (2, 32, "random_steps", "full"),
                  (2, 48, "cosine_mix", "full"),
                  (2, 512, "random_steps", "dyadic"),
                  (1, 65536, "cosine_mix", "dyadic")],
    "suites": [],
}


def describe(name: str, workdir: str) -> dict:
    """The grids of a workload and the op names of one pass, as run; op
    names are `<op group>/<grid tag>`, their parameters are in PARAMS."""
    wl = Workload(name, 0, workdir, pool=1)
    return {"grids": [{"d": d, "N": n, "kind": kind, "cube_mode": mode}
                      for d, n, kind, mode in wl.grids],
            "ops": [op for op, _, _ in wl.ops(0)]}


def subseed(seed: int, set_index: int) -> int:
    return seed + 7919 * set_index


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckFailure(Exception):
    """An op output violates a relation it must satisfy."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def le(a: float, b: float) -> bool:
    """a <= b up to relative rounding."""
    return a <= b + REL * max(1.0, abs(a), abs(b))


def _finite_nonneg(x: float, what: str) -> None:
    require(math.isfinite(x) and x >= -1e-12, f"{what} = {x} not finite >= 0")


def _revalidate(prof: KProfile) -> KProfile:
    """Rebuild the profile so its invariants are checked again."""
    return KProfile(np.array(prof.t), np.array(prof.values), prof.method)


def _route_ratio(pa: KProfile, pb: KProfile) -> float:
    """Largest ratio either way between two profiles where both are > 0."""
    mask = (pa.values > 0) & (pb.values > 0)
    if not mask.any():
        return 0.0
    r = pa.values[mask] / pb.values[mask]
    return float(max(r.max(), (1.0 / r).max()))


def read_profile_csv(path) -> KProfile:
    """Read a K-profile CSV back and re-validate its invariants."""
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    require(header == "t,value,method", f"bad profile header {header!r}")
    methods = {r[2] for r in rows}
    require(len(methods) == 1, f"mixed method tags {methods}")
    t = np.array([float(r[0]) for r in rows])
    v = np.array([float(r[1]) for r in rows])
    return KProfile(t, v, methods.pop())


class Workload:
    """One workload at one seed: input pool, ops per pass, checks."""

    def __init__(self, name: str, seed: int, workdir: str, pool: int):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.grids = WORKLOADS[name]
        self.sets = [self._make_set(k) for k in range(pool)]
        self._cache: dict = {}

    # -- inputs ---------------------------------------------------------------

    def _make_set(self, k: int) -> list:
        base = subseed(self.seed, k)
        grids = []
        for j, (d, n, kind, mode) in enumerate(self.grids):
            f = oscilab.generate(kind, d, n, seed=base + j)
            path = None
            if self.name == "pack1d":
                path = os.path.join(self.workdir, f"in-{k}-{j}.csv")
                oscilab.write_grid_csv(f, path)
            grids.append({"f": f, "d": d, "n": n, "kind": kind, "mode": mode,
                          "csv": path, "tag": f"d{d}N{n}-{kind}"})
        return grids

    def set_for_pass(self, p: int) -> int:
        return p % len(self.sets)

    # -- ops ------------------------------------------------------------------

    def ops(self, set_index: int) -> list:
        """[(op name, group key, zero-arg callable)] for one pass."""
        build = getattr(self, f"_ops_{self.name}")
        return build(set_index)

    def _ops_pack1d(self, k: int) -> list:
        ops = []
        for j, g in enumerate(self.sets[k]):
            f = g["f"]
            for m in K_METHODS:
                out = os.path.join(self.workdir, f"out-{k}-{j}-{m}.csv")
                argv = ["kprofile", g["csv"], "--method", m,
                        "--points", str(T_POINTS), "--out", out]
                ops.append((f"kprofile.{m}/{g['tag']}", f"kprofile.{m}",
                            _cli_op(argv, out)))
            ops += [
                (f"jn_norm/{g['tag']}", "jn_norm",
                 lambda f=f: F.jn_norm(f, P_NORM)),
                (f"gp_norm/{g['tag']}", "gp_norm",
                 lambda f=f: F.gp_norm(f, P_NORM)),
                (f"garo_p_lambda/{g['tag']}", "garo_p_lambda",
                 lambda f=f: F.garo_p_lambda(f, P_NORM, LAMBDA)),
                (f"garo_norm/{g['tag']}", "garo_norm",
                 lambda f=f: F.garo_norm(f, S.lp(1))),
            ]
        return ops

    def _ops_pack2d(self, k: int) -> list:
        ops = []
        for g in self.sets[k]:
            f, tag = g["f"], g["tag"]
            ops += [
                (f"jn_norm/{tag}", "jn_norm", lambda f=f: F.jn_norm(f, P_NORM)),
                (f"gp_norm/{tag}", "gp_norm", lambda f=f: F.gp_norm(f, P_NORM)),
            ]
            if g["n"] <= 16:
                ops.append((f"garo_p_lambda/{tag}", "garo_p_lambda",
                            lambda f=f: F.garo_p_lambda(f, P_NORM, LAMBDA)))
            ts = np.geomspace(max(f.cell_measure / 2, 1e-6), 1.0, T_POINTS)
            ops += [
                (f"k_pack/{tag}", "k_pack",
                 lambda f=f, ts=ts: K.k_l1_bmo(f, ts, method="PACK")),
                (f"vitali/{tag}", "vitali",
                 lambda f=f: K.vitali_threshold_estimate(f, VITALI_T)),
                (f"garo_norm/{tag}", "garo_norm",
                 lambda f=f: F.garo_norm(f, S.lp(1))),
            ]
        return ops

    def _ops_operators(self, k: int) -> list:
        spaces = [S.space_from_string(s) for s in NORM_SPECS]
        ops = []
        for g in self.sets[k]:
            f, mode, tag = g["f"], g["mode"], g["tag"] + "-" + g["mode"]
            for which in ("hl", "sharp", "local"):
                ops.append((f"{which}_maximal/{tag}", f"{which}_maximal",
                            _maximal_op(which, f, mode, spaces)))
            if mode == "full":
                for m in ("BS", "JT"):
                    ops.append((f"k_{m}/{tag}", f"k_{m}",
                                lambda f=f, m=m: K.k_l1_bmo(f, method=m,
                                                            cube_mode="full")))
        return ops

    def _ops_suites(self, k: int) -> list:
        seed = subseed(self.seed, k)
        return [(f"suite.{sid}", f"suite.{sid}",
                 lambda sid=sid: V.run_suite(sid, {"seed": seed}))
                for sid in V.SUITE_IDS]

    # -- determinism record ---------------------------------------------------

    def digest(self, op_name: str, output) -> str | None:
        """sha256 of a pack1d output CSV or a suite report, else None."""
        if self.name == "pack1d" and op_name.startswith("kprofile."):
            with open(output, "rb") as fh:
                return sha256_bytes(fh.read())
        if self.name == "suites":
            return sha256_bytes(dump_json(output).encode())
        return None

    # -- checks -----------------------------------------------------------------

    def check_pass(self, set_index: int, outputs: dict) -> dict:
        """{op name: reason} for the ops of one pass whose output fails.

        outputs maps op name -> output for ops that returned."""
        check = getattr(self, f"_check_{self.name}")
        failures: dict = {}
        check(self.sets[set_index], outputs, failures)
        return failures

    @staticmethod
    def _guard(failures: dict, names, fn) -> None:
        """Run one relation check; on failure blame every named op."""
        try:
            fn()
        except (CheckFailure, oscilab.OscilabError, KeyError,
                ValueError, IndexError) as exc:
            for name in names:
                failures.setdefault(name, f"{type(exc).__name__}: {exc}")

    def _check_pack1d(self, grids, out, failures) -> None:
        for g in grids:
            tag, f = g["tag"], g["f"]
            l1 = float(np.abs(f.values - f.mean()).mean())
            profs = {}
            for m in K_METHODS:
                name = f"kprofile.{m}/{tag}"
                if name not in out:
                    continue

                def read(name=name, m=m):
                    prof = read_profile_csv(out[name])
                    expect = "PACK_P(0.5)" if m == "PACK_P" else m
                    require(prof.method == expect,
                            f"method tag {prof.method!r} != {expect!r}")
                    profs[m] = prof

                self._guard(failures, [name], read)
            if "L1Linf" in profs:
                self._guard(failures, [f"kprofile.L1Linf/{tag}"], lambda: require(
                    profs["L1Linf"].t[-1] == 1.0 and abs(
                        profs["L1Linf"].values[-1] - float(np.abs(f.values).mean()))
                    <= 1e-12 * max(1.0, float(np.abs(f.values).mean())),
                    "K(1; L1, Linf) != ||f||_1"))
            if "PACK" in profs:
                self._guard(failures, [f"kprofile.PACK/{tag}"], lambda: require(
                    le(float(profs["PACK"].values.max()), 2.0 * l1),
                    "K_PACK exceeds 2||f - f_Q0||_1"))
            if "PACK" in profs and "PACK_P" in profs:
                self._guard(
                    failures, [f"kprofile.PACK_P/{tag}", f"kprofile.PACK/{tag}"],
                    lambda: require(bool(np.all(
                        profs["PACK_P"].values
                        <= profs["PACK"].values * (1 + REL) + 1e-15)),
                        "K_PACK_P exceeds K_PACK (power-mean inequality)"))
            routes = [m for m in ("BS", "JT", "PACK") if m in profs]
            for i, a in enumerate(routes):
                for b in routes[i + 1:]:
                    self._guard(
                        failures, [f"kprofile.{a}/{tag}", f"kprofile.{b}/{tag}"],
                        lambda a=a, b=b: require(
                            _route_ratio(profs[a], profs[b]) <= 16 * 5.0,
                            f"K route ratio {a}/{b} above 16*5^d"))
            self._check_norms(tag, out, failures, exact_gp=True)

    def _check_norms(self, tag, out, failures, exact_gp: bool) -> None:
        jn, gp = out.get(f"jn_norm/{tag}"), out.get(f"gp_norm/{tag}")
        gpl, garo = out.get(f"garo_p_lambda/{tag}"), out.get(f"garo_norm/{tag}")
        for name, v in ((f"jn_norm/{tag}", jn), (f"gp_norm/{tag}", gp),
                        (f"garo_p_lambda/{tag}", gpl)):
            if v is not None:
                self._guard(failures, [name], lambda v=v, name=name:
                            _finite_nonneg(v, name))
        if jn is not None and gp is not None:
            self._guard(failures, [f"gp_norm/{tag}", f"jn_norm/{tag}"],
                        lambda: require(le(gp, 2.0 * jn), f"gp {gp} > 2 jn {jn}"))
        if exact_gp and gp is not None and gpl is not None:
            # lam < 0 only enlarges the budget, and gp is exact in 1D
            self._guard(failures, [f"garo_p_lambda/{tag}"],
                        lambda: require(le(gpl, gp), f"garo_p_lambda {gpl} > gp {gp}"))
        if garo is not None:
            self._guard(failures, [f"garo_norm/{tag}"], lambda: require(
                garo.lower is not None and 0 <= garo.lower and le(garo.lower, garo.upper),
                f"garo lower {garo.lower} > upper {garo.upper}"))

    def _check_pack2d(self, grids, out, failures) -> None:
        for g in grids:
            tag, f = g["tag"], g["f"]
            self._check_norms(tag, out, failures, exact_gp=False)
            name = f"k_pack/{tag}"
            if name in out:
                l1 = float(np.abs(f.values - f.mean()).mean())
                self._guard(failures, [name], lambda name=name, l1=l1: require(
                    le(float(_revalidate(out[name]).values.max()), 2.0 * l1),
                    "K_PACK exceeds 2||f - f_Q0||_1"))
            name = f"vitali/{tag}"
            if name in out:
                def vitali(name=name, f=f):
                    fs = oscilab.rearrange(self._sharp(f, "auto"))
                    target = fs.value_at(min(25.0 * VITALI_T, 1.0))
                    require(out[name] >= target - 1e-12,
                            f"witness {out[name]} below (f#)*(5^d t) = {target}")

                self._guard(failures, [name], vitali)

    def _sharp(self, f, mode):
        key = (id(f), mode)
        if key not in self._cache:
            self._cache[key] = M.sharp_maximal(f, mode)
        return self._cache[key]

    def _check_operators(self, grids, out, failures) -> None:
        for g in grids:
            f, mode = g["f"], g["mode"]
            tag = g["tag"] + "-" + mode
            absf = np.abs(f.values)
            res = {w: out.get(f"{w}_maximal/{tag}") for w in ("hl", "sharp", "local")}
            for w, r in res.items():
                if r is None:
                    continue
                name = f"{w}_maximal/{tag}"

                def norms(r=r, name=name, w=w):
                    vals, (n1, n2, w2, mlog) = r
                    require(bool(np.all(np.isfinite(vals)) and np.all(vals >= 0)),
                            "maximal function not finite >= 0")
                    for v in (n1, n2, w2, mlog):
                        _finite_nonneg(v, name)
                    require(le(n1, w2) and le(w2, n2),
                            f"norm order L1 {n1} <= weak-L2 {w2} <= L2 {n2} broken")
                    if w == "hl":
                        require(bool(np.all(vals >= absf - 1e-12 * max(1.0, absf.max()))),
                                "Mf below |f|")
                        require(le(float(absf.mean()), n1), "||Mf||_1 < ||f||_1")

                self._guard(failures, [name], norms)
            if res["hl"] is not None and res["sharp"] is not None:
                hl, sh = res["hl"][0], res["sharp"][0]
                self._guard(
                    failures, [f"sharp_maximal/{tag}"],
                    lambda hl=hl, sh=sh: require(
                        bool(np.all(sh <= 2 * hl * (1 + REL) + 1e-12)),
                        "f# above 2 Mf"))
            profs = {}
            for m in ("BS", "JT"):
                name = f"k_{m}/{tag}"
                if name in out:
                    def reval(name=name, m=m):
                        profs[m] = _revalidate(out[name])

                    self._guard(failures, [name], reval)
            if len(profs) == 2:
                self._guard(failures, [f"k_BS/{tag}", f"k_JT/{tag}"], lambda: require(
                    _route_ratio(profs["BS"], profs["JT"]) <= 16 * 5.0 ** g["d"],
                    "K route ratio BS/JT above 16*5^d"))

    def _check_suites(self, grids, out, failures) -> None:
        for sid in V.SUITE_IDS:
            name = f"suite.{sid}"
            if name in out:
                rep = out[name]
                self._guard(failures, [name], lambda rep=rep, sid=sid: require(
                    rep.get("suite") == sid and rep.get("passed") is True,
                    f"suite {sid} report not passed"))

    # -- oracles --------------------------------------------------------------

    def oracle_check(self) -> dict:
        """{op group: reason} where the library disagrees with the
        independent oracles on small grids of this seed's kinds."""
        failures: dict = {}
        if self.name in ("pack1d", "pack2d"):
            d, n = (1, 8) if self.name == "pack1d" else (2, 3)
            kinds = sorted({kind for _, _, kind, _ in self.grids})
            ts = np.geomspace(1.0 / n**d, 1.0, 9)
            pack_group = "kprofile.PACK" if self.name == "pack1d" else "k_pack"
            for j, kind in enumerate(kinds):
                f = oscilab.generate(kind, d, n, seed=self.seed + j)
                f0 = f.with_values(f.values - f.mean())
                pairs = (
                    ("jn_norm", F.jn_norm(f, P_NORM), oracles.brute_jn(f, P_NORM)),
                    ("gp_norm", F.gp_norm(f, P_NORM), oracles.brute_gp(f, P_NORM)),
                    (pack_group, K.f_sharp_curve(f0, ts), oracles.brute_f_sharp(f0, ts)),
                )
                for group, got, want in pairs:
                    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
                    if err > REL * max(1.0, float(np.max(np.abs(want)))):
                        failures[group] = f"{kind} d={d} N={n}: |lib - oracle| = {err}"
        elif self.name == "operators":
            for j, (d, n) in enumerate(((1, 8), (2, 4))):
                kind = self.grids[j][2]
                f = oscilab.generate(kind, d, n, seed=self.seed + j)
                want = np.zeros(f.ncells)
                for q, (osc, _, _) in oracles.cube_stats_map(f).items():
                    cells = q.flat_cells(n)
                    want[cells] = np.maximum(want[cells], osc)
                got = M.sharp_maximal(f, "full").values
                err = float(np.max(np.abs(got - want)))
                if err > REL * max(1.0, float(want.max())):
                    failures["sharp_maximal"] = f"d={d} N={n}: |lib - oracle| = {err}"
        return failures


def _cli_op(argv: list, out: str):
    def run():
        code = oscilab.cli.main(argv)
        if code != 0:
            raise CheckFailure(f"oscilab {' '.join(argv)} exited {code}")
        return out

    return run


def _maximal_op(which: str, f, mode: str, spaces: list):
    def run():
        if which == "hl":
            g = M.hl_maximal(f, cube_mode=mode)
        elif which == "sharp":
            g = M.sharp_maximal(f, cube_mode=mode)
        else:
            g = M.local_maximal(f, LOCAL_S, cube_mode=mode)
        return g.values, [S.grid_norm(space, g) for space in spaces]

    return run
