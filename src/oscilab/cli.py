"""Batch front door: generation, norms, maximal operators, GaRo estimates,
K-profiles, verification suites and plots."""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .errors import ConfigError, OscilabError
from .functionals import garo_norm
from .generators import GENERATOR_KINDS, generate
from .grid import _csv_numbers, _read_csv_rows, read_grid_csv, write_grid_csv
from .kfunctional import k_l1_bmo, k_l1_linf
from .maximal import DEFAULT_S, hl_maximal, local_maximal, sharp_maximal
from .report import dump_json, functional_report
from .spaces import grid_norm, space_from_string
from .svgplot import plot_profiles
from .verify import SUITE_IDS, run_suite


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=1, help="dimension (1 or 2)")
    p.add_argument("--N", type=int, default=64, help="cells per axis")
    p.add_argument("--seed", type=int, default=0)


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oscilab",
        description="Oscillation functionals, maximal operators and "
        "K-functional profiles on grid functions over the unit cube.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a builtin test function as grid CSV")
    g.add_argument("kind", choices=GENERATOR_KINDS)
    _add_grid_args(g)
    g.add_argument("--a", type=float, default=0.25, help="logspike size")
    g.add_argument("--c", type=float, default=1.0, help="constant value")
    g.add_argument("--side", type=int, default=None, help="indicator side")
    g.add_argument("--period", type=int, default=1, help="checkerboard period")
    g.add_argument("--out", required=True)

    n = sub.add_parser("norm", help="norm of a grid function in a given space")
    n.add_argument("grid_csv")
    n.add_argument("--space", default="lp:1",
                   help="lp:p | weak:p | marcinkiewicz:<preset|csv>")
    n.add_argument("--out", default=None, help="write JSON report here")

    m = sub.add_parser("maximal", help="apply a maximal operator")
    m.add_argument("grid_csv")
    m.add_argument("--which", choices=("hl", "sharp", "local"), default="sharp")
    m.add_argument("--s", type=float, default=DEFAULT_S)
    m.add_argument("--cube-mode", choices=("auto", "full", "dyadic"),
                   default="auto")
    m.add_argument("--out", required=True, help="output grid CSV")

    ga = sub.add_parser("garo", help="Garsia-Rodemich norm estimate")
    ga.add_argument("grid_csv")
    ga.add_argument("--space", default="lp:1")
    ga.add_argument("--s", type=float, default=DEFAULT_S)
    ga.add_argument("--out", default=None)

    k = sub.add_parser("kprofile", help="K-functional profile CSV")
    k.add_argument("grid_csv")
    k.add_argument("--method", choices=("L1Linf", "BS", "JT", "PACK", "PACK_P"),
                   default="BS")
    k.add_argument("--s", type=float, default=DEFAULT_S)
    k.add_argument("--p", type=float, default=0.5, help="exponent for PACK_P")
    k.add_argument("--points", type=int, default=0,
                   help="override t-grid with this many log points "
                   "(0: the default grid)")
    k.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_IDS)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--s", type=float, default=None)
    v.add_argument("--out", default=None, help="write the JSON report here")

    pl = sub.add_parser("plot", help="render profile CSVs to a step plot SVG")
    pl.add_argument("profile_csv", nargs="+")
    pl.add_argument("--title", default="")
    pl.add_argument("--out", required=True)
    return ap


def _write_out(path, text: str) -> None:
    """Write text, newline-terminated, to the optional --out path."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_gen(args) -> int:
    params = {}
    if args.kind == "logspike":
        params["a"] = args.a
    if args.kind == "constant":
        params["c"] = args.c
    if args.kind == "indicator" and args.side is not None:
        params["side"] = args.side
    if args.kind == "checkerboard":
        params["period"] = args.period
    f = generate(args.kind, args.d, args.N, seed=args.seed, **params)
    write_grid_csv(f, args.out)
    print(f"wrote {args.kind} d={args.d} N={args.N} -> {args.out}")
    return 0


def _cmd_norm(args) -> int:
    f = read_grid_csv(args.grid_csv)
    space = space_from_string(args.space)
    value = grid_norm(space, f)
    rep = functional_report(
        "norm", {"space": args.space, "d": f.dim, "N": f.res}, value,
        method="rearranged profile norm",
    )
    text = dump_json(rep)
    _write_out(args.out, text)
    print(text)
    return 0


def _cmd_maximal(args) -> int:
    f = read_grid_csv(args.grid_csv)
    if args.which == "hl":
        out = hl_maximal(f, cube_mode=args.cube_mode)
    elif args.which == "sharp":
        out = sharp_maximal(f, cube_mode=args.cube_mode)
    else:
        out = local_maximal(f, args.s, cube_mode=args.cube_mode)
    write_grid_csv(out, args.out)
    print(f"wrote {args.which} maximal -> {args.out}")
    return 0


def _cmd_garo(args) -> int:
    f = read_grid_csv(args.grid_csv)
    space = space_from_string(args.space)
    est = garo_norm(f, space, s=args.s)
    rep = functional_report(
        "garo",
        {"space": args.space, "s": args.s, "d": f.dim, "N": f.res},
        est.exact if est.exact is not None else est.upper,
        witness=None if est.witness_packing is None else est.witness_packing.to_json(),
        method=est.method,
        constants={"upper": est.upper, "exact": est.exact, "lower": est.lower},
    )
    text = dump_json(rep)
    _write_out(args.out, text)
    print(text)
    return 0


def _cmd_kprofile(args) -> int:
    if args.points < 0:
        raise ConfigError(f"--points must be >= 0, got {args.points}")
    f = read_grid_csv(args.grid_csv)
    if args.points > 0:
        tg = np.geomspace(max(f.cell_measure / 2, 1e-6), 1.0, args.points)
    else:
        tg = None
    if args.method == "L1Linf":
        prof = k_l1_linf(f, tg)
    else:
        prof = k_l1_bmo(f, tg, method=args.method, s=args.s,
                        p=args.p if args.method == "PACK_P" else None)
    prof.write_csv(args.out)
    print(f"wrote K profile ({prof.method}) -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    config = {key: value for key, value in (("seed", args.seed), ("s", args.s))
              if value is not None}
    report = run_suite(args.suite, config)
    text = dump_json(report)
    _write_out(args.out, text)
    for c in report["checks"]:
        print(f"[{c['status']:>4}] {c['name']}: {c['paper_anchor']}")
    print(f"suite {args.suite}: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def _read_profile_csv(path):
    """(label, ts, values) of a t,value[,label] CSV under its 't' header;
    the label is the last row's third field, or else the path."""
    rows = _read_csv_rows(path, "profile file")
    if not rows or rows[0][0].strip().lower() != "t":
        raise ConfigError(f"expected a 't,value' header in profile file {path}")
    data = rows[1:]
    ts, vs = _csv_numbers(data, 2, "profile file", path).reshape(-1, 2).T.tolist()
    label = data[-1][2] if data and len(data[-1]) > 2 else path
    return label, ts, vs


def _cmd_plot(args) -> int:
    curves = [_read_profile_csv(p) for p in args.profile_csv]
    plot_profiles(curves, args.out, title=args.title)
    print(f"wrote plot -> {args.out}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "norm": _cmd_norm,
    "maximal": _cmd_maximal,
    "garo": _cmd_garo,
    "kprofile": _cmd_kprofile,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (OscilabError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
