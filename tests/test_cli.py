import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from oscilab import read_grid_csv, write_grid_csv
import oscilab.cli as cli
from oscilab.cli import main
from oscilab.generators import generate
from oscilab.report import SCHEMA_VERSION, dump_json
from oscilab.svgplot import plot_profiles
from oscilab.verify import run_suite


def test_generate_kinds():
    assert np.allclose(generate("constant", 1, 4, c=2.0).values, 2.0)
    assert np.allclose(generate("indicator", 1, 2).values, [1, 0])
    f = generate("checkerboard", 2, 4)
    assert set(np.unique(f.values)) == {-1.0, 1.0}
    f1 = generate("random_steps", 1, 32, seed=7)
    f2 = generate("random_steps", 1, 32, seed=7)
    assert np.array_equal(f1.values, f2.values)
    f3 = generate("random_steps", 1, 32, seed=8)
    assert not np.array_equal(f1.values, f3.values)


def test_cosine_mix_refines_same_function():
    coarse = generate("cosine_mix", 1, 32, seed=3)
    fine = generate("cosine_mix", 1, 64, seed=3)
    # every coarse cell average of the fine samples approximates the coarse
    # sample (same underlying smooth function; curvature error O((2 pi k h)^2))
    paired = fine.values.reshape(32, 2).mean(axis=1)
    assert np.allclose(paired, coarse.values, atol=0.1)
    assert np.corrcoef(paired, coarse.values)[0, 1] > 0.999


def test_gen_and_norm_cli(tmp_path, capsys):
    grid = tmp_path / "f.csv"
    assert main(["gen", "indicator", "--d", "1", "--N", "8", "--out", str(grid)]) == 0
    f = read_grid_csv(grid)
    assert np.allclose(f.values, [1, 1, 1, 1, 0, 0, 0, 0])
    out = tmp_path / "norm.json"
    assert main(["norm", str(grid), "--space", "lp:1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["name"] == "norm"
    assert rep["value"] == pytest.approx(0.5)
    assert set(rep) == {"name", "params", "value", "witness", "method", "constants"}


def test_maximal_cli(tmp_path):
    grid = tmp_path / "f.csv"
    main(["gen", "indicator", "--d", "1", "--N", "2", "--side", "1",
          "--out", str(grid)])
    out = tmp_path / "sharp.csv"
    assert main(["maximal", str(grid), "--which", "sharp", "--out", str(out)]) == 0
    g = read_grid_csv(out)
    assert np.allclose(g.values, [0.5, 0.5])


def test_garo_cli(tmp_path, capsys):
    grid = tmp_path / "f.csv"
    main(["gen", "indicator", "--d", "1", "--N", "2", "--side", "1",
          "--out", str(grid)])
    assert main(["garo", str(grid), "--space", "lp:1"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["value"] == pytest.approx(0.5, abs=1e-9)
    assert rep["constants"]["upper"] >= rep["value"]
    assert rep["method"] == "exact packing"
    assert rep["witness"] is not None


@pytest.mark.parametrize("space,method", [
    ("lp:inf", "exact closed form"),
    ("weak:2", "16*local-maximal upper"),
])
def test_garo_cli_method_label(tmp_path, capsys, space, method):
    grid = tmp_path / "f.csv"
    main(["gen", "random_steps", "--d", "1", "--N", "8", "--out", str(grid)])
    capsys.readouterr()
    assert main(["garo", str(grid), "--space", space]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == method
    exact = rep["constants"]["exact"]
    assert rep["value"] == (rep["constants"]["upper"] if exact is None else exact)


def test_garo_cli_flag_removed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["garo", str(tmp_path / "f.csv"), "--exact-small"])
    assert exc.value.code == 2


def test_kprofile_cli(tmp_path):
    grid = tmp_path / "f.csv"
    main(["gen", "random_steps", "--d", "1", "--N", "16", "--seed", "4",
          "--out", str(grid)])
    out = tmp_path / "k.csv"
    assert main(["kprofile", str(grid), "--method", "PACK", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value,method"
    assert all(line.endswith("PACK") for line in lines[1:])


def test_verify_cli_and_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "rearr", "--seed", "1", "--out", str(out1)]) == 0
    assert main(["verify", "rearr", "--seed", "1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["suite"] == "rearr"
    for c in rep["checks"]:
        assert set(c) == {
            "name", "paper_anchor", "status", "measured_constant", "tolerance"
        }


def test_run_suite_unknown():
    from oscilab import ConfigError

    with pytest.raises(ConfigError):
        run_suite("nope")


def test_plot_deterministic_bytes(tmp_path):
    ts = np.geomspace(1e-2, 1, 12)
    curves = [
        ("BS", ts, np.minimum(ts * 2, 0.5)),
        ("JT", ts, np.minimum(ts, 0.4)),
        ("PACK", ts, np.minimum(ts * 1.5, 0.45)),
    ]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    plot_profiles(curves, p1, title="overlay")
    plot_profiles(curves, p2, title="overlay")
    assert p1.read_bytes() == p2.read_bytes()
    body = p1.read_text()
    assert body.count("<path") == 3
    for label in ("BS", "JT", "PACK"):
        assert f">{label}</text>" in body


def test_plot_empty_is_usage_error(tmp_path):
    from oscilab import ConfigError

    with pytest.raises(ConfigError):
        plot_profiles([], tmp_path / "x.svg")


def test_plot_cli_roundtrip(tmp_path):
    grid = tmp_path / "f.csv"
    main(["gen", "indicator", "--d", "1", "--N", "2", "--side", "1",
          "--out", str(grid)])
    k1 = tmp_path / "bs.csv"
    k2 = tmp_path / "pack.csv"
    main(["kprofile", str(grid), "--method", "BS", "--out", str(k1)])
    main(["kprofile", str(grid), "--method", "PACK", "--out", str(k2)])
    svg = tmp_path / "k.svg"
    assert main(["plot", str(k1), str(k2), "--title", "K", "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    # BS and PACK coincide at the t=0.5 grid point for the half indicator
    import csv

    def val_at_half(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return min(
            (abs(float(r["t"]) - 0.5), float(r["value"])) for r in rows
        )[1]

    assert val_at_half(k1) == pytest.approx(val_at_half(k2), abs=1e-12)


def test_console_entrypoint():
    # the child imports the library from src, as a bare pytest run does
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "oscilab.cli", "verify", "morrey"],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert "morrey: PASS" in proc.stdout


def test_one_parser_per_process(monkeypatch, tmp_path):
    # a count-based guard, no timing: repeated main calls build no new parser
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *a, **kw):
        parsers.append(1)
        init(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    argv = ["gen", "constant", "--N", "4", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    built = len(parsers)
    assert built > 0
    assert main(argv) == 0 and main(argv) == 0
    assert len(parsers) == built


def test_reused_parser_leaks_no_state(tmp_path):
    # main parses with one parser per process: after a run with --p and
    # --points and a rejected argv, a run without them must write what a
    # fresh process writes
    grid = tmp_path / "f.csv"
    write_grid_csv(generate("random_steps", 1, 16, seed=3), grid)
    argv = ["kprofile", str(grid), "--method", "PACK_P"]
    first, reused, fresh = (str(tmp_path / f"{name}.csv") for name in ("a", "b", "c"))
    assert main(argv + ["--p", "0.7", "--points", "8", "--out", first]) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "x", "--out", reused])
    assert exc.value.code == 2
    assert main(argv + ["--out", reused]) == 0
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-m", "oscilab.cli", *argv, "--out", fresh],
                   check=True, capture_output=True, timeout=600,
                   env=dict(os.environ, PYTHONPATH=str(src)))
    reused_bytes = pathlib.Path(reused).read_bytes()
    assert reused_bytes == pathlib.Path(fresh).read_bytes()
    assert reused_bytes != pathlib.Path(first).read_bytes()


def test_error_exit_code(tmp_path):
    missing = tmp_path / "nope.csv"
    missing.write_text("no header\n1.0\n")
    assert main(["norm", str(missing)]) == 2


def test_dump_json_canonical():
    assert dump_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


@pytest.mark.parametrize(
    "name,text",
    [
        ("missing", None),
        ("token", "# oscilab d=1 N=2 junk\n1.0\n2.0\n"),
        ("nonnumeric", "# oscilab d=1 N=2\n1.0\nx\n"),
        ("ragged", "# oscilab d=2 N=2\n1.0,2.0\n3.0\n"),
        ("wide1d", "# oscilab d=1 N=2\n1.0,2.0\n"),  # a 1D row holds one value
    ],
)
def test_kprofile_bad_grid_is_config_error(tmp_path, capsys, name, text):
    grid = tmp_path / f"{name}.csv"
    if text is not None:
        grid.write_text(text)
    rc = main(["kprofile", str(grid), "--out", str(tmp_path / "k.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    from oscilab import ConfigError

    with pytest.raises(ConfigError):
        read_grid_csv(grid)


def test_kprofile_negative_points_rejected(tmp_path, capsys):
    grid = tmp_path / "f.csv"
    main(["gen", "indicator", "--d", "1", "--N", "8", "--out", str(grid)])
    out = tmp_path / "k.csv"
    argv = ["kprofile", str(grid), "--method", "PACK", "--out", str(out)]
    assert main(argv + ["--points", "-3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert main(argv + ["--points", "0"]) == 0  # 0 keeps the default grid
    assert out.exists()


@pytest.mark.parametrize(
    "space",
    ["lp:abc", "lp:nan", "weak:x", "marcinkiewicz:power:y", "marcinkiewicz:MISSING",
     "marcinkiewicz:NANTABLE", "marcinkiewicz:BADROW"],
)
def test_norm_bad_space_is_config_error(tmp_path, capsys, space):
    grid = tmp_path / "f.csv"
    main(["gen", "indicator", "--d", "1", "--N", "8", "--out", str(grid)])
    capsys.readouterr()
    # phi tables: a non-finite entry, and a non-numeric row past the header
    for name, text in (("NANTABLE", "s,phi\n0.5,nan\n1,1\n"),
                       ("BADROW", "s,phi\n0.25,0.5\nfoo,bar\n1,1\n")):
        (tmp_path / f"{name}.csv").write_text(text)
        space = space.replace(name, str(tmp_path / f"{name}.csv"))
    space = space.replace("MISSING", str(tmp_path / "missing.csv"))
    assert main(["norm", str(grid), "--space", space]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_unknown_config_key_is_config_error(capsys):
    from oscilab import ConfigError
    from oscilab.verify import SUITE_IDS

    # the suites read seed and s only: any other key, a grid size included,
    # is rejected
    for sid in SUITE_IDS:  # checked before any work, so every suite is cheap
        for key in ("count", "res_j", "kmax", "n_fs", "typo"):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                run_suite(sid, {"seed": 0, "s": 0.3, key: 1})
    with pytest.raises(ConfigError, match="'typo', 1"):  # keys of mixed types
        run_suite("rearr", {1: 0, "typo": 0})
    with pytest.raises(SystemExit) as exc:  # no JSON config flag: a usage error
        main(["verify", "morrey", "--config", '{"seed": 1}'])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("suite,config", [
    ("morrey", '{"count": "x"}'),
    ("morrey", '{"count": true}'),
    ("morrey", '{"count": 0}'),
    ("blowup", '{"kmax": "x"}'),
    ("blowup", '{"kmax": 1}'),
    ("blowup", '{"n_fs": 1.5}'),
    ("blowup", '{"n_fs": 128}'),
    ("blowup", '{"res_j": 0}'),
    ("kfun", '{"s": "x"}'),
    ("kfun", '{"s": 1.0}'),
    ("maximal", '{"s": true}'),
    ("rearr", '{"seed": "x"}'),
    ("rearr", '{"seed": -1}'),
])
def test_verify_bad_config_value_is_config_error(suite, config):
    # a bad seed or s, or any grid-size key whatever its value, is a
    # ConfigError that names the key
    from oscilab import ConfigError

    config = json.loads(config)
    with pytest.raises(ConfigError, match=f"'{next(iter(config))}'"):
        run_suite(suite, config)


@pytest.mark.parametrize("argv,key", [
    (["verify", "kfun", "--s", "1.0"], "s"),
    (["verify", "maximal", "--s", "0"], "s"),
    (["verify", "rearr", "--seed", "-1"], "seed"),
])
def test_verify_bad_seed_or_s_flag_is_usage_error(capsys, argv, key):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err


@pytest.mark.parametrize("config", [{"res_j": 100}, {"kmax": 60},
                                    {"kmax": 11}, {"n_fs": 300},
                                    {"n_fs": 2**22}])
def test_blowup_grid_size_capped_before_allocation(monkeypatch, config):
    # the blowup grid sizes are fixed in the suite: a size key is an
    # unknown key, rejected before any grid is built
    from oscilab import ConfigError
    import oscilab.verify as V

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built before validation")

    monkeypatch.setattr(V, "generate", no_grid)
    with pytest.raises(ConfigError, match=f"'{next(iter(config))}'"):
        V.run_suite("blowup", config)


def test_verify_config_seed_reaches_suite(tmp_path):
    # --seed and --s give run_suite the same config dict, so the same bytes
    out = tmp_path / "r.json"
    assert main(["verify", "morrey", "--seed", "1", "--s", "0.3", "--out", str(out)]) == 0
    want = dump_json(run_suite("morrey", {"seed": 1, "s": 0.3})) + "\n"
    assert out.read_bytes() == want.encode()
    assert json.loads(want)["config"] == {"seed": 1, "s": 0.3}


@pytest.mark.parametrize("argv", [
    ["plot", "{bad}", "--out", "{tmp}/p.svg"],  # a non-numeric row
    ["plot", "{short}", "--out", "{tmp}/p.svg"],  # a row with one column
    ["plot", "{inf}", "--out", "{tmp}/p.svg"],  # a non-finite value
    ["plot", "{tmp}/missing.csv", "--out", "{tmp}/p.svg"],
    ["gen", "constant", "--out", "{tmp}/no/such/dir/x.csv"],
    ["kprofile", "{grid}", "--out", "{tmp}/no/such/dir/k.csv"],
    ["plot", "{headerless}", "--out", "{tmp}/p.svg"],  # no 't' header line
    ["gen", "indicator", "--side", "0", "--out", "{tmp}/x.csv"],
    ["gen", "indicator", "--N", "8", "--side", "9", "--out", "{tmp}/x.csv"],
    ["gen", "checkerboard", "--period", "0", "--out", "{tmp}/x.csv"],
    ["gen", "indicator", "--d", "0", "--N", "4", "--out", "{tmp}/x.csv"],
    ["gen", "constant", "--d", "-1", "--N", "4", "--out", "{tmp}/x.csv"],
    ["gen", "constant", "--d", "1", "--N", "-3", "--out", "{tmp}/x.csv"],
    ["gen", "random_steps", "--d", "2", "--N", "4", "--seed", "-1",
     "--out", "{tmp}/x.csv"],
])
def test_bad_profile_or_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    names = {"tmp": tmp_path}
    for name, text in (("bad", "0.5,1.0,BS\nx,2.0,BS\n"), ("short", "0.5\n"),
                       ("inf", "0.5,inf,BS\n")):
        names[name] = tmp_path / f"{name}.csv"
        names[name].write_text("t,value,method\n" + text)
    names["headerless"] = tmp_path / "headerless.csv"
    names["headerless"].write_text("0.25,2\n0.5,1\n1,0\n")
    names["grid"] = tmp_path / "f.csv"
    main(["gen", "indicator", "--d", "1", "--N", "4", "--out", str(names["grid"])])
    capsys.readouterr()
    assert main([a.format(**names) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
