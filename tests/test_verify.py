import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilab import k_l1_bmo, generate
from oscilab.cli import main
from oscilab.kfunctional import equivalence_report
from oscilab.report import SCHEMA_VERSION, check, dump_json
from oscilab.verify import SUITE_IDS, _abs_diff_parts, run_suite


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_every_suite_passes(suite):
    rep = run_suite(suite, {"seed": 0})
    failing = [c["name"] for c in rep["checks"] if c["status"] == "fail"]
    assert rep["passed"], f"{suite} failing checks: {failing}"
    assert rep["schema_version"] == SCHEMA_VERSION
    for c in rep["checks"]:
        assert c["paper_anchor"]  # every check names the statement it tests


def test_equivalence_report_shape():
    f = generate("random_steps", 1, 16, seed=9)
    ts = np.geomspace(1e-2, 1.0, 9)
    profs = {m: k_l1_bmo(f, ts, method=m) for m in ("BS", "JT", "PACK")}
    rep = equivalence_report(profs, "demo")
    assert {e["method_pair"] for e in rep} == {"BS/JT", "BS/PACK", "JT/PACK"}
    for e in rep:
        assert set(e) == {
            "method_pair", "min_ratio", "max_ratio", "argmax_t", "function_id"
        }
        assert e["function_id"] == "demo"
        assert e["max_ratio"] >= e["min_ratio"] > 0


# the report digests of seeds 0, 1 and 2 per suite
_DIGESTS = {
    "maximal": ("a766ad76b86dd73c091726b9ee8e011c91ff8240cfb87f56de5b580367721f11",
                "8a53ead1f6faf4a212125cac316ecc974d7bd0b442c3cabfbc7eb48b6011067f",
                "89d6144f8749a56922c28dba21a190f563359c83aebc8a3de2bdabc870b8f045"),
    "blowup": ("6b1a82891845d5ff5b1c4dbcdb0d72a3bdc28f7b80a493763cc8009bd82c79ba",
               "32a856a5c79b8214aac8c46ca3b676d63d00bd35889b2a73f7d0875c2943ccb9",
               "a7c51badbec1c0a7be072f4b58e3a7f149a349bcdb45502cd06763c3fd6e28c7"),
    "rearr": ("8b850a7d9b24ce8c2f42e6dd552a64c952630938f2231f6e1cb669d0acf4d31b",
              "82a1f46a8cbe0ed34a3d1fc334234efb0770a7d9021b6e2fba8f3b23caf2447f",
              "5a7c96f3c7ba1ab35da3bf7da00150e23e7f9b66def81a144b2fb3ca5886f071"),
    "garo": ("93120687e8c8af547aa4da80a6aac9f5d07eafeb7d486e804e1de827eb387ba7",
             "5984aa8e45a7121029ebf258759d1866fc555b34c68e6fa03755ea1fb20d4f8e",
             "3936e65f793647031f8d0488fdaa9fd460601ee50103d0d2c742ef46c1d6f9cb"),
    "kfun": ("b81cb376250ae9a3eaf00509c7975d148a3d93c24182de70f73dfb93476fcadd",
             "f32d6789cee93b980228f5a15a7021ce990e34db477dc5ce5845b3a78681a255",
             "db56811fe92bf7b912d480fac7cf175ec90fefb361c50068bdd1c316d1331214"),
    "morrey": ("d5450b26fdb3bb0d0eb9d4151ef8a03e03a5549804b3604d0153d219c3f90d89",
               "64b4ac6824fc47d1d1394a768519780d0ee6ad0c8877525395aae10309f65513",
               "829d7c80a0e11b436395098eb25daf4b5417eda5a55501422fb3a7502a3c7536"),
}


@pytest.mark.parametrize("suite,seed,digest", [
    pytest.param(suite, seed, digest, id=f"{suite}-{digest}")
    for suite, digests in _DIGESTS.items() for seed, digest in enumerate(digests)
])
def test_suite_report_bytes_pinned(suite, seed, digest):
    # every suite's report for each pinned seed, pinned to its bytes: a
    # faster path must give the same report
    rep = dump_json(run_suite(suite, {"seed": seed}))
    assert hashlib.sha256(rep.encode()).hexdigest() == digest


finite = st.floats(min_value=-1e300, max_value=1e300)  # x - y stays finite


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
def test_abs_diff_parts_are_exact(pairs):
    x, y = (np.array(v) for v in zip(*pairs))
    hi, lo = _abs_diff_parts(x, y)
    for xi, yi, h, l in zip(x, y, hi, lo):
        assert Fraction(h) + Fraction(l) == abs(Fraction(xi) - Fraction(yi))


def test_rearr_contraction_compares_exactly(capsys):
    # at this seed an n=4 draw has exact excess 0 that summation order in
    # floats turned into 1.1e-16
    assert main(["verify", "rearr", "--seed", "47566"]) == 0
    assert "suite rearr: PASS" in capsys.readouterr().out


def test_check_maps_numpy_bools():
    assert check("a", "x", np.bool_(True))["status"] == "pass"
    assert check("a", "x", np.float64(1.0) > 2.0)["status"] == "fail"
    assert check("a", "x", "info")["status"] == "info"
    dump_json(check("a", "x", np.bool_(False)))


def test_check_names_non_finite_measured_floats():
    measured = {"a": [math.inf, np.float64(-math.inf)], "b": (math.nan, 1.5), "c": 2}
    got = check("a", "x", False, measured=measured)["measured_constant"]
    assert got == {"a": ["inf", "-inf"], "b": ("nan", 1.5), "c": 2}
    finite = {"a": [0.1, np.float64(2.0)], "b": (3, 1.5)}
    assert (dump_json(check("a", "x", True, measured=finite))
            == dump_json({"measured_constant": finite, "name": "a", "paper_anchor": "x",
                          "status": "pass", "tolerance": None}))


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_every_suite_serializes_at_large_s(suite, capsys):
    # at s = 0.7 some cube has int_Q M#_s f = 0 < int_Q |f - f_Q|, so the
    # maximal suite measures an infinite ratio and fails in a JSON report
    rep = json.loads(dump_json(run_suite(suite, {"s": 0.7})))
    if suite == "maximal":
        assert not rep["passed"]
        (c,) = [c for c in rep["checks"] if c["name"] == "oscillation-vs-local-integral"]
        assert c["status"] == "fail" and c["measured_constant"] == "inf"
        assert main(["verify", "maximal", "--s", "0.7"]) == 1
        assert "suite maximal: FAIL" in capsys.readouterr().out
