"""Machine-readable report schema shared by the verification suites.

Reports are canonical JSON (sorted keys, fixed separators) so that identical
configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "check", "suite_report", "functional_report", "dump_json"]


def check(
    name: str,
    anchor: str,
    status: bool | np.bool_ | str,
    measured=None,
    tolerance=None,
) -> dict:
    """One verification entry.  anchor states the inequality or identity the
    check exercises, in plain mathematical notation.  A non-finite measured
    float, also inside lists, tuples and dicts, is reported as the string
    "inf", "-inf" or "nan", which strict JSON can hold."""
    if isinstance(status, (bool, np.bool_)):
        status = "pass" if status else "fail"
    return {
        "name": name,
        "paper_anchor": anchor,
        "status": status,
        "measured_constant": _finite_or_name(measured),
        "tolerance": tolerance,
    }


def _finite_or_name(x):
    if isinstance(x, dict):
        return {k: _finite_or_name(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(_finite_or_name, x))
    if isinstance(x, float) and not np.isfinite(x):
        return str(float(x))
    return x


def suite_report(suite: str, config: dict, checks: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "config": config,
        "checks": checks,
        "passed": all(c["status"] != "fail" for c in checks),
    }


def functional_report(
    name: str, params: dict, value, witness=None, method: str = "", constants=None
) -> dict:
    return {
        "name": name,
        "params": params,
        "value": value,
        "witness": witness,
        "method": method,
        "constants": constants or {},
    }


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
