"""The README names only what the code has: its dotted names resolve and it
lists the options of `oscilab verify` as the parser defines them."""

import argparse
import importlib
import pathlib
import pkgutil
import re

import oscilab
from oscilab.cli import build_parser
from oscilab.grid import CubeTable

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(oscilab.__path__)}


def _code_spans(text):
    """Inline code spans outside fenced blocks, joined across line breaks."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def _dotted_names():
    """CubeTable.<attr> and <oscilab module>.<name> spans, a trailing call
    stripped; file names such as maximal.py are not dotted names."""
    names = set()
    for span in _code_spans(README):
        m = re.fullmatch(r"((?:oscilab\.)?\w+\.\w+)(?:\(.*\))?", span)
        if m and not m.group(1).endswith(".py"):
            head = m.group(1).split(".")[0]
            if head in MODULES | {"CubeTable", "oscilab"}:
                names.add(m.group(1))
    return names


def _resolves(name):
    head, attr = name.rsplit(".", 1)
    if head == "CubeTable":
        return hasattr(CubeTable, attr)
    if head == "oscilab":
        return attr in MODULES or hasattr(oscilab, attr)
    module = importlib.import_module(f"oscilab.{head.removeprefix('oscilab.')}")
    return hasattr(module, attr)


def test_readme_dotted_names_resolve():
    names = _dotted_names()
    assert {"CubeTable.half_range", "CubeTable.side_qosc", "oscilab.grid",
            "packing._best_by_cells"} <= names
    assert [n for n in sorted(names) if not _resolves(n)] == []


def test_readme_lists_the_verify_options():
    paragraph = next(p for p in README.split("\n\n")
                     if p.startswith("Verification suites:"))
    listed = {s for s in _code_spans(paragraph) if s.startswith("--")}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["verify"]
    options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
    assert listed == options
