"""Every function a per-layer benchmark metric names exists, and the
command line calls it.

``BENCHMARK.json`` names metrics ``<layer>.<function>.<quantity>``; the
traced benchmark run fails when a named function is gone, and a metric of a
function no command calls reads 0 and measures nothing. These tests read
the file directly (they do not import ``bench/``), so a deletion or a
bypassed function shows up in the unit tests rather than only in the
benchmark step.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from eigencoupling import cli

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def named_functions():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({tuple(name.split(".")[:2]) for name in names if name.count(".") == 2})


@pytest.mark.parametrize("layer,function", named_functions())
def test_named_function_exists(layer, function):
    if layer == "linalg":
        assert callable(getattr(np.linalg, function, None))
        return
    module = importlib.import_module(f"eigencoupling.{layer}")
    fn = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_metrics_name_functions():
    assert ("family", "evaluate") in named_functions()


#: named functions no command calls yet; ROADMAP item 1 replaces their metrics
UNREACHED = {("numkit", "eig_all"), ("ep_asymptotics", "surface_eval"),
             ("dp_asymptotics", "split_multiparam"), ("linalg", "eig")}


def test_named_functions_are_reached(monkeypatch, tmp_path):
    """Each command of the benchmark's workloads, on both builtin crystals,
    with every named function counted in every package namespace that holds
    it, as the traced run wraps it (``from .numkit import ...`` included)."""
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "eigencoupling" or name.startswith("eigencoupling.")]
    reached = set()

    def counting(key, fn):
        def counted(*args, **kwargs):
            reached.add(key)
            return fn(*args, **kwargs)
        return counted

    for layer, function in named_functions():
        if layer == "linalg":
            holders = [(np.linalg, function)]
            fn = getattr(np.linalg, function)
        else:
            fn = getattr(importlib.import_module(f"eigencoupling.{layer}"), function)
            holders = [(mod, attr) for mod in namespaces
                       for attr, value in vars(mod).items() if value is fn]
        for mod, attr in holders:
            monkeypatch.setattr(mod, attr, counting((layer, function), fn))

    for crystal in ("crystal-example-1", "crystal-example-2"):
        anchor = ["--family", crystal, "--at", "0,0"]
        for code, argv in [
            (0, ["classify", *anchor]),
            (0, ["surface", *anchor, "--res", "5", "--out", str(tmp_path / "s.csv")]),
            # crystal-example-2's anchor is a DP, which has no loop trajectory
            (0 if crystal == "crystal-example-1" else 2,
             ["loop", *anchor, "--loop=0.003,-0.002,0.01", "--out", str(tmp_path / "l.csv")]),
            # and find-ep refuses the point beside it where its search lands
            (0 if crystal == "crystal-example-1" else 2,
             ["find-ep", "--family", crystal, "--at", "0.05,-0.03"]),
            (0, ["scenario", *anchor]),
            (0, ["scenario", *anchor, "--offset", "0.01"]),
        ]:
            assert cli.main(argv) == code, argv
    missed = set(named_functions()) - reached - UNREACHED
    assert not missed, f"no command calls {sorted(missed)}"
