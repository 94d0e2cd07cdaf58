"""Every function a per-layer benchmark metric names exists.

``BENCHMARK.json`` names metrics ``<layer>.<function>.<quantity>``; the
traced benchmark run fails when a named function is gone. This test reads
the file directly (it does not import ``bench/``), so a deletion shows up in
the unit tests rather than only in the benchmark step.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

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
