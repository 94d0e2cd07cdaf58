"""Span tracer installed from outside the package.

``Tracer.install`` replaces every public function of the package's modules,
and the ``numpy.linalg`` routines the package calls, by wrappers that record
a span: name, start, end, parent span and operation id. Every module
namespace that holds the original function gets the wrapper, so calls
through ``from .numkit import hermitian_inner`` are seen too. Spans are kept
in flat in-memory arrays and summarised (calls, inclusive time, self time
per layer) after the run; ``write`` saves them.

A wrapper records only inside an operation opened with ``Tracer.op``, so
code outside operations (the benchmark's own checks) runs untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass

import numpy as np

#: The package's modules, one layer each, in call-graph order.
LAYERS = ("cli", "family", "crystal_optics", "numkit", "degeneracy",
          "ep_asymptotics", "dp_asymptotics")
#: numpy.linalg routines the package calls: the ``linalg`` layer.
LINALG = ("eig", "eigvals", "svd", "solve", "cond", "inv")
ROOT = "bench.op"


@dataclass
class Summary:
    names: list
    calls: np.ndarray          # per span name
    inclusive_s: np.ndarray    # per span name, total span duration
    layer_self_s: dict         # layer -> total self time
    op_s: float                # total duration of the operation spans
    ops: int
    find_ep_accepted: int      # accepted Newton steps over all find_ep calls
    find_ep_trials: int        # Newton trial probes over all find_ep calls


class Tracer:
    """Wrappers for every public function of ``package``'s layers and for
    the ``linalg`` routines; ``install`` swaps them in, ``uninstall`` out."""

    def __init__(self, package):
        self.names = [ROOT]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.find_ep_results = []
        self._stack = []
        self._current_op = -1
        self._swaps = []       # (namespace, key, original, wrapper)
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [vars(package)] + [vars(mod) for mod in modules.values()]
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                keep = self.find_ep_results if (layer, attr) == ("degeneracy", "find_ep") else None
                wrapped = self._wrap(f"{layer}.{attr}", fn, keep)
                self._swaps.extend((ns, key, fn, wrapped) for ns in namespaces
                                   for key, value in ns.items() if value is fn)
        linalg_ns = vars(np.linalg)
        for attr in LINALG:
            fn = linalg_ns[attr]
            self._swaps.append((linalg_ns, attr, fn, self._wrap(f"linalg.{attr}", fn)))

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn, keep_results=None):
        nid = len(self.names)
        self.names.append(name)
        starts, ends, names, parents, ops = (
            self.start, self.end, self.name, self.parent, self.op_id)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer._current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep_results is not None:
                keep_results.append(result)
            return result

        return traced

    def install(self) -> None:
        for ns, key, _, wrapped in self._swaps:
            ns[key] = wrapped

    def uninstall(self) -> None:
        for ns, key, original, _ in self._swaps:
            ns[key] = original

    @contextlib.contextmanager
    def op(self, op_index: int):
        """Root span of one benchmark operation."""
        idx = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.op_id.append(op_index)
        self.end.append(0.0)
        self._current_op = op_index
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _arrays(self):
        # copies, so that the arrays stay free to grow
        return (np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32))

    def summary(self) -> Summary:
        start, end, name, parent = self._arrays()
        n, k = len(start), len(self.names)
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
        self_s = dur - child
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=dur, minlength=k)
        self_by_name = np.bincount(name, weights=self_s, minlength=k)
        layer_self = {}
        for nid, full in enumerate(self.names):
            layer = full.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(self_by_name[nid])
        # spans are numbered in start order, so the descendants of span i are
        # the spans i+1 .. j-1 that start before span i ends
        find_ep = np.flatnonzero(name == self.names.index("degeneracy.find_ep"))
        evaluate = np.concatenate(
            ([0], np.cumsum(name == self.names.index("family.evaluate"))))
        last = np.searchsorted(start, end[find_ep], side="left")
        # every find_ep evaluates A once at the guess, then once per trial step
        trials = int((evaluate[last] - evaluate[find_ep + 1] - 1).sum())
        return Summary(
            names=list(self.names), calls=calls, inclusive_s=inclusive,
            layer_self_s=layer_self, op_s=float(inclusive[0]), ops=int(calls[0]),
            find_ep_accepted=sum(r.iterations for r in self.find_ep_results),
            find_ep_trials=trials,
        )

    def write(self, path) -> None:
        start, end, name, parent = self._arrays()
        np.savez(path, start=start, end=end, name=name, parent=parent,
                 op=np.array(self.op_id, dtype=np.int32), names=np.array(self.names))
