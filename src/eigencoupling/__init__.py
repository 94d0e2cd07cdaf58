"""Perturbation analysis of double eigenvalues of complex matrix families.

Detection and classification of diabolic (semisimple) and exceptional
(defective) points, Jordan chains and bi-orthonormal frames, first-order
eigenvalue-surface asymptotics, crossing/avoided-crossing classification,
eigenvalue-trajectory tracing, and a crystal-optics front end.

Importing the package imports none of its modules: each public name imports
its module on first access.
"""

import importlib

#: each public name -> the module that defines it; a module's name maps to itself
_HOME = {name: module for module, names in {
    "cli": (), "crystal_optics": (), "errors": (),
    "degeneracy": ("DPFrame", "JordanChain", "classify", "codimension", "dp_frame",
                   "find_double_eigenvalues", "find_ep", "jordan_chain"),
    "dp_asymptotics": ("DPLocalModel", "avoided_crossing_1p", "dp_sensitivities",
                       "one_param_slopes", "persistence_conditions", "reduced_problem",
                       "split_multiparam", "surface_classification_2p"),
    "ep_asymptotics": ("EPLocalModel", "LoopSpec", "branch_cuts", "complex_plane_conic",
                       "cross_section", "curve_split", "loop_trajectory", "sensitivities",
                       "surface_eval", "tangency_conditions"),
    "family": ("MatrixFamily", "PolynomialFamily", "derivative", "evaluate",
               "evaluate_many", "parse_family"),
    "numkit": ("eig_all", "hermitian_inner"), "pairmodel": ("PairSheets", "sheets"),
}.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A module, imported on first access (which binds it here), or a name read
    afresh from its module on each access: a function replaced there shows here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
