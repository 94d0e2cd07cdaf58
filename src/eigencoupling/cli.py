"""Command-line front end.

Loads a matrix family (builtin crystal or JSON file), runs the detection /
classification / asymptotics pipelines, and emits deterministic CSV or JSON
suitable for external plotting. Exit codes: 0 success, 1 usage or parse
error, 2 no degeneracy found at the anchor, 3 domain error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import crystal_optics, degeneracy, dp_asymptotics, ep_asymptotics, numkit
from . import family as family_mod
from .errors import (
    ChartError,
    ClassificationError,
    ConvergenceError,
    DegenerateModelError,
    DimensionError,
    DomainError,
    EigenCouplingError,
    FamilyParseError,
    FrameError,
    IndeterminateRankError,
    ModelError,
    MultiplicityError,
    ResolutionError,
    TrackingError,
)
from .pairmodel import sheets, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_DEGENERACY = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

#: grid points per block of ``surface``: a block shares one family
#: evaluation, one stacked eigvals and one pair assignment; fixed blocks keep
#: the peak memory flat
BLOCK = 256


class _UsageError(Exception):
    pass


#: exception -> exit code; the first matching entry wins
_EXIT_CODES = (
    ((_UsageError, FamilyParseError, DimensionError, ChartError,
      DegenerateModelError, ResolutionError, ModelError), EXIT_USAGE),
    ((MultiplicityError, ClassificationError, IndeterminateRankError,
      FrameError), EXIT_NO_DEGENERACY),
    (DomainError, EXIT_DOMAIN),
    ((ConvergenceError, TrackingError), EXIT_NO_CONVERGENCE),
    (EigenCouplingError, EXIT_USAGE),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept values like "-0.1,0.1" after --window / --offset / --loop
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def error(self, message):
        raise _UsageError(message)


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _floats(text: str, what: str):
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"cannot parse {what} '{text}': {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise _UsageError(f"{what} '{text}' has non-finite values")
    return values


def _load_family(source: str) -> family_mod.MatrixFamily:
    builtins = crystal_optics.builtin_specs()
    if source in builtins:
        return crystal_optics.family_adapter(builtins[source])
    path = Path(source)
    if not path.exists():
        raise _UsageError(
            f"family '{source}' is neither a builtin "
            f"({', '.join(sorted(builtins))}) nor an existing file"
        )
    return family_mod.parse_family(path.read_text(encoding="utf-8"))


def _anchor_cluster(fam, at, tol_cluster, tol_rank):
    """The tightest eigenvalue cluster of A(at) and its classification."""
    a = family_mod.evaluate(fam, at)
    clusters = degeneracy.find_double_eigenvalues(a, tol_cluster)
    if not clusters:
        raise ClassificationError(
            f"no eigenvalue cluster at ({', '.join(str(float(x)) for x in at)})")
    cluster = min(clusters, key=lambda c: c.internal_gap)
    return cluster, degeneracy.classify(a, cluster.center, tol_rank)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _emit_json(obj, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _csv(header, table) -> str:
    """CSV text of a 2-d float array; 17 significant digits round-trip doubles.

    One template formats the whole table: formatting block by block leaves
    the heap fragmented between commands.
    """
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())


def _write_section(out, p1, table):
    """The scenario cross-section CSV: p1 and the four sheets per sample."""
    if not out:
        raise _UsageError("--format csv requires --out")
    _write_text(out, _csv(["p1", "re_plus", "re_minus", "im_plus", "im_minus"],
                          np.column_stack((p1, table))))
    return EXIT_OK


def cmd_classify(opts) -> int:
    fam = _load_family(opts["family"])
    at = np.asarray(_floats(opts["at"], "--at"))
    cluster, kind = _anchor_cluster(fam, at, opts["tol_cluster"], opts["tol_rank"])
    report = {
        "lambda0": _cnum(cluster.center),
        "kind": kind.kind,
        "geometric_multiplicity": kind.geometric_multiplicity,
        "cluster_gap": cluster.internal_gap,
        # null when no eigenvalue lies outside the pair
        "external_gap": (cluster.external_gap
                         if math.isfinite(cluster.external_gap) else None),
        "codimension": degeneracy.codimension("complex-nonsymmetric", kind.kind),
    }
    _emit_json(report, opts.get("out"))
    return EXIT_OK


def _window_axes(window, res):
    vals = _floats(window, "--window") if isinstance(window, str) else list(window)
    if len(vals) == 2:
        lo1, hi1 = lo2, hi2 = vals
    elif len(vals) == 4:
        lo1, hi1, lo2, hi2 = vals
    else:
        raise _UsageError("--window needs 'lo,hi' or 'lo1,hi1,lo2,hi2'")
    if res < 2:
        raise _UsageError("--res must be at least 2")
    return np.linspace(lo1, hi1, res), np.linspace(lo2, hi2, res)


def _local_model(fam, p0, kind):
    """The EP or DP local model of the classified anchor cluster."""
    if kind.kind == "EP":
        return ep_asymptotics.sensitivities(fam, degeneracy.jordan_chain_of(kind), p0)
    return dp_asymptotics.dp_sensitivities(fam, degeneracy.dp_frame_of(kind), p0)


def cmd_surface(opts) -> int:
    if not opts.get("out"):
        raise _UsageError("surface requires --out for the CSV file")
    fam = _load_family(opts["family"])
    p0 = np.asarray(_floats(opts["at"], "--at"))
    if fam.n_params != 2:
        raise _UsageError("surface grids need a two-parameter family")
    _, kind = _anchor_cluster(fam, p0, opts["tol_cluster"], opts["tol_rank"])
    model = _local_model(fam, p0, kind)
    axis1, axis2 = _window_axes(opts["window"], opts["res"])
    dps = np.stack(np.meshgrid(axis1, axis2, indexing="ij"), axis=-1).reshape(-1, 2)
    table = np.empty((len(dps), 11))
    for start in range(0, len(dps), BLOCK):
        rows = table[start:start + BLOCK]
        block = dps[start:start + BLOCK]
        points = p0 + block
        model_pair = sheets(model, block)
        values = np.linalg.eigvals(family_mod.evaluate_many(fam, points))
        i, j, margin = numkit.pair_assignment(values, model_pair.pair)
        at = np.arange(len(block))
        exact_a, exact_b = values[at, i], values[at, j]
        rows[:, :2] = points
        rows[:, 2:6] = model_pair.sheets
        rows[:, 6] = np.maximum(exact_a.real, exact_b.real)
        rows[:, 7] = np.minimum(exact_a.real, exact_b.real)
        rows[:, 8] = np.maximum(exact_a.imag, exact_b.imag)
        rows[:, 9] = np.minimum(exact_a.imag, exact_b.imag)
        rows[:, 10] = margin < 1e-3
    header = ["p1", "p2", "re_plus", "re_minus", "im_plus", "im_minus",
              "re_plus_exact", "re_minus_exact", "im_plus_exact",
              "im_minus_exact", "pair_margin_flag"]
    _write_text(opts["out"], _csv(header, table))
    return EXIT_OK


def cmd_loop(opts) -> int:
    if not opts.get("out"):
        raise _UsageError("loop requires --out for the CSV file")
    if not opts.get("loop"):
        raise _UsageError("loop requires --loop a,b,r")
    vals = _floats(opts["loop"], "--loop")
    if len(vals) != 3:
        raise _UsageError("--loop needs exactly three values a,b,r")
    fam = _load_family(opts["family"])
    p0 = np.asarray(_floats(opts["at"], "--at"))
    _, kind = _anchor_cluster(fam, p0, opts["tol_cluster"], opts["tol_rank"])
    if kind.kind != "EP":
        raise ClassificationError("loop trajectories need an EP anchor")
    model = _local_model(fam, p0, kind)
    spec = ep_asymptotics.LoopSpec(a=vals[0], b=vals[1], r=vals[2],
                                   samples=opts["samples"])
    report = ep_asymptotics.loop_trajectory(model, spec)
    table = np.column_stack((report.phis, report.lam_plus.real, report.lam_plus.imag,
                             report.lam_minus.real, report.lam_minus.imag))
    _write_text(opts["out"], _csv(
        ["phi", "re_plus", "im_plus", "re_minus", "im_minus"], table))
    side = {
        "regime": report.regime,
        "sigma": report.sigma,
        "sigma_sign": report.sigma_sign,
        "winding_number": report.winding,
        "n_curves": report.n_curves,
        "axis_crossings": [
            {"axis": c.axis, "ordinate": c.ordinate} for c in report.crossings
        ],
    }
    out = Path(opts["out"])
    _emit_json(side, str(out.with_suffix(".json") if out.suffix == ".csv"
                         else Path(str(out) + ".json")))
    return EXIT_OK


def cmd_find_ep(opts) -> int:
    fam = _load_family(opts["family"])
    if fam.n_params != 2:
        raise _UsageError("find-ep needs a two-parameter family")
    guess = np.asarray(_floats(opts["at"], "--at"))
    result = degeneracy.find_ep(fam, guess)
    report = {
        "p_star": [float(x) for x in result.p_star],
        "lambda0": _cnum(result.lam0),
        "iterations": result.iterations,
        "residual_history": [float(x) for x in result.residual_history],
        "gap": result.gap,
    }
    _emit_json(report, opts.get("out"))
    return EXIT_OK


def cmd_scenario(opts) -> int:
    fam = _load_family(opts["family"])
    p0 = np.asarray(_floats(opts["at"], "--at"))
    _, kind = _anchor_cluster(fam, p0, opts["tol_cluster"], opts["tol_rank"])
    offset = (_floats(opts["offset"], "--offset")
              if opts.get("offset") else [0.0] * (fam.n_params - 1))
    if len(offset) != fam.n_params - 1:
        raise _UsageError(f"--offset needs {fam.n_params - 1} components")
    model = _local_model(fam, p0, kind)
    if kind.kind == "EP":
        section = ep_asymptotics.cross_section(model, offset)
        if opts.get("format") == "csv":
            return _write_section(opts.get("out"), section.sample_p1, section.sample_sheets)
        report = {
            "kind": "EP",
            "gamma": section.gamma,
            "crossing": section.crossing,
            "p1_cross": section.p1_cross,
            "re_level": section.re_level,
            "im_level": section.im_level,
            "re_slopes": list(section.re_slopes) if section.re_slopes else None,
            "im_slopes": list(section.im_slopes) if section.im_slopes else None,
            "vertical_tangents": section.vertical_tangents,
        }
    elif opts.get("offset"):
        if opts.get("format") == "csv":
            dps = sweep(offset, 0.1, 401)
            return _write_section(opts.get("out"), p0[0] + dps[:, 0], sheets(model, dps).sheets)
        rep = dp_asymptotics.avoided_crossing_1p(model, offset)
        roots = [x for x in (rep.dp1_a, rep.dp1_b) if x is not None] or None
        cvals = [x for x in (rep.c_a, rep.c_b) if x is not None] or None
        report = {
            "kind": "DP-1p",
            "scenario": rep.scenario,
            "discriminant": rep.disc,
            "c0": _cnum(rep.c0), "c1": _cnum(rep.c1), "c2": _cnum(rep.c2),
            "dp1_roots": roots,
            "c_values": cvals,
        }
    else:
        if fam.n_params != 2:
            raise _UsageError("two-parameter classification needs n = 2; "
                              "pass --offset for the one-parameter scenario")
        rep = dp_asymptotics.surface_classification_2p(model)
        lines = (None if rep.line_a is None
                 else [[float(x) for x in rep.line_a], [float(x) for x in rep.line_b]])
        signs = None if rep.sign_a is None else [rep.sign_a, rep.sign_b]
        report = {
            "kind": "DP",
            "type": rep.kind,
            "discriminant": rep.disc,
            "c11": _cnum(rep.c11), "c12": _cnum(rep.c12), "c22": _cnum(rep.c22),
            "lines": lines,
            "line_signs": signs,
            "chart_degenerate": rep.chart_degenerate,
        }
    _emit_json(report, opts.get("out"))
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "surface": cmd_surface,
    "loop": cmd_loop,
    "find-ep": cmd_find_ep,
    "scenario": cmd_scenario,
}

_DEFAULTS = {
    "window": "-0.1,0.1",
    "res": 41,
    "tol_cluster": 1e-6,
    "tol_rank": 1e-8,
    "samples": 720,
    "format": "json",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="eigencoupling", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--family", help="builtin name or family JSON path")
    parser.add_argument("--at", help="anchor point (find-ep: starting guess), comma-separated")
    parser.add_argument("--window", help="grid window 'lo,hi' or 'lo1,hi1,lo2,hi2'")
    parser.add_argument("--res", type=int, help="grid resolution per axis")
    parser.add_argument("--tol-cluster", type=float, dest="tol_cluster")
    parser.add_argument("--tol-rank", type=float, dest="tol_rank")
    parser.add_argument("--loop", help="loop parameters a,b,r")
    parser.add_argument("--samples", type=int, help="loop sample count")
    parser.add_argument("--offset", help="fixed offsets of parameters 2..n")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--config", help="JSON config file; flags override it")
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise _UsageError(f"config file '{args.config}' not found")
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise _UsageError("config file must hold a JSON object")
        opts.update({str(k).replace("-", "_"): v for k, v in cfg.items()})
    opts.update({key: value for key, value in vars(args).items()
                 if value is not None and key not in ("command", "config")})
    for key in ("family", "at"):
        if not opts.get(key):
            raise _UsageError(f"--{key} is required")
    return opts


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _merge_options(args)
        return _COMMANDS[args.command](opts)
    except (_UsageError, EigenCouplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError) and exc.residual_history:
            history = ", ".join(f"{x:.3e}" for x in exc.residual_history)
            print(f"residual history: {history}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
