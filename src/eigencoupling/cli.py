"""Command-line front end.

Loads a matrix family (builtin crystal or JSON file), runs the detection /
classification / asymptotics pipelines, and emits deterministic CSV or JSON
suitable for external plotting. Exit codes: 0 success, 1 usage or parse
error, 2 no degeneracy found at the anchor, 3 domain error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import crystal_optics, degeneracy, dp_asymptotics, ep_asymptotics, numkit
from . import family as family_mod
from .errors import (
    ClassificationError,
    ConvergenceError,
    DimensionError,
    DomainError,
    EigenCouplingError,
    FrameError,
    IndeterminateRankError,
    MultiplicityError,
    NumericError,
    TrackingError,
)
from .pairmodel import sheets, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_DEGENERACY = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

#: grid points per block of ``surface``: a block shares one family
#: evaluation, one stacked eigvals, one pair assignment and one line
#: template; with at most workers + 1 blocks in flight their arrays take
#: the same memory on any grid, and only the formatted text grows with it
BLOCK = 256


class _UsageError(Exception):
    pass


#: exception -> exit code; the first matching entry wins
_EXIT_CODES = (
    ((_UsageError, MemoryError), EXIT_USAGE),
    ((MultiplicityError, ClassificationError, IndeterminateRankError,
      FrameError), EXIT_NO_DEGENERACY),
    (DomainError, EXIT_DOMAIN),
    ((ConvergenceError, TrackingError), EXIT_NO_CONVERGENCE),
    (EigenCouplingError, EXIT_USAGE),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _floats(text: str, what: str):
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"cannot parse {what} '{text}': {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise _UsageError(f"{what} '{text}' has non-finite values")
    return values


def _read_text(path: str, missing: str) -> str:
    """The UTF-8 text of the file at ``path``. A path that names no file
    fails with the message ``missing``; any other failure to read names the
    path and its cause."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read '{path}': {exc}") from exc
    # ValueError: a NUL byte in the path
    except (FileNotFoundError, NotADirectoryError, ValueError) as exc:
        raise _UsageError(missing) from exc
    except OSError as exc:
        raise _UsageError(f"cannot read '{path}': {exc.strerror or exc}") from exc


def _load_family(source: str) -> family_mod.MatrixFamily:
    builtins = crystal_optics.builtin_specs()
    if source in builtins:
        return crystal_optics.family_adapter(builtins[source])
    return family_mod.parse_family(_read_text(
        source, f"family '{source}' is neither a builtin "
                f"({', '.join(sorted(builtins))}) nor an existing file"))


def _anchor_cluster(fam, at, tol_cluster, tol_rank):
    """The tightest eigenvalue cluster of A(at), the first of
    ``find_double_eigenvalues``'s nearest-first list, and its classification."""
    a = family_mod.evaluate(fam, at)
    clusters = degeneracy.find_double_eigenvalues(a, tol_cluster)
    if not clusters:
        raise ClassificationError(
            f"no eigenvalue cluster at ({', '.join(str(float(x)) for x in at)})")
    return clusters[0], degeneracy.classify(a, clusters[0].center, tol_rank)


def _write_files(*files):
    """Write each ``(path, parts)`` of ``files``, the concatenation of the
    text ``parts`` to ``path``, or leave none: when one cannot be written,
    it and the files written before it are removed again (regular files
    only, not a device such as /dev/null)."""
    written = []
    for path, parts in files:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                written.append(path)
                handle.writelines(parts)
        except OSError as exc:
            for done in written:
                if os.path.isfile(done):
                    with contextlib.suppress(OSError):
                        os.remove(done)
            raise _UsageError(f"cannot write '{path}': {exc.strerror or exc}") from exc


def _plain(obj):
    """The JSON value of a report: a dataclass is its fields by name, less
    those declared ``field(repr=False)``; complex is {re, im}; sequences and
    arrays are lists; a non-finite float is null."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(x) for x in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(obj) -> str:
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit_json(obj, out: str | None):
    text = _json_text(obj)
    if out:
        _write_files((out, [text]))
    else:
        sys.stdout.write(text)


def _rows(table) -> str:
    """CSV lines of a 2-d float array, formatted by one template;
    17 significant digits round-trip doubles."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


def _csv(header, table) -> str:
    """CSV text of a 2-d float array under its header.

    Loop and section files are formatted whole, by one template. ``surface``
    formats a block at a time instead, so that its formatting overlaps the
    workers' eigvals; that leaves the heap somewhat more fragmented.
    """
    return ",".join(header) + "\n" + _rows(table)


def cmd_classify(opts) -> int:
    fam = _load_family(opts["family"])
    at = np.asarray(_floats(opts["at"], "--at"))
    cluster, kind = _anchor_cluster(fam, at, opts["tol_cluster"], opts["tol_rank"])
    report = {
        "lambda0": cluster.center,
        "kind": kind.kind,
        "geometric_multiplicity": kind.geometric_multiplicity,
        "cluster_gap": cluster.internal_gap,
        "external_gap": cluster.external_gap,   # inf (null) when no eigenvalue lies outside
        "codimension": degeneracy.codimension("complex-nonsymmetric", kind.kind),
    }
    _emit_json(report, opts.get("out"))
    return EXIT_OK


def _window_axes(window, res):
    vals = _floats(window, "--window")
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


@functools.cache
def _pool():
    """Threads for ``surface``'s stacked eigvals, one per usable CPU; built
    once per process, on the first ``surface``."""
    from concurrent.futures import ThreadPoolExecutor
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="eigvals")


def _surface_chunk(model, p0, block, spectra) -> str:
    """CSV lines of one block of grid offsets: the model's sheets beside the
    exact pair that ``pair_assignment`` matches to the model's pair."""
    try:
        values = spectra.result()
    except np.linalg.LinAlgError as exc:  # iteration cap inside LAPACK, as in numkit
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    model_pair = sheets(model, block)
    i, j, margin = numkit.pair_assignment(values, model_pair.pair)
    at = np.arange(len(block))
    exact_a, exact_b = values[at, i], values[at, j]
    rows = np.empty((len(block), 11))
    rows[:, :2] = p0 + block
    rows[:, 2:6] = model_pair.sheets
    rows[:, 6] = np.maximum(exact_a.real, exact_b.real)
    rows[:, 7] = np.minimum(exact_a.real, exact_b.real)
    rows[:, 8] = np.maximum(exact_a.imag, exact_b.imag)
    rows[:, 9] = np.minimum(exact_a.imag, exact_b.imag)
    rows[:, 10] = margin < 1e-3
    return _rows(rows)


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
    with np.errstate(over="ignore"):    # the corners bound every point
        if not np.isfinite(p0 + dps[[0, -1]]).all():
            raise DimensionError("the grid points p0 + offset overflow")
    pool = _pool()
    pending = collections.deque()    # (block, its eigvals future), oldest first
    chunks = []
    # this thread evaluates each block and hands its stack to the workers
    # (LAPACK releases the GIL); with one block more in flight than there are
    # workers, it pairs and formats the oldest while they factorise the rest
    try:
        for start in range(0, len(dps), BLOCK):
            block = dps[start:start + BLOCK]
            # no name holds the stack, so it is freed once its worker is done
            pending.append((block, pool.submit(
                np.linalg.eigvals, family_mod.evaluate_many(fam, p0 + block))))
            if len(pending) > pool._max_workers:
                chunks.append(_surface_chunk(model, p0, *pending.popleft()))
        while pending:
            chunks.append(_surface_chunk(model, p0, *pending.popleft()))
    finally:
        for _, spectra in pending:   # after an error: drop the blocks not yet started
            spectra.cancel()
    header = ["p1", "p2", "re_plus", "re_minus", "im_plus", "im_minus",
              "re_plus_exact", "re_minus_exact", "im_plus_exact",
              "im_minus_exact", "pair_margin_flag"]
    _write_files((opts["out"], [",".join(header) + "\n", *chunks]))
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
    out = Path(opts["out"])
    side_path = out.with_suffix(".json") if out.suffix == ".csv" else Path(str(out) + ".json")
    csv = _csv(["phi", "re_plus", "im_plus", "re_minus", "im_minus"], table)
    _write_files((opts["out"], [csv]), (str(side_path), [_json_text(report)]))
    return EXIT_OK


def cmd_find_ep(opts) -> int:
    fam = _load_family(opts["family"])
    if fam.n_params != 2 or fam.dim < 2:
        raise _UsageError("find-ep needs a two-parameter family of dimension >= 2")
    guess = np.asarray(_floats(opts["at"], "--at"))
    _emit_json(degeneracy.find_ep(fam, guess), opts.get("out"))
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
    chart_2p = kind.kind == "DP" and not opts.get("offset")
    if chart_2p and fam.n_params != 2:
        raise _UsageError("two-parameter classification needs n = 2; "
                          "pass --offset for the one-parameter scenario")
    if opts.get("format") == "csv":
        if chart_2p:
            raise _UsageError("--format csv at a DP anchor needs --offset (the "
                              "two-parameter classification is a JSON report)")
        if not opts.get("out"):
            raise _UsageError("--format csv requires --out")
        dps = sweep(offset)
        table = np.column_stack((p0[0] + dps[:, 0], sheets(model, dps).sheets))
        _write_files((opts["out"], [_csv(["p1", "re_plus", "re_minus", "im_plus", "im_minus"],
                                         table)]))
        return EXIT_OK
    if kind.kind == "EP":
        label, report = "EP", ep_asymptotics.cross_section(model, offset)
    elif not chart_2p:
        label, report = "DP-1p", dp_asymptotics.avoided_crossing_1p(model, offset)
    else:
        label, report = "DP", dp_asymptotics.surface_classification_2p(model)
    _emit_json({"kind": label, **_plain(report)}, opts.get("out"))
    return EXIT_OK


_ANCHOR_FLAGS = ("family", "at", "tol_cluster", "tol_rank", "out")

#: command -> its function and the flags it reads (as option keys)
_COMMANDS = {
    "classify": (cmd_classify, _ANCHOR_FLAGS),
    "surface": (cmd_surface, _ANCHOR_FLAGS + ("window", "res")),
    "loop": (cmd_loop, _ANCHOR_FLAGS + ("loop", "samples")),
    "find-ep": (cmd_find_ep, ("family", "at", "out")),
    "scenario": (cmd_scenario, _ANCHOR_FLAGS + ("offset", "format")),
}

_DEFAULTS = {
    "window": "-0.1,0.1",
    "res": 41,
    "tol_cluster": degeneracy.DEFAULT_CLUSTER_TOL,
    "tol_rank": numkit.DEFAULT_RANK_TOL,
    "samples": ep_asymptotics.LoopSpec.samples,
    "format": "json",
}


#: the flags, each taking one value, and their ``add_argument`` keywords
_FLAGS = (
    ("--family", {"help": "builtin name or family JSON path"}),
    ("--at", {"help": "anchor point (find-ep: starting guess), comma-separated"}),
    ("--window", {"help": "grid window 'lo,hi' or 'lo1,hi1,lo2,hi2'"}),
    ("--res", {"type": int, "help": "grid resolution per axis"}),
    ("--tol-cluster", {"type": float, "dest": "tol_cluster"}),
    ("--tol-rank", {"type": float, "dest": "tol_rank"}),
    ("--loop", {"help": "loop parameters a,b,r"}),
    ("--samples", {"type": int, "help": "loop sample count"}),
    ("--offset", {"help": "fixed offsets of parameters 2..n"}),
    ("--out", {"help": "output file path"}),
    ("--format", {"choices": ("csv", "json")}),
    ("--config", {"help": "JSON config file; flags override it"}),
)

#: a flag value that starts like a negative number: "-0.1,0.1", "-.5", "-1e-3"
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process on first use."""
    parser = _Parser(prog="eigencoupling", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    for flag, keywords in _FLAGS:
        parser.add_argument(flag, **keywords)
    return parser


def _attach_negative_values(argv: list) -> list:
    """Spell ``--flag -0.1,0.1`` as ``--flag=-0.1,0.1``.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number, so a list such as -0.1,0.1 after --window, --loop
    or --offset would not reach its flag; the attached spelling always does.
    A unique prefix of a flag counts as the flag, as it does for argparse;
    an ambiguous one is left for argparse to refuse.
    """
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (_NEGATIVE_VALUE.match(token) and len(flag) > 2 and "=" not in flag
                and sum(name.startswith(flag) for name, _ in _FLAGS) == 1):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def _check_value(name: str, key: str, value) -> None:
    """Refuse a value of option ``key`` that its entry in ``_FLAGS`` does
    not admit: an integer for an int flag, a positive finite number for a
    float flag (the tolerances), one of the choices, or else a string."""
    keywords = dict(_FLAGS)["--" + key.replace("_", "-")]
    kind = keywords.get("type")
    if "choices" in keywords:
        ok, what = value in keywords["choices"], "one of " + ", ".join(keywords["choices"])
    elif kind is int:
        ok, what = type(value) is int, "an integer"
    elif kind is float:
        ok = type(value) in (int, float) and 0 < value < math.inf
        what = "a positive finite number"
    else:
        ok, what = isinstance(value, str), "a string"
    if not ok:
        raise _UsageError(f"{name} must be {what}, got {value!r}")


def _merge_options(args: argparse.Namespace) -> dict:
    """Defaults, then the config file (its keys may serve other commands),
    then the flags, each of which the command must read. Every value the
    command reads passes ``_check_value``."""
    read = _COMMANDS[args.command][1]
    flags = {key: value for key, value in vars(args).items()
             if value is not None and key not in ("command", "config")}
    unread = ["--" + key.replace("_", "-") for key in flags if key not in read]
    if unread:
        raise _UsageError(f"{args.command} does not read {', '.join(unread)}")
    opts = dict(_DEFAULTS)
    if args.config:
        text = _read_text(args.config, f"config file '{args.config}' not found")
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise _UsageError("config file must hold a JSON object")
        for name, value in cfg.items():
            key = str(name).replace("-", "_")
            if key in read:
                _check_value(f"config key '{name}'", key, value)
            opts[key] = value
    for key, value in flags.items():
        _check_value("--" + key.replace("_", "-"), key, value)
    opts.update(flags)
    for key in ("family", "at"):
        if not opts.get(key):
            raise _UsageError(f"--{key} is required")
    return opts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_attach_negative_values(argv))
        opts = _merge_options(args)
        return _COMMANDS[args.command][0](opts)
    except (_UsageError, EigenCouplingError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, ConvergenceError) and exc.residual_history:
            history = ", ".join(f"{x:.3e}" for x in exc.residual_history)
            print(f"residual history: {history}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
