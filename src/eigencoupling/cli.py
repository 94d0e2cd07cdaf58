"""Command-line front end.

Loads a matrix family (builtin crystal or JSON file), runs the detection /
classification / asymptotics pipelines, and emits deterministic CSV or JSON
suitable for external plotting. Exit codes: 0 success, 1 usage or parse
error, 2 no degeneracy found at the anchor, 3 domain error, 4 non-convergence.
"""

from __future__ import annotations

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

from . import crystal_optics, degeneracy, errors, numkit
from . import family as family_mod
from .pairmodel import sheets, sweep

#: grid points per block of ``surface``: a block shares one family
#: evaluation, one stacked eigvals, one pair assignment and one call of
#: ``_rows``; with at most workers + 1 blocks in flight their arrays take
#: the same memory on any grid, and only the formatted bytes grow with it
BLOCK = 256


def _floats(text: str, what: str):
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise errors.EigenCouplingError(f"cannot parse {what} '{text}': {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise errors.EigenCouplingError(f"{what} '{text}' has non-finite values")
    return values


def _read_text(path: str, missing: str) -> str:
    """The UTF-8 text of the file at ``path``, read in text mode (CR and
    CR LF as LF). A path that names no file fails with the message
    ``missing``; any other failure to read names the path and its cause."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise errors.EigenCouplingError(f"cannot read '{path}': {exc}") from exc
    # ValueError: a NUL byte in the path
    except (FileNotFoundError, NotADirectoryError, ValueError) as exc:
        raise errors.EigenCouplingError(missing) from exc
    except OSError as exc:
        raise errors.EigenCouplingError(f"cannot read '{path}': {exc.strerror or exc}") from exc


def _load_family(source: str) -> family_mod.MatrixFamily:
    """The family ``source`` names: a builtin crystal, built once per
    process by ``_builtin``, or else the family document in the file at that
    path. The file is read on every call, so a rewritten file loads afresh;
    its text is parsed by ``_parsed``, once per process while it stays the
    last text parsed."""
    builtins = crystal_optics.builtin_specs()
    if source in builtins:
        return _builtin(source)
    return _parsed(_read_text(
        source, f"family '{source}' is neither a builtin "
                f"({', '.join(sorted(builtins))}) nor an existing file"))


@functools.cache
def _builtin(name: str) -> family_mod.MatrixFamily:
    """The family of the builtin crystal ``name``, built on its first load:
    the commands of one process share it, as they share a parsed document."""
    return crystal_optics.family_adapter(crystal_optics.builtin_specs()[name])


@functools.lru_cache(maxsize=1)
def _parsed(text: str) -> family_mod.PolynomialFamily:
    """``family.parse_family(text)``, kept for the last text: the commands
    of one process that load the same document share one family, whose
    arrays are read-only. A refused text raises again on every call, since
    the cache keeps no exception."""
    return family_mod.parse_family(text)


def _read_only(obj):
    """``obj``, its array attributes made read-only."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


class _Analysis:
    """What the commands read at an anchor p0: the tightest eigenvalue
    cluster of A(p0), its classification, and the EP or DP local model,
    built on first use. The commands of a process share it (``_anchor``),
    so every array it holds is read-only."""

    def __init__(self, fam, p0, cluster, kind):
        self._fam, self._p0 = fam, p0
        self.cluster, self.kind = cluster, kind

    @functools.cached_property
    def model(self):
        """The local model of the classified cluster. A refused chain or
        frame is not stored and raises again on the next use. A command
        imports the asymptotics module of its anchor's kind only here."""
        if self.kind.kind == "EP":
            from . import ep_asymptotics
            model = ep_asymptotics.sensitivities(
                self._fam, degeneracy.jordan_chain(self.kind), self._p0)
        else:
            from . import dp_asymptotics
            model = dp_asymptotics.dp_sensitivities(
                self._fam, degeneracy.dp_frame(self.kind), self._p0)
        return _read_only(model)


@functools.lru_cache(maxsize=1)
def _anchor(fam, at: bytes, tol_cluster, tol_rank) -> _Analysis:
    """The analysis of the point whose float64 coordinates have the bytes
    ``at``: the first of ``find_double_eigenvalues``'s nearest-first
    clusters of A(at), and its classification. Kept for the last anchor,
    keyed by the family object, the bits of the point (-0.0 is not 0.0)
    and both tolerances; a refused anchor raises again on every call, since
    the cache keeps no exception."""
    p0 = np.frombuffer(at)
    a = family_mod.evaluate(fam, p0)
    clusters = degeneracy.find_double_eigenvalues(a, tol_cluster)
    if not clusters:
        raise errors.ClassificationError(
            f"no eigenvalue cluster at ({', '.join(str(float(x)) for x in p0)})")
    kind = degeneracy.classify(a, clusters[0].center, tol_rank)
    _read_only(kind.shifted)
    return _Analysis(fam, p0, clusters[0], kind)


def _write_files(*files):
    """Write each ``(path, parts)`` of ``files``, the concatenation of the
    bytes ``parts`` to ``path``, as they are, or leave none: when one cannot
    be written, it and the files written before it are removed again
    (regular files only, not a device such as /dev/null)."""
    written = []
    for path, parts in files:
        try:
            with open(path, "wb") as handle:
                written.append(path)
                handle.writelines(parts)
        except OSError as exc:
            for done in written:
                if os.path.isfile(done):
                    with contextlib.suppress(OSError):
                        os.remove(done)
            raise errors.EigenCouplingError(
                f"cannot write '{path}': {exc.strerror or exc}") from exc


def _fields(report) -> dict:
    """A dataclass's fields by name, less those declared ``field(repr=False)``."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.repr}


def _json_text(obj) -> str:
    """The JSON text of a report, as ``json.dumps(value, indent=2,
    sort_keys=True, allow_nan=False)`` writes its value: a dataclass is
    ``_fields``; complex is {re, im}; sequences and arrays are lists; a
    non-finite float is null."""
    parts = []
    _put_json(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _put_json(obj, newline: str, parts: list) -> None:
    """Append the JSON text of ``obj`` to ``parts``, its lines indented
    after ``newline`` as json.dumps indents them at this depth."""
    if isinstance(obj, float):
        parts.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        parts.append(_JSON_STRING(obj))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, complex):
        _put_json({"re": obj.real, "im": obj.imag}, newline, parts)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) == 0:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _put_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, dict) or dataclasses.is_dataclass(obj):
        if not isinstance(obj, dict):
            obj = _fields(obj)
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(sep + _JSON_STRING(key) + ": ")
            _put_json(obj[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


#: how json.dumps writes a string (ensure_ascii)
_JSON_STRING = json.encoder.encode_basestring_ascii


@functools.cache
def _digit_tables():
    """``_format``'s tables, built on the first CSV. Per j in [-300, 340]:
    2^j and 5^j, 5^j as hi + lo with hi's Veltkamp halves, each part rounded
    from Python integers; and the layout of X = 16 - j: the index of the
    last integer digit, the masks of the body bytes before the '.' and of
    the '.' (none below 1, none at X = 16), the "-0.0.." word less its sign
    and the "e+XX" word. The ASCII words of 0000-9999 and the index of their
    last nonzero digit (-99 for 0000); per word of a 24-byte body the masks
    of its first k bytes."""
    parts = []
    for j in range(-300, 341):
        num, den = (5 ** j, 1) if j >= 0 else (1, 5 ** -j)
        hi = num / den      # correctly rounded, as is the remainder below
        hn, hd = hi.as_integer_ratio()
        parts.append((2.0 ** j, hi, (num * hd - hn * den) / (den * hd)))
    two, hi, lo = np.array(parts).T
    split = hi * 134217729.0
    high = split - (split - hi)
    place = np.array([1000, 100, 10, 1], np.int16)
    quads = (np.arange(10000, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    nonzero = quads != 0
    last = np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero[:, ::-1], axis=1), -99)
    quads = (quads + ord("0")).view(np.uint32).ravel().astype(np.uint64)
    first = np.frombuffer(bytes([255] * 24 + [0] * 24), np.uint8)
    first = np.stack([first[24 - k:48 - k] for k in range(25)]).view(np.uint64).T.copy()
    exp10 = 16 - np.arange(-300, 341)
    fixed = (exp10 >= -4) & (exp10 <= 16)
    below1 = fixed & (exp10 < 0)
    lead = exp10 * fixed        # index of the last integer digit, or below 0
    cut = np.maximum(lead + 1, 17 * below1)
    low = first[:, cut]
    dot = (first[:, cut + 1] ^ low) & np.uint64(0x2E2E2E2E2E2E2E2E)
    dot *= (lead < 16) & ~below1
    prefix = np.array([0] + [int.from_bytes(b"0." + b"0" * k, "little") << 8
                             for k in range(4)], np.uint64)
    power = np.abs(exp10)
    power = quads.take(power) >> np.uint64(16) - np.uint64(8) * (power >= 100)
    sign = np.uint64(ord("+")) + np.uint64(2) * (exp10 < 0)
    suffix = (power << np.uint64(32) | sign << np.uint64(24) | np.uint64(ord("e") << 16)) * ~fixed
    return (two, hi, lo, high, hi - high, quads, last, first, lead, low, dot,
            prefix.take(-exp10 * below1), suffix)


def _format(block, ends) -> bytes:
    """CSV lines of a 2-d float array as ``_rows``; ``ends`` holds each
    column's separator in its top byte. |x| = D 10^(X-16) to 17 digits, X =
    floor(log10 |x|): D is |x| 2^j 5^j, j = 16 - X, rounded in double-double
    arithmetic (Dekker's exact product; error below 2^-46). Non-finite and
    subnormal x take ``'%.17g' % x``, and so do those whose fraction lies
    within 2^-30 of one half or whose D falls outside [10^16, 10^17) (a
    log10 one off). Each value fills 32 bytes, NUL where nothing goes: sign
    and "0.0.." below 1; the digits, '.' after the integer ones; "e+XX" (X <
    -4 or X > 16); separator. All but the sign come from tables at j, except
    where D ends in 0: there the fraction's trailing zeros are blanked and a
    '.' before none is dropped."""
    x = block.ravel()       # a view of the caller's table where it can be: never written
    (two, hi5, lo5, hh5, hl5, quads, last4, first,
     lead_at, low_at, dot_at, prefix_at, suffix_at) = _digit_tables()
    m = np.abs(x)           # each pass below writes into an array it no longer needs
    zero = m == 0.0
    normal = (m >= sys.float_info.min) & (m <= sys.float_info.max)
    m[~normal] = 1.0        # X = 0 for zero and for what '%.17g' writes
    at = np.log10(m)
    at = 316 - np.floor(at, out=at).astype(np.int64)   # j = 16 - X; the tables start at -300
    m *= two.take(at)
    p = m * hi5.take(at)
    mh = m * 134217729.0    # Veltkamp's split m = mh + ml
    ml = mh - m
    mh -= ml
    ml = np.subtract(m, mh, out=ml)
    hh, hl = hh5.take(at), hl5.take(at)
    s = mh * hh             # m hi5 - p, + m lo5
    s -= p
    s += np.multiply(mh, hl, out=mh)
    s += np.multiply(ml, hh, out=hh)
    s += np.multiply(ml, hl, out=hl)
    s += np.multiply(m, lo5.take(at), out=m)
    hi = np.add(p, s, out=mh)
    lo = np.subtract(s, np.subtract(hi, p, out=p), out=s)
    whole = np.floor(lo, out=p)
    half = np.subtract(lo, whole, out=lo)
    digits = np.add(hi.astype(np.int64), whole.astype(np.int64), out=m.view(np.int64))
    ok = np.abs(np.subtract(half, 0.5, out=whole), out=whole) >= 2.0 ** -30
    ok &= normal & (digits >= 10 ** 16)
    digits += half > 0.5
    del m, p, mh, ml, hh, hl, s, hi, lo, whole, half
    ok &= digits < 10 ** 17
    digits[~ok] = 0         # zero prints as "0"; '%.17g' overwrites the rest
    # D's digits in groups of 4, 4, 4, 4 and 1, from its floor quotients by 10^13, 10^9, 10^5, 10
    groups = [digits // 10 ** k for k in (13, 9, 5, 1)]
    g16 = np.subtract(digits, 10 * groups[3], out=digits)
    for k in (3, 2, 1):
        groups[k] -= 10000 * groups[k - 1]
    words = [quads.take(groups[0]) | quads.take(groups[1]) << np.uint64(32),
             quads.take(groups[2]) | quads.take(groups[3]) << np.uint64(32),
             quads.take(g16) >> np.uint64(24)]
    # where D ends in 0: the index of its last nonzero digit, and what that keeps
    tail = np.flatnonzero(g16 == 0)
    last = np.max([last4.take(g[tail]) + k for g, k in zip(groups, (0, 4, 8, 12))], axis=0)
    del groups, g16, digits
    lead = lead_at.take(at[tail])
    keep = np.maximum(last, lead) + 1
    no_dot = tail[last <= lead]
    out = np.empty((x.size, 4), np.uint64)
    out[:, 0] = np.signbit(x) * np.uint64(ord("-")) | prefix_at.take(at)
    spill = np.uint64(0)
    for w, word in enumerate(words):    # the digits, with '.' after the integer ones
        word[tail] &= first[w].take(keep)
        low = low_at[w].take(at)
        low &= word
        high = np.bitwise_xor(word, low, out=word)
        dot = dot_at[w].take(at)
        dot[no_dot] = 0
        low |= dot
        low |= np.left_shift(high, np.uint64(8), out=dot)
        np.bitwise_or(low, spill, out=out[:, w + 1])
        spill = np.right_shift(high, np.uint64(56), out=high)
    out[:, 3] |= suffix_at.take(at)
    out.reshape(block.shape + (4,))[:, :, 3] |= ends
    del words, word, low, high, dot, spill, at
    slow = np.flatnonzero(~(ok | zero))
    out.view(np.uint8).reshape(-1, 32)[slow, :31] = np.array(
        ["%.17g" % v for v in x[slow].tolist()], "S31").view(np.uint8).reshape(-1, 31)
    data = out.tobytes()
    del out
    return data.translate(None, b"\0")


def _rows(table) -> list:
    """CSV lines of a 2-d float array, each float as ``'%.17g' % v`` writes
    it (17 significant digits round-trip doubles), as ASCII bytes in chunks:
    ``_format`` writes 2048 rows at a time, so that its arrays stay small,
    and the chunks go to the file as they are."""
    table = np.asarray(table, dtype=float)
    ends = np.full(table.shape[1], ord(","), np.uint64) << np.uint64(56)
    ends[-1] = ord("\n") << 56
    return [_format(table[start:start + 2048], ends)
            for start in range(0, len(table), 2048)]


def _csv(header, chunks) -> list:
    """The parts of a CSV file, in bytes: the header line, then the
    ``_rows`` chunks."""
    return [(",".join(header) + "\n").encode(), *chunks]


def cmd_classify(opts) -> dict:
    fam = _load_family(opts["family"])
    at = np.asarray(_floats(opts["at"], "--at"))
    anchor = _anchor(fam, at.tobytes(), opts["tol_cluster"], opts["tol_rank"])
    cluster, kind = anchor.cluster, anchor.kind
    return {
        "lambda0": cluster.center,
        "kind": kind.kind,
        "geometric_multiplicity": kind.geometric_multiplicity,
        "cluster_gap": cluster.internal_gap,
        "external_gap": cluster.external_gap,   # inf (null) when no eigenvalue lies outside
        "codimension": degeneracy.codimension("complex-nonsymmetric", kind.kind),
    }


def _window_axes(window, res):
    vals = _floats(window, "--window")
    if len(vals) == 2:
        lo1, hi1 = lo2, hi2 = vals
    elif len(vals) == 4:
        lo1, hi1, lo2, hi2 = vals
    else:
        raise errors.EigenCouplingError("--window needs 'lo,hi' or 'lo1,hi1,lo2,hi2'")
    if not (math.isfinite(hi1 - lo1) and math.isfinite(hi2 - lo2)):
        raise errors.EigenCouplingError(f"--window '{window}' is too wide: hi - lo overflows")
    if res < 2:
        raise errors.EigenCouplingError("--res must be at least 2")
    return np.linspace(lo1, hi1, res), np.linspace(lo2, hi2, res)


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


def _surface_chunk(model, p0, block, spectra) -> bytes:
    """CSV lines of one block of grid offsets: the model's sheets beside the
    exact pair that ``pair_assignment`` matches to the model's pair."""
    try:
        values = spectra.result()
    except np.linalg.LinAlgError as exc:  # iteration cap inside LAPACK, as in numkit
        raise errors.EigenCouplingError(f"eigensolver did not converge: {exc}") from exc
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
    return b"".join(_rows(rows))


def cmd_surface(opts) -> None:
    if not opts.get("out"):
        raise errors.EigenCouplingError("surface requires --out for the CSV file")
    fam = _load_family(opts["family"])
    p0 = np.asarray(_floats(opts["at"], "--at"))
    if fam.n_params != 2:
        raise errors.EigenCouplingError("surface grids need a two-parameter family")
    model = _anchor(fam, p0.tobytes(), opts["tol_cluster"], opts["tol_rank"]).model
    axis1, axis2 = _window_axes(opts["window"], opts["res"])
    dps = np.stack(np.meshgrid(axis1, axis2, indexing="ij"), axis=-1).reshape(-1, 2)
    with np.errstate(over="ignore"):    # the corners bound every point
        if not np.isfinite(p0 + dps[[0, -1]]).all():
            raise errors.DimensionError("the grid points p0 + offset overflow")
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
    _write_files((opts["out"], _csv(header, chunks)))


def cmd_loop(opts) -> None:
    if not opts.get("out"):
        raise errors.EigenCouplingError("loop requires --out for the CSV file")
    if not opts.get("loop"):
        raise errors.EigenCouplingError("loop requires --loop a,b,r")
    vals = _floats(opts["loop"], "--loop")
    if len(vals) != 3:
        raise errors.EigenCouplingError("--loop needs exactly three values a,b,r")
    fam = _load_family(opts["family"])
    p0 = np.asarray(_floats(opts["at"], "--at"))
    anchor = _anchor(fam, p0.tobytes(), opts["tol_cluster"], opts["tol_rank"])
    if anchor.kind.kind != "EP":
        raise errors.ClassificationError("loop trajectories need an EP anchor")
    model = anchor.model
    from . import ep_asymptotics
    spec = ep_asymptotics.LoopSpec(a=vals[0], b=vals[1], r=vals[2],
                                   samples=opts.get("samples", ep_asymptotics.LoopSpec.samples))
    report = ep_asymptotics.loop_trajectory(model, spec)
    table = np.column_stack((report.phis, report.lam_plus.real, report.lam_plus.imag,
                             report.lam_minus.real, report.lam_minus.imag))
    out = Path(opts["out"])
    side_path = out.with_suffix(".json") if out.suffix == ".csv" else Path(str(out) + ".json")
    csv = _csv(["phi", "re_plus", "im_plus", "re_minus", "im_minus"], _rows(table))
    _write_files((opts["out"], csv), (str(side_path), [_json_text(report).encode()]))


def cmd_find_ep(opts) -> degeneracy.EPSearchResult:
    fam = _load_family(opts["family"])
    return degeneracy.find_ep(fam, np.asarray(_floats(opts["at"], "--at")))


def cmd_scenario(opts) -> dict | None:
    fam = _load_family(opts["family"])
    p0 = np.asarray(_floats(opts["at"], "--at"))
    anchor = _anchor(fam, p0.tobytes(), opts["tol_cluster"], opts["tol_rank"])
    kind = anchor.kind
    offset = (_floats(opts["offset"], "--offset")
              if opts.get("offset") else [0.0] * (fam.n_params - 1))
    if len(offset) != fam.n_params - 1:
        count = fam.n_params - 1
        raise errors.EigenCouplingError(f"--offset needs {count} component{'s' * (count != 1)}")
    model = anchor.model
    chart_2p = kind.kind == "DP" and not opts.get("offset")
    if chart_2p and fam.n_params != 2:
        raise errors.EigenCouplingError("two-parameter classification needs n = 2; "
                                        "pass --offset for the one-parameter scenario")
    if opts.get("format") == "csv":
        if chart_2p:
            raise errors.EigenCouplingError("--format csv at a DP anchor needs --offset (the "
                                            "two-parameter classification is a JSON report)")
        if not opts.get("out"):
            raise errors.EigenCouplingError("--format csv requires --out")
        dps = sweep(offset)
        table = np.column_stack((p0[0] + dps[:, 0], sheets(model, dps).sheets))
        _write_files((opts["out"], _csv(["p1", "re_plus", "re_minus", "im_plus", "im_minus"],
                                        _rows(table))))
        return None
    if kind.kind == "EP":
        from . import ep_asymptotics
        label, report = "EP", ep_asymptotics.cross_section(model, offset)
    else:
        from . import dp_asymptotics
        if not chart_2p:
            label, report = "DP-1p", dp_asymptotics.avoided_crossing_1p(model, offset)
        else:
            label, report = "DP", dp_asymptotics.surface_classification_2p(model)
    return {"kind": label, **_fields(report)}


_ANCHOR_FLAGS = ("family", "at", "tol_cluster", "tol_rank", "out")

#: command -> its function, which returns the JSON report main writes (None
#: when it wrote its own files), and the flags it reads (as option keys)
_COMMANDS = {
    "classify": (cmd_classify, _ANCHOR_FLAGS),
    "surface": (cmd_surface, _ANCHOR_FLAGS + ("window", "res")),
    "loop": (cmd_loop, _ANCHOR_FLAGS + ("loop", "samples")),
    "find-ep": (cmd_find_ep, ("family", "at", "out")),
    "scenario": (cmd_scenario, _ANCHOR_FLAGS + ("offset", "format")),
}

#: the flags, each taking one value: its type, choices and default, if any, and its help
_FLAGS = {
    "--family": {"help": "builtin name or family JSON path"},
    "--at": {"help": "anchor point (find-ep: starting guess), comma-separated"},
    "--window": {"default": "-0.1,0.1", "help": "grid window 'lo,hi' or 'lo1,hi1,lo2,hi2'"},
    "--res": {"type": int, "default": 41, "help": "grid resolution per axis"},
    "--tol-cluster": {"type": float, "default": degeneracy.DEFAULT_CLUSTER_TOL,
                      "help": "eigenvalue cluster tolerance"},
    "--tol-rank": {"type": float, "default": degeneracy.DEFAULT_RANK_TOL,
                   "help": "rank tolerance, relative to the largest singular value"},
    "--loop": {"help": "loop parameters a,b,r"},
    "--samples": {"type": int, "help": "loop sample count"},
    "--offset": {"help": "fixed offsets of parameters 2..n"},
    "--out": {"help": "output file path"},
    "--format": {"choices": ("csv", "json"), "default": "json", "help": "scenario output type"},
    "--config": {"help": "JSON config file; flags override it"},
}

#: the largest value of each int flag whose float64 arrays numpy can size
#: (sys.maxsize bytes): res^2 grid points of two coordinates, one per sample
_MAX_COUNT = {"res": math.isqrt(sys.maxsize // 16), "samples": sys.maxsize // 8}

#: a token that starts like a negative number ("-0.1,0.1", "-1e-3"): a flag's value;
#: group 1 holds a plain number ("-5", "-.5"), which is positional standing alone
_NEGATIVE = re.compile(r"-(?=\.?\d)(\d+$|\d*\.\d+$)?")


def _option(token: str):
    """(flag, the value after '=' or None) for an option token, which may be a unique prefix
    of the flag; (None, None) for an unknown option; None for a positional token."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    names = [option for option in ("-h", "--help", *_FLAGS) if option.startswith(name)]
    if len(names) > 1:
        raise errors.EigenCouplingError(
            f"ambiguous option: {token} could match {', '.join(names)}")
    if names:
        return names[0], value if eq else None
    number = _NEGATIVE.match(token)
    return None if number and number[1] or " " in token else (None, None)


def _parse_argv(argv):
    """The command and the given flags of ``argv`` by option key, in one pass, or None for
    ``--help``: the command anywhere, ``--flag value`` or ``--flag=value``, the last of a repeated
    flag, only positionals after ``--``; checks, order and messages as Python's standard parser."""
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option(token) for token in argv[:end]]
    flags, extras, i = {}, [], 0
    while i < len(argv):
        token, option = argv[i], options[i] if i < end else None
        i += 1
        if i == end + 1 and ("command" not in flags or command_at == end - 1):
            continue    # a '--' beside the command is dropped
        if option is None and "command" not in flags:
            option, command_at = ("command", token), i - 1
        if option is None or option[0] is None:
            extras.append(token)
            continue
        flag, value = option
        if flag in ("-h", "--help"):
            return None
        if value is None:
            if not (i < end and (options[i] is None or _NEGATIVE.match(argv[i]))):
                raise errors.EigenCouplingError(f"argument {flag}: expected one argument")
            value, i = argv[i], i + 1
        keywords = _FLAGS.get(flag, {"choices": _COMMANDS})
        kind, choices = keywords.get("type", str), keywords.get("choices")
        try:
            flags[flag] = value = kind(value)
        except ValueError:
            raise errors.EigenCouplingError(
                f"argument {flag}: invalid {kind.__name__} value: {value!r}")
        if choices and value not in choices:
            raise errors.EigenCouplingError(f"argument {flag}: invalid choice: {value!r} "
                                            f"(choose from {', '.join(map(repr, choices))})")
    if "command" not in flags:
        raise errors.EigenCouplingError("the following arguments are required: command")
    if extras:
        raise errors.EigenCouplingError(f"unrecognized arguments: {' '.join(extras)}")
    return flags["command"], {f[2:].replace("-", "_"): flags[f] for f in _FLAGS if f in flags}


def _check_value(name: str, key: str, value) -> None:
    """Refuse a value of option ``key`` that its entry in ``_FLAGS`` does
    not admit: an integer up to ``_MAX_COUNT`` for an int flag, a positive
    finite double for a float flag (the tolerances), one of the choices, or
    else a non-empty string."""
    keywords = _FLAGS["--" + key.replace("_", "-")]
    kind = keywords.get("type")
    if "choices" in keywords:
        ok, what = value in keywords["choices"], "one of " + ", ".join(keywords["choices"])
    elif kind is int:
        ok, what = type(value) is int, "an integer"
        if ok and value > _MAX_COUNT[key]:
            ok, what = False, f"at most {_MAX_COUNT[key]} (numpy sizes no larger arrays)"
    elif kind is float:
        ok = type(value) in (int, float) and 0 < value <= sys.float_info.max
        what = "a positive finite number"
    else:
        ok, what = isinstance(value, str) and value != "", "a non-empty string"
    if not ok:
        raise errors.EigenCouplingError(f"{name} must be {what}, got {value!r}")


def _merge_options(command: str, flags: dict) -> dict:
    """Defaults, then the config file (its keys may serve other commands),
    then the flags, each of which the command must read. Every value the
    command reads, and the config file's path, passes ``_check_value``."""
    read = _COMMANDS[command][1]
    config = flags.pop("config", None)
    unread = ["--" + key.replace("_", "-") for key in flags if key not in read]
    if unread:
        raise errors.EigenCouplingError(f"{command} does not read {', '.join(unread)}")
    opts = {f[2:].replace("-", "_"): kw["default"] for f, kw in _FLAGS.items() if "default" in kw}
    if config is not None:
        _check_value("--config", "config", config)
        text = _read_text(config, f"config file '{config}' not found")
        try:
            cfg = json.loads(text)
        except ValueError as exc:   # also an integer of more digits than int() reads
            raise errors.EigenCouplingError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise errors.EigenCouplingError("config file must hold a JSON object")
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
            raise errors.EigenCouplingError(f"--{key} is required")
    return opts


def main(argv=None) -> int:
    """Run a command line; the report goes to stdout or --out, an error to stderr."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        parsed = _parse_argv(argv)
        if parsed is None:      # -h or --help
            print(f"usage: eigencoupling {{{','.join(_COMMANDS)}}} [--flag value | --flag=value]"
                  " ...\n", __doc__, *(f"  {flag:<15}{keywords['help']}"
                                       for flag, keywords in _FLAGS.items()), sep="\n")
            return 0
        opts = _merge_options(*parsed)
        report = _COMMANDS[parsed[0]][0](opts)
        if report is not None and opts.get("out"):
            _write_files((opts["out"], [_json_text(report).encode()]))
        elif report is not None:
            sys.stdout.write(_json_text(report))
        return 0
    except (errors.EigenCouplingError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, errors.ConvergenceError) and exc.residual_history:
            history = ", ".join(f"{x:.3e}" for x in exc.residual_history)
            print(f"residual history: {history}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)    # MemoryError has none


def entry():
    sys.exit(main())
