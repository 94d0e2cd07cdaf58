"""Benchmark of the eigencoupling command line.

    python3 bench/run.py --workload surface-grid --seed 1 --seconds 30 --trace 0

Drives ``eigencoupling.cli.main(argv)`` in-process, as a closed loop with one
client: the next operation starts when the previous one returns. Inputs come
from ``gen.py`` and the seed; standard output is captured and CSV/JSON files
go to a scratch directory under ``bench/.work``. Every output is checked by
``checks.py`` and compared byte for byte with the first run of the same
operation. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``tracing.py``). Between untraced
operations, and around each timed interpreter start, a fixed reference
kernel runs; the end-to-end times are normalised by it (see
``REF_NOMINAL_S``), which takes out how fast the shared host happens to run
at the moment. The last line of
standard output is one JSON object; the lines before it say the same for a
human. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: grid resolution of surface-grid (the CLI default is 41) and loop samples
#: of loop-trace; sized so that a 30 s run holds 100+ operations
SURFACE_RES = 41
LOOP_SAMPLES = 14400
#: tail percentile per workload: the highest with ten or more samples beyond
#: it in a 30 s run of the code this benchmark was first run on
TAIL_PERCENTILE = {"surface-grid": 90, "loop-trace": 90, "anchor-search": 99}
#: fresh interpreters timed for setup_s, before and after the timed phase
SETUP_REPEATS = (5, 4)
#: End-to-end times are normalised seconds: wall time x REF_NOMINAL_S over
#: the reference kernel's wall time next to it, i.e. seconds on a host where
#: the kernel takes REF_NOMINAL_S (about its time on a quiet 2-vCPU x86-64
#: VM). An operation is normalised by the median of the REF_WINDOW reference
#: samples nearest to it: the one just before and the one just after.
REF_NOMINAL_S = 0.003
REF_WINDOW = 2
#: a traced run stops early past this many spans, to bound its memory
SPAN_CAP = 2_000_000

SETUP_CODE = """
import pathlib, sys
sys.path.insert(0, sys.argv[1])
import eigencoupling as ec
builtins = ec.crystal_optics.builtin_specs()
for source in sys.argv[2:]:
    if source in builtins:
        ec.crystal_optics.family_adapter(builtins[source])
    else:
        ec.parse_family(pathlib.Path(source).read_text(encoding="utf-8"))
"""


@dataclass
class Step:
    command: str
    argv: list
    files: tuple = ()


@dataclass
class Op:
    anchor: object
    steps: list
    check: object              # callable(results, outcome)
    items: int = 0             # grid points or trajectory samples produced


@dataclass
class Result:
    command: str
    code: object               # exit code, or "exception"
    seconds: float
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)


@dataclass
class Record:
    index: int
    cycle: int
    start: float
    seconds: float
    step_seconds: dict
    problems: list
    known: list
    out_bytes: int
    items: int

    @property
    def ok(self) -> bool:
        return not self.problems and not self.known


def _pt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _reference_inputs():
    import numpy as np
    k = np.arange(36.0).reshape(6, 6)
    return (np.cos(k) + 1j * np.sin(2.0 * k)) / 3.0


def reference_kernel(matrix, eigvals, svd) -> int:
    """Fixed work of the kinds the program does (small LAPACK calls, float
    formatting, JSON) that touches nothing of the package, so no change to
    the package moves its time; only the host's speed does."""
    size = 0
    for i in range(60):
        shifted = matrix + 1e-3 * i
        values = eigvals(shifted)
        size += len(",".join(repr(float(x)) for x in values.real))
        size += len(json.dumps({"s": svd(shifted, compute_uv=False).tolist(), "i": i}))
    return size


def surface_grid(anchors, refs, out: Path, checks) -> list:
    ops = []
    for a in anchors:
        argv = ["surface", "--family", a.family, "--at", _pt(a.at),
                f"--window={_pt(a.window)}", "--res", str(SURFACE_RES),
                "--out", str(out / "surface.csv")]
        ops.append(Op(a, [Step("surface", argv, ("surface.csv",))],
                      lambda rs, o, a=a: checks.check_surface(a, refs[a.name], rs[0], o, SURFACE_RES),
                      items=SURFACE_RES * SURFACE_RES))
    return ops


def loop_trace(anchors, refs, out: Path, checks) -> list:
    ops = []
    for a in anchors:
        if a.kind != "EP":
            continue
        for (x, y, r, regime), offset in zip(a.loops, a.offsets):
            loop = ["loop", "--family", a.family, "--at", _pt(a.at), f"--loop={_pt((x, y, r))}",
                    "--samples", str(LOOP_SAMPLES), "--out", str(out / "loop.csv")]
            section = ["scenario", "--family", a.family, "--at", _pt(a.at),
                       f"--offset={_pt([offset])}", "--format", "csv",
                       "--out", str(out / "section.csv")]

            def check(rs, o, a=a, regime=regime):
                checks.check_loop(a, refs[a.name], rs[0], o, regime, LOOP_SAMPLES)
                checks.check_scenario_csv(a, refs[a.name], rs[1], o)

            ops.append(Op(a, [Step("loop", loop, ("loop.csv", "loop.json")),
                              Step("scenario", section, ("section.csv",))],
                          check, items=LOOP_SAMPLES))
    return ops


def anchor_search(anchors, refs, out: Path, checks) -> list:
    # four operations per EP anchor (one per Newton guess) and two per DP
    # anchor: the slower EP operations are two thirds of the mix, so the
    # median falls inside their cluster instead of on the EP/DP boundary
    ops = []
    for a in anchors:
        variants = a.guesses if a.kind == "EP" else [None, None]
        for variant, guess in enumerate(variants):
            offset = None if variant % 2 == 0 else a.offsets[variant // 2]
            base = ["--family", a.family, "--at", _pt(a.at)]
            scenario = ["scenario", *base] + ([f"--offset={_pt([offset])}"] if offset is not None else [])
            steps = [Step("classify", ["classify", *base]), Step("scenario", scenario)]
            if guess is not None:
                steps.append(Step("find-ep", ["find-ep", "--family", a.family, "--at", _pt(guess)]))

            def check(rs, o, a=a, offset=offset):
                checks.check_classify(a, refs[a.name], rs[0], o)
                checks.check_scenario_json(a, refs[a.name], rs[1], o, offset)
                if len(rs) > 2:
                    checks.check_find_ep(a, refs[a.name], rs[2], o)

            ops.append(Op(a, steps, check))
    return ops


WORKLOADS = {"surface-grid": surface_grid, "loop-trace": loop_trace,
             "anchor-search": anchor_search}


class Runner:
    """Runs operations through ``cli.main`` and checks what they print."""

    def __init__(self, cli, ops, out: Path, checks, reference: bool):
        import numpy as np
        self.cli = cli
        self.ops = ops
        self.out = out
        self.checks = checks
        self.tracer = None
        self.first_digest = {}
        self.records = []
        self.compared = 0
        self.cycle = 0
        # (mid time, seconds) of each reference sample; the routines are bound
        # here, before a tracer could swap numpy.linalg
        self.reference = reference
        self.refs = []
        self._ref_args = (_reference_inputs(), np.linalg.eigvals, np.linalg.svd)

    def sample_reference(self) -> float:
        start = time.perf_counter()
        reference_kernel(*self._ref_args)
        end = time.perf_counter()
        self.refs.append((0.5 * (start + end), end - start))
        return end - start

    def _call(self, step: Step) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(step.argv)
            except Exception as exc:  # a traceback is a failed operation, not a crash
                code = "exception"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = time.perf_counter() - start
        return Result(step.command, code, seconds, stdout.getvalue(), stderr.getvalue())

    def run_op(self, index: int) -> Record:
        op = self.ops[index]
        for step in op.steps:
            for name in step.files:
                (self.out / name).unlink(missing_ok=True)
        span = self.tracer.op(index) if self.tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            results = [self._call(step) for step in op.steps]
        digest = hashlib.sha256()
        out_bytes = 0
        for step, result in zip(op.steps, results):
            for name in step.files:
                path = self.out / name
                if path.exists():
                    result.files[name] = path.read_bytes()
            for blob in (result.stdout.encode(), *result.files.values()):
                digest.update(len(blob).to_bytes(8, "little") + blob)
                out_bytes += len(blob)
        outcome = self.checks.Outcome()
        try:
            op.check(results, outcome)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            outcome.fail(f"output not in the expected form: {type(exc).__name__}: {exc}")
        if index in self.first_digest:
            self.compared += 1
            if digest.digest() != self.first_digest[index]:
                outcome.fail("output differs byte-wise from the first run of this operation")
        else:
            self.first_digest[index] = digest.digest()
        record = Record(index, self.cycle, start, sum(r.seconds for r in results),
                        {r.command: r.seconds for r in results},
                        outcome.problems, outcome.known, out_bytes, op.items)
        self.records.append(record)
        if self.reference:
            self.sample_reference()
        return record

    def phase(self, seconds: float) -> list:
        """Whole cycles over all operations until ``seconds`` have passed."""
        first = len(self.records)
        deadline = time.perf_counter() + seconds
        while True:
            for index in range(len(self.ops)):
                self.run_op(index)
            self.cycle += 1
            if time.perf_counter() >= deadline:
                break
        return self.records[first:]

    def traced_phase(self, seconds: float, tracer) -> tuple:
        """Untraced and traced cycles in turn, so that both see the same host
        conditions; returns the untraced and the traced records."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            untraced += self.phase(0.0)
            self.tracer = tracer
            tracer.install()
            try:
                traced += self.phase(0.0)
            finally:
                tracer.uninstall()
                self.tracer = None
            if time.perf_counter() >= deadline or len(tracer) >= SPAN_CAP:
                break
        return untraced, traced


def measure_setup(families, repeats: int, reference) -> list:
    """Normalised times of fresh interpreters, one after another, each
    importing the package and loading every family of the workload; each is
    normalised by the reference samples just before and just after it."""
    times = []
    before = reference()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *families],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        after = reference()
        times.append(seconds * REF_NOMINAL_S / statistics.median((before, after)))
        before = after
    return times


def _percentile(values, q: int) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalised(records: list, refs: list) -> list:
    """Each record's time in normalised seconds, against the median of the
    REF_WINDOW reference samples nearest to its start."""
    mids = [mid for mid, _ in refs]
    out = []
    for r in records:
        lo = bisect.bisect(mids, r.start) - REF_WINDOW // 2
        lo = max(0, min(lo, len(refs) - REF_WINDOW))
        ref = statistics.median(s for _, s in refs[lo:lo + REF_WINDOW])
        out.append(r.seconds * REF_NOMINAL_S / ref)
    return out


def cycle_rates(records: list, seconds: list) -> list:
    """Successful operations per second of operation time, one value per
    cycle. Every cycle runs the same operations, so the median of these is a
    throughput that a burst of host contention barely moves."""
    cycles = {}
    for r, s in zip(records, seconds):
        ok, total = cycles.get(r.cycle, (0, 0.0))
        cycles[r.cycle] = (ok + r.ok, total + s)
    return [ok / total for ok, total in cycles.values()]


def end_to_end(workload: str, timed: list, refs: list, setup: list) -> tuple:
    """Gated values in normalised seconds, and the same in wall seconds
    (``wall_*``) as plain lines."""
    seconds = normalised(timed, refs)
    ok_s = [s for r, s in zip(timed, seconds) if r.ok]
    ok_wall = [r.seconds for r in timed if r.ok]
    q = TAIL_PERCENTILE[workload]
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": statistics.median(cycle_rates(timed, seconds)),
        "op_s_p50": _percentile(ok_s, 50),
        "op_s_tail": _percentile(ok_s, q),
    }
    beyond = sum(s > values["op_s_tail"] for s in ok_s)
    notes = {"setup_s": f"median of {len(setup)} interpreters",
             "op_s_tail": f"p{q} of {len(ok_s)} ops, {beyond} beyond it"}
    ref_wall = [s for _, s in refs]
    extra = {
        "ref_wall_s_p50": (_percentile(ref_wall, 50), "s"),
        "wall_ops_per_s": (statistics.median(cycle_rates(timed, [r.seconds for r in timed])), "1/s"),
        "wall_op_s_p50": (_percentile(ok_wall, 50), "s"),
        "wall_op_s_tail": (_percentile(ok_wall, q), "s"),
    }
    notes["ref_wall_s_p50"] = (f"median of {len(ref_wall)} reference samples; "
                               f"normalised s = wall s x {REF_NOMINAL_S} / reference")
    notes["wall_op_s_tail"] = f"p{q}"
    # one step of an operation, normalised like the whole operation
    ok_steps = [(r, s / r.seconds) for r, s in zip(timed, seconds) if r.ok]
    if workload == "surface-grid":
        total = sum(r.step_seconds["surface"] * k for r, k in ok_steps)
        extra["grid_points_per_s"] = (sum(r.items for r, _ in ok_steps) / total, "1/s")
    elif workload == "loop-trace":
        total = sum(r.step_seconds["loop"] * k for r, k in ok_steps)
        extra["trace_samples_per_s"] = (sum(r.items for r, _ in ok_steps) / total, "1/s")
    else:
        found = [r.step_seconds["find-ep"] * k for r, k in ok_steps if "find-ep" in r.step_seconds]
        extra["find_ep_s_p50"] = (_percentile(found, 50), "s")
        notes["find_ep_s_p50"] = f"median of {len(found)} verified EPs"
    return values, extra, notes


def per_layer(summary, traced: list, untraced: list) -> dict:
    ops = summary.ops
    values = {f"{name}.calls": float(summary.calls[i]) / ops
              for i, name in enumerate(summary.names)}
    values.update({f"{name}.s": float(summary.inclusive_s[i]) / ops
                   for i, name in enumerate(summary.names)})
    values.update({f"{layer}.self_s": s / ops for layer, s in summary.layer_self_s.items()})
    values["linalg.s"] = summary.layer_self_s["linalg"] / ops
    values["cli.out_bytes"] = sum(r.out_bytes for r in traced) / len(traced)
    values["degeneracy.find_ep.iterations"] = summary.find_ep_accepted / ops
    values["degeneracy.find_ep.accept_ratio"] = (
        summary.find_ep_accepted / summary.find_ep_trials if summary.find_ep_trials else 0.0)
    values["trace.op_s"] = summary.op_s / ops
    values["untraced.op_s"] = sum(r.seconds for r in untraced) / len(untraced)
    traced_op_s = sum(r.seconds for r in traced) / len(traced)
    values["trace.overhead_frac"] = traced_op_s / values["untraced.op_s"] - 1.0
    return values


def environment() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eigencoupling" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'eigencoupling'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m for m in spec_doc[group]}

    for var in BLAS_VARS:   # one process, no helper threads
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import checks
    import gen
    import eigencoupling
    from eigencoupling import cli

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        anchors = gen.generate(args.seed, scratch / "inputs")
        refs = {a.name: checks.Reference(a) for a in anchors}
        out = scratch / "out"
        out.mkdir()
        ops = WORKLOADS[args.workload](anchors, refs, out, checks)
        families = sorted({op.anchor.family for op in ops})

        runner = Runner(cli, ops, out, checks, reference=not args.trace)
        runner.sample_reference()
        runner.phase(0.0)                                   # warm-up cycle
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(eigencoupling)
            untraced, timed = runner.traced_phase(args.seconds, tracer)
            summary = tracer.summary()
            tracer.write(WORK / f"spans-{args.workload}.npz")
            values = per_layer(summary, timed, untraced)
        else:
            setup = measure_setup(families, SETUP_REPEATS[0], runner.sample_reference)
            timed = runner.phase(args.seconds)
            setup += measure_setup(families, SETUP_REPEATS[1], runner.sample_reference)
            values, extra, notes = end_to_end(args.workload, timed, runner.refs, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if not r.ok]
    unexpected = [r for r in records if r.problems]
    known = {}
    for r in records:
        for name in set(r.known):
            known[name] = known.get(name, 0) + 1

    print(f"# eigencoupling benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"ops {len(ops)} per cycle, {len(timed)} timed, {len(records)} attempted "
          f"(warm-up included), {runner.compared} byte-compared with their first run")
    print(f"failed_frac {len(failed) / len(records):.6f} ({len(failed)} of {len(records)})")
    for name, count in sorted(known.items()):
        print(f"known_defect {name}: {count} ops -- {checks.KNOWN_DEFECTS[name]}")
    for r in unexpected[:10]:
        print(f"FAILED {ops[r.index].anchor.name}: {'; '.join(r.problems)}")
    if args.trace:
        layers = {k[:-len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
        print(f"trace {summary.ops} ops, {len(tracer)} spans; seconds per op: "
              f"traced op {values['trace.op_s']:.6g} = sum of self times "
              f"{sum(layers.values()):.6g} = "
              + " + ".join(f"{layer} {v:.4g}" for layer, v in layers.items())
              + f"; untraced op {values['untraced.op_s']:.6g}, "
              f"overhead {values['trace.overhead_frac']:.4f}")
        for i, name in enumerate(summary.names[1:], start=1):
            if summary.calls[i]:
                print(f"  {name:48s} {values[name + '.calls']:12.2f} calls/op "
                      f"{values[name + '.s']:.6g} s/op")
    else:
        rates = " ".join(f"{x:.4g}" for x in cycle_rates(timed, normalised(timed, runner.refs)))
        print(f"cycle_ops_per_s {rates}")
        for name, (value, unit) in extra.items():
            print(f"{name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    missing = [name for name in spec if name not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 2
    for name in spec:
        note = notes.get(name, "") if not args.trace else ""
        print(f"{name} {values[name]:.6g} {spec[name]['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": m["unit"]} for name, m in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
