"""Golden outputs of the command line on the two builtin crystals, on two
planted families beyond 3x3 and on a 3x3 family quadratic in p.

The files under ``tests/golden/`` hold what the CLI printed or wrote for
each case below. The planted families under ``tests/families/`` are
A(p) = S (J + p1 B1 + p2 B2) S^-1 with J = diag(0.5 + 0.2i, 0.5 + 0.2i,
2 + 1.5ik for k = 1..m-2), S = I + 0.2 (X + iY), B1 = X + iY and
B2 = X + iY, every X and Y a standard normal m x m draw of
``numpy.random.default_rng(12)`` in that order (the construction of
``test_cli.planted_ep_family``): ``planted-ep-m10`` with J[0, 1] = 1, an
exceptional point at p = (0, 0), and ``planted-dp-m6``, a diabolic point
there. ``quadratic-ep-m3`` is S J S^-1 with J = [[0.5 + 0.2i, 1, 0],
[0, 0.5 + 0.2i, 0], [0, 0, 2 + 1.5i]] and S = I plus ones on the
superdiagonal, an exceptional point at p = (0, 0), plus terms in p1, p2,
p1^2, p1 p2 and p2^2 with one-decimal coefficients: both its partials
depend on p, unlike those of the planted families, which are linear in p.
JSON reports and loop files must match byte for byte.
Surface grids and cross-section CSVs are compared to 1e-12 relative to
max(1, |value|): batched evaluation may change the floating-point summation
order and with it the last bits. Every case also runs twice, and both runs
must give the same bytes.

Regenerate the files (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files the test would reject, so last-bit changes
inside the CSV tolerance leave the others as they are.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from eigencoupling import cli

GOLDEN = Path(__file__).parent / "golden"
CRYSTALS = ("crystal-example-1", "crystal-example-2")
FAMILIES = Path(__file__).parent / "families"
#: relative tolerance for the CSV files written by batched code paths
CSV_RTOL = 1e-12

# (case, argv after --family, outputs: golden suffix -> "stdout" or file name)
CASES = [
    ("classify", ["classify", "--at", "0,0"], {"classify.json": "stdout"}),
    ("scenario", ["scenario", "--at", "0,0"], {"scenario.json": "stdout"}),
    ("scenario-offset", ["scenario", "--at", "0,0", "--offset", "0.01"],
     {"scenario-offset.json": "stdout"}),
    ("section", ["scenario", "--at", "0,0", "--offset", "0.01", "--format", "csv",
                 "--out", "{dir}/section.csv"], {"section.csv": "section.csv"}),
    ("surface", ["surface", "--at", "0,0", "--window=-0.05,0.05", "--res", "21",
                 "--out", "{dir}/surface.csv"], {"surface.csv": "surface.csv"}),
]
#: find-ep refuses the DP it converges on from a guess near crystal-example-2's
#: anchor, and loop trajectories need an EP anchor
EP_CASES = [
    ("find-ep", ["find-ep", "--at", "0.05,-0.03"], {"find-ep.json": "stdout"}),
    ("loop", ["loop", "--at", "0,0", "--loop=0.003,-0.002,0.01", "--samples", "720",
              "--out", "{dir}/loop.csv"],
     {"loop.csv": "loop.csv", "loop.json": "loop.json"}),
]


#: the JSON reports of the planted and quadratic families; find-ep only at the
#: EPs, from a guess 0.036 away
PLANTED = {
    "planted-ep-m10": CASES[:3] + [
        ("find-ep", ["find-ep", "--at", "0.03,-0.02"], {"find-ep.json": "stdout"})],
    "planted-dp-m6": CASES[:3],
    "quadratic-ep-m3": CASES[:3] + [
        ("find-ep", ["find-ep", "--at", "0.03,-0.02"], {"find-ep.json": "stdout"})],
}


def all_cases():
    for family in CRYSTALS:
        cases = CASES + (EP_CASES if family == "crystal-example-1" else [])
        for name, argv, outputs in cases:
            yield family, name, argv, outputs
    for family, cases in PLANTED.items():
        for name, argv, outputs in cases:
            yield family, name, argv, outputs


def run_case(family, argv, outputs, out_dir: Path) -> dict:
    """Run one case; return golden suffix -> output bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    source = str(FAMILIES / f"{family}.json") if family in PLANTED else family
    full = [argv[0], "--family", source] + [a.replace("{dir}", str(out_dir)) for a in argv[1:]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(full)
    assert code == 0, f"{full} exited {code}"
    return {
        suffix: stdout.getvalue().encode() if source == "stdout"
        else (out_dir / source).read_bytes()
        for suffix, source in outputs.items()
    }


def _csv_close(got: bytes, want: bytes) -> None:
    got_lines = got.decode().splitlines()
    want_lines = want.decode().splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    got_arr = np.array([[float(x) for x in line.split(",")] for line in got_lines[1:]])
    want_arr = np.array([[float(x) for x in line.split(",")] for line in want_lines[1:]])
    scale = np.maximum(1.0, np.abs(want_arr))
    worst = float((np.abs(got_arr - want_arr) / scale).max())
    assert worst <= CSV_RTOL, f"largest relative difference {worst:.3e}"


@pytest.mark.parametrize(
    "family,name,argv,outputs", list(all_cases()),
    ids=[f"{family}-{name}" for family, name, _, _ in all_cases()])
def test_golden_output(family, name, argv, outputs, tmp_path):
    first = run_case(family, argv, outputs, tmp_path / "first")
    second = run_case(family, argv, outputs, tmp_path / "second")
    assert first == second, "two runs of one configuration differ"
    for suffix, got in first.items():
        _check_golden(f"{family}.{suffix}", got)


@pytest.mark.parametrize(
    "family,name,argv,outputs", [case for case in all_cases() if "stdout" in case[3].values()],
    ids=[f"{family}-{name}" for family, name, _, outputs in all_cases()
         if "stdout" in outputs.values()])
def test_json_report_through_out(family, name, argv, outputs, tmp_path):
    """A JSON report that a case prints goes, with --out, to that file
    instead, byte for byte, and nothing is printed."""
    (suffix,) = outputs
    got = run_case(family, [*argv, "--out", "{dir}/report.json"],
                   {suffix: "report.json", "printed": "stdout"}, tmp_path)
    assert got["printed"] == b""
    _check_golden(f"{family}.{suffix}", got[suffix])


def _check_golden(name: str, got: bytes) -> None:
    want = (GOLDEN / name).read_bytes()
    if name.endswith(("surface.csv", "section.csv")):
        _csv_close(got, want)
    else:
        assert got == want, f"{name} differs from the golden file"


def write_golden() -> None:
    """Write each golden file that is missing or that test_golden_output
    would reject; print the names written."""
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for family, name, argv, outputs in all_cases():
            for suffix, blob in run_case(family, argv, outputs, Path(tmp) / name).items():
                try:
                    _check_golden(f"{family}.{suffix}", blob)
                except (AssertionError, OSError, ValueError):
                    (GOLDEN / f"{family}.{suffix}").write_bytes(blob)
                    print(f"wrote {family}.{suffix}")


def test_write_golden_rewrites_only_rejected_files(tmp_path, monkeypatch, capsys):
    """A last-bit CSV change inside CSV_RTOL stays; a changed JSON file and
    a missing one are written back."""
    for path in GOLDEN.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    surface = tmp_path / "crystal-example-1.surface.csv"
    header, first, rest = surface.read_text().split("\n", 2)
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-14))
    nudged = "\n".join([header, ",".join(cells), rest])
    surface.write_text(nudged)
    (tmp_path / "crystal-example-1.classify.json").write_text("{}\n")
    (tmp_path / "crystal-example-2.scenario.json").unlink()
    golden = GOLDEN
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    write_golden()
    assert capsys.readouterr().out.split() == [
        "wrote", "crystal-example-1.classify.json", "wrote", "crystal-example-2.scenario.json"]
    assert surface.read_text() == nudged
    for path in golden.iterdir():
        if path.name != surface.name:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
