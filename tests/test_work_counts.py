"""Work counts of the command line: the numpy.linalg calls, family
evaluations and derivatives each command takes, and the bytes it writes.

``tests/work_counts.json`` holds one row per command of
``test_golden.all_cases()``, plus a res-201 surface and a 72 000-sample
loop whose per-point work shows, and rows of several commands run in one
process on one family, which parse its file once and analyse a repeated
anchor once. A row counts the calls of each numpy.linalg routine the
package uses, of ``family.evaluate``, ``family.evaluate_many``,
``family.derivative`` and ``family.parse_family``, of
``MatrixFamily._point``, the check of a parameter point, of
``numkit.as_cmatrix``, the finite check of a matrix (also under the name the
asymptotics modules import it by), and the bytes written to standard output
and to files. Each row starts with the command line's
family and anchor caches empty, so a row does not depend on the rows run
before it. The test asserts equality both ways: a
count that falls fails as one that rises does, so a change of the work is a
change of the table, and the table's history is its trajectory. Counts do
not move with timing, load or the number of CPUs (surface's workers
factorise the same blocks on any pool).

Regenerate the table (only when a count is meant to change) with::

    PYTHONPATH=src python tests/test_work_counts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from eigencoupling import cli, dp_asymptotics, ep_asymptotics, numkit
from eigencoupling import family as family_mod
from test_golden import FAMILIES, PLANTED, all_cases

TABLE = Path(__file__).parent / "work_counts.json"
#: the numpy.linalg routines counted, and the family functions
LINALG = ("cond", "eig", "eigvals", "inv", "lstsq", "norm", "solve", "svd")
FAMILY = ("evaluate", "evaluate_many", "derivative", "parse_family")
#: the modules that hold ``numkit.as_cmatrix``, each under that name
CHECKERS = (numkit, dp_asymptotics, ep_asymptotics)

#: (family, row name, argv after --family) of the per-point rows
LARGE = [
    ("crystal-example-1", "surface-res201",
     ["surface", "--at", "0,0", "--res", "201", "--out", "{dir}/surface.csv"]),
    ("crystal-example-1", "loop-72000",
     ["loop", "--at", "0,0", "--loop=0.003,-0.002,0.01", "--samples", "72000",
      "--out", "{dir}/loop.csv"]),
]
#: (family, row name, names of its golden cases) of the rows that run several
#: commands in one process; the cases of a row that analyse an anchor share one
SEQUENCES = [
    ("planted-ep-m10", "classify+scenario+find-ep", ("classify", "scenario", "find-ep")),
    ("crystal-example-1", "scenario+loop+surface", ("scenario", "loop", "surface")),
]
#: the commands that analyse their anchor (``cli._anchor``)
ANCHORED = ("classify", "scenario", "loop", "surface")
#: the counted calls of a row, less the family parses
WORK = ([f"linalg.{n}" for n in LINALG] + [f"family.{n}" for n in FAMILY if n != "parse_family"]
        + ["family._point", "numkit.as_cmatrix"])


def rows():
    """(row key, family, the argv after --family of each command) of every
    row of the table."""
    for family, name, argv, _ in all_cases():
        yield f"{family} {name}", family, [argv]
    for family, name, argv in LARGE:
        yield f"{family} {name}", family, [argv]
    for family, name, cases in SEQUENCES:
        argvs = {case: argv for fam, case, argv, _ in all_cases() if fam == family}
        yield f"{family} {name}", family, [argvs[case] for case in cases]


def measure(family, argvs, out_dir: Path) -> dict:
    """Run the commands ``argvs`` in turn in ``out_dir``, starting with
    empty family and anchor caches; return their summed counts, keyed by
    name."""
    calls = []      # names, appended from surface's worker threads too

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    out_dir.mkdir(parents=True)
    source = str(FAMILIES / f"{family}.json") if family in PLANTED else family
    cli._parsed.cache_clear()
    cli._anchor.cache_clear()
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout):
        for name in LINALG:
            patch.setattr(np.linalg, name, counted(f"linalg.{name}", getattr(np.linalg, name)))
        for name in FAMILY:
            patch.setattr(family_mod, name, counted(f"family.{name}", getattr(family_mod, name)))
        patch.setattr(family_mod.MatrixFamily, "_point",
                      counted("family._point", family_mod.MatrixFamily._point))
        check = counted("numkit.as_cmatrix", numkit.as_cmatrix)
        for module in CHECKERS:
            patch.setattr(module, "as_cmatrix", check)
        for argv in argvs:
            full = [argv[0], "--family", source] + [
                a.replace("{dir}", str(out_dir)) for a in argv[1:]]
            code = cli.main(full)
            assert code == 0, f"{full} exited {code}"
    counts = {name: calls.count(name)
              for name in [f"linalg.{n}" for n in LINALG] + [f"family.{n}" for n in FAMILY]
              + ["family._point", "numkit.as_cmatrix"]}
    counts["stdout_bytes"] = len(stdout.getvalue().encode())
    counts["file_bytes"] = sum(path.stat().st_size for path in out_dir.rglob("*"))
    return counts


def test_table_has_a_row_per_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(key for key, _, _ in rows())


@pytest.mark.parametrize("key,family,argvs", list(rows()), ids=[key for key, _, _ in rows()])
def test_work_counts(key, family, argvs, tmp_path):
    assert measure(family, argvs, tmp_path / "out") == json.loads(TABLE.read_text())[key]


@pytest.mark.parametrize("family,name,cases", SEQUENCES, ids=[name for _, name, _ in SEQUENCES])
def test_sequence_is_its_commands_less_the_repeated_parses_and_anchors(family, name, cases):
    """Commands run one after another in one process do the work of each
    run alone, except that their family file is parsed once and that a
    command at an anchor analysed before it does none of the work it shares
    with the commands before it there: per count, the least of its row and
    the most of theirs (the cluster and classification after classify, the
    local model too after scenario or loop)."""
    table = json.loads(TABLE.read_text())
    argvs = {case: argv for fam, case, argv, _ in all_cases() if fam == family}
    singles = [table[f"{family} {case}"] for case in cases]
    want = {key: sum(row[key] for row in singles) for key in singles[0]}
    want["family.parse_family"] = max(row["family.parse_family"] for row in singles)
    anchored = [(argvs[case], row) for case, row in zip(cases, singles)
                if argvs[case][0] in ANCHORED]
    assert len({argv[argv.index("--at") + 1] for argv, _ in anchored}) == 1
    done = {key: anchored[0][1][key] for key in WORK}   # per count, the most so far
    for _, row in anchored[1:]:
        for key in WORK:
            want[key] -= min(row[key], done[key])
            done[key] = max(done[key], row[key])
    assert table[f"{family} {name}"] == want


def write_table() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        table = {key: measure(family, argvs, Path(tmp) / str(k))
                 for k, (key, family, argvs) in enumerate(rows())}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_table()
