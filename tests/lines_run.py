"""Every executable line of the package runs in the tier-1 suite.

Runs the suite in this process under a line tracer limited to the package's
source in ``src/eigencoupling``, built on the standard library alone:
``sys.settrace``, and ``threading.settrace`` for surface's worker threads.
Then it lists each executable line of the package, a line that some
instruction of the module's compiled code objects belongs to (their
``co_lines()``), that never ran, and exits 1 if there is one or if the
suite fails. Commands the suite runs in a child process are not traced.
pytest does not collect this file. Run it (about twice the suite's time)
with::

    PYTHONPATH=src python tests/lines_run.py [pytest arguments]
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eigencoupling"


def code_lines(path: Path) -> list:
    """The executable lines of the module at ``path``: those that an
    instruction of its code objects, nested ones included, belongs to (the
    interpreter's own instructions before the first line carry line 0)."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return sorted(lines)


def run_traced(args) -> tuple:
    """(pytest's exit code, {source path: lines run}) of the suite run with
    ``args``; only frames of the package's files are traced line by line."""
    ran = set()         # (co_filename, line); a set's add is atomic across threads
    wanted = {}         # co_filename -> whether it is a file of the package
    prefix = str(PACKAGE) + os.sep

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        inside = wanted.get(name)
        if inside is None:
            inside = wanted[name] = os.path.realpath(name).startswith(prefix)
        return lines if inside else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file = {}
    for name, line in ran:
        by_file.setdefault(Path(os.path.realpath(name)), set()).add(line)
    return code, by_file


def main(argv) -> int:
    code, by_file = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if not by_file:
        print(f"lines_run: no line of {PACKAGE} ran; is it the package imported?")
        return 1
    missed = [f"{path.relative_to(ROOT)}:{line}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line in code_lines(path) if line not in by_file.get(path, ())]
    for where in missed:
        print(f"lines_run: line never ran at {where}")
    print(f"lines_run: {len(missed)} line(s) never ran; the suite exited {int(code)}")
    return int(bool(missed) or code != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
