"""Every ``raise`` statement of the package runs in the tier-1 suite.

Runs the suite in this process under a line tracer limited to the package's
source in ``src/eigencoupling``, built on the standard library alone:
``sys.settrace``, and ``threading.settrace`` for surface's worker threads.
Then it lists each ``raise`` statement of the package, found with ``ast``,
whose line never ran, and exits 1 if there is one or if the suite fails.
Commands the suite runs in a child process are not traced. pytest does not
collect this file. Run it (about twice the suite's time) with::

    PYTHONPATH=src python tests/raises_run.py [pytest arguments]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eigencoupling"


def raise_lines(path: Path) -> list:
    """The line of each ``raise`` statement of the module at ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))


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
        print(f"raises_run: no line of {PACKAGE} ran; is it the package imported?")
        return 1
    missed = [f"{path.relative_to(ROOT)}:{line}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line in raise_lines(path) if line not in by_file.get(path, ())]
    for where in missed:
        print(f"raises_run: raise never ran at {where}")
    print(f"raises_run: {len(missed)} raise statement(s) never ran; the suite exited {int(code)}")
    return int(bool(missed) or code != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
