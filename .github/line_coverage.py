"""Runs tier-1 under a line tracer and lists each src/randloc line it never ran.

Usage, from the repository root:
    PYTHONPATH=src python .github/line_coverage.py [pytest arguments]

Only frames of files under src/randloc are traced, in the main thread and in
threads started later (sys.settrace, threading.settrace). A module's
executable lines are those its compiled code objects name in co_lines(). Lines
run only in child processes count as never run. Every never-run line is
printed; the exit code is 1 if one of them is not in ALLOWED, and pytest's
own code if the tests fail.
"""

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "randloc"

# (path under the repository root, stripped line text) of lines tier-1 may
# leave unrun, each with a comment saying why.
ALLOWED: set[tuple[str, str]] = set()

_ran: defaultdict[str, set[int]] = defaultdict(set)  # co_filename -> lines run
_ours: dict[str, bool] = {}  # co_filename -> whether it is a file under SRC


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = os.path.realpath(name).startswith(f"{SRC}{os.sep}")
    return _trace_lines if _ours[name] else None


def _executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # None, or 0 at a module start
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def main(args: list[str]) -> int:
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code:
        return int(code)
    ran: defaultdict[str, set[int]] = defaultdict(set)
    for name, lines in _ran.items():
        ran[os.path.realpath(name)] |= lines
    blocking = unrun = total = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = _executable_lines(compile(text, str(path), "exec"))
        source = text.splitlines()
        rel = path.relative_to(ROOT).as_posix()
        total += len(lines)
        for line in sorted(lines - ran[str(path)]):
            code_text = source[line - 1].strip()
            allowed = (rel, code_text) in ALLOWED
            unrun += 1
            blocking += not allowed
            print(f"{rel}:{line}: {code_text}{' (allowed)' if allowed else ''}")
    print(f"{unrun} of {total} executable lines in {SRC.relative_to(ROOT)} never ran, "
          f"{blocking} outside the allowlist")
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
