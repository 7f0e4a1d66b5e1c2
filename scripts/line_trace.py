#!/usr/bin/env python3
"""Check that every line of a function body in src/multisymp runs under the Tier-1 suite.

Usage, from the repository root or anywhere else:

    python scripts/line_trace.py

Runs the suite under tests/ in this process, with src/ first on the import
path and hypothesis deadlines off, since tracing slows the code under test
several times over.  A line tracer is installed only on the code objects
of src/multisymp: every other frame gets no local trace function.  The
lines of a function body are the lines that hold bytecode in a function,
method, lambda or comprehension, and its first line, which counts as run
when the function is called.  Module and class bodies run at import and are
not counted.  Once every line of a code object has run, its later calls run
untraced, which leaves the lines found the same.  Prints each ``file:line``
that never ran, and exits 1 if the suite failed or a line never ran, else 0.
"""

import inspect
import os
import sys
from pathlib import Path
from types import CodeType
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


def code_lines(code: CodeType) -> set[int]:
    """The lines of one code object: its first line, which counts as run when it is called, and every line that
    holds its bytecode."""
    return {code.co_firstlineno} | {line for _, _, line in code.co_lines() if line is not None}


def body_lines(path: Path) -> set[tuple[str, int]]:
    """The (file, line) pairs of every function body in the Python file at path, the file by its resolved path."""
    name = os.path.realpath(path)
    todo, lines = [compile(Path(path).read_text(), name, "exec")], set()
    while todo:
        code = todo.pop()
        todo.extend(const for const in code.co_consts if isinstance(const, CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function's frame; a module's or a class body's is not
            lines.update((name, line) for line in code_lines(code))
    return lines


def unrun_lines(paths: list[Path], run: Callable[[], Any]) -> tuple[Any, list[str]]:
    """What run() returns, run under a line tracer on the code of the files at paths; and each ``file:line`` of a
    function body in those files that never ran, in order.  A code object all of whose lines have run gets no
    tracer on later calls, since they could add no line."""
    expected = set().union(*map(body_lines, paths))
    files = {name for name, _ in expected}
    names: dict[str, str] = {}  # co_filename -> the resolved file, for each traced file seen
    skipped: set[str] = set()  # the co_filename of each file seen that is not traced
    pending: dict[CodeType, set[int]] = {}  # each traced code object called -> its lines not yet run

    def trace_line(frame, event, arg):
        if event == "line":
            pending[frame.f_code].discard(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename in skipped:  # most calls, so this test comes first
            return None
        if code not in pending:
            name = names.get(code.co_filename) or os.path.realpath(code.co_filename)
            if name not in files:
                skipped.add(code.co_filename)
                return None
            names[code.co_filename] = name
            pending[code] = code_lines(code) - {code.co_firstlineno}
        return trace_line if pending[code] else None

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    ran = {(names[code.co_filename], line) for code, left in pending.items() for line in code_lines(code) - left}
    return result, [f"{name}:{line}" for name, line in sorted(expected - ran)]


def pytest_configure(config) -> None:
    """Hypothesis deadlines off: this module is a plugin of the suite it runs."""
    import hypothesis

    hypothesis.settings.register_profile("line_trace", deadline=None)
    hypothesis.settings.load_profile("line_trace")


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
    status, missed = unrun_lines(sorted((ROOT / "src" / "multisymp").glob("*.py")),
                                 lambda: pytest.main(args, plugins=[sys.modules[__name__]]))
    for line in missed:
        print(f"never ran: {line}")
    if status != 0:
        print(f"the suite exited {int(status)}")
    return int(status != 0 or bool(missed))


if __name__ == "__main__":
    sys.exit(main())
