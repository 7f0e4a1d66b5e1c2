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
not counted.  Prints each ``file:line`` that never ran, and exits 1 if the
suite failed or a line never ran, else 0.
"""

import inspect
import os
import sys
from pathlib import Path
from types import CodeType
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


def body_lines(path: Path) -> set[tuple[str, int]]:
    """The (file, line) pairs of every function body in the Python file at path, the file by its resolved path."""
    name = os.path.realpath(path)
    todo, lines = [compile(Path(path).read_text(), name, "exec")], set()
    while todo:
        code = todo.pop()
        todo.extend(const for const in code.co_consts if isinstance(const, CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function's frame; a module's or a class body's is not
            lines.add((name, code.co_firstlineno))
            lines.update((name, line) for _, _, line in code.co_lines() if line is not None)
    return lines


def unrun_lines(paths: list[Path], run: Callable[[], Any]) -> tuple[Any, list[str]]:
    """What run() returns, run under a line tracer on the code of the files at paths; and each ``file:line`` of a
    function body in those files that never ran, in order."""
    expected = set().union(*map(body_lines, paths))
    files = {name for name, _ in expected}
    names: dict[str, str | None] = {}  # co_filename -> the resolved file, or None for a file not traced
    ran = set()

    def trace_line(frame, event, arg):
        if event == "line":
            ran.add((names[frame.f_code.co_filename], frame.f_lineno))
        return trace_line

    def trace_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in names:
            resolved = os.path.realpath(code.co_filename)
            names[code.co_filename] = resolved if resolved in files else None
        name = names[code.co_filename]
        if name is None:
            return None
        ran.add((name, code.co_firstlineno))
        return trace_line

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
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
