"""List the lines of src/binarx that a run never executes.

Usage:
    python tools/linecov.py golden OUTDIR    # the tools/golden_digests.py workflows
    python tools/linecov.py tests [ARGS...]  # pytest with ARGS (the whole suite by default)

Standard library only.  A sys.settrace collector (threading.settrace too,
for threads started later) records every line run by a frame whose code
lives in src/binarx; frames of other code are not line-traced.  A module's
executable lines are the lines that co_lines() gives for the code objects
compiled from its source, nested ones included, and the first line of each
function (where its 'call' event lands).  Pool workers and subprocesses are
not traced: a line that only they run is listed as not executed.

Output: one line per module with lines that did not run, as ranges, then a
summary line; the exit code is the traced run's.
"""

from __future__ import annotations

import runpy
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "binarx"


def _code_lines(code: CodeType) -> set[int]:
    """The lines of `code` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    if code.co_name != "<module>":
        lines.add(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def executable_lines(path: Path) -> set[int]:
    return _code_lines(compile(path.read_text(), str(path), "exec"))


class Collector:
    """Lines run per source file, for frames whose code is under PACKAGE."""

    def __init__(self):
        self.hits: dict[str, set[int]] = {}
        self._prefix = str(PACKAGE) + "/"

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefix):
            return None
        self.hits.setdefault(filename, set()).add(frame.f_lineno)
        return self._local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def report(hits: dict[str, set[int]]) -> list[str]:
    """One line per module with executable lines that did not run, then a total."""
    out, missed_total, total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed_total += len(missed)
        if missed:
            out.append(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} not run: "
                       f"{_ranges(missed)}")
    out.append(f"{missed_total} of {total} executable lines in {PACKAGE.relative_to(ROOT)} "
               "not run (pool workers and subprocesses are not traced)")
    return out


def _run(argv: list[str]) -> int:
    if argv[:1] == ["golden"] and len(argv) == 2:
        sys.argv = [str(ROOT / "tools" / "golden_digests.py"), argv[1]]
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
        except SystemExit as exc:
            return exc.code or 0
        return 0
    if argv[:1] == ["tests"]:
        import pytest

        return int(pytest.main(argv[1:] or [str(ROOT / "tests")]))
    raise SystemExit(__doc__)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    if any(name == "binarx" or name.startswith("binarx.") for name in sys.modules):
        raise SystemExit("binarx is imported already; its module lines would go untraced")
    with Collector() as collector:
        status = _run(argv)
    print("\n".join(report(collector.hits)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
