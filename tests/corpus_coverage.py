"""Which statements of the simulator does the trace corpus never run?

    python3 tests/corpus_coverage.py

The byte-exact trace contract protects only the code that some corpus run
executes. This script runs the three families of `trace_corpus.py` (the
1104-run corpus, the wide-group runs and the lossy runs, each with its
JSONL read-back and metrics) under a `sys.settrace` line tracer, and prints
for each module of `src/tilesim` the statement lines that no run reached.

A statement is one `ast` statement node, docstrings and `global`/
`nonlocal` declarations excepted. A simple statement counts as reached when
any of its lines runs; a compound one (`if`, `for`, `def`, `try`, ...) when
a line of its header runs, decorators included. The package is imported
under the tracer, so module-level statements count too. The `cli` module is
listed but no corpus run enters it.

It needs only the standard library, pytest does not collect it, and it
takes several minutes on a 2-vCPU host: tracing slows every line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tilesim"


def statement_spans(source: str) -> dict[int, range]:
    """First line of each statement -> the lines whose execution reaches it."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans[node.lineno] = range(first, max(first, last) + 1)
    return spans


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 -> '1-3, 7'"""
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def scoped(frame, event, arg):
        # trace lines only in frames of the package's own files
        seen = hit.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    sys.settrace(scoped)
    try:
        import trace_corpus
        counts = [trace_corpus.hashes(family())[0] for family in
                  (trace_corpus.corpus, trace_corpus.wide_corpus, trace_corpus.lossy_corpus)]
    finally:
        sys.settrace(None)

    print(f"runs {sum(counts)} ({' + '.join(map(str, counts))})")
    total = unreached_total = 0
    for name, path in files.items():
        spans = statement_spans(path.read_text())
        unreached = sorted(first for first, span in spans.items()
                           if not any(line in hit[name] for line in span))
        total += len(spans)
        unreached_total += len(unreached)
        print(f"{path.name:<16} {len(unreached):>4} of {len(spans):>4} unreached"
              + (f": {ranges(unreached)}" if unreached else ""))
    print(f"{'total':<16} {unreached_total:>4} of {total:>4} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
