"""List the dpms functions that no command and no demo enters, and the
line count of each module.

    python3 tools/unreached.py [--src SRC]

Runs every command of ``tools/compare_artifacts.py`` in this process,
through ``dpms.cli.main``, then every script under ``demos/``, with a
``sys.settrace`` hook that records each code object called.  It then
prints every function and method defined in ``SRC/dpms`` (default: this
checkout's ``src/``) that none of them entered, tagged ``[traced]``
where the ``SITES`` of ``perfbench/tracing.py`` wraps it (such a name
must stay bound while the benchmark's tracer names it), then ``wc -l``
of each module and their total.  Commands that exit nonzero are named
with their codes.  Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _functions(path: Path) -> dict[tuple[str, int, str], str]:
    """Key to qualified name of every function and method of a module,
    nested ones included (lambdas and comprehensions left out)."""
    found = {}
    todo = [compile(path.read_text(), os.path.realpath(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if not code.co_name.startswith("<"):
            found[_key(code)] = getattr(code, "co_qualname", code.co_name)  # co_qualname: 3.11+
    return found


def _run_all(work: Path, src: Path) -> tuple[set, dict[str, int]]:
    """Keys of the code objects that the commands and demos entered, and
    the nonzero exit codes by command."""
    import compare_artifacts

    entered: set = set()

    def trace(frame, event, arg):
        entered.add(_key(frame.f_code))

    inputs = compare_artifacts.write_inputs(work, src)
    failed = {}
    sink = io.StringIO()
    sys.settrace(trace)
    try:
        from dpms import cli

        for name, argv in compare_artifacts.commands():
            argv = [arg.format(**inputs) for arg in argv] + ["--out", str(work / "out" / name)]
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            if code:
                failed[name] = code
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with contextlib.redirect_stdout(sink):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
    return entered, failed


def _pinned() -> set:
    """Keys of the functions that perfbench/tracing.py's SITES wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pinned = set()
    for module, attr, *_ in tracing.SITES:
        code = getattr(getattr(importlib.import_module(module), attr, None), "__code__", None)
        if code is not None:
            pinned.add(_key(code))
    return pinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    package = src / "dpms"
    if not (package / "cli.py").exists():
        parser.error(f"{args.src} holds no dpms package")
    sys.path[:0] = [str(src), str(ROOT / "tools")]
    modules = sorted(package.glob("*.py"))
    functions = {}
    for path in modules:
        functions.update(_functions(path))
    with tempfile.TemporaryDirectory(prefix="dpms-unreached-") as tmp:
        entered, failed = _run_all(Path(tmp), src)
    pinned = _pinned()
    missed = sorted(k for k in functions if k not in entered)
    print(f"never entered: {len(missed)} of {len(functions)} functions "
          "([traced]: wrapped by perfbench/tracing.py)")
    for key in missed:
        tag = " [traced]" if key in pinned else ""
        print(f"  {Path(key[0]).name}:{key[1]} {functions[key]}{tag}")
    print("nonzero exits: " + (", ".join(f"{n} ({c})" for n, c in failed.items()) or "none"))
    total = 0
    for path in modules:
        lines = path.read_bytes().count(b"\n")
        total += lines
        print(f"{lines:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.exit(main())
