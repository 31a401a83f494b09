"""Compile the forest kernel's C source the way its loader does.

Reads ``_C_SOURCE``, ``_BUILD_FLAGS`` and ``_STRICT_FLAGS`` out of
``src/repro/optimizers/_forest_kernel.py`` with :mod:`ast` — nothing is
imported, so this runs on a bare Python without numpy — and compiles the
source once per named compiler with exactly those flags, warnings as
errors.  Exits non-zero if any compiler is missing or rejects the source::

    python tools/compile_forest_kernel.py gcc clang
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import subprocess
import sys
import tempfile

KERNEL_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "repro" / "optimizers" / "_forest_kernel.py"
)
NAMES = ("_C_SOURCE", "_BUILD_FLAGS", "_STRICT_FLAGS")


def kernel_constants(path: pathlib.Path = KERNEL_PATH) -> dict:
    """The module-level literals named in ``NAMES``, by name."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in NAMES
        ):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    missing = [name for name in NAMES if name not in found]
    if missing:
        raise SystemExit(f"{path}: no literal {', '.join(missing)}")
    return found


def compile_kernel(compiler: str, constants: dict) -> tuple[bool, str]:
    """Compile with ``compiler``; ``(ok, diagnostics)``."""
    flags = [*constants["_BUILD_FLAGS"], *constants["_STRICT_FLAGS"]]
    with tempfile.TemporaryDirectory() as tmp:
        c_path = pathlib.Path(tmp) / "forest_kernel.c"
        c_path.write_text(constants["_C_SOURCE"])
        cmd = [compiler, *flags, "-o", str(pathlib.Path(tmp) / "k.so"),
               str(c_path)]
        try:
            result = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            return False, f"{compiler}: {exc}\n"
    return result.returncode == 0, result.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("compilers", nargs="+", help="e.g. gcc clang")
    args = parser.parse_args(argv)
    constants = kernel_constants()
    failed = False
    for compiler in args.compilers:
        ok, diagnostics = compile_kernel(compiler, constants)
        print(f"{compiler}: {'ok' if ok else 'FAILED'}")
        if not ok:
            sys.stderr.write(diagnostics)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
