"""Persistence atomicity rule.

Contract (ROADMAP resilience contract, "Atomic writes" bullet): every
persistence writer writes a temp file in the target directory and
``os.replace``\\ s it into place, so a process killed mid-save never
truncates an existing file.  The one exception is the checkpoint
journal's append seam, ``append_checkpoint``, whose torn last record
the journal loader drops.  Both guarantees only hold if every write in
``src/`` actually routes through the helpers in ``tuning/persistence.py``
— a stray ``open(path, "w")`` reintroduces the truncate-then-die window
the chaos smoke exists to catch.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.engine import Finding, Module
from tools.repro_lint.rules import Rule

WRITE_MODE_CHARS = set("wax+")


def _mode_arg(node: ast.Call) -> ast.AST | None:
    if len(node.args) >= 2:
        return node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            return kw.value
    return None


class AtomicWriteRule(Rule):
    rule_id = "atomic-write"
    title = "file write outside the atomic persistence helpers"
    scopes = ("src",)
    exempt_files = ("repro/tuning/persistence.py",)
    contract = (
        "Persistence atomicity (ROADMAP resilience contract): writers "
        "put the payload in a temp file in the target's directory and "
        "os.replace it into place, so SIGKILL/OOM/ctrl-C mid-save never "
        "truncates an existing file.  The checkpoint journal's append "
        "seam (append_checkpoint) is the one non-atomic writer: a kill "
        "mid-append leaves a torn last record, which load_checkpoint "
        "drops.  Only tuning/persistence.py implements these; every "
        "other src/ write must call its helpers (atomic_write_text / "
        "save_result / save_checkpoint / append_checkpoint).  "
        "open(path, 'w'/'wb'/'a'/'x') and Path.write_text/write_bytes "
        "elsewhere are errors; a scratch file in a private temp "
        "directory may carry an allow[atomic-write] pragma."
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = _mode_arg(node)
                if mode is None:
                    continue  # bare open(path) reads
                if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                    if not (WRITE_MODE_CHARS & set(mode.value)):
                        continue
                    mode_text = f"open(..., {mode.value!r})"
                else:
                    mode_text = "open(...) with a non-literal mode"
                yield self.finding(
                    module,
                    node,
                    f"{mode_text} bypasses the atomic temp-file+os.replace "
                    "writers in tuning/persistence.py — a crash mid-write "
                    "truncates the file",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in {
                "write_text",
                "write_bytes",
            }:
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}(...) writes non-atomically; route "
                    "through tuning/persistence.py (or pragma a scratch "
                    "file in a private temp directory)",
                )
