"""Module-level mutable state rule for the deterministic core.

Contract (ROADMAP multicore contract): the wave engine runs member fits
on threads and the process runner forks workers, so any module-level
state in ``optimizers/``, ``tuning/`` or ``dbms/`` is shared across
threads and duplicated across forks.  The simulator keeps its compiled
evaluation plans on the instance; ``dbms/`` holds only pragma-reviewed,
value-keyed caches at module level.  State that *accumulates* (an empty container
filled at runtime, or a ``global`` rebind from a function) makes results
depend on call order and thread schedule — exactly what the byte-identity
pins forbid.  Populated literal registries (``OPTIMIZERS = {...}``) are
constants by convention and stay exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.engine import Finding, Module
from tools.repro_lint.rules import Rule

#: Constructors that build an *empty* mutable container when their only
#: purpose at module level is to be filled later.
EMPTY_FACTORIES = {
    "list", "dict", "set", "defaultdict", "deque", "OrderedDict",
    "Counter", "bytearray",
}

#: Path fragments this rule polices (the deterministic core that the
#: threaded wave engine and forked process workers share).
POLICED_PARTS = ("/optimizers/", "/tuning/", "/dbms/")


def _is_empty_container(value: ast.AST) -> bool:
    """True for ``[]``/``{}``/``set()``/``list()``/``defaultdict(...)`` —
    containers whose emptiness at definition means they exist to mutate."""
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name in EMPTY_FACTORIES:
            # set()/list()/dict() with a literal argument is a copy of a
            # populated constant; only the no-arg (or defaultdict-factory)
            # form starts empty.
            return name == "defaultdict" or not (value.args or value.keywords)
    return False


def _module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, looking through ``if``/``try`` wrappers
    (version- or availability-gated definitions are still module state)."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If):
            stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


class ModuleStateRule(Rule):
    rule_id = "module-state"
    title = "accumulating module-level state in optimizers/, tuning/ or dbms/"
    scopes = ("src",)
    contract = (
        "Multicore determinism (ROADMAP multicore contract): optimizers/, "
        "tuning/ and dbms/ run under the threaded wave engine and are forked "
        "into process-pool workers, so module-level state is shared "
        "across threads and duplicated across forks.  A module-level "
        "container that starts empty exists only to accumulate runtime "
        "state, and a `global` statement rebinds module state from "
        "function scope — both make behaviour depend on call order and "
        "thread schedule, breaking the byte-identity pins.  Keep state "
        "on instances, pass it explicitly, or — for a deliberate, "
        "lock-guarded process-wide seam — carry an allow[module-state] "
        "pragma naming the guard.  Populated literal registries "
        "(OPTIMIZERS = {...}) and __all__ are constants and exempt."
    )

    def check(self, module: Module) -> Iterator[Finding]:
        posix = module.posix_path
        if not any(part in posix for part in POLICED_PARTS):
            return
        for node in _module_level_statements(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is not None and _is_empty_container(value):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    names = ", ".join(
                        t.id for t in targets if isinstance(t, ast.Name)
                    ) or "<target>"
                    yield self.finding(
                        module,
                        node,
                        f"module-level container {names} starts empty — it "
                        "exists to accumulate state shared across wave "
                        "threads and duplicated across forked workers; "
                        "keep it on an instance or pragma the documented "
                        "seam",
                    )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    module,
                    node,
                    "`global "
                    + ", ".join(node.names)
                    + "` rebinds module state from function scope; under "
                    "wave threads and forked workers that binding is "
                    "schedule-dependent — pass state explicitly or pragma "
                    "a lock-guarded seam",
                )
