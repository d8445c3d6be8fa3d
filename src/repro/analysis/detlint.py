"""AST-based determinism lint over the simulator's own sources.

The chaos subsystem certifies that a chaos report is *byte-identical*
across repeats of one command, and every experiment in EXPERIMENTS.md
assumes a seed pins the run.  Both guarantees die silently the moment
nondeterminism leaks into the event ordering, so this lint walks the
source tree for the classic hazards:

======  ==============================================================
rule    hazard
======  ==============================================================
DET001  iteration over a set expression or a set-typed local — order
        depends on ``PYTHONHASHSEED`` for str/object elements
DET002  module-level ``random`` functions (``random.random()``,
        ``random.shuffle``, ...) — unseeded global RNG; use
        ``repro.engine.rng.DeterministicRng`` instead
DET003  wall-clock reads (``time.time``, ``datetime.now``, ...)
        feeding program logic
DET004  entropy sources (``uuid.uuid4``, ``os.urandom``, ``secrets``)
DET005  ordering by object identity (``key=id``)
DET006  unsorted directory listings (``os.listdir``, ``glob.glob``,
        ``Path.iterdir``, ``os.scandir``) used without ``sorted(...)``
DET007  ``.pop()`` on a set-typed local — removes an arbitrary element
DET008  the builtin ``hash()`` — str/bytes hashes change per process
        with ``PYTHONHASHSEED``; derive seeds with
        ``repro.engine.rng.derive_seed``
======  ==============================================================

DET001/DET007 use a deliberately shallow intra-function inference: a
local name counts as set-typed only when *every* assignment to it in
the enclosing scope is a set display, set comprehension, or
``set(...)``/``frozenset(...)`` call.  Shallow is the point — the lint
must never need to execute the code it checks.

A finding is suppressed by an inline marker **with a justification**::

    for proc in waiting_procs:  # detlint: ok — summed into a counter

Optionally scoped to rules: ``# detlint: ok[DET001] — reason``.  A
marker without a reason does *not* suppress (that would hide exactly
the "it's probably fine" cases the lint exists to challenge).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*ok(?:\[(?P<rules>[A-Z0-9, ]+)\])?\s*(?:[-–—:]\s*)?(?P<reason>.*)"
)

_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_ENTROPY_CALLS = {
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("os", "urandom"),
}

_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "getrandbits", "seed", "betavariate",
    "expovariate", "normalvariate", "triangular",
}

_LISTING_CALLS = {
    ("os", "listdir"),
    ("os", "scandir"),
    ("glob", "glob"),
    ("glob", "iglob"),
}

_SET_CALL_NAMES = {"set", "frozenset"}


@dataclass(frozen=True)
class LintFinding:
    """One determinism hazard at a precise source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed rule set (None = all rules), justified only."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        if not match.group("reason").strip():
            continue  # a bare "ok" is not a justification
        rules = match.group("rules")
        if rules:
            out[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
        else:
            out[lineno] = None
    return out


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_CALL_NAMES
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra propagates set-ness when either side is a set expr
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class _ScopeSets(ast.NodeVisitor):
    """Names in one function scope assigned *only* set expressions."""

    def __init__(self) -> None:
        self.assigned: Dict[str, bool] = {}  # name -> all assignments set-ish

    def _note(self, target: ast.AST, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            prior = self.assigned.get(target.id, True)
            self.assigned[target.id] = prior and is_set

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note(target, _is_set_expr(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note(node.target, _is_set_expr(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note(node.target, isinstance(node.op, (ast.BitOr, ast.BitAnd)))
        self.generic_visit(node)

    # Do not descend into nested scopes: their locals are their own.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.findings: List[LintFinding] = []
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._set_names_stack: List[Set[str]] = [set()]

    # -- helpers -------------------------------------------------------
    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def _set_names(self) -> Set[str]:
        return self._set_names_stack[-1]

    def _iter_is_setlike(self, node: ast.AST) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name) and node.id in self._set_names():
            return True
        return False

    def _inside_sorted(self, node: ast.AST) -> bool:
        parent = self._parents.get(node)
        while isinstance(
            parent, (ast.Starred, ast.GeneratorExp, ast.comprehension)
        ):
            parent = self._parents.get(parent)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in {"sorted", "len", "sum", "min", "max", "any", "all"}
        )

    # -- scope handling ------------------------------------------------
    def _enter_scope(self, node: ast.AST) -> None:
        scope = _ScopeSets()
        for stmt in getattr(node, "body", []):
            scope.visit(stmt)
        names = {n for n, ok in scope.assigned.items() if ok}
        self._set_names_stack.append(names)
        self.generic_visit(node)
        self._set_names_stack.pop()

    def visit_Module(self, node: ast.Module) -> None:
        self._enter_scope(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    # -- DET001: unordered iteration ----------------------------------
    def _check_iteration(self, iter_node: ast.AST) -> None:
        if self._iter_is_setlike(iter_node) and not self._inside_sorted(iter_node):
            self._add(
                iter_node,
                "DET001",
                "iteration over a set — order is hash-dependent; "
                "wrap in sorted(...) or justify with a suppression",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- call-based rules ----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            self._add(
                node,
                "DET008",
                "builtin hash() is randomized per process; "
                "use engine.rng.derive_seed instead",
            )
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base == "random" and attr in _RANDOM_FUNCS:
                self._add(
                    node,
                    "DET002",
                    f"module-level random.{attr}() — unseeded global RNG; "
                    "use DeterministicRng (engine.rng) instead",
                )
            elif (base, attr) in _WALLCLOCK_CALLS:
                self._add(
                    node,
                    "DET003",
                    f"wall-clock read {base}.{attr}() feeding program state",
                )
            elif (base, attr) in _ENTROPY_CALLS:
                self._add(node, "DET004", f"entropy source {base}.{attr}()")
            elif (base, attr) in _LISTING_CALLS and not self._inside_sorted(node):
                self._add(
                    node,
                    "DET006",
                    f"{base}.{attr}() order is filesystem-dependent; "
                    "wrap in sorted(...)",
                )
            elif (
                attr == "pop"
                and isinstance(func.value, ast.Name)
                and func.value.id in self._set_names()
                and not node.args
            ):
                self._add(
                    node,
                    "DET007",
                    f"set.pop() on {func.value.id!r} removes an arbitrary "
                    "element",
                )
            elif attr == "iterdir" and not self._inside_sorted(node):
                self._add(
                    node,
                    "DET006",
                    "Path.iterdir() order is filesystem-dependent; "
                    "wrap in sorted(...)",
                )
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                self._add(
                    node, "DET005", "ordering by object identity (key=id)"
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "secrets":
            self._add(node, "DET004", "import of entropy module `secrets`")
        if node.module == "random":
            names = ", ".join(alias.name for alias in node.names)
            self._add(
                node,
                "DET002",
                f"`from random import {names}` — unseeded global RNG",
            )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "secrets":
                self._add(node, "DET004", "import of entropy module `secrets`")
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one source text; returns unsuppressed findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintFinding(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="DET000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    linter = _Linter(path, tree)
    linter.visit(tree)
    suppressed = _suppressions(source)
    kept = []
    for finding in linter.findings:
        rules = suppressed.get(finding.line, "missing")
        if rules == "missing":
            kept.append(finding)
        elif rules is not None and finding.rule not in rules:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def lint_paths(paths: Sequence[str]) -> Tuple[List[LintFinding], int]:
    """Lint every ``.py`` file under the given files/directories.

    Returns ``(findings, files_checked)``.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    findings: List[LintFinding] = []
    for file in files:
        findings.extend(lint_source(file.read_text(), str(file)))
    return findings, len(files)
