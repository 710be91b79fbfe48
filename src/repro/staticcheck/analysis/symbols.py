"""Cross-module symbol table for the interprocedural analysis layer.

The table indexes every function, method and class of the linted tree by a
stable *identifier* (``module.qualname``, e.g.
``repro.engine.executor._execute_task`` or
``repro.solvers.session.Session.solve``) and resolves the name-binding
machinery the per-module rules cannot see:

* **imports** -- ``import a.b as c`` / ``from a.b import d as e`` (absolute
  and relative) become an alias map per module, so a dotted reference in
  one module resolves to the symbol it names in another;
* **re-exports** -- a ``from x import y`` in a package ``__init__`` makes
  ``package.y`` resolve through to ``x.y`` (chains are followed with a
  cycle guard);
* **class attributes and methods** -- classes carry their base-class
  references, so ``self.method(...)`` resolves through project-local
  inheritance;
* **decorator unwrapping** -- every decorator is recorded by its
  *resolved* dotted name (``@register_solver(...)`` on a class imported
  from :mod:`repro.solvers.registry` is recorded as
  ``repro.solvers.registry.register_solver``), which is what the call
  graph's registry-dispatch resolution keys on.

The table also records, per module, the names declared **fork-local** via
a ``# repro: fork-local`` comment on their definition line: module globals
(or memoised functions) that are sanctioned worker-side state -- each
worker's private memo, or its installed fault plan -- which
the REP007/REP008 concurrency rules exempt.

Everything here is purely syntactic (no imports are executed), mirroring
the wire-schema extractor's approach.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Matches the fork-local sanction pragma (see module docstring).
_FORK_LOCAL_RE = re.compile(r"#\s*repro:\s*fork-local\b")


def module_name_for(path: Path, source_roots: Sequence[Path]) -> str:
    """The dotted module name of ``path`` relative to the closest source root.

    ``src/repro/engine/executor.py`` under root ``src`` becomes
    ``repro.engine.executor``; package ``__init__`` files name the package
    itself.  Files outside every root are named by their stem, which keeps
    single-file lint fixtures addressable (module ``fixture`` for
    ``fixture.py``).
    """
    resolved = path.resolve()
    best: Optional[Tuple[int, Tuple[str, ...]]] = None
    for root in source_roots:
        try:
            relative = resolved.relative_to(Path(root).resolve())
        except ValueError:
            continue
        parts = relative.with_suffix("").parts
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if not parts:
            continue
        candidate = (len(relative.parts), tuple(parts))
        if best is None or candidate < best:
            best = candidate  # the closest root wins (shortest relative path)
    if best is not None:
        return ".".join(best[1])
    return resolved.stem if resolved.stem != "__init__" else resolved.parent.name


def dotted_expr(node: ast.expr) -> str:
    """``a.b.c`` rendered as a dotted string, or ``""`` for other shapes."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def decorator_expr(node: ast.expr) -> str:
    """The dotted name under a decorator (``@f(...)`` and ``@f`` both -> ``f``)."""
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_expr(node)


def annotation_class_name(node: Optional[ast.expr]) -> str:
    """The class a (possibly quoted / Optional-wrapped) annotation names.

    ``Session``, ``"Session"``, ``Optional[Session]`` and
    ``Optional["Session"]`` all yield ``"Session"``; shapes the shallow
    receiver-typing cannot use (unions, generics over several arguments)
    yield ``""``.
    """
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ""
    if isinstance(node, ast.Subscript):
        head = dotted_expr(node.value).rsplit(".", 1)[-1]
        if head == "Optional":
            return annotation_class_name(node.slice)
        return ""
    return dotted_expr(node)


@dataclass(frozen=True)
class FunctionSymbol:
    """One function, method or nested function of the analysed tree."""

    ident: str
    module: str
    qualname: str
    name: str
    path: str
    lineno: int
    class_name: str  # "" for free functions
    decorators: Tuple[str, ...]  # resolved dotted names, outermost first
    returns_class: str  # resolved class ident of the return annotation, or ""
    node: FunctionNode = field(repr=False, compare=False, hash=False)

    @property
    def is_method(self) -> bool:
        """Whether the function is defined inside a class body."""
        return bool(self.class_name)


@dataclass(frozen=True)
class ClassSymbol:
    """One class of the analysed tree, with its project-resolvable bases."""

    ident: str
    module: str
    name: str
    path: str
    lineno: int
    bases: Tuple[str, ...]  # dotted base names as written
    decorators: Tuple[str, ...]  # resolved dotted names
    methods: Tuple[str, ...]  # method names (idents are ident + "." + name)
    node: ast.ClassDef = field(repr=False, compare=False, hash=False)


@dataclass(frozen=True)
class ModuleSymbols:
    """Everything the table knows about one module."""

    name: str
    path: str
    is_package: bool
    imports: Tuple[Tuple[str, str], ...]  # (local alias, dotted target)
    functions: Tuple[str, ...]  # top-level function names
    classes: Tuple[str, ...]  # top-level class names
    module_globals: Tuple[Tuple[str, int], ...]  # (name, definition line)
    mutable_globals: Tuple[str, ...]  # subset bound to mutable containers
    fork_local: Tuple[str, ...]  # names sanctioned by the fork-local pragma

    def import_map(self) -> Dict[str, str]:
        """The alias -> dotted-target mapping as a dict."""
        return dict(self.imports)

    def global_names(self) -> Set[str]:
        """Module-level bound names (assignment targets only)."""
        return {name for name, _ in self.module_globals}


#: Call targets whose value is a mutable container by construction.
_MUTABLE_CONSTRUCTORS = ("dict", "list", "set", "defaultdict", "deque", "Counter")


def _fork_local_lines(source: str) -> Set[int]:
    """1-based lines carrying a ``# repro: fork-local`` pragma comment."""
    lines: Set[int] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        comment = text.partition("#")[2]
        if comment and _FORK_LOCAL_RE.search("#" + comment):
            lines.add(lineno)
    return lines


def _relative_import_base(module: str, is_package: bool, level: int) -> str:
    """The absolute package a ``from ...x import y`` resolves against."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    return ".".join(parts)


class SymbolTable:
    """The project-wide symbol index (build with :meth:`build`)."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        modules: Iterable[Tuple[str, str, str, ast.Module]],
        # each entry: (module name, display path, source, parsed tree)
    ) -> "SymbolTable":
        """Index the given modules (name, display path, source, tree)."""
        table = cls()
        entries = sorted(modules, key=lambda item: item[0])
        for name, path, source, tree in entries:
            table._index_module(name, path, source, tree)
        table._resolve_decorators()
        return table

    def _index_module(
        self, name: str, path: str, source: str, tree: ast.Module
    ) -> None:
        pragma_lines = _fork_local_lines(source)
        imports: List[Tuple[str, str]] = []
        function_names: List[str] = []
        class_names: List[str] = []
        module_globals: List[Tuple[str, int]] = []
        mutable: List[str] = []
        fork_local: List[str] = []
        is_package = path.endswith("__init__.py")

        for statement in tree.body:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports.append((local, target))
            elif isinstance(statement, ast.ImportFrom):
                if statement.level:
                    base = _relative_import_base(name, is_package, statement.level)
                else:
                    base = statement.module or ""
                if statement.module and statement.level:
                    base = f"{base}.{statement.module}" if base else statement.module
                for alias in statement.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    imports.append((local, target))
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function_names.append(statement.name)
                self._index_function(name, path, statement, "", pragma_lines)
                if self._def_is_fork_local(statement, pragma_lines):
                    fork_local.append(statement.name)
            elif isinstance(statement, ast.ClassDef):
                class_names.append(statement.name)
                self._index_class(name, path, statement, pragma_lines)
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                value = statement.value
                is_mutable = isinstance(
                    value,
                    (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
                ) or (
                    isinstance(value, ast.Call)
                    and dotted_expr(value.func).rsplit(".", 1)[-1]
                    in _MUTABLE_CONSTRUCTORS
                )
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    module_globals.append((target.id, statement.lineno))
                    if is_mutable:
                        mutable.append(target.id)
                    if statement.lineno in pragma_lines:
                        fork_local.append(target.id)

        self.modules[name] = ModuleSymbols(
            name=name,
            path=path,
            is_package=is_package,
            imports=tuple(imports),
            functions=tuple(function_names),
            classes=tuple(class_names),
            module_globals=tuple(module_globals),
            mutable_globals=tuple(mutable),
            fork_local=tuple(sorted(set(fork_local))),
        )

    @staticmethod
    def _def_is_fork_local(node: FunctionNode, pragma_lines: Set[int]) -> bool:
        """Whether the pragma sits on the def line or any decorator line."""
        lines = {node.lineno}
        lines.update(d.lineno for d in node.decorator_list)
        return bool(lines & pragma_lines)

    def _index_function(
        self,
        module: str,
        path: str,
        node: FunctionNode,
        prefix: str,
        pragma_lines: Set[int],
        class_name: str = "",
    ) -> FunctionSymbol:
        qualname = f"{prefix}{node.name}"
        symbol = FunctionSymbol(
            ident=f"{module}.{qualname}",
            module=module,
            qualname=qualname,
            name=node.name,
            path=path,
            lineno=node.lineno,
            class_name=class_name,
            decorators=tuple(decorator_expr(d) for d in node.decorator_list),
            returns_class=annotation_class_name(node.returns),
            node=node,
        )
        self.functions[symbol.ident] = symbol
        # Nested functions are their own nodes (qualname uses the
        # <locals> convention so the identifiers match runtime qualnames).
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._direct_parent_function(node, child) is node:
                    self._index_function(
                        module,
                        path,
                        child,
                        f"{qualname}.<locals>.",
                        pragma_lines,
                        class_name="",
                    )
        return symbol

    @staticmethod
    def _direct_parent_function(root: FunctionNode, target: ast.AST) -> ast.AST:
        """The innermost function enclosing ``target`` within ``root``."""
        parent: ast.AST = root
        stack: List[Tuple[ast.AST, ast.AST]] = [(root, root)]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                if child is target:
                    return owner
                next_owner = (
                    child
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else owner
                )
                stack.append((child, next_owner))
        return parent

    def _index_class(
        self, module: str, path: str, node: ast.ClassDef, pragma_lines: Set[int]
    ) -> None:
        method_names: List[str] = []
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_names.append(statement.name)
                self._index_function(
                    module,
                    path,
                    statement,
                    f"{node.name}.",
                    pragma_lines,
                    class_name=node.name,
                )
        symbol = ClassSymbol(
            ident=f"{module}.{node.name}",
            module=module,
            name=node.name,
            path=path,
            lineno=node.lineno,
            bases=tuple(b for b in (dotted_expr(base) for base in node.bases) if b),
            decorators=tuple(decorator_expr(d) for d in node.decorator_list),
            methods=tuple(method_names),
            node=node,
        )
        self.classes[symbol.ident] = symbol

    def _resolve_decorators(self) -> None:
        """Rewrite decorator names to their resolved dotted form."""
        for ident in sorted(self.functions):
            symbol = self.functions[ident]
            resolved = tuple(
                self.resolve_dotted(symbol.module, d) or d for d in symbol.decorators
            )
            if resolved != symbol.decorators:
                object.__setattr__(symbol, "decorators", resolved)
        for ident in sorted(self.classes):
            cls_symbol = self.classes[ident]
            resolved = tuple(
                self.resolve_dotted(cls_symbol.module, d) or d
                for d in cls_symbol.decorators
            )
            if resolved != cls_symbol.decorators:
                object.__setattr__(cls_symbol, "decorators", resolved)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_dotted(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a dotted reference as seen from ``module``.

        Returns the dotted form with the leading alias replaced by its
        import target (``sess.solve`` -> ``repro.solvers.session.solve``),
        or the input unchanged when the head names a local symbol, or
        ``None`` when the head is unknown (builtins, stdlib).
        """
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        symbols = self.modules.get(module)
        if symbols is None:
            return None
        if head in symbols.functions or head in symbols.classes:
            return f"{module}.{dotted}"
        target = symbols.import_map().get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a dotted reference to a function/method/class *ident*.

        Follows import aliases and re-export chains (``from x import y``
        in package ``__init__`` modules) with a cycle guard.  Returns the
        ident of a known :class:`FunctionSymbol` or :class:`ClassSymbol`,
        or ``None``.
        """
        absolute = self.resolve_dotted(module, dotted)
        if absolute is None:
            return None
        return self.resolve_absolute(absolute)

    def resolve_absolute(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve an absolute dotted path through modules and re-exports."""
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return None
        seen.add(dotted)
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Longest module prefix, then member lookup inside it.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            symbols = self.modules.get(module)
            if symbols is None:
                continue
            member = parts[cut]
            rest = parts[cut + 1 :]
            candidate = f"{module}.{'.'.join([member] + rest)}"
            if candidate in self.functions or candidate in self.classes:
                return candidate
            reexport = symbols.import_map().get(member)
            if reexport is not None:
                chased = ".".join([reexport] + rest)
                return self.resolve_absolute(chased, seen)
            return None
        return None

    # ------------------------------------------------------------------
    # Class helpers
    # ------------------------------------------------------------------
    def method_of(self, class_ident: str, method: str) -> Optional[str]:
        """The ident of ``method`` on a class or its project bases (MRO-ish)."""
        seen: Set[str] = set()
        queue: List[str] = [class_ident]
        while queue:
            ident = queue.pop(0)
            if ident in seen:
                continue
            seen.add(ident)
            symbol = self.classes.get(ident)
            if symbol is None:
                continue
            if method in symbol.methods:
                return f"{ident}.{method}"
            for base in symbol.bases:
                resolved = self.resolve(symbol.module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def classes_decorated_by(self, decorator_suffixes: Tuple[str, ...]) -> List[str]:
        """Class idents whose (resolved) decorator ends with any suffix."""
        found: List[str] = []
        for ident in sorted(self.classes):
            for decorator in self.classes[ident].decorators:
                tail = decorator.rsplit(".", 1)[-1]
                if tail in decorator_suffixes:
                    found.append(ident)
                    break
        return found

    def fork_local_names(self, module: str) -> Set[str]:
        """Names declared fork-local in ``module`` (empty for unknown modules)."""
        symbols = self.modules.get(module)
        return set(symbols.fork_local) if symbols is not None else set()
