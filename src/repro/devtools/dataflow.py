"""Flow-sensitive dataflow core for the lint engine.

The PR-1 linter was a stack of stateless per-statement AST visitors; the
REP1xx/REP2xx rule families need to reason about *how values move*: which
variable holds an RNG, whether a list's ordering descends from a ``set``,
whether a graph has already been frozen into an
:class:`~repro.engine.AnalysisContext` by the time a mutating method runs.
This module provides the three layers those rules share:

* **Scopes / symbol tables** — :func:`build_scope_tree` resolves every
  name binding per function (parameters, assignments, imports,
  comprehension targets, ``global`` / ``nonlocal`` redirections) so rules
  never confuse a shadowing local with an outer binding.
* **CFG + def-use chains** — :class:`ControlFlowGraph` turns a function
  body into basic blocks with branch/loop edges;
  :class:`DefUseChains` computes reaching definitions over it, and
  :meth:`ControlFlowGraph.reaches` answers the happens-before questions
  REP201/REP202 need ("does this freeze precede that mutation on some
  path, with no rebinding of the base symbol in between?").
* **Origin tagging** — :class:`FunctionAnalysis` runs a small abstract
  interpretation over the CFG, tagging values of interest:

  ============  ========================================================
  ``rng``       ``random.Random`` / ``numpy.random.Generator`` values
  ``graph``     :class:`~repro.graph.Graph` / ``DiGraph`` values
  ``dataset``   :class:`~repro.data.datasets.Dataset` values
  ``frozen``    ``AnalysisContext`` / ``CSRGraph`` snapshots
  ``unordered`` ordering descended from ``set``/``dict`` iteration and
                not yet normalized through ``convert.stable_sorted``
  ============  ========================================================

The analysis is intraprocedural and deliberately biased toward *no false
positives*: unknown calls clear tags, annotations seed them, and the only
sanctioned taint-clearing normalizer for ``unordered`` is
:func:`repro.graph.convert.stable_sorted` (plain ``sorted`` keeps the
tag — it raises ``TypeError`` on mixed-type node labels, which is exactly
why ``stable_sorted`` exists).

Use :func:`analyze_module` as the entry point; results are memoized on
the AST object so the per-file cost is paid once across all flow rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.devtools._base import _MATERIALIZERS

__all__ = [
    "Scope",
    "Symbol",
    "build_scope_tree",
    "BasicBlock",
    "ControlFlowGraph",
    "DefUseChains",
    "FunctionAnalysis",
    "ModuleInfo",
    "ModuleAnalysis",
    "analyze_module",
    "dotted_path",
    "root_name",
]

# --------------------------------------------------------------------------
# Scopes and symbol tables
# --------------------------------------------------------------------------

@dataclass
class Symbol:
    """One name within one scope, with every AST node that binds it."""

    name: str
    scope: "Scope"
    bindings: list[ast.AST] = field(default_factory=list)
    is_param: bool = False


@dataclass
class Scope:
    """A lexical scope: module, function, lambda, class or comprehension."""

    node: ast.AST
    parent: "Scope | None"
    kind: str  # "module" | "function" | "class" | "comprehension"
    symbols: dict[str, Symbol] = field(default_factory=dict)
    globals_: set[str] = field(default_factory=set)
    nonlocals_: set[str] = field(default_factory=set)
    children: list["Scope"] = field(default_factory=list)

    def bind(self, name: str, node: ast.AST, *, is_param: bool = False) -> Symbol:
        """Record ``node`` as a binding of ``name``, honouring ``global``
        and ``nonlocal`` redirections declared in this scope."""
        if name in self.globals_:
            return self.module_scope().bind(name, node)
        if name in self.nonlocals_:
            outer = self._nearest_function_ancestor()
            if outer is not None:
                return outer.bind(name, node)
        symbol = self.symbols.get(name)
        if symbol is None:
            symbol = Symbol(name=name, scope=self)
            self.symbols[name] = symbol
        symbol.bindings.append(node)
        symbol.is_param = symbol.is_param or is_param
        return symbol

    def resolve(self, name: str) -> Symbol | None:
        """Lexical lookup: this scope, then enclosing function scopes,
        then the module scope.  Class scopes are skipped for lookups
        originating in nested functions, matching Python semantics."""
        if name in self.globals_:
            return self.module_scope().symbols.get(name)
        scope: Scope | None = self
        first = True
        while scope is not None:
            if scope.kind != "class" or first:
                symbol = scope.symbols.get(name)
                if symbol is not None:
                    return symbol
            first = False
            scope = scope.parent
        return None

    def module_scope(self) -> "Scope":
        scope = self
        while scope.parent is not None:
            scope = scope.parent
        return scope

    def _nearest_function_ancestor(self) -> "Scope | None":
        scope = self.parent
        while scope is not None and scope.kind != "function":
            scope = scope.parent
        return scope


def _bind_target(scope: Scope, target: ast.AST, node: ast.AST) -> None:
    """Bind every plain name inside an assignment target."""
    if isinstance(target, ast.Name):
        scope.bind(target.id, node)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(scope, element, node)
    elif isinstance(target, ast.Starred):
        _bind_target(scope, target.value, node)
    # Attribute / Subscript targets bind no local name.


class _ScopeBuilder(ast.NodeVisitor):
    def __init__(self, root: Scope) -> None:
        self.scope = root

    def _enter(self, node: ast.AST, kind: str) -> Scope:
        child = Scope(node=node, parent=self.scope, kind=kind)
        self.scope.children.append(child)
        return child

    def _visit_in(self, scope: Scope, nodes: list[ast.AST]) -> None:
        saved, self.scope = self.scope, scope
        for sub in nodes:
            self.visit(sub)
        self.scope = saved

    # -- scope-introducing nodes ------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.scope.bind(node.name, node)
        for decorator in node.decorator_list:
            self.visit(decorator)
        inner = self._enter(node, "function")
        args = node.args
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            inner.bind(arg.arg, arg, is_param=True)
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None:
                self.visit(default)
        self._visit_in(inner, list(node.body))

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        inner = self._enter(node, "function")
        args = node.args
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            inner.bind(arg.arg, arg, is_param=True)
        self._visit_in(inner, [node.body])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.bind(node.name, node)
        for base in (*node.bases, *node.keywords, *node.decorator_list):
            self.visit(base)
        inner = self._enter(node, "class")
        self._visit_in(inner, list(node.body))

    def _visit_comprehension(self, node: ast.AST) -> None:
        inner = self._enter(node, "comprehension")
        for generator in node.generators:  # type: ignore[attr-defined]
            # The first iterable evaluates in the enclosing scope.
            self.visit(generator.iter)
            _bind_target(inner, generator.target, generator)
            self._visit_in(inner, list(generator.ifs))
        if isinstance(node, ast.DictComp):
            self._visit_in(inner, [node.key, node.value])
        else:
            self._visit_in(inner, [node.elt])  # type: ignore[attr-defined]

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- binding statements ------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.scope.globals_.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.scope.nonlocals_.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            _bind_target(self.scope, target, node)
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        _bind_target(self.scope, node.target, node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        _bind_target(self.scope, node.target, node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self.visit(node.value)
        _bind_target(self.scope, node.target, node)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        _bind_target(self.scope, node.target, node)
        for sub in (*node.body, *node.orelse):
            self.visit(sub)

    visit_AsyncFor = visit_For

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                _bind_target(self.scope, item.optional_vars, node)
        for sub in node.body:
            self.visit(sub)

    visit_AsyncWith = visit_With

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.scope.bind(node.name, node)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.scope.bind(name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name != "*":
                self.scope.bind(alias.asname or alias.name, node)


def build_scope_tree(tree: ast.Module) -> Scope:
    """Build the scope tree of a module; the returned scope is the module
    scope, with nested function/class/comprehension scopes as children."""
    root = Scope(node=tree, parent=None, kind="module")
    builder = _ScopeBuilder(root)
    for stmt in tree.body:
        builder.visit(stmt)
    return root


def iter_scopes(scope: Scope):
    """Depth-first iteration over a scope tree."""
    yield scope
    for child in scope.children:
        yield from iter_scopes(child)


# --------------------------------------------------------------------------
# Control-flow graph
# --------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A straight-line run of statements with branch edges at the end."""

    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)


class ControlFlowGraph:
    """A small statement-level CFG for one function body.

    Handles ``if``/``for``/``while``/``try``/``with`` plus
    ``break``/``continue``/``return``/``raise``.  Compound statements are
    *headers*: the ``if`` statement itself terminates its block (its test
    evaluates there) and its body/orelse become successor blocks.  This is
    enough structure for reaching-definitions and happens-before queries;
    it makes no claims about exceptional edges beyond ``try`` handlers.
    """

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = [BasicBlock(0)]
        self.entry = 0
        #: id(stmt) -> (block index, position in block)
        self.location: dict[int, tuple[int, int]] = {}

    # -- construction ------------------------------------------------------

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].successors:
            self.blocks[src].successors.append(dst)
            self.blocks[dst].predecessors.append(src)

    @classmethod
    def from_statements(cls, body: list[ast.stmt]) -> "ControlFlowGraph":
        cfg = cls()
        exits = cfg._build(body, cfg.entry, loop=None)
        terminal = cfg._new_block()
        for block in exits:
            cfg._edge(block, terminal.index)
        cfg.exit = terminal.index
        return cfg

    @classmethod
    def from_function(
        cls, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> "ControlFlowGraph":
        return cls.from_statements(list(fn.body))

    def _append(self, block: int, stmt: ast.stmt) -> None:
        position = len(self.blocks[block].statements)
        self.blocks[block].statements.append(stmt)
        self.location[id(stmt)] = (block, position)

    def _build(
        self,
        body: list[ast.stmt],
        current: int,
        loop: tuple[int, list[int]] | None,
    ) -> list[int]:
        """Thread ``body`` starting in block ``current``; returns the open
        exit blocks.  ``loop`` is ``(header_block, break_exits)``."""
        open_blocks = [current]
        for stmt in body:
            if not open_blocks:
                break  # unreachable code after return/raise/break
            if len(open_blocks) > 1:
                merge = self._new_block()
                for block in open_blocks:
                    self._edge(block, merge.index)
                open_blocks = [merge.index]
            block = open_blocks[0]
            if isinstance(stmt, ast.If):
                self._append(block, stmt)
                then_block = self._new_block()
                self._edge(block, then_block.index)
                then_exits = self._build(stmt.body, then_block.index, loop)
                if stmt.orelse:
                    else_block = self._new_block()
                    self._edge(block, else_block.index)
                    else_exits = self._build(stmt.orelse, else_block.index, loop)
                else:
                    else_exits = [block]
                open_blocks = then_exits + else_exits
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._append(block, stmt)
                header = self._new_block()
                self._edge(block, header.index)
                body_block = self._new_block()
                self._edge(header.index, body_block.index)
                breaks: list[int] = []
                body_exits = self._build(
                    stmt.body, body_block.index, (header.index, breaks)
                )
                for exit_block in body_exits:
                    self._edge(exit_block, header.index)  # loop back-edge
                if stmt.orelse:
                    else_block = self._new_block()
                    self._edge(header.index, else_block.index)
                    else_exits = self._build(stmt.orelse, else_block.index, loop)
                    open_blocks = else_exits + breaks
                else:
                    open_blocks = [header.index] + breaks
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                self._append(block, stmt)
                try_block = self._new_block()
                self._edge(block, try_block.index)
                try_exits = self._build(stmt.body, try_block.index, loop)
                handler_exits: list[int] = []
                for handler in stmt.handlers:
                    handler_block = self._new_block()
                    # Any statement in the try may raise: edge from entry.
                    self._edge(try_block.index, handler_block.index)
                    handler_exits.extend(
                        self._build(handler.body, handler_block.index, loop)
                    )
                if stmt.orelse:
                    else_block = self._new_block()
                    for exit_block in try_exits:
                        self._edge(exit_block, else_block.index)
                    try_exits = self._build(stmt.orelse, else_block.index, loop)
                open_blocks = try_exits + handler_exits
                if stmt.finalbody:
                    final_block = self._new_block()
                    for exit_block in open_blocks:
                        self._edge(exit_block, final_block.index)
                    open_blocks = self._build(stmt.finalbody, final_block.index, loop)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._append(block, stmt)
                inner = self._new_block()
                self._edge(block, inner.index)
                open_blocks = self._build(stmt.body, inner.index, loop)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                self._append(block, stmt)
                open_blocks = []
            elif isinstance(stmt, ast.Break):
                self._append(block, stmt)
                if loop is not None:
                    loop[1].append(block)
                open_blocks = []
            elif isinstance(stmt, ast.Continue):
                self._append(block, stmt)
                if loop is not None:
                    self._edge(block, loop[0])
                open_blocks = []
            else:
                self._append(block, stmt)
                open_blocks = [block]
        return open_blocks

    # -- queries -----------------------------------------------------------

    def statement_order(self) -> list[ast.stmt]:
        """Statements in block order (stable, deterministic)."""
        out: list[ast.stmt] = []
        for block in self.blocks:
            out.extend(block.statements)
        return out

    def reaches(
        self,
        source: ast.stmt,
        target: ast.stmt,
        *,
        killed_by: "set[int] | None" = None,
    ) -> bool:
        """True when control can flow from just *after* ``source`` to
        ``target``.  ``killed_by`` is an optional set of ``id(stmt)``
        barriers: paths passing through any of them do not count (used to
        model rebinding of a tracked symbol)."""
        if id(source) not in self.location or id(target) not in self.location:
            return False
        killed = killed_by or set()
        src_block, src_pos = self.location[id(source)]
        dst_block, dst_pos = self.location[id(target)]
        # Same block: simple position comparison along the fallthrough.
        if src_block == dst_block and dst_pos > src_pos:
            between = self.blocks[src_block].statements[src_pos + 1 : dst_pos]
            return not any(id(stmt) in killed for stmt in between)

        def block_clear(index: int, start: int, stop: int | None) -> bool:
            segment = self.blocks[index].statements[start:stop]
            return not any(id(stmt) in killed for stmt in segment)

        # BFS over blocks, starting after `source`.
        if not block_clear(src_block, src_pos + 1, None):
            start_successors: list[int] = []
        else:
            start_successors = self.blocks[src_block].successors
        seen = set()
        frontier = list(start_successors)
        while frontier:
            index = frontier.pop()
            if index in seen:
                continue
            seen.add(index)
            if index == dst_block:
                if block_clear(dst_block, 0, dst_pos):
                    return True
                continue  # target block reached but barrier before target
            if block_clear(index, 0, None):
                frontier.extend(self.blocks[index].successors)
        # Loop case: source and target share a block but target comes
        # first textually — reachable through a back-edge.
        if src_block == dst_block and dst_pos <= src_pos and src_block in seen:
            return block_clear(dst_block, 0, dst_pos)
        return False


# --------------------------------------------------------------------------
# Def-use chains (reaching definitions)
# --------------------------------------------------------------------------


def _statement_defs(stmt: ast.stmt) -> set[str]:
    """Names (re)bound by ``stmt`` itself, ignoring nested scopes."""
    names: set[str] = set()

    def collect(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect(element)
        elif isinstance(target, ast.Starred):
            collect(target.value)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            collect(target)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        collect(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        collect(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                collect(item.optional_vars)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            if alias.name != "*":
                names.add(alias.asname or alias.name.split(".")[0])
    # Walrus targets anywhere inside the statement's expressions.
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.NamedExpr):
            collect(sub.target)
    return names


class DefUseChains:
    """Reaching definitions over a :class:`ControlFlowGraph`.

    ``defs_reaching(use)`` maps a :class:`ast.Name` load to the set of
    statements whose binding of that name can reach it;
    ``uses_of(def_stmt)`` is the inverse.  Definitions are tracked at
    statement granularity (good enough for rule queries; sub-statement
    ordering inside one simple statement is not modelled).
    """

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        self._defs_by_name: dict[str, list[ast.stmt]] = {}
        for stmt in cfg.statement_order():
            for name in _statement_defs(stmt):
                self._defs_by_name.setdefault(name, []).append(stmt)
        self._in: dict[int, dict[str, set[int]]] = {}
        self._compute()
        self._use_map: dict[int, set[ast.stmt]] = {}
        self._uses_of: dict[int, list[ast.Name]] = {}
        self._link_uses()

    def _compute(self) -> None:
        blocks = self.cfg.blocks
        in_sets: dict[int, dict[str, set[int]]] = {
            block.index: {} for block in blocks
        }
        out_sets: dict[int, dict[str, set[int]]] = {
            block.index: {} for block in blocks
        }
        changed = True
        while changed:
            changed = False
            for block in blocks:
                merged: dict[str, set[int]] = {}
                for pred in block.predecessors:
                    for name, defs in out_sets[pred].items():
                        merged.setdefault(name, set()).update(defs)
                in_sets[block.index] = merged
                current = {name: set(defs) for name, defs in merged.items()}
                for stmt in block.statements:
                    killed = _statement_defs(stmt)
                    for name in killed:
                        current[name] = {id(stmt)}
                if current != out_sets[block.index]:
                    out_sets[block.index] = current
                    changed = True
        self._in = in_sets

    def _link_uses(self) -> None:
        id_to_stmt = {
            id(stmt): stmt for stmt in self.cfg.statement_order()
        }
        for block in self.cfg.blocks:
            live = {
                name: set(defs)
                for name, defs in self._in.get(block.index, {}).items()
            }
            for stmt in block.statements:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        reaching = {
                            id_to_stmt[d]
                            for d in live.get(sub.id, set())
                            if d in id_to_stmt
                        }
                        self._use_map[id(sub)] = reaching
                        for def_stmt in reaching:
                            self._uses_of.setdefault(id(def_stmt), []).append(sub)
                for name in _statement_defs(stmt):
                    live[name] = {id(stmt)}

    def defs_reaching(self, use: ast.Name) -> set[ast.stmt]:
        return self._use_map.get(id(use), set())

    def uses_of(self, def_stmt: ast.stmt) -> list[ast.Name]:
        return self._uses_of.get(id(def_stmt), [])

    def definitions(self, name: str) -> list[ast.stmt]:
        return list(self._defs_by_name.get(name, []))


# --------------------------------------------------------------------------
# Origin tagging
# --------------------------------------------------------------------------

RNG = "rng"
GRAPH = "graph"
DATASET = "dataset"
FROZEN = "frozen"
UNORDERED = "unordered"

_EMPTY: frozenset[str] = frozenset()

#: Constructors whose result is a set/dict (insertion/hash-ordered).
_UNORDERED_CONSTRUCTORS = frozenset(
    {"set", "frozenset", "dict", "Counter", "defaultdict", "OrderedDict"}
)

#: Graph freeze sites: constructing any of these snapshots a graph.
_FREEZE_CONSTRUCTORS = frozenset({"AnalysisContext", "CSRGraph", "freeze_directed"})

#: Annotation identifiers that seed origin tags on parameters.
_ANNOTATION_TAGS = {
    "Graph": GRAPH,
    "DiGraph": GRAPH,
    "Dataset": DATASET,
    "AnalysisContext": FROZEN,
    "CSRGraph": FROZEN,
    "Random": RNG,
    "Generator": RNG,
    "set": UNORDERED,
    "frozenset": UNORDERED,
    "dict": UNORDERED,
    "Counter": UNORDERED,
}


def dotted_path(expr: ast.expr) -> str | None:
    """Render ``a.b.c`` chains as a string; None for anything else."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(expr: ast.expr) -> str | None:
    """The base name of a ``a.b.c`` chain (``"a"``), or None."""
    path = dotted_path(expr)
    return path.split(".")[0] if path else None


@dataclass(frozen=True)
class ModuleInfo:
    """Module-level facts the per-function analyses share."""

    random_aliases: frozenset[str]
    numpy_aliases: frozenset[str]
    stable_sorted_names: frozenset[str]
    module_rng_names: frozenset[str]
    frozen_dataclasses: frozenset[str]


def _collect_module_info(tree: ast.Module) -> ModuleInfo:
    random_aliases: set[str] = set()
    numpy_aliases: set[str] = set()
    stable_names: set[str] = set()
    frozen_dataclasses: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
                elif alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    numpy_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "stable_sorted":
                    stable_names.add(alias.asname or "stable_sorted")
        elif isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Call)
                    and getattr(decorator.func, "id", getattr(decorator.func, "attr", None))
                    == "dataclass"
                    and any(
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in decorator.keywords
                    )
                ):
                    frozen_dataclasses.add(node.name)
    stable_names.add("stable_sorted")  # canonical name always recognized

    info = ModuleInfo(
        random_aliases=frozenset(random_aliases),
        numpy_aliases=frozenset(numpy_aliases),
        stable_sorted_names=frozenset(stable_names),
        module_rng_names=frozenset(),
        frozen_dataclasses=frozenset(frozen_dataclasses),
    )
    # Second pass: module-level names bound to RNG constructors.
    module_rng: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            if RNG in _expression_tags(stmt.value, {}, info):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        module_rng.add(target.id)
    return ModuleInfo(
        random_aliases=info.random_aliases,
        numpy_aliases=info.numpy_aliases,
        stable_sorted_names=info.stable_sorted_names,
        module_rng_names=frozenset(module_rng),
        frozen_dataclasses=info.frozen_dataclasses,
    )


def _annotation_tags(annotation: ast.expr | None) -> frozenset[str]:
    if annotation is None:
        return _EMPTY
    tags: set[str] = set()
    for sub in ast.walk(annotation):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotations: cheap token scan.
            for token, tag in _ANNOTATION_TAGS.items():
                if token in sub.value:
                    tags.add(tag)
        if name in _ANNOTATION_TAGS:
            tags.add(_ANNOTATION_TAGS[name])
    # ``X | AnalysisContext`` union parameters accept pre-frozen values;
    # the graph tag still applies (callers may pass a raw graph).
    return frozenset(tags)


def _is_rng_constructor(node: ast.Call, info: ModuleInfo) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in {"Random", "SystemRandom"} and isinstance(
            func.value, ast.Name
        ):
            return func.value.id in info.random_aliases
        if func.attr == "default_rng":
            inner = func.value
            if isinstance(inner, ast.Attribute) and inner.attr == "random":
                return (
                    isinstance(inner.value, ast.Name)
                    and inner.value.id in info.numpy_aliases
                )
            if isinstance(inner, ast.Name):
                return inner.id in info.numpy_aliases
    if isinstance(func, ast.Name) and func.id in {"Random", "default_rng"}:
        return True  # ``from random import Random`` style
    return False


def _call_name(node: ast.Call) -> str | None:
    """Trailing callable name: ``f(...)`` -> f, ``m.f(...)`` -> f."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _expression_tags(
    expr: ast.expr,
    env: dict[str, frozenset[str]],
    info: ModuleInfo,
) -> frozenset[str]:
    """Origin tags of ``expr`` under environment ``env``."""
    if isinstance(expr, ast.Name):
        if expr.id in info.module_rng_names:
            return frozenset({RNG})
        return env.get(expr.id, _EMPTY)
    if isinstance(expr, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
        return frozenset({UNORDERED})
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
        # Ordering descends from the first generator's iterable.
        first = expr.generators[0].iter
        if UNORDERED in _expression_tags(first, env, info):
            return frozenset({UNORDERED})
        return _EMPTY
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        left = _expression_tags(expr.left, env, info)
        right = _expression_tags(expr.right, env, info)
        if UNORDERED in left or UNORDERED in right:
            return frozenset({UNORDERED})
        return _EMPTY
    if isinstance(expr, ast.IfExp):
        return _expression_tags(expr.body, env, info) | _expression_tags(
            expr.orelse, env, info
        )
    if isinstance(expr, ast.BoolOp):
        tags: frozenset[str] = _EMPTY
        for value in expr.values:
            tags = tags | _expression_tags(value, env, info)
        return tags
    if isinstance(expr, ast.Starred):
        return _expression_tags(expr.value, env, info)
    if isinstance(expr, ast.Call):
        name = _call_name(expr)
        # The one sanctioned normalizer clears the unordered taint.
        if name in info.stable_sorted_names:
            return _EMPTY
        if _is_rng_constructor(expr, info):
            return frozenset({RNG})
        if name in _UNORDERED_CONSTRUCTORS:
            if name in {"set", "frozenset"}:
                return frozenset({UNORDERED})
            # dict()/Counter()/defaultdict(): unordered for iteration
            # purposes (hash/insertion order), same as displays.
            return frozenset({UNORDERED})
        if name in _FREEZE_CONSTRUCTORS or (
            name == "ensure"
            and isinstance(expr.func, ast.Attribute)
            and root_name(expr.func.value) in _FREEZE_CONSTRUCTORS
        ):
            return frozenset({FROZEN})
        if name in {"Graph", "DiGraph", "to_undirected", "to_directed"}:
            return frozenset({GRAPH})
        if name in {"keys", "values", "items"} and not expr.args:
            return frozenset({UNORDERED})
        # ``sorted`` is *not* mixed-type safe; it preserves the taint so
        # REP101 can point at ``stable_sorted`` instead.
        if name == "sorted" and expr.args:
            inner = _expression_tags(expr.args[0], env, info)
            return frozenset({UNORDERED}) if UNORDERED in inner else _EMPTY
        if name in _MATERIALIZERS and expr.args:
            # list()/tuple() preserve their argument's ordering origin.
            inner = _expression_tags(expr.args[0], env, info)
            if name in {"set", "frozenset", "dict"}:
                return frozenset({UNORDERED})
            return frozenset({UNORDERED}) if UNORDERED in inner else _EMPTY
        return _EMPTY  # unknown call: conservative, no tags
    if isinstance(expr, ast.Attribute):
        # ``x.attr`` reads keep no tags except the dataset.graph idiom.
        base = _expression_tags(expr.value, env, info)
        if expr.attr == "graph" and DATASET in base:
            return frozenset({GRAPH})
        return _EMPTY
    return _EMPTY


class FunctionAnalysis:
    """Scope + CFG + def-use + origin environments for one function."""

    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: Scope,
        info: ModuleInfo,
    ) -> None:
        self.function = fn
        self.scope = scope
        self.info = info
        self.cfg = ControlFlowGraph.from_function(fn)
        self.defuse = DefUseChains(self.cfg)
        self._env_in: dict[int, dict[str, frozenset[str]]] = {}
        self._compute_origins()

    # -- public queries ----------------------------------------------------

    def env_before(self, stmt: ast.stmt) -> dict[str, frozenset[str]]:
        """Origin environment at the program point just before ``stmt``."""
        return self._env_in.get(id(stmt), self._initial_env())

    def tags(self, expr: ast.expr, stmt: ast.stmt) -> frozenset[str]:
        """Origin tags of ``expr`` as evaluated inside ``stmt``."""
        return _expression_tags(expr, self.env_before(stmt), self.info)

    # -- fixpoint ----------------------------------------------------------

    def _initial_env(self) -> dict[str, frozenset[str]]:
        env: dict[str, frozenset[str]] = {}
        args = self.function.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            tags = _annotation_tags(arg.annotation)
            if not tags and arg.arg in {"rng", "random_state"}:
                tags = frozenset({RNG})
            if tags:
                env[arg.arg] = tags
        return env

    def _transfer(
        self, stmt: ast.stmt, env: dict[str, frozenset[str]]
    ) -> dict[str, frozenset[str]]:
        env = dict(env)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) >= 1:
            tags = _expression_tags(stmt.value, env, self.info)
            for target in stmt.targets:
                self._assign_target(target, stmt.value, tags, env)
        elif isinstance(stmt, ast.AnnAssign):
            tags = _annotation_tags(stmt.annotation)
            if stmt.value is not None:
                tags = tags | _expression_tags(stmt.value, env, self.info)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = tags
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                existing = env.get(stmt.target.id, _EMPTY)
                env[stmt.target.id] = existing | _expression_tags(
                    stmt.value, env, self.info
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Loop targets: elements of the iterable; ordering taint is a
            # property of sequences, so element bindings stay untagged
            # except when iterating a set/dict directly (the element
            # *sequence* is what downstream accumulations inherit).
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = _EMPTY
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    env[item.optional_vars.id] = _expression_tags(
                        item.context_expr, env, self.info
                    )
        # Walrus assignments anywhere inside the statement.
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.NamedExpr) and isinstance(
                sub.target, ast.Name
            ):
                env[sub.target.id] = _expression_tags(sub.value, env, self.info)
        return env

    def _assign_target(
        self,
        target: ast.expr,
        value: ast.expr,
        tags: frozenset[str],
        env: dict[str, frozenset[str]],
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
                target.elts
            ):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    sub_tags = _expression_tags(sub_value, env, self.info)
                    self._assign_target(sub_target, sub_value, sub_tags, env)
            else:
                for sub_target in target.elts:
                    if isinstance(sub_target, ast.Name):
                        env[sub_target.id] = _EMPTY

    def _compute_origins(self) -> None:
        blocks = self.cfg.blocks
        block_in: dict[int, dict[str, frozenset[str]]] = {
            self.cfg.entry: self._initial_env()
        }
        block_out: dict[int, dict[str, frozenset[str]]] = {}
        for _ in range(len(blocks) + 2):  # bounded fixpoint
            changed = False
            for block in blocks:
                if block.index == self.cfg.entry:
                    merged = dict(self._initial_env())
                else:
                    merged = {}
                    for pred in block.predecessors:
                        for name, tags in block_out.get(pred, {}).items():
                            merged[name] = merged.get(name, _EMPTY) | tags
                block_in[block.index] = merged
                env = dict(merged)
                for stmt in block.statements:
                    self._env_in[id(stmt)] = dict(env)
                    env = self._transfer(stmt, env)
                if block_out.get(block.index) != env:
                    block_out[block.index] = env
                    changed = True
            if not changed:
                break


@dataclass
class ModuleAnalysis:
    """Cached whole-module analysis: scopes, module facts, per-function
    :class:`FunctionAnalysis` objects (built lazily, memoized)."""

    tree: ast.Module
    scope_tree: Scope
    info: ModuleInfo
    _functions: dict[int, FunctionAnalysis] = field(default_factory=dict)

    def functions(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            scope.node
            for scope in iter_scopes(self.scope_tree)
            if scope.kind == "function"
            and isinstance(scope.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def analysis_for(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> FunctionAnalysis:
        cached = self._functions.get(id(fn))
        if cached is None:
            scope = next(
                scope
                for scope in iter_scopes(self.scope_tree)
                if scope.node is fn
            )
            cached = FunctionAnalysis(fn, scope, self.info)
            self._functions[id(fn)] = cached
        return cached


def analyze_module(tree: ast.Module) -> ModuleAnalysis:
    """Build (or fetch the memoized) :class:`ModuleAnalysis` for a tree.

    The result is cached on the AST object itself, so the several flow
    rules that run over one file share a single analysis."""
    cached = getattr(tree, "_repro_dataflow", None)
    if isinstance(cached, ModuleAnalysis):
        return cached
    analysis = ModuleAnalysis(
        tree=tree,
        scope_tree=build_scope_tree(tree),
        info=_collect_module_info(tree),
    )
    tree._repro_dataflow = analysis  # type: ignore[attr-defined]
    return analysis

