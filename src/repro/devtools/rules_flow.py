"""Flow-sensitive lint rules: RNG discipline (REP1xx) and freeze-once
contracts (REP2xx).

These rules run on top of :mod:`repro.devtools.dataflow` — per-function
scopes, a CFG with def-use chains, and origin tags (``rng``, ``graph``,
``dataset``, ``frozen``, ``unordered``).  Where the REP0xx family pattern-
matches single statements, this family answers *flow* questions: did this
list's ordering descend from a ``set``?  does a freeze of ``g`` reach this
``g.add_edge`` with no rebinding in between?

All rules are intraprocedural and tuned for zero false positives on this
tree: unknown calls clear origin tags, and reachability queries kill paths
through statements that rebind the tracked symbol.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools._base import (
    _GRAPH_MUTATORS,
    _RNG_CONSUMERS,
    FileContext,
    Rule,
    Violation,
)
from repro.devtools.dataflow import (
    DATASET,
    FROZEN,
    GRAPH,
    RNG,
    UNORDERED,
    FunctionAnalysis,
    ModuleAnalysis,
    analyze_module,
    dotted_path,
    root_name,
)

__all__ = ["FLOW_RULES"]

_TRY_TYPES = (ast.Try, getattr(ast, "TryStar", ast.Try))

#: Registered determinism pipelines (samplers + detectors); sharing one
#: RNG across two *different* entries couples their random sequences.
_PIPELINE_FUNCS = frozenset(
    {
        "random_walk_set",
        "bfs_ball_set",
        "uniform_vertex_set",
        "forest_fire_set",
        "sample_matched_ids",
        "sample_matched_sets",
        "louvain_communities",
        "label_propagation_communities",
        "greedy_modularity_communities",
    }
)

#: Freeze-once drivers: callable name -> keyword that threads an existing
#: frozen context through (None = the first argument itself should already
#: be frozen).  A call that *omits* the keyword freezes internally.
_FREEZE_DRIVERS: dict[str, str | None] = {
    "circles_vs_random": "context",
    "compare_datasets": "contexts",
    "directed_vs_undirected": "context",
    "ego_centered_scores": "joined",
    "score_groups": None,
    "score_group": None,
}

_FREEZE_CONSTRUCTOR_NAMES = frozenset(
    {"AnalysisContext", "CSRGraph", "freeze_directed"}
)

#: Methods that hand their arguments to another process (stdlib
#: ``concurrent.futures`` / ``multiprocessing`` dispatch surface).
_EXECUTOR_DISPATCH = frozenset(
    {
        "submit",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
    }
)


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _own_expressions(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expressions evaluated *by this statement itself* — excludes nested
    statement bodies (those live in their own CFG blocks / functions)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield from stmt.decorator_list
        return
    if isinstance(stmt, ast.ClassDef):
        yield from stmt.bases
        yield from (kw.value for kw in stmt.keywords)
        yield from stmt.decorator_list
        return
    if isinstance(stmt, (ast.If, ast.While)):
        yield stmt.test
        return
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
        return
    if isinstance(stmt, _TRY_TYPES):
        return
    for _field, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item


def _calls_in(stmt: ast.stmt) -> Iterator[ast.Call]:
    for expr in _own_expressions(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                yield sub


def _looks_like_rng(
    expr: ast.expr, fa: FunctionAnalysis, stmt: ast.stmt
) -> bool:
    """Receiver heuristic for RNG method calls: origin tag, module-level
    RNG name, or a conventional ``rng`` / ``random_state`` name."""
    if RNG in fa.tags(expr, stmt):
        return True
    path = dotted_path(expr)
    if path is None:
        return False
    leaf = path.split(".")[-1]
    if leaf in fa.info.module_rng_names:
        return True
    return leaf == "random_state" or leaf == "rng" or leaf.endswith("_rng")


def _looks_like_executor(expr: ast.expr) -> bool:
    """Receiver heuristic for executor dispatch: a conventional pool or
    executor name (``pool``, ``executor``, ``*_pool``, ``*_executor``)."""
    path = dotted_path(expr)
    if path is None:
        return False
    leaf = path.split(".")[-1]
    return (
        leaf in {"pool", "executor"}
        or leaf.endswith("_pool")
        or leaf.endswith("_executor")
    )


def _freeze_site_arg(
    call: ast.Call, fa: FunctionAnalysis, stmt: ast.stmt
) -> ast.expr | None:
    """The graph argument of a freeze call site, else ``None``.

    Direct constructors (``AnalysisContext(g)``, ``CSRGraph(g)``,
    ``freeze_directed(g)``) always count; ``AnalysisContext.ensure(x)``
    only counts when ``x`` is provably a raw graph/dataset (``ensure``
    exists precisely for maybe-already-frozen values).
    """
    name = _call_name(call)
    if name in _FREEZE_CONSTRUCTOR_NAMES:
        if call.args:
            return call.args[0]
        for kw in call.keywords:
            if kw.arg in {"graph", "source"}:
                return kw.value
        return None
    if name == "ensure" and isinstance(call.func, ast.Attribute):
        base = root_name(call.func.value)
        if base == "AnalysisContext" and call.args:
            arg = call.args[0]
            tags = fa.tags(arg, stmt)
            if (GRAPH in tags or DATASET in tags) and FROZEN not in tags:
                return arg
    return None


def _rebind_barriers(
    fa: FunctionAnalysis, root: str, *, exclude: ast.stmt
) -> set[int]:
    """``id()`` set of statements that rebind ``root`` (kill paths)."""
    return {
        id(stmt)
        for stmt in fa.defuse.definitions(root)
        if stmt is not exclude
    }


# --------------------------------------------------------------------------
# REP1xx — RNG discipline
# --------------------------------------------------------------------------


class UnorderedRandomFeed(Rule):
    """An RNG consumer is fed data whose ordering descends from ``set`` or
    ``dict`` iteration without passing through ``convert.stable_sorted``.

    Set/dict iteration order is hash- and history-dependent, so
    ``rng.choice`` over it breaks bit-identical seed-determinism even with
    a fixed seed.  Plain ``sorted()`` does *not* clear the taint: it
    raises ``TypeError`` on the mixed-type node labels this repo supports,
    which is exactly why :func:`repro.graph.convert.stable_sorted` exists.
    """

    id = "REP101"
    summary = (
        "RNG consumer fed set/dict-ordered data without stable_sorted"
    )
    example_bad = (
        "candidates = {v for v in graph.neighbors(u)}\n"
        "pick = rng.choice(sorted(candidates))  # TypeError on mixed labels\n"
    )
    example_good = (
        "candidates = {v for v in graph.neighbors(u)}\n"
        "pick = rng.choice(stable_sorted(candidates))\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        for fn in module.functions():
            fa = module.analysis_for(fn)
            for stmt in fa.cfg.statement_order():
                for call in _calls_in(stmt):
                    if not isinstance(call.func, ast.Attribute):
                        continue
                    if call.func.attr not in _RNG_CONSUMERS:
                        continue
                    if not _looks_like_rng(call.func.value, fa, stmt):
                        continue
                    values = list(call.args) + [
                        kw.value for kw in call.keywords
                    ]
                    for arg in values:
                        if UNORDERED in fa.tags(arg, stmt):
                            yield self.violation(
                                ctx,
                                call,
                                f"`{call.func.attr}` consumes set/dict "
                                "iteration order; normalize the argument "
                                "with convert.stable_sorted(...) first "
                                "(plain sorted() is not mixed-type safe)",
                            )
                            break


class ModuleRngInFunction(Rule):
    """A module-level RNG instance is consumed inside a function.

    A shared module-level ``random.Random`` couples every caller's random
    sequence to global call history — the same hidden-state hazard as the
    bare ``random.*`` functions REP001 bans, one indirection removed.
    Thread an explicit ``rng``/``seed`` parameter instead.
    """

    id = "REP102"
    summary = "module-level RNG instance consumed inside a function"
    example_bad = (
        "_RNG = random.Random(0)\n"
        "def pick(items):\n"
        "    return _RNG.choice(items)\n"
    )
    example_good = (
        "def pick(items, rng):\n"
        "    return rng.choice(items)\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        if not module.info.module_rng_names:
            return
        for fn in module.functions():
            fa = module.analysis_for(fn)
            for stmt in fa.cfg.statement_order():
                for expr in _own_expressions(stmt):
                    for sub in ast.walk(expr):
                        if not (
                            isinstance(sub, ast.Name)
                            and isinstance(sub.ctx, ast.Load)
                            and sub.id in module.info.module_rng_names
                        ):
                            continue
                        symbol = fa.scope.resolve(sub.id)
                        if symbol is not None and symbol.scope.kind != "module":
                            continue  # shadowed by a local binding
                        yield self.violation(
                            ctx,
                            sub,
                            f"module-level RNG `{sub.id}` consumed inside "
                            f"`{fn.name}`; thread an explicit rng/seed "
                            "parameter instead of shared global state",
                        )


class SharedPipelineRng(Rule):
    """One RNG object is passed to two *different* registered determinism
    pipelines in the same function.

    Each registered pipeline (samplers, detectors) must replay the same
    random sequence from a given seed regardless of what ran before it.
    Feeding one live RNG into two different pipelines couples their
    sequences: reordering the calls silently changes both results.  Derive
    an independent child RNG per pipeline (e.g. ``random.Random(seed + k)``
    or ``SeedSequence.spawn``).
    """

    id = "REP103"
    summary = "one RNG shared across two different determinism pipelines"
    example_bad = (
        "rng = random.Random(seed)\n"
        "walk = random_walk_set(ctx, size, rng=rng)\n"
        "ball = bfs_ball_set(ctx, size, rng=rng)  # coupled sequences\n"
    )
    example_good = (
        "walk = random_walk_set(ctx, size, rng=random.Random(seed))\n"
        "ball = bfs_ball_set(ctx, size, rng=random.Random(seed + 1))\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        for fn in module.functions():
            fa = module.analysis_for(fn)
            seen: dict[str, set[str]] = {}
            for stmt in fa.cfg.statement_order():
                for call in _calls_in(stmt):
                    # Only direct calls of registered pipelines; calls
                    # through a variable (``sampler(...)``) are dispatch
                    # helpers and stay exempt.
                    if not isinstance(call.func, ast.Name):
                        continue
                    callee = call.func.id
                    if callee not in _PIPELINE_FUNCS:
                        continue
                    for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                        if not isinstance(arg, ast.Name):
                            continue
                        if RNG not in fa.tags(arg, stmt):
                            continue
                        callees = seen.setdefault(arg.id, set())
                        if callees and callee not in callees:
                            yield self.violation(
                                ctx,
                                call,
                                f"RNG `{arg.id}` is shared across "
                                f"pipelines {sorted(callees)[0]} and "
                                f"{callee}; derive an independent child "
                                "RNG per pipeline",
                            )
                        callees.add(callee)


class DeadSeedParameter(Rule):
    """A function accepts a ``seed`` parameter but never reads it, so the
    caller's seed silently has no effect.

    This is how nondeterminism hides in plain sight: the signature
    advertises reproducibility while the body draws from somewhere else.
    Either wire the seed into the RNG or drop the parameter.
    """

    id = "REP104"
    summary = "seed parameter accepted but never used in the body"
    example_bad = (
        "def sample(graph, size, seed=0):\n"
        "    return random_walk_set(graph, size)  # seed ignored\n"
    )
    example_good = (
        "def sample(graph, size, seed=0):\n"
        "    return random_walk_set(graph, size, rng=random.Random(seed))\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        for fn in module.functions():
            args = fn.args
            params = [
                arg
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if arg.arg == "seed"
            ]
            if not params:
                continue
            if self._is_stub(fn):
                continue
            used = any(
                isinstance(node, ast.Name)
                and node.id == "seed"
                and isinstance(node.ctx, (ast.Load, ast.Store))
                for stmt in fn.body
                for node in ast.walk(stmt)
            )
            if not used:
                yield self.violation(
                    ctx,
                    params[0],
                    f"`{fn.name}` accepts `seed` but never uses it; "
                    "wire it into the RNG or drop the parameter",
                )

    @staticmethod
    def _is_stub(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Protocol/ABC stubs: docstring, ``pass``, ``...`` or ``raise``."""
        for stmt in fn.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Raise):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or bare ellipsis
            return False
        return True


class RngAcrossProcessBoundary(Rule):
    """An RNG object is shipped across a process/executor boundary.

    ``pool.submit(fn, rng)`` pickles the RNG into the worker: the parent's
    copy and the worker's copy then advance independently, so the combined
    random sequence depends on scheduling and is unreplayable from the
    seed.  Under ``fork`` the hazard inverts — every worker inherits the
    *same* state and draws identical "random" values.  Ship integer child
    seeds instead (:func:`repro.sampling.seeds.spawn_child_seeds`, the
    children of ``numpy.random.SeedSequence.spawn``) and rebuild the RNG
    inside the worker.
    """

    id = "REP105"
    summary = "RNG object passed across a process/executor boundary"
    example_bad = (
        "rng = random.Random(seed)\n"
        "futures = [pool.submit(sample_one, ctx, size, rng)\n"
        "           for size in sizes]  # forked/pickled RNG state\n"
    )
    example_good = (
        "seeds = spawn_child_seeds(seed, len(sizes))\n"
        "futures = [pool.submit(sample_one, ctx, size, child)\n"
        "           for size, child in zip(sizes, seeds)]\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        for fn in module.functions():
            fa = module.analysis_for(fn)
            for stmt in fa.cfg.statement_order():
                for call in _calls_in(stmt):
                    if not isinstance(call.func, ast.Attribute):
                        continue
                    if call.func.attr not in _EXECUTOR_DISPATCH:
                        continue
                    if not _looks_like_executor(call.func.value):
                        continue
                    for arg in [
                        *call.args,
                        *(kw.value for kw in call.keywords),
                    ]:
                        offender = self._rng_payload(arg, fa, stmt)
                        if offender is None:
                            continue
                        label = dotted_path(offender) or "<rng>"
                        yield self.violation(
                            ctx,
                            call,
                            f"RNG `{label}` crosses a process boundary "
                            f"via `{call.func.attr}`; RNG state does not "
                            "replay across pickling/fork — send integer "
                            "child seeds (sampling.seeds."
                            "spawn_child_seeds) and rebuild the RNG in "
                            "the worker",
                        )
                        break

    @staticmethod
    def _rng_payload(
        arg: ast.expr, fa: FunctionAnalysis, stmt: ast.stmt
    ) -> ast.expr | None:
        """The RNG-valued expression shipped by ``arg``, else ``None``.

        Checks the argument itself and, recursively, the elements of
        literal tuples/lists (the ``args=(rng,)`` convention); structure
        behind variables is opaque to intraprocedural tags and stays
        exempt.
        """
        pending: list[ast.expr] = [arg]
        while pending:
            candidate = pending.pop()
            if isinstance(candidate, ast.Starred):
                pending.append(candidate.value)
            elif isinstance(candidate, (ast.Tuple, ast.List)):
                pending.extend(candidate.elts)
            elif _looks_like_rng(candidate, fa, stmt):
                return candidate
        return None


# --------------------------------------------------------------------------
# REP2xx — freeze-once contracts
# --------------------------------------------------------------------------


class MutationAfterFreeze(Rule):
    """A mutating ``Graph`` method runs on a variable that has already
    flowed into ``AnalysisContext``/``CSRGraph``/``freeze_*``.

    The freeze-once contract says a context never observes later graph
    mutations — the CSR snapshot, degree arrays and medians are all taken
    at construction.  Mutating afterwards silently desynchronizes the
    graph from every consumer of the context.  Finish building the graph
    first, or rebuild the context after mutation.
    """

    id = "REP201"
    summary = "Graph mutated after being frozen into an AnalysisContext"
    example_bad = (
        "context = AnalysisContext(g)\n"
        "g.add_edge(u, v)  # context no longer matches g\n"
    )
    example_good = (
        "g.add_edge(u, v)\n"
        "context = AnalysisContext(g)  # freeze after the graph is final\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        for fn in module.functions():
            fa = module.analysis_for(fn)
            statements = fa.cfg.statement_order()
            freezes: list[tuple[ast.stmt, str]] = []
            for stmt in statements:
                for call in _calls_in(stmt):
                    arg = _freeze_site_arg(call, fa, stmt)
                    if arg is None:
                        continue
                    path = dotted_path(arg)
                    if path is not None:
                        freezes.append((stmt, path))
            if not freezes:
                continue
            for stmt in statements:
                for call in _calls_in(stmt):
                    if not isinstance(call.func, ast.Attribute):
                        continue
                    if call.func.attr not in _GRAPH_MUTATORS:
                        continue
                    target = dotted_path(call.func.value)
                    if target is None:
                        continue
                    for freeze_stmt, path in freezes:
                        if path != target or freeze_stmt is stmt:
                            continue
                        barriers = _rebind_barriers(
                            fa,
                            path.split(".")[0],
                            exclude=freeze_stmt,
                        )
                        if fa.cfg.reaches(
                            freeze_stmt, stmt, killed_by=barriers
                        ):
                            yield self.violation(
                                ctx,
                                call,
                                f"`{target}.{call.func.attr}` mutates a "
                                "graph already frozen into an analysis "
                                "context (freeze-once contract); mutate "
                                "before freezing or rebuild the context",
                            )
                            break


class DoubleFreeze(Rule):
    """The same graph is frozen into a context twice in one function.

    Each freeze re-derives the CSR arrays, degree array and median — the
    exact redundancy :class:`~repro.engine.AnalysisContext` exists to
    eliminate.  Construct the context once and pass it to every consumer.
    """

    id = "REP202"
    summary = "same graph frozen into an AnalysisContext twice"
    example_bad = (
        "scores = score_groups(AnalysisContext(g), groups)\n"
        "null = sample_sets(AnalysisContext(g), sizes)  # second freeze\n"
    )
    example_good = (
        "context = AnalysisContext(g)\n"
        "scores = score_groups(context, groups)\n"
        "null = sample_sets(context, sizes)\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        for fn in module.functions():
            fa = module.analysis_for(fn)
            sites: list[tuple[ast.stmt, ast.Call, str]] = []
            for stmt in fa.cfg.statement_order():
                for call in _calls_in(stmt):
                    arg = _freeze_site_arg(call, fa, stmt)
                    if arg is None:
                        continue
                    path = dotted_path(arg)
                    if path is not None:
                        sites.append((stmt, call, path))
            flagged: set[int] = set()
            for i, (stmt_a, _call_a, path_a) in enumerate(sites):
                for j, (stmt_b, call_b, path_b) in enumerate(sites):
                    if i == j or path_a != path_b or id(call_b) in flagged:
                        continue
                    if stmt_a is stmt_b:
                        if j > i:  # two freeze calls in one statement
                            reached = True
                        else:
                            continue
                    else:
                        barriers = _rebind_barriers(
                            fa, path_a.split(".")[0], exclude=stmt_a
                        )
                        reached = fa.cfg.reaches(
                            stmt_a, stmt_b, killed_by=barriers
                        )
                    if reached:
                        flagged.add(id(call_b))
                        yield self.violation(
                            ctx,
                            call_b,
                            f"`{path_b}` is frozen into a context more "
                            "than once in `{}`; construct the context "
                            "once and reuse it".format(fn.name),
                        )


class GraphInValueObject(Rule):
    """A live ``Graph`` reference is stored inside a value object.

    Value objects such as ``GroupStats`` are frozen snapshots of derived
    quantities; holding a live graph inside one reintroduces the aliasing
    the freeze-once substrate removed — the graph can mutate after the
    snapshot, and equality/pickling drag the whole adjacency along.  Store
    the frozen ``AnalysisContext`` or the derived scalars instead.

    Checked classes: the ``value-objects`` list from ``[tool.repro.lint]``
    (default ``GroupStats``) plus same-file ``@dataclass(frozen=True)``
    classes that do not themselves declare a graph-typed field.
    """

    id = "REP203"
    summary = "live Graph reference stored inside a value object"
    example_bad = (
        "@dataclass(frozen=True)\n"
        "class GroupStats:\n"
        "    payload: object\n"
        "stats = GroupStats(payload=graph)  # live reference\n"
    )
    example_good = "stats = GroupStats(payload=graph.number_of_edges())\n"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        configured = ctx.options.get("value_objects", ("GroupStats",))
        names = set(configured if isinstance(configured, (list, tuple)) else ())
        names.update(self._checkable_dataclasses(tree, module))
        if not names:
            return
        for fn in module.functions():
            fa = module.analysis_for(fn)
            for stmt in fa.cfg.statement_order():
                for call in _calls_in(stmt):
                    callee = _call_name(call)
                    if callee not in names:
                        continue
                    for arg in [
                        *call.args,
                        *(kw.value for kw in call.keywords),
                    ]:
                        if GRAPH in fa.tags(arg, stmt):
                            yield self.violation(
                                ctx,
                                call,
                                f"live Graph reference passed into value "
                                f"object `{callee}`; store the frozen "
                                "context or derived scalars instead",
                            )
                            break

    @staticmethod
    def _checkable_dataclasses(
        tree: ast.Module, module: ModuleAnalysis
    ) -> set[str]:
        """Same-file frozen dataclasses, minus those whose own fields are
        *declared* graph-typed (carrying a graph is their design, e.g.
        ``Dataset``; that contract is owned by review, not this rule)."""
        checkable: set[str] = set()
        graph_tokens = {"Graph", "DiGraph", "Dataset"}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name in module.info.frozen_dataclasses
            ):
                continue
            declares_graph = False
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    for sub in ast.walk(stmt.annotation):
                        name = getattr(sub, "id", getattr(sub, "attr", None))
                        if name in graph_tokens or (
                            isinstance(sub, ast.Constant)
                            and isinstance(sub.value, str)
                            and any(t in sub.value for t in graph_tokens)
                        ):
                            declares_graph = True
            if not declares_graph:
                checkable.add(node.name)
        return checkable


class RepeatedDriverFreeze(Rule):
    """The same graph/dataset is frozen repeatedly across experiment
    drivers in one function.

    Experiment drivers (``circles_vs_random``, ``compare_datasets``,
    ``directed_vs_undirected``, ...) freeze their input internally when no
    pre-built context is threaded through their ``context=``/``contexts=``
    keyword.  Calling two of them on the same source — or mixing a direct
    ``AnalysisContext(...)`` with a context-less driver call — re-freezes
    the same graph per call.  Build the context once and thread it.
    """

    id = "REP204"
    summary = "same source frozen repeatedly across experiment drivers"
    example_bad = (
        "result = circles_vs_random(dataset, seed=seed)\n"
        "table = compare_datasets([dataset, other])  # dataset refrozen\n"
    )
    example_good = (
        "context = AnalysisContext(dataset.graph)\n"
        "result = circles_vs_random(dataset, seed=seed, context=context)\n"
        "table = compare_datasets([dataset, other],\n"
        "                         contexts=[context, None])\n"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        module = analyze_module(tree)
        for fn in module.functions():
            fa = module.analysis_for(fn)
            # site: (stmt, call node, roots, is_driver, callee name)
            sites: list[tuple[ast.stmt, ast.Call, set[str], bool, str]] = []
            for stmt in fa.cfg.statement_order():
                for call in _calls_in(stmt):
                    site = self._site(call, fa, stmt)
                    if site is not None:
                        sites.append((stmt, call, *site))
            flagged: set[int] = set()
            for i, (stmt_a, _a, roots_a, driver_a, name_a) in enumerate(sites):
                for j, (stmt_b, call_b, roots_b, driver_b, name_b) in enumerate(
                    sites
                ):
                    if i == j or id(call_b) in flagged:
                        continue
                    if not (driver_a or driver_b):
                        continue  # two raw constructors: REP202's case
                    shared = roots_a & roots_b
                    if not shared:
                        continue
                    root = sorted(shared)[0]
                    if stmt_a is stmt_b:
                        if j <= i:
                            continue
                        reached = True
                    else:
                        barriers = _rebind_barriers(
                            fa, root, exclude=stmt_a
                        )
                        reached = fa.cfg.reaches(
                            stmt_a, stmt_b, killed_by=barriers
                        )
                    if reached:
                        flagged.add(id(call_b))
                        yield self.violation(
                            ctx,
                            call_b,
                            f"`{root}` is frozen again by `{name_b}` "
                            f"(already frozen via `{name_a}`); build one "
                            "AnalysisContext and thread it through the "
                            "driver's context keyword",
                        )

    def _site(
        self, call: ast.Call, fa: FunctionAnalysis, stmt: ast.stmt
    ) -> tuple[set[str], bool, str] | None:
        """Classify ``call`` as a freeze-equivalent site."""
        name = _call_name(call)
        arg = _freeze_site_arg(call, fa, stmt)
        if arg is not None:
            tags = fa.tags(arg, stmt)
            if GRAPH in tags or DATASET in tags:
                root = root_name(arg)
                if root is not None:
                    return {root}, False, name or "freeze"
            return None
        if name not in _FREEZE_DRIVERS or not isinstance(call.func, ast.Name):
            return None
        context_kwarg = _FREEZE_DRIVERS[name]
        if context_kwarg is not None and any(
            kw.arg == context_kwarg for kw in call.keywords
        ):
            return None  # context threaded through: no internal freeze
        if not call.args:
            return None
        first = call.args[0]
        roots: set[str] = set()
        elements = (
            first.elts if isinstance(first, (ast.List, ast.Tuple)) else [first]
        )
        for element in elements:
            if isinstance(element, ast.Starred):
                element = element.value
            tags = fa.tags(element, stmt)
            if GRAPH in tags or DATASET in tags:
                root = root_name(element)
                if root is not None:
                    roots.add(root)
        return (roots, True, name) if roots else None


FLOW_RULES: tuple[type[Rule], ...] = (
    UnorderedRandomFeed,
    ModuleRngInFunction,
    SharedPipelineRng,
    DeadSeedParameter,
    RngAcrossProcessBoundary,
    MutationAfterFreeze,
    DoubleFreeze,
    GraphInValueObject,
    RepeatedDriverFreeze,
)
