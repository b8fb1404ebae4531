"""True-positive and false-positive regression tests for the
flow-sensitive rule families (REP1xx RNG discipline, REP2xx freeze-once
contracts).  Every rule must both fire on its bug pattern and stay quiet
on the closest legitimate variant."""

from __future__ import annotations

import textwrap

from repro.devtools.lint import LintConfig, lint_source


def rule_ids(source: str, path: str = "src/repro/sample/module.py"):
    findings = lint_source(textwrap.dedent(source), path, LintConfig())
    return [violation.rule_id for violation in findings]


# -- REP101: RNG fed set/dict iteration order --------------------------------


def test_rep101_fires_on_rng_choice_over_set():
    source = """
        import random
        __all__ = ["f"]

        def f(items, seed):
            rng = random.Random(seed)
            pool = {item for item in items}
            return rng.choice(sorted(pool))
    """
    assert "REP101" in rule_ids(source)


def test_rep101_fires_on_shuffle_of_dict_annotated_param():
    source = """
        import random
        __all__ = ["f"]

        def f(adjacency: dict, rng: random.Random):
            nodes = list(adjacency)
            rng.shuffle(nodes)
            return nodes
    """
    assert "REP101" in rule_ids(source)


def test_rep101_quiet_when_stable_sorted_normalizes():
    source = """
        import random
        from repro.graph.convert import stable_sorted
        __all__ = ["f"]

        def f(items, seed):
            rng = random.Random(seed)
            pool = {item for item in items}
            return rng.choice(stable_sorted(pool))
    """
    assert "REP101" not in rule_ids(source)


def test_rep101_quiet_on_list_origin_argument():
    source = """
        import random
        __all__ = ["f"]

        def f(items: list, seed):
            rng = random.Random(seed)
            return rng.choice(items)
    """
    assert "REP101" not in rule_ids(source)


# -- REP102: module-level RNG consumed inside a function ---------------------


def test_rep102_fires_on_module_rng_used_in_function():
    source = """
        import random
        __all__ = ["f"]

        _RNG = random.Random(0)  # repro: noqa[REP001]

        def f(items):
            return _RNG.choice(items)
    """
    assert "REP102" in rule_ids(source)


def test_rep102_quiet_when_local_binding_shadows_module_rng():
    source = """
        import random
        __all__ = ["f"]

        _RNG = random.Random(0)  # repro: noqa[REP001]

        def f(items, seed):
            _RNG = random.Random(seed)
            return _RNG.choice(items)
    """
    assert "REP102" not in rule_ids(source)


# -- REP103: one RNG shared across two pipelines -----------------------------


def test_rep103_fires_on_rng_shared_across_two_pipelines():
    source = """
        import random
        __all__ = ["f"]

        def f(ctx, size, seed):
            rng = random.Random(seed)
            walk = random_walk_set(ctx, size, rng=rng)
            ball = bfs_ball_set(ctx, size, rng=rng)
            return walk, ball
    """
    assert "REP103" in rule_ids(source)


def test_rep103_fires_when_the_ids_sampler_shares_an_rng():
    source = """
        import random
        __all__ = ["f"]

        def f(ctx, sizes, seed):
            rng = random.Random(seed)
            ids = sample_matched_ids(ctx, sizes, "uniform", seed=rng)
            walk = random_walk_set(ctx, sizes[0], seed=rng)
            return ids, walk
    """
    assert "REP103" in rule_ids(source)


def test_rep103_quiet_on_repeated_draws_from_one_pipeline():
    source = """
        import random
        __all__ = ["f"]

        def f(ctx, sizes, seed):
            rng = random.Random(seed)
            return [random_walk_set(ctx, size, rng=rng) for size in sizes]
    """
    assert "REP103" not in rule_ids(source)


def test_rep103_quiet_on_dynamic_dispatch_helper():
    # ``sample_matched_sets``-style helpers resolve the sampler from a
    # registry and call it through a variable — intentional sharing.
    source = """
        import random
        __all__ = ["f"]

        def f(ctx, sizes, sampler_fn, seed):
            rng = random.Random(seed)
            return [sampler_fn(ctx, size, rng=rng) for size in sizes]
    """
    assert "REP103" not in rule_ids(source)


# -- REP104: dead seed parameter ---------------------------------------------


def test_rep104_fires_on_unused_seed_parameter():
    source = """
        __all__ = ["f"]

        def f(graph, size, seed=0):
            return walk(graph, size)
    """
    assert "REP104" in rule_ids(source)


def test_rep104_quiet_when_seed_reaches_the_rng():
    source = """
        import random
        __all__ = ["f"]

        def f(graph, size, seed=0):
            rng = random.Random(seed)
            return walk(graph, size, rng)
    """
    assert "REP104" not in rule_ids(source)


def test_rep104_quiet_on_protocol_stub():
    source = """
        __all__ = ["Sampler"]

        class Sampler:
            def __call__(self, graph, size, seed=0):
                ...
    """
    assert "REP104" not in rule_ids(source)


# -- REP105: RNG across a process boundary -----------------------------------


def test_rep105_fires_on_rng_submitted_to_pool():
    source = """
        import random
        __all__ = ["f"]

        def f(pool, ctx, sizes, seed):
            rng = random.Random(seed)
            return [pool.submit(work, ctx, size, rng) for size in sizes]
    """
    assert "REP105" in rule_ids(source)


def test_rep105_fires_on_rng_inside_args_tuple():
    source = """
        import random
        __all__ = ["f"]

        def f(pool, ctx, seed):
            rng = random.Random(seed)
            return pool.apply_async(work, args=(ctx, rng))
    """
    assert "REP105" in rule_ids(source)


def test_rep105_fires_on_rng_parameter_mapped_to_executor():
    source = """
        import random
        __all__ = ["f"]

        def f(executor, payloads, rng: random.Random):
            return list(executor.map(work, payloads, rng))
    """
    assert "REP105" in rule_ids(source)


def test_rep105_quiet_on_integer_child_seeds():
    source = """
        from repro.sampling.seeds import spawn_child_seeds
        __all__ = ["f"]

        def f(pool, ctx, sizes, seed):
            seeds = spawn_child_seeds(seed, len(sizes))
            return [
                pool.submit(work, ctx, size, child)
                for size, child in zip(sizes, seeds)
            ]
    """
    assert "REP105" not in rule_ids(source)


def test_rep105_quiet_on_builtin_map_and_non_executor_receivers():
    source = """
        import random
        __all__ = ["f"]

        def f(items, seed):
            rng = random.Random(seed)
            shuffled = list(map(str, items))  # builtin map, no boundary
            table = {"rows": items}
            return shuffled, table, rng
    """
    assert "REP105" not in rule_ids(source)


# -- REP201: mutation after freeze -------------------------------------------


def test_rep201_fires_on_mutation_after_freeze():
    source = """
        from repro.engine import AnalysisContext
        __all__ = ["f"]

        def f(g):
            context = AnalysisContext(g)
            g.add_edge(1, 2)
            return context
    """
    assert "REP201" in rule_ids(source)


def test_rep201_quiet_when_graph_rebound_between():
    source = """
        from repro.engine import AnalysisContext
        from repro.graph import Graph
        __all__ = ["f"]

        def f(g):
            context = AnalysisContext(g)
            g = Graph()
            g.add_edge(1, 2)
            return context, g
    """
    assert "REP201" not in rule_ids(source)


def test_rep201_quiet_when_mutation_precedes_freeze():
    source = """
        from repro.engine import AnalysisContext
        __all__ = ["f"]

        def f(g):
            g.add_edge(1, 2)
            return AnalysisContext(g)
    """
    assert "REP201" not in rule_ids(source)


# -- REP202: double freeze ---------------------------------------------------


def test_rep202_fires_on_freezing_the_same_graph_twice():
    source = """
        from repro.engine import AnalysisContext
        __all__ = ["f"]

        def f(g, groups, sizes):
            scores = score_all(AnalysisContext(g), groups)
            null = sample_all(AnalysisContext(g), sizes)
            return scores, null
    """
    assert "REP202" in rule_ids(source)


def test_rep202_quiet_on_one_freeze_per_branch():
    source = """
        from repro.engine import AnalysisContext
        __all__ = ["f"]

        def f(g, fast):
            if fast:
                context = AnalysisContext(g)
            else:
                context = AnalysisContext(g)
            return context
    """
    assert "REP202" not in rule_ids(source)


def test_rep202_quiet_on_distinct_graphs():
    source = """
        from repro.engine import AnalysisContext
        __all__ = ["f"]

        def f(g, h):
            return AnalysisContext(g), AnalysisContext(h)
    """
    assert "REP202" not in rule_ids(source)


# -- REP203: live graph inside a value object --------------------------------


def test_rep203_fires_on_graph_into_groupstats():
    source = """
        from repro.graph import Graph
        __all__ = ["f"]

        def f(g: Graph):
            return GroupStats(g, 0, 0.0)
    """
    assert "REP203" in rule_ids(source)


def test_rep203_fires_on_graph_into_local_frozen_dataclass():
    source = """
        from dataclasses import dataclass
        from repro.graph import Graph
        __all__ = ["f"]

        @dataclass(frozen=True)
        class Snapshot:
            payload: object

        def f(g: Graph):
            return Snapshot(payload=g)
    """
    assert "REP203" in rule_ids(source)


def test_rep203_quiet_on_derived_scalars():
    source = """
        from repro.graph import Graph
        __all__ = ["f"]

        def f(g: Graph):
            return GroupStats(g.number_of_nodes(), g.number_of_edges(), 0.0)
    """
    assert "REP203" not in rule_ids(source)


def test_rep203_quiet_on_dataclass_designed_to_carry_a_graph():
    # ``Dataset``-style carriers declare a graph-typed field; that design
    # decision is owned by review, not by this rule.
    source = """
        from dataclasses import dataclass
        from repro.graph import Graph
        __all__ = ["load"]

        @dataclass(frozen=True)
        class Bundle:
            graph: Graph
            name: str

        def load(g: Graph):
            return Bundle(graph=g, name="x")
    """
    assert "REP203" not in rule_ids(source)


# -- REP204: repeated freeze across experiment drivers -----------------------


def test_rep204_fires_on_two_driver_calls_without_context():
    source = """
        from repro.data.datasets import Dataset
        __all__ = ["f"]

        def f(dataset: Dataset, others, seed):
            result = circles_vs_random(dataset, seed=seed)
            table = compare_datasets([dataset, *others])
            return result, table
    """
    assert "REP204" in rule_ids(source)


def test_rep204_quiet_when_context_is_threaded():
    source = """
        from repro.data.datasets import Dataset
        from repro.engine import AnalysisContext
        __all__ = ["f"]

        def f(dataset: Dataset, others, seed):
            context = AnalysisContext(dataset.graph)
            result = circles_vs_random(dataset, seed=seed, context=context)
            table = compare_datasets(
                [dataset, *others], contexts={dataset.name: context}
            )
            return result, table
    """
    assert "REP204" not in rule_ids(source)


def test_rep204_quiet_on_single_driver_call():
    source = """
        from repro.data.datasets import Dataset
        __all__ = ["f"]

        def f(dataset: Dataset, seed):
            return circles_vs_random(dataset, seed=seed)
    """
    assert "REP204" not in rule_ids(source)


# -- suppression interplay ---------------------------------------------------


def test_flow_rules_honour_noqa():
    source = """
        import random
        __all__ = ["f"]

        def f(items, seed):
            rng = random.Random(seed)
            pool = set(items)
            return rng.choice(sorted(pool))  # repro: noqa[REP101]
    """
    assert "REP101" not in rule_ids(source)
