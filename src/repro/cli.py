"""Command-line interface: ``repro <command>``.

Each subcommand regenerates one of the paper's artifacts on the synthetic
corpora (see DESIGN.md for the experiment index):

=================  ========================================================
``characterize``   Table II/III characterization of one or all corpora
``overlap``        Fig. 1–2 ego-network overlap analysis
``degree-fit``     Fig. 3 degree-distribution model selection
``score``          Fig. 5 circles-vs-random experiment
``compare``        Fig. 6 cross-dataset comparison
``robustness``     section IV-B directed-vs-undirected deviation
``classify``       Fang-et-al. community/celebrity circle categorization
``ego-view``       §VI future work: local (ego) vs global circle scores
``detect``         detected-vs-declared: do algorithms recover the groups?
``freeze``         stream a dataset into an on-disk CSR store (out-of-core)
``delta``          incremental re-freeze + dirty-group rescore of a store
``serve``          async HTTP score service over frozen stores (SERVICE.md)
``trace``          run any other subcommand under the tracer (repro.obs)
=================  ========================================================

Every dataset-taking subcommand accepts the dataset either positionally
(``repro score google_plus``) or as a flag (``repro score --dataset
gplus-synth``); common aliases such as ``gplus-synth`` resolve to the
synthetic builder names.  Passing ``--trace-out PATH`` to any subcommand
records a JSONL trace plus a ``.manifest.json`` sidecar; ``repro trace
<cmd> ...`` does the same with a human-readable ``--format text`` option
(see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any, NoReturn

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.data.datasets import Dataset
    from repro.engine import AnalysisContext

__all__ = ["main"]

# Each command imports the drivers its path runs inside its handler, so
# a cold ``repro score --mmap-dir`` loads neither the synthetic
# generators nor the other commands' analysis code.


def _paper_builder(name: str) -> Callable[..., Dataset]:
    """A corpus builder that imports the generators on its first call."""

    def build(*args: object, **kwargs: object) -> Dataset:
        from repro.synth import paper_datasets

        return getattr(paper_datasets, name)(*args, **kwargs)

    return build


_BUILDERS = {
    "google_plus": _paper_builder("build_google_plus"),
    "twitter": _paper_builder("build_twitter"),
    "livejournal": _paper_builder("build_livejournal"),
    "orkut": _paper_builder("build_orkut"),
    "magno": _paper_builder("build_magno_reference"),
}

#: Accepted spellings for the synthetic corpora (paper-ish names included).
_ALIASES = {
    "gplus": "google_plus",
    "gplus-synth": "google_plus",
    "google-plus": "google_plus",
    "twitter-synth": "twitter",
    "lj": "livejournal",
    "lj-synth": "livejournal",
    "livejournal-synth": "livejournal",
    "orkut-synth": "orkut",
    "magno-synth": "magno",
}


def _build(name: str, seed: int | None) -> Dataset:
    name = _ALIASES.get(name, name)
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted([*_BUILDERS, *_ALIASES]))
        raise SystemExit(f"unknown dataset {name!r}; known: {known}") from None
    return builder(seed=seed) if seed is not None else builder()


def _dataset_name(args: argparse.Namespace) -> str:
    """Resolve the dataset from flag form (``--dataset``) or positional."""
    return args.dataset_flag or args.dataset


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.characterization import characterize, table2_comparison
    from repro.analysis.report import render_kv, render_table

    chosen = _dataset_name(args)
    names = list(_BUILDERS) if chosen == "all" else [chosen]
    rows = []
    for name in names:
        dataset = _build(name, args.seed)
        rows.append(characterize(dataset, seed=0).as_row())
    print(render_table(rows, title="Dataset characterization (Table II/III)"))
    if chosen == "all":
        ego = characterize(_build("google_plus", args.seed), seed=0)
        bfs = characterize(_build("magno", args.seed), seed=0)
        contrast = table2_comparison(ego, bfs)["contrast"]
        print()
        print(render_kv(contrast, title="Crawl-method contrast (Table II)"))
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    from repro.analysis.overlap import analyze_overlap
    from repro.analysis.report import render_kv, render_table

    dataset = _build(_dataset_name(args), args.seed)
    if dataset.ego_collection is None:
        raise SystemExit(f"dataset {dataset.name!r} has no ego collection")
    report = analyze_overlap(dataset.ego_collection)
    print(render_kv(report.summary(), title="Ego-network overlap (Fig. 1)"))
    print()
    print(
        render_table(
            report.as_rows(), title="Membership multiplicity histogram (Fig. 2)"
        )
    )
    return 0


def _cmd_degree_fit(args: argparse.Namespace) -> int:
    from repro.algorithms.degrees import degree_sequence, in_degree_sequence
    from repro.analysis.report import render_kv, render_table
    from repro.powerlaw.comparison import best_fit

    dataset = _build(_dataset_name(args), args.seed)
    if dataset.directed:
        sequence = in_degree_sequence(dataset.graph)
        kind = "in-degree"
    else:
        sequence = degree_sequence(dataset.graph)
        kind = "degree"
    selection = best_fit(sequence[sequence >= 1])
    summary = selection.summary()
    comparisons = summary.pop("comparisons")
    print(render_kv(summary, title=f"{kind} model selection (Fig. 3)"))
    print()
    print(render_table(comparisons, title="Likelihood-ratio tests"))
    return 0


def _cache_arg(args: argparse.Namespace) -> "str | bool | None":
    """Resolve the --cache-dir/--no-cache pair to a driver cache argument.

    ``False`` disables caching outright; ``None`` defers to the
    ``REPRO_CACHE_DIR`` environment flag.
    """
    if getattr(args, "no_cache", False):
        return False
    return getattr(args, "cache_dir", None)


def _mmap_dir(args: argparse.Namespace) -> str | None:
    """Resolve ``--mmap-dir``, falling back to ``REPRO_MMAP_DIR``."""
    explicit = getattr(args, "mmap_dir", None)
    if explicit:
        return explicit
    return os.environ.get("REPRO_MMAP_DIR", "").strip() or None


def _open_context(directory: str) -> "tuple[AnalysisContext, Path]":
    """Attach an on-disk CSR store; return it and its sidecar's path."""
    from repro.engine.context import AnalysisContext
    from repro.exceptions import GraphError

    try:
        context = AnalysisContext.open(directory)
    except GraphError as exc:
        raise SystemExit(str(exc)) from None
    groups_path = Path(directory) / "groups.json"
    if not groups_path.exists():
        raise SystemExit(
            f"{directory} has no groups.json sidecar; re-run 'repro freeze'"
        )
    return context, groups_path


def _open_store(directory: str) -> "tuple[AnalysisContext, object]":
    """Attach an on-disk CSR store plus its ``groups.json`` sidecar."""
    from repro.data.groups import load_groups
    from repro.exceptions import FormatError

    context, groups_path = _open_context(directory)
    try:
        return context, load_groups(groups_path)
    except FormatError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_score(args: argparse.Namespace) -> int:
    mmap_dir = _mmap_dir(args)
    if mmap_dir is not None:
        return _score_store(args, mmap_dir)
    from repro.analysis.experiment import circles_vs_random
    from repro.analysis.report import render_cdf_panel, render_table
    from repro.engine.context import AnalysisContext

    dataset = _build(_dataset_name(args), args.seed)
    context = AnalysisContext(dataset.graph)
    result = circles_vs_random(
        dataset,
        sampler=args.sampler,
        seed=args.seed or 0,
        context=context,
        jobs=args.jobs,
        cache=_cache_arg(args),
    )
    for name in result.function_names():
        circles, randoms = result.cdf_pair(name)
        print(
            render_cdf_panel(
                {"circles": circles, "random": randoms},
                title=f"Fig. 5 — {name}",
            )
        )
        print()
    rows = [
        {"function": name, **values}
        for name, values in result.separation_summary().items()
    ]
    print(render_table(rows, title="Separation summary"))
    return 0


def _score_store(args: argparse.Namespace, mmap_dir: str) -> int:
    """Score a frozen on-disk store's groups without rebuilding anything.

    The out-of-core path of ``repro score``: the CSR arrays stay
    memmapped (O(1) resident set for the substrate), the sidecar is read
    as one flat label list and mapped to canonical id groups in one
    pass (no group objects), the groups are scored through the normal
    batch/parallel/cache machinery, and the output is byte-identical to
    scoring the same graph in RAM.
    """
    from repro.analysis.report import render_kv, render_table
    from repro.data.groups import load_group_labels
    from repro.engine.ids import GroupIds
    from repro.exceptions import FormatError
    from repro.scoring.registry import score_groups

    context, groups_path = _open_context(mmap_dir)
    try:
        names, lengths, labels = load_group_labels(groups_path)
    except FormatError as exc:
        raise SystemExit(str(exc)) from None
    groups = GroupIds.from_flat_labels(
        context, labels, lengths, names=names, restrict=True
    )
    table = score_groups(
        context, groups, jobs=args.jobs, cache=_cache_arg(args)
    )
    print(
        render_kv(
            {
                "store": mmap_dir,
                "dataset": context.display_name or "graph",
                "vertices": context.num_vertices,
                "edges": context.num_edges,
                "groups scored": len(table),
            },
            title="Out-of-core scoring",
        )
    )
    print()
    rows = [
        {"function": name, **values}
        for name, values in table.summary().items()
    ]
    print(render_table(rows, title="Score summary (stored groups)"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve score queries over a directory of frozen CSR stores.

    Flags default to the ``REPRO_SERVE_*`` environment variables (see
    README), which default in turn to the documented constants, so a
    supervisor can configure a fleet without rewriting unit files.  The
    server drains gracefully on SIGINT/SIGTERM: queued micro-batches
    still get responses before executors and stores are released.
    """
    import asyncio
    import signal

    from repro.service import CircleService, ServiceConfig

    config = ServiceConfig(
        root=args.root,
        host=args.host
        or os.environ.get("REPRO_SERVE_HOST", "").strip()
        or "127.0.0.1",
        port=args.port,
        jobs=args.jobs,
        cache=_cache_arg(args),
        max_resident=args.max_resident,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
    )
    service = CircleService(config)

    async def run() -> None:
        await service.start()
        assert service.address is not None
        host, port = service.address
        datasets = service.registry.available()
        print(
            f"serving {len(datasets)} dataset(s) from {config.root} "
            f"on http://{host}:{port}"
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loop
                pass
        await stop.wait()
        print("draining in-flight batches ...")
        await service.shutdown()

    asyncio.run(run())
    return 0


def _cmd_freeze(args: argparse.Namespace) -> int:
    """Stream-freeze a dataset (or a --scale benchmark) to a CSR store."""
    from repro.data.groups import save_groups
    from repro.engine.context import AnalysisContext
    from repro.synth.stream import (
        GraphEdgeStream,
        benchmark_stream,
        freeze_stream,
    )

    out = args.out
    if args.scale is not None:
        stream = benchmark_stream(args.scale, seed=args.seed or 0)
        groups = None
    else:
        dataset = _build(_dataset_name(args), args.seed)
        stream = GraphEdgeStream(dataset.graph)
        groups = dataset.groups
    freeze_stream(
        stream, out, chunk_edges=args.chunk_edges, overwrite=args.force
    )
    if groups is None:
        groups = stream.groups()
    save_groups(groups, Path(out) / "groups.json")
    context = AnalysisContext.open(out)
    print(
        f"froze {context.display_name or 'graph'}: "
        f"{context.num_vertices} vertices, {context.num_edges} edges, "
        f"{len(groups)} groups -> {out}"
    )
    return 0


def _sample_store_edges(
    context: AnalysisContext, count: int, seed: int
) -> list[tuple]:
    """Draw ``count`` distinct existing edges of a frozen context.

    Samples positions of the out (directed) or union (undirected) CSR
    index array uniformly and maps them back to label pairs — no edge
    list is ever materialized.
    """
    import numpy as np

    csr = context.csr_out if context.is_directed else context.csr
    total = csr.indices.shape[0]
    rng = np.random.default_rng(seed)
    nodes = context.nodes
    chosen: dict[tuple[int, int], None] = {}
    attempts = 0
    while len(chosen) < count and attempts < 100 * max(count, 1):
        attempts += 1
        position = int(rng.integers(0, total))
        src = int(np.searchsorted(csr.indptr, position, side="right")) - 1
        dst = int(csr.indices[position])
        if not context.is_directed and src > dst:
            src, dst = dst, src
        if src != dst:
            chosen.setdefault((src, dst), None)
    return [(nodes[u], nodes[v]) for u, v in chosen]


def _cmd_delta(args: argparse.Namespace) -> int:
    """Apply a random edge-removal delta and rescore only dirty groups."""
    from repro.analysis.report import render_kv
    from repro.engine.batch import batch_group_stats_columns
    from repro.engine.delta import ContextDelta, rescore_groups_columns

    mmap_dir = _mmap_dir(args)
    if mmap_dir is None:
        raise SystemExit("delta: --mmap-dir (or REPRO_MMAP_DIR) is required")
    context, groups = _open_store(mmap_dir)
    if not 0 <= args.drop_edges <= context.num_edges:
        # Sampling draws distinct edges until it has enough: a count the
        # store cannot meet would spin through 100 draws per edge asked.
        _usage_error(
            f"--drop-edges {args.drop_edges} is outside [0, "
            f"{context.num_edges}], the store's edge count"
        )
    removals = _sample_store_edges(context, args.drop_edges, args.seed or 0)
    delta = ContextDelta(remove_edges=tuple(removals))
    baseline = batch_group_stats_columns(
        context, [group.members for group in groups]
    )
    baseline_names = [group.name for group in groups]
    patched = delta.apply(context)
    dirty = delta.dirty_names(groups)
    rescore_groups_columns(patched, groups, baseline, baseline_names, dirty)
    print(
        render_kv(
            {
                "store": mmap_dir,
                "edges removed": len(removals),
                "edges before/after": f"{context.num_edges}/{patched.num_edges}",
                "groups total": len(groups),
                "groups dirty (rescored)": len(dirty),
                "groups patched (no kernel)": len(groups) - len(dirty),
            },
            title="Incremental re-freeze",
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import compare_datasets
    from repro.analysis.report import render_cdf_panel, render_table
    from repro.engine.context import AnalysisContext

    datasets = [
        _build(name, args.seed)
        for name in ("google_plus", "twitter", "livejournal", "orkut")
    ]
    contexts = {
        dataset.name: AnalysisContext(dataset.graph) for dataset in datasets
    }
    result = compare_datasets(
        datasets, contexts=contexts, jobs=args.jobs, cache=_cache_arg(args)
    )
    for name in result.function_names():
        print(render_cdf_panel(result.cdfs(name), title=f"Fig. 6 — {name}"))
        print()
    rows = [
        {"dataset": name, **values}
        for name, values in result.signature_summary().items()
    ]
    print(render_table(rows, title="Structural signatures"))
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_kv
    from repro.analysis.robustness import directed_vs_undirected
    from repro.engine.context import AnalysisContext

    dataset = _build(_dataset_name(args), args.seed)
    result = directed_vs_undirected(
        dataset,
        context=AnalysisContext(dataset.graph),
        jobs=args.jobs,
        cache=_cache_arg(args),
    )
    print(
        render_kv(
            result.summary(),
            title="Directed vs undirected relative deviation (section IV-B)",
        )
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.analysis.circle_types import classify_circles
    from repro.analysis.report import render_kv, render_table

    dataset = _build(_dataset_name(args), args.seed)
    if dataset.structure != "circles":
        raise SystemExit(f"dataset {dataset.name!r} has no circles to classify")
    classification = classify_circles(
        dataset.graph, dataset.groups, method=args.method, seed=0
    )
    print(
        render_kv(
            classification.summary(),
            title="Circle categorization (Fang et al.)",
        )
    )
    print()
    celebrity = classification.of_kind("celebrity")
    rows = [
        features.as_row()
        for features in classification.features
        if features.name in set(celebrity)
    ]
    print(render_table(rows, title="Celebrity circles"))
    return 0


def _cmd_ego_view(args: argparse.Namespace) -> int:
    from repro.analysis.ego_view import ego_centered_scores
    from repro.analysis.report import render_kv, render_table

    dataset = _build(_dataset_name(args), args.seed)
    if dataset.ego_collection is None:
        raise SystemExit(f"dataset {dataset.name!r} has no ego collection")
    result = ego_centered_scores(
        dataset.ego_collection, joined=dataset.graph
    )
    rows = [
        {"function": name, **values}
        for name, values in result.summary().items()
    ]
    print(render_table(rows, title="Ego-local vs global circle scores (§VI)"))
    print()
    print(render_kv(result.confinement_gain(), title="Confinement gain"))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_kv
    from repro.detection import (
        louvain_communities,
        mean_best_jaccard,
        partition_modularity,
    )

    dataset = _build(_dataset_name(args), args.seed)
    partition = louvain_communities(dataset.graph, seed=0)
    quality = partition_modularity(dataset.graph, partition)
    recovery = mean_best_jaccard(
        dataset.groups.filter_by_size(minimum=2), partition
    )
    print(
        render_kv(
            {
                "detected blocks": len(partition),
                "partition modularity": round(quality, 4),
                "mean best-match Jaccard vs declared groups": round(recovery, 4),
            },
            title=f"Louvain on {dataset.name} (detected vs declared)",
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_figures

    circles = _build("google_plus", args.seed)
    communities = [
        _build(name, args.seed)
        for name in ("twitter", "livejournal", "orkut")
    ]
    written = export_figures(circles, communities, args.output, seed=0)
    for path in written:
        print(f"wrote {path}")
    return 0


def _write_trace(
    tracer: "obs.Tracer", trace_out: str, trace_format: str = "jsonl"
) -> None:
    """Write a finished tracer as JSONL plus a ``.manifest.json`` sidecar.

    With ``trace_format == "text"`` the human-readable span tree is also
    printed (to stderr, so the traced command's stdout stays byte-
    identical to an untraced run).
    """
    path = Path(trace_out)
    tracer.write_jsonl(path)
    manifest_path = path.with_suffix(".manifest.json")
    obs.write_manifests(tracer.manifests, manifest_path)
    if trace_format == "text":
        print(tracer.render_text(), file=sys.stderr)
    print(
        f"trace written to {path} (manifests: {manifest_path})",
        file=sys.stderr,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit("trace: missing command to run (repro trace <cmd> ...)")
    if rest[0] == "trace":
        raise SystemExit("trace: cannot nest 'repro trace trace'")
    inner = _parse_args(build_parser(), rest)
    tracer = obs.enable(name=" ".join(rest), memory=args.memory)
    try:
        code = inner.handler(inner)
    finally:
        obs.disable()
    _write_trace(tracer, args.trace_out, args.trace_format)
    return code


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with ``message``, as argparse does for a bad flag value."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _number(
    kind: type, minimum: float, maximum: float | None = None
) -> Callable[[str], Any]:
    """An argparse type: a finite ``kind`` in ``[minimum, maximum]``."""
    noun = "an integer" if kind is int else "a number"
    bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (
            math.isfinite(value)
            and value >= minimum
            and (maximum is None or value <= maximum)
        ):
            raise argparse.ArgumentTypeError(
                f"must be {noun} {bound}, got {text!r}"
            )
        return value

    return parse


_COUNT = _number(int, 1)
_PORT = _number(int, 0, 65535)

#: Numeric flags that fall back to an environment variable, then to a
#: default: (flag dest, variable, parser, default).  The variable's value
#: is checked by the flag's own parser.
_ENV_FALLBACKS = (
    ("jobs", "REPRO_JOBS", _COUNT, 1),
    ("port", "REPRO_SERVE_PORT", _PORT, 8734),
    ("max_resident", "REPRO_SERVE_MAX_RESIDENT", _COUNT, 4),
    ("batch_window", "REPRO_SERVE_WINDOW", _number(float, 0), 0.0),
    ("max_batch", "REPRO_SERVE_MAX_BATCH", _COUNT, 64),
)


def _parse_args(
    parser: argparse.ArgumentParser, argv: Sequence[str] | None
) -> argparse.Namespace:
    """Parse ``argv`` and resolve each unset numeric flag's fallback.

    Every numeric value is checked here, at the CLI edge, whether it
    came from a flag or from its environment variable: a bad one exits
    2 with a message naming the flag or the variable.
    """
    args = parser.parse_args(argv)
    for dest, variable, parse, default in _ENV_FALLBACKS:
        if getattr(args, dest, default) is not None:
            continue
        raw = os.environ.get(variable, "").strip()
        try:
            setattr(args, dest, parse(raw) if raw else default)
        except argparse.ArgumentTypeError as exc:
            _usage_error(f"{variable} {exc}")
    return args


def _add_dataset_argument(
    parser: argparse.ArgumentParser, *, default: str = "google_plus"
) -> None:
    """Add the dataset selector in both positional and flag form.

    ``repro score google_plus`` and ``repro score --dataset gplus-synth``
    are equivalent; the flag wins when both are given (see
    :func:`_dataset_name`).
    """
    parser.add_argument(
        "dataset",
        nargs="?",
        default=default,
        help=f"dataset name (default: {default})",
    )
    parser.add_argument(
        "--dataset",
        dest="dataset_flag",
        default=None,
        metavar="NAME",
        help="dataset name in flag form (aliases like 'gplus-synth' accepted)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Are Circles Communities?' (ICDCS 2014)",
    )
    parser.add_argument(
        "--seed",
        type=_number(int, 0),
        default=None,
        help="generation seed (default: per-dataset)",
    )
    # Shared by every subcommand: record a JSONL trace of the run.
    trace_parent = argparse.ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record a JSONL trace (+ .manifest.json sidecar) of this run",
    )
    # Shared by the scoring-heavy subcommands: worker count and result
    # cache (defaults defer to REPRO_JOBS / REPRO_CACHE_DIR).
    perf_parent = argparse.ArgumentParser(add_help=False)
    perf_parent.add_argument(
        "--jobs",
        type=_COUNT,
        default=None,
        metavar="N",
        help="worker processes for scoring/sampling "
        "(default: $REPRO_JOBS or 1; output is byte-identical to serial)",
    )
    perf_parent.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="on-disk result cache directory (default: $REPRO_CACHE_DIR; "
        "unset disables caching)",
    )
    perf_parent.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even if REPRO_CACHE_DIR is set",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    characterize_parser = commands.add_parser(
        "characterize",
        help="Table II/III dataset characterization",
        parents=[trace_parent],
    )
    _add_dataset_argument(characterize_parser, default="all")
    characterize_parser.set_defaults(handler=_cmd_characterize)

    overlap_parser = commands.add_parser(
        "overlap", help="Fig. 1-2 ego overlap analysis", parents=[trace_parent]
    )
    _add_dataset_argument(overlap_parser)
    overlap_parser.set_defaults(handler=_cmd_overlap)

    fit_parser = commands.add_parser(
        "degree-fit",
        help="Fig. 3 degree-distribution model selection",
        parents=[trace_parent],
    )
    _add_dataset_argument(fit_parser)
    fit_parser.set_defaults(handler=_cmd_degree_fit)

    score_parser = commands.add_parser(
        "score",
        help="Fig. 5 circles vs random sets",
        parents=[trace_parent, perf_parent],
    )
    _add_dataset_argument(score_parser)
    score_parser.add_argument(
        "--sampler",
        default="random_walk",
        choices=["random_walk", "uniform", "bfs_ball", "forest_fire"],
    )
    score_parser.add_argument(
        "--mmap-dir",
        metavar="DIR",
        default=None,
        help="score the groups of an on-disk CSR store (memmap-attached; "
        "default: $REPRO_MMAP_DIR) instead of building a dataset",
    )
    score_parser.set_defaults(handler=_cmd_score)

    freeze_parser = commands.add_parser(
        "freeze",
        help="stream a dataset into an on-disk CSR store (docs/SCALING.md)",
        parents=[trace_parent],
    )
    _add_dataset_argument(freeze_parser)
    freeze_parser.add_argument(
        "-o", "--out", required=True, metavar="DIR", help="store directory"
    )
    freeze_parser.add_argument(
        "--scale",
        type=_COUNT,
        default=None,
        metavar="EDGES",
        help="freeze a planted-partition benchmark stream of this many "
        "edge draws instead of a named dataset",
    )
    freeze_parser.add_argument(
        "--chunk-edges",
        type=_COUNT,
        default=1 << 22,
        metavar="N",
        help="edges per streamed chunk (bounds the freeze's peak RSS)",
    )
    freeze_parser.add_argument(
        "--force", action="store_true", help="overwrite an existing store"
    )
    freeze_parser.set_defaults(handler=_cmd_freeze)

    delta_parser = commands.add_parser(
        "delta",
        help="incremental re-freeze: drop random edges, rescore dirty groups",
        parents=[trace_parent],
    )
    delta_parser.add_argument(
        "--mmap-dir",
        metavar="DIR",
        default=None,
        help="on-disk CSR store to patch (default: $REPRO_MMAP_DIR)",
    )
    delta_parser.add_argument(
        "--drop-edges",
        type=int,
        default=8,
        metavar="K",
        help="number of random existing edges to remove (default: 8)",
    )
    delta_parser.set_defaults(handler=_cmd_delta)

    serve_parser = commands.add_parser(
        "serve",
        help="async HTTP score service over frozen stores (docs/SERVICE.md)",
        parents=[perf_parent],
    )
    serve_parser.add_argument(
        "root",
        metavar="DIR",
        help="directory holding one repro-csr-dir store per dataset",
    )
    serve_parser.add_argument(
        "--host",
        default=None,
        help="bind address (default: $REPRO_SERVE_HOST or 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=_PORT,
        default=None,
        help="bind port, 0 for ephemeral (default: $REPRO_SERVE_PORT or 8734)",
    )
    serve_parser.add_argument(
        "--max-resident",
        type=_COUNT,
        default=None,
        metavar="N",
        help="datasets kept warm before LRU eviction "
        "(default: $REPRO_SERVE_MAX_RESIDENT or 4)",
    )
    serve_parser.add_argument(
        "--batch-window",
        type=_number(float, 0),
        default=None,
        metavar="SECONDS",
        help="least time a micro-batch's oldest request waits before the "
        "batch starts; 0 starts it as soon as no batch of its key is "
        "computing (default: $REPRO_SERVE_WINDOW or 0)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=_COUNT,
        default=None,
        metavar="N",
        help="groups per micro-batch before an early flush "
        "(default: $REPRO_SERVE_MAX_BATCH or 64)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    compare_parser = commands.add_parser(
        "compare",
        help="Fig. 6 circles vs communities across datasets",
        parents=[trace_parent, perf_parent],
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    robustness_parser = commands.add_parser(
        "robustness",
        help="section IV-B directed vs undirected check",
        parents=[trace_parent, perf_parent],
    )
    _add_dataset_argument(robustness_parser)
    robustness_parser.set_defaults(handler=_cmd_robustness)

    classify_parser = commands.add_parser(
        "classify",
        help="Fang et al. community/celebrity circle categorization",
        parents=[trace_parent],
    )
    _add_dataset_argument(classify_parser)
    classify_parser.add_argument(
        "--method", default="kmeans", choices=["kmeans", "threshold"]
    )
    classify_parser.set_defaults(handler=_cmd_classify)

    ego_view_parser = commands.add_parser(
        "ego-view",
        help="section VI: ego-local vs global circle scores",
        parents=[trace_parent],
    )
    _add_dataset_argument(ego_view_parser)
    ego_view_parser.set_defaults(handler=_cmd_ego_view)

    detect_parser = commands.add_parser(
        "detect",
        help="Louvain detection vs declared groups",
        parents=[trace_parent],
    )
    _add_dataset_argument(detect_parser)
    detect_parser.set_defaults(handler=_cmd_detect)

    export_parser = commands.add_parser(
        "export",
        help="write the data series of Figs. 2-6 as CSV files",
        parents=[trace_parent],
    )
    export_parser.add_argument(
        "-o", "--output", default="figures", help="output directory"
    )
    export_parser.set_defaults(handler=_cmd_export)

    trace_parser = commands.add_parser(
        "trace", help="run another subcommand under the tracer (repro.obs)"
    )
    trace_parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default="trace.jsonl",
        help="trace output path (default: trace.jsonl)",
    )
    trace_parser.add_argument(
        "--format",
        dest="trace_format",
        choices=("jsonl", "text"),
        default="jsonl",
        help="also print a human-readable span tree with 'text'",
    )
    trace_parser.add_argument(
        "--memory",
        action="store_true",
        help="record tracemalloc peak deltas per span (adds overhead)",
    )
    trace_parser.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="the repro subcommand to run, with its arguments",
    )
    trace_parser.set_defaults(handler=_cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(build_parser(), argv)
    trace_out = getattr(args, "trace_out", None)
    if trace_out and args.handler is not _cmd_trace:
        tracer = obs.enable(name=args.command)
        try:
            code = args.handler(args)
        finally:
            obs.disable()
        _write_trace(tracer, trace_out)
        return code
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
