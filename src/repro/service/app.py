"""The circle-analytics service: routes, caching, batching, shutdown.

:class:`CircleService` is the resident read path over frozen
``repro-csr-dir`` stores: it holds datasets warm through a
:class:`~repro.service.registry.DatasetRegistry`, coalesces concurrent
score requests through a :class:`~repro.service.batching.MicroBatcher`,
and serves repeated queries from three progressively cheaper tiers —

1. a **304** for any ``If-None-Match`` revalidation (the ETag is the
   content-addressed :func:`repro.scoring.registry.table_key`, so a
   match proves the cached representation is still exact — no scoring,
   no body);
2. an in-memory cache of **rendered response bodies** (bounded LRU);
3. the on-disk :class:`~repro.engine.ResultCache`, shared byte-for-byte
   with ``repro score`` CLI runs because both take the registry's
   cached-table step (:mod:`repro.scoring.registry`): the same key, the
   same cache read and the same stored table.

Only a genuinely new query reaches the engine, and then as part of a
micro-batch.  The endpoint catalogue lives in ``docs/SERVICE.md`` and is
diff-tested against :data:`ROUTES`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections import OrderedDict
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.engine import GroupIds, ResultCache, resolve_jobs
from repro.exceptions import EmptyGroupError, NodeNotFound
from repro.obs import instruments
from repro.scoring.base import ScoringFunction
from repro.scoring.registry import (
    PAPER_FUNCTION_NAMES,
    ScoreTable,
    load_table,
    make_function,
    store_table,
    table_key,
)
from repro.service.batching import MicroBatcher
from repro.service.http import (
    HttpError,
    Request,
    Response,
    error_response,
    json_response,
    read_request,
)
from repro.service.registry import (
    DatasetRegistry,
    ResidentDataset,
    UnknownDatasetError,
)

Node = Hashable

__all__ = ["CircleService", "Route", "ROUTES", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service instance needs, resolved before start.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`CircleService.address` after :meth:`CircleService.start`).
    ``cache`` follows :meth:`repro.engine.ResultCache.resolve` semantics
    (path, instance, ``False`` to disable, ``None`` for
    ``REPRO_CACHE_DIR``).  ``batch_window`` and ``max_batch`` are the
    :class:`~repro.service.batching.MicroBatcher`'s ``window`` and
    ``max_batch``: with a window of 0 a batch starts as soon as no batch
    of its key is computing.
    """

    root: str | Path
    host: str = "127.0.0.1"
    port: int = 8734
    jobs: int | None = None
    cache: "ResultCache | str | bool | None" = None
    max_resident: int = 4
    batch_window: float = 0.0
    max_batch: int = 64
    response_cache_entries: int = 1024


@dataclass(frozen=True)
class Route:
    """One routable endpoint: the doc-sync unit of ``docs/SERVICE.md``."""

    method: str
    pattern: str
    handler: str
    description: str


#: The service's full endpoint surface.  ``docs/SERVICE.md``'s endpoint
#: table is diffed against this tuple by the service doc-sync tests.
ROUTES = (
    Route("GET", "/v1/health", "health", "liveness, drain state, resident datasets"),
    Route("GET", "/v1/metrics", "metrics", "full repro.obs metrics snapshot"),
    Route("GET", "/v1/datasets", "datasets", "datasets the root can serve"),
    Route("GET", "/v1/datasets/{dataset}", "dataset_detail", "store metadata and CSR fingerprint"),
    Route("GET", "/v1/datasets/{dataset}/groups", "groups", "stored group names, kinds and sizes"),
    Route("GET", "/v1/datasets/{dataset}/score", "score_get", "score stored groups (micro-batched, cached, ETag)"),
    Route("POST", "/v1/datasets/{dataset}/score", "score_post", "score ad-hoc member lists from the request body"),
    Route("GET", "/v1/compare", "compare", "cross-dataset score summaries (the Fig. 6 shape)"),
)


def _match(pattern: str, path: str) -> dict[str, str] | None:
    """Match a ``/v1/datasets/{dataset}/score``-style pattern."""
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: dict[str, str] = {}
    for expected, actual in zip(pattern_parts, path_parts):
        if expected.startswith("{") and expected.endswith("}"):
            if not actual:
                return None
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


def _restrict_groups(entry: ResidentDataset, groups: Sequence) -> GroupIds:
    """Apply ``score_groups``' ``restrict_to_graph`` semantics.

    Stored-group queries must produce the same names, ids and therefore
    the same :func:`~repro.scoring.registry.table_key` as a ``repro score
    --mmap-dir`` run over the sidecar: members absent from the graph are
    dropped, groups emptied by the restriction skipped.
    """
    ids = GroupIds.from_labels(
        entry.context,
        [group.members for group in groups],
        names=[group.name for group in groups],
        restrict=True,
    )
    if not len(ids):
        raise HttpError(
            400, "every requested group is empty after graph restriction"
        )
    return ids


def _float(value: float) -> float | str:
    """JSON-safe float: NaN/inf become strings (JSON has no spelling)."""
    if np.isnan(value):
        return "nan"
    if np.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


@dataclass
class _ScoredQuery:
    """One resolved score query: identity, inputs and (later) results."""

    entry: ResidentDataset
    groups: GroupIds = field(repr=False)
    functions: Sequence[ScoringFunction] = field(repr=False)
    function_names: list[str] = field(default_factory=list)
    key: str = ""


class CircleService:
    """Asyncio HTTP server answering circle/community score queries."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        jobs = resolve_jobs(config.jobs)
        self.registry = DatasetRegistry(
            config.root, max_resident=config.max_resident, jobs=jobs
        )
        self.batcher = MicroBatcher(
            window=config.batch_window, max_batch=config.max_batch
        )
        self.store = ResultCache.resolve(config.cache)
        self._responses: OrderedDict[str, bytes] = OrderedDict()
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False
        self._owns_obs = False
        self.address: tuple[str, int] | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections.

        Turns the metrics side of :mod:`repro.obs` on (tracer-free, so
        no span tree grows over the server's lifetime) unless the caller
        already enabled observability themselves.
        """
        self._owns_obs = not obs.enabled()
        if self._owns_obs:
            obs.enable_metrics()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI entry point's loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful shutdown: stop accepting, drain batches, close all.

        In-flight requests (including whole queued micro-batches) get
        their responses; only then are idle keep-alive connections torn
        down and the registry's executors and buffers released.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self.batcher.drain()
        if self._connections:
            await asyncio.wait(
                list(self._connections), timeout=1.0
            )
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.registry.close()
        if self._owns_obs and obs.current_tracer() is None:
            obs.disable()
            self._owns_obs = False

    # -- connection handling -------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    response = error_response(exc.status, exc.message)
                    instruments.SERVICE_RESPONSES.inc(label=str(exc.status))
                    writer.write(response.render(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self.dispatch(request)
                keep = request.keep_alive and not self._draining
                writer.write(response.render(keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def dispatch(self, request: Request) -> Response:
        """Route one request; every outcome maps to a JSON response."""
        if self._draining:
            response = error_response(503, "service is shutting down")
            instruments.SERVICE_RESPONSES.inc(label="503")
            return response
        route, params = self._route(request)
        if route is None:
            response = params  # type: ignore[assignment]  # error response
        else:
            instruments.SERVICE_REQUESTS.inc(label=route.handler)
            handler = getattr(self, f"_handle_{route.handler}")
            try:
                response = await handler(request, **params)
            except HttpError as exc:
                response = error_response(exc.status, exc.message)
            except UnknownDatasetError as exc:
                response = error_response(
                    404, f"unknown dataset: {exc.args[0]}"
                )
            except NodeNotFound as exc:
                response = error_response(
                    400, f"member not in dataset: {exc}"
                )
            except EmptyGroupError as exc:
                response = error_response(400, str(exc))
            except Exception as exc:  # repro: noqa[REP006] - one request must not kill the server
                response = error_response(
                    500, f"{type(exc).__name__}: {exc}"
                )
        instruments.SERVICE_RESPONSES.inc(label=str(response.status))
        return response

    def _route(self, request: Request):
        path_matched = False
        for route in ROUTES:
            params = _match(route.pattern, request.path)
            if params is None:
                continue
            path_matched = True
            if route.method == request.method:
                return route, params
        if path_matched:
            return None, error_response(
                405, f"method {request.method} not allowed here"
            )
        return None, error_response(404, f"no route for {request.path}")

    # -- simple endpoints ----------------------------------------------------

    async def _handle_health(self, request: Request) -> Response:
        return json_response(
            200,
            {
                "status": "draining" if self._draining else "ok",
                "datasets": self.registry.available(),
                "resident": self.registry.resident_names(),
            },
        )

    async def _handle_metrics(self, request: Request) -> Response:
        return json_response(200, obs.REGISTRY.snapshot())

    async def _handle_datasets(self, request: Request) -> Response:
        resident = set(self.registry.resident_names())
        return json_response(
            200,
            {
                "datasets": [
                    {"name": name, "resident": name in resident}
                    for name in self.registry.available()
                ]
            },
        )

    async def _handle_dataset_detail(
        self, request: Request, dataset: str
    ) -> Response:
        entry = self.registry.acquire(dataset)
        try:
            context = entry.context
            return json_response(
                200,
                {
                    "name": entry.name,
                    "vertices": context.num_vertices,
                    "edges": context.num_edges,
                    "directed": context.is_directed,
                    "groups": len(entry.groups),
                    "fingerprint": entry.fingerprint,
                },
            )
        finally:
            self.registry.release(entry)

    async def _handle_groups(
        self, request: Request, dataset: str
    ) -> Response:
        entry = self.registry.acquire(dataset)
        try:
            return json_response(
                200,
                {
                    "dataset": entry.name,
                    "groups": [
                        {
                            "name": group.name,
                            "kind": group.kind,
                            "size": len(group),
                        }
                        for group in entry.groups
                    ],
                },
            )
        finally:
            self.registry.release(entry)

    # -- scoring endpoints ---------------------------------------------------

    def _parse_functions(
        self, names_param: str | None
    ) -> tuple[list[str], list[ScoringFunction]]:
        if not names_param:
            names = list(PAPER_FUNCTION_NAMES)
        else:
            names = [n.strip() for n in names_param.split(",") if n.strip()]
            if not names:
                raise HttpError(400, "empty functions list")
        functions: list[ScoringFunction] = []
        for name in names:
            try:
                functions.append(make_function(name))
            except KeyError as exc:
                raise HttpError(400, str(exc.args[0])) from None
        return names, functions

    def _resolve_stored_groups(
        self, entry: ResidentDataset, groups_param: str | None
    ) -> list:
        if groups_param is None:
            groups = list(entry.groups)
            if not groups:
                raise HttpError(
                    404, f"dataset {entry.name!r} has no stored groups"
                )
            return groups
        names = [n.strip() for n in groups_param.split(",")]
        if not all(names):
            raise HttpError(400, "malformed group list (empty name)")
        groups = []
        for name in names:
            group = entry.group(name)
            if group is None:
                raise HttpError(
                    404, f"dataset {entry.name!r} has no group {name!r}"
                )
            groups.append(group)
        return groups

    def _prepare_query(
        self,
        entry: ResidentDataset,
        groups: GroupIds,
        function_names: list[str],
        functions: list[ScoringFunction],
    ) -> _ScoredQuery:
        """Derive the content-addressed key of one query's id groups."""
        key = table_key(entry.context, groups, functions)
        if key is None:  # pragma: no cover - registry functions tokenize
            raise HttpError(400, "functions carry non-scalar state")
        return _ScoredQuery(
            entry=entry,
            groups=groups,
            functions=functions,
            function_names=function_names,
            key=key,
        )

    def _etag(self, key: str) -> str:
        return f'"{key}"'

    def _not_modified(self, request: Request, etag: str) -> Response | None:
        candidate = request.headers.get("if-none-match")
        if candidate is None:
            return None
        if candidate.strip() == "*" or etag in [
            value.strip() for value in candidate.split(",")
        ]:
            return Response(304, headers={"ETag": etag})
        return None

    def _cached_body(self, key: str) -> bytes | None:
        body = self._responses.get(key)
        if body is not None:
            self._responses.move_to_end(key)
            instruments.SERVICE_MEMORY_HITS.inc()
        return body

    def _remember_body(self, key: str, body: bytes) -> None:
        self._responses[key] = body
        self._responses.move_to_end(key)
        while len(self._responses) > self.config.response_cache_entries:
            self._responses.popitem(last=False)

    async def _score_query(self, query: _ScoredQuery) -> ScoreTable:
        """Answer one query through the registry's cached-table step,
        its miss scored by a micro-batch."""
        table = load_table(self.store, query.key)
        if table is not None:
            return table
        batch_key = (
            query.entry.name,
            tuple(query.function_names),
            query.entry.fingerprint,
        )
        sizes, rows = await self.batcher.submit(
            batch_key,
            query.entry.context,
            query.functions,
            query.entry.executor(),
            query.groups,
        )
        return store_table(
            self.store, query.key, query.groups, query.functions, sizes, rows
        )

    def _render_score_payload(
        self, query: _ScoredQuery, table: ScoreTable
    ) -> bytes:
        groups = [
            {
                "name": name,
                "size": size,
                "scores": {
                    function_name: _float(
                        float(table.columns[function_name][i])
                    )
                    for function_name in table.function_names()
                },
            }
            for i, (name, size) in enumerate(
                zip(table.group_names, table.group_sizes)
            )
        ]
        payload = {
            "dataset": query.entry.name,
            "fingerprint": query.entry.fingerprint,
            "functions": query.function_names,
            "groups": groups,
            "summary": {
                name: {k: _float(v) for k, v in stats.items()}
                for name, stats in table.summary().items()
            },
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    async def _score_response(self, request: Request, query: _ScoredQuery) -> Response:
        etag = self._etag(query.key)
        not_modified = self._not_modified(request, etag)
        if not_modified is not None:
            return not_modified
        headers = {
            "ETag": etag,
            "Cache-Control": "max-age=0, must-revalidate",
        }
        body = self._cached_body(query.key)
        if body is None:
            table = await self._score_query(query)
            body = self._render_score_payload(query, table)
            self._remember_body(query.key, body)
        return Response(200, body, headers=headers)

    async def _handle_score_get(
        self, request: Request, dataset: str
    ) -> Response:
        entry = self.registry.acquire(dataset)
        try:
            function_names, functions = self._parse_functions(
                request.query.get("functions")
            )
            groups = self._resolve_stored_groups(
                entry, request.query.get("groups")
            )
            query = self._prepare_query(
                entry,
                _restrict_groups(entry, groups),
                function_names,
                functions,
            )
            return await self._score_response(request, query)
        finally:
            self.registry.release(entry)

    async def _handle_score_post(
        self, request: Request, dataset: str
    ) -> Response:
        entry = self.registry.acquire(dataset)
        try:
            payload = request.json()
            if not isinstance(payload, dict):
                raise HttpError(400, "body must be a JSON object")
            function_names, functions = self._parse_functions(
                ",".join(payload.get("functions", []))
                if payload.get("functions")
                else None
            )
            raw_groups = payload.get("groups")
            if not isinstance(raw_groups, list) or not raw_groups:
                raise HttpError(400, "body needs a non-empty 'groups' list")
            names: list[str] = []
            member_lists: list[list[Node]] = []
            for i, record in enumerate(raw_groups):
                if not isinstance(record, dict):
                    raise HttpError(400, f"groups[{i}] must be an object")
                name = record.get("name", f"group-{i}")
                if not isinstance(name, str) or not name:
                    raise HttpError(400, f"groups[{i}] has a malformed name")
                members = record.get("members")
                if not isinstance(members, list) or not members:
                    raise HttpError(
                        400, f"group {name!r} needs a non-empty members list"
                    )
                for member in members:
                    if isinstance(member, bool) or not isinstance(
                        member, (int, str)
                    ):
                        raise HttpError(
                            400,
                            f"group {name!r} has a malformed member id "
                            f"{member!r}",
                        )
                names.append(name)
                member_lists.append(members)
            if len(set(names)) != len(names):
                raise HttpError(400, "duplicate group names in body")
            groups = GroupIds.from_labels(
                entry.context, member_lists, names=names
            )
            query = self._prepare_query(
                entry, groups, function_names, functions
            )
            return await self._score_response(request, query)
        finally:
            self.registry.release(entry)

    async def _handle_compare(self, request: Request) -> Response:
        datasets_param = request.query.get("datasets")
        if not datasets_param:
            raise HttpError(400, "compare needs ?datasets=a,b[,c...]")
        names = [n.strip() for n in datasets_param.split(",") if n.strip()]
        if len(names) < 2:
            raise HttpError(400, "compare needs at least two datasets")
        function_names, _ = self._parse_functions(
            request.query.get("functions")
        )
        entries = [self.registry.acquire(name) for name in names]
        try:
            queries = []
            for entry in entries:
                _, functions = self._parse_functions(
                    request.query.get("functions")
                )
                groups = self._resolve_stored_groups(entry, None)
                queries.append(
                    self._prepare_query(
                        entry,
                        _restrict_groups(entry, groups),
                        function_names,
                        functions,
                    )
                )
            combined = hashlib.sha256(
                "|".join(query.key for query in queries).encode("utf-8")
            ).hexdigest()
            etag = self._etag(combined)
            not_modified = self._not_modified(request, etag)
            if not_modified is not None:
                return not_modified
            headers = {
                "ETag": etag,
                "Cache-Control": "max-age=0, must-revalidate",
            }
            body = self._cached_body(combined)
            if body is None:
                tables = await asyncio.gather(
                    *(self._score_query(query) for query in queries)
                )
                payload = {
                    "functions": function_names,
                    "datasets": [
                        {
                            "name": query.entry.name,
                            "fingerprint": query.entry.fingerprint,
                            "groups": len(query.groups),
                            "summary": {
                                name: {
                                    k: _float(v) for k, v in stats.items()
                                }
                                for name, stats in table.summary().items()
                            },
                        }
                        for query, table in zip(queries, tables)
                    ],
                }
                body = json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
                self._remember_body(combined, body)
            return Response(200, body, headers=headers)
        finally:
            for entry in entries:
                self.registry.release(entry)
