"""Identity guarantees between the service and the offline pipeline.

Two contracts from the runbook:

1. **Byte identity** — a served score payload carries exactly the floats
   ``repro score --mmap-dir STORE`` computes (same ``score_groups`` code
   path, compared via ``float64.tobytes()``, not approximate equality).
2. **One cache universe** — a CLI ``score_groups`` run with a cache dir
   and an HTTP request for the same query derive the same
   :func:`repro.engine.query_key`, so the service answers from the
   CLI-written cache entry without ever invoking the engine (and vice
   versa).  A damaged entry is evicted and recomputed to the same body.
"""

from __future__ import annotations

import math

import numpy as np

import repro.obs as obs
from repro.data.groups import load_groups
from repro.engine import AnalysisContext, ResultCache
from repro.obs import instruments
from repro.scoring import (
    PAPER_FUNCTION_NAMES,
    make_all_functions,
    make_function,
    score_groups,
)


def _reference_table(
    service_root, dataset: str, *, cache=False, names=PAPER_FUNCTION_NAMES
):
    """Score the stored groups exactly the way ``repro score`` does."""
    store = service_root / dataset
    context = AnalysisContext.open(store)
    groups = load_groups(store / "groups.json")
    functions = [make_function(name) for name in names]
    return score_groups(context, groups, functions=functions, cache=cache)


def _served_column(payload, function_name: str) -> np.ndarray:
    """Rebuild one float64 column from a served JSON payload."""
    special = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    return np.array(
        [
            special.get(group["scores"][function_name])
            if isinstance(group["scores"][function_name], str)
            else group["scores"][function_name]
            for group in payload["groups"]
        ],
        dtype=np.float64,
    )


class TestByteIdentity:
    def test_served_scores_match_cli_bitwise(
        self, service_runner, service_root
    ):
        async def scenario(service, client):
            return await client.get_json("/v1/datasets/alpha/score")

        status, _, payload = service_runner(scenario)
        assert status == 200

        table = _reference_table(service_root, "alpha")
        assert [g["name"] for g in payload["groups"]] == table.group_names
        assert [g["size"] for g in payload["groups"]] == table.group_sizes
        for function_name, reference in table.columns.items():
            served = _served_column(payload, function_name)
            assert reference.dtype == np.float64
            assert served.tobytes() == reference.tobytes(), function_name

        # All fifteen functions: FOMD's median degree and TPR's
        # neighbour rows reach the micro-batch too.
        every = [function.name for function in make_all_functions()]

        async def every_scenario(service, client):
            return await client.get_json(
                f"/v1/datasets/alpha/score?functions={','.join(every)}"
            )

        status, _, payload = service_runner(every_scenario)
        assert status == 200
        table = _reference_table(service_root, "alpha", names=every)
        assert list(table.columns) == every
        assert [g["size"] for g in payload["groups"]] == table.group_sizes
        for function_name, reference in table.columns.items():
            served = _served_column(payload, function_name)
            assert served.tobytes() == reference.tobytes(), function_name

    def test_served_summary_matches_cli_bitwise(
        self, service_runner, service_root
    ):
        async def scenario(service, client):
            return await client.get_json("/v1/datasets/alpha/score")

        _, _, payload = service_runner(scenario)
        table = _reference_table(service_root, "alpha")
        for function_name, stats in table.summary().items():
            served = payload["summary"][function_name]
            for stat, value in stats.items():
                reference = np.float64(value)
                got = np.float64(served[stat])
                assert got.tobytes() == reference.tobytes(), (
                    function_name,
                    stat,
                )


class TestSharedCacheUniverse:
    def test_cli_warmed_cache_serves_without_compute(
        self, service_runner, service_root, tmp_path
    ):
        """The CLI run's cache entry *is* the service's: the request
        below never reaches the micro-batcher."""
        cache_dir = tmp_path / "shared-cache"
        table = _reference_table(service_root, "alpha", cache=cache_dir)

        async def scenario(service, client):
            before = instruments.SERVICE_BATCHES.total()
            status, headers, payload = await client.get_json(
                "/v1/datasets/alpha/score"
            )
            flushed = instruments.SERVICE_BATCHES.total() - before
            return status, headers, payload, flushed

        status, headers, payload, flushed = service_runner(
            scenario, cache=cache_dir
        )
        assert status == 200
        assert flushed == 0  # answered from the CLI-written entry
        for function_name, reference in table.columns.items():
            served = _served_column(payload, function_name)
            assert served.tobytes() == reference.tobytes(), function_name
        # The ETag is the quoted shared query key, so the entry the CLI
        # wrote must exist under exactly that address.
        key = headers["etag"].strip('"')
        assert ResultCache(cache_dir).load_score_table(key) is not None

    def test_empty_entry_is_recomputed_to_the_same_body(
        self, service_runner, service_root, tmp_path
    ):
        """An entry emptied on disk (a crash before its bytes reached the
        disk) is evicted: the GET answers 200 with the body and ETag the
        undamaged entry gave, and the entry is written again."""
        cache_dir = tmp_path / "damaged-cache"
        _reference_table(service_root, "alpha", cache=cache_dir)
        (entry,) = list(cache_dir.iterdir())
        data = entry.read_bytes()

        async def scenario(service, client):
            return await client.request("GET", "/v1/datasets/alpha/score")

        status, headers, body = service_runner(scenario, cache=cache_dir)
        assert status == 200
        entry.write_bytes(b"")
        status, damaged_headers, damaged_body = service_runner(
            scenario, cache=cache_dir
        )
        assert status == 200
        assert damaged_body == body
        assert damaged_headers["etag"] == headers["etag"]
        assert entry.read_bytes() == data

    def test_service_warmed_cache_feeds_cli(
        self, service_runner, service_root, tmp_path
    ):
        """The reverse direction: an HTTP request populates the cache a
        later ``score_groups`` run reads (cache hit, not a recompute)."""
        cache_dir = tmp_path / "shared-cache-reverse"

        async def scenario(service, client):
            return await client.get_json("/v1/datasets/alpha/score")

        status, headers, _ = service_runner(scenario, cache=cache_dir)
        assert status == 200

        # Metrics were switched off again by the service's shutdown;
        # re-enable to observe the CLI path's cache hit.
        obs.enable_metrics()
        try:
            before = instruments.CACHE_HITS.total()
            table = _reference_table(service_root, "alpha", cache=cache_dir)
            assert instruments.CACHE_HITS.total() == before + 1
        finally:
            obs.disable()
        assert set(table.columns) == set(PAPER_FUNCTION_NAMES)
