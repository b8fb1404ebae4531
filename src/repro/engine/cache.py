"""On-disk content-addressed cache for scoring and sampling results.

Re-running ``repro score`` or ``repro compare`` recomputes everything the
previous invocation already computed — yet the inputs are fully
content-addressable: a frozen context has a CSR fingerprint
(:func:`repro.obs.manifest.fingerprint_context`), scoring functions are
small value objects, and sampling is pinned by ``(sampler, seed, sizes)``.
:class:`ResultCache` keys each result on a SHA-256 over exactly those
parts and stores the payload as an ``.npz`` under a cache directory, so a
warm second run performs **zero kernel invocations** and emits identical
output.

Keying rules:

* any graph change changes the CSR fingerprint and misses;
* any change to a function's configuration (class or scalar state)
  changes its token and misses;
* functions carrying non-scalar state (e.g. a sampled-Modularity
  ensemble) have no stable token — such batches are never cached;
* unseeded sampling (``seed=None``) is never cached (not replayable).

Corrupt or unreadable entries are evicted on access and recounted as
misses — a damaged cache degrades to recomputation, never to wrong
results.  Hit/miss/eviction counts land in ``cache.*`` metrics and, when
nonzero, in run manifests.
"""

from __future__ import annotations

import json
import os
import zipfile
from collections.abc import Hashable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import instruments
from repro.obs.manifest import fingerprint_context

if TYPE_CHECKING:  # pragma: no cover - type-only imports (cycle-free)
    from repro.engine.context import AnalysisContext
    from repro.scoring.base import ScoringFunction

Node = Hashable

__all__ = ["ResultCache", "function_tokens", "query_key"]

#: Bump when the payload layout, the key schema or the bytes a key names
#: change: old entries then miss instead of being served.  v2: context
#: fingerprints went chunk-wise and identity-aware
#: (repro.obs.manifest.fingerprint_context), so keys minted before the
#: out-of-core substrate must not collide.  v3: members are scored in
#: ascending vertex-id order, which changes Average-ODF bytes.
_SCHEMA = "v3"

_SCALARS = (type(None), bool, int, float, str)


def _function_state(function: "ScoringFunction") -> dict[str, object] | None:
    state = getattr(function, "__dict__", None)
    if state is None:
        slots = getattr(type(function), "__slots__", ())
        state = {
            name: getattr(function, name)
            for name in slots
            if hasattr(function, name)
        }
    return dict(state)


def function_tokens(
    functions: Sequence["ScoringFunction"],
) -> list[dict[str, object]] | None:
    """Stable cache tokens for a function list, or ``None`` if impossible.

    A token pins the function's class and its scalar configuration.  Any
    function carrying non-scalar state (a null-model ensemble, a closure)
    cannot be tokenized — the whole batch is then uncacheable *and*
    treated as parallel-unsafe, since the same non-scalar state could not
    be shipped to workers faithfully either.
    """
    tokens: list[dict[str, object]] = []
    for function in functions:
        state = _function_state(function)
        if state is None:
            return None
        for value in state.values():
            if not isinstance(value, _SCALARS):
                return None
        tokens.append(
            {
                "class": type(function).__qualname__,
                "name": getattr(function, "name", type(function).__name__),
                "state": {key: state[key] for key in sorted(state)},
            }
        )
    return tokens


def _digest(parts: dict[str, object]) -> str:
    import hashlib

    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def query_key(
    context: "AnalysisContext",
    *,
    tokens: list[dict[str, object]],
    group_names: Sequence[str],
    id_lists: Sequence[np.ndarray],
    include_internal_adjacency: bool,
) -> str:
    """Content address of one score query over a frozen context.

    The single derivation shared by :meth:`ResultCache.score_groups_key`
    (on-disk cache entries) and the service layer's ETags
    (:mod:`repro.service`): a query is the CSR fingerprint, the scoring
    functions' configuration tokens, the named group vertex-id sets, and
    the TPR/adjacency flag.  Two callers asking the same question about
    the same frozen bytes get the same key — which is what makes a
    ``repro score`` run and an HTTP request share one cache entry and
    one ETag universe.
    """
    import hashlib

    groups = hashlib.sha256()
    for name, ids in zip(group_names, id_lists):
        groups.update(repr(name).encode("utf-8"))
        groups.update(np.sort(np.asarray(ids, dtype=np.int64)).tobytes())
    return _digest(
        {
            "schema": _SCHEMA,
            "kind": "score_groups",
            "fingerprint": fingerprint_context(context),
            "functions": tokens,
            "groups": groups.hexdigest(),
            "tpr": bool(include_internal_adjacency),
        }
    )


class ResultCache:
    """Content-addressed ``.npz`` store under one cache directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def resolve(
        cls, cache: "ResultCache | str | Path | bool | None"
    ) -> "ResultCache | None":
        """Normalize a user-facing cache argument.

        ``False`` disables caching outright (the ``--no-cache`` flag);
        an instance passes through; a path opens a cache there; ``None``
        consults ``REPRO_CACHE_DIR`` and stays disabled if unset.
        """
        if cache is False or cache is True:
            return None
        if cache is None:
            env = os.environ.get("REPRO_CACHE_DIR", "").strip()
            return cls(env) if env else None
        if isinstance(cache, ResultCache):
            return cache
        return cls(cache)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    # -- keys ----------------------------------------------------------------

    def score_groups_key(
        self,
        context: "AnalysisContext",
        *,
        tokens: list[dict[str, object]],
        group_names: Sequence[str],
        id_lists: Sequence[np.ndarray],
        include_internal_adjacency: bool,
    ) -> str:
        """Key for one ``score_groups`` batch over a frozen context.

        Delegates to the shared :func:`query_key` derivation so on-disk
        entries and service ETags can never drift apart.
        """
        return query_key(
            context,
            tokens=tokens,
            group_names=group_names,
            id_lists=id_lists,
            include_internal_adjacency=include_internal_adjacency,
        )

    def matched_sets_key(
        self,
        context: "AnalysisContext",
        *,
        sampler: str,
        seed: int,
        sizes: Sequence[int],
    ) -> str:
        """Key for one seeded matched-set draw over a frozen context."""
        return _digest(
            {
                "schema": _SCHEMA,
                "kind": "matched_sets",
                "fingerprint": fingerprint_context(context),
                "sampler": sampler,
                "seed": int(seed),
                "sizes": [int(size) for size in sizes],
            }
        )

    # -- payload IO ----------------------------------------------------------

    def _load(self, key: str, kind: str) -> dict[str, np.ndarray] | None:
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as payload:
                return {name: payload[name] for name in payload.files}
        except FileNotFoundError:
            instruments.CACHE_MISSES.inc(label=kind)
            return None
        except (zipfile.BadZipFile, OSError, ValueError, KeyError):
            # Damaged entry: evict and recompute rather than trust it.
            instruments.CACHE_EVICTIONS.inc(label=kind)
            instruments.CACHE_MISSES.inc(label=kind)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - unlink race
                pass
            return None

    def _store(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        path = self._path(key)
        scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(scratch, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(scratch, path)
        except OSError:  # full or read-only cache dir: leave it uncached
            pass
        finally:
            # Gone after a successful replace; after any failure, an
            # interrupt included, the partial file must not linger.
            scratch.unlink(missing_ok=True)

    def load_score_table(
        self, key: str
    ) -> tuple[list[str], list[int], dict[str, np.ndarray]] | None:
        """Load a cached score batch as ``(names, sizes, columns)``."""
        payload = self._load(key, "score")
        if payload is None:
            return None
        try:
            functions = [str(name) for name in payload["functions"]]
            names = [str(name) for name in payload["names"]]
            sizes = [int(size) for size in payload["sizes"]]
            columns = {
                name: np.asarray(payload[f"col_{i}"], dtype=np.float64)
                for i, name in enumerate(functions)
            }
        except KeyError:
            instruments.CACHE_EVICTIONS.inc(label="score")
            instruments.CACHE_MISSES.inc(label="score")
            self._path(key).unlink(missing_ok=True)
            return None
        instruments.CACHE_HITS.inc(label="score")
        return names, sizes, columns

    def store_score_table(
        self,
        key: str,
        names: Sequence[str],
        sizes: Sequence[int],
        columns: dict[str, np.ndarray],
    ) -> None:
        """Persist one score batch under ``key``."""
        arrays: dict[str, np.ndarray] = {
            "functions": np.asarray(list(columns), dtype=np.str_),
            "names": np.asarray(list(names), dtype=np.str_),
            "sizes": np.asarray(list(sizes), dtype=np.int64),
        }
        for i, values in enumerate(columns.values()):
            arrays[f"col_{i}"] = np.asarray(values, dtype=np.float64)
        self._store(key, arrays)

    def load_id_sets(self, key: str) -> list[np.ndarray] | None:
        """Load cached matched sets as per-set vertex-id arrays."""
        payload = self._load(key, "sets")
        if payload is None:
            return None
        try:
            values = np.asarray(payload["values"], dtype=np.int64)
            offsets = np.asarray(payload["offsets"], dtype=np.int64)
        except KeyError:
            instruments.CACHE_EVICTIONS.inc(label="sets")
            instruments.CACHE_MISSES.inc(label="sets")
            self._path(key).unlink(missing_ok=True)
            return None
        instruments.CACHE_HITS.inc(label="sets")
        return [
            values[offsets[i] : offsets[i + 1]]
            for i in range(len(offsets) - 1)
        ]

    def store_id_sets(
        self, key: str, id_lists: Sequence[np.ndarray]
    ) -> None:
        """Persist matched sets (vertex-id arrays) under ``key``."""
        offsets = np.zeros(len(id_lists) + 1, dtype=np.int64)
        for i, ids in enumerate(id_lists):
            offsets[i + 1] = offsets[i] + len(ids)
        values = (
            np.concatenate([np.asarray(ids, dtype=np.int64) for ids in id_lists])
            if id_lists
            else np.zeros(0, dtype=np.int64)
        )
        self._store(key, {"values": values, "offsets": offsets})

    def __repr__(self) -> str:
        return f"<ResultCache root={str(self.root)!r}>"
