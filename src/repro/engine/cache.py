"""On-disk content-addressed cache for scoring and sampling results.

Re-running ``repro score`` or ``repro compare`` recomputes everything the
previous invocation already computed — yet the inputs are fully
content-addressable: a frozen context has a CSR fingerprint
(:func:`repro.obs.manifest.fingerprint_context`), scoring functions are
small value objects, and sampling is pinned by ``(sampler, seed, sizes)``.
:class:`ResultCache` keys each result on a SHA-256 over exactly those
parts and stores the payload as one flat, checksummed file under a cache
directory, so a warm second run performs **zero kernel invocations** and
emits identical output.

Keying rules:

* any graph change changes the CSR fingerprint and misses;
* any change to a function's configuration (class or scalar state)
  changes its token and misses;
* functions carrying non-scalar state (e.g. a sampled-Modularity
  ensemble) have no stable token — such batches are never cached;
* unseeded sampling (``seed=None``) is never cached (not replayable).

An entry (``<key>.rce``) is, in order: the magic line
``repro-result-cache 1`` (its digit versions the layout), the header
length (4 bytes, little-endian), a JSON header holding the entry's
fields and each array's name, dtype and shape, the arrays' raw
little-endian bytes, and a CRC-32 of everything before it.  A hit is one
read, one checksum and one ``json.loads``; its arrays are read-only
views of the read buffer.

An entry that fails any check (magic, checksum, header, dtype — only
``<f8`` and ``<i8`` — or byte count) is damaged: it is evicted on access
and recounted as a miss, so a damaged cache degrades to recomputation,
never to wrong results or an exception.  Hit/miss/eviction counts land
in ``cache.*`` metrics and, when nonzero, in run manifests;
``cache.read`` and ``cache.write`` time each entry's disk I/O.
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib
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

#: Bump when the key schema or the bytes a key names change: old entries
#: and ETags then miss instead of being served.  The entry layout is
#: versioned apart from the keys, by :data:`_MAGIC`.  v2: context
#: fingerprints went chunk-wise and identity-aware
#: (repro.obs.manifest.fingerprint_context), so keys minted before the
#: out-of-core substrate must not collide.  v3: members are scored in
#: ascending vertex-id order, which changes Average-ODF bytes.
_SCHEMA = "v3"

#: First line of every entry; bump its digit when the layout changes.
_MAGIC = b"repro-result-cache 1\n"
#: The only dtypes an entry may name: a header never builds a dtype.
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}

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

    The single derivation behind on-disk cache entries and the service
    layer's ETags, both taken through
    :func:`repro.scoring.registry.table_key`: a query is the CSR
    fingerprint, the scoring functions' configuration tokens, the named
    group vertex-id sets, and the TPR/adjacency flag.  Two callers
    asking the same question about the same frozen bytes get the same
    key — which is what makes a ``repro score`` run and an HTTP request
    share one cache entry and one ETag universe.
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


def _write_entry(
    handle, fields: dict[str, object], arrays: dict[str, np.ndarray]
) -> None:
    """Write one entry: magic, header length, header, arrays, CRC-32."""
    layout = [
        [name, array.dtype.str, list(array.shape)]
        for name, array in arrays.items()
    ]
    header = json.dumps(
        {"fields": fields, "arrays": layout}, separators=(",", ":")
    ).encode("utf-8")
    # Space-pad the header so the arrays start 8-byte aligned.
    header += b" " * (-(len(_MAGIC) + 4 + len(header)) % 8)
    crc = 0
    for part in (
        _MAGIC,
        len(header).to_bytes(4, "little"),
        header,
        *(array.tobytes() for array in arrays.values()),
    ):
        handle.write(part)
        crc = zlib.crc32(part, crc)
    handle.write(crc.to_bytes(4, "little"))


def _read_entry(
    data: bytes,
) -> tuple[dict[str, object], dict[str, np.ndarray]] | None:
    """Parse one entry into ``(fields, arrays)``; ``None`` if damaged."""
    start = len(_MAGIC) + 4
    if (
        len(data) < start + 4
        or not data.startswith(_MAGIC)
        or zlib.crc32(memoryview(data)[:-4])
        != int.from_bytes(data[-4:], "little")
    ):
        return None
    offset = start + int.from_bytes(data[len(_MAGIC) : start], "little")
    try:
        header = json.loads(data[start:offset])
        fields = header["fields"]
        arrays: dict[str, np.ndarray] = {}
        for name, dtype_name, shape in header["arrays"]:
            dtype = _DTYPES[dtype_name]
            if not all(type(dim) is int and dim >= 0 for dim in shape):
                return None
            count = math.prod(shape)
            arrays[name] = np.frombuffer(
                data, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            offset += count * dtype.itemsize
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None
    if offset != len(data) - 4 or type(fields) is not dict:
        return None
    return fields, arrays


def _list_of(kind: type, value: object) -> bool:
    return type(value) is list and all(type(item) is kind for item in value)


class ResultCache:
    """Content-addressed store of flat, checksummed entries under one
    cache directory."""

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
        return self.root / f"{key}.rce"

    # -- keys ----------------------------------------------------------------

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

    def _load(
        self, key: str, kind: str
    ) -> tuple[dict[str, object], dict[str, np.ndarray]] | None:
        path = self._path(key)
        started = time.perf_counter()
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            instruments.CACHE_MISSES.inc(label=kind)
            return None
        except OSError:  # unreadable: damaged like any other entry
            data = b""
        entry = _read_entry(data)
        instruments.CACHE_READ.observe((time.perf_counter() - started) * 1e3)
        if entry is None:
            self._evict(key, kind)
        return entry

    def _evict(self, key: str, kind: str) -> None:
        """Drop a damaged entry: one eviction and one miss, file removed."""
        instruments.CACHE_EVICTIONS.inc(label=kind)
        instruments.CACHE_MISSES.inc(label=kind)
        try:
            self._path(key).unlink()
        except OSError:  # pragma: no cover - unlink race
            pass

    def _store(
        self, key: str, fields: dict[str, object], arrays: dict[str, np.ndarray]
    ) -> None:
        started = time.perf_counter()
        path = self._path(key)
        scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(scratch, "wb") as handle:
                _write_entry(handle, fields, arrays)
            os.replace(scratch, path)
        except OSError:  # full or read-only cache dir: leave it uncached
            pass
        finally:
            # Gone after a successful replace; after any failure, an
            # interrupt included, the partial file must not linger.
            scratch.unlink(missing_ok=True)
        instruments.CACHE_WRITE.observe((time.perf_counter() - started) * 1e3)

    def load_score_table(
        self, key: str
    ) -> tuple[list[str], list[int], dict[str, np.ndarray]] | None:
        """Load a cached score batch as ``(names, sizes, columns)``."""
        entry = self._load(key, "score")
        if entry is None:
            return None
        fields, arrays = entry
        functions = fields.get("functions")
        names = fields.get("names")
        sizes = fields.get("sizes")
        scores = arrays.get("scores")
        if not (
            _list_of(str, functions)
            and _list_of(str, names)
            and _list_of(int, sizes)
            and scores is not None
            and scores.dtype.str == "<f8"
            and scores.shape == (len(functions), len(names))
            and len(sizes) == len(names)
        ):
            self._evict(key, "score")
            return None
        instruments.CACHE_HITS.inc(label="score")
        return names, sizes, dict(zip(functions, scores))

    def store_score_table(
        self,
        key: str,
        names: Sequence[str],
        sizes: Sequence[int],
        columns: dict[str, np.ndarray],
    ) -> None:
        """Persist one score batch under ``key``."""
        fields = {
            "functions": [str(name) for name in columns],
            "names": [str(name) for name in names],
            "sizes": [int(size) for size in sizes],
        }
        scores = np.array(list(columns.values()), dtype="<f8").reshape(
            len(columns), len(names)
        )
        self._store(key, fields, {"scores": scores})

    def load_id_sets(self, key: str) -> list[np.ndarray] | None:
        """Load cached matched sets as per-set vertex-id arrays."""
        entry = self._load(key, "sets")
        if entry is None:
            return None
        _, arrays = entry
        values = arrays.get("values")
        offsets = arrays.get("offsets")
        if not (
            values is not None
            and offsets is not None
            and values.dtype.str == offsets.dtype.str == "<i8"
            and values.ndim == offsets.ndim == 1
            and offsets.size
            and offsets[0] == 0
            and offsets[-1] == values.size
            and (np.diff(offsets) >= 0).all()
        ):
            self._evict(key, "sets")
            return None
        instruments.CACHE_HITS.inc(label="sets")
        bounds = offsets.tolist()
        return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def store_id_sets(
        self, key: str, id_lists: Sequence[np.ndarray]
    ) -> None:
        """Persist matched sets (vertex-id arrays) under ``key``."""
        offsets = np.zeros(len(id_lists) + 1, dtype="<i8")
        for i, ids in enumerate(id_lists):
            offsets[i + 1] = offsets[i] + len(ids)
        values = (
            np.concatenate([np.asarray(ids, dtype="<i8") for ids in id_lists])
            if id_lists
            else np.zeros(0, dtype="<i8")
        )
        self._store(key, {}, {"values": values, "offsets": offsets})

    def __repr__(self) -> str:
        return f"<ResultCache root={str(self.root)!r}>"
