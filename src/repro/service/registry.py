"""Multi-tenant dataset registry: lazily-opened, LRU-resident stores.

The service's root directory holds one ``repro-csr-dir`` store per
dataset (written by ``repro freeze``), each with its ``groups.json``
sidecar.  :class:`DatasetRegistry` opens a store the first time a
request names it (:meth:`~repro.engine.AnalysisContext.open` — an O(1)
memmap attach, not a load) and keeps up to ``max_resident`` datasets
warm; the least recently used one is evicted when the budget is
exceeded.

Eviction is *lease-safe*: every request holds a lease on its dataset
for the duration of its batch, and an evicted entry is only torn down
(parallel executor closed, buffers dropped) once the last lease is
released.  A request racing an eviction therefore always finishes
against the snapshot it acquired — it just pays a re-open on the next
query.

All registry methods run on the service's single event loop; they never
block on I/O beyond the O(1) store attach and the (small) group-sidecar
parse, so no cross-thread locking is needed.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from repro.data.groups import GroupSet, load_groups
from repro.engine import AnalysisContext, ParallelExecutor
from repro.exceptions import FormatError, GraphError
from repro.obs import instruments
from repro.obs.manifest import fingerprint_context

__all__ = ["DatasetRegistry", "ResidentDataset", "UnknownDatasetError"]


class UnknownDatasetError(KeyError):
    """Raised when a request names a dataset the root does not hold."""


class ResidentDataset:
    """One warm tenant: a frozen context, its groups, and its executor.

    Leases count in-flight requests reading this snapshot.  ``close``
    only runs once the entry has been evicted *and* the lease count has
    dropped to zero, so eviction never invalidates an in-flight batch.
    """

    __slots__ = (
        "name",
        "context",
        "groups",
        "_by_name",
        "fingerprint",
        "jobs",
        "leases",
        "evicted",
        "_executor",
    )

    def __init__(
        self,
        name: str,
        context: AnalysisContext,
        groups: GroupSet,
        *,
        jobs: int,
    ) -> None:
        self.name = name
        self.context = context
        self.groups = groups
        self._by_name = {group.name: group for group in groups}
        self.fingerprint = fingerprint_context(context)
        self.jobs = jobs
        self.leases = 0
        self.evicted = False
        self._executor: ParallelExecutor | None = None

    def group(self, name: str):
        """Return the stored group called ``name``, or ``None``."""
        return self._by_name.get(name)

    def executor(self) -> ParallelExecutor | None:
        """The dataset's shared worker pool (``None`` when serial)."""
        if self.jobs <= 1:
            return None
        if self._executor is None:
            self._executor = ParallelExecutor(self.context, self.jobs)
        return self._executor

    def close(self) -> None:
        """Release the executor's pool and shared-memory segments."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __repr__(self) -> str:
        state = "evicted" if self.evicted else "resident"
        return (
            f"<ResidentDataset {self.name!r} {state} "
            f"leases={self.leases} groups={len(self.groups)}>"
        )


class DatasetRegistry:
    """Name -> resident dataset mapping with lazy open and LRU eviction."""

    def __init__(
        self, root: str | Path, *, max_resident: int = 4, jobs: int = 1
    ) -> None:
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.root = Path(root)
        self.max_resident = max_resident
        self.jobs = jobs
        self._resident: OrderedDict[str, ResidentDataset] = OrderedDict()

    def available(self) -> list[str]:
        """Dataset names the root can serve (sorted; resident or not)."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if (entry / "meta.json").is_file()
        )

    def resident_names(self) -> list[str]:
        """Currently-warm dataset names, least recently used first."""
        return list(self._resident)

    def acquire(self, name: str) -> ResidentDataset:
        """Lease the named dataset, opening its store if not resident.

        Raises :class:`UnknownDatasetError` for names outside the root
        (including path-traversal attempts) and for directories that are
        not valid stores or hold a damaged ``groups.json``.  Callers
        must pair every acquire with exactly one :meth:`release`.
        """
        entry = self._resident.get(name)
        if entry is None:
            entry = self._open(name)
            self._resident[name] = entry
            instruments.SERVICE_RESIDENT.set(len(self._resident))
            self._evict_over_budget()
        else:
            self._resident.move_to_end(name)
        entry.leases += 1
        return entry

    def release(self, entry: ResidentDataset) -> None:
        """Return a lease; tears the entry down if it was evicted."""
        entry.leases -= 1
        if entry.evicted and entry.leases <= 0:
            entry.close()

    def _open(self, name: str) -> ResidentDataset:
        if not name or "/" in name or "\\" in name or name in (".", ".."):
            raise UnknownDatasetError(name)
        directory = self.root / name
        if not (directory / "meta.json").is_file():
            raise UnknownDatasetError(name)
        groups_path = directory / "groups.json"
        try:
            context = AnalysisContext.open(directory)
            if groups_path.is_file():
                groups = load_groups(groups_path)
            else:
                groups = GroupSet(name=name)
        except (GraphError, FormatError, OSError, ValueError) as exc:
            raise UnknownDatasetError(f"{name}: {exc}") from exc
        return ResidentDataset(name, context, groups, jobs=self.jobs)

    def _evict_over_budget(self) -> None:
        while len(self._resident) > self.max_resident:
            _, entry = self._resident.popitem(last=False)
            entry.evicted = True
            instruments.SERVICE_EVICTIONS.inc()
            instruments.SERVICE_RESIDENT.set(len(self._resident))
            if entry.leases <= 0:
                entry.close()

    def close(self) -> None:
        """Evict and tear down every resident dataset (shutdown path)."""
        while self._resident:
            _, entry = self._resident.popitem(last=False)
            entry.evicted = True
            if entry.leases <= 0:
                entry.close()
        instruments.SERVICE_RESIDENT.set(0)

    def __repr__(self) -> str:
        return (
            f"<DatasetRegistry root={str(self.root)!r} "
            f"resident={len(self._resident)}/{self.max_resident}>"
        )
