"""Cache-corruption injection: :class:`ChaosCache`.

Wraps a :class:`~repro.batch.cache.ResultCache` and garbles entry
*files* on disk per a :class:`~repro.resilience.faults.FaultPlan` —
write corruption right after a ``put``, read corruption right before a
``get`` or ``summary``.  The corruption is real (the bytes on disk are
truncated and prefixed with garbage), so what gets exercised is the
cache's own defense: either read must quarantine the unreadable entry,
count ``cache.corrupt``, report a miss, and let the runner recompute —
zero lost jobs, merely colder caches.

Like worker faults, corruption decisions are pure functions of
``(plan seed, key)`` — a chaos run corrupts the same entries no matter
the timing.
"""

from __future__ import annotations

from ..batch.cache import CacheStats, ResultCache
from .faults import FaultPlan

#: Prefix stamped onto a garbled entry file (makes chaos-corrupted
#: files recognizable in a post-mortem, unlike genuine bit rot).
GARBLE_PREFIX = b"\x00REPRO-CHAOS\x00"


class ChaosCache:
    """A :class:`ResultCache` proxy that injects entry-file corruption.

    Duck-types the cache protocol (``get`` / ``summary`` / ``put`` /
    ``stats`` / ``__len__``), so
    :class:`~repro.batch.runner.BatchRunner` and
    :class:`~repro.serve.service.CompileService` use it unchanged.
    """

    def __init__(self, inner: ResultCache, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        #: Per-key read counter driving the read-corruption stream.
        self._lookups: dict[str, int] = {}
        self.corrupted_reads = 0
        self.corrupted_writes = 0

    @property
    def stats(self) -> CacheStats:
        return self.inner.stats

    def get(self, key: str):
        self._before_read(key)
        return self.inner.get(key)

    def summary(self, key: str):
        self._before_read(key)
        return self.inner.summary(key)

    def put(self, key: str, value, summary: dict | None = None) -> None:
        self.inner.put(key, value, summary)
        if self.plan.corrupt_write(key) and self._garble(key):
            self.corrupted_writes += 1

    def _before_read(self, key: str) -> None:
        """Draw the next read-corruption decision for ``key`` (one
        stream shared by ``get`` and ``summary``) and apply it."""
        lookup = self._lookups.get(key, 0)
        self._lookups[key] = lookup + 1
        if self.plan.corrupt_read(key, lookup) and self._garble(key):
            self.corrupted_reads += 1

    def _garble(self, key: str) -> bool:
        """Truncate-and-prefix the entry file for ``key``; True if an
        entry existed to corrupt."""
        path = self.inner._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return False
        path.write_bytes(GARBLE_PREFIX + data[: len(data) // 2])
        return True

    def __len__(self) -> int:
        return len(self.inner)
