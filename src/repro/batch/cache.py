"""On-disk content-addressed result store.

Entries are keyed by job fingerprint (:mod:`repro.batch.fingerprint`)
and laid out git-style — ``<root>/<fp[:2]>/<fp[2:]>.pkl`` — so a warm
directory stays listable.  Each file is one pickled tuple
``(CACHE_FORMAT, summary, result_bytes)``: ``result_bytes`` is the
pickled value (a :class:`~repro.batch.runner.JobResult`, schedule
included, so a hit is a full replay), and ``summary`` is the job's
status document (:func:`~repro.batch.runner.result_payload`), built
when the entry is stored, or ``None`` for a value that has none.

There are two reads.  :meth:`ResultCache.get` decodes the result
(what :class:`~repro.batch.runner.BatchRunner` and sweeps need);
:meth:`ResultCache.summary` unpickles only the outer tuple, so a
served cache hit never rebuilds the schedule.  Both count hits and
misses alike.  The summary and its result share one file and one
write, so neither can exist without the other, nor be paired with
another job's.

Writes are atomic (temp file + ``os.replace``) so a killed sweep never
leaves a truncated entry; unreadable/corrupt entries — including any
file not in the current layout — degrade to misses *and are
quarantined* (sidecar-renamed to ``*.pkl.corrupt``, or unlinked when
even that fails) so one bad file costs one miss, not a failed read on
every future lookup.  :class:`NullCache` is the ``--no-cache`` escape
hatch: same interface, never stores anything (and so never builds a
summary).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..obs import active as _obs_active

#: Version of the on-disk entry layout; an entry in any other layout is
#: a counted, quarantined miss.
CACHE_FORMAT = 1


def _count(name: str) -> None:
    obs = _obs_active()
    if obs is not None:
        obs.metrics.inc(name)


def _summarize(value: Any) -> dict | None:
    """The status document stored beside ``value``: a successful
    :class:`~repro.batch.runner.JobResult`'s payload, else ``None``."""
    # Imported here: the runner imports this module.
    from .runner import JobResult, result_payload

    if isinstance(value, JobResult) and value.ok:
        return result_payload(value)
    return None


@dataclass
class CacheStats:
    """Hit/miss accounting for one runner pass (or cache lifetime)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Entries quarantined because their file would not load.
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` and ``summary`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        text = (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100.0:.0f}% hit rate, {self.puts} stored)"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt quarantined"
        return text


class NullCache:
    """A cache that never stores: every lookup is a miss."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    def get(self, key: str) -> Any | None:
        """Always a miss."""
        self.stats.misses += 1
        _count("cache.misses")
        return None

    summary = get

    def put(self, key: str, value: Any, summary: dict | None = None) -> None:
        """Discard ``value``."""


class ResultCache:
    """Content-addressed pickle store rooted at ``root``."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        if len(key) < 3:
            raise ValueError(f"cache key too short: {key!r}")
        return self.root / key[:2] / f"{key[2:]}.pkl"

    def get(self, key: str) -> Any | None:
        """Return the stored value, or ``None`` on miss/corruption."""
        entry = self._read(key)
        if entry is None:
            return None
        try:
            value = pickle.loads(entry[2])
        except Exception:
            # E.g. a result pickled against a renamed class/module.
            self._corrupt(self._path(key))
            return None
        self._hit()
        return value

    def summary(self, key: str) -> dict | None:
        """Return the stored summary without decoding the result, or
        ``None`` on miss/corruption.  An entry stored without a summary
        is a miss but stays in place: :meth:`get` can still serve it."""
        entry = self._read(key)
        if entry is None:
            return None
        if entry[1] is None:
            self._miss()
            return None
        self._hit()
        return entry[1]

    def _read(self, key: str) -> tuple | None:
        """The entry tuple for ``key``, or ``None`` on a (counted)
        miss.  A file that will not load, or is not in the
        :data:`CACHE_FORMAT` layout, is quarantined."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            self._miss()
            return None
        except Exception:
            # Unreadable or truncated entries are misses, never
            # crashes — and the offending file is quarantined so it
            # fails exactly once instead of on every future lookup.
            self._corrupt(path)
            return None
        if not (
            type(entry) is tuple
            and len(entry) == 3
            and entry[0] == CACHE_FORMAT
            and type(entry[2]) is bytes
        ):
            self._corrupt(path)
            return None
        return entry

    def _hit(self) -> None:
        self.stats.hits += 1
        _count("cache.hits")

    def _miss(self) -> None:
        self.stats.misses += 1
        _count("cache.misses")

    def _corrupt(self, path: Path) -> None:
        self._quarantine(path)
        self.stats.corrupt += 1
        self._miss()
        _count("cache.corrupt")

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move an unreadable entry aside (``*.pkl.corrupt`` sidecar —
        outside the ``*.pkl`` globs, so it neither counts as an entry
        nor gets retried), falling back to unlink."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def put(self, key: str, value: Any, summary: dict | None = None) -> None:
        """Store ``value`` atomically under ``key``, with ``summary``
        (built from ``value`` when not given) in the same file."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # ``.part`` suffix: a writer killed mid-write leaves a temp
        # file that no ``*.pkl`` glob (``__len__``/``clear``) can ever
        # mistake for an entry (pathlib globs DO match dotfiles).
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                if summary is None:
                    summary = _summarize(value)
                result_bytes = pickle.dumps(
                    value, protocol=pickle.HIGHEST_PROTOCOL
                )
                pickle.dump(
                    (CACHE_FORMAT, summary, result_bytes),
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        _count("cache.puts")

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        """Number of stored entries (walks the directory)."""
        if not self.root.exists():
            return 0
        return sum(
            1
            for shard in self.root.iterdir()
            if shard.is_dir()
            for entry in shard.glob("*.pkl")
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for shard in self.root.iterdir():
            if not shard.is_dir():
                continue
            for entry in shard.glob("*.pkl"):
                entry.unlink()
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, entries={len(self)})"
