"""Crash-safe on-disk memo cache: append-only segments with checksums.

PR 2's :data:`~repro.runtime.cache.GLOBAL_CACHE` made automata algebra
~4-5x faster once warm — but that warmth was a per-process accident: it
died with every fork-per-job worker and with every daemon restart.  This
module makes it a durable asset.  A :class:`DiskCache` is a directory of
**append-only segment files** shared by every worker of a ``repro
serve`` daemon (and by every future incarnation of that daemon), keyed
on the same canonical, process-stable strings
(:func:`repro.runtime.cache.memo_key`) the in-memory table uses.

Design, driven by the failure modes it must survive:

* **Append-only segments, one writer per process.**  Each writing
  process appends to its own segment file (named with its pid), so
  concurrent workers never interleave bytes and need no write locks.
  Readers see other writers' records via cheap incremental re-scans
  (:meth:`DiskCache.refresh` — a ``stat`` per segment, reading only the
  new suffix).  A record commits when its writer calls :meth:`flush`
  or :meth:`close`; a pool worker flushes after every job.
* **Per-record checksums.**  Every record frames its key and pickled
  value behind a blake2b digest.  A record that does not checksum is
  *not there* — never returned, never trusted.
* **Torn-tail tolerance.**  ``kill -9`` mid-append leaves a truncated
  final record.  Scanning stops at the first frame that fails to parse
  and remembers the offset: if the record was merely *in flight* a later
  refresh picks it up once complete; on daemon restart
  (:meth:`DiskCache.recover`) the torn tail is truncated away for good.
  Everything fsynced before the kill — every *committed* record — is
  recovered intact.
* **Tombstoned quarantine.**  When the audit (:mod:`repro.audit`)
  refutes a verdict, the memo entries it depended on are *quarantined*
  (:meth:`DiskCache.quarantine`): each key gets a tombstone record
  appended to a fresh segment — which sorts after every segment written
  so far, so any future scan (refresh, recovery, a brand-new instance)
  sees the tombstone *after* the poisoned record and drops the key —
  and the action is journaled to ``quarantine.jsonl`` for forensics.
  A later :meth:`put` of a recomputed value supersedes the tombstone
  the same way; compaction drops both the poisoned record and the
  tombstone for good.
* **fcntl-locked compaction.**  Superseded and duplicate records (two
  workers computing the same key concurrently is legal: memoized values
  are deterministic, so duplicates are identical) are squeezed out by
  rewriting live records into a fresh segment under an exclusive
  ``fcntl`` lock, with an atomic rename — a crash mid-compaction leaves
  either the old segments or the new one, never a mix.  A lock that
  cannot be acquired promptly (another daemon compacting, or the
  ``cache:stale-lock`` chaos fault) skips compaction gracefully: the
  cache is merely larger than ideal, never unavailable.

Fault points (armed only by chaos tests, see
:mod:`repro.runtime.faults`): ``cache:torn-write`` fires between the two
halves of a record append — a ``crash`` action there produces a real
torn tail; ``cache:stale-lock`` fires inside compaction's lock
acquisition — an ``exception`` action there simulates an unyielding
holder; ``cache:poison-entry`` fires at the top of :meth:`DiskCache.put`
— an ``exception`` action there persists a *semantically corrupted*
value behind a perfectly valid checksum (a bottom-up automaton with its
accepting set complemented), the corruption class that no checksum can
catch and only the audit replay (:mod:`repro.audit`) detects.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.errors import FaultInjected
from repro.runtime.faults import active_plan, fault_point

try:  # pragma: no cover - exercised implicitly on every POSIX platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["DiskCache", "RECORD_MAGIC", "TOMBSTONE_MAGIC", "SEGMENT_SUFFIX"]

#: Frame marker opening every record; bumping it versions the format.
RECORD_MAGIC = b"\xabRS1"

#: Frame marker of a quarantine tombstone: same framing as a record but
#: zero value bytes; parsing one *removes* the key from the index.
TOMBSTONE_MAGIC = b"\xabRT1"

#: Fixed-size portion after the magic: key length, value length, digest.
_HEADER = struct.Struct("<II16s")

SEGMENT_SUFFIX = ".seg"

#: Rollover point for a writer's segment file.
MAX_SEGMENT_BYTES = 64 * 1024 * 1024

#: Values whose pickled form exceeds this are not persisted (the memory
#: tier still holds them); keeps one giant automaton from dominating
#: the segments every reader scans.
MAX_VALUE_BYTES = 16 * 1024 * 1024

#: Least seconds between two scans for other writers' new records that
#: a persistent-tier miss triggers (:meth:`DiskCache.refresh`).
REFRESH_SECONDS = 1.0


def _checksum(key_bytes: bytes, value_bytes: bytes) -> bytes:
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(key_bytes)
    hasher.update(value_bytes)
    return hasher.digest()


class _IndexEntry:
    """Where a committed record's value lives (and how to verify it)."""

    __slots__ = ("path", "offset", "length", "digest")

    def __init__(self, path: Path, offset: int, length: int,
                 digest: bytes) -> None:
        self.path = path
        self.offset = offset  # offset of the *value* bytes
        self.length = length
        self.digest = digest


class DiskCache:
    """A shared, crash-safe, fingerprint-keyed on-disk memo cache.

    ``directory`` is created on first use.  Keys are the canonical
    strings of :func:`repro.runtime.cache.memo_key`; values are pickled
    (values that fail to pickle are skipped, counted, and simply not
    persisted).  Thread-safe; multi-process safe by construction (one
    append-only segment per writer, checksums on every record).  A
    :meth:`put` is buffered: it commits at :meth:`flush` or
    :meth:`close`, and the pool workers flush after every finished job,
    making the job the commit unit.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.segments_dir = self.directory / "segments"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._index: dict[bytes, _IndexEntry] = {}
        #: per-segment scan frontier: bytes of each file already parsed
        self._scanned: dict[Path, int] = {}
        self._writer: Optional[io.BufferedWriter] = None
        self._writer_path: Optional[Path] = None
        self._last_refresh = 0.0
        # counters
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_reads = 0
        self.torn_dropped = 0
        self.unpicklable_skipped = 0
        self.oversize_skipped = 0
        self.compactions = 0
        self.compactions_skipped = 0
        self.quarantined = 0
        self.poisoned_writes = 0
        self._discard_orphan_tmp()
        self.refresh(force=True)

    # -- scanning / recovery ----------------------------------------------

    def _discard_orphan_tmp(self) -> None:
        """Remove half-written compaction outputs from a killed run."""
        for orphan in self.segments_dir.glob("*.tmp"):
            try:
                orphan.unlink()
            except OSError:  # pragma: no cover - racing daemons
                pass

    def _segment_paths(self) -> list[Path]:
        return sorted(self.segments_dir.glob(f"*{SEGMENT_SUFFIX}"))

    def _parse_from(
        self, handle: io.BufferedReader, path: Path, offset: int
    ) -> int:
        """Parse records from ``offset``; index them; return the new
        frontier (the offset just past the last complete record)."""
        handle.seek(offset)
        good = offset
        while True:
            frame = handle.read(len(RECORD_MAGIC) + _HEADER.size)
            if len(frame) < len(RECORD_MAGIC) + _HEADER.size:
                break
            if not frame.startswith(
                (RECORD_MAGIC, TOMBSTONE_MAGIC)
            ):
                break  # scribbled frame: stop at the last good boundary
            key_len, value_len, digest = _HEADER.unpack(
                frame[len(RECORD_MAGIC):]
            )
            body = handle.read(key_len + value_len)
            if len(body) < key_len + value_len:
                break  # truncated mid-body
            key_bytes = body[:key_len]
            value_bytes = body[key_len:]
            if _checksum(key_bytes, value_bytes) != digest:
                break  # torn or corrupted: nothing past it is trusted
            good = handle.tell()
            if frame.startswith(TOMBSTONE_MAGIC):
                # quarantine tombstone: the key's last record is dead
                self._index.pop(key_bytes, None)
                continue
            value_offset = good - value_len
            self._index[key_bytes] = _IndexEntry(
                path, value_offset, value_len, digest
            )
        return good

    def refresh(self, force: bool = False) -> int:
        """Incrementally scan segments for records new since last scan.

        Cheap when nothing changed (one ``stat`` per segment), so the
        read path can afford to call it on every persistent-tier miss,
        at most once per :data:`REFRESH_SECONDS` unless ``force``.  Returns
        the number of records newly indexed.
        """
        with self._lock:
            now = time.monotonic()
            if not force and now - self._last_refresh < REFRESH_SECONDS:
                return 0
            self._last_refresh = now
            before = len(self._index)
            for path in self._segment_paths():
                frontier = self._scanned.get(path, 0)
                try:
                    size = path.stat().st_size
                except OSError:
                    self._scanned.pop(path, None)
                    continue
                if size <= frontier:
                    continue
                try:
                    with open(path, "rb") as handle:
                        self._scanned[path] = self._parse_from(
                            handle, path, frontier
                        )
                except OSError:  # pragma: no cover - racing compaction
                    continue
            # segments deleted by a compacting peer: drop stale entries
            live = set(self._segment_paths())
            for path in list(self._scanned):
                if path not in live:
                    del self._scanned[path]
                    self._index = {
                        key: entry for key, entry in self._index.items()
                        if entry.path != path
                    }
            return len(self._index) - before

    def recover(self) -> dict:
        """Startup recovery: scan everything, truncate torn tails.

        Only call when no other process is writing (the daemon runs it
        before forking workers, under the daemon lock).  A segment whose
        tail fails to parse is truncated back to its last complete
        record — the next writer to reuse the cache directory starts
        from a clean boundary.  Returns a summary dict.
        """
        truncated = 0
        with self._lock:
            self._index.clear()
            self._scanned.clear()
            for path in self._segment_paths():
                try:
                    size = path.stat().st_size
                    with open(path, "rb") as handle:
                        frontier = self._parse_from(handle, path, 0)
                    if frontier < size:
                        with open(path, "rb+") as handle:
                            handle.truncate(frontier)
                            handle.flush()
                            os.fsync(handle.fileno())
                        self.torn_dropped += 1
                        truncated += 1
                    if frontier == 0 and path.stat().st_size == 0:
                        path.unlink()  # nothing survived: drop the husk
                        continue
                    self._scanned[path] = frontier
                except OSError:  # pragma: no cover - defensive
                    continue
            self._last_refresh = time.monotonic()
            return {
                "entries": len(self._index),
                "segments": len(self._segment_paths()),
                "torn_segments_truncated": truncated,
            }

    # -- the read path -----------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """The committed value for ``key``, or ``default``.

        Verifies the record's checksum on every read — a record that
        fails verification is treated as a miss (and counted), never
        returned.
        """
        key_bytes = key.encode("utf-8")
        with self._lock:
            entry = self._index.get(key_bytes)
            if entry is None and self.refresh() > 0:
                entry = self._index.get(key_bytes)
            if entry is None:
                self.misses += 1
                return default
            if self._writer is not None and entry.path == self._writer_path:
                # our own record may still sit in the buffered writer;
                # flush (no fsync needed — visibility, not durability)
                self._writer.flush()
            try:
                with open(entry.path, "rb") as handle:
                    handle.seek(entry.offset)
                    value_bytes = handle.read(entry.length)
            except OSError:
                self.misses += 1
                return default
            if (
                len(value_bytes) != entry.length
                or _checksum(key_bytes, value_bytes) != entry.digest
            ):
                self.corrupt_reads += 1
                self.misses += 1
                del self._index[key_bytes]
                return default
            try:
                value = pickle.loads(value_bytes)
            except Exception:  # noqa: BLE001 - stale class layout etc.
                self.corrupt_reads += 1
                self.misses += 1
                del self._index[key_bytes]
                return default
            self.hits += 1
            return value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key.encode("utf-8") in self._index

    def keys(self) -> Iterator[str]:
        with self._lock:
            key_list = list(self._index)
        for key_bytes in key_list:
            yield key_bytes.decode("utf-8")

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    # -- the write path ----------------------------------------------------

    def _open_writer(self) -> io.BufferedWriter:
        if self._writer is not None:
            if (
                self._writer_path is not None
                and self._writer.tell() < MAX_SEGMENT_BYTES
            ):
                return self._writer
            self._close_writer()
        name = f"{time.time_ns():020d}-{os.getpid()}{SEGMENT_SUFFIX}"
        path = self.segments_dir / name
        self._writer = open(path, "ab")
        self._writer_path = path
        return self._writer

    def _close_writer(self) -> None:
        if self._writer is not None:
            try:
                self._writer.flush()
                os.fsync(self._writer.fileno())
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
            self._writer.close()
        self._writer = None
        self._writer_path = None

    def put(self, key: str, value: Any) -> bool:
        """Append ``key -> value`` to this process's segment.

        Returns ``True`` when the record was written (committed at the
        next :meth:`flush` or :meth:`close`).  Unpicklable and
        oversized values are skipped with a counter — the caller's
        in-memory tier still holds them.
        """
        key_bytes = key.encode("utf-8")
        with self._lock:
            if key_bytes in self._index:
                return True  # deterministic values: a duplicate adds nothing
            if active_plan() is not None:
                try:
                    fault_point("cache:poison-entry", key)
                except FaultInjected:
                    # chaos hook: persist a semantically corrupted value
                    # behind a valid checksum — invisible to every
                    # integrity check, catchable only by the audit replay
                    poisoned = _poison_value(value)
                    if poisoned is not value:
                        value = poisoned
                        self.poisoned_writes += 1
            try:
                value_bytes = pickle.dumps(
                    value, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:  # noqa: BLE001 - unpicklable closure etc.
                self.unpicklable_skipped += 1
                return False
            if len(value_bytes) > MAX_VALUE_BYTES:
                self.oversize_skipped += 1
                return False
            digest = _checksum(key_bytes, value_bytes)
            record = (
                RECORD_MAGIC
                + _HEADER.pack(len(key_bytes), len(value_bytes), digest)
                + key_bytes
                + value_bytes
            )
            writer = self._open_writer()
            offset = writer.tell()
            half = len(record) // 2
            writer.write(record[:half])
            if active_plan() is not None:
                # make the prefix durable so an armed ``crash`` at the
                # fault point below leaves a *real* torn tail on disk
                writer.flush()
                os.fsync(writer.fileno())
                fault_point("cache:torn-write", key)
            writer.write(record[half:])
            end = offset + len(record)
            assert self._writer_path is not None
            self._index[key_bytes] = _IndexEntry(
                self._writer_path, end - len(value_bytes), len(value_bytes),
                digest,
            )
            self._scanned[self._writer_path] = end
            self.stores += 1
            return True

    def flush(self) -> None:
        """Flush and fsync this process's segment — the commit point."""
        with self._lock:
            if self._writer is not None:
                self._writer.flush()
                os.fsync(self._writer.fileno())

    # -- quarantine --------------------------------------------------------

    @property
    def quarantine_path(self) -> Path:
        """The quarantine journal (one JSON line per quarantine action)."""
        return self.directory / "quarantine.jsonl"

    def _tombstone(self, key_bytes: bytes) -> bool:
        """Append a tombstone for ``key_bytes`` and drop it from the
        index.  Caller holds the lock and has rolled the writer onto a
        fresh segment (ordering!); returns whether the key was live."""
        present = key_bytes in self._index
        record = (
            TOMBSTONE_MAGIC
            + _HEADER.pack(len(key_bytes), 0, _checksum(key_bytes, b""))
            + key_bytes
        )
        writer = self._open_writer()
        offset = writer.tell()
        writer.write(record)
        assert self._writer_path is not None
        self._scanned[self._writer_path] = offset + len(record)
        self._index.pop(key_bytes, None)
        return present

    def quarantine(self, keys: Any, reason: str = "") -> int:
        """Tombstone every key in ``keys`` and journal the action.

        Each key is dropped from the index *and* superseded on disk,
        durably, so no future scan — an incremental refresh, a startup
        recovery, or a brand-new instance over the same directory — can
        re-serve the old record.  The tombstones go into a fresh segment
        (created now, hence sorting after every segment holding a dead
        record) and are fsynced at once, in one batch: quarantine is a
        correctness action, not an optimisation.  Then one line is
        appended to :attr:`quarantine_path`::

            {"schema": "repro-quarantine/v1", "at": ..., "pid": ...,
             "reason": ..., "keys": [...], "evicted": N}

        Returns the number of keys that were actually live."""
        key_list = [str(key) for key in keys]
        with self._lock:
            self._close_writer()
            evicted = 0
            for key in key_list:
                if self._tombstone(key.encode("utf-8")):
                    evicted += 1
            self.flush()
            self.quarantined += evicted
            entry = {
                "schema": "repro-quarantine/v1",
                "at": time.time(),
                "pid": os.getpid(),
                "reason": reason,
                "keys": key_list,
                "evicted": evicted,
            }
            with open(self.quarantine_path, "a", encoding="utf-8") as out:
                out.write(json.dumps(entry, sort_keys=True) + "\n")
                out.flush()
                os.fsync(out.fileno())
            return evicted

    def close(self) -> None:
        """Flush, fsync and close the writer (the instance stays readable)."""
        with self._lock:
            self._close_writer()

    def __enter__(self) -> "DiskCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- compaction --------------------------------------------------------

    @property
    def _lock_path(self) -> Path:
        return self.directory / "cache.lock"

    def compact(self, *, timeout: float = 1.0) -> bool:
        """Rewrite live records into one fresh segment, drop the rest.

        Takes the exclusive ``fcntl`` lock (bounded by ``timeout``; a
        busy lock skips compaction and returns ``False`` — compaction is
        an optimisation, never a liveness requirement).  Must not race
        live *writers* on the same directory: the daemon compacts during
        startup, before any worker exists.  Readers are safe throughout:
        old segments stay complete until the new one is durable, and a
        crash anywhere leaves a recoverable directory.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            self.compactions_skipped += 1
            return False
        with self._lock:
            self.refresh(force=True)
            lock_handle = open(self._lock_path, "a+b")
            try:
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fault_point("cache:stale-lock", "compact")
                        fcntl.flock(
                            lock_handle, fcntl.LOCK_EX | fcntl.LOCK_NB
                        )
                        break
                    except (OSError, FaultInjected):
                        if time.monotonic() >= deadline:
                            self.compactions_skipped += 1
                            return False
                        time.sleep(0.05)
                return self._compact_locked()
            finally:
                try:
                    fcntl.flock(lock_handle, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - defensive
                    pass
                lock_handle.close()

    def _compact_locked(self) -> bool:
        old_segments = self._segment_paths()
        if not old_segments:
            return True
        self._close_writer()
        tmp_path = self.segments_dir / f"compact-{os.getpid()}.tmp"
        new_index: dict[bytes, _IndexEntry] = {}
        with open(tmp_path, "wb") as out:
            for key_bytes, entry in sorted(self._index.items()):
                try:
                    with open(entry.path, "rb") as handle:
                        handle.seek(entry.offset)
                        value_bytes = handle.read(entry.length)
                except OSError:
                    continue
                if _checksum(key_bytes, value_bytes) != entry.digest:
                    self.corrupt_reads += 1
                    continue
                record = (
                    RECORD_MAGIC
                    + _HEADER.pack(
                        len(key_bytes), len(value_bytes), entry.digest
                    )
                    + key_bytes
                    + value_bytes
                )
                offset = out.tell()
                out.write(record)
                new_index[key_bytes] = _IndexEntry(
                    tmp_path, offset + len(record) - len(value_bytes),
                    len(value_bytes), entry.digest,
                )
            out.flush()
            os.fsync(out.fileno())
        final_path = self.segments_dir / (
            f"{time.time_ns():020d}-{os.getpid()}-compacted{SEGMENT_SUFFIX}"
        )
        os.replace(tmp_path, final_path)  # atomic: all-or-nothing
        dir_fd = os.open(self.segments_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        for path in old_segments:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing readers on NFS
                pass
            self._scanned.pop(path, None)
        size = final_path.stat().st_size
        for entry in new_index.values():
            entry.path = final_path
        self._index = new_index
        self._scanned[final_path] = size
        self.compactions += 1
        return True

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """A snapshot of the persistent tier's counters."""
        with self._lock:
            segments = self._segment_paths()
            total = 0
            for path in segments:
                try:
                    total += path.stat().st_size
                except OSError:  # pragma: no cover - racing compaction
                    pass
            return {
                "directory": str(self.directory),
                "entries": len(self._index),
                "segments": len(segments),
                "bytes": total,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt_reads": self.corrupt_reads,
                "torn_dropped": self.torn_dropped,
                "unpicklable_skipped": self.unpicklable_skipped,
                "oversize_skipped": self.oversize_skipped,
                "compactions": self.compactions,
                "compactions_skipped": self.compactions_skipped,
                "quarantined": self.quarantined,
                "poisoned_writes": self.poisoned_writes,
            }


def _poison_value(value: Any) -> Any:
    """A semantically corrupted variant of ``value`` (chaos only).

    Bottom-up tree automata get their accepting set complemented —
    flipping the verdict of anything downstream of the entry while
    leaving the object perfectly well-formed.  Values of other shapes
    are returned unchanged (the fault is then a no-op for them).
    """
    states = getattr(value, "states", None)
    accepting = getattr(value, "accepting", None)
    if isinstance(states, frozenset) and isinstance(accepting, frozenset):
        try:
            return type(value)(
                alphabet=value.alphabet,
                states=states,
                leaf_rules=value.leaf_rules,
                rules=value.rules,
                accepting=states - accepting,
            )
        except Exception:  # noqa: BLE001 - defensive: leave unpoisoned
            return value
    return value
