"""The persistent disk cache: durability, corruption, and key stability.

What ISSUE 6 actually depends on, tested directly:

* records survive close/reopen, and **only** checksummed records are
  ever returned — a flipped byte is a miss, not garbage;
* a torn tail (``kill -9`` mid-append, simulated by truncation and by
  the real ``cache:torn-write`` crash fault in a subprocess) never
  hides the committed records before it, and :meth:`DiskCache.recover`
  truncates it away;
* memo keys are **process-stable**: the same automaton produces the
  same :func:`memo_key` string under different ``PYTHONHASHSEED``\\ s —
  without this the disk cache would silently never hit across restarts;
* compaction squeezes multiple segments into one without losing a
  record, skips gracefully when the lock is contended (the
  ``cache:stale-lock`` fault), and a crashed compaction's ``.tmp``
  orphan is discarded on the next open;
* :func:`memoized` integrates the tier: computed once with the disk
  installed, a value survives :func:`clear_cache` (a "fresh process")
  and comes back as a persistent hit that charges the governor.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.runtime import diskcache
from repro.runtime.cache import (
    GLOBAL_CACHE,
    cache_stats,
    clear_cache,
    install_persistent,
    memo_key,
    memoized,
    persistent_tier,
    stable_repr,
)
from repro.runtime.diskcache import RECORD_MAGIC, DiskCache
from repro.runtime.faults import FaultPlan, FaultSpec, injected_faults

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(autouse=True)
def _no_leftover_tier():
    yield
    install_persistent(None)
    clear_cache()


def _env():
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])
        ),
    }


# -- basic durability --------------------------------------------------------


def test_roundtrip_and_reopen(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    assert cache.put("k1", {"a": [1, 2, 3]})
    assert cache.put("k2", "hello")
    assert cache.get("k1") == {"a": [1, 2, 3]}
    cache.close()

    reopened = DiskCache(tmp_path / "cache")
    assert reopened.get("k1") == {"a": [1, 2, 3]}
    assert reopened.get("k2") == "hello"
    assert reopened.get("missing", "dflt") == "dflt"
    assert len(reopened) == 2
    assert sorted(reopened.keys()) == ["k1", "k2"]
    assert "k1" in reopened


def test_read_own_buffered_write(tmp_path):
    # a put is buffered in the writer until flush(); a same-process get()
    # must still see the record (visibility without durability)
    cache = DiskCache(tmp_path / "cache")
    cache.put("k", "v")
    assert cache.get("k") == "v"


def test_duplicate_put_is_skipped(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    assert cache.put("k", "v")
    stores_before = cache.stores
    assert cache.put("k", "other")  # deterministic values: dup adds nothing
    assert cache.stores == stores_before
    assert cache.get("k") == "v"


def test_unpicklable_and_oversize_values_are_skipped(tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(diskcache, "MAX_VALUE_BYTES", 64)
    cache = DiskCache(tmp_path / "cache")
    assert not cache.put("fn", lambda x: x)  # noqa: E731
    assert cache.unpicklable_skipped == 1
    assert not cache.put("big", "x" * 1024)
    assert cache.oversize_skipped == 1
    assert len(cache) == 0


# -- corruption and torn tails -----------------------------------------------


def _segment_file(directory):
    (path,) = list((directory / "segments").glob("*.seg"))
    return path


def test_corrupted_record_is_a_miss_not_garbage(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    cache.put("key", "payload-payload-payload")
    cache.flush()
    path = _segment_file(tmp_path / "cache")
    data = bytearray(path.read_bytes())
    data[-3] ^= 0xFF  # flip a byte inside the pickled value
    path.write_bytes(data)

    assert cache.get("key", "dflt") == "dflt"
    assert cache.corrupt_reads == 1
    assert cache.get("key", "dflt") == "dflt"  # and stays deindexed


def test_torn_tail_hides_only_the_torn_record(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    cache.put("first", "one")
    cache.put("second", "two")
    cache.close()
    path = _segment_file(tmp_path / "cache")
    size = path.stat().st_size
    with open(path, "rb+") as handle:
        handle.truncate(size - 7)  # tear the tail of the second record

    reopened = DiskCache(tmp_path / "cache")
    assert reopened.get("first") == "one"
    assert reopened.get("second", "gone") == "gone"

    summary = reopened.recover()
    assert summary["entries"] == 1
    assert summary["torn_segments_truncated"] == 1
    assert path.stat().st_size < size - 7  # tail truncated for good
    assert reopened.get("first") == "one"


def test_scribbled_frame_stops_the_scan_at_a_good_boundary(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    cache.put("good", "value")
    cache.close()
    path = _segment_file(tmp_path / "cache")
    with open(path, "ab") as handle:
        handle.write(b"\x00garbage-that-is-not-a-frame" * 4)

    reopened = DiskCache(tmp_path / "cache")
    assert reopened.get("good") == "value"
    summary = reopened.recover()
    assert summary["entries"] == 1
    assert summary["torn_segments_truncated"] == 1


def test_torn_write_fault_leaves_recoverable_directory(tmp_path):
    """The real thing: SIGKILL between the two halves of an append."""
    directory = tmp_path / "cache"
    script = textwrap.dedent(
        """
        import json, sys
        from repro.runtime.diskcache import DiskCache
        from repro.runtime.faults import FaultPlan, FaultSpec, install_plan

        cache = DiskCache(sys.argv[1])
        cache.put("committed", "survives the kill")
        cache.flush()
        install_plan(FaultPlan(points={
            "cache:torn-write": FaultSpec(action="crash"),
        }))
        cache.put("torn", "never lands")  # SIGKILL fires mid-record
        print("unreachable")
        """
    )
    process = subprocess.run(
        [sys.executable, "-c", script, str(directory)],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == -9, process.stderr
    assert "unreachable" not in process.stdout

    # the segment really is torn: longer than the committed record alone
    path = _segment_file(directory)
    torn_size = path.stat().st_size

    recovered = DiskCache(directory)
    summary = recovered.recover()
    assert summary["entries"] == 1
    assert summary["torn_segments_truncated"] == 1
    assert recovered.get("committed") == "survives the kill"
    assert recovered.get("torn", "gone") == "gone"
    assert path.stat().st_size < torn_size


# -- compaction --------------------------------------------------------------


def test_compaction_merges_segments_without_losing_records(tmp_path):
    directory = tmp_path / "cache"
    first = DiskCache(directory)
    first.put("a", 1)
    first.close()
    second = DiskCache(directory)
    second.put("b", 2)
    second.put("a", 1)  # already indexed: skipped, no duplicate record
    second.close()
    assert len(list((directory / "segments").glob("*.seg"))) == 2

    compactor = DiskCache(directory)
    assert compactor.compact()
    assert compactor.compactions == 1
    assert len(list((directory / "segments").glob("*.seg"))) == 1
    assert compactor.get("a") == 1
    assert compactor.get("b") == 2

    # and the compacted segment is what a fresh open sees
    fresh = DiskCache(directory)
    assert fresh.get("a") == 1
    assert fresh.get("b") == 2


def test_stale_lock_fault_skips_compaction_gracefully(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    cache.put("a", 1)
    plan = FaultPlan(points={
        "cache:stale-lock": FaultSpec(action="exception"),
    })
    with injected_faults(plan):
        assert not cache.compact(timeout=0.2)
    assert cache.compactions_skipped == 1
    assert cache.get("a") == 1  # merely un-compacted, never unavailable
    assert cache.compact()  # lock released: the next attempt succeeds


def test_orphan_compaction_tmp_is_discarded_on_open(tmp_path):
    directory = tmp_path / "cache"
    cache = DiskCache(directory)
    cache.put("a", 1)
    cache.close()
    orphan = directory / "segments" / "compact-12345.tmp"
    orphan.write_bytes(b"half-written compaction output")

    reopened = DiskCache(directory)
    assert not orphan.exists()
    assert reopened.get("a") == 1


# -- key stability across processes ------------------------------------------


_KEY_SCRIPT = textwrap.dedent(
    """
    from repro.runtime.cache import memo_key, stable_repr
    from repro.automata.bottom_up import BottomUpTA
    from repro.trees.alphabet import RankedAlphabet

    alpha = RankedAlphabet(leaves={"l1", "l2"}, internals={"f", "g"})
    ta = BottomUpTA(
        alphabet=alpha,
        states={frozenset({"alpha", "beta"}), frozenset({"gamma"})},
        leaf_rules={"l1": {frozenset({"alpha", "beta"})},
                    "l2": {frozenset({"gamma"})}},
        rules={("f", frozenset({"alpha", "beta"}), frozenset({"gamma"})):
               {frozenset({"gamma"})}},
        accepting={frozenset({"gamma"})},
    )
    print(memo_key("ta.determinize", (ta,),
                   (True, frozenset({"x", "y", "z"}))))
    print(stable_repr({"b": {1, 2}, "a": frozenset({"p", "q"})}))

    # a key on a product the memo table built: it carries a derivation
    from repro.lang import Apply, Out, Stylesheet, Template
    from repro.lang import xslt_to_transducer
    from repro.pebble import transducer_times_automaton
    from repro.runtime.cache import configure_cache
    from repro.typecheck.engine import complement_output_type
    from repro.xmlio import parse_dtd

    configure_cache(enabled=True)
    sheet = Stylesheet([
        Template("doc", [Out("D", [Apply()])]),
        Template("sec", [Out("S", [Apply()])]),
        Template("par", [Out("P")]),
    ])
    machine = xslt_to_transducer(sheet, tags={"doc", "sec", "par"},
                                 root_tag="doc")
    _, not_tau2 = complement_output_type(
        machine, parse_dtd("D := S*\\nS := P*\\nP :=")
    )
    product = transducer_times_automaton(machine, not_tau2)
    print(memo_key("pebble.to_regular", (product,)))

    # a key on the compiled machine: it carries a source key
    print(memo_key("pebble.product", (machine, not_tau2)))
    """
)


def test_memo_keys_are_stable_across_hash_seeds():
    outputs = []
    for seed in ("1", "99"):
        process = subprocess.run(
            [sys.executable, "-c", _KEY_SCRIPT],
            env={**_env(), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert process.returncode == 0, process.stderr
        outputs.append(process.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert "frozenset" not in lines[1]
    assert lines[2].startswith("pebble.to_regular|drv:")
    # the source key stands in for the machine; the type automaton keeps
    # its pinned structural digest
    assert lines[3].startswith("pebble.product|src:")
    assert lines[3].split("|")[2] == "tda:aa18570aa2cc80dcf27b8eaed56b31ba"


def test_stable_repr_orders_sets_and_dicts():
    assert stable_repr(frozenset({"b", "a"})) == stable_repr({"a", "b"})
    assert stable_repr({"b": 1, "a": 2}) == "{'a':2,'b':1}"
    assert stable_repr((1,)) == "(1,)"
    assert stable_repr([1, "x"]) == "[1,'x']"


# -- memoized() integration --------------------------------------------------


def test_memoized_writes_through_and_hits_after_cache_clear(tmp_path):
    disk = DiskCache(tmp_path / "cache")
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    with persistent_tier(disk):
        value = memoized("op.test", (), compute, extra=("k1",))
        assert value == {"answer": 42}
        assert disk.stores == 1

        clear_cache()  # simulate a fresh worker process
        again = memoized("op.test", (), compute, extra=("k1",))
        assert again == {"answer": 42}
        assert calls == [1]  # never recomputed
        assert disk.hits == 1

        stats = cache_stats()
        assert stats["persistent"]["hits"] == 1
        # the disk hit was promoted into the memory tier
        key = memo_key("op.test", (), ("k1",))
        assert GLOBAL_CACHE.lookup(key) == {"answer": 42}


def test_stats_snapshot_shape(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    cache.put("k", "v")
    cache.get("k")
    cache.get("missing")
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["segments"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["stores"] == 1
    assert stats["bytes"] > 0
    assert json.dumps(stats)  # JSON-able for the service's stats op


# -- quarantine tombstones (PR 9) --------------------------------------------


def _tombstone_cache(tmp_path) -> DiskCache:
    cache = DiskCache(tmp_path / "cache")
    cache.put("keep", "good")
    cache.put("bad", "poisoned")
    return cache


def test_quarantine_is_a_durable_tombstone(tmp_path):
    cache = _tombstone_cache(tmp_path)
    assert cache.quarantine(["bad"]) == 1
    assert cache.quarantine(["bad"]) == 0  # already dead
    assert cache.get("bad", "MISS") == "MISS"
    assert cache.get("keep") == "good"
    assert cache.stats()["quarantined"] == 1
    cache.close()

    # a brand-new instance over the same directory must respect the
    # tombstone: the dead record is still in an older segment, but the
    # tombstone's fresh segment sorts after it (last wins)
    fresh = DiskCache(tmp_path / "cache")
    assert fresh.get("bad", "MISS") == "MISS"
    assert fresh.get("keep") == "good"
    assert len(fresh) == 1


def test_reput_after_quarantine_supersedes_the_tombstone(tmp_path):
    cache = _tombstone_cache(tmp_path)
    cache.quarantine(["bad"])
    assert cache.put("bad", "recomputed")  # index was popped: a real put
    assert cache.get("bad") == "recomputed"
    cache.close()

    fresh = DiskCache(tmp_path / "cache")
    assert fresh.get("bad") == "recomputed"


def test_quarantine_batch_tombstones_and_journals(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    for i in range(4):
        cache.put(f"k{i}", i)
    evicted = cache.quarantine(["k1", "k3", "ghost"],
                               reason="audit refuted a verdict")
    assert evicted == 2
    assert cache.stats()["quarantined"] == 2
    assert cache.get("k0") == 0 and cache.get("k2") == 2
    assert cache.get("k1", "MISS") == "MISS"

    entry = json.loads(cache.quarantine_path.read_text().splitlines()[0])
    assert entry["schema"] == "repro-quarantine/v1"
    assert entry["keys"] == ["k1", "k3", "ghost"]
    assert entry["evicted"] == 2
    assert entry["reason"] == "audit refuted a verdict"
    assert entry["pid"] == os.getpid()


def test_compaction_drops_tombstones_and_dead_records(tmp_path):
    cache = _tombstone_cache(tmp_path)
    cache.quarantine(["bad"])
    cache.close()

    compactor = DiskCache(tmp_path / "cache")
    assert compactor.compact()
    assert compactor.get("keep") == "good"
    assert compactor.get("bad", "MISS") == "MISS"
    assert compactor.stats()["segments"] == 1
    compactor.close()

    fresh = DiskCache(tmp_path / "cache")
    assert fresh.get("keep") == "good"
    assert fresh.get("bad", "MISS") == "MISS"


def test_poison_fault_corrupts_behind_a_valid_checksum(tmp_path):
    # the corruption class only the audit replay can catch: the value is
    # semantically wrong, but every framing/checksum check passes
    from repro.automata import BottomUpTA
    from repro.trees import RankedAlphabet

    alphabet = RankedAlphabet(leaves={"a", "b"}, internals={"f"})
    automaton = BottomUpTA(
        alphabet=alphabet,
        states={"ok"},
        leaf_rules={"a": {"ok"}},
        rules={("f", "ok", "ok"): {"ok"}},
        accepting={"ok"},
    )
    cache = DiskCache(tmp_path / "cache")
    plan = FaultPlan(points={
        "cache:poison-entry": FaultSpec(action="exception"),
    })
    with injected_faults(plan):
        assert cache.put("automaton", automaton)
        cache.put("scalar", 42)  # non-automata shapes pass unharmed
    assert cache.stats()["poisoned_writes"] == 1
    assert cache.get("scalar") == 42
    poisoned = cache.get("automaton")
    assert poisoned.accepting == frozenset()  # complemented
    assert cache.stats()["corrupt_reads"] == 0  # checksum is *valid*
    cache.close()

    fresh = DiskCache(tmp_path / "cache")
    assert fresh.get("automaton").accepting == frozenset()
    assert fresh.stats()["corrupt_reads"] == 0
