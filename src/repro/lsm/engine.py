"""A leveled LSM-tree storage engine (Section 4.2), durable or simulated.

The architecture mirrors Figure 4.2 with the LevelDB lifecycle: writes
land in a *mutable* memtable; at capacity the memtable **freezes** into
an immutable list; a flusher turns immutable memtables into level-0
SSTables; compaction merges runs downward so that every level >= 1
holds disjoint key ranges.  The memtable is a gapped, batch-updatable
B+tree (:mod:`repro.trees.gapped_btree`) by default — a WAL group
commit applies as one vectorized batch insert, its copy-on-write node
states keep lock-free point reads safe, and flushes emit its leaves
already in key order (``memtable_factory`` swaps in the plain-dict
baseline, :class:`DictMemtable`).  A block cache (CLOCK) approximates
RocksDB's block cache + OS page cache; fence indexes and filters live
in the always-resident table cache.

Query execution follows the Figure 4.3 flowcharts, and performance is
reported as simulated I/Os: every block fetch that misses the cache
costs one I/O.

Two execution modes share the state machine:

* **inline** (``background=False``, the default): freeze, flush and
  compaction all run synchronously on the writer's thread — fully
  deterministic, which the kill-at-every-sync-point matrix and the
  differential fuzzer rely on;
* **background** (``background=True``): a flusher thread and a
  compaction thread do the heavy lifting while writers only pay for
  the WAL append and a memtable insert.  Backpressure replaces inline
  blocking: crossing ``l0_slowdown`` L0 tables injects a small sleep
  per write, and crossing ``l0_stall`` (or piling up
  ``max_immutables`` frozen memtables) stalls the writer until the
  background threads catch up — both are counted and exported via
  :meth:`LSMTree.info`.

Two storage modes also share all of it:

* **in-memory** (``path=None``): SSTables live on the heap, I/O is
  simulated — the original reproduction substrate;
* **durable** (``path=...``): writes are sequenced through a
  write-ahead log with batched fsync (group commit), flushes and
  compactions write CRC-framed table files and commit them through a
  versioned manifest (write-temp → sync → rename), and
  :meth:`LSMTree.open` recovers exactly the last acknowledged state —
  a write is acknowledged once its WAL record is fsynced
  (``seq <= last_acked_seq``).

**Snapshots.**  Every write is stamped with a sequence number;
:meth:`LSMTree.snapshot` pins the current one and returns a
:class:`Snapshot` whose reads see exactly the pinned state while
flushes and compactions proceed underneath.  Consistency comes from
two mechanisms: the memtable stack (mutable + immutables) is merged
into one frozen dict at pin time, and the table layout is captured as
a refcounted :class:`_Version` — compaction installs a *new* version
instead of mutating the old one, and a replaced table's blocks are
evicted and its file unlinked only when the last version referencing
it is released (which is what keeps the §7 mmap views in DESIGN.md
valid for iterators that outlive a compaction).

Crash-safety invariants the recovery tests machine-check:

1. a table file is always fully written and fsynced before any
   manifest references it;
2. the manifest version switch (CURRENT rename) is the only commit
   point — a crash on either side leaves a consistent old/new state;
3. a WAL segment is deleted only after the manifest that supersedes it
   is installed, and a memtable's segment is fsynced *before* the next
   segment is created, so the live segments always replay to a gap-free
   sequence prefix;
4. recovery garbage-collects every file the current manifest does not
   reference, so half-installed flushes and orphaned compaction
   outputs cannot resurrect.
"""

from __future__ import annotations

import heapq
import threading
import time
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, Sequence

from ..compact.node_cache import ClockNodeCache
from ..trees.gapped_btree import GappedBPlusTree
from . import manifest as manifest_mod
from . import wal as wal_mod
from .disk_format import ENCODED_TOMBSTONE, encode_values
from .fs import FileSystem, OsFileSystem, join
from .manifest import ManifestState
from .sstable import (
    DEFAULT_BLOCK_ENTRIES,
    DiskSSTable,
    SSTable,
    SSTableBase,
    TOMBSTONE,
    table_file_name,
    write_sstable,
)


class IoStats:
    """Simulated I/O and filter-probe counters."""

    __slots__ = ("block_reads", "cache_hits", "filter_probes", "filter_negatives")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.block_reads = 0
        self.cache_hits = 0
        #: Point-read probes against a per-table filter, and how many
        #: proved the table could not hold the key (I/O avoided) — the
        #: serving layer reports these as the filter hit rate.
        self.filter_probes = 0
        self.filter_negatives = 0


class DictMemtable:
    """The pre-gapped reference memtable: a plain dict, sorted at
    flush time.

    Kept as a ``memtable_factory`` option so benchmarks can compare
    the gapped write path against the baseline it replaced, and as the
    minimal example of the memtable protocol: ``put`` / ``put_many``,
    mapping reads (``in`` / ``[]`` must be safe without the engine
    lock), *sorted* ``items()``, ``len``, and ``freeze_view`` returning
    an immutable snapshot for pinned scans.
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict[bytes, Any] = {}

    def put(self, key: bytes, value: Any) -> None:
        self._data[key] = value

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        for key, value in pairs:
            self._data[key] = value

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def __getitem__(self, key: bytes) -> Any:
        return self._data[key]

    def get(self, key: bytes, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[bytes]:
        return iter(sorted(self._data))

    def items(self) -> Iterator[tuple[bytes, Any]]:
        return iter(sorted(self._data.items()))

    def freeze_view(self) -> dict[bytes, Any]:
        return dict(self._data)


_MISSING = object()


class GappedMemtable:
    """The engine's memtable: a gapped B+tree paired with a dict
    mirror.

    Two structures hold the same live entries and split the work by
    access pattern:

    * the **mirror dict** serves every point read (one GIL-atomic hash
      probe — exactly what the pre-gapped baseline paid) and is the
      authoritative entry count;
    * the **gapped tree** serves everything ordered — flushes read its
      leaves already in key order (no sort step, unlike the dict
      baseline's sort-at-flush), and pinned scans get its
      copy-on-write ``freeze_view``.

    Writes update the mirror at dict speed and accumulate in a small
    *fresh* delta dict that drains into the tree as one vectorized
    ``put_many`` when it fills; batches at least as large as the drain
    limit skip the delta and go straight to the tree.  Either way the
    tree cost is an amortized share of one batch insert per key, not a
    full tree insert per key.  ``dict.update`` applies pairs in order,
    so last-write-wins within a batch holds in both structures.

    Concurrency: writers mutate only under the engine lock; lock-free
    readers touch only the mirror, whose dict ops are GIL-atomic.
    Order-sensitive consumers (``items``, ``keys``, ``freeze_view``)
    drain the delta first; the engine calls them under its lock or
    from the sole flusher thread that owns a sealed memtable, so the
    drain never races a writer.  Memory cost of the pairing is one
    dict slot per entry on top of the tree's leaf slot — bounded by
    the memtable size, and the mirror is dropped with the memtable at
    flush.
    """

    __slots__ = ("_tree", "_mirror", "_fresh", "_limit")

    def __init__(self, drain_limit: int = 256) -> None:
        self._tree = GappedBPlusTree()
        self._mirror: dict[bytes, Any] = {}
        self._fresh: dict[bytes, Any] = {}
        self._limit = drain_limit

    def _drain(self) -> None:
        if self._fresh:
            self._tree.put_many(list(self._fresh.items()))
            self._fresh.clear()

    def put(self, key: bytes, value: Any) -> None:
        self._mirror[key] = value
        self._fresh[key] = value
        if len(self._fresh) >= self._limit:
            self._drain()

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        self._mirror.update(pairs)
        if len(pairs) < self._limit:
            self._fresh.update(pairs)
            if len(self._fresh) >= self._limit:
                self._drain()
        elif self._fresh:
            # Fresh writes are older than the batch: prepend so
            # last-write-wins resolves in arrival order.
            self._tree.put_many(list(self._fresh.items()) + list(pairs))
            self._fresh.clear()
        else:
            self._tree.put_many(pairs)

    def __contains__(self, key: bytes) -> bool:
        return key in self._mirror

    def __getitem__(self, key: bytes) -> Any:
        return self._mirror[key]

    def get(self, key: bytes, default: Any = None) -> Any:
        return self._mirror.get(key, default)

    def __len__(self) -> int:
        return len(self._mirror)

    def keys(self) -> Iterator[bytes]:
        self._drain()
        return self._tree.keys()

    def items(self) -> Iterator[tuple[bytes, Any]]:
        self._drain()
        return self._tree.items()

    def freeze_view(self):
        self._drain()
        return self._tree.freeze_view()


def default_memtable() -> GappedMemtable:
    """The engine's memtable: a gapped B+tree paired with a dict
    mirror, so point reads cost one hash probe, WAL group commits
    apply as amortized vectorized ``put_many`` drains, and flushes
    emit the tree's leaves already sorted (no sort step)."""
    return GappedMemtable()


class _Version:
    """One immutable table layout, shared by reference counting.

    ``levels[0]`` is newest-first and may overlap; ``levels[i >= 1]``
    are sorted by ``min_key`` with disjoint ranges.  The engine holds
    one baseline reference on the current version; every pinned read,
    snapshot, and in-flight scan holds another.  When the count drops
    to zero the version releases its per-table references, and a table
    whose own count reaches zero is actually dropped (cache eviction +
    unlink + close) — never sooner, so a reader that pinned before a
    compaction keeps valid mmap views of the replaced tables.
    """

    __slots__ = ("levels", "refs")

    def __init__(self, levels: list[list[SSTableBase]]) -> None:
        self.levels = levels
        self.refs = 1

    def tables(self) -> Iterator[SSTableBase]:
        for level in self.levels:
            yield from level


class _Frozen:
    """An immutable memtable waiting for the flusher.

    Owns the WAL segment its records were logged to (already fully
    fsynced at freeze time), so recovery can replay it until the flush
    commits and the segment is deleted.
    """

    __slots__ = ("data", "last_seq", "wal", "wal_name", "wal_index")

    def __init__(self, data, last_seq, wal, wal_name, wal_index) -> None:
        #: The sealed memtable object (no writer touches it again), so
        #: its mapping reads and sorted ``items()`` are safe lock-free.
        self.data = data
        self.last_seq = last_seq
        self.wal: wal_mod.WalWriter | None = wal
        self.wal_name = wal_name
        self.wal_index = wal_index


class _View:
    """A pinned, consistent read context: memtable layers (newest
    first) plus one referenced :class:`_Version` of the table layout."""

    __slots__ = ("mems", "version", "seq", "_merged")

    def __init__(self, mems: list, version: _Version, seq: int) -> None:
        self.mems = mems
        self.version = version
        self.seq = seq
        self._merged: dict[bytes, Any] | None = None

    @property
    def levels(self) -> list[list[SSTableBase]]:
        return self.version.levels

    def merged(self) -> dict[bytes, Any]:
        """Newest-wins merge of the memtable layers (tombstones kept).

        Only safe on views whose layer dicts are frozen (snapshot
        views, or ephemeral views pinned with ``copy_mem=True``).
        """
        if self._merged is None:
            m: dict[bytes, Any] = {}
            for layer in reversed(self.mems):
                m.update(layer.items())
            self._merged = m
        return self._merged


class Snapshot:
    """A consistent point-in-time read view (``seq`` is the pin).

    Reads see exactly the writes with sequence number <= ``seq`` —
    no more, no less — while flushes and compactions proceed
    underneath.  Holds one reference on the pinned version, so no
    table it can read is unlinked until :meth:`release` (context
    manager exit releases too).
    """

    def __init__(self, engine: "LSMTree", seq: int, mem: dict, version: _Version):
        self._engine = engine
        self.seq = seq
        self._view = _View([mem], version, seq)
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the pin (idempotent).  Tables only this snapshot kept
        alive become droppable the moment this returns."""
        if self._released:
            return
        self._released = True
        self._engine._release_snapshot(self._view)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def _check(self) -> _View:
        if self._released:
            raise ValueError("snapshot already released")
        return self._view

    def get(self, key: bytes) -> Any | None:
        return self._engine._get_in(self._check(), key)

    def get_many(self, keys: Sequence[bytes]) -> list[Any]:
        return self._engine._get_many_in(self._check(), keys)

    def seek(self, low: bytes, high: bytes | None = None):
        return self._engine._seek_in(self._check(), low, high)

    def scan(self, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        return self._engine._scan_in(self._check(), low, count)

    def count(self, low: bytes, high: bytes) -> int:
        return self._engine._count_in(self._check(), low, high)

    # -- snapshot shipping (cluster resync / migration) --------------------

    def table_layout(self) -> list[list[tuple[int, str]]]:
        """The pinned version's level layout as ``(table_id, path)``
        pairs (level 0 newest-first).  Because this snapshot holds a
        reference on the version, every named file stays on disk —
        un-unlinked even across compactions — until :meth:`release`,
        which is exactly the window a resync sender needs to read the
        bytes it announced."""
        view = self._check()
        return [
            [(table.table_id, table.path) for table in level]
            for level in view.levels
        ]

    def mem_items(self) -> list[tuple[bytes, Any]]:
        """The merged memtable content at the pin, sorted by key, with
        tombstones preserved — ready to be written out as one synthetic
        newest-first L0 SSTable so a shipped snapshot is nothing but
        SSTables plus a manifest."""
        return sorted(self._check().merged().items())


class LSMTree:
    """Log-structured merge tree with pluggable per-table filters."""

    def __init__(
        self,
        memtable_entries: int = 512,
        sstable_entries: int = 4096,
        block_entries: int = DEFAULT_BLOCK_ENTRIES,
        level0_limit: int = 4,
        level_fanout: int = 10,
        block_cache_blocks: int = 128,
        filter_factory: Callable | None = None,
        path: str | None = None,
        fs: FileSystem | None = None,
        wal_sync_every: int = 32,
        background: bool = False,
        max_immutables: int = 2,
        l0_slowdown: int | None = None,
        l0_stall: int | None = None,
        slowdown_sleep: float = 0.001,
        memtable_factory: Callable[[], Any] | None = None,
        wal_observer: Callable[[list[tuple[int, bytes]]], None] | None = None,
    ) -> None:
        #: Memtable protocol (see :class:`DictMemtable`): the default
        #: gapped B+tree makes ``write_batch`` a single vectorized
        #: apply and flushes sort-free; reads on the live memtable are
        #: lock-free because its node states are copy-on-write.
        self._memtable_factory = memtable_factory or default_memtable
        self._memtable = self._memtable_factory()
        self._memtable_entries = memtable_entries
        self._sstable_entries = sstable_entries
        self._block_entries = block_entries
        self._level0_limit = level0_limit
        self._level_fanout = level_fanout
        self._filter_factory = filter_factory
        self._version = _Version([[]])
        self._immutables: list[_Frozen] = []
        self._block_cache = ClockNodeCache(block_cache_blocks)
        self.io = IoStats()
        #: Engine-scoped table-id allocator (persisted via the manifest
        #: in durable mode, so recovered engines never reuse an id).
        self._next_table_id = 0
        #: Monotonic write sequence; every put/delete gets the next one.
        self._seq = 0
        #: Last sequence actually applied to the memtable — the pin
        #: point snapshots capture (== _seq between writes).
        self._visible_seq = 0
        #: Every seq <= this is covered by installed SSTables.
        self._flushed_seq = 0
        #: Every seq <= this is known durable via a *committed* manifest
        #: install or a full freeze-time segment sync — the conservative
        #: floor of the ack watermark.
        self._acked_floor = 0

        #: One lock guards memtable swaps, version installs, manifest
        #: writes, refcounts, and the backpressure counters; the
        #: condition signals flusher/compactor work and stall clears.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)

        self._background = background
        self._max_immutables = max(1, max_immutables)
        self._l0_slowdown = (
            l0_slowdown if l0_slowdown is not None else level0_limit * 2
        )
        self._l0_stall = l0_stall if l0_stall is not None else level0_limit * 4
        self._slowdown_sleep = slowdown_sleep
        #: Backpressure + lifecycle counters (exported via info()).
        self.stall_count = 0
        self.slowdown_count = 0
        self.stall_seconds = 0.0
        self.flush_count = 0
        self.compaction_count = 0
        self._snapshots_live = 0
        self._bg_error: BaseException | None = None

        self.path = path
        self._fs = fs if fs is not None else (OsFileSystem() if path else None)
        self._wal: wal_mod.WalWriter | None = None
        self._wal_sync_every = wal_sync_every
        #: Commit observer threaded into every WAL segment (replication
        #: tap — see the ``wal`` module docstring for the contract).
        self._wal_observer = wal_observer
        self._wal_index = 0
        self._wal_name = ""
        self._manifest_version = 0
        self._closed = False
        if path is not None:
            self._open_durable()

        self._flusher: threading.Thread | None = None
        self._compactor: threading.Thread | None = None
        if background:
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="lsm-flusher", daemon=True
            )
            self._compactor = threading.Thread(
                target=self._compactor_loop, name="lsm-compactor", daemon=True
            )
            self._flusher.start()
            self._compactor.start()

    @classmethod
    def open(cls, path: str, fs: FileSystem | None = None, **config) -> "LSMTree":
        """Open (or create) a durable engine at ``path``, recovering to
        exactly the last acknowledged state after any crash."""
        return cls(path=path, fs=fs, **config)

    # -- level layout (compat view) ------------------------------------------------

    @property
    def levels(self) -> list[list[SSTableBase]]:
        """The current version's table layout.

        Callers must treat it as read-only: mutations install a fresh
        :class:`_Version` so pinned readers keep a consistent view.
        """
        return self._version.levels

    # -- durability: open / recover ------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.path is not None

    @property
    def fs(self) -> FileSystem | None:
        """The backing filesystem (None for pure in-memory engines).
        Snapshot shipping reads pinned table bytes through this."""
        return self._fs

    @property
    def background(self) -> bool:
        return self._background

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent accepted write."""
        return self._seq

    @property
    def last_acked_seq(self) -> int:
        """Writes with seq <= this are guaranteed to survive a crash.

        In-memory engines have no durability, so every accepted write
        counts as acknowledged.  In durable mode a write is acked by a
        WAL group-commit fsync, a freeze-time segment sync, or a
        committed manifest install — never by work still in flight:
        during a flush the watermark stays at its pre-flush value until
        the CURRENT rename lands, because only that rename makes the
        new SSTable reachable by recovery.
        """
        if self._wal is None:
            return self._seq
        return max(self._acked_floor, self._wal.synced_seq)

    def _open_durable(self) -> None:
        fs, path = self._fs, self.path
        fs.mkdir(path)
        state = manifest_mod.load_current(fs, path)
        if state is not None:
            self._recover(state)
        else:
            self._start_wal(1)
            self._install_manifest()
        self._collect_garbage()

    def _live_wal_segments(self, state: ManifestState) -> list[tuple[int, str]]:
        """WAL segments recovery must replay: every on-disk segment with
        index >= the manifest's, oldest first.  More than one exists
        when the engine froze memtables (rotating the WAL) faster than
        the flusher committed them."""
        segments = []
        for name in self._fs.listdir(self.path):
            if name.startswith("wal-") and name.endswith(".log"):
                try:
                    index = int(name[4:-4])
                except ValueError:
                    continue
                if index >= state.wal_index:
                    segments.append((index, name))
        return sorted(segments)

    def _recover(self, state: ManifestState) -> None:
        fs, path = self._fs, self.path
        self._manifest_version = state.version
        self._next_table_id = state.next_table_id
        self._seq = self._visible_seq = state.last_seq
        self._flushed_seq = self._acked_floor = state.last_seq
        self._version = _Version(
            [
                [
                    # Passing the manifest's table id makes construction
                    # zero-I/O: the footer and filter load lazily on first
                    # access, so open time is O(1) per table.
                    DiskSSTable(
                        fs,
                        join(path, table_file_name(tid)),
                        filter_factory=self._filter_factory,
                        table_id=tid,
                    )
                    for tid in level
                ]
                for level in state.levels
            ]
            or [[]]
        )
        for table in self._version.tables():
            table._engine_refs = 1
        # Replay the live WAL segments oldest-first into the memtable.
        # A frozen segment is fully fsynced before its successor is
        # created, so a torn frame can only be the newest segment's
        # unacknowledged tail — replay stops there.  A sequence gap
        # between segments would mean records beyond a torn point; stop
        # at the gap for the same reason (nothing past it was acked).
        segments = self._live_wal_segments(state)
        max_index = max((i for i, _ in segments), default=state.wal_index)
        records: list[tuple[int, bytes, Any]] = []
        prev_seq = None
        for _, name in segments:
            for seq, key, value in wal_mod.replay(fs, join(path, name)):
                if prev_seq is not None and seq != prev_seq + 1:
                    break
                prev_seq = seq
                records.append((seq, key, value))
            else:
                continue
            break
        self._start_wal(max_index + 1)
        for seq, key, value in records:
            if seq <= state.last_seq:
                continue  # already covered by an installed SSTable
            self._memtable.put(key, value)
            self._seq = max(self._seq, seq)
            # Re-log into the fresh segment so recovered writes stay
            # durable once the old segments are garbage-collected.
            if value is TOMBSTONE:
                self._wal.append_delete(seq, key)
            else:
                self._wal.append_put(seq, key, value)
        self._visible_seq = self._seq
        self._wal.sync()
        self._install_manifest()

    def _start_wal(self, index: int) -> None:
        self._wal_index = index
        self._wal_name = wal_mod.wal_file_name(index)
        self._wal = wal_mod.WalWriter(
            self._fs,
            join(self.path, self._wal_name),
            self._wal_sync_every,
            observer=self._wal_observer,
        )
        # The fresh segment starts at the current sequence but claims
        # nothing durable: until the manifest that pairs with it is
        # installed, recovery still runs from the previous segment.
        self._wal.last_seq = self._seq
        self._wal.synced_seq = 0

    def _install_manifest(self) -> None:
        """Write + atomically install the next manifest version.

        Caller holds the lock in background mode.  The WAL pointer
        names the *oldest* live segment: the oldest unflushed frozen
        memtable's, or the mutable memtable's when nothing is frozen —
        recovery replays every segment from there upward.
        """
        if self._immutables:
            wal_name = self._immutables[0].wal_name
            wal_index = self._immutables[0].wal_index
        else:
            wal_name, wal_index = self._wal_name, self._wal_index
        self._manifest_version += 1
        state = ManifestState(
            version=self._manifest_version,
            next_table_id=self._next_table_id,
            last_seq=self._flushed_seq,
            wal_name=wal_name,
            wal_index=wal_index,
            levels=[[t.table_id for t in level] for level in self._version.levels],
        )
        manifest_mod.install(self._fs, self.path, state)
        # The superseded manifest is garbage now that CURRENT moved on.
        old = join(self.path, manifest_mod.manifest_file_name(self._manifest_version - 1))
        if self._fs.exists(old):
            self._fs.remove(old)

    def _collect_garbage(self) -> None:
        """Remove every file the installed manifest does not reference."""
        referenced = {
            manifest_mod.CURRENT,
            manifest_mod.manifest_file_name(self._manifest_version),
            self._wal_name,
        }
        for frozen in self._immutables:
            referenced.add(frozen.wal_name)
        for table in self._version.tables():
            referenced.add(table_file_name(table.table_id))
        for name in self._fs.listdir(self.path):
            if name not in referenced:
                self._fs.remove(join(self.path, name))

    def sync(self) -> None:
        """Force the WAL durability barrier (acknowledge everything)."""
        if self._wal is not None:
            self._wal.sync()

    def close(self) -> None:
        """Sync and release the WAL; the engine must not be used after.

        Background threads are stopped and joined first.  Frozen
        memtables not yet flushed are left to WAL recovery: their
        segments were fully fsynced at freeze time, so nothing acked is
        lost.  Idempotent: a second ``close()`` is a no-op, which the
        server's drain path relies on (a shard may be closed by the
        worker and again by the shutdown sweep)."""
        if self._closed:
            return
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in (self._flusher, self._compactor):
            if thread is not None and thread.is_alive():
                thread.join(timeout=10.0)
        try:
            for frozen in self._immutables:
                if frozen.wal is not None:
                    frozen.wal.close()
            if self._wal is not None:
                self._wal.close()
        finally:
            for table in self._version.tables():
                table.close()

    def __enter__(self) -> "LSMTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- version / table lifecycle -------------------------------------------------

    def _install_version(self, levels: list[list[SSTableBase]]) -> _Version:
        """Swap in a new table layout (caller holds the lock).

        Tables joining gain a reference.  The *old* version is returned
        still holding the engine's baseline reference: the caller must
        :meth:`_release_version` it — **after** installing the manifest
        that stops referencing the replaced tables, because releasing
        is what may unlink their files (crash invariant 2: the old
        manifest must stay fully readable until CURRENT moves on).
        """
        new = _Version(levels)
        for table in new.tables():
            table._engine_refs = getattr(table, "_engine_refs", 0) + 1
        old = self._version
        self._version = new
        return old

    def _release_version(self, version: _Version) -> None:
        version.refs -= 1
        if version.refs == 0:
            for table in version.tables():
                table._engine_refs -= 1
                if table._engine_refs == 0:
                    self._drop_table(table)

    def _drop_table(self, table: SSTableBase) -> None:
        """Physically drop a table nothing references anymore: evict
        its cached blocks, unlink the file, release the mapping."""
        for idx in range(table.n_blocks):
            self._block_cache.evict((table.table_id, idx))
        if self.durable and not self._closed:
            try:
                self._fs.remove(table.path)
            except Exception:
                # Already gone, or a frozen fault-injection fs refusing
                # access post-crash; the orphan is GC'd at the next open.
                pass
        # Release the mapping after the unlink.  Outstanding views (a
        # filter someone still holds, a block mid-decode) keep the
        # pages alive on POSIX; close() tolerates them.
        table.close()

    def _pin(self, copy_mem: bool = False) -> _View:
        """Pin a consistent read context.  ``copy_mem=True`` freezes
        the mutable layer too (required by any read that *iterates*
        the memtable while a writer may be inserting)."""
        with self._lock:
            version = self._version
            version.refs += 1
            mems = [self._memtable.freeze_view() if copy_mem else self._memtable]
            for frozen in reversed(self._immutables):
                mems.append(frozen.data)
            return _View(mems, version, self._visible_seq)

    def _unpin(self, view: _View) -> None:
        with self._lock:
            self._release_version(view.version)

    def snapshot(self) -> Snapshot:
        """Pin the current sequence number and return a consistent
        point-in-time :class:`Snapshot` (release it when done)."""
        with self._lock:
            version = self._version
            version.refs += 1
            merged: dict[bytes, Any] = {}
            for frozen in self._immutables:
                merged.update(frozen.data.items())
            merged.update(self._memtable.items())
            self._snapshots_live += 1
            return Snapshot(self, self._visible_seq, merged, version)

    def _release_snapshot(self, view: _View) -> None:
        with self._lock:
            self._snapshots_live -= 1
            self._release_version(view.version)

    # -- write path --------------------------------------------------------------

    def _check_bg_error(self) -> None:
        err = self._bg_error
        if err is not None:
            raise err

    def _apply_backpressure(self) -> None:
        """Slowdown/stall gate for background mode (writer thread).

        Mirrors LevelDB's write controller: too many L0 tables injects
        a small sleep per write (compaction debt grows read
        amplification); a full immutable list or an L0 pile-up past the
        stall trigger blocks the writer until the background threads
        drain — bounded, counted, and surfaced in :meth:`info`.
        """
        self._check_bg_error()
        with self._cond:
            stalled = (
                len(self._immutables) >= self._max_immutables
                or len(self._version.levels[0]) >= self._l0_stall
            )
            if not stalled:
                slow = len(self._version.levels[0]) >= self._l0_slowdown
            else:
                self.stall_count += 1
                started = time.perf_counter()
                while not self._closed and self._bg_error is None and (
                    len(self._immutables) >= self._max_immutables
                    or len(self._version.levels[0]) >= self._l0_stall
                ):
                    self._cond.wait(timeout=0.05)
                self.stall_seconds += time.perf_counter() - started
                self._check_bg_error()
                return
        if slow:
            self.slowdown_count += 1
            time.sleep(self._slowdown_sleep)

    def put(self, key: bytes, value: Any) -> None:
        if self._background:
            self._apply_backpressure()
        self._seq += 1
        if self._wal is not None:
            self._wal.append_put(self._seq, key, value)
        with self._lock:
            self._memtable.put(key, value)
            self._visible_seq = self._seq
        self._maybe_freeze()

    def delete(self, key: bytes) -> None:
        if self._background:
            self._apply_backpressure()
        self._seq += 1
        if self._wal is not None:
            self._wal.append_delete(self._seq, key)
        with self._lock:
            self._memtable.put(key, TOMBSTONE)
            self._visible_seq = self._seq
        self._maybe_freeze()

    def write_batch(self, entries: Sequence[tuple[bytes, Any]]) -> int:
        """Apply a mixed put/delete batch as one acknowledgement unit.

        ``entries`` are ``(key, value)`` pairs applied in order, with
        ``value is TOMBSTONE`` marking a delete.  In durable mode every
        record rides a *single* WAL group commit — one fsync covers the
        whole batch, so when this returns the batch is fully
        acknowledged (``last_acked_seq`` covers its final sequence
        number) and a crash can never split it from the caller's point
        of view.  The memtable is updated in one pass (under the lock,
        so a snapshot sees all of the batch or none of it) and the
        freeze check runs once, after the batch.

        Returns the sequence number of the batch's final record — the
        causal token the server hands back in write acks so clients can
        demand read-your-writes from a replication follower.
        """
        entries = list(entries)
        if not entries:
            return self._seq
        if self._background:
            self._apply_backpressure()
        records = []
        seq = self._seq
        for key, value in entries:
            seq += 1
            records.append((seq, key, value))
        if self._wal is not None:
            # append_batch encodes everything before appending, so a
            # TypeError from the value codec leaves WAL and seq intact.
            self._wal.append_batch(records)
        self._seq = seq
        with self._lock:
            # One vectorized apply: the whole group commit lands in the
            # gapped memtable as a single batch insert (last write wins
            # within the batch, same as the sequential dict loop).
            self._memtable.put_many([(key, value) for _, key, value in records])
            self._visible_seq = seq
        self._maybe_freeze()
        return seq

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        """Batch :meth:`put`: one WAL group commit, one freeze check."""
        self.write_batch(pairs)

    def delete_many(self, keys: Sequence[bytes]) -> None:
        """Batch :meth:`delete`: one WAL group commit, one freeze check."""
        self.write_batch([(key, TOMBSTONE) for key in keys])

    def _maybe_freeze(self) -> None:
        if len(self._memtable) < self._memtable_entries:
            return
        if self._background:
            self._freeze()
        else:
            self.flush_memtable()

    def _freeze(self) -> None:
        """Seal the mutable memtable into the immutable list (writer
        thread, background mode) and hand it to the flusher.

        Ordering is the crash-safety crux: the old WAL segment is
        fsynced *before* the new one is created, so (a) every frozen
        record is acknowledged at freeze time, and (b) the on-disk
        segments never hold a sequence gap — a torn frame can only be
        the newest segment's unsynced tail.
        """
        if not len(self._memtable):
            return
        old_wal, old_name, old_index = self._wal, self._wal_name, self._wal_index
        if old_wal is not None:
            old_wal.sync()  # durability point: frozen records are acked
        # Rotation and registration are one atomic step under the lock:
        # a concurrent flush commit must never compute its manifest WAL
        # pointer between the new segment appearing and the frozen
        # memtable (which still owns the old segment) being listed.
        with self._cond:
            if old_wal is not None:
                self._start_wal(self._wal_index + 1)
            frozen = _Frozen(
                self._memtable, self._visible_seq, old_wal, old_name, old_index
            )
            self._immutables.append(frozen)
            self._memtable = self._memtable_factory()
            if old_wal is not None:
                self._acked_floor = max(self._acked_floor, old_wal.synced_seq)
            self._cond.notify_all()

    def flush_memtable(self) -> None:
        """Flush the memtable through to L0.

        Inline mode runs the whole freeze → flush → compact pipeline
        synchronously (the deterministic path every recovery test
        drives).  Background mode freezes and then *waits* for the
        flusher to drain — used by tests and the fuzzer's ``merge`` op
        to force a table boundary.
        """
        if self._background:
            self._freeze()
            with self._cond:
                while self._immutables and self._bg_error is None:
                    self._cond.wait(timeout=0.05)
            self._check_bg_error()
            return
        if not len(self._memtable):
            return
        # The memtable iterates in key order (gapped tree: leaves in
        # directory order), so the L0 table needs no sort pass.
        pairs = list(self._memtable.items())
        if self.durable:
            table: SSTableBase = self._write_pairs(pairs)
            with self._lock:
                levels = [list(level) for level in self._version.levels]
                levels[0].insert(0, table)
                old_wal = self._wal
                flush_seq = self._seq
                acked_before = self.last_acked_seq
                self._start_wal(self._wal_index + 1)
                self._flushed_seq = flush_seq
                self._memtable = self._memtable_factory()
                old_version = self._install_version(levels)
                self._install_manifest()
                self._release_version(old_version)
                # The CURRENT rename just committed: every write the new
                # table covers is durable now (and not one moment sooner).
                self._acked_floor = max(acked_before, flush_seq)
            # Only now is the old segment redundant (invariant 3).
            old_wal.abandon()
            self._fs.remove(old_wal.path)
        else:
            with self._lock:
                levels = [list(level) for level in self._version.levels]
                levels[0].insert(0, self._make_table(pairs))
                self._memtable = self._memtable_factory()
                self._release_version(self._install_version(levels))
        self.flush_count += 1
        self._maybe_compact()

    def _alloc_table_id(self) -> int:
        with self._lock:
            tid = self._next_table_id
            self._next_table_id += 1
            return tid

    def _make_table(self, pairs) -> SSTable:
        return SSTable(
            pairs,
            block_entries=self._block_entries,
            filter_factory=self._filter_factory,
            table_id=self._alloc_table_id(),
        )

    def _write_pairs(self, pairs) -> DiskSSTable:
        """Write a flush's ``(key, value)`` pairs as one table file,
        encoding each value once."""
        keys = [k for k, _ in pairs]
        return self._write_table(keys, encode_values([v for _, v in pairs]))

    def _write_table(self, keys, values) -> DiskSSTable:
        """Write one durable table file from a key column and an encoded
        value column (fsynced before it returns)."""
        tid = self._alloc_table_id()
        file_path = join(self.path, table_file_name(tid))
        write_sstable(
            self._fs,
            file_path,
            keys,
            values,
            tid,
            block_entries=self._block_entries,
            filter_factory=self._filter_factory,
        )
        return DiskSSTable(
            self._fs, file_path, filter_factory=self._filter_factory, table_id=tid
        )

    # -- background threads ---------------------------------------------------------

    def _flusher_loop(self) -> None:
        """Turn frozen memtables into L0 tables, oldest first."""
        while True:
            with self._cond:
                while not self._immutables and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return  # pending immutables recover from their WALs
                frozen = self._immutables[0]
            try:
                self._flush_frozen(frozen)
            except BaseException as exc:  # noqa: BLE001 — surfaced to writers
                with self._cond:
                    self._bg_error = exc
                    self._cond.notify_all()
                return

    def _flush_frozen(self, frozen: _Frozen) -> None:
        """Flush one frozen memtable (flusher thread).

        The table write runs outside the lock (the frozen dict is
        immutable); the commit — L0 insert, manifest install, ack-floor
        raise, WAL retirement — happens under it.
        """
        pairs = list(frozen.data.items())
        table = self._write_pairs(pairs) if self.durable else self._make_table(pairs)
        with self._cond:
            levels = [list(level) for level in self._version.levels]
            levels[0].insert(0, table)
            old_version = self._install_version(levels)
            self._immutables.pop(0)
            if self.durable:
                self._flushed_seq = max(self._flushed_seq, frozen.last_seq)
                self._install_manifest()
                self._acked_floor = max(self._acked_floor, frozen.last_seq)
            self._release_version(old_version)
            self.flush_count += 1
            self._cond.notify_all()
        # Only now is the frozen segment redundant (invariant 3).
        if self.durable and frozen.wal is not None:
            frozen.wal.abandon()
            try:
                self._fs.remove(frozen.wal.path)
            except FileNotFoundError:
                pass

    def _compactor_loop(self) -> None:
        """Leveled background compaction, lowest overflowing level first."""
        while True:
            with self._cond:
                while not self._closed and self._pick_compaction_level() is None:
                    self._cond.wait()
                if self._closed:
                    return
                level = self._pick_compaction_level()
            try:
                if level is not None:
                    self._compact_level(level)
            except BaseException as exc:  # noqa: BLE001 — surfaced to writers
                with self._cond:
                    self._bg_error = exc
                    self._cond.notify_all()
                return

    # -- compaction -----------------------------------------------------------------

    def _level_limit(self, level: int) -> int:
        if level == 0:
            return self._level0_limit
        return self._level0_limit * (self._level_fanout ** level)

    def _pick_compaction_level(self) -> int | None:
        for i, level in enumerate(self._version.levels):
            if len(level) > self._level_limit(i):
                return i
        return None

    def _maybe_compact(self) -> None:
        """Inline-mode compaction driver (runs on the writer thread)."""
        while True:
            level = self._pick_compaction_level()
            if level is None:
                return
            self._compact_level(level)

    def _compact_level(self, level: int) -> None:
        """Merge one level's overflow into the next level.

        Source selection happens under the lock; the merge and the
        table writes run outside it (sources stay alive — they are
        referenced by the current version, and only this thread removes
        tables from levels >= 1 while the flusher only *prepends* to
        L0).  The commit re-reads the current layout, so L0 tables the
        flusher added mid-merge survive untouched.
        """
        with self._lock:
            cur = self._version.levels
            if level == 0:
                sources = list(cur[0])
            else:
                sources = [cur[level][0]]
            lo = min(t.min_key for t in sources)
            hi = max(t.max_key for t in sources)
            next_level = cur[level + 1] if level + 1 < len(cur) else []
            overlapping = [t for t in next_level if t.overlaps(lo, hi)]
            # Tombstones drop when the output lands on the bottom level.
            drop_tombstones = len(cur) <= level + 2
        keys, values = self._merge_tables(sources, overlapping, drop_tombstones)
        step = self._sstable_entries
        runs = [
            (keys[i : i + step], values[i : i + step])
            for i in range(0, len(keys), step)
        ]
        if self.durable:
            new_tables = [self._write_table(k, v) for k, v in runs]
        else:
            new_tables = [self._make_table(list(zip(k, v))) for k, v in runs]
        source_ids = {t.table_id for t in sources}
        overlap_ids = {t.table_id for t in overlapping}
        with self._cond:
            levels = [list(lvl) for lvl in self._version.levels]
            while len(levels) < level + 2:
                levels.append([])
            levels[level] = [t for t in levels[level] if t.table_id not in source_ids]
            keep = [t for t in levels[level + 1] if t.table_id not in overlap_ids]
            levels[level + 1] = sorted(keep + new_tables, key=lambda t: t.min_key)
            old_version = self._install_version(levels)
            if self.durable:
                self._install_manifest()
            self._release_version(old_version)
            self.compaction_count += 1
            self._cond.notify_all()
        # The replaced tables left the current version; their blocks are
        # evicted and files unlinked when the last snapshot/iterator
        # holding the old version releases it (possibly just now).

    def _merge_tables(
        self, newer: list[SSTableBase], older: list[SSTableBase], drop_tombstones: bool
    ) -> tuple[list[bytes], list[Any]]:
        """Newest-wins merge of runs (``newer`` is newest-first) into a
        sorted key column and its value column.

        Durable tables merge their values still *encoded*: the entries
        come straight out of the checked blocks and go straight back
        into :func:`write_sstable`, and a tombstone is recognised by its
        encoded form alone.  In-memory tables merge their values as is.
        """
        if self.durable:
            entries, live = DiskSSTable.encoded_items, ENCODED_TOMBSTONE.__ne__
        else:
            entries, live = SSTableBase.items, lambda v: v is not TOMBSTONE
        merged: dict[bytes, Any] = {}
        for table in older:
            merged.update(entries(table))
        for table in reversed(newer):  # apply oldest first, newest last
            merged.update(entries(table))
        keys = sorted(merged)
        if drop_tombstones:
            keys = [k for k in keys if live(merged[k])]
        return keys, [merged[k] for k in keys]

    # -- block access with simulated I/O ------------------------------------------------

    def _read_block(self, table: SSTableBase, block_idx: int) -> list[tuple[bytes, Any]]:
        cache_key = (table.table_id, block_idx)
        before = self._block_cache.misses
        block = self._block_cache.get_or_load(
            cache_key, lambda: table.read_block(block_idx)
        )
        if self._block_cache.misses > before:
            self.io.block_reads += 1
        else:
            self.io.cache_hits += 1
        return block

    # -- Get (Figure 4.3 left) ------------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        view = self._pin()
        try:
            return self._get_in(view, key)
        finally:
            self._unpin(view)

    def _get_in(self, view: _View, key: bytes) -> Any | None:
        for layer in view.mems:
            # Single probe per layer: every memtable/view type takes a
            # default, and a miss-sentinel distinguishes absent keys
            # from stored values.
            value = layer.get(key, _MISSING)
            if value is not _MISSING:
                return None if value is TOMBSTONE else value
        for table in self._candidates_for(view, key):
            if table.filter is not None:
                self.io.filter_probes += 1
                if not table.may_contain(key):
                    self.io.filter_negatives += 1
                    continue
            elif not table.may_contain(key):
                continue
            block = self._read_block(table, table.block_for(key))
            idx = bisect_left(block, (key,))
            if idx < len(block) and block[idx][0] == key:
                value = block[idx][1]
                return None if value is TOMBSTONE else value
        return None

    def get_many(self, keys: Sequence[bytes]) -> list[Any]:
        """Batch point reads matching element-wise scalar :meth:`get`.

        The batch walks the LSM hierarchy level-synchronously: per
        table, every still-unresolved key in the table's range is
        probed through the filter's vectorized ``lookup_many`` (PR 3
        batch kernels) in one call, and the survivors are grouped by
        block so each block is fetched and decoded once no matter how
        many keys land in it.  A key resolved by a newer table (value
        *or* tombstone) never touches older tables, preserving
        newest-wins semantics exactly.
        """
        view = self._pin()
        try:
            return self._get_many_in(view, keys)
        finally:
            self._unpin(view)

    def _get_many_in(self, view: _View, keys: Sequence[bytes]) -> list[Any]:
        keys = list(keys)
        out: list[Any] = [None] * len(keys)
        pending: list[int] = []
        for i, key in enumerate(keys):
            resolved = False
            for layer in view.mems:
                value = layer.get(key, _MISSING)
                if value is not _MISSING:
                    out[i] = None if value is TOMBSTONE else value
                    resolved = True
                    break
            if not resolved:
                pending.append(i)
        levels = view.levels
        for table in levels[0]:
            if not pending:
                return out
            pending = self._table_get_many(table, keys, out, pending)
        for level in levels[1:]:
            if not pending:
                return out
            # Disjoint level: each key has at most one candidate table.
            min_keys = [t.min_key for t in level]
            by_table: dict[int, list[int]] = {}
            next_pending: list[int] = []
            for i in pending:
                ti = bisect_right(min_keys, keys[i]) - 1
                if ti >= 0 and keys[i] <= level[ti].max_key:
                    by_table.setdefault(ti, []).append(i)
                else:
                    next_pending.append(i)
            for ti, members in sorted(by_table.items()):
                next_pending.extend(
                    self._table_get_many(level[ti], keys, out, members)
                )
            pending = next_pending
        return out

    def _table_get_many(
        self, table: SSTableBase, keys: list[bytes], out: list[Any], idxs: list[int]
    ) -> list[int]:
        """Resolve what ``table`` holds of ``keys[idxs]``; return the
        indexes still unresolved (filter negatives, false positives,
        and keys outside the table's range)."""
        in_range = [i for i in idxs if table.min_key <= keys[i] <= table.max_key]
        if not in_range:
            return idxs
        if table.filter is not None:
            flt = table.filter
            probe = getattr(flt, "lookup_many", None) or getattr(
                flt, "may_contain_many", None
            )
            if probe is not None:
                mask = probe([keys[i] for i in in_range])
            else:
                mask = [table.may_contain(keys[i]) for i in in_range]
            self.io.filter_probes += len(in_range)
            passed = [i for i, hit in zip(in_range, mask) if hit]
            self.io.filter_negatives += len(in_range) - len(passed)
        else:
            passed = in_range
        if not passed:
            return idxs
        by_block: dict[int, list[int]] = {}
        for i in passed:
            by_block.setdefault(table.block_for(keys[i]), []).append(i)
        resolved: set[int] = set()
        for block_idx in sorted(by_block):
            block = self._read_block(table, block_idx)
            for i in by_block[block_idx]:
                j = bisect_left(block, (keys[i],))
                if j < len(block) and block[j][0] == keys[i]:
                    value = block[j][1]
                    out[i] = None if value is TOMBSTONE else value
                    resolved.add(i)
        if not resolved:
            return idxs
        return [i for i in idxs if i not in resolved]

    def _candidates_for(self, view: _View, key: bytes) -> Iterator[SSTableBase]:
        levels = view.levels
        for table in levels[0]:
            if table.min_key <= key <= table.max_key:
                yield table
        for level in levels[1:]:
            idx = bisect_right([t.min_key for t in level], key) - 1
            if idx >= 0 and key <= level[idx].max_key:
                yield level[idx]

    # -- Seek (Figure 4.3 middle) -----------------------------------------------------------

    def seek(self, low: bytes, high: bytes | None = None) -> tuple[bytes, Any] | None:
        """Smallest entry with key >= low (and <= high if given).

        With SuRF filters, candidate keys come from the filters and at
        most one block is fetched; without them, one block per
        candidate SSTable is fetched (the I/O the paper saves).  When
        the winner turns out to be a tombstone, the engine switches to
        an iterative merged cursor (:meth:`_merge_seek_in`) that skips
        the whole tombstone run reading each block at most once — a run
        of 100k deleted keys costs O(blocks) reads and O(1) stack.
        """
        view = self._pin(copy_mem=True)
        try:
            return self._seek_in(view, low, high)
        finally:
            self._unpin(view)

    def _seek_in(
        self, view: _View, low: bytes, high: bytes | None = None
    ) -> tuple[bytes, Any] | None:
        best: tuple[bytes, Any] | None = None
        # MemTable candidate (no I/O) — newest-wins across the layers.
        mem = [(k, v) for k, v in view.merged().items() if k >= low]
        if mem:
            best = min(mem)
        candidates = list(self._seek_candidates(view, low))
        if candidates and all(
            t.filter is not None and hasattr(t.filter, "move_to_next")
            for t in candidates
        ):
            cand = self._filtered_seek(candidates, low, high, best)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
        else:
            for table in candidates:
                cand = self._table_seek(table, low, high, best)
                if cand is not None and (best is None or cand[0] < best[0]):
                    best = cand
        if best is None:
            return None
        if best[1] is TOMBSTONE:
            # Tombstones shadow older entries; skip the run iteratively.
            return self._merge_seek_in(view, best[0], high)
        if high is not None and best[0] > high:
            return None
        return best

    def _merge_seek_in(
        self, view: _View, start: bytes, high: bytes | None
    ) -> tuple[bytes, Any] | None:
        """First live entry >= ``start`` via a newest-wins k-way merge.

        One sorted cursor per source (merged memtable layers, each L0
        table, each deeper level) advances through a heap; for
        duplicate keys the lowest-rank (newest) source wins.  Every
        block along the skip is read at most once, so a contiguous
        tombstone run costs O(run / block_entries) block reads, not
        O(run) seek restarts.
        """
        iters: list[Iterator[tuple[bytes, Any]]] = [
            iter(sorted((k, v) for k, v in view.merged().items() if k >= start))
        ]
        levels = view.levels
        for table in levels[0]:
            if table.max_key >= start:
                iters.append(self._table_cursor(table, start))
        for level in levels[1:]:
            iters.append(self._level_cursor(level, start))
        # Heap entries are (key, rank, value); ranks are unique, so the
        # (unorderable) values never get compared.
        heap: list[tuple[bytes, int, Any]] = []
        for rank, it in enumerate(iters):
            first = next(it, None)
            if first is not None:
                heap.append((first[0], rank, first[1]))
        heapq.heapify(heap)
        while heap:
            key = heap[0][0]
            if high is not None and key > high:
                return None
            # Pop every version of ``key``; the first popped has the
            # lowest rank (newest source) and decides liveness.
            winner = heap[0][2]
            while heap and heap[0][0] == key:
                _, rank, _ = heapq.heappop(heap)
                nxt = next(iters[rank], None)
                if nxt is not None:
                    heapq.heappush(heap, (nxt[0], rank, nxt[1]))
            if winner is not TOMBSTONE:
                return (key, winner)
        return None

    def _table_cursor(
        self, table: SSTableBase, start: bytes
    ) -> Iterator[tuple[bytes, Any]]:
        """Entries >= ``start`` from one table, block by cached block."""
        block_idx = table.block_for(start)
        block = self._read_block(table, block_idx)
        for entry in block[bisect_left(block, (start,)) :]:
            yield entry
        for block_idx in range(block_idx + 1, table.n_blocks):
            yield from self._read_block(table, block_idx)

    def _level_cursor(
        self, level: list[SSTableBase], start: bytes
    ) -> Iterator[tuple[bytes, Any]]:
        """Entries >= ``start`` across one disjoint sorted level."""
        idx = max(bisect_right([t.min_key for t in level], start) - 1, 0)
        for table in level[idx:]:
            if table.max_key < start:
                continue
            yield from self._table_cursor(table, max(start, table.min_key))

    def _filtered_seek(
        self,
        candidates: list[SSTableBase],
        low: bytes,
        high: bytes | None,
        best: tuple[bytes, Any] | None,
    ) -> tuple[bytes, Any] | None:
        """The paper's SuRF seek (Section 4.2): obtain each table's
        candidate *key prefix* from its filter (no I/O) and resolve the
        winner with as few block fetches as the prefixes allow.

        A filter prefix is a *truncated lower bound* on the table's
        first key >= ``low`` — truncation can make prefixes from
        different tables conflate distinct keys, so prefix order alone
        cannot pick the winner (an earlier version skipped tables whose
        prefix was not string-prefix-related to the minimum, silently
        dropping newer versions and tombstones of the winning key).
        The only sound prefix deduction is pruning: ``prefix > k``
        proves the table holds nothing in ``[low, k]``.  So candidates
        are visited in ascending (prefix, age) order: the first fetched
        block usually holds the winner, and :meth:`_table_seek`'s prefix
        prune then skips the fetch for every later table.  Visit order
        is no longer age order, so a full-key tie is settled by age:
        the newest table's entry — live or tombstone — wins."""
        prefixed: list[tuple[bytes, int, SSTableBase]] = []
        # ``candidates`` arrive newest-first: the index is the age rank.
        for age, table in enumerate(candidates):
            it, _fp = table.filter_seek(low)
            if not it.valid:
                continue  # sound: no stored entry (nor prefix) >= low
            prefixed.append((it.key(), age, table))
        if not prefixed:
            return None
        prefixed.sort(key=lambda entry: entry[:2])
        if high is not None and prefixed[0][0] > high:
            return None  # every candidate starts past the bound: no I/O
        result: tuple[bytes, Any] | None = None
        result_age = 0
        for prefix, age, table in prefixed:
            bound = result or best
            if bound is not None and prefix > bound[0]:
                break  # this and every later table is pruned: no I/O
            cand = self._table_seek(table, low, high, bound)
            if cand is None:
                continue
            if result is None or cand[0] < result[0] or (
                cand[0] == result[0] and age < result_age
            ):
                result, result_age = cand, age
        return result

    def _seek_candidates(self, view: _View, low: bytes) -> Iterator[SSTableBase]:
        levels = view.levels
        for table in levels[0]:
            if table.max_key >= low:
                yield table
        for level in levels[1:]:
            idx = bisect_right([t.min_key for t in level], low) - 1
            start = max(idx, 0)
            for table in level[start:]:
                if table.max_key >= low:
                    yield table
                    break  # disjoint level: first qualifying table wins

    def _table_seek(
        self,
        table: SSTableBase,
        low: bytes,
        high: bytes | None,
        best: tuple[bytes, Any] | None,
    ) -> tuple[bytes, Any] | None:
        filter_it = table.filter_seek(low)
        if filter_it is not None:
            it, _fp = filter_it
            if not it.valid:
                return None  # filter proves nothing >= low here
            candidate_prefix = it.key()
            if high is not None and candidate_prefix > high:
                return None  # beyond the bound: I/O saved
            if best is not None and candidate_prefix > best[0]:
                return None  # cannot beat the current winner
        # Fetch the one block that holds the table's first key >= low.
        block_idx = table.block_for(low)
        block = self._read_block(table, block_idx)
        idx = bisect_left(block, (low,))
        while True:
            if idx < len(block):
                return block[idx]
            block_idx += 1
            if block_idx >= table.n_blocks:
                return None
            block = self._read_block(table, block_idx)
            idx = 0

    # -- iteration / Count (Figure 4.3 right) ---------------------------------------------------

    def scan(self, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        """Seek + Next*: the first ``count`` live entries >= low.

        Pins one view for the whole scan, so the result is consistent
        even while flushes and compactions run underneath."""
        view = self._pin(copy_mem=True)
        try:
            return self._scan_in(view, low, count)
        finally:
            self._unpin(view)

    def _scan_in(self, view: _View, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        out: list[tuple[bytes, Any]] = []
        cursor = low
        while len(out) < count:
            entry = self._seek_in(view, cursor)
            if entry is None:
                break
            out.append(entry)
            cursor = entry[0] + b"\x00"
        return out

    def count(self, low: bytes, high: bytes) -> int:
        """Approximate count of entries in [low, high).

        With SuRF filters this runs from the filters plus at most two
        boundary block reads per level; otherwise it scans blocks.
        As in the paper, LSM semantics make it approximate (it cannot
        distinguish updates/deletes across runs without a full merge).
        """
        view = self._pin(copy_mem=True)
        try:
            return self._count_in(view, low, high)
        finally:
            self._unpin(view)

    def _count_in(self, view: _View, low: bytes, high: bytes) -> int:
        total = sum(1 for k in view.merged() if low <= k < high)
        for level in view.levels:
            for table in level:
                if not table.overlaps(low, high):
                    continue
                if table.filter is not None and hasattr(table.filter, "count"):
                    total += table.filter.count(low, high)
                else:
                    total += self._scan_count(table, low, high)
        return total

    def _scan_count(self, table: SSTableBase, low: bytes, high: bytes) -> int:
        count = 0
        block_idx = table.block_for(low)
        while block_idx < table.n_blocks:
            block = self._read_block(table, block_idx)
            for k, _ in block:
                if k >= high:
                    return count
                if k >= low:
                    count += 1
            block_idx += 1
        return count

    # -- quiescence (tests / benchmarks) --------------------------------------------------------

    def wait_idle(self, timeout: float = 30.0) -> None:
        """Block until no frozen memtable is pending and no level is
        over its limit (background mode; inline returns immediately).

        Raises the background error if a flusher/compactor died, and
        ``TimeoutError`` if the backlog does not drain in time.
        """
        if not self._background:
            return
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._immutables or self._pick_compaction_level() is not None:
                self._check_bg_error()
                if self._closed:
                    return
                # Wait on the *remaining* time, not a fixed slice: a
                # fixed 50 ms poll both overshoots tight deadlines (a
                # 1 ms timeout slept 50 ms) and never times out at all
                # when notifications keep arriving faster than the
                # slice, since the deadline was only checked after a
                # timed-out wait.
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("background work did not drain")
                self._cond.wait(timeout=remaining)
            self._check_bg_error()

    # -- statistics -----------------------------------------------------------------------------

    def total_entries(self) -> int:
        with self._lock:
            mem = len(self._memtable) + sum(len(f.data) for f in self._immutables)
            return mem + sum(t.n_entries for t in self._version.tables())

    def filter_memory_bytes(self) -> int:
        return sum(t.filter_memory_bytes() for t in self._version.tables())

    def table_count(self) -> int:
        return sum(len(level) for level in self._version.levels)

    def compaction_backlog(self) -> int:
        """Tables above their level limits (0 when fully compacted)."""
        levels = self._version.levels
        return sum(
            max(0, len(level) - self._level_limit(i))
            for i, level in enumerate(levels)
        )

    def info(self) -> dict[str, Any]:
        """JSON-ready engine counters (the per-shard STATS payload)."""
        io = self.io
        reads, hits = io.block_reads, io.cache_hits
        probes, negatives = io.filter_probes, io.filter_negatives
        return {
            "entries": self.total_entries(),
            "tables": self.table_count(),
            "last_seq": self.last_seq,
            "block_reads": reads,
            "cache_hits": hits,
            "cache_hit_rate": hits / (reads + hits) if reads + hits else 0.0,
            "filter_probes": probes,
            "filter_negatives": negatives,
            "filter_hit_rate": negatives / probes if probes else 0.0,
            "background": self._background,
            "immutables": len(self._immutables),
            "l0_tables": len(self._version.levels[0]),
            "compaction_backlog": self.compaction_backlog(),
            "stalls": self.stall_count,
            "slowdowns": self.slowdown_count,
            "stall_seconds": self.stall_seconds,
            "flushes": self.flush_count,
            "compactions": self.compaction_count,
            "snapshots": self._snapshots_live,
        }
