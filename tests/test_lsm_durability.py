"""Durable LSM: WAL, manifest, on-disk tables, and crash recovery.

The centerpiece is the kill-at-every-sync-point matrix: a seeded
workload runs against the fault-injecting filesystem, power fails at
each durability point in turn under four torn-write models, and
recovery must restore a state that (a) contains every acknowledged
write and (b) is an exact prefix of the op sequence — nothing invented,
nothing reordered, all CRCs verified on the way back in.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import DiskSSTable, LSMTree, SSTable, TOMBSTONE, write_sstable
from repro.lsm import disk_format, manifest as manifest_mod, wal as wal_mod
from repro.lsm.fs import OsFileSystem, join
from repro.lsm.manifest import ManifestState
from repro.filters.bloom import BloomFilter
from repro.surf import surf_real
from repro.testing.faultfs import CRASH_MODES, FaultFS, MemFS, PowerFailure
from repro.workloads.keys import encode_u64


def bloom_factory(keys):
    return BloomFilter(keys, bits_per_key=12)


def surf_factory(keys):
    return surf_real(sorted(keys), real_bits=4)


def _write_pairs(fs, path, pairs, **kw):
    """``write_sstable`` over typed ``(key, value)`` pairs."""
    keys = [k for k, _ in pairs]
    write_sstable(fs, path, keys, disk_format.encode_values([v for _, v in pairs]), **kw)


def _block(pairs):
    """One encoded block holding typed ``(key, value)`` pairs."""
    keys = [k for k, _ in pairs]
    return disk_format.encode_block(keys, disk_format.encode_values([v for _, v in pairs]))


def _unblock(blob):
    """Typed ``(key, value)`` pairs back out of one encoded block."""
    keys, values = disk_format.decode_block(blob)
    return list(zip(keys, disk_format.decode_values(values)))


# -- disk format -------------------------------------------------------------


class TestDiskFormat:
    def test_value_codec_roundtrip(self):
        for value in (0, 7, -13, 2**62, -(2**62), b"", b"blob\x00\xff", "héllo", TOMBSTONE):
            enc = disk_format.encode_value(value)
            assert disk_format.decode_value(enc) is value or disk_format.decode_value(enc) == value

    def test_value_codec_rejects_unstorable(self):
        for bad in (1.5, [1], {"a": 1}, object(), True, 2**64):
            with pytest.raises(TypeError):
                disk_format.encode_value(bad)

    def test_block_roundtrip(self):
        pairs = [(encode_u64(i), i) for i in range(100)]
        assert _unblock(_block(pairs)) == pairs

    def test_frame_detects_corruption(self):
        blob = _block([(b"k", 1)])
        for i in range(len(blob)):
            damaged = blob[:i] + bytes([blob[i] ^ 0x40]) + blob[i + 1 :]
            with pytest.raises(disk_format.FrameError):
                disk_format.decode_block(damaged)

    def test_frame_detects_truncation(self):
        blob = _block([(b"key", 1), (b"key2", 2)])
        for cut in range(len(blob)):
            with pytest.raises(disk_format.FrameError):
                disk_format.decode_block(blob[:cut])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(max_size=12),
                st.one_of(
                    st.binary(max_size=40),
                    st.text(max_size=20),
                    st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    st.sampled_from([-(2**63), 2**63 - 1, 0, b"", "", "é☃𝄞"]),
                    st.just(TOMBSTONE),
                ),
            ),
            max_size=70,
        )
    )
    def test_mixed_block_roundtrip(self, pairs):
        """Bytes, non-ASCII str, ints at the 64-bit bounds, tombstones,
        empty keys and values: the columnar codec returns them all."""
        blob = _block(pairs)
        assert _unblock(blob) == pairs
        keys, values = disk_format.decode_block(blob)
        assert keys == [k for k, _ in pairs]
        assert values == disk_format.encode_values([v for _, v in pairs])
        tombstones = [v == disk_format.ENCODED_TOMBSTONE for v in values]
        assert tombstones == [v is TOMBSTONE for _, v in pairs]

    MIXED = [
        (b"", b""),
        (b"a", -(2**63)),
        (b"b", TOMBSTONE),
        (b"c", "h\u00e9llo"),
        (b"d", 2**63 - 1),
        (b"e", b"\x00\xff"),
    ]

    def test_mixed_block_every_flip_and_truncation_rejected(self):
        blob = _block(self.MIXED)
        for i in range(len(blob)):
            for bit in (0x01, 0x80):
                damaged = blob[:i] + bytes([blob[i] ^ bit]) + blob[i + 1 :]
                with pytest.raises(disk_format.FrameError):
                    disk_format.decode_block(damaged)
        for cut in range(len(blob)):
            with pytest.raises(disk_format.FrameError):
                disk_format.decode_block(blob[:cut])

    @staticmethod
    def _raw_block(keys, values, n=None, extra=b""):
        """A correctly framed (CRC-valid) block with arbitrary columns,
        so the checks behind the CRC are exercised directly."""
        n = len(keys) if n is None else n
        header = struct.pack(
            f"<{1 + len(keys) + len(values)}I",
            n, *map(len, keys), *map(len, values),
        )
        return disk_format.frame(header + b"".join(keys) + b"".join(values) + extra)

    def test_column_checks_behind_the_crc(self):
        ok = self._raw_block([b"k"], [b"\x02v"])
        assert disk_format.decode_block(ok) == ([b"k"], [b"\x02v"])
        bad = {
            "unknown tag": self._raw_block([b"k"], [b"\x07v"]),
            "empty value": self._raw_block([b"k"], [b""]),
            "short int": self._raw_block([b"k"], [b"\x01" + bytes(7)]),
            "long int": self._raw_block([b"k"], [b"\x01" + bytes(9)]),
            "padded tombstone": self._raw_block([b"k"], [b"\x00\x00"]),
            "trailing bytes": self._raw_block([b"k"], [b"\x02v"], extra=b"x"),
            "truncated columns": disk_format.frame(struct.pack("<III", 1, 4, 4) + b"ab"),
            "count past end": self._raw_block([b"k"], [b"\x02v"], n=9),
            "empty payload": disk_format.frame(b""),
        }
        for name, blob in bad.items():
            with pytest.raises(disk_format.FrameError):
                disk_format.decode_block(blob)
                pytest.fail(name)


# -- WAL ---------------------------------------------------------------------


class TestWal:
    def test_roundtrip(self):
        fs = MemFS()
        w = wal_mod.WalWriter(fs, "wal", sync_every=2)
        w.append_put(1, b"a", 10)
        w.append_delete(2, b"b")
        w.append_put(3, b"c", b"raw")
        w.close()
        records = wal_mod.replay(fs, "wal")
        assert records[0] == (1, b"a", 10)
        assert records[1][2] is TOMBSTONE
        assert records[2] == (3, b"c", b"raw")

    def test_batched_sync_acknowledges_in_groups(self):
        fs = FaultFS()
        w = wal_mod.WalWriter(fs, "wal", sync_every=3)
        base = fs.sync_points
        w.append_put(1, b"a", 1)
        w.append_put(2, b"b", 2)
        assert w.synced_seq == 0 and fs.sync_points == base
        w.append_put(3, b"c", 3)  # third record triggers the group commit
        assert w.synced_seq == 3 and fs.sync_points == base + 1

    def test_torn_tail_ends_replay(self):
        fs = MemFS()
        w = wal_mod.WalWriter(fs, "wal", sync_every=1)
        for i in range(5):
            w.append_put(i + 1, encode_u64(i), i)
        w.close()
        data = fs.read("wal")
        for cut in (len(data) - 1, len(data) - 7, len(data) // 2):
            torn = MemFS()
            f = torn.create("wal")
            f.append(data[:cut])
            f.sync()
            records = wal_mod.replay(torn, "wal")
            assert len(records) < 5
            # Still a clean prefix: seqs 1..len(records).
            assert [r[0] for r in records] == list(range(1, len(records) + 1))

    def test_non_monotonic_seq_raises(self):
        fs = MemFS()
        f = fs.create("wal")
        f.append(wal_mod.encode_record(1, 5, b"a", 1))
        f.append(wal_mod.encode_record(1, 4, b"b", 2))
        f.sync()
        with pytest.raises(disk_format.FrameError):
            wal_mod.replay(fs, "wal")


# -- manifest ----------------------------------------------------------------


class TestManifest:
    def test_install_and_load(self):
        fs = MemFS()
        fs.mkdir("db")
        state = ManifestState(
            version=3, next_table_id=9, last_seq=41, wal_name="wal-00000002.log",
            wal_index=2, levels=[[5, 4], [1, 2, 3]],
        )
        manifest_mod.install(fs, "db", state)
        assert manifest_mod.load_current(fs, "db") == state

    def test_missing_current_means_fresh(self):
        fs = MemFS()
        fs.mkdir("db")
        assert manifest_mod.load_current(fs, "db") is None

    def test_crc_guards_manifest(self):
        fs = MemFS()
        fs.mkdir("db")
        manifest_mod.install(fs, "db", ManifestState(version=1))
        name = fs.read("db/CURRENT").decode().strip()
        blob = bytearray(fs.read(join("db", name)))
        blob[-1] ^= 0x01
        f = fs.create(join("db", name))
        f.append(bytes(blob))
        f.sync()
        with pytest.raises(disk_format.FrameError):
            manifest_mod.load_current(fs, "db")


# -- on-disk SSTables --------------------------------------------------------


class TestDiskSSTable:
    def _write(self, fs, pairs, filter_factory=None, **kw):
        _write_pairs(fs, "t.sst", pairs, table_id=7, filter_factory=filter_factory, **kw)
        return DiskSSTable(fs, "t.sst", filter_factory=filter_factory)

    def test_roundtrip_blocks_fences_metadata(self):
        fs = MemFS()
        pairs = [(encode_u64(i), i) for i in range(300)]
        table = self._write(fs, pairs, block_entries=64)
        assert table.table_id == 7
        assert table.n_entries == 300
        assert table.n_blocks == 5
        assert table.min_key == encode_u64(0) and table.max_key == encode_u64(299)
        assert table.fences[1] == encode_u64(64)
        assert list(table.items()) == pairs
        assert table.read_block(2)[0] == (encode_u64(128), 128)

    def test_tombstones_survive_serialization(self):
        fs = MemFS()
        pairs = [(b"a", 1), (b"b", TOMBSTONE), (b"c", 3)]
        table = self._write(fs, pairs)
        assert table.read_block(0)[1][1] is TOMBSTONE

    def test_surf_filter_roundtrip(self):
        fs = MemFS()
        pairs = [(encode_u64(i * 3), i) for i in range(200)]
        table = self._write(fs, pairs, filter_factory=surf_factory)
        assert table.filter is not None
        assert table.may_contain(encode_u64(30))
        assert table.filter_seek(encode_u64(0)) is not None

    def test_bloom_filter_roundtrip(self):
        fs = MemFS()
        pairs = [(encode_u64(i * 3), i) for i in range(200)]
        table = self._write(fs, pairs, filter_factory=bloom_factory)
        assert all(table.may_contain(encode_u64(i * 3)) for i in range(200))
        misses = sum(table.may_contain(encode_u64(10**9 + i)) for i in range(200))
        assert misses < 40  # one-sided error, roughly the configured FPR

    def test_unknown_filter_rebuilt_from_keys(self):
        fs = MemFS()

        class OddFilter:
            def __init__(self, keys):
                self.keys = set(keys)

            def may_contain(self, key):
                return key in self.keys

            def memory_bytes(self):
                return 0

        pairs = [(encode_u64(i), i) for i in range(50)]
        table = self._write(fs, pairs, filter_factory=lambda ks: OddFilter(ks))
        assert table.may_contain(encode_u64(7))
        assert not table.may_contain(encode_u64(99))

    def test_corrupt_block_raises_on_read(self):
        fs = MemFS()
        pairs = [(encode_u64(i), i) for i in range(128)]
        _write_pairs(fs, "t.sst", pairs, table_id=0, block_entries=64)
        table = DiskSSTable(fs, "t.sst")
        data = bytearray(fs.read("t.sst"))
        data[20] ^= 0xFF  # inside block 0's payload
        f = fs.create("t.sst")
        f.append(bytes(data))
        f.sync()
        table = DiskSSTable(fs, "t.sst")
        with pytest.raises(disk_format.FrameError):
            table.read_block(0)

    def test_old_block_layout_rejected(self):
        """A table in the earlier per-entry layout (``<u32 klen> key
        <u32 vlen> value`` per entry, magic ``LSMS``) must be refused
        as not an SSTable, never parsed as columns."""
        pairs = [(b"a", 1), (b"b", b"xy")]
        entries = bytearray(struct.pack("<I", len(pairs)))
        for key, value in pairs:
            val = disk_format.encode_value(value)
            entries += struct.pack("<I", len(key)) + key
            entries += struct.pack("<I", len(val)) + val
        block = disk_format.frame(bytes(entries))
        filter_frame = disk_format.frame(b"\x00")
        footer = b"".join([
            disk_format.pack_u64(3),
            disk_format.pack_u64(len(pairs)),
            disk_format.pack_bytes(b"a"),
            disk_format.pack_bytes(b"b"),
            disk_format.pack_u64(len(block)),
            disk_format.pack_u64(len(filter_frame)),
            disk_format.pack_u64(1),
            disk_format.pack_u64(0),
            disk_format.pack_u64(len(block)),
            disk_format.pack_bytes(b"a"),
        ])
        footer_frame = disk_format.frame(footer)
        fs = MemFS()
        f = fs.create("old.sst")
        f.append(block + filter_frame + footer_frame)
        f.append(struct.pack("<I", len(footer_frame)) + b"LSMS")
        f.sync()
        with pytest.raises(disk_format.FrameError, match="not an SSTable"):
            DiskSSTable(fs, "old.sst")
        lazy = DiskSSTable(fs, "old.sst", table_id=3)  # manifest path: no I/O yet
        with pytest.raises(disk_format.FrameError, match="not an SSTable"):
            lazy.read_block(0)

    def test_truncated_file_rejected_at_open(self):
        fs = MemFS()
        _write_pairs(fs, "t.sst", [(b"a", 1)], table_id=0)
        blob = fs.read("t.sst")
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            f = fs.create("cut.sst")
            f.append(blob[:cut])
            f.sync()
            with pytest.raises(disk_format.FrameError):
                DiskSSTable(fs, "cut.sst")


# -- engine-level durability -------------------------------------------------


CONFIG = dict(
    memtable_entries=8,
    sstable_entries=32,
    block_entries=4,
    level0_limit=2,
    block_cache_blocks=16,
    wal_sync_every=3,
)


def _workload(n_ops=120, seed=5, key_space=40):
    """Seeded put/delete mix over a small hot key range."""
    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        key = encode_u64(rng.randrange(key_space))
        if rng.random() < 0.3:
            ops.append(("delete", key, None))
        else:
            ops.append(("put", key, i))
    return ops


def _model_after(ops, k):
    """Reference dict state after the first ``k`` ops."""
    model = {}
    for op, key, value in ops[:k]:
        if op == "put":
            model[key] = value
        else:
            model.pop(key, None)
    return model


def _apply(db, ops):
    """Run ops until done or power failure; returns ops applied."""
    applied = 0
    for op, key, value in ops:
        if op == "put":
            db.put(key, value)
        else:
            db.delete(key)
        applied += 1
    return applied


def _assert_state_matches(db, model, key_space=40):
    for i in range(key_space):
        key = encode_u64(i)
        assert db.get(key) == model.get(key)
    live = sorted(model.items())
    assert db.scan(b"", len(live) + 5) == live


class TestRecovery:
    def test_clean_close_and_reopen(self):
        fs = MemFS()
        ops = _workload(200)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        _assert_state_matches(db2, _model_after(ops, 200))
        assert db2.last_seq == 200

    def test_reopen_without_close_recovers_synced_prefix(self):
        fs = MemFS()
        ops = _workload(150)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        acked = db.last_acked_seq  # no close(): the unsynced tail may vanish
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        assert db2.last_seq >= acked
        _assert_state_matches(db2, _model_after(ops, db2.last_seq))

    def test_recovered_engine_continues_and_recovers_again(self):
        fs = MemFS()
        ops = _workload(100, seed=6)
        more = _workload(100, seed=7)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db2, more)
        db2.close()
        db3 = LSMTree.open("db", fs=fs, **CONFIG)
        expected = _model_after(ops + more, 200)
        _assert_state_matches(db3, expected)
        assert db3.last_seq == 200

    def test_table_ids_unique_across_recovery(self):
        """A recovered engine must never reuse a table id (they key the
        block cache and name the files)."""
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, _workload(100, seed=8))
        ids_before = {t.table_id for level in db.levels for t in level}
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db2, _workload(100, seed=9))
        ids_after = {t.table_id for level in db2.levels for t in level}
        # New tables written post-recovery got fresh ids.
        new_ids = ids_after - ids_before
        assert new_ids and max(ids_before, default=-1) < min(new_ids)

    def test_two_engines_do_not_share_table_ids_state(self):
        """Engine-scoped allocators: two independent engines may use the
        same ids without either skipping numbers (the old class-global
        counter double-counted across engines)."""
        a = LSMTree(memtable_entries=4)
        b = LSMTree(memtable_entries=4)
        for i in range(8):
            a.put(encode_u64(i), i)
            b.put(encode_u64(i), i)
        a_ids = sorted(t.table_id for level in a.levels for t in level)
        b_ids = sorted(t.table_id for level in b.levels for t in level)
        assert a_ids == b_ids == [0, 1]

    def test_orphan_files_garbage_collected(self):
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, _workload(60, seed=10))
        db.close()
        # Simulate a crashed flush: an orphan table and a stale tmp.
        _write_pairs(fs, "db/sst-00009999.sst", [(b"zz", 1)], table_id=9999)
        f = fs.create("db/MANIFEST-00099999.tmp")
        f.append(b"junk")
        f.sync()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        names = fs.listdir("db")
        assert "sst-00009999.sst" not in names
        assert "MANIFEST-00099999.tmp" not in names
        assert db2.get(b"zz") is None

    def test_real_filesystem_roundtrip(self, tmp_path):
        path = str(tmp_path / "db")
        ops = _workload(200, seed=11)
        db = LSMTree.open(path, **CONFIG)
        _apply(db, ops)
        db.close()
        db2 = LSMTree.open(path, **CONFIG)
        _assert_state_matches(db2, _model_after(ops, 200))
        assert isinstance(db2._fs, OsFileSystem)

    def test_durable_rejects_unstorable_values(self):
        db = LSMTree.open("db", fs=MemFS(), **CONFIG)
        with pytest.raises(TypeError):
            db.put(b"k", 3.14)

    def test_recovery_with_filters(self):
        for factory in (bloom_factory, surf_factory):
            fs = MemFS()
            ops = _workload(150, seed=12)
            db = LSMTree.open("db", fs=fs, filter_factory=factory, **CONFIG)
            _apply(db, ops)
            db.close()
            db2 = LSMTree.open("db", fs=fs, filter_factory=factory, **CONFIG)
            _assert_state_matches(db2, _model_after(ops, 150))
            assert db2.filter_memory_bytes() > 0


class TestKillAtEverySyncPoint:
    """The tentpole acceptance test: for every injected crash point and
    torn-write variant, recovery lands on a state that contains every
    acknowledged write and is an exact prefix of the op sequence."""

    N_OPS = 120

    def _count_sync_points(self, ops):
        fs = FaultFS(fail_at=None)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        db.close()
        return fs.sync_points

    def _crash_run(self, ops, point):
        """Run until power fails at ``point``; returns (fs, started, acked).

        ``started`` counts ops *begun*, including the one in flight at
        the crash: its WAL record may exist, so (like any real database)
        recovery may legitimately restore it even though the caller
        never got an acknowledgement.
        """
        fs = FaultFS(fail_at=point)
        started = 0
        acked = 0
        try:
            db = LSMTree.open("db", fs=fs, **CONFIG)
            for op, key, value in ops:
                started += 1
                if op == "put":
                    db.put(key, value)
                else:
                    db.delete(key)
                acked = db.last_acked_seq
            db.close()
        except PowerFailure:
            # ``db`` may have died mid-constructor; its watermark (if
            # any) was last read after the previous successful op.
            pass
        return fs, started, acked

    def test_every_crash_point_every_torn_mode(self):
        ops = _workload(self.N_OPS, seed=13)
        total_points = self._count_sync_points(ops)
        assert total_points > 30  # the workload must actually exercise flushes
        for point in range(1, total_points + 1):
            fs, started, acked = self._crash_run(ops, point)
            assert fs.crashed or started == len(ops)
            for mode in CRASH_MODES:
                view = fs.crashed_view(mode)
                recovered = LSMTree.open("db", fs=view, **CONFIG)
                k = recovered.last_seq
                # (a) nothing newer than the crash, nothing invented:
                #     the recovered state is an exact op-prefix state.
                assert k <= started, (
                    f"point {point} mode {mode}: recovered seq {k} beyond "
                    f"started {started}"
                )
                # (b) every acknowledged write survived.
                assert k >= acked, (
                    f"point {point} mode {mode} ({fs.crash_label}): lost "
                    f"acked writes (recovered {k} < acked {acked})"
                )
                expected = _model_after(ops, k)
                for key in {key for _, key, _ in ops}:
                    got = recovered.get(key)
                    assert got == expected.get(key), (
                        f"point {point} mode {mode}: key {key!r} diverged"
                    )
                recovered.close()

    def test_crash_during_recovery_is_safe(self):
        """Recovery itself writes (re-log + manifest): killing it at any
        point must leave a directory the next recovery still opens."""
        ops = _workload(80, seed=14)
        fs = FaultFS(fail_at=None)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        acked = db.last_acked_seq
        base = fs.crashed_view("keep")  # un-closed: WAL tail intact

        def fresh_faultfs(fail_at):
            f = FaultFS(fail_at=fail_at)
            f._dirs = set(base._dirs)
            for path, mf in base._files.items():
                nf = f.create(path)
                nf.append(mf.content)
            # Copies land fully durable without consuming crash points.
            for mf in f._files.values():
                mf.durable, mf.volatile = bytes(mf.volatile), bytearray()
            return f

        # How many durability points does one clean recovery use?
        clean = fresh_faultfs(None)
        LSMTree.open("db", fs=clean, **CONFIG).close()
        points = clean.sync_points
        assert points > 0
        for point in range(1, points + 1):
            f = fresh_faultfs(point)
            try:
                LSMTree.open("db", fs=f, **CONFIG)
                crashed = False
            except PowerFailure:
                crashed = True
            view = f.crashed_view("drop")
            final = LSMTree.open("db", fs=view, **CONFIG)
            assert final.last_seq >= acked
            expected = _model_after(ops, final.last_seq)
            _assert_state_matches(final, expected)
            if not crashed:
                break


BG_CONFIG = dict(CONFIG, background=True, max_immutables=2, slowdown_sleep=0.0)

#: Sweep guard: the background run's durability-point count varies with
#: thread interleaving, so the matrix probes points upward until a run
#: survives uncrashed instead of pre-counting; this bounds the sweep if
#: something regresses into generating unbounded sync traffic.
MAX_BG_POINTS = 600


class TestKillDuringBackgroundFlushAndCompaction:
    """The background counterpart of :class:`TestKillAtEverySyncPoint`.

    With ``background=True`` every SSTable fsync, manifest install, and
    CURRENT rename happens on the flusher/compactor threads while the
    writer keeps appending WAL records — so sweeping the crash counter
    kills the engine *inside* background flushes and compactions, at
    points the inline matrix can never reach.  Interleaving moves where
    each numbered point lands between runs; the invariants hold at
    every point regardless:

    (a) recovery never resurrects more than the ops actually started;
    (b) no write whose acknowledgement was observed is ever lost;
    (c) the recovered state is an exact op-prefix state;
    (d) orphan compaction/flush outputs (tables the crashed manifest
        never referenced, stale tmps) are GC'd at open.
    """

    N_OPS = 100

    def _crash_run(self, ops, point):
        """Run the workload on a background engine until power fails at
        ``point`` (or to completion); returns (fs, started, acked)."""
        fs = FaultFS(fail_at=point)
        started = 0
        acked = 0
        db = None
        try:
            db = LSMTree.open("db", fs=fs, **BG_CONFIG)
            for op, key, value in ops:
                started += 1
                if op == "put":
                    db.put(key, value)
                else:
                    db.delete(key)
                # The ack floor also rises asynchronously (each freeze
                # fsyncs the old segment), so track the max observed.
                acked = max(acked, db.last_acked_seq)
            db.wait_idle()
            db.close()
        except PowerFailure:
            pass
        finally:
            if db is not None:
                try:
                    db.close()
                except PowerFailure:
                    # Threads are joined before close touches the fs, so
                    # a dead fs here leaves nothing running.
                    pass
        return fs, started, acked

    def _check_recovery(self, fs, ops, started, acked, point):
        for mode in CRASH_MODES:
            view = fs.crashed_view(mode)
            recovered = LSMTree.open("db", fs=view, **CONFIG)
            k = recovered.last_seq
            assert k <= started, (
                f"point {point} mode {mode} ({fs.crash_label}): recovered "
                f"seq {k} beyond started {started}"
            )
            assert k >= acked, (
                f"point {point} mode {mode} ({fs.crash_label}): lost acked "
                f"writes (recovered {k} < acked {acked})"
            )
            expected = _model_after(ops, k)
            for key in {key for _, key, _ in ops}:
                assert recovered.get(key) == expected.get(key), (
                    f"point {point} mode {mode}: key {key!r} diverged"
                )
            # (d) the open GC'd everything the recovered manifest does
            # not reference: no orphan compaction/flush outputs, no tmps.
            referenced = {
                f"sst-{t.table_id:08d}.sst"
                for level in recovered.levels
                for t in level
            }
            names = view.listdir("db")
            orphans = [
                n for n in names if n.startswith("sst-") and n not in referenced
            ]
            assert not orphans, (
                f"point {point} mode {mode}: orphan tables survived open: "
                f"{orphans}"
            )
            assert not [n for n in names if n.endswith(".tmp")], (
                f"point {point} mode {mode}: stale tmp files survived open"
            )
            recovered.close()

    def test_every_crash_point_every_torn_mode(self):
        ops = _workload(self.N_OPS, seed=21)
        labels = []
        point = 0
        while point < MAX_BG_POINTS:
            point += 1
            fs, started, acked = self._crash_run(ops, point)
            if not fs.crashed:
                # fail_at was never reached: the whole workload, every
                # background flush/compaction, and close ran clean.
                assert started == len(ops)
                break
            labels.append(fs.crash_label)
            self._check_recovery(fs, ops, started, acked, point)
        else:
            raise AssertionError(
                f"sweep did not terminate within {MAX_BG_POINTS} points"
            )
        # The sweep must actually have died inside background work:
        # table fsyncs and manifest/CURRENT installs only ever happen on
        # the flusher/compactor threads in background mode.
        assert any("sst-" in lbl for lbl in labels), labels
        assert any("CURRENT" in lbl for lbl in labels), labels
        assert any("wal-" in lbl for lbl in labels), labels

    def test_background_and_inline_recover_identically(self):
        """A directory written by a background engine is just an LSM
        directory: an inline engine recovers it to the same state, and
        vice versa (the manifest/WAL formats carry no mode)."""
        ops = _workload(self.N_OPS, seed=22)
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **BG_CONFIG)
        _apply(db, ops)
        db.wait_idle()
        db.close()
        expected = _model_after(ops, len(ops))
        for config in (CONFIG, BG_CONFIG):
            recovered = LSMTree.open("db", fs=fs, **config)
            _assert_state_matches(recovered, expected)
            assert recovered.last_seq == len(ops)
            recovered.close()


# -- batched writes (group commit) -------------------------------------------


class TestWriteBatch:
    def test_batch_is_one_group_commit(self):
        """A write_batch of any size costs exactly one WAL fsync and
        acknowledges every record in it at once."""
        fs = FaultFS()
        db = LSMTree.open("db", fs=fs, memtable_entries=64, wal_sync_every=32)
        base = fs.sync_points
        db.write_batch([(encode_u64(i), i) for i in range(20)])
        assert fs.sync_points == base + 1
        assert db.last_acked_seq == 20

    def test_batch_with_tombstones_recovers(self):
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        db.write_batch([(encode_u64(i), i) for i in range(10)])
        db.write_batch(
            [(encode_u64(3), TOMBSTONE), (encode_u64(10), 100), (encode_u64(4), TOMBSTONE)]
        )
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        assert db2.get(encode_u64(3)) is None
        assert db2.get(encode_u64(4)) is None
        assert db2.get(encode_u64(5)) == 5
        assert db2.get(encode_u64(10)) == 100
        assert db2.last_seq == 13

    def test_unstorable_value_aborts_batch_unchanged(self):
        """Encoding happens before any byte reaches the WAL: a bad
        value must leave the log, the seq counter, and the memtable
        exactly as they were."""
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        db.put(b"before", 1)
        seq = db.last_seq
        with pytest.raises(TypeError):
            db.write_batch([(b"good", 2), (b"bad", 1.5)])
        assert db.last_seq == seq
        assert db.get(b"good") is None
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        assert db2.get(b"good") is None
        assert db2.get(b"before") == 1
        assert db2.last_seq == seq

    def test_crash_right_after_batch_keeps_whole_batch(self):
        fs = FaultFS(fail_at=None)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        db.write_batch([(encode_u64(i), i) for i in range(6)])
        acked = db.last_acked_seq
        assert acked == 6
        for mode in CRASH_MODES:
            view = fs.crashed_view(mode)
            recovered = LSMTree.open("db", fs=view, **CONFIG)
            assert recovered.last_seq >= acked
            for i in range(6):
                assert recovered.get(encode_u64(i)) == i
            recovered.close()

    def test_empty_batch_is_free(self):
        fs = FaultFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        base = fs.sync_points
        db.write_batch([])
        assert fs.sync_points == base and db.last_seq == 0


# -- encoded-entry compaction -----------------------------------------------


class TestEncodedCompaction:
    """Durable compaction merges ``(key, encoded value)`` slices; the
    in-memory engine merges Python values.  Same ops, same tables."""

    CONFIG = dict(
        memtable_entries=8,
        sstable_entries=16,
        block_entries=4,
        level0_limit=2,
        level_fanout=2,
    )

    @staticmethod
    def _mixed_workload(n_ops, seed, key_space=50):
        rng = random.Random(seed)
        values = [b"", b"\x00blob", "", "ünï", 0, -(2**63), 2**63 - 1]
        ops = []
        for i in range(n_ops):
            key = encode_u64(rng.randrange(key_space))
            if rng.random() < 0.3:
                ops.append(("delete", key, None))
            else:
                ops.append(("put", key, rng.choice(values + [i, f"v{i}"])))
        return ops

    @staticmethod
    def _layout(db):
        return [[list(table.items()) for table in level] for level in db.levels]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_durable_tables_match_in_memory_tables(self, seed, monkeypatch):
        dropped = []
        merge = LSMTree._merge_tables

        def spy(self, newer, older, drop_tombstones):
            keys, values = merge(self, newer, older, drop_tombstones)
            if drop_tombstones and self.durable:
                seen = {k for table in newer + older for k, _ in table.items()}
                dropped.append(len(seen) - len(keys))
            return keys, values

        monkeypatch.setattr(LSMTree, "_merge_tables", spy)
        ops = self._mixed_workload(900, seed)
        durable = LSMTree.open("db", fs=MemFS(), **self.CONFIG)
        memory = LSMTree(**self.CONFIG)
        _apply(durable, ops)
        _apply(memory, ops)
        assert durable.compaction_count == memory.compaction_count > 0
        # A bottom-level compaction really dropped tombstones.
        assert sum(dropped) > 0
        layout = self._layout(durable)
        assert layout == self._layout(memory)
        assert all(v is not TOMBSTONE for table in layout[-1] for _, v in table)
        model = _model_after(ops, len(ops))
        for i in range(50):
            assert durable.get(encode_u64(i)) == model.get(encode_u64(i))
        # And the encoded tables read back identically after recovery.
        durable.close()
        reopened = LSMTree.open("db", fs=durable.fs, **self.CONFIG)
        assert self._layout(reopened) == layout
