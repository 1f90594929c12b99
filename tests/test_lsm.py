"""Tests for the LSM-tree engine and its filter integrations (Ch. 4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import BloomFilter
from repro.lsm import LSMTree, TOMBSTONE, SSTable
from repro.surf import surf_base, surf_real
from repro.workloads import encode_u64, random_u64_keys
from repro.workloads.sensors import (
    closed_seek_range_ns,
    generate_sensor_events,
    make_key,
    split_key,
)


def bloom_factory(keys):
    return BloomFilter(keys, bits_per_key=14)


def surf_factory(keys):
    return surf_real(sorted(keys), real_bits=4)


class TestSSTable:
    def test_blocks_and_fences(self):
        pairs = [(encode_u64(i), i) for i in range(300)]
        table = SSTable(pairs, block_entries=64)
        assert len(table.blocks) == 5
        assert table.fences[0] == encode_u64(0)
        assert table.block_for(encode_u64(100)) == 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SSTable([(b"b", 1), (b"a", 2)])
        with pytest.raises(ValueError):
            SSTable([])

    def test_overlaps(self):
        table = SSTable([(b"d", 1), (b"m", 2)])
        assert table.overlaps(b"a", b"e")
        assert table.overlaps(b"e", b"z")
        assert not table.overlaps(b"n", b"z")
        assert not table.overlaps(b"a", b"c")


class TestLSMBasics:
    def make(self, **kw):
        return LSMTree(memtable_entries=64, sstable_entries=256, **kw)

    def test_put_get_memtable(self):
        lsm = self.make()
        lsm.put(b"k", 1)
        assert lsm.get(b"k") == 1
        assert lsm.io.block_reads == 0  # memtable read: no I/O

    def test_get_after_flush(self):
        lsm = self.make()
        for i in range(200):
            lsm.put(encode_u64(i), i)
        lsm.flush_memtable()
        for i in range(0, 200, 17):
            assert lsm.get(encode_u64(i)) == i

    def test_overwrite_newest_wins(self):
        lsm = self.make()
        lsm.put(b"k", 1)
        lsm.flush_memtable()
        lsm.put(b"k", 2)
        assert lsm.get(b"k") == 2
        lsm.flush_memtable()
        assert lsm.get(b"k") == 2

    def test_delete_tombstone(self):
        lsm = self.make()
        lsm.put(b"k", 1)
        lsm.flush_memtable()
        lsm.delete(b"k")
        assert lsm.get(b"k") is None
        lsm.flush_memtable()
        assert lsm.get(b"k") is None

    def test_compaction_creates_levels(self):
        lsm = self.make(level0_limit=2)
        for i in range(2000):
            lsm.put(encode_u64(i), i)
        lsm.flush_memtable()
        assert len(lsm.levels) >= 2
        # Level >= 1 tables are disjoint and sorted.
        for level in lsm.levels[1:]:
            for a, b in zip(level, level[1:]):
                assert a.max_key < b.min_key

    def test_everything_readable_after_compaction(self):
        lsm = self.make(level0_limit=2)
        keys = random_u64_keys(3000, seed=100)
        for i, k in enumerate(keys):
            lsm.put(k, i)
        lsm.flush_memtable()
        for i in range(0, len(keys), 97):
            assert lsm.get(keys[i]) == i

    def test_seek_ordering(self):
        lsm = self.make(level0_limit=2)
        keys = sorted(random_u64_keys(1000, seed=101))
        for i, k in enumerate(keys):
            lsm.put(k, i)
        lsm.flush_memtable()
        for probe_idx in range(0, 900, 111):
            entry = lsm.seek(keys[probe_idx])
            assert entry is not None and entry[0] == keys[probe_idx]
        # Seek strictly between two keys.
        entry = lsm.seek(keys[5] + b"\x00")
        assert entry is not None and entry[0] == keys[6]

    def test_closed_seek_bound(self):
        lsm = self.make()
        lsm.put(encode_u64(100), 1)
        lsm.flush_memtable()
        assert lsm.seek(encode_u64(50), encode_u64(60)) is None
        assert lsm.seek(encode_u64(50), encode_u64(200)) is not None

    def test_scan(self):
        lsm = self.make(level0_limit=2)
        keys = sorted(random_u64_keys(500, seed=102))
        for i, k in enumerate(keys):
            lsm.put(k, i)
        got = [k for k, _ in lsm.scan(keys[10], 20)]
        assert got == keys[10:30]

    def test_scan_skips_deleted(self):
        lsm = self.make()
        for i in range(20):
            lsm.put(encode_u64(i), i)
        lsm.flush_memtable()
        lsm.delete(encode_u64(5))
        got = [k for k, _ in lsm.scan(encode_u64(4), 3)]
        assert got == [encode_u64(4), encode_u64(6), encode_u64(7)]

    def test_count(self):
        lsm = self.make(level0_limit=2)
        for i in range(1000):
            lsm.put(encode_u64(i), i)
        lsm.flush_memtable()
        got = lsm.count(encode_u64(100), encode_u64(200))
        assert abs(got - 100) <= 2 * len(lsm.levels) * 4


class TestFilterIntegration:
    def _load(self, filter_factory, n=2000):
        lsm = LSMTree(
            memtable_entries=128,
            sstable_entries=512,
            level0_limit=2,
            block_cache_blocks=8,
            filter_factory=filter_factory,
        )
        keys = random_u64_keys(n, seed=103)
        for i, k in enumerate(keys):
            lsm.put(k, i)
        lsm.flush_memtable()
        return lsm, keys

    def test_filters_cut_point_query_io(self):
        """Absent-key Gets: filters avoid block fetches (Figure 4.8)."""
        misses = random_u64_keys(500, seed=104)
        ios = {}
        for name, factory in [("none", None), ("bloom", bloom_factory), ("surf", surf_factory)]:
            lsm, _ = self._load(factory)
            lsm.io.reset()
            for k in misses:
                lsm.get(k)
            ios[name] = lsm.io.block_reads
        assert ios["bloom"] < ios["none"] * 0.2
        assert ios["surf"] < ios["none"] * 0.5

    def test_surf_cuts_closed_seek_io(self):
        """Empty Closed-Seeks: only SuRF avoids I/O (Figure 4.9)."""
        import numpy as np

        rng = np.random.default_rng(105)
        probes = []
        for _ in range(300):
            base = int(rng.integers(0, 2**63))
            probes.append((encode_u64(base), encode_u64(base + 2**20)))
        ios = {}
        for name, factory in [("none", None), ("bloom", bloom_factory), ("surf", surf_factory)]:
            lsm, _ = self._load(factory)
            lsm.io.reset()
            for lo, hi in probes:
                lsm.seek(lo, hi)
            ios[name] = lsm.io.block_reads
        assert ios["surf"] < ios["none"] * 0.5
        assert ios["bloom"] > ios["none"] * 0.8  # Bloom cannot help ranges

    def test_no_false_negatives_with_filters(self):
        lsm, keys = self._load(surf_factory)
        for i in range(0, len(keys), 59):
            assert lsm.get(keys[i]) == i
        lo = sorted(keys)[100]
        assert lsm.seek(lo) is not None

    def test_filter_memory_reported(self):
        lsm, _ = self._load(surf_factory)
        assert lsm.filter_memory_bytes() > 0


class TestSensors:
    def test_keys_sorted_and_structured(self):
        ds = generate_sensor_events(n_sensors=8, events_per_sensor=50)
        assert ds.keys == sorted(ds.keys)
        ts, sensor = split_key(ds.keys[0])
        assert 0 <= sensor < 8
        assert ts >= 0

    def test_key_roundtrip(self):
        key = make_key(123456789, 42)
        assert split_key(key) == (123456789, 42)

    def test_closed_seek_range_math(self):
        ds = generate_sensor_events(n_sensors=8, events_per_sensor=100)
        r50 = closed_seek_range_ns(ds, 0.5)
        r99 = closed_seek_range_ns(ds, 0.99)
        assert r99 < r50  # smaller range = more likely empty

    def test_empty_fraction_validation(self):
        ds = generate_sensor_events(n_sensors=2, events_per_sensor=10)
        with pytest.raises(ValueError):
            closed_seek_range_ns(ds, 1.5)


class TestLsmProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get"]),
                st.integers(0, 50),
            ),
            min_size=10,
            max_size=150,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, ops):
        lsm = LSMTree(memtable_entries=8, sstable_entries=32, level0_limit=2)
        model: dict[bytes, int] = {}
        for i, (op, raw) in enumerate(ops):
            key = encode_u64(raw)
            if op == "put":
                lsm.put(key, i)
                model[key] = i
            elif op == "delete":
                lsm.delete(key)
                model.pop(key, None)
            else:
                assert lsm.get(key) == model.get(key)
        for raw in range(51):
            key = encode_u64(raw)
            assert lsm.get(key) == model.get(key)


class TestRegressions:
    """Regressions for the three LSM correctness bugs fixed alongside
    the durable engine work."""

    def test_seek_over_100k_tombstones_no_recursion(self):
        """``seek`` used to recurse once per tombstone, so a run of a
        few thousand contiguous tombstones blew the stack.  It must now
        skip the run iteratively, reading each block at most once."""
        lsm = LSMTree(
            memtable_entries=4096,
            sstable_entries=16384,
            block_entries=1024,
            level0_limit=50,  # keep tombstones alive: no bottom-level drop
        )
        n = 100_000
        for i in range(n):
            lsm.put(encode_u64(i), i)
        for i in range(n):
            lsm.delete(encode_u64(i))
        live_key = encode_u64(n + 5)
        lsm.put(live_key, 777)
        lsm.flush_memtable()
        lsm.io.reset()
        assert lsm.seek(encode_u64(0)) == (live_key, 777)
        # Bounded I/O: at most one read per block along the skip (each
        # key exists twice across runs: its put and its tombstone) plus
        # a heap-fill read per table — not one seek restart per
        # tombstone, which would be O(n) reads.
        max_blocks = 3 * (n // 1024) + 60
        assert lsm.io.block_reads + lsm.io.cache_hits <= max_blocks
        # And the bounded variant returns None without scanning past high.
        assert lsm.seek(encode_u64(0), encode_u64(n // 2)) is None

    def test_seek_tombstone_run_with_interleaved_levels(self):
        """Tombstones in newer runs must shadow live keys in older runs
        throughout the iterative skip."""
        lsm = LSMTree(memtable_entries=8, sstable_entries=32, level0_limit=2)
        for i in range(200):
            lsm.put(encode_u64(i), i)
        for i in range(150):
            lsm.delete(encode_u64(i))
        lsm.flush_memtable()
        assert lsm.seek(encode_u64(0)) == (encode_u64(150), 150)

    @staticmethod
    def _two_l0_tables(older, newer):
        """An in-memory engine whose L0 holds exactly ``older`` then
        ``newer`` (each a dict; ``None`` marks a delete), filtered by
        SuRF-Base so every filter prefix is as short as its table
        allows."""
        lsm = LSMTree(
            memtable_entries=1000,
            level0_limit=10,
            filter_factory=lambda keys: surf_base(sorted(keys)),
        )
        for table in (older, newer):
            for key, value in table.items():
                if value is None:
                    lsm.delete(key)
                else:
                    lsm.put(key, value)
            lsm.flush_memtable()
        assert [len(level) for level in lsm.levels][:1] == [2]
        return lsm

    def test_filtered_seek_newer_tombstone_behind_longer_prefix(self):
        """The older table's prefix for ``apple`` is ``a`` (its only
        a-key); the newer table, which deletes ``apple``, needs the
        full ``apple`` to tell it from ``apply``.  Visiting in prefix
        order reaches the older live ``apple`` first; the tie must
        still go to the newer table's tombstone."""
        lsm = self._two_l0_tables(
            older={b"apple": 1, b"banana": 2},
            newer={b"apple": None, b"apply": 3},
        )
        assert lsm.seek(b"ap") == (b"apply", 3)
        assert lsm.seek(b"ap", b"applf") is None

    def test_filtered_seek_older_tombstone_behind_longer_prefix(self):
        """The mirror case: the newer table holds the live ``apple``
        under the short prefix, the older one a tombstone for it."""
        lsm = self._two_l0_tables(
            older={b"apple": None, b"apply": 3},
            newer={b"apple": 1, b"banana": 2},
        )
        assert lsm.seek(b"ap") == (b"apple", 1)

    def test_filtered_seek_fetches_winner_block_first(self):
        """Prefix order puts the winning table first, so every later
        candidate is pruned by its prefix: one block access per seek."""
        lsm = LSMTree(
            memtable_entries=64,
            level0_limit=10,
            filter_factory=lambda keys: surf_base(sorted(keys)),
        )
        # Four L0 tables with interleaved keys: the winner of a seek
        # is in a different table from one seek to the next.
        for table in range(4):
            for i in range(64):
                lsm.put(encode_u64(4 * i + table), i)
            lsm.flush_memtable()
        lsm.io.reset()
        for i in range(200):
            assert lsm.seek(encode_u64(i))[0] == encode_u64(i)
        assert lsm.io.block_reads + lsm.io.cache_hits == 200

    def test_filtered_seek_matches_model_under_truncated_prefixes(self):
        """Random puts and deletes over a prefix-heavy key space, many
        overlapping tables, SuRF-Base filters: every seek agrees with a
        dict model."""
        rng = random.Random(11)
        alphabet = [b"a", b"ab", b"abc", b"abd", b"b", b"ba", b"bab"]
        space = sorted({x + y for x in alphabet for y in alphabet})
        lsm = LSMTree(
            memtable_entries=6,
            sstable_entries=12,
            level0_limit=4,
            level_fanout=2,
            filter_factory=lambda keys: surf_base(sorted(keys)),
        )
        model: dict[bytes, int] = {}
        for step in range(1500):
            key = rng.choice(space)
            if rng.random() < 0.4:
                lsm.delete(key)
                model.pop(key, None)
            else:
                lsm.put(key, step)
                model[key] = step
            low = rng.choice(space)[: rng.randint(1, 4)]
            live = sorted(k for k in model if k >= low)
            expected = (live[0], model[live[0]]) if live else None
            assert lsm.seek(low) == expected, (step, low)

    def test_compaction_evicts_dead_tables_from_block_cache(self):
        """Compaction replaces tables; their cached blocks used to squat
        in the CLOCK cache under dead (table_id, block) keys until the
        hand happened to pass.  They must be evicted eagerly."""
        lsm = LSMTree(
            memtable_entries=8,
            sstable_entries=32,
            block_entries=4,
            level0_limit=2,
            block_cache_blocks=256,
        )
        for i in range(400):
            lsm.put(encode_u64(i % 60), i)
            # Touch reads so blocks of current tables enter the cache.
            if i % 7 == 0:
                lsm.get(encode_u64(i % 60))
        live_ids = {t.table_id for level in lsm.levels for t in level}
        cached_ids = {key[0] for key in lsm._block_cache._values}
        assert cached_ids <= live_ids, (
            f"dead tables still cached: {sorted(cached_ids - live_ids)}"
        )

    def test_table_ids_engine_scoped(self):
        """Table ids used to come from a process-global class counter:
        two engines interleaving flushes would skip ids and (worse) a
        recovered engine could collide with them.  Each engine now
        allocates its own dense id sequence."""
        a = LSMTree(memtable_entries=4)
        b = LSMTree(memtable_entries=4)
        for i in range(12):
            a.put(encode_u64(i), i)
            b.put(encode_u64(1000 + i), i)
        a_ids = sorted(t.table_id for level in a.levels for t in level)
        b_ids = sorted(t.table_id for level in b.levels for t in level)
        assert a_ids == list(range(len(a_ids)))
        assert b_ids == list(range(len(b_ids)))


class TestBatchOps:
    """Native batch point reads and writes (the serving-layer feed)."""

    def _loaded(self, filter_factory=None, n=400):
        lsm = LSMTree(
            memtable_entries=32,
            sstable_entries=128,
            block_entries=16,
            level0_limit=2,
            filter_factory=filter_factory,
        )
        for i in range(n):
            lsm.put(encode_u64(i), i)
        for i in range(0, n, 7):
            lsm.delete(encode_u64(i))
        return lsm

    @pytest.mark.parametrize("factory", [None, bloom_factory, surf_factory])
    def test_get_many_matches_scalar(self, factory):
        lsm = self._loaded(filter_factory=factory)
        keys = [encode_u64(i) for i in range(0, 500, 3)]
        assert lsm.get_many(keys) == [lsm.get(k) for k in keys]

    def test_get_many_duplicates_and_order(self):
        lsm = self._loaded()
        keys = [encode_u64(1), encode_u64(999), encode_u64(1), encode_u64(7)]
        assert lsm.get_many(keys) == [1, None, 1, None]  # 7 was deleted

    def test_get_many_empty(self):
        assert LSMTree().get_many([]) == []

    def test_get_many_newest_wins_across_levels(self):
        lsm = LSMTree(memtable_entries=4, sstable_entries=8, level0_limit=2)
        for round_ in range(5):
            for i in range(8):
                lsm.put(encode_u64(i), round_ * 100 + i)
        keys = [encode_u64(i) for i in range(8)]
        assert lsm.get_many(keys) == [400 + i for i in range(8)]

    def test_get_many_uses_batch_filter_probes(self):
        """With a Bloom filter, a batch of absent keys should be
        answered almost entirely by vectorized filter probes."""
        lsm = self._loaded(filter_factory=bloom_factory)
        lsm.flush_memtable()
        lsm.io.reset()
        # In-range but never stored (between stored keys), so tables
        # can only be ruled out by their filters, not by key range.
        absent = [encode_u64(i) + b"\x01" for i in range(64)]
        assert lsm.get_many(absent) == [None] * 64
        assert lsm.io.filter_probes > 0
        assert lsm.io.block_reads <= 8  # filters deflect nearly all I/O

    def test_put_many_delete_many(self):
        lsm = LSMTree(memtable_entries=16)
        lsm.put_many([(encode_u64(i), i) for i in range(50)])
        assert lsm.get_many([encode_u64(i) for i in range(50)]) == list(range(50))
        lsm.delete_many([encode_u64(i) for i in range(0, 50, 2)])
        assert lsm.get(encode_u64(2)) is None
        assert lsm.get(encode_u64(3)) == 3
        assert lsm.last_seq == 75  # 50 puts + 25 deletes, one seq each

    def test_write_batch_triggers_flush(self):
        lsm = LSMTree(memtable_entries=8, sstable_entries=32)
        lsm.write_batch([(encode_u64(i), i) for i in range(20)])
        assert sum(len(level) for level in lsm.levels) > 0
        assert lsm.get(encode_u64(19)) == 19

    def test_context_manager_and_idempotent_close(self):
        from repro.testing.faultfs import MemFS

        fs = MemFS()
        with LSMTree.open("db", fs=fs, memtable_entries=8) as lsm:
            lsm.put(b"k", 1)
        lsm.close()  # second close: no error, no double WAL close
        with LSMTree.open("db", fs=fs, memtable_entries=8) as again:
            assert again.get(b"k") == 1
