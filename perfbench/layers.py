"""Per-layer metrics, measured from outside the program three ways.

1. **Spans** the load generator records around its own client calls
   (:mod:`loadgen`): the client-observed cost of each request.
2. **STATS deltas**: the server's public ``STATS`` opcode is read right
   before and right after every traced closed window, and the deltas
   are summed.  Its per-op means are exact over those windows (count
   and total both move), although its power-of-two p99s are not, so
   only means are used.
3. **In-process replay** of the same key stream through each layer's
   public functions, so a layer's cost is the difference between two
   rows: the wire codecs, a durable and an in-memory ``LSMTree`` with
   the served configuration, the default memtable, ``FST.get_many``
   and ``SuRF.lookup_many``.

A metric whose layer the workload does not exercise (GET metrics on a
scan-only mix) is reported as 0; the README lists which.  The
``cluster.*`` rows exist only when a follower runs.
"""

from __future__ import annotations

import asyncio
import bisect
import inspect
import json
import os
import time

from repro.server.client import AsyncKVClient

from stats import mean, percentile
from workloads import make_value

#: name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "protocol.get_codec_us": "us",
    "protocol.scan_codec_us": "us",
    "server.cpu_us_per_op": "us",
    "server.get_us": "us",
    "server.put_us": "us",
    "server.scan_us": "us",
    "server.get_frontend_us": "us",
    "server.get_wire_us": "us",
    "server.put_after_commit_us": "us",
    "shard.get_us": "us",
    "shard.write_us": "us",
    "shard.scan_us": "us",
    "shard.get_batch_mean": "count",
    "shard.write_batch_mean": "count",
    "shard.queue_high_water": "count",
    "shard.overloads": "count",
    "lsm.block_reads_per_get": "count",
    "lsm.cache_hit_rate": "ratio",
    "lsm.filter_probes_per_get": "count",
    "lsm.filter_negative_rate": "ratio",
    "lsm.cache_hits_per_scan": "count",
    "lsm.flushes": "count",
    "lsm.compactions": "count",
    "lsm.stall_s": "s",
    "lsm.slowdowns": "count",
    "lsm.write_amp": "ratio",
    "lsm.get_many_us_per_key": "us",
    "lsm.write_batch_us_per_entry": "us",
    "lsm.scan_us": "us",
    "lsm.seek_us": "us",
    "wal.us_per_entry": "us",
    "memtable.put_many_us_per_entry": "us",
    "memtable.seek_us": "us",
    "fst.get_many_ns_per_key": "ns",
    "surf.lookup_many_ns_per_key": "ns",
    "surf.bits_per_key": "bits",
    "client.get_p50_us": "us",
    "client.get_p99_us": "us",
    "client.put_p50_us": "us",
    "client.put_p99_us": "us",
    "client.scan_p50_us": "us",
    "client.scan_p99_us": "us",
    "client.failed_frac": "ratio",
    "client.throughput_ops_s": "1/s",
    "client.rated_p50_us": "us",
    "client.rated_p95_us": "us",
    "client.late_p99_us": "us",
    "client.retries": "count",
    "trace.overhead_frac": "ratio",
}

#: Reported (on the human-readable lines) only when a follower runs.
CLUSTER = {
    "cluster.follower_apply_us": "us",
    "cluster.applies_per_put": "count",
    "cluster.lag_seq_max": "count",
}

LAG_POLL_S = 0.25


# -- replication link ------------------------------------------------------


async def wait_link_streaming(conn: AsyncKVClient, timeout: float = 30.0) -> None:
    """Block until the primary's follower link votes (state streaming)."""
    deadline = time.monotonic() + timeout
    while True:
        links = (await conn.stats())["cluster"]["replication"]["links"]
        if links and all(link["state"] == "streaming" for link in links):
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"follower link never started streaming: {links}")
        await asyncio.sleep(0.02)


def link_problem(primary_stats: dict | None) -> str | None:
    """Why the replication gate was not in force for the whole run, if
    it was not: a dropped link lets writes ack without the follower."""
    if primary_stats is None:
        return None
    for link in primary_stats["cluster"]["replication"]["links"]:
        if link["state"] != "streaming" or link["reconnects"] or link["resyncs"]:
            return f"follower link not streaming throughout: {link}"
    return None


# -- STATS windows ---------------------------------------------------------

_ENGINE_FIELDS = (
    "block_reads", "cache_hits", "filter_probes", "filter_negatives",
    "flushes", "compactions", "stall_seconds", "slowdowns",
)


def counters(stats: dict) -> dict[str, float]:
    """The cumulative STATS counters this module uses, flattened."""
    out: dict[str, float] = {}
    for op, entry in stats["latency"].items():
        out[f"{op}.count"] = entry["count"]
        out[f"{op}.total_us"] = entry["mean_us"] * entry["count"]
    for kind in ("coalesced_gets", "coalesced_writes"):
        out[f"{kind}.calls"] = stats[kind]["calls"]
        out[f"{kind}.items"] = stats[kind]["items"]
    out["overloads"] = stats["overloads"]
    for field in _ENGINE_FIELDS:
        out[field] = sum(s.get(field, 0) for s in stats.get("shards", []))
    return out


class StatsWindow:
    """Counter deltas summed over one or more STATS windows."""

    def __init__(self) -> None:
        self.delta: dict[str, float] = {}

    def add(self, before: dict, after: dict) -> None:
        b, a = counters(before), counters(after)
        for key, value in a.items():
            self.delta[key] = self.delta.get(key, 0) + value - b.get(key, 0)

    def count(self, op: str) -> float:
        return self.delta.get(f"{op}.count", 0)

    def mean_us(self, op: str) -> float:
        n = self.count(op)
        return self.delta.get(f"{op}.total_us", 0.0) / n if n else 0.0

    def ratio(self, num: str, den: str) -> float:
        d = self.delta.get(den, 0)
        return self.delta.get(num, 0) / d if d else 0.0


class Observer:
    """STATS read at the edges of every traced closed window (one
    `StatsWindow` per server), plus replication-lag polls."""

    @classmethod
    async def start(cls, servers) -> "Observer":
        self = cls()
        self.clients = [await AsyncKVClient.connect(s.host, s.port) for s in servers]
        self.windows = [StatsWindow() for _ in servers]
        self.last: list[dict] = []
        self.lag_max = 0
        self._before: list[dict] = []
        self._poller = None
        return self

    async def begin(self) -> None:
        self._before = [await c.stats() for c in self.clients]
        if len(self.clients) > 1:
            self._poller = asyncio.create_task(self._poll_lag())

    async def end(self) -> None:
        if self._poller is not None:
            self._poller.cancel()
            try:
                await self._poller
            except asyncio.CancelledError:
                pass
        self.last = [await c.stats() for c in self.clients]
        for window, before, after in zip(self.windows, self._before, self.last):
            window.add(before, after)

    async def _poll_lag(self) -> None:
        while True:
            stats = await self.clients[0].stats()
            last = {str(s["shard"]): s.get("last_seq", 0) for s in stats["shards"]}
            for link in stats["cluster"]["replication"]["links"]:
                for shard, durable in link["durable"].items():
                    self.lag_max = max(self.lag_max, last.get(shard, 0) - durable)
            await asyncio.sleep(LAG_POLL_S)

    async def close(self) -> None:
        for c in self.clients:
            await c.close()


# -- in-process replay -----------------------------------------------------


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _chunks(items: list, size: int) -> list[list]:
    size = max(1, size)
    return [items[i : i + size] for i in range(0, len(items), size)]


def replay(run, measured: dict) -> dict[str, float]:
    """Replay the traced closed loop's key stream through each layer's
    public functions in this process.  Returns per-layer rows."""
    from repro.fst import FST
    from repro.lsm import LSMTree
    from repro.lsm.engine import default_memtable
    from repro.server import protocol
    from repro.surf import surf_hash

    ops = measured["closed"].ops
    keys = run.inputs.keys
    sorted_keys = sorted(keys)
    point_keys = [k for kind, k, _ in ops if kind == "get"] or [k for _, k, _ in ops]
    scans = [(k, n) for kind, k, n in ops if kind == "scan"] or [(k, n) for _, k, n in ops]
    load = [(k, make_value(k, 0)) for k in keys]
    writes = [(k, make_value(k, 1)) for kind, k, _ in ops if kind in ("put", "insert")]
    # A read-only mix's write path is the bulk load itself.
    writes_are_load = not writes
    if writes_are_load:
        writes = load
    point_keys, scans, writes = point_keys[:20_000], scans[:300], writes[:100_000]

    # Batch sizes as served: the traced window's means, or the
    # server's lifetime means (the bulk load) where the window had none.
    window = measured["observer"].windows[0]
    last = measured["observer"].last[0]
    get_batch = window.ratio("coalesced_gets.items", "coalesced_gets.calls")
    write_batch = window.ratio("coalesced_writes.items", "coalesced_writes.calls")
    get_batch = max(1, round(get_batch or last["coalesced_gets"]["mean"]))
    write_batch = max(1, round(write_batch or last["coalesced_writes"]["mean"]))

    rows: dict[str, float] = {}
    value = make_value(b"", 0)

    # Wire codecs: request frame out, server parse, response frame back,
    # client parse — one GET (or SCAN) round of protocol work each.
    def get_codec() -> None:
        for i, key in enumerate(point_keys):
            req = protocol.frame(i, protocol.GET, protocol.encode_key(key))
            protocol.parse_length(req[:4])
            _, _, body = protocol.parse_payload(req[4:])
            protocol.decode_key(body)
            resp = protocol.frame(i, protocol.OK, protocol.encode_value_body(value))
            protocol.parse_length(resp[:4])
            protocol.decode_value_body(protocol.parse_payload(resp[4:])[2])

    rows["protocol.get_codec_us"] = _timed(get_codec) / len(point_keys) * 1e6

    scan_pairs = []
    for low, n in scans:
        i = bisect.bisect_left(sorted_keys, low)
        scan_pairs.append((low, n, [(k, value) for k in sorted_keys[i : i + n]]))

    def scan_codec() -> None:
        for i, (low, n, pairs) in enumerate(scan_pairs):
            req = protocol.frame(i, protocol.SCAN, protocol.encode_scan(low, n))
            protocol.parse_length(req[:4])
            protocol.decode_scan(protocol.parse_payload(req[4:])[2])
            resp = protocol.frame(i, protocol.OK, protocol.encode_pairs(pairs))
            protocol.parse_length(resp[:4])
            protocol.decode_pairs(protocol.parse_payload(resp[4:])[2])

    rows["protocol.scan_codec_us"] = _timed(scan_codec) / len(scan_pairs) * 1e6

    # LSM engine with the served configuration, durable and in memory.
    batches = _chunks(writes, write_batch)
    n_writes = sum(len(b) for b in batches)
    write_time = {}
    for mode in ("durable", "memory"):
        path = os.path.join(run.fleet.root, f"replay-{mode}") if mode == "durable" else None
        engine = LSMTree(path=path, background=True)
        try:
            if not writes_are_load:
                for chunk in _chunks(load, 4096):
                    engine.write_batch(chunk)
                engine.wait_idle(120.0)
            t0 = time.perf_counter()
            for batch in batches:
                engine.write_batch(batch)
            write_time[mode] = time.perf_counter() - t0
            if mode == "durable":
                engine.wait_idle(120.0)
                gets = _chunks(point_keys, get_batch)
                rows["lsm.get_many_us_per_key"] = (
                    _timed(lambda: [engine.get_many(g) for g in gets]) / len(point_keys) * 1e6
                )
                rows["lsm.scan_us"] = (
                    _timed(lambda: [engine.scan(low, n) for low, n in scans]) / len(scans) * 1e6
                )
                seeks = [low for low, _ in scans]
                rows["lsm.seek_us"] = (
                    _timed(lambda: [engine.seek(low) for low in seeks]) / len(seeks) * 1e6
                )
        finally:
            engine.close()
    rows["lsm.write_batch_us_per_entry"] = write_time["durable"] / n_writes * 1e6
    rows["wal.us_per_entry"] = (write_time["durable"] - write_time["memory"]) / n_writes * 1e6

    # The default memtable alone, refilled at the engine's freeze size.
    freeze_at = inspect.signature(LSMTree).parameters["memtable_entries"].default
    mem_time = 0.0
    memtable = default_memtable()
    for batch in batches:
        if len(memtable) >= freeze_at:
            memtable = default_memtable()
        t0 = time.perf_counter()
        memtable.put_many(batch)
        mem_time += time.perf_counter() - t0
    rows["memtable.put_many_us_per_entry"] = mem_time / n_writes * 1e6

    # LSMTree.seek over an engine whose data all sits in the memtable.
    resident = LSMTree(memtable_entries=len(keys) + 1)
    try:
        resident.put_many(load)
        seeks = [low for low, _ in scans][:50]
        rows["memtable.seek_us"] = (
            _timed(lambda: [resident.seek(low) for low in seeks]) / len(seeks) * 1e6
        )
    finally:
        resident.close()

    # The paper's kernels on the same key set and point stream.
    fst = FST(sorted_keys, list(range(len(sorted_keys))))
    rows["fst.get_many_ns_per_key"] = _timed(fst.get_many, point_keys) / len(point_keys) * 1e9
    surf = surf_hash(sorted_keys, hash_bits=4)
    rows["surf.lookup_many_ns_per_key"] = (
        _timed(surf.lookup_many, point_keys) / len(point_keys) * 1e9
    )
    rows["surf.bits_per_key"] = surf.bits_per_key()
    return rows


# -- spans -------------------------------------------------------------------


def span_summary(spans) -> dict[str, dict[str, float]]:
    """Per span name: count, mean duration and mean self time (the
    duration minus the part its child spans cover), in microseconds."""
    child_time: dict[tuple[int, str], float] = {}
    for tid, _, start, end, parent in spans:
        if parent is not None:
            child_time[(tid, parent)] = child_time.get((tid, parent), 0.0) + end - start
    totals: dict[str, list[float]] = {}  # name -> [count, duration, self]
    for tid, name, start, end, _ in spans:
        acc = totals.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child_time.get((tid, name), 0.0)
    return {
        name: {"count": n, "mean_us": t / n * 1e6, "self_us": st / n * 1e6}
        for name, (n, t, st) in totals.items()
    }


def write_spans(path: str, spans, limit: int = 20_000) -> None:
    """Write the first ``limit`` spans, one JSON array per line:
    trace id, name, start and end (seconds), parent span name."""
    with open(path, "w") as fh:
        for span in spans[:limit]:
            fh.write(json.dumps(span) + "\n")


# -- assembling the per-layer report ----------------------------------------


def per_layer(run, measured: dict, rows: dict, drained: dict, recs: dict) -> dict[str, float]:
    """Every per-layer value of a traced run, by metric name."""
    obs = measured["observer"]
    w = obs.windows[0]
    m: dict[str, float] = dict(rows)

    m["server.cpu_us_per_op"] = measured["server_cpu_us_per_op"]
    for op in ("get", "put", "scan"):
        m[f"server.{op}_us"] = w.mean_us(op)
    for op, name in (("shard_get", "get"), ("shard_write", "write"), ("shard_scan", "scan")):
        m[f"shard.{name}_us"] = w.mean_us(op)
    gets, puts, scans = w.count("get"), w.count("put"), w.count("scan")

    closed = recs["closed"]
    get_calls = [end - start for _, name, start, end, _ in closed.spans if name == "get.call"]
    if gets:
        m["server.get_frontend_us"] = m["server.get_us"] - m["shard.get_us"]
        m["server.get_wire_us"] = mean(get_calls) * 1e6 - m["server.get_us"]
    else:
        m["server.get_frontend_us"] = m["server.get_wire_us"] = 0.0
    m["server.put_after_commit_us"] = (
        m["server.put_us"] - m["shard.write_us"] if puts else 0.0
    )

    m["shard.get_batch_mean"] = w.ratio("coalesced_gets.items", "coalesced_gets.calls")
    m["shard.write_batch_mean"] = w.ratio("coalesced_writes.items", "coalesced_writes.calls")
    m["shard.queue_high_water"] = max(obs.last[0]["queue_high_water"].values(), default=0)
    m["shard.overloads"] = w.delta.get("overloads", 0)

    d = w.delta
    reads, hits = d.get("block_reads", 0), d.get("cache_hits", 0)
    m["lsm.block_reads_per_get"] = reads / gets if gets else 0.0
    m["lsm.cache_hit_rate"] = hits / (reads + hits) if reads + hits else 0.0
    m["lsm.filter_probes_per_get"] = d.get("filter_probes", 0) / gets if gets else 0.0
    m["lsm.filter_negative_rate"] = w.ratio("filter_negatives", "filter_probes")
    m["lsm.cache_hits_per_scan"] = hits / scans if scans else 0.0
    m["lsm.flushes"] = d.get("flushes", 0)
    m["lsm.compactions"] = d.get("compactions", 0)
    m["lsm.stall_s"] = d.get("stall_seconds", 0.0)
    m["lsm.slowdowns"] = d.get("slowdowns", 0)
    m["lsm.write_amp"] = drained["primary_write_bytes"] / run.model.user_bytes_written

    for op in ("get", "put", "scan"):
        samples = closed.latency_us.get(op, [])
        m[f"client.{op}_p50_us"] = percentile(samples, 50)
        m[f"client.{op}_p99_us"] = percentile(samples, 99)
    attempted = sum(r.attempted for r in recs.values())
    m["client.failed_frac"] = sum(r.failed for r in recs.values()) / max(1, attempted)
    m["client.throughput_ops_s"] = measured["throughput_ops_s"]
    m["client.rated_p50_us"] = measured["rated_p50_us"]
    m["client.rated_p95_us"] = measured["rated_p95_us"]
    m["client.late_p99_us"] = percentile(recs["open"].late_us, 99)
    m["client.retries"] = measured["retries"]
    m["trace.overhead_frac"] = measured["throughput_ops_s"] / measured["untraced_throughput"]

    if len(obs.windows) > 1:  # replicated: the follower's apply path
        fw = obs.windows[1]
        m["cluster.follower_apply_us"] = fw.mean_us("repl_apply")
        m["cluster.applies_per_put"] = fw.count("repl_apply") / puts if puts else 0.0
        m["cluster.lag_seq_max"] = obs.lag_max
    return m
