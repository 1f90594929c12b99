"""The load generator: one asyncio process, checked answers, spans.

:class:`Model` is the client's view of what the server must hold.  Each
write carries a fresh global *version* inside its value
(:func:`~workloads.make_value`), and every write to one key travels on
the same connection — the server applies one connection's writes to a
shard in arrival order — so every answer can be checked exactly:

* a GET must return a version of its key no older than the last one
  acked before the GET was sent, and no newer than the last one sent
  before the answer arrived;
* a SCAN must return strictly ascending keys ``>= low``, only keys the
  client wrote, every key acked before the SCAN was sent that falls in
  the returned range, and ``count`` pairs unless the key space ran out.

Any other answer, error, or refusal counts as a failure.
"""

from __future__ import annotations

import asyncio
import bisect
import time
import zlib
from collections import defaultdict

from repro.server.client import AsyncKVClient, ServerError

from workloads import make_value, value_version


class Model:
    """Every key the client wrote, with its acked and sent versions."""

    def __init__(self, keys: list[bytes]) -> None:
        self.acked: dict[bytes, int] = dict.fromkeys(keys, 0)
        self.sent: dict[bytes, int] = dict(self.acked)
        #: Keys with acked data, in order, with the insert epoch at
        #: which each was first acked (loaded keys: epoch 0).
        self.sorted_keys = sorted(keys)
        self.ack_epoch: dict[bytes, int] = {}
        self.epoch = 0
        self.version = 0
        self.user_bytes_written = 0

    def live_bytes(self, value_size: int) -> int:
        return sum(len(k) for k in self.acked) + value_size * len(self.acked)


class Recorder:
    """Per-phase outcome counters, latencies, and (when tracing) spans."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.latency_us: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.late_us: list[float] = []
        #: Completion time and latency (us) of every successful op, as
        #: two flat lists: floats, unlike tuples, add nothing to the
        #: garbage collector's work as the run goes on.
        self.ends: list[float] = []
        self.lats: list[float] = []
        #: The ops issued, in order (traced runs only; the replay input).
        self.ops: list[tuple[str, bytes, int]] = []
        #: (trace_id, name, start, end, parent) — parent None for roots.
        self.spans: list[tuple[int, str, float, float, str | None]] = []

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {detail}")

    def all_latencies(self) -> list[float]:
        return [x for xs in self.latency_us.values() for x in xs]


def merge(recs: list[Recorder]) -> Recorder:
    """One recorder holding everything the given ones recorded."""
    out = Recorder(recs[0].trace)
    for rec in recs:
        for op, samples in rec.latency_us.items():
            out.latency_us[op].extend(samples)
        out.attempted += rec.attempted
        out.failed += rec.failed
        out.errors += rec.errors[: 20 - len(out.errors)]
        out.late_us += rec.late_us
        out.ends += rec.ends
        out.lats += rec.lats
        out.ops += rec.ops
        out.spans += rec.spans
    return out


class LoadGenerator:
    """Issues checked operations over a fixed set of connections."""

    def __init__(self, model: Model, conns: list[AsyncKVClient]) -> None:
        self.model = model
        self.conns = conns
        self._trace_ids = 0

    def writer_of(self, key: bytes) -> AsyncKVClient:
        """The one connection that carries every write to ``key`` (a
        hash unrelated to the server's shard routing)."""
        return self.conns[zlib.adler32(key) % len(self.conns)]

    # -- one checked operation --------------------------------------------

    async def run_op(self, op, conn: AsyncKVClient, rec: Recorder, start: float) -> None:
        """Execute one op; latency runs from ``start`` (issue time in the
        closed loop, due time in the open loop) to the checked answer."""
        kind, key, scan_len = op
        rec.attempted += 1
        if rec.trace:
            rec.ops.append(op)
        self._trace_ids += 1
        tid = self._trace_ids
        label = "put" if kind == "insert" else kind
        try:
            if label == "get":
                ok = await self._get(conn, key, rec, tid)
            elif label == "put":
                ok = await self._put(key, rec, tid)
            else:
                ok = await self._scan(conn, key, scan_len, rec, tid)
        except (ServerError, ConnectionError, OSError, ValueError) as exc:
            # ServerError covers OVERLOADED after the client's retries.
            rec.fail(label, f"error: {exc!r}")
            return
        end = time.perf_counter()
        if not ok:
            return
        latency = (end - start) * 1e6
        rec.latency_us[label].append(latency)
        rec.ends.append(end)
        rec.lats.append(latency)
        if rec.trace:
            rec.spans.append((tid, label, start, end, None))

    async def _call(self, coro, rec: Recorder, tid: int, parent: str):
        if not rec.trace:
            return await coro
        t0 = time.perf_counter()
        out = await coro
        rec.spans.append((tid, f"{parent}.call", t0, time.perf_counter(), parent))
        return out

    async def _get(self, conn, key: bytes, rec: Recorder, tid: int) -> bool:
        m = self.model
        floor = m.acked.get(key)
        value = await self._call(conn.get(key), rec, tid, "get")
        if value is None:
            if floor is None:
                return True
            rec.fail("get", f"{key!r} not found, acked version {floor}")
            return False
        try:
            version = value_version(value)
        except (TypeError, ValueError):
            version = -1
        top = m.sent.get(key, -1)
        if (
            floor is not None
            and floor <= version <= top
            and value == make_value(key, version)
        ):
            return True
        rec.fail("get", f"{key!r} returned {value!r}, acked {floor}, sent {top}")
        return False

    async def _put(self, key: bytes, rec: Recorder, tid: int) -> bool:
        m = self.model
        m.version += 1
        version = m.version
        value = make_value(key, version)
        m.sent[key] = version
        await self._call(self.writer_of(key).put(key, value), rec, tid, "put")
        m.user_bytes_written += len(key) + len(value)
        if key not in m.acked:
            m.epoch += 1
            m.ack_epoch[key] = m.epoch
            bisect.insort(m.sorted_keys, key)
        m.acked[key] = version  # acks of one connection arrive in order
        return True

    async def _scan(self, conn, low: bytes, count: int, rec: Recorder, tid: int) -> bool:
        m = self.model
        epoch = m.epoch
        pairs = await self._call(conn.scan(low, count), rec, tid, "scan")
        prev = None
        for key, value in pairs:
            top = m.sent.get(key)
            if (
                (prev is not None and key <= prev)
                or key < low
                or top is None
                or not isinstance(value, bytes)
                or value_version(value) > top
                or value != make_value(key, value_version(value))
            ):
                rec.fail("scan", f"low={low!r}: bad pair {key!r}={value!r}")
                return False
            prev = key
        # Completeness: every key acked before the scan was sent and
        # inside the returned range must be present.
        lo = bisect.bisect_left(m.sorted_keys, low)
        hi = (
            bisect.bisect_right(m.sorted_keys, prev)
            if len(pairs) == count
            else len(m.sorted_keys)
        )
        returned = {k for k, _ in pairs}
        for key in m.sorted_keys[lo:hi]:
            if key not in returned and m.ack_epoch.get(key, 0) <= epoch:
                rec.fail("scan", f"low={low!r} count={count}: missing {key!r}")
                return False
        return True

    # -- load shapes -------------------------------------------------------

    async def closed_loop(self, stream, duration: float, rec: Recorder, depth: int) -> float:
        """Each of ``depth`` slots per connection issues its next op when
        the previous one completes.  Returns the elapsed seconds."""
        started = time.perf_counter()
        deadline = started + duration

        async def slot(conn: AsyncKVClient) -> None:
            while time.perf_counter() < deadline:
                await self.run_op(next(stream), conn, rec, time.perf_counter())

        await asyncio.gather(*(slot(c) for c in self.conns for _ in range(depth)))
        return time.perf_counter() - started

    async def open_loop(
        self, stream, offsets, rec: Recorder, drain_timeout: float = 30.0
    ) -> float:
        """Poisson arrivals at precomputed ``offsets``: each op is sent
        when due whatever is outstanding, and timed from its due time.
        Returns the elapsed seconds."""
        loop = asyncio.get_running_loop()
        tasks = []
        started = time.perf_counter()
        for i, offset in enumerate(offsets):
            due = started + float(offset)
            delay = due - time.perf_counter()
            if delay > 0.0005:
                await asyncio.sleep(delay)
            rec.late_us.append(max(0.0, time.perf_counter() - due) * 1e6)
            conn = self.conns[i % len(self.conns)]
            tasks.append(loop.create_task(self.run_op(next(stream), conn, rec, due)))
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=drain_timeout)
            for task in pending:  # the backlog outgrew the drain window
                task.cancel()
                rec.fail("open-loop", "request still outstanding after the drain window")
            await asyncio.gather(*tasks, return_exceptions=True)
            for task in tasks:
                if not task.cancelled() and task.exception() is not None:
                    raise task.exception()
        return time.perf_counter() - started


async def bulk_load(
    conns: list[AsyncKVClient], model: Model, keys_by_shard: list[list[bytes]], per_round: int
) -> None:
    """Write every key at version 0 through the wire, then SYNC.

    Keys go in rounds of ``per_round`` per shard, each round acked in
    full before the next, so no group commit straddles a round.  With
    ``per_round`` dividing the memtable size, every freeze lands on the
    same entry count on every run.  A refused or failed write raises:
    set-up has no partial success."""
    n_rounds = max(len(keys) for keys in keys_by_shard) // per_round + 1
    for r in range(n_rounds):
        batch = [k for keys in keys_by_shard for k in keys[r * per_round : (r + 1) * per_round]]
        await asyncio.gather(
            *(conns[i % len(conns)].put(k, make_value(k, 0)) for i, k in enumerate(batch))
        )
    await conns[0].sync()
    model.user_bytes_written += sum(
        len(k) + len(make_value(k, 0)) for keys in keys_by_shard for k in keys
    )
