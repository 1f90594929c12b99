"""Sharded asyncio TCP front-end over N durable LSM engines.

``KVServer`` hash-shards keys (CRC32 modulo shard count) across
independent :class:`~repro.lsm.engine.LSMTree` engines living under one
root directory (``<root>/shard-00``, ``shard-01``, ...).  The network
side is a single asyncio event loop: each connection's requests are
read sequentially, dispatched as tasks, and answered **in arrival
order**, so clients may pipeline arbitrarily many requests.  Engine
work happens on the per-shard worker threads
(:mod:`repro.server.shard`), which coalesce concurrent GETs into batch
reads and adjacent writes into single group commits.

Ordering guarantees: per connection, per shard — a request observes
every earlier same-connection request routed to the same shard.
Cross-shard requests (SCAN/COUNT/BATCH_GET spanning shards) fan out
concurrently and merge.

Shutdown drains: stop accepting, mark the server closing (new requests
get ``SHUTTING_DOWN``), let every queued request complete, then sync
and close each engine.  A client-acknowledged write therefore always
survives, even through ``python -m repro.server serve`` receiving
SIGTERM mid-load.

Cluster roles (PR 9): a server is a ``primary`` (accepts writes,
optionally streams committed WAL frames to followers via an attached
:class:`~repro.cluster.replicator.PrimaryReplication`) or a
``follower`` (rejects client writes with ``NOT_PRIMARY``, ingests
``REPL_APPLY`` frames, answers ``GET_AT`` reads gated on its per-shard
replication watermark, and flips to primary on ``PROMOTE``).  With
replication attached, a write is only acknowledged once every voting
follower has durably applied it — the gate that makes "no acked write
lost" hold across node failover, not just node restart.

Membership (PR 10): shard ids live in a *global* space — a node hosts
any subset (``shard_ids``), and ``self.shards`` maps shard id →
worker.  Each hosted shard carries a serving state:

* ``serving`` — normal; reads and (on a primary) writes.
* ``sealed``  — mid-migration handoff: reads still served, writes get
  ``NOT_OWNER`` with a forward hint to the receiving group.
* ``ingest``  — arriving via migration: invisible to clients until
  ``MIGRATE_COMMIT``; ``REPL_APPLY`` bypasses role/term checks here so
  the source group can stream the catch-up delta.
* ``installing`` — a snapshot resync is swapping the engine.

Requests for a shard this node does not serve answer ``NOT_OWNER``
(body = forward-group hint when one is known); clients re-route and
retry.  An election *term* (in-memory, monotonic) fences deposed
primaries: ``REPL_APPLY``/``LEASE`` carrying an older term get
``FENCED``.  Terms need no persistence — a restarted node starts at 0
and adopts the group's term from the first message it sees, and can
never outrank a live primary.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import threading
import time
from struct import error as struct_error
from typing import Any, Callable, Sequence

from ..cluster import membership
from ..cluster.routing import route_key
from ..lsm import LSMTree
from ..lsm.disk_format import FrameError
from ..lsm.fs import FileSystem, OsFileSystem, join
from ..lsm.wal import iter_records as wal_iter_records
from . import protocol
from .procshard import ProcessShard
from .shard import ShardDown, ShardRequest, ShardWorker, TOMBSTONE
from .stats import ServerStats

#: Cap on one SCAN response, whatever the client asked for.
MAX_SCAN_COUNT = 10_000


class _Overloaded(Exception):
    """Internal: a bounded shard queue refused the request."""


class _NotOwner(Exception):
    """Internal: the request targets a shard this node does not serve;
    ``hint`` names the owning group when known."""

    def __init__(self, hint: str = "") -> None:
        super().__init__(hint)
        self.hint = hint


#: Backwards-compatible alias: the shard mapping now lives in
#: :mod:`repro.cluster.routing` so the server, the shard-RPC children,
#: the load generator, and the cluster router can never drift apart.
shard_of = route_key


class KVServer:
    """The serving subsystem: hosted shards, one event loop, one port."""

    def __init__(
        self,
        path: str,
        n_shards: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        fs: FileSystem | Callable[[int], FileSystem] | None = None,
        queue_limit: int = 1024,
        filter_factory: Callable | None = None,
        engine_config: dict | None = None,
        shard_mode: str = "thread",
        role: str = "primary",
        replication: Any = None,
        repl_ack_timeout: float = 30.0,
        shard_ids: Sequence[int] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if shard_mode not in ("thread", "process"):
            raise ValueError("shard_mode must be 'thread' or 'process'")
        if role not in ("primary", "follower"):
            raise ValueError("role must be 'primary' or 'follower'")
        if shard_mode == "process" and (role == "follower" or replication is not None):
            # The WAL commit observer and the follower watermark both
            # need in-process engines; node-level processes (one server
            # per node) are the cluster's process isolation instead.
            raise ValueError("replication requires shard_mode='thread'")
        self.path = path
        #: Size of the *global* shard space (cluster-wide routing).
        self.n_shards = n_shards
        #: The subset of the global space this node hosts.
        if shard_ids is None:
            self.shard_ids = list(range(n_shards))
        else:
            self.shard_ids = sorted(set(shard_ids))
            for shard_id in self.shard_ids:
                if not 0 <= shard_id < n_shards:
                    raise ValueError(
                        f"shard id {shard_id} outside global space [0, {n_shards})"
                    )
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.shard_mode = shard_mode
        self._fs = fs
        self._queue_limit = queue_limit
        self._filter_factory = filter_factory
        # Served engines default to the background lifecycle: shard
        # workers keep coalescing writes into one WAL group commit, but
        # flushes and compactions move off the worker thread, so a
        # write's worst case is a bounded stall (counted in STATS) —
        # not an inline multi-level merge.  Tests that need the
        # deterministic inline pipeline pass ``background=False``.
        self._engine_config = dict(engine_config or {})
        self._engine_config.setdefault("background", True)
        self.stats = ServerStats()
        self.shards: dict[int, Any] = {}
        self._server: asyncio.AbstractServer | None = None
        #: One task per accepted connection; shutdown cancels and awaits
        #: them, so none outlives the event loop.
        self._conn_tasks: set[asyncio.Task] = set()
        self._closing = False
        self._shutdown_requested: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

        #: Cluster role; flipped follower -> primary by PROMOTE.
        self.role = role
        #: Election term (in-memory; see the module docstring).
        self.term = 0
        #: monotonic deadline of the last granted lease (follower side).
        self.lease_deadline: float | None = None
        self._replication = replication
        self._repl_ack_timeout = repl_ack_timeout
        #: Per hosted shard: "serving" | "sealed" | "ingest" |
        #: "installing" | "detached" | "failed".
        self._shard_state: dict[int, str] = {s: "serving" for s in self.shard_ids}
        #: Forward hints for shards that moved away: shard -> group.
        self._shard_forward: dict[int, str] = {}
        #: In-flight snapshot staging, one per shard (see SNAP_*).
        self._snap_staging: dict[int, dict[str, Any]] = {}
        #: Shards with an outbound migration in flight.
        self._migrating: set[int] = set()
        #: Follower ingest watermarks, per hosted shard.  ``dispatched``
        #: is the highest primary sequence accepted into the shard's
        #: queue (advanced on the event loop thread, so REPL_APPLY
        #: frames on one connection dedup/gap-check in arrival order);
        #: ``applied`` is the highest durably applied one (advanced by
        #: the ack formatter once the shard's group commit returns).
        #: ``dispatched`` is deliberately never rewound — resending a
        #: queued-but-unconfirmed record would double-apply it.
        self._repl_dispatched: dict[int, int] = {s: 0 for s in self.shard_ids}
        self._repl_applied: dict[int, int] = {s: 0 for s in self.shard_ids}
        #: A failed apply poisons the shard (sequence alignment with the
        #: primary is lost); only a snapshot resync recovers it.
        self._repl_failed: dict[int, str | None] = {s: None for s in self.shard_ids}

    def _fs_for(self, shard_id: int) -> FileSystem | None:
        if callable(self._fs) and not isinstance(self._fs, FileSystem):
            return self._fs(shard_id)
        return self._fs

    def _shard_root(self, shard_id: int) -> str:
        return join(self.path, f"shard-{shard_id:02d}")

    # -- cluster helpers (used by the lease manager / replication) ----------

    def demote(self) -> None:
        """Stand down as primary (a peer fenced our term)."""
        self.role = "follower"

    def extend_lease(self, ttl: float) -> None:
        self.lease_deadline = time.monotonic() + ttl

    def applied_total(self) -> int:
        """Sum of durably applied sequences across hosted shards — the
        election's catch-up metric."""
        return sum(self._repl_applied.get(s, 0) for s in self.shards)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "KVServer":
        """Open (recovering) every hosted shard engine, start the
        workers, bind."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        try:
            if self.shard_mode == "process":
                # Launch every child first (spawn + engine recovery run
                # concurrently across shards), then wait for each.
                for i in self.shard_ids:
                    self.shards[i] = ProcessShard(
                        i,
                        self._shard_root(i),
                        self.stats,
                        queue_limit=self._queue_limit,
                        engine_config=self._engine_config,
                        fs=self._fs_for(i),
                        filter_factory=self._filter_factory,
                    )
                for worker in self.shards.values():
                    worker.wait_ready()
                for worker in self.shards.values():
                    worker.start()
            else:
                for i in self.shard_ids:
                    observer = (
                        self._replication.observer_for(i)
                        if self._replication is not None
                        else None
                    )
                    engine = LSMTree.open(
                        self._shard_root(i),
                        fs=self._fs_for(i),
                        filter_factory=self._filter_factory,
                        wal_observer=observer,
                        **self._engine_config,
                    )
                    worker = ShardWorker(
                        i, engine, self.stats, queue_limit=self._queue_limit
                    )
                    worker.start()
                    self.shards[i] = worker
                if self.role == "follower":
                    # A restarted follower resumes where its recovered
                    # engines stand: every sequence <= last_seq was
                    # durably applied before the restart.
                    for i, worker in self.shards.items():
                        seq = worker.engine.last_seq
                        self._repl_dispatched[i] = seq
                        self._repl_applied[i] = seq
                if self._replication is not None:
                    self._replication.bind(self)
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except BaseException:
            await self._stop_workers()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` (or the SHUTDOWN opcode),
        then drain gracefully."""
        assert self._shutdown_requested is not None, "call start() first"
        await self._shutdown_requested.wait()
        # Give in-flight response writes one tick to flush before the
        # listener goes away (the SHUTDOWN OK must reach its client).
        await asyncio.sleep(0.05)
        await self.shutdown()

    def request_shutdown(self) -> None:
        self._closing = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish queued work, sync and
        close every engine, then close every connection.  Idempotent."""
        self._closing = True
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
            await self._stop_workers()
            if self._replication is not None:
                # Workers are stopped, so the logs are final; ship whatever
                # is still queued before cutting the follower links.
                repl = self._replication
                await asyncio.get_running_loop().run_in_executor(
                    None, repl.drain_and_stop
                )
        finally:
            await self._close_connections()

    async def _close_connections(self) -> None:
        """Cancel every connection task and wait for its cleanup.

        ``wait_closed`` on the listener does not end accepted
        connections, so without this their tasks would still be pending
        when the loop closes.  The first cancel interrupts the read; the
        task still writes the responses it owes (the workers have
        drained, so their futures are done).  A task still running a
        second later — its client stopped reading, or it awaits a
        replication ack — is cancelled again, which abandons the write.
        """
        tasks = [task for task in self._conn_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if not tasks:
            return
        _, pending = await asyncio.wait(tasks, timeout=1.0)
        for task in pending:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _stop_workers(self) -> None:
        workers, self.shards = list(self.shards.values()), {}
        for worker in workers:
            worker.stop()

        def _join() -> None:
            for worker in workers:
                if worker.is_alive():
                    worker.join(timeout=60)

        if workers:
            await asyncio.get_running_loop().run_in_executor(None, _join)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.stats.record_connection(opened=True)
        responses: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_responses(responses, writer))
        # Bulk-read + buffer parse: a pipelined client packs whole
        # trains of requests into each TCP segment, so one read() wakes
        # us for many frames — dispatching them all in one pass is a
        # large win over two readexactly() awaits per request.
        buf = bytearray()
        try:
            while True:
                try:
                    data = await reader.read(1 << 16)
                except (ConnectionResetError, OSError):
                    break
                if not data:
                    break
                buf += data
                off = 0
                try:
                    while len(buf) - off >= 4:
                        length = protocol.parse_length(bytes(buf[off : off + 4]))
                        if len(buf) - off - 4 < length:
                            break
                        request_id, opcode, body = protocol.parse_payload(
                            bytes(buf[off + 4 : off + 4 + length])
                        )
                        off += 4 + length
                        responses.put_nowait(
                            self._dispatch(request_id, opcode, body)
                        )
                except protocol.ProtocolError:
                    break  # unframeable stream: drop the connection
                if off:
                    del buf[:off]
        finally:
            responses.put_nowait(None)
            try:
                await writer_task
            except Exception:
                pass
            finally:
                # No-op once the writer is done; when shutdown's second
                # cancel lands in the await above, the unsent responses
                # are abandoned with it.
                writer_task.cancel()
                self._drain_queue(responses)
                writer.close()
                self.stats.record_connection(opened=False)
                self._conn_tasks.discard(task)
            try:
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    def _drain_queue(responses: asyncio.Queue) -> None:
        """Close formatter coroutines the writer never reached."""
        while True:
            try:
                item = responses.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is not None and not isinstance(item, (bytes, bytearray)):
                item.close()

    async def _write_responses(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Write responses in request-arrival order.  Items are either
        finished frames (bytes) or formatter coroutines awaiting shard
        futures — the shard work itself was already submitted by the
        reader, so awaiting here never delays later requests' engine
        work, only their response bytes (which must queue anyway)."""
        while True:
            item = await responses.get()
            if item is None:
                return
            if not isinstance(item, (bytes, bytearray)):
                item = await item
            writer.write(item)
            if responses.empty():
                await writer.drain()

    # -- shard routing ------------------------------------------------------

    def _route(self, shard_id: int, write: bool):
        """The worker serving ``shard_id`` here, or :class:`_NotOwner`
        (with a forward hint when the shard is known to have moved)."""
        state = self._shard_state.get(shard_id)
        if state == "serving" or (state == "sealed" and not write):
            worker = self.shards.get(shard_id)
            if worker is not None:
                return worker
        raise _NotOwner(self._shard_forward.get(shard_id, ""))

    def _readable_workers(self) -> list[Any]:
        """Workers backing client-visible data (serving + sealed);
        ingest/installing shards are invisible until committed."""
        return [
            self.shards[s]
            for s in sorted(self.shards)
            if self._shard_state.get(s) in ("serving", "sealed")
        ]

    # -- request dispatch --------------------------------------------------
    #
    # The reader thread of control decodes each request and performs
    # every shard submit *inline*, so per-connection arrival order is
    # exactly per-shard queue order — no per-request Task, no reordering
    # window.  What goes on the response queue is either final bytes or
    # a small coroutine that formats the shard's answer.

    def _dispatch(self, request_id: int, opcode: int, body: bytes):
        started = time.perf_counter()
        op_name = protocol.OP_NAMES.get(opcode, f"op{opcode}")
        try:
            if self._closing and opcode != protocol.STATS:
                return self._immediate(
                    request_id, op_name, started,
                    protocol.SHUTTING_DOWN, b"server is draining",
                )

            if opcode == protocol.GET:
                key = protocol.decode_key(body)
                worker = self._route(shard_of(key, self.n_shards), write=False)
                fut = self._submit(worker, "get", [key])
                return self._finish(request_id, op_name, started, self._fmt_get(fut))

            if opcode == protocol.PUT:
                key, value = protocol.decode_key_value(body)
                if value is TOMBSTONE:
                    raise protocol.ProtocolError("cannot PUT a tombstone")
                if self.role != "primary":
                    return self._immediate(
                        request_id, op_name, started,
                        protocol.NOT_PRIMARY, b"writes go to the primary",
                    )
                shard_id = shard_of(key, self.n_shards)
                worker = self._route(shard_id, write=True)
                fut = self._submit(worker, "write", [(key, value)])
                return self._finish(
                    request_id, op_name, started, self._fmt_ack(shard_id, fut)
                )

            if opcode == protocol.DELETE:
                key = protocol.decode_key(body)
                if self.role != "primary":
                    return self._immediate(
                        request_id, op_name, started,
                        protocol.NOT_PRIMARY, b"writes go to the primary",
                    )
                shard_id = shard_of(key, self.n_shards)
                worker = self._route(shard_id, write=True)
                fut = self._submit(worker, "write", [(key, TOMBSTONE)])
                return self._finish(
                    request_id, op_name, started, self._fmt_ack(shard_id, fut)
                )

            if opcode == protocol.BATCH_GET:
                keys = protocol.decode_keys(body)
                by_shard: dict[int, list[int]] = {}
                for i, key in enumerate(keys):
                    by_shard.setdefault(shard_of(key, self.n_shards), []).append(i)
                futs = []
                for sid, idxs in by_shard.items():
                    worker = self._route(sid, write=False)
                    futs.append(
                        (idxs, self._submit(worker, "get", [keys[i] for i in idxs]))
                    )
                return self._finish(
                    request_id, op_name, started,
                    self._fmt_batch_get(len(keys), futs),
                )

            if opcode == protocol.SCAN:
                low, count = protocol.decode_scan(body)
                count = min(count, MAX_SCAN_COUNT)
                futs = [
                    self._submit(s, "scan", (low, count))
                    for s in self._readable_workers()
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_scan(count, futs)
                )

            if opcode == protocol.COUNT:
                low, high = protocol.decode_range(body)
                futs = [
                    self._submit(s, "count", (low, high))
                    for s in self._readable_workers()
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_count(futs)
                )

            if opcode == protocol.SYNC:
                futs = [
                    self._submit(self.shards[s], "sync", None)
                    for s in sorted(self.shards)
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_sync(futs)
                )

            if opcode == protocol.STATS:
                if not self.shards:
                    snapshot = self.stats.snapshot(None)
                    self._extend_stats(snapshot)
                    return self._immediate(
                        request_id, op_name, started,
                        protocol.OK, json.dumps(snapshot).encode(),
                    )
                # Engine detail is collected via each worker's "info"
                # op (on the worker thread / over the shard-RPC pipe);
                # dead or draining shards answer with liveness only.
                futs = []
                for sid in sorted(self.shards):
                    shard = self.shards[sid]
                    fut = None
                    if not (shard.dead or shard.stopping or shard.closed.is_set()):
                        try:
                            fut = self._submit(shard, "info", None)
                        except (_Overloaded, ShardDown):
                            fut = None
                    futs.append((shard, fut))
                return self._finish(
                    request_id, op_name, started, self._fmt_stats(futs)
                )

            if opcode == protocol.SHUTDOWN:
                self.request_shutdown()
                return self._immediate(
                    request_id, op_name, started, protocol.OK, b""
                )

            if opcode == protocol.REPL_APPLY:
                return self._dispatch_repl_apply(request_id, op_name, started, body)

            if opcode == protocol.WATERMARK:
                return self._immediate(
                    request_id, op_name, started,
                    protocol.OK,
                    protocol.encode_watermarks(
                        self.role == "primary", self.term, self._watermarks()
                    ),
                )

            if opcode == protocol.GET_AT:
                key, min_seq = protocol.decode_get_at(body)
                shard_id = shard_of(key, self.n_shards)
                try:
                    worker = self._route(shard_id, write=False)
                except _NotOwner:
                    if self.role != "primary":
                        # A follower mid-resync/migration answers like a
                        # lagging one: the client falls back to the
                        # primary instead of failing the read.
                        return self._immediate(
                            request_id, op_name, started,
                            protocol.LAGGING, b"shard not readable here",
                        )
                    raise
                if (
                    self.role != "primary"
                    and self._repl_applied.get(shard_id, 0) < min_seq
                ):
                    # The replication stream has not caught up to the
                    # client's causal token yet; the client falls back
                    # to the primary (or retries) instead of reading a
                    # stale snapshot.  A primary always serves: it only
                    # hands out tokens for writes it already applied.
                    return self._immediate(
                        request_id, op_name, started,
                        protocol.LAGGING,
                        b"follower applied %d < %d" %
                        (self._repl_applied.get(shard_id, 0), min_seq),
                    )
                fut = self._submit(worker, "get", [key])
                return self._finish(request_id, op_name, started, self._fmt_get(fut))

            if opcode == protocol.PROMOTE:
                new_term = protocol.decode_promote(body)
                if self.role == "primary":
                    if new_term is not None and new_term > self.term:
                        self.term = new_term
                    return self._immediate(
                        request_id, op_name, started,
                        protocol.OK, protocol.encode_u64_body(self.term),
                    )
                # Sync barrier: the per-shard queues are FIFO, so once
                # these complete every REPL_APPLY accepted before the
                # promotion is durably applied — the new primary starts
                # from its full watermark, and late frames from the old
                # primary get BAD_REQUEST instead of silently diverging.
                futs = [
                    self._submit(self.shards[s], "sync", None)
                    for s in sorted(self.shards)
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_promote(futs, new_term)
                )

            if opcode == protocol.LEASE:
                return self._dispatch_lease(request_id, op_name, started, body)

            if opcode == protocol.SNAP_BEGIN:
                return self._dispatch_snap_begin(request_id, op_name, started, body)

            if opcode == protocol.SNAP_CHUNK:
                return self._dispatch_snap_chunk(request_id, op_name, started, body)

            if opcode == protocol.SNAP_COMMIT:
                return self._dispatch_snap_commit(request_id, op_name, started, body)

            if opcode == protocol.MIGRATE:
                return self._dispatch_migrate(request_id, op_name, started, body)

            if opcode == protocol.MIGRATE_COMMIT:
                return self._dispatch_migrate_commit(
                    request_id, op_name, started, body
                )

            if opcode == protocol.SHARD_DETACH:
                return self._dispatch_shard_detach(
                    request_id, op_name, started, body
                )

            raise protocol.ProtocolError(f"unknown opcode {opcode}")
        except _NotOwner as exc:
            return self._immediate(
                request_id, op_name, started,
                protocol.NOT_OWNER, exc.hint.encode("utf-8"),
            )
        except _Overloaded:
            self.stats.record_overload()
            return self._immediate(
                request_id, op_name, started,
                protocol.OVERLOADED, b"shard queue full",
            )
        except ShardDown as exc:
            # A dead worker must answer, not hang: the client gets an
            # immediate error instead of a request nobody will drain.
            self.stats.record_error()
            return self._immediate(
                request_id, op_name, started, protocol.ERROR, str(exc).encode()
            )
        except (
            protocol.ProtocolError, FrameError, KeyError, IndexError,
            struct_error, UnicodeDecodeError,
        ) as exc:
            # FrameError covers the storage codecs the bodies reuse
            # (and UnicodeDecodeError the embedded names): a garbage
            # body must cost the peer one BAD_REQUEST, not the whole
            # connection.
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, str(exc).encode(),
            )

    def _watermarks(self) -> dict[int, tuple[int, int]]:
        """Per hosted shard (dispatched, applied).  A primary reports
        its engines' own last sequences (it *is* the stream's source);
        followers and ingest shards report the replication marks."""
        marks: dict[int, tuple[int, int]] = {}
        for shard_id, worker in self.shards.items():
            dispatched = self._repl_dispatched.get(shard_id, 0)
            applied = self._repl_applied.get(shard_id, 0)
            if (
                self.role == "primary"
                and self._shard_state.get(shard_id) != "ingest"
            ):
                engine = getattr(worker, "engine", None)
                if engine is not None:
                    seq = engine.last_seq
                    dispatched = max(dispatched, seq)
                    applied = max(applied, seq)
            marks[shard_id] = (dispatched, applied)
        return marks

    def _dispatch_repl_apply(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        """Ingest one batch of primary WAL frames for one shard.

        Runs on the event loop thread, so per-connection arrival order
        is exactly dedup/gap-check order: the primary's single sender
        connection can never race its own stream.
        """
        term, shard_id, frames = protocol.decode_repl_apply(body)
        if not 0 <= shard_id < self.n_shards:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"bad shard id",
            )
        state = self._shard_state.get(shard_id)
        if state != "ingest":
            # The normal follower stream is role- and term-fenced; the
            # migration ingest stream is not (the source group's term
            # is unrelated to this group's).
            if self.role != "follower":
                return self._immediate(
                    request_id, op_name, started,
                    protocol.BAD_REQUEST, b"not a follower",
                )
            if term < self.term:
                return self._immediate(
                    request_id, op_name, started,
                    protocol.FENCED,
                    b"stale term %d < %d" % (term, self.term),
                )
            if term > self.term:
                self.term = term
        if shard_id not in self.shards or state not in ("serving", "ingest"):
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"shard not hosted",
            )
        if self._repl_failed.get(shard_id) is not None:
            return self._immediate(
                request_id, op_name, started,
                protocol.ERROR, self._repl_failed[shard_id].encode(),
            )
        try:
            records = list(
                wal_iter_records(
                    frames, source=f"repl shard {shard_id}", strict=True
                )
            )
        except FrameError as exc:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, str(exc).encode(),
            )
        dispatched = self._repl_dispatched.get(shard_id, 0)
        fresh = [(seq, key, value) for seq, key, value in records if seq > dispatched]
        if not fresh:
            # Pure resend (the primary reconnected and replayed from an
            # older watermark): confirm the durable position.
            return self._immediate(
                request_id, op_name, started,
                protocol.OK,
                protocol.encode_u64_body(self._repl_applied.get(shard_id, 0)),
            )
        expect = dispatched
        for seq, _, _ in fresh:
            expect += 1
            if seq != expect:
                # A hole in the stream would silently fork this shard
                # from the primary; poison it instead.  The link
                # surfaces it, and the next handshake resyncs.
                self._repl_failed[shard_id] = (
                    f"replication gap: expected seq {expect}, got {seq}"
                )
                return self._immediate(
                    request_id, op_name, started,
                    protocol.ERROR, self._repl_failed[shard_id].encode(),
                )
        self._repl_dispatched[shard_id] = expect
        fut = self._submit(
            self.shards[shard_id],
            "write", [(key, value) for _, key, value in fresh],
        )
        return self._finish(
            request_id, op_name, started,
            self._fmt_repl_ack(shard_id, expect, fut),
        )

    async def _fmt_repl_ack(
        self, shard_id: int, expect: int, fut: asyncio.Future
    ) -> tuple[int, bytes]:
        try:
            seq = await fut
            # The shard worker may coalesce several REPL_APPLY batches
            # into one group commit and complete each with the *run's*
            # final sequence, so >= expect is normal; < expect means the
            # follower's own sequence counter diverged from the stream.
            if isinstance(seq, int) and seq < expect:
                raise RuntimeError(
                    f"follower shard {shard_id} applied through seq {seq}, "
                    f"primary stream says {expect}"
                )
        except Exception as exc:
            self._repl_failed[shard_id] = f"apply failed: {exc!r}"
            raise
        # write_batch returned, so the batch rode a WAL group commit:
        # "applied" is a *durable* watermark, which is what lets the
        # primary ack its clients off our confirmations.
        self._repl_applied[shard_id] = max(
            self._repl_applied.get(shard_id, 0), expect
        )
        return protocol.OK, protocol.encode_u64_body(expect)

    async def _fmt_promote(
        self, futs: list[asyncio.Future], new_term: int | None
    ) -> tuple[int, bytes]:
        await asyncio.gather(*futs)
        self.role = "primary"
        self.term = max(self.term + 1, new_term or 0)
        self.lease_deadline = None
        return protocol.OK, protocol.encode_u64_body(self.term)

    # -- membership dispatch (PR 10) ----------------------------------------

    def _dispatch_lease(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        term, ttl_ms = protocol.decode_lease(body)
        if term < self.term:
            return self._immediate(
                request_id, op_name, started,
                protocol.FENCED, b"stale term %d < %d" % (term, self.term),
            )
        if term > self.term:
            self.term = term
            if self.role == "primary":
                # A newer-term primary exists; stand down.
                self.role = "follower"
        elif self.role == "primary":
            # Equal-term split claim: refuse — exactly one of the two
            # backs off (the other's grant reaches us as a follower).
            return self._immediate(
                request_id, op_name, started,
                protocol.FENCED, b"primary at the same term",
            )
        self.lease_deadline = time.monotonic() + ttl_ms / 1000.0
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_snap_begin(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        term, shard_id, doc_bytes = protocol.decode_snap_begin(body)
        if not 0 <= shard_id < self.n_shards:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"bad shard id",
            )
        if self.shard_mode == "process":
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"snapshots need shard_mode=thread",
            )
        try:
            doc = json.loads(doc_bytes.decode("utf-8"))
            membership.validate_snapshot_doc(doc)
        except (ValueError, TypeError) as exc:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, str(exc).encode(),
            )
        purpose = doc["purpose"]
        state = self._shard_state.get(shard_id)
        if purpose == "resync":
            if self.role != "follower":
                return self._immediate(
                    request_id, op_name, started,
                    protocol.BAD_REQUEST, b"resync targets a follower",
                )
            if term < self.term:
                return self._immediate(
                    request_id, op_name, started,
                    protocol.FENCED,
                    b"stale term %d < %d" % (term, self.term),
                )
            if term > self.term:
                self.term = term
        else:  # migrate: the source group's term is not ours to fence
            if state in ("serving", "sealed") and shard_id in self.shards:
                return self._immediate(
                    request_id, op_name, started,
                    protocol.BAD_REQUEST, b"shard already served here",
                )
            # Invisible to clients until MIGRATE_COMMIT.
            self._shard_state[shard_id] = "ingest"
        self._snap_staging[shard_id] = {
            "term": term,
            "purpose": purpose,
            "doc": doc,
            "files": {entry["name"]: bytearray() for entry in doc["files"]},
            "sizes": {entry["name"]: entry["size"] for entry in doc["files"]},
            "crcs": {entry["name"]: entry["crc"] for entry in doc["files"]},
        }
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_snap_chunk(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        term, shard_id, name, offset, data = protocol.decode_snap_chunk(body)
        staging = self._snap_staging.get(shard_id)
        if staging is None or staging["term"] != term:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"no snapshot staged",
            )
        buf = staging["files"].get(name)
        if buf is None:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"unannounced file",
            )
        if offset != len(buf):
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST,
                b"chunk offset %d != %d" % (offset, len(buf)),
            )
        if len(buf) + len(data) > staging["sizes"][name]:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"file exceeds announced size",
            )
        buf += data
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_snap_commit(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        import zlib

        term, shard_id, snap_seq = protocol.decode_snap_commit(body)
        staging = self._snap_staging.get(shard_id)
        if staging is None or staging["term"] != term:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"no snapshot staged",
            )
        if snap_seq != staging["doc"]["snap_seq"]:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"snap_seq mismatch",
            )
        for name, buf in staging["files"].items():
            if len(buf) != staging["sizes"][name]:
                self._snap_staging.pop(shard_id, None)
                return self._immediate(
                    request_id, op_name, started,
                    protocol.BAD_REQUEST,
                    b"file %s incomplete" % name.encode(),
                )
            if zlib.crc32(bytes(buf)) != staging["crcs"][name]:
                self._snap_staging.pop(shard_id, None)
                return self._immediate(
                    request_id, op_name, started,
                    protocol.BAD_REQUEST,
                    b"file %s CRC mismatch" % name.encode(),
                )
        self._snap_staging.pop(shard_id, None)
        return self._finish(
            request_id, op_name, started,
            self._fmt_snap_commit(shard_id, staging),
        )

    async def _fmt_snap_commit(
        self, shard_id: int, staging: dict[str, Any]
    ) -> tuple[int, bytes]:
        old_worker = self.shards.pop(shard_id, None)
        self._shard_state[shard_id] = "installing"
        try:
            worker = await self._loop.run_in_executor(
                None, self._install_snapshot_sync, shard_id, old_worker, staging
            )
        except Exception:
            # The old engine is gone and the new one failed to open:
            # the shard is unusable here until another resync succeeds.
            self._shard_state[shard_id] = "failed"
            raise
        self.shards[shard_id] = worker
        snap_seq = staging["doc"]["snap_seq"]
        self._repl_dispatched[shard_id] = snap_seq
        self._repl_applied[shard_id] = snap_seq
        self._repl_failed[shard_id] = None
        if self._replication is not None:
            self._replication.reset_shard(shard_id, snap_seq)
            if staging["purpose"] == "migrate":
                self._replication.set_ingest(shard_id, True)
        self._shard_state[shard_id] = (
            "ingest" if staging["purpose"] == "migrate" else "serving"
        )
        return protocol.OK, protocol.encode_u64_body(snap_seq)

    def _install_snapshot_sync(
        self, shard_id: int, old_worker: Any, staging: dict[str, Any]
    ):
        """Executor side of SNAP_COMMIT: retire the old engine, install
        the shipped files + manifest, recover, restart the worker."""
        if old_worker is not None:
            old_worker.stop()
            old_worker.join(timeout=60)
        fs = self._fs_for(shard_id) or OsFileSystem()
        root = self._shard_root(shard_id)
        membership.install_snapshot(
            fs,
            root,
            staging["doc"],
            {name: bytes(buf) for name, buf in staging["files"].items()},
        )
        observer = (
            self._replication.observer_for(shard_id)
            if self._replication is not None
            else None
        )
        engine = LSMTree.open(
            root,
            fs=fs,
            filter_factory=self._filter_factory,
            wal_observer=observer,
            **self._engine_config,
        )
        if engine.last_seq != staging["doc"]["snap_seq"]:
            raise RuntimeError(
                f"installed snapshot recovered at seq {engine.last_seq}, "
                f"expected {staging['doc']['snap_seq']}"
            )
        worker = ShardWorker(
            shard_id, engine, self.stats, queue_limit=self._queue_limit
        )
        worker.start()
        return worker

    def _dispatch_migrate(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        shard_id, dst_group, targets = protocol.decode_migrate(body)
        if self.role != "primary":
            return self._immediate(
                request_id, op_name, started,
                protocol.NOT_PRIMARY, b"migration starts at the primary",
            )
        if self._replication is None:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"replication not attached",
            )
        if not 0 <= shard_id < self.n_shards:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"bad shard id",
            )
        if not targets:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"no target nodes",
            )
        if (
            shard_id not in self.shards
            or self._shard_state.get(shard_id) != "serving"
        ):
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"shard not serving here",
            )
        if shard_id in self._migrating:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"migration already in progress",
            )
        self._migrating.add(shard_id)
        return self._finish(
            request_id, op_name, started,
            self._fmt_migrate(shard_id, dst_group, targets),
        )

    async def _fmt_migrate(
        self, shard_id: int, dst_group: str, targets: list[tuple[str, int]]
    ) -> tuple[int, bytes]:
        try:
            handoff_seq = await self._loop.run_in_executor(
                None,
                self._replication.migrate_out, shard_id, dst_group, targets,
            )
        finally:
            self._migrating.discard(shard_id)
        return protocol.OK, protocol.encode_u64_body(handoff_seq)

    async def seal_shard(self, shard_id: int, dst_group: str) -> int:
        """Stop taking writes for a migrating shard and return the
        handoff sequence.  Runs on the event loop (scheduled by the
        migration driver): the state flip and the barrier submit happen
        atomically w.r.t. request dispatch, so every write accepted
        before the flip is in the queue the sync drains — and in the
        replication log once it completes — while every later write
        answers NOT_OWNER with the receiving group as the hint."""
        self._shard_state[shard_id] = "sealed"
        self._shard_forward[shard_id] = dst_group
        worker = self.shards[shard_id]
        await self._submit(worker, "sync", None)
        engine = getattr(worker, "engine", None)
        return engine.last_seq if engine is not None else 0

    def _dispatch_migrate_commit(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        shard_id, handoff_seq = protocol.decode_migrate_commit(body)
        state = self._shard_state.get(shard_id)
        if (
            state == "serving"
            and self._repl_applied.get(shard_id, 0) >= handoff_seq
        ):
            # Idempotent retry: already committed.
            return self._immediate(request_id, op_name, started, protocol.OK, b"")
        if state != "ingest" or shard_id not in self.shards:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"shard not ingesting",
            )
        if self._repl_applied.get(shard_id, 0) < handoff_seq:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST,
                b"applied %d behind handoff %d"
                % (self._repl_applied.get(shard_id, 0), handoff_seq),
            )
        self._shard_state[shard_id] = "serving"
        self._shard_forward.pop(shard_id, None)
        if self._replication is not None:
            self._replication.set_ingest(shard_id, False)
            self._replication.reset_shard(shard_id, handoff_seq)
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_shard_detach(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        shard_id, forward_group = protocol.decode_shard_detach(body)
        if not 0 <= shard_id < self.n_shards:
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"bad shard id",
            )
        if self.shard_mode == "process":
            return self._immediate(
                request_id, op_name, started,
                protocol.BAD_REQUEST, b"detach needs shard_mode=thread",
            )
        worker = self.shards.get(shard_id)
        if worker is None:
            if forward_group:
                self._shard_forward[shard_id] = forward_group
            return self._immediate(request_id, op_name, started, protocol.OK, b"")
        return self._finish(
            request_id, op_name, started,
            self._fmt_shard_detach(shard_id, forward_group, worker),
        )

    async def _fmt_shard_detach(
        self, shard_id: int, forward_group: str, worker: Any
    ) -> tuple[int, bytes]:
        repl = self._replication
        if repl is not None and self.role == "primary":
            # The group's own followers must hold the sealed shard's
            # full tail before this primary forgets its log: a link
            # mid-ship would otherwise see the log vanish and bounce.
            engine = getattr(worker, "engine", None)
            end_seq = engine.last_seq if engine is not None else 0
            await self._loop.run_in_executor(
                None, repl.wait_links_durable, shard_id, end_seq
            )
        self._shard_state[shard_id] = "detached"
        self.shards.pop(shard_id, None)
        if forward_group:
            self._shard_forward[shard_id] = forward_group
        await self._loop.run_in_executor(
            None, self._retire_worker_sync, shard_id, worker
        )
        if repl is not None:
            repl.detach_shard(shard_id)
        self._repl_dispatched.pop(shard_id, None)
        self._repl_applied.pop(shard_id, None)
        self._repl_failed.pop(shard_id, None)
        return protocol.OK, b""

    def _retire_worker_sync(self, shard_id: int, worker: Any) -> None:
        """Executor side of SHARD_DETACH: drain the worker, then delete
        the shard directory (CURRENT first, so a crash mid-delete
        leaves a directory that recovers as empty)."""
        worker.stop()
        worker.join(timeout=60)
        fs = self._fs_for(shard_id) or OsFileSystem()
        root = self._shard_root(shard_id)
        try:
            names = list(fs.listdir(root))
        except (FileNotFoundError, OSError):
            return
        for name in sorted(names, key=lambda n: n != "CURRENT"):
            try:
                fs.remove(join(root, name))
            except (FileNotFoundError, OSError):
                pass

    def _extend_stats(self, snapshot: dict[str, Any]) -> None:
        snapshot["n_shards"] = self.n_shards
        cluster: dict[str, Any] = {
            "role": self.role,
            "term": self.term,
            "hosted_shards": sorted(self.shards),
            "shards": {
                str(shard_id): {
                    "state": self._shard_state.get(shard_id),
                    "repl_dispatched": self._repl_dispatched.get(shard_id, 0),
                    "repl_applied": self._repl_applied.get(shard_id, 0),
                    "repl_failed": self._repl_failed.get(shard_id),
                }
                for shard_id in sorted(self.shards)
            },
            "forward": {str(s): g for s, g in sorted(self._shard_forward.items())},
            "migrating": sorted(self._migrating),
        }
        if self._replication is not None:
            cluster["replication"] = self._replication.stats()
        snapshot["cluster"] = cluster

    def _immediate(
        self, request_id: int, op_name: str, started: float,
        status: int, body: bytes,
    ) -> bytes:
        self.stats.record_op(op_name, time.perf_counter() - started)
        return protocol.frame(request_id, status, body)

    async def _finish(
        self, request_id: int, op_name: str, started: float, formatter
    ) -> bytes:
        try:
            status, body = await formatter
        except Exception as exc:
            self.stats.record_error()
            status, body = protocol.ERROR, str(exc).encode()
        self.stats.record_op(op_name, time.perf_counter() - started)
        return protocol.frame(request_id, status, body)

    # -- shard fan-out ------------------------------------------------------

    def _submit(self, shard: ShardWorker, op: str, args: Any) -> asyncio.Future:
        loop = self._loop
        future = loop.create_future()
        if not shard.submit(ShardRequest(op, args, future, loop)):
            raise _Overloaded()
        return future

    @staticmethod
    async def _fmt_get(fut: asyncio.Future) -> tuple[int, bytes]:
        values = await fut
        if values[0] is None:
            return protocol.NOT_FOUND, b""
        return protocol.OK, protocol.encode_value_body(values[0])

    async def _fmt_ack(self, shard_id: int, fut: asyncio.Future) -> tuple[int, bytes]:
        seq = await fut
        if not isinstance(seq, int):
            return protocol.OK, b""  # non-durable engine: no token
        repl = self._replication
        if repl is not None:
            # Synchronous replication gate: the local group commit made
            # the write durable *here*; the ack waits until every
            # voting follower confirms it durable *there*, so a
            # client-visible OK survives the loss of this whole node.
            await asyncio.wait_for(
                repl.wait_durable(shard_id, seq), self._repl_ack_timeout
            )
        return protocol.OK, protocol.encode_u64_body(seq)

    @staticmethod
    async def _fmt_batch_get(n_keys, futs) -> tuple[int, bytes]:
        out: list[Any] = [None] * n_keys
        for idxs, fut in futs:
            values = await fut
            for i, value in zip(idxs, values):
                out[i] = value
        return protocol.OK, protocol.encode_maybe_values(out, missing=None)

    @staticmethod
    async def _fmt_scan(count, futs) -> tuple[int, bytes]:
        """Merge per-shard scans by key (shards are disjoint by hash,
        so the heap merge needs no newest-wins logic)."""
        per_shard = await asyncio.gather(*futs)
        merged = heapq.merge(*per_shard, key=lambda kv: kv[0])
        out = []
        for pair in merged:
            out.append(pair)
            if len(out) >= count:
                break
        return protocol.OK, protocol.encode_pairs(out)

    @staticmethod
    async def _fmt_count(futs) -> tuple[int, bytes]:
        counts = await asyncio.gather(*futs)
        return protocol.OK, protocol.encode_u64_body(sum(counts))

    @staticmethod
    async def _fmt_sync(futs) -> tuple[int, bytes]:
        await asyncio.gather(*futs)
        return protocol.OK, b""

    async def _fmt_stats(self, futs) -> tuple[int, bytes]:
        per_shard = []
        for shard, fut in futs:
            info = None
            if fut is not None:
                try:
                    info = await fut
                except Exception:
                    info = None  # worker died/drained mid-request
            per_shard.append(info if info is not None else shard.snapshot_info())
        snapshot = self.stats.snapshot(per_shard)
        self._extend_stats(snapshot)
        return protocol.OK, json.dumps(snapshot).encode()


class ServerThread:
    """Run a :class:`KVServer` on a private event loop in a daemon
    thread — the bridge that lets synchronous harnesses (tests, the
    differential fuzzer, the sync client benchmarks) drive the asyncio
    server in-process."""

    def __init__(self, server: KVServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="kv-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            self._thread.join(timeout=10)
            raise self._startup_error
        return self

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_forever()
        finally:
            self._ready.set()
            try:
                loop.close()
            except Exception:
                pass

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain from the calling thread; idempotent."""
        loop, thread = self._loop, self._thread
        if thread is None or loop is None or not thread.is_alive():
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), loop
            ).result(timeout=timeout)
        except Exception:
            pass
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout)
