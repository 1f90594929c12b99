"""One benchmark run: set up, measure, drain, verify, report.

A run spawns the server (or a primary and one follower) as child
processes, loads the workload's keys over the wire, then drives
alternating closed-loop and open-loop windows from this one asyncio
process.  Afterwards it drains the servers with SIGTERM and re-opens
every shard directory here to check that each acked write survived.

With ``trace`` set the run also collects the per-layer metrics (see
:mod:`layers`); the end-to-end metrics always come from untraced runs.
"""

from __future__ import annotations

import asyncio
import hashlib
import inspect
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy
from repro.cluster.routing import route_key
from repro.lsm import LSMTree
from repro.server.client import AsyncKVClient
from repro.server.server import KVServer

import layers
from loadgen import LoadGenerator, Model, Recorder, bulk_load, merge
from procs import Fleet, dir_bytes
from stats import median, percentile, tail_ok
from workloads import (
    CLOSED_SHARE,
    CONNECTIONS,
    IN_FLIGHT_PER_CONNECTION,
    LOAD_ROUND_MAX,
    N_SHARDS,
    ROUNDS,
    SETUP_ROUNDS,
    SLICE_S,
    VALUE_SIZE,
    WARMUP_S,
    WORKLOADS,
    Inputs,
    make_value,
    value_version,
)

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("server_rss_mib", "MiB"),
    ("space_amp", "ratio"),
)


@dataclass
class Window:
    """One measured window: ops completed, per second, the share of CPU
    the host stole meanwhile, the CPU seconds the servers used, what the
    client recorded, and the latencies of the ops that completed in
    each of its slices of ``slice_s`` seconds."""

    ops: int
    rate: float
    steal: float
    server_cpu_s: float
    rec: Recorder
    slices: list[list[float]]
    slice_s: float


def cut(rec: Recorder, start: float, length: float) -> tuple[list[list[float]], float]:
    """The latencies of the ops completed in each of the slices, about
    SLICE_S long, of ``[start, start + length)``, and their exact length."""
    n = max(1, round(length / SLICE_S))
    width = length / n
    out: list[list[float]] = [[] for _ in range(n)]
    for end, lat in zip(rec.ends, rec.lats):
        i = int((end - start) / width)
        if 0 <= i < n:
            out[i].append(lat)
    return out, width


def load_round() -> int:
    """Keys per shard per bulk-load round: the largest divisor of the
    served memtable size up to LOAD_ROUND_MAX."""
    entries = inspect.signature(LSMTree).parameters["memtable_entries"].default
    return max(d for d in range(1, LOAD_ROUND_MAX + 1) if entries % d == 0)


def slice_median(windows: list[Window], stat) -> float:
    """Median over every slice of ``windows`` of ``stat`` (a function of
    the slice's latencies and its length in seconds, None where it has
    no value)."""
    values = [stat(lats, w.slice_s) for w in windows for lats in w.slices]
    return median([v for v in values if v is not None])


def rate(lats: list[float], seconds: float) -> float:
    return len(lats) / seconds


def p50(lats: list[float], _seconds: float) -> float | None:
    return percentile(lats, 50) if lats else None


def p95(lats: list[float], _seconds: float) -> float | None:
    return percentile(lats, 95) if lats else None


class Run:
    """State of one run: the fleet, the live servers, and the model."""

    def __init__(self, fleet: Fleet, workload_name: str, seed: int) -> None:
        self.fleet = fleet
        self.spec = WORKLOADS[workload_name]
        self.inputs = Inputs(self.spec, seed)
        self.servers = []
        self.conns: list[AsyncKVClient] = []
        self.model: Model | None = None
        self.setup_times: list[float] = []
        #: Exit codes of the servers of discarded set-up rounds.
        self.discarded_exit_codes: list[int] = []

    # -- set-up --------------------------------------------------------------

    async def setup_once(self) -> None:
        """Spawn, connect, bulk-load and sync; appends to setup_times."""
        started = time.perf_counter()
        if self.spec.replicated:
            follower = self.fleet.spawn_node(N_SHARDS, "follower", [])
            primary = self.fleet.spawn_node(N_SHARDS, "primary", [follower.addr])
            self.servers = [primary, follower]
        else:
            self.servers = [self.fleet.spawn_server(N_SHARDS)]
        front = self.servers[0]
        self.conns = [
            await AsyncKVClient.connect(front.host, front.port)
            for _ in range(CONNECTIONS)
        ]
        if self.spec.replicated:
            await layers.wait_link_streaming(self.conns[0])
        self.model = Model(self.inputs.keys)
        await bulk_load(self.conns, self.model, self.inputs.keys_by_shard, load_round())
        await self.wait_quiescent()
        self.setup_times.append(time.perf_counter() - started)

    async def wait_quiescent(self, timeout: float = 120.0) -> None:
        """Poll STATS until no server has a frozen memtable waiting for a
        flush or a level over its limit: the load's background work is
        part of set-up, not of the measured phases."""
        deadline = time.monotonic() + timeout
        for server in self.servers:
            client = await AsyncKVClient.connect(server.host, server.port)
            try:
                while True:
                    shards = (await client.stats())["shards"]
                    if all(s["immutables"] == 0 and s["compaction_backlog"] == 0
                           for s in shards):
                        break
                    if time.monotonic() > deadline:
                        raise RuntimeError(f"background work never drained: {shards}")
                    await asyncio.sleep(0.02)
            finally:
                await client.close()

    async def close_conns(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []

    async def setup(self) -> None:
        for _ in range(SETUP_ROUNDS - 1):
            await self.setup_once()
            await self.close_conns()
            self.discarded_exit_codes += self.fleet.discard(self.servers)
        await self.setup_once()

    # -- measurement ---------------------------------------------------------

    async def measure(self, seconds: float, trace: bool) -> dict:
        """Warm up, then ROUNDS rounds of (closed window, open window).

        Every window is cut into SLICE_S slices, and each metric is the
        median over the slices of its value in one slice (ops per
        second, or a latency percentile).  On a shared 2-core host a
        whole window's throughput swung by 40% between windows of one
        run — background compaction, other guests — and a median over
        a few hundred slices moves far less than a mean over the run.
        CPU per op is the median over windows, and space amplification
        the median over samples taken after each window, so neither
        depends on where in a flush and compaction cycle the run ends.
        Every answer is checked all the same.
        """
        gen = LoadGenerator(self.model, self.conns)
        stream = self.inputs.op_stream()
        closed_s = seconds * CLOSED_SHARE / ROUNDS
        open_s = seconds * (1 - CLOSED_SHARE) / ROUNDS
        depth = IN_FLIGHT_PER_CONNECTION
        space_amp: list[float] = []

        def closed_load(rec: Recorder):
            return gen.closed_loop(stream, closed_s, rec, depth)

        def open_load(rec: Recorder):
            offsets = self.inputs.arrivals(self.spec.rated_ops_s, open_s)
            return gen.open_loop(stream, offsets, rec)

        def server_cpu() -> float:
            return sum(s.cpu_seconds() for s in self.servers)

        async def window(load, rec: Recorder, length: float) -> Window:
            ticks, cpu = _cpu_ticks(), server_cpu()
            start = time.perf_counter()
            elapsed = await load(rec)
            ops = len(rec.all_latencies())
            disk = sum(dir_bytes(s.data_dir) for s in self.servers)
            space_amp.append(disk / self.model.live_bytes(VALUE_SIZE))
            return Window(
                ops, ops / elapsed, _steal_frac(ticks, _cpu_ticks()), server_cpu() - cpu, rec,
                *cut(rec, start, length),
            )

        warmup = Recorder(False)
        await gen.closed_loop(stream, WARMUP_S, warmup, depth)
        out: dict = {"warmup": warmup}
        observer = await layers.Observer.start(self.servers) if trace else None
        closed, rated, untraced = [], [], []
        client_cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(ROUNDS):
            if observer is not None:
                # An untraced twin of each traced closed window, run
                # right before it, for the tracing overhead ratio.
                untraced.append(await window(closed_load, Recorder(False), closed_s))
                await observer.begin()
            closed.append(await window(closed_load, Recorder(trace), closed_s))
            if observer is not None:
                await observer.end()
            rated.append(await window(open_load, Recorder(trace), open_s))
        client_cpu_frac = (time.process_time() - client_cpu) / (time.perf_counter() - wall)
        if observer is not None:
            await observer.close()
        final_stats = await self.conns[0].stats() if self.spec.replicated else None
        retries = sum(c.retries for c in self.conns)
        await self.close_conns()

        if untraced:
            out["untraced_throughput"] = slice_median(untraced, rate)
            out["untraced"] = merge([w.rec for w in untraced])
        out["closed"] = merge([w.rec for w in closed])
        out["open"] = merge([w.rec for w in rated])

        def slice_size(windows: list[Window]) -> int:
            return int(median([len(lats) for w in windows for lats in w.slices]))

        out.update(
            throughput_ops_s=slice_median(closed, rate),
            op_p50_us=slice_median(closed, p50),
            op_p95_us=slice_median(closed, p95),
            rated_p50_us=slice_median(rated, p50),
            rated_p95_us=slice_median(rated, p95),
            server_cpu_us_per_op=median([w.server_cpu_s / w.ops * 1e6 for w in closed]),
            space_amp=median(space_amp),
            window_rates=[w.rate for w in closed],
            window_steal=[w.steal for w in closed],
            client_cpu_frac=client_cpu_frac,
            slices={
                "closed": [sum(len(w.slices) for w in closed), slice_size(closed)],
                "open": [sum(len(w.slices) for w in rated), slice_size(rated)],
            },
            # A slice's p95 needs ten samples beyond it.
            tail_ok=tail_ok(min(slice_size(closed), slice_size(rated)), 95),
            observer=observer,
            final_stats=final_stats,
            retries=retries,
        )
        return out

    # -- drain and verify ----------------------------------------------------

    def drain(self) -> dict:
        """Read peak RSS and I/O, then SIGTERM every server (primary
        first, so it ships its tail to the follower)."""
        rss = sum(s.peak_rss_mib() for s in self.servers)
        primary_written = self.servers[0].write_bytes()
        codes = [s.drain() for s in self.servers]
        return {
            "server_rss_mib": rss,
            "primary_write_bytes": primary_written,
            "exit_codes": codes,
        }

    def verify_durable(self) -> tuple[int, int, list[str]]:
        """Re-open every shard of every server here and read back each
        key the client wrote.  Returns (checked, mismatched, examples)."""
        m = self.model
        by_shard: dict[int, list[bytes]] = {}
        for key in m.acked:
            by_shard.setdefault(route_key(key, N_SHARDS), []).append(key)
        checked = bad = 0
        examples: list[str] = []
        for server in self.servers:
            for shard, keys in sorted(by_shard.items()):
                engine = LSMTree.open(os.path.join(server.data_dir, f"shard-{shard:02d}"))
                try:
                    values = engine.get_many(keys)
                finally:
                    engine.close()
                for key, value in zip(keys, values):
                    checked += 1
                    lo, hi = m.acked[key], m.sent[key]
                    ok = (
                        isinstance(value, bytes)
                        and lo <= value_version(value) <= hi
                        and value == make_value(key, value_version(value))
                    )
                    if not ok:
                        bad += 1
                        if len(examples) < 10:
                            examples.append(
                                f"{server.data_dir} shard {shard}: {key!r} -> {value!r} "
                                f"(acked version {lo})"
                            )
        return checked, bad, examples


def provenance(run: Run, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Everything needed to compare this run with another."""

    def defaults(fn) -> dict:
        return {
            k: p.default
            for k, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty
            and isinstance(p.default, (int, float, bool, str, type(None)))
        }

    engine = defaults(LSMTree.__init__)
    spec = run.spec
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
        "src_sha1": _tree_sha1(os.path.join(root, "src")),
        "filesystem": _fs_type(run.fleet.root),
        "cpus": {
            "client": sorted(run.fleet.client_cpus),
            "servers": sorted(run.fleet.server_cpus),
        },
        "server": {
            "entry_point": "repro.cluster node" if spec.replicated else "repro.server serve",
            "shards": N_SHARDS,
            "follower": spec.replicated,
            "queue_limit": defaults(KVServer.__init__).get("queue_limit"),
            "background": True,  # KVServer's served default
            "wal_sync_every": engine.get("wal_sync_every"),
            "memtable_entries": engine.get("memtable_entries"),
            "block_cache_blocks": engine.get("block_cache_blocks"),
            "block_entries": engine.get("block_entries"),
            "filter": None,
        },
        "sizes": {
            "keys": len(run.inputs.keys),
            "key_kind": spec.key_kind,
            "value_bytes": VALUE_SIZE,
            "mix": dict(spec.mix),
            "connections": CONNECTIONS,
            "in_flight_per_connection": IN_FLIGHT_PER_CONNECTION,
            "load_round_per_shard": load_round(),
            "rated_ops_s": spec.rated_ops_s,
            "closed_s": seconds * CLOSED_SHARE,
            "open_s": seconds * (1 - CLOSED_SHARE),
            "rounds": ROUNDS,
            "warmup_s": WARMUP_S,
            "setup_rounds": SETUP_ROUNDS,
        },
    }


def _commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _tree_sha1(path: str) -> str:
    """Content hash of the program source (the checkout may not be a
    git repository)."""
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(path)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                full = os.path.join(base, name)
                digest.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_ticks() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _steal_frac(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests — host
    noise no change to the program can explain."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


def _fs_type(path: str) -> str:
    best, fstype = "", "unknown"
    with open("/proc/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


def execute(args, root: str) -> int:
    """Run one workload; print the report and the final JSON line."""
    scratch = os.path.join(root, ".perfbench_run")
    with Fleet(scratch, os.path.join(root, "src")) as fleet:
        run = Run(fleet, args.workload, args.seed)
        prov = provenance(run, args.seed, args.seconds, bool(args.trace), root)

        async def drive() -> dict:
            await run.setup()
            measured = await run.measure(args.seconds, bool(args.trace))
            await run.wait_quiescent()  # so lsm.write_amp counts the run's backlog
            return measured

        steal_from = _cpu_ticks()
        measured = asyncio.run(drive())
        measured["host_steal_frac"] = _steal_frac(steal_from, _cpu_ticks())
        pids = [s.pid for s in fleet.servers]
        drained = run.drain()
        checked, bad, examples = run.verify_durable()
        if args.trace:
            replay = layers.replay(run, measured)

    recs = {k: measured[k] for k in ("warmup", "untraced", "closed", "open") if k in measured}
    attempted = sum(r.attempted for r in recs.values()) + checked
    failed = sum(r.failed for r in recs.values()) + bad
    problems = [e for r in recs.values() for e in r.errors] + examples
    exit_codes = run.discarded_exit_codes + drained["exit_codes"]
    if any(code != 0 for code in exit_codes):
        failed += 1
        problems.append(f"server exit codes {exit_codes}")
    link_problem = layers.link_problem(measured["final_stats"])
    if link_problem:
        failed += 1
        problems.append(link_problem)

    report = {
        "setup_s": median(run.setup_times),
        "server_rss_mib": drained["server_rss_mib"],
        "space_amp": measured["space_amp"],
    }
    extra = {
        "rated_p50_us": (measured["rated_p50_us"], "us"),
        "rated_p95_us": (measured["rated_p95_us"], "us"),
        "throughput_ops_s": (measured["throughput_ops_s"], "1/s"),
        "server_cpu_us_per_op": (measured["server_cpu_us_per_op"], "us"),
        "op_p50_us": (measured["op_p50_us"], "us"),
        "op_p95_us": (measured["op_p95_us"], "us"),
        **client_breakdown(recs, attempted, failed),
    }
    print(json.dumps({"provenance": prov, "server_pids": pids}))
    print(f"# {args.workload} seed={args.seed} setups={[round(t, 3) for t in run.setup_times]} "
          f"window_rates={[round(r) for r in measured['window_rates']]} "
          f"host_steal_frac={measured['host_steal_frac']:.3f} "
          f"client_cpu_frac={measured['client_cpu_frac']:.2f} "
          f"slices_and_median_ops={measured['slices']} tail_ok={measured['tail_ok']}")
    for name, unit in END_TO_END:
        print(f"{name} {report[name]:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)

    if args.trace:
        values = layers.per_layer(run, measured, replay, drained, recs)
        for name, unit in {**layers.PER_LAYER, **layers.CLUSTER}.items():
            if name in values:
                print(f"{name} {values[name]:.6g} {unit}")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    _save(scratch, args, prov, report, extra, metrics, measured)
    if args.trace:
        spans = measured["closed"].spans + measured["open"].spans
        layers.write_spans(_result_path(scratch, args, "spans.jsonl"), spans)
        for name, row in sorted(layers.span_summary(spans).items()):
            print(f"# span {name}: n={row['count']} mean={row['mean_us']:.1f}us "
                  f"self={row['self_us']:.1f}us")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def client_breakdown(recs: dict[str, Recorder], attempted: int, failed: int) -> dict:
    """Per-op-type closed-loop latency (for ops that are at least 20%
    of the mix) and the failure share, printed with every run."""
    closed = recs["closed"]
    total = sum(len(v) for v in closed.latency_us.values()) or 1
    out: dict[str, tuple[float, str]] = {}
    for op in ("get", "put", "scan"):
        samples = closed.latency_us.get(op, [])
        if len(samples) / total < 0.2:
            continue
        out[f"{op}_p50_us"] = (percentile(samples, 50), "us")
        if tail_ok(len(samples), 99):
            out[f"{op}_p99_us"] = (percentile(samples, 99), "us")
    out["failed_frac"] = (failed / attempted if attempted else 0.0, "ratio")
    return out


def _result_path(scratch: str, args, suffix: str) -> str:
    out_dir = os.path.join(scratch, "results")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}.{suffix}"
    )


def _save(scratch, args, prov, report, extra, metrics, measured) -> None:
    """Keep the full result beside the run for later reading."""
    with open(_result_path(scratch, args, "json"), "w") as fh:
        json.dump(
            {
                "provenance": prov,
                "end_to_end": report,
                "client": {k: v[0] for k, v in extra.items()},
                "metrics": metrics,
                "window_rates": measured["window_rates"],
                "window_steal": measured["window_steal"],
                "slices_and_median_ops": measured["slices"],
                "host_steal_frac": measured["host_steal_frac"],
            },
            fh, indent=2, sort_keys=True,
        )
