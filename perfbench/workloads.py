"""Workload definitions and the seeded inputs they generate.

Every input — key set, operation stream, open-loop arrival times — is a
pure function of ``(workload, seed)``.  The server only ever sees the
generated requests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Client shape: one asyncio process, 2 connections (one per core of
#: the 2-core reference host), 8 requests in flight on each.
CONNECTIONS = 2
IN_FLIGHT_PER_CONNECTION = 8
#: Most keys per shard in one bulk-load round (all in flight at once);
#: the round is the largest size up to this that divides the served
#: memtable size, so memtable freezes land on round boundaries.
LOAD_ROUND_MAX = 64

N_SHARDS = 2
VALUE_SIZE = 100
ZIPF_THETA = 0.99  # YCSB's default request skew
SCAN_LEN_MIN, SCAN_LEN_MAX = 50, 100

#: Share of ``--seconds`` spent in the closed loop; the rest is the
#: open loop.  Both are cut into ROUNDS alternating windows.  A warm-up
#: of WARMUP_S precedes them and is not measured.
CLOSED_SHARE = 0.65
ROUNDS = 8
WARMUP_S = 1.0
#: Fresh set-ups per run; ``setup_s`` is their median, and only the
#: last one's servers are measured.
SETUP_ROUNDS = 3
#: Each window is cut into slices this long; a metric is the median of
#: its per-slice values.
SLICE_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    key_kind: str  # "email" | "u64"
    n_keys: int
    #: Operation mix over "get", "put" (update of a loaded key),
    #: "insert" (a new key) and "scan".
    mix: tuple[tuple[str, float], ...]
    replicated: bool
    #: Open-loop Poisson arrival rate: 25-35% of the closed-loop
    #: capacity measured on a quiet host when the benchmark was defined.
    rated_ops_s: float


#: Why each workload exists is in README.md (and each one's ``why`` in
#: BENCHMARK.json).  ``ycsb-e`` and ``ycsb-a-repl`` are run by hand
#: only: a full check of the benchmark runs each named workload 26
#: times, and two are all its time budget holds.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ycsb-c-large", "email", 100_000, (("get", 1.0),), False,
            rated_ops_s=2500.0,
        ),
        Workload(
            "ycsb-a", "u64", 10_000, (("get", 0.5), ("put", 0.5)), False,
            rated_ops_s=2500.0,
        ),
        Workload(
            "ycsb-e", "u64", 10_000, (("scan", 0.95), ("insert", 0.05)), False,
            rated_ops_s=25.0,
        ),
        Workload(
            "ycsb-a-repl", "u64", 10_000, (("get", 0.5), ("put", 0.5)), True,
            rated_ops_s=1500.0,
        ),
    )
}


# -- values -----------------------------------------------------------------


def make_value(key: bytes, version: int) -> bytes:
    """The 100-byte value of ``key`` at ``version``: self-describing, so
    any answer can be checked against the versions the client sent."""
    head = b"%016x%08x" % (version, zlib.crc32(key))
    return head + b"." * (VALUE_SIZE - len(head))


def value_version(value: bytes) -> int:
    return int(value[:16], 16)


# -- inputs ------------------------------------------------------------------


def u64_keys(n: int, rng: np.random.Generator) -> list[bytes]:
    """``n`` distinct uniform 64-bit keys, big-endian (byte order is
    numeric order)."""
    seen: dict[int, None] = {}
    while len(seen) < n:
        for v in rng.integers(0, 2**64 - 1, size=n - len(seen) + 16, dtype=np.uint64):
            seen.setdefault(int(v))
    return [v.to_bytes(8, "big") for v in list(seen)[:n]]


def balanced(candidates: list[bytes], n: int) -> list[list[bytes]]:
    """The first ``n / N_SHARDS`` candidates that route to each shard.

    Equal shards make the state after the bulk load the same for every
    seed: with the load's rounds (see ``loadgen.bulk_load``) each shard
    freezes its memtable at exactly the same points and ends the load
    with the same number of entries still in it, which a scan pays for
    on every seek."""
    from repro.cluster.routing import route_key

    per_shard = n // N_SHARDS
    shards: list[list[bytes]] = [[] for _ in range(N_SHARDS)]
    for key in candidates:
        shard = shards[route_key(key, N_SHARDS)]
        if len(shard) < per_shard:
            shard.append(key)
    if any(len(s) < per_shard for s in shards):
        raise RuntimeError("too few candidate keys to fill every shard")
    return shards


class Inputs:
    """The seeded inputs of one run of one workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        n = workload.n_keys
        name_crc = zlib.crc32(workload.name.encode())
        rng = np.random.default_rng([seed, name_crc])
        n_insert = 20_000 if "insert" in dict(workload.mix) else 0
        # Draw spare candidates so every shard can get exactly n/N_SHARDS.
        n_draw = n + n // 10 + 64
        if workload.key_kind == "email":
            from repro.workloads.keys import email_keys

            candidates = email_keys(n_draw, seed=seed)
        else:
            candidates = u64_keys(n_draw + n_insert, rng)
        self.keys_by_shard = balanced(candidates, n)
        self.keys = [k for shard in self.keys_by_shard for k in shard]
        chosen = set(self.keys)
        self.insert_pool = [k for k in candidates if k not in chosen][: n_insert]
        # The op stream and the arrival times draw from generators of
        # their own: how many ops a closed window consumes depends on
        # the program's speed, and must not shift the other's inputs.
        self._op_rng = np.random.default_rng([seed, name_crc, 0])
        self._arrival_rng = np.random.default_rng([seed, name_crc, 1])
        self._kind_names = [k for k, _ in workload.mix]
        self._kind_probs = np.array([p for _, p in workload.mix])
        ranks = np.arange(1, n + 1, dtype=np.float64)
        self._zipf_cdf = np.cumsum(1.0 / ranks**ZIPF_THETA)
        self._zipf_cdf /= self._zipf_cdf[-1]
        # Scrambled Zipfian: popularity rank r maps to a random key, so
        # hot keys are spread over the key space (and over shards).
        self._rank_to_key = rng.permutation(n)
        self._next_insert = 0

    def op_stream(self, chunk: int = 4096):
        """Endless seeded stream of ``(kind, key, scan_len)``."""
        rng = self._op_rng
        while True:
            kinds = rng.choice(len(self._kind_names), size=chunk, p=self._kind_probs)
            ranks = np.searchsorted(self._zipf_cdf, rng.random(chunk))
            lens = rng.integers(SCAN_LEN_MIN, SCAN_LEN_MAX + 1, size=chunk)
            for kind_idx, rank, scan_len in zip(kinds, ranks, lens):
                kind = self._kind_names[kind_idx]
                if kind == "insert":
                    key = self.insert_pool[self._next_insert]
                    self._next_insert += 1
                else:
                    key = self.keys[self._rank_to_key[rank]]
                yield kind, key, int(scan_len)

    def arrivals(self, rate: float, duration: float) -> np.ndarray:
        """Poisson arrival offsets (seconds) over ``duration``."""
        n = int(rate * duration * 1.5) + 16
        times = np.cumsum(self._arrival_rng.exponential(1.0 / rate, size=n))
        return times[times < duration]
