"""The benchmark's own checks: answers are checked, and no server
process outlives a run.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from loadgen import LoadGenerator, Model, Recorder  # noqa: E402
from workloads import make_value  # noqa: E402


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _children(pid: int) -> list[int]:
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == pid:
            out.append(int(name))
    return out


def _smoke(workload: str, *extra: str) -> list[str]:
    return [sys.executable, RUN, "--workload", workload, "--seed", "3",
            "--seconds", "1", *extra]


def _result(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


class _ScanConn:
    """Answers every SCAN with a canned list of pairs."""

    def __init__(self, pairs):
        self.pairs = pairs

    async def scan(self, low, count):
        return self.pairs


def _scan_ok(keys: list[bytes], pairs, low: bytes, count: int) -> bool:
    conn = _ScanConn(pairs)
    rec = Recorder(False)
    gen = LoadGenerator(Model(keys), [conn])
    asyncio.run(gen.run_op(("scan", low, count), conn, rec, time.perf_counter()))
    return rec.failed == 0


def test_scan_checker_accepts_a_right_answer_and_flags_wrong_ones():
    keys = [bytes([i]) * 8 for i in range(1, 9)]
    pair = {k: (k, make_value(k, 0)) for k in keys}
    low = keys[2]
    right = [pair[k] for k in keys[2:5]]
    assert _scan_ok(keys, right, low, 3)
    # The key space ran out: a short answer must reach the last key.
    assert _scan_ok(keys, [pair[k] for k in keys[2:]], low, 10)
    assert not _scan_ok(keys, [pair[k] for k in keys[2:7]], low, 10)
    # A gap, a reordering, a key below low, and a malformed value.
    assert not _scan_ok(keys, [pair[keys[2]], pair[keys[4]], pair[keys[5]]], low, 3)
    assert not _scan_ok(keys, [pair[keys[3]], pair[keys[2]], pair[keys[4]]], low, 3)
    assert not _scan_ok(keys, [pair[k] for k in keys[1:4]], low, 3)
    assert not _scan_ok(keys, [pair[keys[2]], (keys[3], b"x" * 100), pair[keys[4]]], low, 3)


def test_scan_workload_runs_clean():
    """ycsb-e (SCAN plus inserts) passes its own answer checks."""
    out = subprocess.run(
        _smoke("ycsb-e"), cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    _result(out)
    assert any(line.startswith("scan_p50_us ") for line in out.stdout.splitlines())


def test_servers_are_reaped_after_a_run():
    out = subprocess.run(
        _smoke("ycsb-a-repl"), cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    _result(out)
    lines = out.stdout.strip().splitlines()
    pids = next(json.loads(l)["server_pids"] for l in lines if l.startswith('{"provenance"'))
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


def test_interrupt_kills_servers_and_removes_data():
    proc = subprocess.Popen(
        _smoke("ycsb-a"), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        servers: list[int] = []
        deadline = time.monotonic() + 60
        while not servers and time.monotonic() < deadline:
            time.sleep(0.1)
            servers = _children(proc.pid)
        assert servers, "no server was started"
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert not any(_alive(pid) for pid in servers)
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_run", f"run-{proc.pid}"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-a", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
