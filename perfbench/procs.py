"""Server processes for the benchmark: spawn, observe, drain, reap.

Every server the benchmark starts is a child process running one of the
program's own entry points (``python -m repro.server serve`` or
``python -m repro.cluster node``).  Children bind port 0 and print a
ready line ending in ``on HOST:PORT``; the benchmark parses it instead
of guessing free ports.  :class:`Fleet` owns the children and their
data directories and tears both down on every exit path.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import signal
import subprocess
import sys
import threading

READY_TIMEOUT_S = 60.0
PR_SET_PDEATHSIG = 1
DRAIN_TIMEOUT_S = 60.0


class Server:
    """One spawned server process and the data directory it owns."""

    def __init__(self, argv: list[str], data_dir: str, env: dict[str, str], setup) -> None:
        self.data_dir = data_dir
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            start_new_session=True,  # a Ctrl-C at the terminal reaches us, not it
            preexec_fn=setup,
        )
        self.pid = self.proc.pid
        self.host, self.port = self._await_ready()
        self._pump = threading.Thread(target=self._drain_stdout, daemon=True)
        self._pump.start()

    def _await_ready(self) -> tuple[str, int]:
        result: list[str] = []
        reader = threading.Thread(
            target=lambda: result.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(READY_TIMEOUT_S)
        line = result[0] if result else ""
        if " on " not in line:
            self.kill()
            raise RuntimeError(f"server did not become ready: {line!r}")
        host, _, port = line.rsplit(" on ", 1)[1].strip().rpartition(":")
        return host, int(port)

    def _drain_stdout(self) -> None:
        # Keeps the pipe empty so the child never blocks on a write.
        for _ in self.proc.stdout:
            pass

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.proc.poll() is None

    def peak_rss_mib(self) -> float:
        """``VmHWM`` — the process's peak resident set, in MiB."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the process has used so far."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def write_bytes(self) -> int:
        """Bytes this process caused to be sent to the storage layer."""
        with open(f"/proc/{self.pid}/io") as fh:
            for line in fh:
                if line.startswith("write_bytes:"):
                    return int(line.split()[1])
        raise RuntimeError("write_bytes missing from /proc io")

    def drain(self) -> int:
        """SIGTERM (the server's graceful drain) and wait for the exit."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"server {self.pid} did not drain in time")
        self._pump.join(5.0)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
            pass


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:
                pass
    return total


class Fleet:
    """Owns every server of one run plus a scratch root for their data.

    Use as a context manager: on exit — normal, exception, or Ctrl-C —
    every child still running is killed and waited for, and the scratch
    root is removed.  SIGTERM to the benchmark is turned into
    ``KeyboardInterrupt`` so it takes the same path.
    """

    def __init__(self, scratch_root: str, src_dir: str) -> None:
        os.makedirs(scratch_root, exist_ok=True)
        # Data left by a run that was killed outright (no finally ran).
        for name in os.listdir(scratch_root):
            pid = name.removeprefix("run-")
            if name.startswith("run-") and pid.isdigit() and not os.path.exists(f"/proc/{pid}"):
                shutil.rmtree(os.path.join(scratch_root, name), ignore_errors=True)
        self.root = os.path.join(scratch_root, f"run-{os.getpid()}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.servers: list[Server] = []
        self._env = {
            **os.environ,
            "PYTHONPATH": src_dir,
            "PYTHONUNBUFFERED": "1",
            "PYTHONHASHSEED": "0",
        }
        self._counter = 0
        self._old_term = None
        # With two or more CPUs the client keeps the first and the
        # servers get the rest, so the scheduler cannot reshuffle them
        # from run to run.
        cpus = sorted(os.sched_getaffinity(0))
        self.client_cpus = set(cpus[:1]) if len(cpus) > 1 else set()
        self.server_cpus = set(cpus[1:]) if len(cpus) > 1 else set()
        try:
            libc = ctypes.CDLL("libc.so.6", use_errno=True)
            libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            libc.prctl.restype = ctypes.c_int
        except OSError:  # not glibc: no parent-death signal
            libc = None
        self._child_setup = functools.partial(_child_setup, libc, self.server_cpus)

    def __enter__(self) -> "Fleet":
        self._old_term = signal.signal(signal.SIGTERM, _raise_interrupt)
        if self.client_cpus:
            os.sched_setaffinity(0, self.client_cpus)
        return self

    def __exit__(self, *exc) -> None:
        try:
            for server in self.servers:
                server.kill()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
            signal.signal(signal.SIGTERM, self._old_term or signal.SIG_DFL)

    def _data_dir(self, name: str) -> str:
        self._counter += 1
        path = os.path.join(self.root, f"{self._counter:02d}-{name}")
        os.makedirs(path)
        return path

    def spawn_server(self, n_shards: int) -> Server:
        path = self._data_dir("server")
        argv = [
            sys.executable, "-m", "repro.server", "serve",
            "--path", path, "--shards", str(n_shards), "--port", "0",
        ]
        return self._track(argv, path)

    def spawn_node(self, n_shards: int, role: str, followers: list[str]) -> Server:
        path = self._data_dir(role)
        argv = [
            sys.executable, "-m", "repro.cluster", "node",
            "--path", path, "--shards", str(n_shards), "--port", "0",
            "--role", role,
        ]
        for addr in followers:
            argv += ["--follower", addr]
        return self._track(argv, path)

    def _track(self, argv: list[str], path: str) -> Server:
        server = Server(argv, path, self._env, self._child_setup)
        self.servers.append(server)
        return server

    def discard(self, servers: list[Server]) -> list[int]:
        """Drain and forget servers (an extra set-up round), freeing
        their data directories.  Returns their exit codes."""
        codes = []
        for server in servers:
            codes.append(server.drain())
            self.servers.remove(server)
            shutil.rmtree(server.data_dir, ignore_errors=True)
        return codes


def _child_setup(libc, cpus: set[int]) -> None:
    """Runs in the child before exec.  PR_SET_PDEATHSIG: SIGKILL the
    server if the benchmark dies, even by SIGKILL, so none outlives the
    run.  (libc is loaded in the parent: loading it after fork could
    deadlock on a lock another thread held.)"""
    if libc is not None:
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if cpus:
        os.sched_setaffinity(0, cpus)


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt(f"signal {signum}")
