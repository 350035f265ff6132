"""A real taskgrid cluster of subprocesses, and the checks that none outlives a run.

Each cluster member starts in its own session, so it leads a process
group that also holds the spawn-pool helpers ``sobel_parallel`` starts.
Teardown kills every group and then waits until no live process is left
in any of them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from taskgrid.client import MasterClient, MasterUnreachable
from taskgrid.protocol import SubmitTask

HOST = "127.0.0.1"
GPU_WORKER = "gpu-1"
CPU_WORKER = "cpu-1"
WARMUP_POLL_S = 0.01
START_TIMEOUT_S = 60.0
REAP_TIMEOUT_S = 10.0
PR_SET_PDEATHSIG = 1


class ClusterError(RuntimeError):
    pass


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _live_processes() -> list[tuple[int, int, int]]:
    """(pid, ppid, pgid) of every non-zombie process in /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid pgrp ...
        state, ppid, pgid = text[text.rindex(")") + 2 :].split()[:3]
        if state != "Z":
            found.append((int(entry.name), int(ppid), int(pgid)))
    return found


def live_members(pgids: set[int]) -> list[int]:
    """Pids of live processes whose process group is in ``pgids``."""
    return [pid for pid, _, pgid in _live_processes() if pgid in pgids]


def live_children() -> list[int]:
    """Pids of this process's live children."""
    me = os.getpid()
    return [pid for pid, ppid, _ in _live_processes() if ppid == me]


def _die_with_parent() -> None:
    # Runs in the child before exec: if the benchmark is killed outright,
    # the kernel sends SIGKILL to the member instead of orphaning it.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MiB, from /proc/<pid>/status."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise ClusterError(f"no VmHWM for pid {pid}")


class Cluster:
    """One master, one GPU-ring and one CPU-ring worker, each ``--lanes 2``."""

    def __init__(self, root: Path, log_dir: Path):
        self.root = root
        self.log_dir = log_dir
        self.port = free_port()
        self.procs: dict[str, subprocess.Popen] = {}
        self.setup_s: float | None = None

    def _spawn(self, name: str, args: list[str]) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log_dir / f"{name}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "taskgrid.cli", "--log-level", "WARNING", *args],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        self.procs[name] = proc

    def _check_alive(self) -> None:
        for name, proc in self.procs.items():
            if proc.poll() is not None:
                raise ClusterError(f"{name} exited with {proc.returncode}; see {self.log_dir / name}.log")

    @property
    def master_pid(self) -> int:
        return self.procs["master"].pid

    def start(self) -> MasterClient:
        """Spawn the members and wait until one warm-up noop per ring has
        completed on that ring's worker; returns a connected client."""
        t0 = time.perf_counter()
        deadline = t0 + START_TIMEOUT_S
        state_file = self.log_dir / f"master-{self.port}.ndjson"
        address = f"{HOST}:{self.port}"
        self._spawn("master", ["master", "--listen", address, "--state-file", str(state_file)])
        client = None
        while client is None:
            self._check_alive()
            try:
                client = MasterClient(HOST, self.port, connect_timeout_s=1.0)
            except MasterUnreachable:
                if time.perf_counter() > deadline:
                    raise ClusterError("master never accepted a connection") from None
                time.sleep(WARMUP_POLL_S)
        try:
            self._spawn("worker-gpu", ["worker", "--master", address, "--id", GPU_WORKER,
                                       "--mhz", "2400", "--gpu", "--lanes", "2"])
            self._spawn("worker-cpu", ["worker", "--master", address, "--id", CPU_WORKER,
                                       "--mhz", "2400", "--lanes", "2"])
            # A CPU task runs on the GPU ring while no CPU worker is
            # registered, so repeat until each ring's own worker answered.
            waiting = {GPU_WORKER: True, CPU_WORKER: False}
            attempt = 0
            while waiting:
                self._check_alive()
                if time.perf_counter() > deadline:
                    raise ClusterError("workers did not complete the warm-up tasks")
                tasks = [SubmitTask(task_id=f"warm-{wid}-{attempt}", kind="noop", requires_gpu=gpu)
                         for wid, gpu in waiting.items()]
                ack = client.submit(tasks, job_id=f"warm-{attempt}")
                reply = client.wait_for_job(ack.job_id, timeout_s=START_TIMEOUT_S,
                                            poll_interval_s=WARMUP_POLL_S)
                for report in reply.tasks:
                    if report.state == "COMPLETED":
                        waiting.pop(report.worker_id, None)
                attempt += 1
        except BaseException:
            client.close()
            raise
        self.setup_s = time.perf_counter() - t0
        return client

    def stop(self) -> None:
        """Kill every member's process group and wait until none is left."""
        pgids = {proc.pid for proc in self.procs.values()}
        _kill_groups(pgids)
        for proc in self.procs.values():
            proc.wait(timeout=REAP_TIMEOUT_S)
        deadline = time.monotonic() + REAP_TIMEOUT_S
        while live := live_members(pgids):
            if time.monotonic() > deadline:
                raise ClusterError(f"processes outlived the cluster: {live}")
            _kill_groups(pgids)
            time.sleep(0.05)
        self.procs = {}


def _kill_groups(pgids: set[int]) -> None:
    for pgid in pgids:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
