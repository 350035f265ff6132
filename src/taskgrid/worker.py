"""Worker agent: registers with a master, heartbeats, executes dispatches.

The agent is single-slot: one task at a time, executed on a dedicated
thread so the socket reader keeps draining (a master sending a large
payload must never deadlock against a busy executor) and heartbeats
keep flowing mid-task.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
from dataclasses import dataclass
from typing import Mapping

from . import protocol
from .model import WorkerProfile, monotonic_ms, validate_profile
from .protocol import Dispatch, Heartbeat, HeartbeatAck, Message, Register, RegisterAck, Result
from .workloads import ExecutorRegistry, UnknownKindError, built_in_registry

logger = logging.getLogger(__name__)

RETRY_BASE_S = 1.0
RETRY_CAP_S = 30.0


class RegistrationRejected(RuntimeError):
    """The master refused this worker's profile; the agent must not retry."""


@dataclass
class WorkerConfig:
    worker_id: str
    master_host: str
    master_port: int
    cpu_mhz: int
    has_gpu: bool = False
    gpu_cores: int | None = None
    gpu_mem_mb: int | None = None
    lane_count: int = 0  # 0 -> use available hardware parallelism

    def __post_init__(self) -> None:
        if self.lane_count == 0:
            self.lane_count = os.cpu_count() or 1

    def validate(self) -> None:
        profile = WorkerProfile(
            worker_id=self.worker_id,
            cpu_mhz=self.cpu_mhz,
            has_gpu=self.has_gpu,
            gpu_cores=self.gpu_cores,
            gpu_mem_mb=self.gpu_mem_mb,
        )
        reason = validate_profile(profile)
        if reason is not None:
            raise ValueError(reason)
        if self.lane_count < 1:
            raise ValueError("lane_count must be >= 1")

    def register_message(self) -> Register:
        return Register(
            worker_id=self.worker_id,
            cpu_mhz=self.cpu_mhz,
            has_gpu=self.has_gpu,
            gpu_cores=self.gpu_cores,
            gpu_mem_mb=self.gpu_mem_mb,
        )


def execute_dispatch(
    registry: ExecutorRegistry, dispatch: Dispatch, worker_id: str
) -> Result:
    """Run one dispatch through the registry and build its RESULT.

    Unknown kinds and executor exceptions become FAILED results; the
    agent never dies because a workload misbehaved.
    """
    params: Mapping[str, str] = dispatch.params
    try:
        payload = protocol.from_b64(dispatch.payload_b64)
        output, exec_ms = registry.execute(dispatch.kind, params, payload)
    except UnknownKindError:
        return Result(
            task_id=dispatch.task_id,
            worker_id=worker_id,
            status=protocol.RESULT_FAILED,
            exec_ms=0,
            error="UNKNOWN_KIND",
        )
    except Exception as exc:
        logger.warning("executor %s failed: %s", dispatch.kind, exc)
        return Result(
            task_id=dispatch.task_id,
            worker_id=worker_id,
            status=protocol.RESULT_FAILED,
            exec_ms=0,
            error=f"{type(exc).__name__}: {exc}",
        )
    return Result(
        task_id=dispatch.task_id,
        worker_id=worker_id,
        status=protocol.RESULT_OK,
        exec_ms=exec_ms,
        output_b64=protocol.to_b64(output),
    )


class WorkerAgent:
    """Long-running agent; ``run()`` blocks until stopped or rejected."""

    def __init__(
        self,
        config: WorkerConfig,
        registry: ExecutorRegistry | None = None,
        stop_event: threading.Event | None = None,
    ):
        config.validate()
        self.config = config
        self.registry = registry or built_in_registry(lane_count=config.lane_count)
        self.busy = False
        self._stop = stop_event or threading.Event()
        self._sock: socket.socket | None = None
        self._sock_lock = threading.Lock()
        self._beat_interval_ms: int | None = None
        self._beat_thread: threading.Thread | None = None
        self._exec_thread: threading.Thread | None = None
        self._session_down = threading.Event()
        self._last_send_ok_ms = monotonic_ms()

    def stop(self) -> None:
        self._stop.set()
        self._session_down.set()
        self._close_socket()

    def run(self) -> None:
        """Connect/register/serve loop with bounded exponential backoff."""
        delay = RETRY_BASE_S
        while not self._stop.is_set():
            try:
                self._run_session()
                delay = RETRY_BASE_S
            except RegistrationRejected:
                raise
            except OSError as exc:
                logger.warning(
                    "master unreachable (%s); retrying in %.0f s", exc, delay
                )
                if self._stop.wait(delay):
                    return
                delay = min(delay * 2, RETRY_CAP_S)
            finally:
                self._close_socket()

    # -- session -----------------------------------------------------------------

    def _run_session(self) -> None:
        address = (self.config.master_host, self.config.master_port)
        sock = socket.create_connection(address, timeout=10)
        sock.settimeout(None)
        self._sock = sock
        self._session_down.clear()
        self._send(self.config.register_message())
        logger.info("connected to master at %s:%d", *address)
        framer = protocol.LineFramer()
        while not self._stop.is_set() and not self._session_down.is_set():
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("master closed the connection")
            for line in framer.feed(chunk):
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    logger.warning("dropping undecodable line from master: %s", exc)
                    continue
                self._handle(message)

    def _handle(self, message: Message) -> None:
        if isinstance(message, RegisterAck):
            if not message.accepted:
                raise RegistrationRejected(message.reason or "registration rejected")
            self._beat_interval_ms = message.heartbeat_interval_ms
            logger.info("registered; heartbeat every %d ms", message.heartbeat_interval_ms)
            if self._beat_thread is None or not self._beat_thread.is_alive():
                self._beat_thread = threading.Thread(
                    target=self._beat_loop, name="worker-heartbeat", daemon=True
                )
                self._beat_thread.start()
        elif isinstance(message, HeartbeatAck):
            if message.status == protocol.HEARTBEAT_NOT_REGISTERED:
                logger.warning("master does not know us; re-registering")
                self._send(self.config.register_message())
        elif isinstance(message, Dispatch):
            self._start_task(message)
        else:
            logger.warning("ignoring unexpected message: %s", type(message).__name__)

    def _start_task(self, dispatch: Dispatch) -> None:
        if self.busy:
            # Master bug guard; a healthy master never double-dispatches.
            self._send(
                Result(
                    task_id=dispatch.task_id,
                    worker_id=self.config.worker_id,
                    status=protocol.RESULT_FAILED,
                    exec_ms=0,
                    error="BUSY",
                )
            )
            return
        self.busy = True
        self._exec_thread = threading.Thread(
            target=self._execute, args=(dispatch,), name="worker-exec", daemon=True
        )
        self._exec_thread.start()

    def _execute(self, dispatch: Dispatch) -> None:
        try:
            result = execute_dispatch(self.registry, dispatch, self.config.worker_id)
        finally:
            # Free the slot before the RESULT goes out: the master may
            # dispatch the next task as soon as it reads it.
            self.busy = False
        try:
            self._send(result)
        except Exception:
            logger.exception("failed to report result for %s", dispatch.task_id)

    def _beat_loop(self) -> None:
        assert self._beat_interval_ms is not None
        interval_s = self._beat_interval_ms / 1000.0
        window_ms = None
        while not self._stop.wait(interval_s):
            beat = Heartbeat(
                worker_id=self.config.worker_id, ts_ms=monotonic_ms(), busy=self.busy
            )
            try:
                self._send(beat)
                self._last_send_ok_ms = monotonic_ms()
            except OSError as exc:
                # Keep retrying on the next tick; once the liveness window
                # has certainly expired master-side, force a fresh session
                # (reconnect + re-register).
                logger.warning("heartbeat send failed: %s", exc)
                if window_ms is None:
                    window_ms = self._beat_interval_ms * 3
                if monotonic_ms() - self._last_send_ok_ms > window_ms:
                    self._session_down.set()
                    self._close_socket()

    # -- plumbing ---------------------------------------------------------------

    def _send(self, message: Message) -> None:
        with self._sock_lock:
            sock = self._sock
            if sock is None:
                raise ConnectionError("not connected")
            sock.sendall(protocol.encode(message))

    def _close_socket(self) -> None:
        with self._sock_lock:
            if self._sock is not None:
                # shutdown wakes a reader blocked in recv; close alone does not.
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
