"""Worker: registers with a master, heartbeats, executes dispatches.

:class:`WorkerCore` holds every rule of the single-slot worker, the
heartbeat cadence included, free of any transport; :class:`WorkerAgent`
drives it over TCP with two long-lived threads: the socket reader, which
also sends each beat when it falls due (so beats go on mid-task), and
one executor fed through a queue (so the reader keeps draining while a
task runs: a master sending a large payload must never deadlock against
a busy executor).
"""

from __future__ import annotations

import logging
import os
import queue
import select
import socket
import threading
from dataclasses import dataclass
from typing import Callable

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
        reason = validate_profile(WorkerProfile.from_register(self.register_message()))
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

    Unknown kinds and whatever an executor raises, ``sys.exit()``
    included, become FAILED results: the agent never dies because a
    workload misbehaved, and a task it got never goes unreported. Only
    ``KeyboardInterrupt`` propagates.
    """
    try:
        payload = protocol.from_b64(dispatch.payload_b64)
        output, exec_ms = registry.execute(dispatch.kind, dispatch.params, payload)
        return Result(
            task_id=dispatch.task_id,
            worker_id=worker_id,
            status=protocol.RESULT_OK,
            exec_ms=exec_ms,
            output_b64=protocol.to_b64(output),
        )
    except UnknownKindError:
        error = "UNKNOWN_KIND"
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        logger.warning("executor %s failed: %s", dispatch.kind, exc)
        error = f"{type(exc).__name__}: {exc}"
    return Result(
        task_id=dispatch.task_id,
        worker_id=worker_id,
        status=protocol.RESULT_FAILED,
        exec_ms=0,
        error=error,
    )


Sender = Callable[[Message], None]


class WorkerCore:
    """The worker's protocol state machine, mirroring ``MasterCore``.

    ``busy`` is the slot; ``beat_interval_ms`` is the cadence of the
    latest accepted REGISTER_ACK and ``next_beat_ms`` when the next beat
    falls due on ``clock``, both ``None`` until the first.
    """

    def __init__(
        self,
        register: Register,
        registry: ExecutorRegistry,
        clock: Callable[[], int] = monotonic_ms,
    ):
        self.register = register
        self.registry = registry
        self.clock = clock
        self.busy = False
        self.beat_interval_ms: int | None = None
        self.next_beat_ms: int | None = None

    def handle(
        self, message: Message, send: Sender, start: Callable[[Dispatch], None]
    ) -> None:
        """Apply one inbound message. A DISPATCH the slot can take marks
        it busy and goes to ``start``, which must run it and later call
        :meth:`finish`."""
        if isinstance(message, RegisterAck):
            if not message.accepted:
                raise RegistrationRejected(message.reason or "registration rejected")
            # A new interval takes effect at once, cutting short a wait
            # armed with an older one.
            self.beat_interval_ms = message.heartbeat_interval_ms
            self.next_beat_ms = self.clock() + message.heartbeat_interval_ms
            logger.info("registered; heartbeat every %d ms", message.heartbeat_interval_ms)
        elif isinstance(message, HeartbeatAck):
            if message.status == protocol.HEARTBEAT_NOT_REGISTERED:
                logger.warning("master does not know us; re-registering")
                send(self.register)
        elif isinstance(message, Dispatch):
            if self.busy:
                # Master bug guard; a healthy master never double-dispatches.
                send(
                    Result(
                        task_id=message.task_id,
                        worker_id=self.register.worker_id,
                        status=protocol.RESULT_FAILED,
                        exec_ms=0,
                        error="BUSY",
                    )
                )
                return
            self.busy = True
            start(message)
        else:
            logger.warning("ignoring unexpected message: %s", type(message).__name__)

    def execute(self, dispatch: Dispatch) -> Result:
        return execute_dispatch(self.registry, dispatch, self.register.worker_id)

    def finish(self, result: Result, send: Sender) -> None:
        # Free the slot before the RESULT goes out: the master may
        # dispatch the next task as soon as it reads it.
        self.busy = False
        send(result)

    def heartbeat(self, ts_ms: int) -> Heartbeat:
        return Heartbeat(worker_id=self.register.worker_id, ts_ms=ts_ms, busy=self.busy)

    def beat_if_due(self, send: Sender) -> bool:
        """Send the beat due by now, if any, and re-arm; True if it beat.
        Re-arming first keeps it to one beat per due time, even if
        ``send`` raises."""
        now = self.clock()
        if self.next_beat_ms is None or now < self.next_beat_ms:
            return False
        self.next_beat_ms = now + self.beat_interval_ms
        send(self.heartbeat(now))
        return True


class WorkerAgent:
    """Long-running agent; ``run()`` blocks until stopped or rejected."""

    def __init__(self, config: WorkerConfig, registry: ExecutorRegistry | None = None):
        config.validate()
        self.config = config
        self.core = WorkerCore(
            config.register_message(),
            registry or built_in_registry(lane_count=config.lane_count),
        )
        self._stop = threading.Event()
        self._sock: socket.socket | None = None
        self._sock_lock = threading.Lock()
        self._exec_thread: threading.Thread | None = None
        self._exec_queue: queue.SimpleQueue[Dispatch | None] = queue.SimpleQueue()

    @property
    def busy(self) -> bool:
        return self.core.busy

    def stop(self) -> None:
        """End ``run()``. Takes no lock, so a signal handler may call it."""
        self._stop.set()
        self._exec_queue.put(None)
        sock = self._sock
        if sock is not None:
            # shutdown wakes the reader, which closes the socket on its way
            # out; closing it here could hand its fd number to a new socket
            # while the reader still polls it.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

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
        self._send(self.core.register)
        logger.info("connected to master at %s:%d", *address)
        # Not sock.settimeout: the executor's sendall of a large RESULT
        # would share that timeout.
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        framer = protocol.LineFramer()
        while not self._stop.is_set():
            # A beat that fails to send ends the session like a failed recv.
            self.core.beat_if_due(self._send)
            due = self.core.next_beat_ms
            if not poller.poll(None if due is None else max(due - self.core.clock(), 0)):
                continue  # the next beat is due
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("master closed the connection")
            for line in framer.feed(chunk):
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    logger.warning("dropping undecodable line from master: %s", exc)
                    continue
                self.core.handle(message, self._send, self._start_task)

    def _start_task(self, dispatch: Dispatch) -> None:
        if self._exec_thread is None:
            self._exec_thread = threading.Thread(
                target=self._exec_loop, name="worker-exec", daemon=True
            )
            self._exec_thread.start()
        self._exec_queue.put(dispatch)

    def _exec_loop(self) -> None:
        # Serves every session; a RESULT whose session died fails to send
        # and is logged. ``stop()`` queues the None that ends it.
        while (dispatch := self._exec_queue.get()) is not None:
            try:
                self.core.finish(self.core.execute(dispatch), self._send)
            except BaseException:
                logger.exception("failed to run or report %s", dispatch.task_id)

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
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
