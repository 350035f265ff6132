"""Worker: registers with a master, heartbeats, executes dispatches.

:class:`WorkerCore` holds every rule of the worker, the heartbeat
cadence and when to register included, free of any transport. A worker
holds up to the ``slots`` its REGISTER declares (1 if unset): the task
it runs, and the DISPATCHes the master sent ahead, which wait behind it
in dispatch order, so the next task is at hand when the RESULT goes
out. :class:`WorkerAgent` drives it over TCP with two long-lived
threads: the socket reader, which also sends each beat when it falls
due (so beats go on mid-task), and one executor fed through a FIFO
queue, which holds the tasks waiting behind the running one (so the
reader keeps draining while a task runs: a master sending a large
payload must never deadlock against a busy executor). One lock
serialises every core call and every socket write; the executor only
computes outside it. The worker's profile is the REGISTER it sends,
declared nowhere else. Each task taken is reported once: FAILED if its
RESULT is refused unsent.
"""

from __future__ import annotations

import contextlib
import logging
import queue
import socket
import threading
from typing import Callable

from . import protocol
from .model import monotonic_ms, validate_profile
from .protocol import Dispatch, Heartbeat, HeartbeatAck, Message, Register, RegisterAck, Result
from .sobel import usable_cpu_count
from .workloads import ExecutorRegistry, UnknownKindError, built_in_registry

logger = logging.getLogger(__name__)

RETRY_BASE_S = 1.0
RETRY_CAP_S = 30.0


class RegistrationRejected(RuntimeError):
    """The master refused this worker's profile; the agent must not retry."""


def _failed(task_id: str, worker_id: str, error: str) -> Result:
    return Result(task_id=task_id, worker_id=worker_id, status=protocol.RESULT_FAILED, exec_ms=0, error=error)


def execute_dispatch(
    registry: ExecutorRegistry, dispatch: Dispatch, worker_id: str
) -> Result:
    """Run one dispatch through the registry and build its RESULT.

    Unknown kinds and whatever an executor raises, ``sys.exit()``
    included, become FAILED results: the agent never dies because a
    workload misbehaved. Only ``KeyboardInterrupt`` propagates. The
    RESULT is encoded when :meth:`WorkerCore.finish` sends it, and a
    RESULT the encoder refuses fails its task there.
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
        logger.warning("executor %s failed: %s", dispatch.kind, exc, extra={"task_id": dispatch.task_id})
        error = f"{type(exc).__name__}: {exc}"
    return _failed(dispatch.task_id, worker_id, error)


Sender = Callable[[Message], None]


class WorkerCore:
    """The worker's protocol state machine, mirroring ``MasterCore``.

    ``held`` counts the dispatched tasks taken and not yet finished, at
    most ``slots``; a HEARTBEAT's ``busy`` flag says it holds one.
    ``beat_interval_ms`` is the cadence of the latest accepted
    REGISTER_ACK and ``next_beat_ms`` when the next beat falls due on
    ``clock``, both ``None`` until the first. ``register_pending`` is a
    REGISTER deferred until the RESULT of every held task has gone out.
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
        self.slots = register.slots or 1
        self.held = 0
        self.register_pending = False
        self.beat_interval_ms: int | None = None
        self.next_beat_ms: int | None = None

    def handle(
        self, message: Message, send: Sender, start: Callable[[Dispatch], None]
    ) -> None:
        """Apply one inbound message. A DISPATCH that finds a free slot
        takes it and goes to ``start``, which must run it after the tasks
        started before it and then call :meth:`finish`; one that finds
        every slot taken is refused with BUSY."""
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
                self.register_when_idle(send)
        elif isinstance(message, Dispatch):
            if self.held >= self.slots:
                # Master bug guard; a healthy master never overfills a worker.
                send(_failed(message.task_id, self.register.worker_id, "BUSY"))
                return
            self.held += 1
            start(message)
        else:
            logger.warning("ignoring unexpected message: %s", type(message).__name__)

    def execute(self, dispatch: Dispatch) -> Result:
        return execute_dispatch(self.registry, dispatch, self.register.worker_id)

    def register_when_idle(self, send: Sender) -> None:
        """Send the REGISTER now if no task is held, else right after the
        last held task's RESULT: a master that sees a new registration
        re-queues every task the worker held and may dispatch them
        straight back to it, to wait behind their own first attempts."""
        if self.held:
            self.register_pending = True
            return
        # Cleared first, so a send that raises cannot repeat it later.
        self.register_pending = False
        send(self.register)

    def finish(self, result: Result, send: Sender) -> None:
        """Free one slot and send the RESULT, then any deferred REGISTER
        once no task is held. A RESULT the encoder refuses in ``send``
        (TypeError or ValueError, LineTooLarge among them), before any
        byte, fails its task instead."""
        # Free the slot before the RESULT goes out: the master may
        # dispatch the next task as soon as it reads it.
        self.held -= 1
        try:
            send(result)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, protocol.LineTooLarge):
                error = f"OUTPUT_TOO_LARGE: {exc.line_bytes} bytes exceeds line cap {protocol.MAX_LINE_BYTES}"
            else:
                error = f"{type(exc).__name__}: {exc}"
            logger.warning("RESULT of %s refused: %s", result.task_id, error, extra={"task_id": result.task_id})
            send(_failed(result.task_id, result.worker_id, error))
        if self.register_pending:
            self.register_when_idle(send)

    def beat_if_due(self, send: Sender) -> bool:
        """Send the beat due by now, if any, and re-arm; True if it beat.
        Re-arming first keeps it to one beat per due time, even if
        ``send`` raises."""
        now = self.clock()
        if self.next_beat_ms is None or now < self.next_beat_ms:
            return False
        self.next_beat_ms = now + self.beat_interval_ms
        send(Heartbeat(worker_id=self.register.worker_id, ts_ms=now, busy=self.held > 0))
        return True


class WorkerAgent:
    """Long-running agent; ``run()`` blocks until stopped or rejected.

    ``register`` is the profile it sends to ``master``, a (host, port).
    One the master would refuse, or a built-in ``sobel_par`` lane count
    below 1 (0: one per CPU this process may run on), raises ValueError.
    The executor runs the DISPATCHes that the profile's ``slots`` take one
    at a time, in the order they arrive.

    One lock serialises every :class:`WorkerCore` call (the reader's
    ``handle`` and ``beat_if_due``, the REGISTER at session start and the
    executor's ``finish``) and so every socket write; the executor runs
    ``execute`` outside it.
    """

    def __init__(
        self, register: Register, master: tuple[str, int], lane_count: int = 0, registry: ExecutorRegistry | None = None
    ):
        if (reason := validate_profile(register)) is not None:
            raise ValueError(reason)
        lane_count = lane_count or usable_cpu_count()
        if lane_count < 1:
            raise ValueError("lane_count must be >= 1")
        self.master = master
        self.lane_count = lane_count
        self.core = WorkerCore(register, registry or built_in_registry(lane_count=lane_count))
        self._stop = threading.Event()
        self._link: protocol.MasterLink | None = None
        self._lock = threading.Lock()
        self._exec_thread: threading.Thread | None = None
        self._exec_queue: queue.SimpleQueue[Dispatch | None] = queue.SimpleQueue()

    def stop(self) -> None:
        """End ``run()``. Takes no lock, so a signal handler may call it."""
        self._stop.set()
        self._exec_queue.put(None)
        link = self._link
        if link is not None:
            # shutdown wakes the reader, which closes the link on its way
            # out; closing it here could hand its fd number to a new socket
            # while the reader still polls it.
            with contextlib.suppress(OSError):
                link.sock.shutdown(socket.SHUT_RDWR)

    def run(self) -> None:
        """Connect/register/serve loop with bounded exponential backoff."""
        delay = RETRY_BASE_S
        while not self._stop.is_set():
            try:
                self._run_session()
                delay = RETRY_BASE_S
            except (OSError, protocol.FramingError) as exc:
                # An oversized line from the master loses the session too.
                if self._stop.is_set():
                    return  # stop() closed the socket
                logger.warning(
                    "master unreachable (%s); retrying in %.0f s", exc, delay
                )
                if self._stop.wait(delay):
                    return
                delay = min(delay * 2, RETRY_CAP_S)
            finally:
                self._close_link()

    # -- session -----------------------------------------------------------------

    def _run_session(self) -> None:
        link = protocol.MasterLink(self.master, connect_timeout_s=10)
        with self._lock:
            self._link = link
            self.core.register_when_idle(self._send)
        logger.info("connected to master at %s:%d", *self.master)
        while not self._stop.is_set():
            # A beat that fails to send ends the session like a failed recv.
            with self._lock:
                self.core.beat_if_due(self._send)
            due = self.core.next_beat_ms
            for line in link.read_lines(None if due is None else max(due - self.core.clock(), 0)):
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    logger.warning("dropping undecodable line from master: %s", exc)
                    continue
                with self._lock:
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
                result = self.core.execute(dispatch)
                with self._lock:
                    self.core.finish(result, self._send)
            except BaseException:
                logger.exception("failed to run or report %s", dispatch.task_id, extra={"task_id": dispatch.task_id})

    # -- plumbing ---------------------------------------------------------------

    def _send(self, message: Message) -> None:
        # Called with ``_lock`` held.
        if self._link is None:
            raise ConnectionError("not connected")
        self._link.send(message)

    def _close_link(self) -> None:
        with self._lock:
            if self._link is not None:
                with contextlib.suppress(OSError):
                    self._link.close()
                self._link = None
