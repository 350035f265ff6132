"""Master node: membership, scheduling, and the client/worker endpoint.

:class:`MasterCore` is the transport-free event handler — one message or
tick in, replies and dispatches out — so the TCP server and the
in-process test cluster drive identical logic. :class:`MasterServer`
wraps it in a TCP server that runs on one thread: a selector loop
accepts, reads, calls the core, runs its eviction tick and writes
through per-connection queues that never block, so the master is one
event loop and a peer that stops reading holds up only its own
connection.
"""

from __future__ import annotations

import contextlib
import logging
import selectors
import socket
import threading
import time
from collections import Counter, deque
from typing import Callable, Iterable

from . import protocol
from .model import TaskDescriptor, TaskState, WorkerProfile, monotonic_ms
from .protocol import (
    Dispatch,
    ErrorReply,
    Heartbeat,
    HeartbeatAck,
    JobProgress,
    JobProgressReply,
    JobStatus,
    JobStatusReply,
    Message,
    Register,
    RegisterAck,
    Result,
    Submit,
    SubmitAck,
    TaskReport,
)
from .scheduler import (
    DuplicateTaskError,
    RegistrationError,
    Scheduler,
    SchedulerConfig,
    TransitionHook,
)

logger = logging.getLogger(__name__)

Sender = Callable[[Message], None]
AssignmentHook = Callable[[TaskDescriptor, WorkerProfile, int], None]


class MasterCore:
    """Scheduler plus job bookkeeping, independent of any transport."""

    def __init__(
        self,
        config: SchedulerConfig,
        clock: Callable[[], int] = monotonic_ms,
        on_transition: TransitionHook | None = None,
        on_assignment: AssignmentHook | None = None,
    ):
        self.config = config
        self.clock = clock
        self.scheduler = Scheduler(config, on_transition=on_transition)
        self.jobs: dict[str, list[str]] = {}
        self._senders: dict[str, Sender] = {}
        self._on_assignment = on_assignment

    # -- event handling ------------------------------------------------------

    def deliver(self, message: Message, sender: Sender) -> None:
        """Process one inbound message and send every reply through
        ``sender``; a REGISTER's ack goes out before any DISPATCH the new
        worker receives.

        ``sender`` must deliver a message back over the connection the
        inbound message arrived on; it is retained for workers so that
        later dispatches can reach them.
        """
        if isinstance(message, Register):
            now = self.clock()
            ack = self._handle_register(message, sender, now)
            sender(ack)
            if ack.accepted:
                self._pump(now)
        elif isinstance(message, Heartbeat):
            ok = self.scheduler.heartbeat(message.worker_id, message.ts_ms, self.clock())
            status = protocol.HEARTBEAT_OK if ok else protocol.HEARTBEAT_NOT_REGISTERED
            sender(HeartbeatAck(status=status))
        elif isinstance(message, Result):
            self._handle_result(message)
        elif isinstance(message, Submit):
            sender(self._handle_submit(message))
        elif isinstance(message, JobProgress):
            sender(self.job_progress_reply(message.job_id))
        elif isinstance(message, JobStatus):
            sender(self.job_status_reply(message.job_id))
        else:
            sender(ErrorReply(code="UNEXPECTED_MESSAGE", detail=type(message).__name__))

    def handle(self, message: Message, sender: Sender) -> Message | None:
        """:meth:`deliver` for callers that take the direct reply as a
        return value: DISPATCHes still go through ``sender``, now or
        later, and the reply, if any, is returned."""
        replies: list[Message] = []
        self.deliver(message, lambda m: sender(m) if isinstance(m, Dispatch) else replies.append(m))
        return replies[0] if replies else None

    def tick(self) -> None:
        """Periodic eviction pass plus a scheduling round."""
        now = self.clock()
        for worker_id in self.scheduler.evict_stale(now):
            self._senders.pop(worker_id, None)
        self._pump(now)

    def _handle_register(self, message: Register, sender: Sender, now: int) -> RegisterAck:
        try:
            self.scheduler.register_worker(WorkerProfile.from_register(message), now)
        except RegistrationError as exc:
            logger.warning("rejected registration from %s: %s", message.worker_id, exc)
            return RegisterAck(
                accepted=False,
                heartbeat_interval_ms=self.config.heartbeat_interval_ms,
                reason=str(exc),
            )
        self._senders[message.worker_id] = sender
        logger.info(
            "registered worker %s (%d MHz, %s)",
            message.worker_id,
            message.cpu_mhz,
            "gpu" if message.has_gpu else "cpu",
        )
        return RegisterAck(accepted=True, heartbeat_interval_ms=self.config.heartbeat_interval_ms)

    def _handle_submit(self, message: Submit) -> SubmitAck:
        now = self.clock()
        task_ids = self.jobs.setdefault(message.job_id, [])
        accepted = 0
        for entry in message.tasks:
            task = TaskDescriptor(
                task_id=entry.task_id,
                job_id=message.job_id,
                kind=entry.kind,
                requires_gpu=entry.requires_gpu,
                params=dict(entry.params),
                payload_b64=entry.payload_b64,
            )
            try:
                self.scheduler.enqueue_task(task, now)
            except DuplicateTaskError:
                logger.warning("rejected duplicate task id %s", entry.task_id)
                continue
            task_ids.append(entry.task_id)
            accepted += 1
        self._pump(now)
        return SubmitAck(job_id=message.job_id, accepted_count=accepted)

    def _handle_result(self, message: Result) -> None:
        now = self.clock()
        ok = message.status == protocol.RESULT_OK
        recorded = self.scheduler.complete_task(
            message.task_id,
            message.worker_id,
            ok,
            message.exec_ms,
            now,
            error=message.error,
        )
        if recorded and ok:
            self.scheduler.tasks[message.task_id].output_b64 = message.output_b64 or ""
        self._pump(now)

    def _pump(self, now_ms: int) -> None:
        """Run a scheduling round and push DISPATCH messages out."""
        for task_id, worker_id in self.scheduler.schedule_round(now_ms):
            task = self.scheduler.tasks[task_id]
            if self._on_assignment is not None:
                self._on_assignment(task, self.scheduler.catalog.workers[worker_id], now_ms)
            dispatch = Dispatch(
                task_id=task.task_id,
                kind=task.kind,
                requires_gpu=task.requires_gpu,
                params=dict(task.params),
                payload_b64=task.payload_b64,
            )
            sender = self._senders.get(worker_id)
            if sender is None:
                logger.error("no connection for worker %s; awaiting eviction", worker_id)
                continue
            try:
                sender(dispatch)
            except Exception:
                logger.exception("failed to send dispatch to %s; awaiting eviction", worker_id)

    # -- reporting -------------------------------------------------------------

    def job_status_reply(self, job_id: str) -> JobStatusReply | ErrorReply:
        task_ids = self.jobs.get(job_id)
        if task_ids is None:
            return ErrorReply(code="UNKNOWN_JOB", detail=job_id)
        reports = []
        for task_id in task_ids:
            task = self.scheduler.tasks[task_id]
            reports.append(
                TaskReport(
                    task_id=task_id,
                    state=task.state.value,
                    worker_id=task.assigned_worker,
                    submitted_ms=task.timing.submitted_ms,
                    dispatched_ms=task.timing.dispatched_ms,
                    completed_ms=task.timing.completed_ms,
                    exec_ms=task.timing.exec_ms,
                    output_b64=task.output_b64,
                    error=task.error,
                )
            )
        return JobStatusReply(job_id=job_id, tasks=tuple(reports))

    def job_progress_reply(self, job_id: str) -> JobProgressReply | ErrorReply:
        """The job's task counts by state, without building task reports."""
        task_ids = self.jobs.get(job_id)
        if task_ids is None:
            return ErrorReply(code="UNKNOWN_JOB", detail=job_id)
        tasks = self.scheduler.tasks
        counts = Counter(tasks[tid].state for tid in task_ids)
        return JobProgressReply(
            job_id=job_id,
            queued=counts[TaskState.QUEUED],
            dispatched=counts[TaskState.DISPATCHED],
            completed=counts[TaskState.COMPLETED],
            failed=counts[TaskState.FAILED],
        )

    def job_is_terminal(self, job_id: str) -> bool:
        """True when no task of the job is queued or dispatched; an
        unknown job has none."""
        progress = self.job_progress_reply(job_id)
        return isinstance(progress, ErrorReply) or progress.queued + progress.dispatched == 0

    def state_dump_lines(self) -> Iterable[bytes]:
        """One canonical JOB_STATUS_REPLY line per job."""
        for job_id in self.jobs:
            reply = self.job_status_reply(job_id)
            yield protocol.encode(reply)


class _Connection:
    """One peer of the loop: a non-blocking socket, its framer and the
    encoded bytes not yet sent."""

    def __init__(self, sock: socket.socket, selector: selectors.BaseSelector):
        sock.setblocking(False)
        self.sock = sock
        self.closed = False
        self._framer = protocol.LineFramer()
        self._unsent: deque[memoryview] = deque()
        self._selector = selector
        selector.register(sock, selectors.EVENT_READ, self)

    def send(self, message: Message) -> None:
        """Queue one message and send what the socket takes; never blocks."""
        if self.closed:
            raise ConnectionError("connection closed")
        self._unsent.append(memoryview(protocol.encode(message)))
        if len(self._unsent) == 1:
            self.flush()

    def flush(self) -> None:
        """Send queued bytes until the socket would block; the rest
        waits for EVENT_WRITE."""
        try:
            while self._unsent:
                sent = self.sock.send(self._unsent[0])
                self._unsent[0] = self._unsent[0][sent:]
                if not self._unsent[0]:
                    self._unsent.popleft()
        except BlockingIOError:
            pass
        except OSError:
            self.close()
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._unsent else 0)
        if self._selector.get_key(self.sock).events != events:
            self._selector.modify(self.sock, events, self)

    def read(self, core: MasterCore) -> None:
        """Receive one chunk and deliver each complete line to ``core``."""
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self.close()
            return
        try:
            for line in self._framer.feed(chunk):
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    self.send(ErrorReply(code=exc.code, detail=exc.detail))
                    continue
                core.deliver(message, self.send)
        except protocol.FramingError as exc:
            self.send(ErrorReply(code=exc.code, detail=exc.detail))
            self.close()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._unsent.clear()
            self._selector.unregister(self.sock)
            self.sock.close()


class MasterServer:
    """TCP shell around :class:`MasterCore`: one selector loop on the
    thread that calls :meth:`serve_forever` accepts, reads, runs the core
    and its eviction tick, and writes.

    Raises OSError from the constructor when the listen address cannot
    be bound (the CLI maps that to exit code 2).
    """

    def __init__(self, host: str, port: int, config: SchedulerConfig, **core_kwargs):
        self.core = MasterCore(config, **core_kwargs)
        self._stop = False
        self._serving = False
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        # shutdown() writes a byte here to wake the loop, which then sees
        # _stop; the byte is never read.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)

    @property
    def port(self) -> int:
        return self.address[1]

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown`; blocks the caller."""
        self._serving = True
        selector = selectors.DefaultSelector()
        interval_s = self.core.config.heartbeat_interval_ms / 1000.0
        next_tick = time.monotonic() + interval_s
        try:
            if self._stop:  # shutdown() came first and may have closed the sockets
                return
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            logger.info("master listening on %s:%d", *self.address)
            while not self._stop:
                # A due tick waits for one more pass, so lines that arrived
                # while the loop was busy (beats among them) count first.
                wait_s = next_tick - time.monotonic()
                for key, events in selector.select(max(wait_s, 0)):
                    if key.fileobj is self._listener:
                        # OSError: the peer gave up first, or no descriptor is left.
                        with contextlib.suppress(OSError):
                            _Connection(self._listener.accept()[0], selector)
                    elif key.data is not None and not key.data.closed:
                        self._serve(key.data, events)
                if wait_s <= 0:
                    # Re-armed first: a tick that raises cannot stop eviction.
                    next_tick = time.monotonic() + interval_s
                    try:
                        self.core.tick()
                    except Exception:
                        logger.exception("eviction tick failed")
        finally:
            for key in list(selector.get_map().values()):
                if key.data is not None:
                    key.data.close()
            selector.close()
            self._close_sockets()

    def _close_sockets(self) -> None:
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()  # a second close is a no-op

    def _serve(self, conn: _Connection, events: int) -> None:
        try:
            if events & selectors.EVENT_WRITE:
                conn.flush()
            if events & selectors.EVENT_READ:
                conn.read(self.core)
        except Exception:
            logger.exception("connection handler failed")
            conn.close()

    def start(self) -> threading.Thread:
        """Serve in a background thread (used by tests and the harness)."""
        thread = threading.Thread(target=self.serve_forever, name="master-serve", daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the loop, which then closes every open connection and the
        listener; a server that never served closes its sockets here.
        Safe from any thread and from a signal handler."""
        self._stop = True
        # Either serve_forever() has set _serving, or it will see _stop
        # before it touches the sockets, so no lock is needed.
        if not self._serving:
            self._close_sockets()
            return
        with contextlib.suppress(OSError):  # already awake, or the loop has exited
            self._wake_w.send(b"\0")

    def dump_state(self, path: str) -> None:
        """Write the state dump; call it after :meth:`serve_forever` has
        returned, as it reads the core without the loop."""
        with open(path, "wb") as fh:
            for line in self.core.state_dump_lines():
                fh.write(line)
        logger.info("wrote state dump to %s", path)
