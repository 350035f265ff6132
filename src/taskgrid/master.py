"""Master node: membership, scheduling, and the client/worker endpoint.

:class:`MasterCore` is the transport-free event handler — one message or
tick in, replies and dispatches out — so the TCP server and the
in-process test cluster drive identical logic. :class:`MasterServer`
wraps it with a threaded TCP listener; every core call is serialized
under one lock, which realizes the single-logical-event-loop model.
"""

from __future__ import annotations

import logging
import socket
import threading
from collections import Counter
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
        # task id -> the RESULT's output_b64, reported verbatim.
        self.outputs: dict[str, str] = {}
        self._senders: dict[str, Sender] = {}
        self._on_assignment = on_assignment

    # -- event handling ------------------------------------------------------

    def handle(self, message: Message, sender: Sender) -> Message | None:
        """Process one inbound message; returns the direct reply, if any.

        ``sender`` must deliver a message back over the connection the
        inbound message arrived on; it is retained for workers so that
        later dispatches can reach them. A REGISTER's ack is returned
        after any DISPATCH its round already sent through ``sender``; a
        transport that carries both on one connection uses
        :meth:`register`, which sends the ack first.
        """
        if isinstance(message, Register):
            now = self.clock()
            ack = self._handle_register(message, sender, now)
            if ack.accepted:
                self._pump(now)
            return ack
        if isinstance(message, Heartbeat):
            ok = self.scheduler.heartbeat(
                message.worker_id, message.ts_ms, message.busy, self.clock()
            )
            return HeartbeatAck(
                status=protocol.HEARTBEAT_OK if ok else protocol.HEARTBEAT_NOT_REGISTERED
            )
        if isinstance(message, Result):
            self._handle_result(message)
            return None
        if isinstance(message, Submit):
            return self._handle_submit(message)
        if isinstance(message, JobProgress):
            return self.job_progress_reply(message.job_id)
        if isinstance(message, JobStatus):
            return self.job_status_reply(message.job_id)
        return ErrorReply(code="UNEXPECTED_MESSAGE", detail=type(message).__name__)

    def tick(self) -> None:
        """Periodic eviction pass plus a scheduling round."""
        now = self.clock()
        for worker_id in self.scheduler.evict_stale(now):
            self._senders.pop(worker_id, None)
        self._pump(now)

    def register(self, message: Register, sender: Sender) -> None:
        """Handle a REGISTER, sending its ack through ``sender`` before
        any DISPATCH the new worker receives."""
        now = self.clock()
        ack = self._handle_register(message, sender, now)
        sender(ack)
        if ack.accepted:
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
            self.outputs[message.task_id] = message.output_b64 or ""
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
                    output_b64=self.outputs.get(task_id),
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
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._write_lock = threading.Lock()

    def send(self, message: Message) -> None:
        data = protocol.encode(message)
        with self._write_lock:
            self.sock.sendall(data)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class MasterServer:
    """Threaded TCP shell around :class:`MasterCore`.

    Raises OSError from the constructor when the listen address cannot
    be bound (the CLI maps that to exit code 2).
    """

    def __init__(self, host: str, port: int, config: SchedulerConfig, **core_kwargs):
        self.core = MasterCore(config, **core_kwargs)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        # Open connections, so shutdown can close them; under _conn_lock.
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`; blocks the caller."""
        ticker = threading.Thread(target=self._tick_loop, name="master-tick", daemon=True)
        ticker.start()
        logger.info("master listening on %s:%d", *self.address)
        try:
            while not self._stop.is_set():
                try:
                    sock, peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                threading.Thread(
                    target=self._serve_connection,
                    args=(sock, peer),
                    name=f"master-conn-{peer}",
                    daemon=True,
                ).start()
        finally:
            self._listener.close()

    def start(self) -> threading.Thread:
        """Serve in a background thread (used by tests and the harness)."""
        thread = threading.Thread(target=self.serve_forever, name="master-serve", daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop accepting and close every open connection, which ends
        the threads serving them."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def dump_state(self, path: str) -> None:
        with self._lock:
            lines = list(self.core.state_dump_lines())
        with open(path, "wb") as fh:
            for line in lines:
                fh.write(line)
        logger.info("wrote state dump to %s", path)

    def _tick_loop(self) -> None:
        interval_s = self.core.config.heartbeat_interval_ms / 1000.0
        while not self._stop.wait(interval_s):
            with self._lock:
                self.core.tick()

    def _serve_connection(self, sock: socket.socket, peer) -> None:
        conn = _Connection(sock)
        logger.debug("connection from %s", peer)
        # Registered before the _stop check below: a shutdown either
        # closes this connection or is seen by that check.
        with self._conn_lock:
            self._connections.add(conn)
        try:
            framer = protocol.LineFramer()
            while not self._stop.is_set():
                try:
                    chunk = sock.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                try:
                    lines = framer.feed(chunk)
                except protocol.FramingError as exc:
                    conn.send(ErrorReply(code=exc.code, detail=exc.detail))
                    break
                for line in lines:
                    try:
                        message = protocol.decode(line)
                    except protocol.ProtocolError as exc:
                        conn.send(ErrorReply(code=exc.code, detail=exc.detail))
                        continue
                    with self._lock:
                        if isinstance(message, Register):
                            self.core.register(message, conn.send)
                            reply = None
                        else:
                            reply = self.core.handle(message, conn.send)
                    if reply is not None:
                        conn.send(reply)
        except Exception:
            logger.exception("connection handler failed for %s", peer)
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.close()
