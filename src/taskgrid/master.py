"""Master node: membership, scheduling, and the client/worker endpoint.

:class:`MasterCore` is the transport-free event handler — one message or
due timer in, replies and dispatches out — so the TCP server and the
in-process test cluster drive identical logic. :class:`MasterServer`
wraps it in a TCP server that runs on one thread: a selector loop
accepts, reads, calls the core, runs its due timers and writes
through per-connection queues that never block, so the master is one
event loop and a peer that stops reading holds up only its own
connection. :class:`Connection` is that per-peer code; the in-process
cluster drives the same class over an in-memory socket.

A JOB_WAIT is parked on the core and answered with the job's
JOB_PROGRESS_REPLY once the job is terminal, after the handler that made
it so, or once its deadline passes; one whose deadline has already
passed (``timeout_ms`` of 0 or less) is answered in its handler. Those
deadlines and the eviction tick are the core's one timer rule
(``next_due_ms``, ``run_due``, on its clock); each driver only sleeps
until the next is due.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import logging
import math
import selectors
import socket
import threading
from collections import deque
from typing import Callable, Iterable, NamedTuple

from . import protocol
from .model import TaskDescriptor, TaskState, WorkerProfile, monotonic_ms
from .protocol import (
    Dispatch,
    ErrorReply,
    Heartbeat,
    HeartbeatAck,
    JobProgressReply,
    JobStatus,
    JobStatusReply,
    JobWait,
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

# A connection whose queued, unsent bytes would pass this is closed: its
# peer has stopped reading, and each further reply would cost the master
# one more copy. One legal line fits twice over.
MAX_UNSENT_BYTES = 2 * protocol.MAX_LINE_BYTES

# A job that ends with at least this many parked waits has them filtered
# out of the parked list in one pass; fewer leave it one bisected `del`
# each, since a pass over every parked wait costs more: with 1k and 100k
# parked waits a `del` took ~1.2 and ~26 us, a pass ~80 us and ~7.5 ms.
_REBUILD_MIN_WAITS = 64


class _Wait(NamedTuple):
    """A parked JOB_WAIT; waits order by deadline (``math.inf`` for
    none), then by ``seq``, their parking order."""

    deadline_ms: float
    seq: int
    job_id: str
    sender: Sender


class MasterCore:
    """Scheduler plus job bookkeeping, independent of any transport.

    Each job's task counts by state are kept as its tasks move, and
    ``on_transition`` is called after each move is counted.
    """

    def __init__(
        self,
        config: SchedulerConfig,
        clock: Callable[[], int] = monotonic_ms,
        on_transition: TransitionHook | None = None,
    ):
        self.config = config
        self.clock = clock
        self.scheduler = Scheduler(config, on_transition=self._count_transition)
        self._on_transition = on_transition
        self.jobs: dict[str, list[str]] = {}
        self.job_counts: dict[str, dict[TaskState, int]] = {}
        self._waits: list[_Wait] = []  # parked, sorted
        self._job_waits: dict[str, dict[int, _Wait]] = {}  # parked, by job and seq
        self._wait_seq = itertools.count()
        self._due: list[_Wait] = []  # unparked by the running handler or tick
        self._next_tick_ms = clock() + config.heartbeat_interval_ms

    # -- event handling ------------------------------------------------------

    def deliver(self, message: Message, sender: Sender) -> None:
        """Process one inbound message and send every reply through
        ``sender``; a REGISTER's ack goes out before any DISPATCH the new
        worker receives.

        ``sender`` must deliver a message back over the connection the
        inbound message arrived on; a REGISTER's is kept on the worker's
        profile, so that later dispatches can reach it.
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
        elif isinstance(message, JobWait):
            self._handle_wait(message, sender)
        elif isinstance(message, JobStatus):
            sender(self.job_status_reply(message.job_id))
        else:
            sender(ErrorReply(code="UNEXPECTED_MESSAGE", detail=type(message).__name__))
        self._answer_due()

    def handle(self, message: Message, sender: Sender) -> Message | None:
        """:meth:`deliver` for callers that take the direct reply as a
        return value: DISPATCHes still go through ``sender``, now or
        later, and the reply, if any, is returned."""
        replies: list[Message] = []
        self.deliver(message, lambda m: sender(m) if isinstance(m, Dispatch) else replies.append(m))
        return replies[0] if replies else None

    def connection_closed(self, sender: Sender) -> None:
        """Forget the waits parked through ``sender``, whose connection
        has closed, and the idle worker registered through it. A busy one
        keeps its task until eviction: its RESULT may still arrive on a
        new connection."""
        gone = [wait for wait in self._waits if wait.sender == sender]
        if gone:
            self._waits = [wait for wait in self._waits if wait.sender != sender]
            self._forget(gone)
        for profile in list(self.scheduler.workers.values()):
            if profile.sender == sender and not profile.busy:
                self.scheduler.remove_worker(profile.worker_id, self.clock())
                ids = {"worker_id": profile.worker_id}
                logger.info("worker %s closed its connection", profile.worker_id, extra=ids)

    def next_due_ms(self) -> int:
        """When :meth:`run_due` next has work, on ``clock``: the earlier of
        the next eviction tick and the earliest parked wait's deadline."""
        return min(self._next_tick_ms, self._waits[0].deadline_ms if self._waits else math.inf)

    def run_due(self) -> bool:
        """Answer each parked wait whose deadline has passed; then, if the
        eviction tick is due, re-arm it first, so a tick that raises
        cannot stop eviction, evict stale workers, run a scheduling round
        and answer the waits of jobs that finished. Returns whether
        anything was due."""
        now = self.clock()
        if self.next_due_ms() > now:
            return False
        # The parked waits due by now are a prefix of the sorted list; the
        # key sorts after every wait with a deadline of ``now``.
        expired = bisect.bisect_right(self._waits, (now, math.inf))
        due = self._waits[:expired]
        del self._waits[:expired]
        self._forget(due)
        self._due.extend(due)
        self._answer_due()
        if self._next_tick_ms <= now:
            self._next_tick_ms = now + self.config.heartbeat_interval_ms
            self.scheduler.evict_stale(now)
            self._pump(now)
            self._answer_due()
        return True

    def _count_transition(
        self, task: TaskDescriptor, from_state: TaskState, to_state: TaskState, now_ms: int
    ) -> None:
        counts = self.job_counts[task.job_id]
        counts[from_state] -= 1
        counts[to_state] += 1
        if task.job_id in self._job_waits and self.job_is_terminal(task.job_id):
            ended = list(self._job_waits.pop(task.job_id).values())
            if len(ended) < _REBUILD_MIN_WAITS:
                for wait in ended:
                    del self._waits[bisect.bisect_left(self._waits, wait)]
            else:
                self._waits = [wait for wait in self._waits if wait.job_id != task.job_id]
            self._due.extend(ended)
        if self._on_transition is not None:
            self._on_transition(task, from_state, to_state, now_ms)

    def _handle_wait(self, message: JobWait, sender: Sender) -> None:
        timeout_ms = message.timeout_ms
        if self.job_is_terminal(message.job_id) or (timeout_ms is not None and timeout_ms <= 0):
            sender(self.job_progress_reply(message.job_id))  # an unknown job's reply is an error
            return
        deadline = math.inf if timeout_ms is None else self.clock() + timeout_ms
        wait = _Wait(deadline, next(self._wait_seq), message.job_id, sender)
        bisect.insort(self._waits, wait)
        self._job_waits.setdefault(wait.job_id, {})[wait.seq] = wait

    def _forget(self, waits: list[_Wait]) -> None:
        """Drop ``waits``, already out of the parked list, from the
        per-job index."""
        for wait in waits:
            job_waits = self._job_waits[wait.job_id]
            del job_waits[wait.seq]
            if not job_waits:
                del self._job_waits[wait.job_id]

    def _answer_due(self) -> None:
        """Answer the unparked waits in the order they were parked; the
        waits on one job share one reply."""
        due, self._due = sorted(self._due, key=lambda wait: wait.seq), []
        replies: dict[str, Message] = {}
        for wait in due:
            if wait.job_id not in replies:
                replies[wait.job_id] = self.job_progress_reply(wait.job_id)
            try:
                wait.sender(replies[wait.job_id])
            except ConnectionError:
                pass  # the waiter has gone; its connection forgets it on close

    def _handle_register(self, message: Register, sender: Sender, now: int) -> RegisterAck:
        profile = WorkerProfile(message, sender=sender)
        ids = {"worker_id": message.worker_id}
        try:
            self.scheduler.register_worker(profile, now)
        except RegistrationError as exc:
            logger.warning("rejected registration from %s: %s", message.worker_id, exc, extra=ids)
            return RegisterAck(
                accepted=False,
                heartbeat_interval_ms=self.config.heartbeat_interval_ms,
                reason=str(exc),
            )
        logger.info(
            "registered worker %s (%d MHz, %s)",
            message.worker_id,
            message.cpu_mhz,
            "gpu" if message.has_gpu else "cpu",
            extra=ids,
        )
        return RegisterAck(accepted=True, heartbeat_interval_ms=self.config.heartbeat_interval_ms)

    def _handle_submit(self, message: Submit) -> SubmitAck:
        now = self.clock()
        task_ids = self.jobs.setdefault(message.job_id, [])
        counts = self.job_counts.setdefault(message.job_id, dict.fromkeys(TaskState, 0))
        accepted = 0
        for entry in message.tasks:
            task = TaskDescriptor(
                task_id=entry.task_id, job_id=message.job_id, requires_gpu=entry.requires_gpu, dispatch=entry
            )
            try:
                self.scheduler.enqueue_task(task, now)
            except DuplicateTaskError:
                logger.warning("rejected duplicate task id %s", entry.task_id, extra={"task_id": entry.task_id})
                continue
            task_ids.append(entry.task_id)
            counts[TaskState.QUEUED] += 1
            accepted += 1
        self._pump(now)
        return SubmitAck(job_id=message.job_id, accepted_count=accepted)

    def _handle_result(self, message: Result) -> None:
        now = self.clock()
        ok = message.status == protocol.RESULT_OK
        self.scheduler.complete_task(
            message.task_id,
            message.worker_id,
            ok,
            message.exec_ms,
            now,
            error=message.error,
            output_b64=message.output_b64 or "",
        )
        self._pump(now)

    def _pump(self, now_ms: int) -> None:
        """Run a scheduling round and send each assigned task's SUBMIT
        entry to its worker as the DISPATCH."""
        tasks = self.scheduler.tasks
        for task_id, worker_id in self.scheduler.schedule_round(now_ms):
            try:
                self.scheduler.workers[worker_id].sender(tasks[task_id].dispatch)
            except Exception as exc:
                fields = {"task_id": task_id, "worker_id": worker_id, "attempt": tasks[task_id].attempt}
                if isinstance(exc, ConnectionError):
                    # Say, a worker that reconnected mid-task: the REGISTER it
                    # sends after its RESULT re-queues the task.
                    logger.warning("failed to send %s to %s: %s", task_id, worker_id, exc, extra=fields)
                else:
                    logger.exception("failed to send %s to %s; awaiting eviction", task_id, worker_id, extra=fields)

    # -- reporting -------------------------------------------------------------

    def job_status_reply(self, job_id: str) -> JobStatusReply | ErrorReply:
        task_ids = self.jobs.get(job_id)
        if task_ids is None:
            return ErrorReply(code="UNKNOWN_JOB", detail=protocol.echo(job_id))
        reports = []
        for task_id in task_ids:
            task = self.scheduler.tasks[task_id]
            reports.append(
                TaskReport(
                    task_id=task_id,
                    state=task.state.value,
                    worker_id=task.assigned_worker,
                    submitted_ms=task.submitted_ms,
                    dispatched_ms=task.dispatched_ms,
                    completed_ms=task.completed_ms,
                    exec_ms=task.exec_ms,
                    output_b64=task.output_b64,
                    error=task.error,
                )
            )
        return JobStatusReply(job_id=job_id, tasks=tuple(reports))

    def job_progress_reply(self, job_id: str) -> JobProgressReply | ErrorReply:
        """The job's task counts by state, without building task reports."""
        counts = self.job_counts.get(job_id)
        if counts is None:
            return ErrorReply(code="UNKNOWN_JOB", detail=protocol.echo(job_id))
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
        counts = self.job_counts.get(job_id)
        return counts is None or counts[TaskState.QUEUED] + counts[TaskState.DISPATCHED] == 0

    def state_dump_lines(self) -> Iterable[list[bytes]]:
        """One canonical JOB_STATUS_REPLY line per job, as its parts."""
        for job_id in self.jobs:
            yield protocol.encode_parts(self.job_status_reply(job_id))


class Connection:
    """One peer of the master: a non-blocking socket, its framer and the
    encoded bytes not yet sent. Every line read goes to ``core``, which
    also hears when the connection closes; ``selector`` is told which
    events the socket waits for.

    Each message is queued as its ``protocol.line_parts``, one
    ``memoryview`` per part, so a payload or output body is sent from
    the one copy its part holds; each ``sock.send`` takes from one part.
    A line they refuse as over the cap, which the peer would have to
    reject, goes as an ERROR REPLY_TOO_LARGE naming it; one that would
    take the queue past :data:`MAX_UNSENT_BYTES` closes the connection.
    """

    def __init__(
        self,
        sock: socket.socket,
        selector: selectors.BaseSelector,
        core: MasterCore,
        peer: str = "in-process",
    ):
        sock.setblocking(False)
        self.sock = sock
        self.peer = peer
        self.closed = False
        self._core = core
        self._framer = protocol.LineFramer()
        self._unsent: deque[memoryview] = deque()
        self._unsent_bytes = 0
        self._selector = selector
        self._events = selectors.EVENT_READ
        selector.register(sock, self._events, self)

    def send(self, message: Message) -> None:
        """Queue one message and send what the socket takes; never blocks."""
        if self.closed:
            raise ConnectionError("connection closed")
        try:
            parts = protocol.line_parts(message)
        except protocol.LineTooLarge as exc:
            logger.warning("sending REPLY_TOO_LARGE to %s: %s", self.peer, exc)
            return self.send(ErrorReply(code="REPLY_TOO_LARGE", detail=str(exc)))
        size = sum(map(len, parts))
        if self._unsent_bytes + size > MAX_UNSENT_BYTES:
            logger.warning(
                "closing connection to %s: %d bytes unsent, and a %d-byte %s would pass the %d-byte cap",
                self.peer, self._unsent_bytes, size, type(message).__name__, MAX_UNSENT_BYTES,
            )
            self.close()
            return
        idle = not self._unsent
        self._unsent.extend(map(memoryview, parts))
        self._unsent_bytes += size
        if idle:
            self.flush()

    def flush(self) -> None:
        """Send queued bytes until the socket would block; the rest
        waits for EVENT_WRITE."""
        try:
            while self._unsent:
                sent = self.sock.send(self._unsent[0])
                self._unsent_bytes -= sent
                self._unsent[0] = self._unsent[0][sent:]
                if not self._unsent[0]:
                    self._unsent.popleft()
        except BlockingIOError:
            pass
        except OSError:
            self.close()
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._unsent else 0)
        if self._events != events:
            self._events = events
            self._selector.modify(self.sock, events, self)

    def read(self) -> None:
        """Receive one chunk and deliver each complete line to the core."""
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
                if self.closed:  # a reply's send failed: no peer is left to serve
                    break
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    self.send(ErrorReply(code=exc.code, detail=exc.detail))
                    continue
                self._core.deliver(message, self.send)
        except protocol.FramingError as exc:
            self.send(ErrorReply(code=exc.code, detail=exc.detail))
            self.close()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._unsent.clear()
            self._selector.unregister(self.sock)
            self.sock.close()
            self._core.connection_closed(self.send)


class MasterServer:
    """TCP shell around :class:`MasterCore`: one selector loop on the
    thread that calls :meth:`serve_forever` accepts, reads, runs the core
    and its due timers, and writes.

    Raises OSError from the constructor when the listen address cannot
    be bound (the CLI maps that to exit code 2).
    """

    def __init__(self, host: str, port: int, config: SchedulerConfig):
        self.core = MasterCore(config)
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
        try:
            if self._stop:  # shutdown() came first and may have closed the sockets
                return
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            logger.info("master listening on %s:%d", *self.address)
            while not self._stop:
                # A due timer waits for one more pass, so lines that arrived
                # while the loop was busy (beats among them) count first.
                wait_ms = self.core.next_due_ms() - self.core.clock()
                for key, events in selector.select(max(wait_ms, 0) / 1000.0):
                    if key.fileobj is self._listener:
                        # OSError: the peer gave up first, or no descriptor is left.
                        with contextlib.suppress(OSError):
                            sock, address = self._listener.accept()
                            # A line's small last part must not wait for
                            # the peer's delayed ACK of its body.
                            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                            Connection(sock, selector, self.core, "%s:%d" % address[:2])
                    elif key.data is not None and not key.data.closed:
                        self._serve(key.data, events)
                if wait_ms <= 0:
                    try:
                        self.core.run_due()
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

    def _serve(self, conn: Connection, events: int) -> None:
        try:
            if events & selectors.EVENT_WRITE:
                conn.flush()
            if events & selectors.EVENT_READ:
                conn.read()
        except Exception:
            logger.exception("connection handler failed")
            conn.close()

    def start(self) -> threading.Thread:
        """Serve in a background thread; tests use it to run a master in process."""
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
            for parts in self.core.state_dump_lines():
                fh.writelines(parts)
        logger.info("wrote state dump to %s", path)
