"""Deterministic in-process cluster for integration testing.

One :class:`MasterCore` serves the client and any number of simulated
workers through the master's production :class:`Connection`, each over
an in-memory socket that carries the exact wire-protocol bytes (every
message passes through encode -> framer -> decode). Each simulated
worker runs the production :class:`WorkerCore`, heartbeat cadence
included, like the TCP :class:`WorkerAgent`; the two differ only in
transport, clock and when execution runs. A simulated worker wakes
when its core's next beat falls due, where the agent's reader stops
waiting for input; the master wakes when its core's next timer falls
due (:meth:`MasterCore.next_due_ms`), where the TCP server's loop stops
sleeping. Time is a logical clock advanced by the test script;
heartbeats, master timers and task completions are discrete events
processed in a deterministic (time, insertion) order, so identical
scripts produce identical dispatch logs byte for byte.

Execution semantics: a dispatch runs its executor immediately (in wall
time), but the RESULT is delivered after a *logical* duration derived
from the dispatch alone, so tasks stay observably in flight and no
wall-clock measurement reaches the schedule: the task param
``sim_exec_ms`` if it is set (real agents ignore it; use it to hold a
task in flight across heartbeat windows), else a ``sleep`` task's
nominal duration, else 0. A worker holding more than one task runs them
one after another in logical time, in dispatch order, as the agent's
executor does.

Every task transition is recorded; each one into DISPATCHED is also
recorded as an assignment, with the capabilities of the worker the task
was assigned to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from . import protocol
from .master import Connection, MasterCore
from .model import TaskDescriptor, TaskState
from .protocol import (
    Dispatch,
    JobProgressReply,
    JobStatus,
    JobStatusReply,
    JobWait,
    Message,
    Register,
    Submit,
    SubmitAck,
    SubmitTask,
)
from .scheduler import SchedulerConfig
from .worker import WorkerCore
from .workloads import ExecutorRegistry, built_in_registry

R = TypeVar("R", bound=Message)


@dataclass
class TransitionEvent:
    task_id: str
    from_state: TaskState
    to_state: TaskState
    at_ms: int


@dataclass
class AssignmentEvent:
    task_id: str
    worker_id: str
    requires_gpu: bool
    worker_has_gpu: bool
    at_ms: int


@dataclass(order=True)
class _Event:
    at_ms: int
    seq: int
    action: Callable[[], None] = field(compare=False)


class _Link:
    """The master's end of one simulated peer's link: both the socket and
    the selector of the :class:`Connection` that serves the peer.

    Each send crosses in one event at delay 0. Bytes the master sends are
    framed, decoded and handed to ``deliver`` on the peer's side (each
    DISPATCH line is recorded as it arrives); bytes the peer :meth:`put`
    land in the inbox, which the connection reads until it is empty.
    """

    def __init__(self, cluster: InProcCluster, deliver: Callable[[Message], None]):
        self._cluster = cluster
        self._deliver = deliver
        self._framer = protocol.LineFramer()  # the peer's
        self._inbox = bytearray()
        self.conn = Connection(self, self, cluster.core)

    def put(self, data: bytes) -> None:
        """The peer sends ``data`` to the master."""
        self._cluster._schedule(0, lambda: self._arrive(data))

    def _arrive(self, data: bytes) -> None:
        self._inbox += data
        while self._inbox and not self.conn.closed:
            self.conn.read()

    def recv(self, bufsize: int) -> bytes:
        chunk = bytes(self._inbox[:bufsize])
        del self._inbox[:bufsize]
        return chunk

    def send(self, data: memoryview) -> int:
        chunk = bytes(data)
        self._cluster._schedule(0, lambda: self._to_peer(chunk))
        return len(chunk)

    def _to_peer(self, data: bytes) -> None:
        for line in self._framer.feed(data):
            message = protocol.decode(line)
            if isinstance(message, Dispatch):
                self._cluster.dispatch_frames.append(b"%s\n" % line)
            self._deliver(message)

    def hang_up(self) -> None:
        """The peer closes its end: the connection reads EOF."""
        self._cluster._schedule(0, self.conn.read)

    def _ignore(self, *args: object) -> None:
        """Sends never block and nothing is held open, so the selector
        calls, ``setblocking`` and ``close`` change nothing."""

    setblocking = register = modify = unregister = close = _ignore


class SimWorker:
    """A :class:`WorkerCore` driven by logical time instead of sockets."""

    def __init__(self, cluster: InProcCluster, core: WorkerCore):
        self.cluster = cluster
        self.core = core
        self.alive = True
        self._free_ms = 0  # when the last task held ends, in logical time
        self.link = _Link(cluster, self.on_message)

    def _send(self, message: Message) -> None:
        if self.alive:
            self.link.put(b"".join(protocol.line_parts(message)))

    def start(self) -> None:
        self.core.register_when_idle(self._send)

    def on_message(self, message: Message) -> None:
        if not self.alive:
            return
        due = self.core.next_beat_ms
        self.core.handle(message, self._send, self._run_task)
        if self.core.next_beat_ms != due:  # an accepted REGISTER_ACK re-armed it
            self._wake_at_next_beat()

    def _wake_at_next_beat(self) -> None:
        self.cluster._schedule(self.core.next_beat_ms - self.cluster.now_ms, self._wake)

    def _wake(self) -> None:
        # A wake armed before a later ack moved the beat finds none due and
        # ends there, so one chain of wakes follows the latest ack.
        if self.alive and self.core.beat_if_due(self._send):
            self._wake_at_next_beat()

    def _run_task(self, dispatch: Dispatch) -> None:
        result = self.core.execute(dispatch)
        # The simulated sleep reports its nominal duration; every other
        # executor may report wall-clock time, which must not steer the run.
        nominal_ms = result.exec_ms if dispatch.kind == "sleep" else 0
        logical_ms = int(dispatch.params.get("sim_exec_ms", nominal_ms))

        def finish() -> None:
            if self.alive:
                self.core.finish(result, self._send)

        now_ms = self.cluster.now_ms
        self._free_ms = max(self._free_ms, now_ms) + logical_ms
        self.cluster._schedule(self._free_ms - now_ms, finish)


class InProcCluster:
    """Master plus simulated workers under a controllable logical clock."""

    def __init__(self, config: SchedulerConfig | None = None):
        self.config = config or SchedulerConfig()
        self.now_ms = 0
        self._heap: list[_Event] = []
        self._seq = 0
        self.dispatch_frames: list[bytes] = []
        self.transitions: list[TransitionEvent] = []
        self.assignments: list[AssignmentEvent] = []
        self.core = MasterCore(
            self.config,
            clock=lambda: self.now_ms,
            on_transition=self._record_transition,
        )
        self.workers: dict[str, SimWorker] = {}
        self._client_replies: list[Message] = []
        self._client = _Link(self, self._client_replies.append)
        self._master_due = self.core.next_due_ms()
        self._schedule(self._master_due, self.core.run_due)

    # -- recording -----------------------------------------------------------

    def _record_transition(
        self, task: TaskDescriptor, from_state: TaskState, to_state: TaskState, at_ms: int
    ) -> None:
        self.transitions.append(TransitionEvent(task.task_id, from_state, to_state, at_ms))
        if to_state is TaskState.DISPATCHED:
            profile = self.core.scheduler.workers[task.assigned_worker]
            self.assignments.append(
                AssignmentEvent(
                    task.task_id, profile.worker_id, task.requires_gpu, profile.register.has_gpu, at_ms
                )
            )

    # -- wiring ----------------------------------------------------------------

    def _schedule(self, delay_ms: int, action: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, _Event(self.now_ms + delay_ms, self._seq, action))

    # -- cluster control -----------------------------------------------------------

    def add_worker(
        self,
        worker_id: str,
        cpu_mhz: int = 2000,
        has_gpu: bool = False,
        gpu_cores: int | None = None,
        gpu_mem_mb: int | None = None,
        lane_count: int = 1,
        registry: ExecutorRegistry | None = None,
        slots: int | None = None,
    ) -> SimWorker:
        """Connect and register a simulated worker, which holds ``slots``
        tasks at once (unset: one). Sleep workloads are simulated so
        their durations consume only logical time. Replacing a live
        worker id silences the old incarnation first."""
        old = self.workers.get(worker_id)
        if old is not None:
            old.alive = False
        register = Register(
            worker_id=worker_id,
            cpu_mhz=cpu_mhz,
            has_gpu=has_gpu,
            gpu_cores=gpu_cores,
            gpu_mem_mb=gpu_mem_mb,
            slots=slots,
        )
        registry = registry or built_in_registry(lane_count=lane_count, simulated_sleep=True)
        worker = SimWorker(self, WorkerCore(register, registry, clock=lambda: self.now_ms))
        self.workers[worker_id] = worker
        worker.start()
        self.advance(0)
        return worker

    def kill_worker(self, worker_id: str) -> None:
        """Silence a worker: no more heartbeats, results, or reactions.
        The master notices only through heartbeat staleness."""
        self.workers[worker_id].alive = False

    def submit(self, tasks: list[SubmitTask], job_id: str = "job") -> SubmitAck:
        return self._request(Submit(job_id=job_id, tasks=tuple(tasks)), SubmitAck)

    def job_status(self, job_id: str = "job") -> JobStatusReply:
        return self._request(JobStatus(job_id=job_id), JobStatusReply)

    def _request(self, message: Message, reply_type: type[R]) -> R:
        self._client.put(b"".join(protocol.line_parts(message)))
        self.advance(0)
        reply = self._client_replies.pop(0)
        assert isinstance(reply, reply_type), reply
        return reply

    def wait_job(
        self, job_id: str = "job", timeout_ms: int | None = None, max_ms: int = 10 * 60 * 1000
    ) -> JobProgressReply:
        """Send JOB_WAIT and fire events until its reply arrives, at most
        ``max_ms`` of logical time; ``now_ms`` is then the reply's arrival.
        The master answers it at the job's end or, by its timer rule, at
        the wait's deadline."""
        self._client.put(b"".join(protocol.line_parts(JobWait(job_id=job_id, timeout_ms=timeout_ms))))
        limit = self.now_ms + max_ms
        while not self._client_replies:
            if self._heap[0].at_ms > limit:
                raise TimeoutError(f"no reply to JOB_WAIT {job_id} after {max_ms} logical ms")
            self._fire_next()
        reply = self._client_replies.pop(0)
        assert isinstance(reply, JobProgressReply), reply
        return reply

    # -- time -------------------------------------------------------------------------

    def advance(self, dt_ms: int) -> None:
        """Move logical time forward, firing due events in order."""
        target = self.now_ms + dt_ms
        while self._heap and self._heap[0].at_ms <= target:
            self._fire_next()
        self.now_ms = target

    def _fire_next(self) -> None:
        event = heapq.heappop(self._heap)
        self.now_ms = max(self.now_ms, event.at_ms)
        event.action()
        # Each move of the master's next due time arms a wake there; a wake
        # armed before a later move finds nothing due and arms none.
        if (due := self.core.next_due_ms()) != self._master_due:
            self._master_due = due
            self._schedule(due - self.now_ms, self.core.run_due)

    def run_until_terminal(
        self, job_id: str = "job", max_ms: int = 10 * 60 * 1000
    ) -> JobStatusReply:
        """Wait for the job to settle (:meth:`wait_job`, which leaves
        ``now_ms`` at that instant), then fetch its status."""
        self.wait_job(job_id, max_ms=max_ms)
        return self.job_status(job_id)
