"""Deterministic in-process cluster for integration testing.

One :class:`MasterCore` and any number of simulated workers are wired
through in-memory channels that carry the exact wire-protocol bytes
(every message passes through encode -> framer -> decode). Each
simulated worker runs the production :class:`WorkerCore`, heartbeat
cadence included, like the TCP :class:`WorkerAgent`; the two differ only
in transport, clock and when execution runs. A simulated worker wakes
when its core's next beat falls due, where the agent's reader stops
waiting for input. Time is a logical clock advanced by the test script;
heartbeats, eviction ticks and task completions are discrete events
processed in a deterministic (time, insertion) order, so identical
scripts produce identical dispatch logs byte for byte.

Execution semantics: a dispatch runs its executor immediately (in wall
time), but the RESULT is delivered after the executor-reported exec_ms
of *logical* time, so tasks stay observably in flight. A task param
``sim_exec_ms`` overrides that logical duration (real agents ignore
it); use it to hold a task in flight across heartbeat windows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from . import protocol
from .master import MasterCore
from .model import TaskDescriptor, TaskState, WorkerProfile
from .protocol import (
    Dispatch,
    JobStatus,
    JobStatusReply,
    Message,
    Register,
    Submit,
    SubmitAck,
    SubmitTask,
)
from .scheduler import SchedulerConfig
from .worker import WorkerCore
from .workloads import ExecutorRegistry, built_in_registry


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


class _Channel:
    """One direction of an in-memory duplex link carrying wire bytes."""

    def __init__(self, cluster: InProcCluster, deliver: Callable[[Message], None]):
        self._cluster = cluster
        self._deliver = deliver
        self._framer = protocol.LineFramer()

    def send_bytes(self, data: bytes) -> None:
        for line in self._framer.feed(data):
            message = protocol.decode(line)
            self._cluster._schedule(0, lambda m=message: self._deliver(m))

    def send(self, message: Message) -> None:
        self.send_bytes(protocol.encode(message))


class SimWorker:
    """A :class:`WorkerCore` driven by logical time instead of sockets."""

    def __init__(self, cluster: InProcCluster, core: WorkerCore):
        self.cluster = cluster
        self.core = core
        self.alive = True
        self.to_master: _Channel | None = None

    def _send(self, message: Message) -> None:
        if self.alive and self.to_master is not None:
            self.to_master.send(message)

    def start(self) -> None:
        self._send(self.core.register)

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
        logical_ms = int(dispatch.params.get("sim_exec_ms", result.exec_ms))

        def finish() -> None:
            if self.alive:
                self.core.finish(result, self._send)

        self.cluster._schedule(logical_ms, finish)


class InProcCluster:
    """Master plus simulated workers under a controllable logical clock.

    Master eviction ticks run every ``heartbeat_interval_ms`` of logical
    time starting at the first interval after construction.
    """

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
            on_assignment=self._record_assignment,
        )
        self.workers: dict[str, SimWorker] = {}
        self._client_channel = _Channel(self, self._handle_client_message)
        self._client_replies: list[Message] = []
        self._schedule(self.config.heartbeat_interval_ms, self._master_tick)

    # -- recording -----------------------------------------------------------

    def _record_transition(
        self, task: TaskDescriptor, from_state: TaskState, to_state: TaskState, at_ms: int
    ) -> None:
        self.transitions.append(TransitionEvent(task.task_id, from_state, to_state, at_ms))

    def _record_assignment(self, task: TaskDescriptor, profile: WorkerProfile, at_ms: int) -> None:
        self.assignments.append(
            AssignmentEvent(
                task.task_id, profile.worker_id, task.requires_gpu, profile.has_gpu, at_ms
            )
        )

    # -- wiring ----------------------------------------------------------------

    def _schedule(self, delay_ms: int, action: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, _Event(self.now_ms + delay_ms, self._seq, action))

    def _master_tick(self) -> None:
        self.core.tick()
        self._schedule(self.config.heartbeat_interval_ms, self._master_tick)

    def _attach_worker(self, worker: SimWorker) -> None:
        to_worker = _Channel(self, worker.on_message)

        def master_sender(message: Message) -> None:
            data = protocol.encode(message)
            if isinstance(message, Dispatch):
                self.dispatch_frames.append(data)
            to_worker.send_bytes(data)

        worker.to_master = _Channel(
            self, lambda m, send=master_sender: self._handle_worker_message(m, send)
        )

    def _handle_worker_message(self, message: Message, sender: Callable[[Message], None]) -> None:
        if isinstance(message, Register):
            self.core.register(message, sender)
            return
        reply = self.core.handle(message, sender)
        if reply is not None:
            sender(reply)

    def _handle_client_message(self, message: Message) -> None:
        reply = self.core.handle(message, self._client_replies.append)
        if reply is not None:
            self._client_replies.append(reply)

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
    ) -> SimWorker:
        """Connect and register a simulated worker. Sleep workloads are
        simulated so their durations consume only logical time. Replacing
        a live worker id silences the old incarnation first."""
        old = self.workers.get(worker_id)
        if old is not None:
            old.alive = False
        register = Register(
            worker_id=worker_id,
            cpu_mhz=cpu_mhz,
            has_gpu=has_gpu,
            gpu_cores=gpu_cores,
            gpu_mem_mb=gpu_mem_mb,
        )
        registry = registry or built_in_registry(lane_count=lane_count, simulated_sleep=True)
        worker = SimWorker(self, WorkerCore(register, registry, clock=lambda: self.now_ms))
        self._attach_worker(worker)
        self.workers[worker_id] = worker
        worker.start()
        self._drain_due_events()
        return worker

    def kill_worker(self, worker_id: str) -> None:
        """Silence a worker: no more heartbeats, results, or reactions.
        The master notices only through heartbeat staleness."""
        self.workers[worker_id].alive = False

    def submit(self, tasks: list[SubmitTask], job_id: str = "job") -> SubmitAck:
        self._client_channel.send(Submit(job_id=job_id, tasks=tuple(tasks)))
        self._drain_due_events()
        reply = self._client_replies.pop(0)
        assert isinstance(reply, SubmitAck), reply
        return reply

    def job_status(self, job_id: str = "job") -> JobStatusReply:
        self._client_channel.send(JobStatus(job_id=job_id))
        self._drain_due_events()
        reply = self._client_replies.pop(0)
        assert isinstance(reply, JobStatusReply), reply
        return reply

    # -- time -------------------------------------------------------------------------

    def _drain_due_events(self) -> None:
        while self._heap and self._heap[0].at_ms <= self.now_ms:
            heapq.heappop(self._heap).action()

    def advance(self, dt_ms: int) -> None:
        """Move logical time forward, firing due events in order."""
        target = self.now_ms + dt_ms
        while self._heap and self._heap[0].at_ms <= target:
            event = heapq.heappop(self._heap)
            self.now_ms = max(self.now_ms, event.at_ms)
            event.action()
        self.now_ms = target

    def run_until_terminal(
        self, job_id: str = "job", max_ms: int = 10 * 60 * 1000
    ) -> JobStatusReply:
        """Advance in heartbeat-interval steps until the job settles."""
        step = self.config.heartbeat_interval_ms
        waited = 0
        while waited <= max_ms:
            if self.core.job_is_terminal(job_id):
                return self.job_status(job_id)
            self.advance(step)
            waited += step
        raise TimeoutError(f"job {job_id} not terminal after {max_ms} logical ms")
