"""In-process replay of a workload through each layer's public functions.

One thread plays both transports. Every message goes through
``protocol.encode``, a per-connection ``LineFramer`` fed in 64 KiB
chunks and ``protocol.decode``; the master is a ``MasterCore`` with a
benchmark-owned logical clock and senders; workers are
``worker.execute_dispatch`` with a registry whose executors time the
built-in ones. The only instrumentation inside a layer is a pair of
wrappers placed on the ``Scheduler`` instance of the benchmark's own
core: one times each round, the other stamps each task's enqueue so the
round that assigns it gives its queue wait. The replay runs the workers'
tasks in the same thread as the master, so a task's queue wait leaves
out the ``execute_dispatch`` calls that ran between its enqueue and its
assignment: what stays is master, scheduler and codec time.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from statistics import median

from taskgrid import protocol
from taskgrid.master import MasterCore
from taskgrid.protocol import JobStatus, JobStatusReply, Message, Register, SubmitTask, Submit
from taskgrid.scheduler import SchedulerConfig
from taskgrid.worker import execute_dispatch
from taskgrid.workloads import ExecutorRegistry, built_in_registry

from inputs import LANE_COUNT, Workload, make_bag, verify
from procs import CPU_WORKER, GPU_WORKER

CHUNK = 64 * 1024
REPORTED_TYPES = ("Submit", "Dispatch", "Result", "JobStatusReply")


def timed_registry(tracer) -> ExecutorRegistry:
    """The built-in executors, each call recorded as a ``workloads.exec.<kind>`` span."""
    inner = built_in_registry(lane_count=LANE_COUNT)
    registry = ExecutorRegistry()
    for kind in inner.kinds():
        def executor(params, payload, _run=inner.get(kind), _name=f"workloads.exec.{kind}"):
            with tracer.span(_name):
                return _run(params, payload)
        registry.register(kind, executor)
    return registry


@dataclass
class Counts:
    rounds: int = 0
    scanned: int = 0
    assigned: int = 0
    wire_bytes: dict[str, int] = field(default_factory=dict)
    status_bytes: list[int] = field(default_factory=list)
    queue_wait_ns: list[int] = field(default_factory=list)
    tasks: int = 0


class Replay:
    def __init__(self, workload: Workload, seed: int, tracer):
        self.workload = workload
        self.seed = seed
        self.t = tracer
        self.counts = Counts()
        self.now_ms = 0
        # perf_counter_ns spent in execute_dispatch so far.
        self.worker_ns = 0
        self.core = MasterCore(SchedulerConfig(), clock=lambda: self.now_ms)
        self.registry = timed_registry(tracer)
        self.framers: dict[str, protocol.LineFramer] = {}
        self.to_workers: deque[tuple[str, bytes]] = deque()
        self._wrap_scheduler()

    def _wrap_scheduler(self) -> None:
        scheduler = self.core.scheduler
        inner_enqueue, inner_round = scheduler.enqueue_task, scheduler.schedule_round
        # task id -> (perf_counter_ns, worker_ns) at enqueue
        enqueued: dict[str, tuple[int, int]] = {}

        def enqueue_task(task, now_ms: int) -> None:
            inner_enqueue(task, now_ms)
            enqueued[task.task_id] = (time.perf_counter_ns(), self.worker_ns)

        def schedule_round(now_ms: int):
            self.counts.rounds += 1
            self.counts.scanned += len(scheduler.queue)
            with self.t.span("scheduler.round"):
                assignments = inner_round(now_ms)
            assigned_ns = time.perf_counter_ns()
            self.counts.assigned += len(assignments)
            for task_id, _ in assignments:
                at_ns, worker_ns = enqueued.pop(task_id)
                self.counts.queue_wait_ns.append(assigned_ns - at_ns - (self.worker_ns - worker_ns))
            return assignments

        scheduler.enqueue_task, scheduler.schedule_round = enqueue_task, schedule_round

    # -- transport ---------------------------------------------------------

    def _encode(self, message: Message) -> bytes:
        name = type(message).__name__
        with self.t.span(f"protocol.encode.{name}"):
            data = protocol.encode(message)
        self.counts.wire_bytes[name] = self.counts.wire_bytes.get(name, 0) + len(data)
        return data

    def _receive(self, link: str, name: str, data: bytes) -> Message:
        framer = self.framers.setdefault(link, protocol.LineFramer())
        lines = []
        with self.t.span(f"protocol.framer.{name}"):
            for i in range(0, len(data), CHUNK):
                lines.extend(framer.feed(data[i : i + CHUNK]))
        [line] = lines
        with self.t.span(f"protocol.decode.{name}"):
            return protocol.decode(line)

    def _carry(self, link: str, message: Message) -> Message:
        return self._receive(link, type(message).__name__, self._encode(message))

    def _handle(self, message: Message, sender) -> Message | None:
        self.now_ms += 1
        with self.t.span(f"master.handle.{type(message).__name__}"):
            return self.core.handle(message, sender)

    def _worker_sender(self, worker_id: str):
        def send(message: Message) -> None:
            with self.t.span("master.send"):
                self.to_workers.append((worker_id, self._encode(message)))
        return send

    def _client_sender(self, message: Message) -> None:
        raise AssertionError(f"master pushed {type(message).__name__} to a client")

    # -- driving -----------------------------------------------------------

    def _register(self) -> None:
        for worker_id, gpu in ((GPU_WORKER, True), (CPU_WORKER, False)):
            message = Register(worker_id=worker_id, cpu_mhz=2400, has_gpu=gpu)
            self._handle(self._carry(f"{worker_id}>master", message), self._worker_sender(worker_id))

    def _poll(self, job_id: str) -> JobStatusReply:
        request = self._carry("client>master", JobStatus(job_id=job_id))
        reply = self._handle(request, self._client_sender)
        data = self._encode(reply)
        self.counts.status_bytes.append(len(data))
        return self._receive("master>client", type(reply).__name__, data)

    def _run_job(self, job_id: str, tasks: list[SubmitTask]) -> None:
        submit = self._carry("client>master", Submit(job_id=job_id, tasks=tuple(tasks)))
        ack = self._handle(submit, self._client_sender)
        self._carry("master>client", ack)
        results = 0
        while self.to_workers:
            worker_id, data = self.to_workers.popleft()
            dispatch = self._receive(f"master>{worker_id}", "Dispatch", data)
            t0 = time.perf_counter_ns()
            with self.t.span("worker.execute_dispatch"):
                result = execute_dispatch(self.registry, dispatch, worker_id)
            self.worker_ns += time.perf_counter_ns() - t0
            self._handle(self._carry(f"{worker_id}>master", result), self._worker_sender(worker_id))
            results += 1
            if results % self.workload.replay_poll_every == 0 and self.to_workers:
                self._poll(job_id)
        reply = self._poll(job_id)
        verify(tasks, reply)
        # One thread cannot race a busy worker, so every task must complete.
        unfinished = [r.task_id for r in reply.tasks if r.state != "COMPLETED"]
        if unfinished:
            raise RuntimeError(f"replay of {job_id}: tasks not completed: {unfinished[:5]}")
        self.counts.tasks += len(reply.tasks)

    def run(self) -> float:
        """Replay the workload's replay bags; returns the wall seconds."""
        bags = [make_bag(self.workload, self.seed, b)
                for b in range(self.workload.replay_bags)]
        t0 = time.perf_counter()
        self._register()
        for job_id, tasks in bags:
            self._run_job(job_id, tasks)
        return time.perf_counter() - t0


def layer_metrics(replay: Replay) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one timed replay, as {name: (value, unit)}."""
    t, c = replay.t, replay.counts
    out: dict[str, tuple[float, str]] = {
        "scheduler.rounds": (c.rounds, "count"),
        "scheduler.scanned": (c.scanned, "count"),
        "scheduler.assign_per_scan": (c.assigned / c.scanned, "ratio"),
        "scheduler.round_ms": (t.total_ms("scheduler.round"), "ms"),
        "scheduler.round_p50_us": (t.p50_ms("scheduler.round") * 1000, "us"),
        "master.result_self_us": (t.p50_ms("master.handle.Result", self_time=True) * 1000, "us"),
        "master.submit_self_ms": (t.p50_ms("master.handle.Submit", self_time=True), "ms"),
        "master.status_ms": (t.p50_ms("master.handle.JobStatus"), "ms"),
        "master.status_bytes": (median(c.status_bytes), "bytes"),
        "master.queue_wait_p50_ms": (median(c.queue_wait_ns) / 1e6, "ms"),
        "worker.dispatch_self_ms": (t.p50_ms("worker.execute_dispatch", self_time=True), "ms"),
    }
    for name in REPORTED_TYPES:
        out[f"protocol.encode_ms.{name}"] = (t.total_ms(f"protocol.encode.{name}"), "ms")
        out[f"protocol.decode_ms.{name}"] = (t.total_ms(f"protocol.decode.{name}"), "ms")
        out[f"protocol.framer_ms.{name}"] = (t.total_ms(f"protocol.framer.{name}"), "ms")
        out[f"protocol.wire_bytes.{name}"] = (c.wire_bytes.get(name, 0), "bytes")
    return out
