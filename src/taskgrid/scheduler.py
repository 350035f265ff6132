"""Master-side scheduling: membership rings, FCFS queue, round-robin dispatch.

Workers are segregated into a GPU ring and a CPU ring by their declared
capability. Tasks are served first-come-first-served; each task draws
a worker from its eligible ring, scanning from the one whose turn it
is: the first that holds no task, else the first with a free slot (a
worker declares how many tasks it holds at once; the ones past the
first wait at it in dispatch order). GPU tasks are never placed on
CPU-only workers. GPU capability metadata (cores, memory) plays no part
in placement.
"""

from __future__ import annotations

import bisect
import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .model import TaskDescriptor, TaskState, WorkerProfile, validate_profile, validate_transition

logger = logging.getLogger(__name__)

TransitionHook = Callable[[TaskDescriptor, TaskState, TaskState, int], None]
UNSCHEDULABLE_ERROR = "UNSCHEDULABLE: no GPU worker registered within timeout"


class RegistrationError(ValueError):
    """Worker profile rejected by :meth:`Scheduler.register_worker`."""


class DuplicateTaskError(ValueError):
    """A task_id was reused within this master's lifetime."""


@dataclass
class SchedulerConfig:
    heartbeat_interval_ms: int = 2000
    liveness_misses: int = 3
    unschedulable_timeout_ms: int = 60000

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be positive")
        if self.liveness_misses <= 0:
            raise ValueError("liveness_misses must be positive")
        if self.unschedulable_timeout_ms <= 0:
            raise ValueError("unschedulable_timeout_ms must be positive")

    @property
    def liveness_window_ms(self) -> int:
        return self.heartbeat_interval_ms * self.liveness_misses


class _Ring:
    """Worker ids ordered by descending cpu_mhz (ties: ascending id), served
    round-robin from ``turn``, the worker whose turn is next (``None`` only
    while empty). A joiner never takes the turn; a leaver hands it on."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.turn: str | None = None

    @staticmethod
    def _key(profile: WorkerProfile) -> tuple[int, str]:
        return (-profile.register.cpu_mhz, profile.worker_id)

    def insert(self, profile: WorkerProfile, profiles: dict[str, WorkerProfile]) -> None:
        bisect.insort(self.ids, profile.worker_id, key=lambda wid: self._key(profiles[wid]))
        if self.turn is None:
            self.turn = profile.worker_id

    def remove(self, worker_id: str) -> None:
        pos = self.ids.index(worker_id)
        del self.ids[pos]
        if self.turn == worker_id:
            self.turn = self.ids[pos % len(self.ids)] if self.ids else None

    def take_idle(self, profiles: dict[str, WorkerProfile]) -> str | None:
        """Next worker to take a task, by one cyclic scan from the turn:
        the first holding no task, else the first with a free slot, so a
        task never waits behind another while a worker is idle. With one
        slot each, that is the first idle worker. The turn passes to the
        worker after the chosen one."""
        ids = self.ids
        count = len(ids)
        start = ids.index(self.turn) if count else 0
        free = None
        for step in range(count):
            profile = profiles[ids[(start + step) % count]]
            if not profile.held:
                break
            if free is None and len(profile.held) < profile.slots:
                free = step
        else:
            if free is None:
                return None
            step = free
        self.turn = ids[(start + step + 1) % count]
        return ids[(start + step) % count]


class ClassQueues:
    """Queued tasks as one FCFS deque per task class.

    Each deque holds task records in ascending ``seq`` (enqueue) order,
    so its head is its class's oldest task; ``len`` is O(1).
    """

    def __init__(self) -> None:
        self.gpu: deque[TaskDescriptor] = deque()
        self.cpu: deque[TaskDescriptor] = deque()

    def of(self, requires_gpu: bool) -> deque[TaskDescriptor]:
        return self.gpu if requires_gpu else self.cpu

    def __len__(self) -> int:
        return len(self.gpu) + len(self.cpu)


class Scheduler:
    """Deterministic scheduling state machine.

    All mutation must come through one logical event loop; the class
    itself takes no locks. Every method that can change task state takes
    the caller's notion of "now" so clocks stay outside.
    """

    def __init__(self, config: SchedulerConfig, on_transition: TransitionHook | None = None):
        self.config = config
        self.workers: dict[str, WorkerProfile] = {}
        self.gpu_ring = _Ring()
        self.cpu_ring = _Ring()
        self.tasks: dict[str, TaskDescriptor] = {}
        self.queue = ClassQueues()
        self._next_seq = 0
        self._on_transition = on_transition

    # -- lifecycle helpers -------------------------------------------------

    def _transition(self, task: TaskDescriptor, to_state: TaskState, now_ms: int) -> None:
        from_state = task.state
        if not validate_transition(from_state, to_state):
            raise AssertionError(f"illegal transition {from_state} -> {to_state} for {task.task_id}")
        task.state = to_state
        if to_state is TaskState.COMPLETED or to_state is TaskState.FAILED:
            task.dispatch = None  # no DISPATCH can follow
        if self._on_transition is not None:
            self._on_transition(task, from_state, to_state, now_ms)

    def _requeue(self, task: TaskDescriptor, now_ms: int) -> None:
        """Return an orphaned task to the queue at its original FCFS slot."""
        task.assigned_worker = None
        task.dispatched_ms = None
        task.attempt += 1
        self._transition(task, TaskState.QUEUED, now_ms)
        bisect.insort(self.queue.of(task.requires_gpu), task, key=lambda task: task.seq)

    # -- membership --------------------------------------------------------

    def _ring_for(self, profile: WorkerProfile) -> _Ring:
        return self.gpu_ring if profile.register.has_gpu else self.cpu_ring

    def register_worker(self, profile: WorkerProfile, now_ms: int) -> None:
        """Insert (or replace) a worker in its capability ring.

        Re-registering a known id first removes the old profile through
        :meth:`remove_worker`, which re-queues every task it held.
        """
        reason = validate_profile(profile.register)
        if reason is not None:
            raise RegistrationError(reason)
        if profile.worker_id in self.workers:
            self.remove_worker(profile.worker_id, now_ms)
        profile.last_heartbeat_ms = now_ms
        profile.last_beat_ts_ms = None
        profile.held = []
        self.workers[profile.worker_id] = profile
        self._ring_for(profile).insert(profile, self.workers)

    def remove_worker(self, worker_id: str, now_ms: int) -> None:
        """Drop a worker from its ring; each task it held is re-queued at
        its FCFS slot."""
        profile = self.workers.pop(worker_id)
        self._ring_for(profile).remove(worker_id)
        for task_id in profile.held:
            task = self.tasks[task_id]
            self._requeue(task, now_ms)
            fields = {"task_id": task.task_id, "worker_id": worker_id, "attempt": task.attempt}
            logger.warning(
                "re-queueing task %(task_id)s from worker %(worker_id)s (attempt %(attempt)d)", fields, extra=fields
            )

    def heartbeat(self, worker_id: str, ts_ms: int, now_ms: int) -> bool:
        """Record liveness at ``now_ms``, the master's clock; returns False
        for unknown workers.

        ``ts_ms`` is on the worker's own clock, which is never compared
        with the master's: it only drops that worker's out-of-order
        beats (older than the newest seen). The master's own record says
        which tasks a worker holds, so the beat's busy flag is not read.
        """
        profile = self.workers.get(worker_id)
        if profile is None:
            return False
        if profile.last_beat_ts_ms is None or ts_ms >= profile.last_beat_ts_ms:
            profile.last_beat_ts_ms = ts_ms
            profile.last_heartbeat_ms = now_ms
        return True

    def evict_stale(self, now_ms: int) -> list[str]:
        """Drop workers whose last beat is older than the liveness window;
        re-queue every task they held. Returns the evicted worker ids."""
        window = self.config.liveness_window_ms
        stale = [
            wid
            for wid, profile in self.workers.items()
            if now_ms - profile.last_heartbeat_ms > window
        ]
        for wid in stale:
            logger.warning("evicting worker %s (no heartbeat for > %d ms)", wid, window, extra={"worker_id": wid})
            self.remove_worker(wid, now_ms)
        return stale

    # -- tasks ---------------------------------------------------------------

    def enqueue_task(self, task: TaskDescriptor, now_ms: int) -> None:
        """Queue a task behind every task enqueued before it. ``now_ms``
        must not decrease from call to call, so that enqueue order is
        also ``submitted_ms`` order."""
        if task.task_id in self.tasks:
            raise DuplicateTaskError(task.task_id)
        if task.state is not TaskState.QUEUED:
            raise ValueError(f"task {task.task_id} submitted in state {task.state}")
        task.submitted_ms = now_ms
        task.seq = self._next_seq
        self._next_seq += 1
        self.tasks[task.task_id] = task
        self.queue.of(task.requires_gpu).append(task)

    def schedule_round(self, now_ms: int) -> list[tuple[str, str]]:
        """One FCFS pass over the queue; returns (task_id, worker_id)
        assignments made.

        Each task draws from its eligible ring (GPU ring for GPU tasks;
        CPU ring otherwise, falling back to the GPU ring only when no
        CPU worker exists). A task with no free slot in its eligible ring
        stays queued without blocking tasks of the other class. GPU tasks with
        no GPU worker registered at all fail once they outlive the
        unschedulable timeout.

        The two class queues are merged head by head in FCFS order. A
        class stops for the round once its ring has no free slot, or,
        with no GPU ring, at its first GPU task still inside the timeout
        (the queue is ordered by submission time, so expired tasks form a
        prefix). A round thus costs O(assignments + failures) in queue
        length; each pick still scans its ring from the turn, so it is
        O(workers) per assignment in the worst case.
        """
        assignments: list[tuple[str, str]] = []
        workers = self.workers
        gpu_ring = self.gpu_ring if self.gpu_ring.ids else None
        cpu_ring = self.cpu_ring if self.cpu_ring.ids else gpu_ring
        gpu_queue, cpu_queue = self.queue.gpu, self.queue.cpu
        expired_before = now_ms - self.config.unschedulable_timeout_ms
        blocked: set[_Ring] = set()  # rings with no free slot left
        while True:
            gpu_ready = bool(gpu_queue) and (
                gpu_queue[0].submitted_ms < expired_before if gpu_ring is None else gpu_ring not in blocked
            )
            cpu_ready = bool(cpu_queue) and cpu_ring is not None and cpu_ring not in blocked
            if gpu_ready and not (cpu_ready and cpu_queue[0].seq < gpu_queue[0].seq):
                queue, ring = gpu_queue, gpu_ring
            elif cpu_ready:
                queue, ring = cpu_queue, cpu_ring
            else:
                return assignments
            if ring is None:
                task = queue.popleft()
                task.error = UNSCHEDULABLE_ERROR
                self._transition(task, TaskState.FAILED, now_ms)
                continue
            worker_id = ring.take_idle(workers)
            if worker_id is None:
                blocked.add(ring)
                continue
            task = queue.popleft()
            workers[worker_id].held.append(task.task_id)
            task.assigned_worker = worker_id
            task.dispatched_ms = now_ms
            self._transition(task, TaskState.DISPATCHED, now_ms)
            assignments.append((task.task_id, worker_id))

    def complete_task(
        self,
        task_id: str,
        worker_id: str,
        ok: bool,
        exec_ms: int,
        now_ms: int,
        error: str | None = None,
        output_b64: str | None = None,
    ) -> bool:
        """Finish a dispatched task and free the slot it held. Reports
        from a worker other than the current assignee are stale (the task
        was re-queued) and ignored; returns False for them. A completed
        task's ``output_b64`` is set before its COMPLETED transition, so
        observers see it."""
        task = self.tasks.get(task_id)
        if task is None or task.state is not TaskState.DISPATCHED or task.assigned_worker != worker_id:
            fields = {"task_id": task_id, "worker_id": worker_id}
            logger.warning("ignoring stale result for %(task_id)s from %(worker_id)s", fields, extra=fields)
            return False
        task.completed_ms = now_ms
        task.exec_ms = exec_ms
        if ok:
            task.output_b64 = output_b64
            self._transition(task, TaskState.COMPLETED, now_ms)
        else:
            task.error = error or "task failed"
            self._transition(task, TaskState.FAILED, now_ms)
        self.workers[worker_id].held.remove(task_id)
        return True
