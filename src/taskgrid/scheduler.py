"""Master-side scheduling: membership rings, FCFS queue, round-robin dispatch.

Workers are segregated into a GPU ring and a CPU ring by their declared
capability. Tasks are served first-come-first-served; each task draws
an idle worker from its eligible ring by rotating that ring's cursor.
GPU tasks are never placed on CPU-only workers. GPU capability metadata
(cores, memory) and current load play no part in placement.
"""

from __future__ import annotations

import bisect
import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .model import (
    TaskDescriptor,
    TaskState,
    WorkerProfile,
    validate_profile,
    validate_transition,
)

logger = logging.getLogger(__name__)

TransitionHook = Callable[[TaskDescriptor, TaskState, TaskState, int], None]
UNSCHEDULABLE_ERROR = "UNSCHEDULABLE: no GPU worker registered within timeout"


class RegistrationError(ValueError):
    """Worker profile rejected by the membership catalog."""


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
    """Worker ids ordered by descending cpu_mhz (ties: ascending id),
    with a rotating cursor for round-robin selection."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.cursor: int = 0

    @staticmethod
    def _key(profile: WorkerProfile) -> tuple[int, str]:
        return (-profile.cpu_mhz, profile.worker_id)

    def insert(self, profile: WorkerProfile, profiles: dict[str, WorkerProfile]) -> None:
        pos = bisect.bisect_left(
            self.ids, self._key(profile), key=lambda wid: self._key(profiles[wid])
        )
        self.ids.insert(pos, profile.worker_id)
        # Keep the rotation pointed at the same pre-existing worker.
        if len(self.ids) > 1 and pos <= self.cursor:
            self.cursor += 1

    def remove(self, worker_id: str) -> None:
        pos = self.ids.index(worker_id)
        self.ids.pop(pos)
        if not self.ids:
            self.cursor = 0
        elif pos < self.cursor:
            self.cursor -= 1
        elif self.cursor >= len(self.ids):
            self.cursor = 0

    def take_idle(self, profiles: dict[str, WorkerProfile]) -> str | None:
        """Next idle worker by cyclic cursor scan; advances the cursor
        past the chosen worker."""
        count = len(self.ids)
        for step in range(count):
            pos = (self.cursor + step) % count
            wid = self.ids[pos]
            if not profiles[wid].busy:
                self.cursor = (pos + 1) % count
                return wid
        return None


class MembershipCatalog:
    """Live workers split into GPU and CPU dispatch rings."""

    def __init__(self) -> None:
        self.workers: dict[str, WorkerProfile] = {}
        self.gpu_ring = _Ring()
        self.cpu_ring = _Ring()

    def _ring_for(self, profile: WorkerProfile) -> _Ring:
        return self.gpu_ring if profile.has_gpu else self.cpu_ring

    def insert(self, profile: WorkerProfile) -> None:
        self.workers[profile.worker_id] = profile
        self._ring_for(profile).insert(profile, self.workers)

    def remove(self, worker_id: str) -> WorkerProfile:
        profile = self.workers[worker_id]
        self._ring_for(profile).remove(worker_id)
        del self.workers[worker_id]
        return profile

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self.workers


class ClassQueues:
    """Queued task ids as one FCFS deque per task class.

    Entries are ``(submitted_ms, enqueue seq, task_id)`` kept in
    ascending order, so each deque's head is its class's oldest task.
    Iterating yields the task ids of both classes merged in that order,
    and the queue compares equal to the list of them; ``len`` is O(1).
    """

    def __init__(self) -> None:
        self.gpu: deque[tuple[int, int, str]] = deque()
        self.cpu: deque[tuple[int, int, str]] = deque()

    def of(self, requires_gpu: bool) -> deque[tuple[int, int, str]]:
        return self.gpu if requires_gpu else self.cpu

    def __len__(self) -> int:
        return len(self.gpu) + len(self.cpu)

    def __iter__(self) -> Iterator[str]:
        return (task_id for _, _, task_id in sorted([*self.gpu, *self.cpu]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClassQueues):
            other = list(other)
        return list(self) == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ClassQueues({list(self)!r})"


class Scheduler:
    """Deterministic scheduling state machine.

    All mutation must come through one logical event loop; the class
    itself takes no locks. Every method that can change task state takes
    the caller's notion of "now" so clocks stay outside.
    """

    def __init__(self, config: SchedulerConfig, on_transition: TransitionHook | None = None):
        self.config = config
        self.catalog = MembershipCatalog()
        self.tasks: dict[str, TaskDescriptor] = {}
        self.queue = ClassQueues()
        self._enqueue_seq: dict[str, int] = {}
        self._next_seq = 0
        self._on_transition = on_transition

    # -- lifecycle helpers -------------------------------------------------

    def _transition(self, task: TaskDescriptor, to_state: TaskState, now_ms: int) -> None:
        from_state = task.state
        if not validate_transition(from_state, to_state):
            raise AssertionError(f"illegal transition {from_state} -> {to_state} for {task.task_id}")
        task.state = to_state
        if to_state is TaskState.COMPLETED or to_state is TaskState.FAILED:
            task.payload_b64 = ""  # no DISPATCH can follow
        if self._on_transition is not None:
            self._on_transition(task, from_state, to_state, now_ms)

    def _requeue(self, task: TaskDescriptor, now_ms: int) -> None:
        """Return an orphaned task to the queue at its original FCFS slot."""
        task.assigned_worker = None
        task.timing.dispatched_ms = None
        task.attempt += 1
        self._transition(task, TaskState.QUEUED, now_ms)
        entry = (task.timing.submitted_ms, self._enqueue_seq[task.task_id], task.task_id)
        bisect.insort(self.queue.of(task.requires_gpu), entry)

    # -- membership --------------------------------------------------------

    def register_worker(self, profile: WorkerProfile, now_ms: int) -> None:
        """Insert (or replace) a worker in its capability ring.

        Re-registering a known id drops the old profile; a task the old
        incarnation held is re-queued.
        """
        reason = validate_profile(profile)
        if reason is not None:
            raise RegistrationError(reason)
        if profile.worker_id in self.catalog:
            old = self.catalog.remove(profile.worker_id)
            if old.current_task is not None:
                orphan = self.tasks[old.current_task]
                logger.warning(
                    "worker %s re-registered; re-queueing task %s", profile.worker_id, orphan.task_id
                )
                self._requeue(orphan, now_ms)
        profile.last_heartbeat_ms = now_ms
        profile.last_beat_ts_ms = None
        profile.current_task = None
        self.catalog.insert(profile)

    def heartbeat(self, worker_id: str, ts_ms: int, now_ms: int) -> bool:
        """Record liveness at ``now_ms``, the master's clock; returns False
        for unknown workers.

        ``ts_ms`` is on the worker's own clock, which is never compared
        with the master's: it only drops that worker's out-of-order
        beats (older than the newest seen). A worker is busy exactly
        while it holds a dispatched task, so the beat's own busy flag is
        not read.
        """
        profile = self.catalog.workers.get(worker_id)
        if profile is None:
            return False
        if profile.last_beat_ts_ms is None or ts_ms >= profile.last_beat_ts_ms:
            profile.last_beat_ts_ms = ts_ms
            profile.last_heartbeat_ms = now_ms
        return True

    def evict_stale(self, now_ms: int) -> list[str]:
        """Drop workers whose last beat is older than the liveness window;
        re-queue any task they held. Returns the evicted worker ids."""
        window = self.config.liveness_window_ms
        stale = [
            wid
            for wid, profile in self.catalog.workers.items()
            if now_ms - profile.last_heartbeat_ms > window
        ]
        for wid in stale:
            profile = self.catalog.remove(wid)
            logger.warning("evicting worker %s (no heartbeat for > %d ms)", wid, window)
            if profile.current_task is not None:
                self._requeue(self.tasks[profile.current_task], now_ms)
        return stale

    # -- tasks ---------------------------------------------------------------

    def enqueue_task(self, task: TaskDescriptor, now_ms: int) -> None:
        if task.task_id in self.tasks:
            raise DuplicateTaskError(task.task_id)
        if task.state is not TaskState.QUEUED:
            raise ValueError(f"task {task.task_id} submitted in state {task.state}")
        task.timing.submitted_ms = now_ms
        seq = self._next_seq
        self._next_seq += 1
        self._enqueue_seq[task.task_id] = seq
        self.tasks[task.task_id] = task
        self.queue.of(task.requires_gpu).append((now_ms, seq, task.task_id))

    def schedule_round(self, now_ms: int) -> list[tuple[str, str]]:
        """One FCFS pass over the queue; returns (task_id, worker_id)
        assignments made.

        Each task draws from its eligible ring (GPU ring for GPU tasks;
        CPU ring otherwise, falling back to the GPU ring only when no
        CPU worker exists). A task with no idle eligible worker stays
        queued without blocking tasks of the other class. GPU tasks with
        no GPU worker registered at all fail once they outlive the
        unschedulable timeout.

        The two class queues are merged head by head in FCFS order. A
        class stops for the round once its ring has no idle worker, or,
        with no GPU ring, at its first GPU task still inside the timeout
        (the queue is ordered by submission time, so expired tasks form a
        prefix). A round thus costs O(assignments + failures).
        """
        assignments: list[tuple[str, str]] = []
        workers = self.catalog.workers
        gpu_ring = self.catalog.gpu_ring if self.catalog.gpu_ring.ids else None
        cpu_ring = self.catalog.cpu_ring if self.catalog.cpu_ring.ids else gpu_ring
        gpu_queue, cpu_queue = self.queue.gpu, self.queue.cpu
        expired_before = now_ms - self.config.unschedulable_timeout_ms
        blocked: set[_Ring] = set()  # rings with no idle worker left
        while True:
            gpu_ready = bool(gpu_queue) and (
                gpu_queue[0][0] < expired_before if gpu_ring is None else gpu_ring not in blocked
            )
            cpu_ready = bool(cpu_queue) and cpu_ring is not None and cpu_ring not in blocked
            if gpu_ready and not (cpu_ready and cpu_queue[0] < gpu_queue[0]):
                queue, ring = gpu_queue, gpu_ring
            elif cpu_ready:
                queue, ring = cpu_queue, cpu_ring
            else:
                return assignments
            if ring is None:
                task = self.tasks[queue.popleft()[2]]
                task.error = UNSCHEDULABLE_ERROR
                self._transition(task, TaskState.FAILED, now_ms)
                continue
            worker_id = ring.take_idle(workers)
            if worker_id is None:
                blocked.add(ring)
                continue
            task_id = queue.popleft()[2]
            task = self.tasks[task_id]
            workers[worker_id].current_task = task_id
            task.assigned_worker = worker_id
            task.timing.dispatched_ms = now_ms
            self._transition(task, TaskState.DISPATCHED, now_ms)
            assignments.append((task_id, worker_id))

    def complete_task(
        self,
        task_id: str,
        worker_id: str,
        ok: bool,
        exec_ms: int,
        now_ms: int,
        error: str | None = None,
    ) -> bool:
        """Finish a dispatched task. Reports from a worker other than the
        current assignee are stale (the task was re-queued) and ignored;
        returns False for them."""
        task = self.tasks.get(task_id)
        if task is None or task.state is not TaskState.DISPATCHED or task.assigned_worker != worker_id:
            logger.warning("ignoring stale result for %s from %s", task_id, worker_id)
            return False
        task.timing.completed_ms = now_ms
        task.timing.exec_ms = exec_ms
        if ok:
            self._transition(task, TaskState.COMPLETED, now_ms)
        else:
            task.error = error or "task failed"
            self._transition(task, TaskState.FAILED, now_ms)
        profile = self.catalog.workers.get(worker_id)
        if profile is not None:
            profile.current_task = None
        return True
