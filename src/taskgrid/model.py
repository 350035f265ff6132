"""Domain types shared by the master, the workers, and the harness.

Tasks move through a small lifecycle state machine::

    QUEUED ──► DISPATCHED ──► COMPLETED
      │            │ ▲
      │            ▼ │ (worker loss re-queues the task)
      ▼          FAILED
    FAILED (unschedulable timeout)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .protocol import Dispatch, Message, Register, TaskReport


def monotonic_ms() -> int:
    """Milliseconds from this process's monotonic clock."""
    return time.monotonic_ns() // 1_000_000


class TaskState(str, Enum):
    QUEUED = "QUEUED"
    DISPATCHED = "DISPATCHED"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"


# Legal lifecycle transitions. DISPATCHED -> QUEUED covers worker loss,
# QUEUED -> FAILED covers tasks that can never be scheduled.
_LEGAL_TRANSITIONS = frozenset(
    {
        (TaskState.QUEUED, TaskState.DISPATCHED),
        (TaskState.DISPATCHED, TaskState.COMPLETED),
        (TaskState.DISPATCHED, TaskState.FAILED),
        (TaskState.DISPATCHED, TaskState.QUEUED),
        (TaskState.QUEUED, TaskState.FAILED),
    }
)


def validate_transition(from_state: TaskState, to_state: TaskState) -> bool:
    """Return True iff ``from_state -> to_state`` is a legal lifecycle move."""
    return (from_state, to_state) in _LEGAL_TRANSITIONS


class MissingTimingError(ValueError):
    """A timing computation needed a timestamp that was never recorded."""


def overhead_ms(record: TaskDescriptor | TaskReport) -> int:
    """Framework overhead: turnaround minus worker-side execution time.

    Reads the three timestamps by name, so a master's
    :class:`TaskDescriptor` and a client's ``TaskReport`` both work.
    Requires ``submitted_ms``, ``completed_ms`` and ``exec_ms`` to be
    present; raises :class:`MissingTimingError` otherwise.
    """
    for name in ("submitted_ms", "completed_ms", "exec_ms"):
        if getattr(record, name) is None:
            raise MissingTimingError(f"timing field {name} is not set")
    return (record.completed_ms - record.submitted_ms) - record.exec_ms


@dataclass
class TaskDescriptor:
    """One unit of work as tracked by the master.

    ``dispatch`` is the SUBMIT entry the task came in, which the master
    sends unchanged as the task's DISPATCH, payload text and all, on each
    attempt; it is dropped once the task is COMPLETED or FAILED, as no
    DISPATCH can follow either. ``requires_gpu`` is copied from it, as
    the record outlives it.
    ``output_b64`` is the output of the RESULT that completed the task,
    kept verbatim for status reports; it stays None otherwise.

    Timestamps are in milliseconds. ``submitted_ms``/``dispatched_ms``/
    ``completed_ms`` come from the master's monotonic clock; ``exec_ms``
    is the duration the worker reported for the executor run alone.
    Clocks are never compared across processes. ``seq`` is the task's
    enqueue order on its master, which is its FCFS slot.
    """

    task_id: str
    job_id: str
    requires_gpu: bool
    dispatch: Dispatch | None = None
    output_b64: str | None = None
    state: TaskState = TaskState.QUEUED
    assigned_worker: str | None = None
    submitted_ms: int | None = None
    dispatched_ms: int | None = None
    completed_ms: int | None = None
    exec_ms: int | None = None
    seq: int = 0
    attempt: int = 0
    error: str | None = None


@dataclass
class WorkerProfile:
    """A registered worker: the REGISTER that declared its capability,
    and the master's record of the worker.

    ``register.cpu_mhz`` orders the dispatch rings; the GPU cores and
    memory are descriptive metadata only and never influence placement.
    ``last_heartbeat_ms`` is on the master's clock and decides liveness;
    ``last_beat_ts_ms`` is the newest ``ts_ms`` the worker sent, on the
    worker's own clock, and only orders that worker's beats.
    ``held`` is the one record of the tasks the master dispatched to the
    worker and has not yet seen finish, in dispatch order: the one it
    runs, then those queued behind it. The worker holds at most
    ``slots`` (its REGISTER's ``slots``, 1 if unset); ``busy`` means every
    slot is taken.
    ``sender`` delivers a message over the connection the worker
    registered on; the master sends its DISPATCHes through it.
    """

    register: Register
    last_heartbeat_ms: int = 0
    last_beat_ts_ms: int | None = None
    held: list[str] = field(default_factory=list)
    sender: Callable[[Message], None] | None = field(default=None, compare=False, repr=False)
    slots: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # A plain attribute, not a property: the dispatch scan reads it
        # for every worker it passes.
        self.slots = self.register.slots or 1

    @property
    def worker_id(self) -> str:
        return self.register.worker_id

    @property
    def busy(self) -> bool:
        return len(self.held) >= self.slots

    @property
    def current_task(self) -> str | None:
        """The one-slot view of ``held``: its oldest task, or None;
        setting it makes that task the only one held."""
        return self.held[0] if self.held else None

    @current_task.setter
    def current_task(self, task_id: str | None) -> None:
        self.held = [] if task_id is None else [task_id]


def validate_profile(register: Register) -> str | None:
    """Why the master refuses the profile a REGISTER declares, or None;
    a worker checks its own by the same rule before it connects."""
    if not register.worker_id:
        return "worker_id must be non-empty"
    if register.cpu_mhz <= 0:
        return "cpu_mhz must be positive"
    if not register.has_gpu and (register.gpu_cores is not None or register.gpu_mem_mb is not None):
        return "gpu_cores/gpu_mem_mb are only valid when has_gpu is true"
    if register.gpu_cores is not None and register.gpu_cores <= 0:
        return "gpu_cores must be positive"
    if register.gpu_mem_mb is not None and register.gpu_mem_mb <= 0:
        return "gpu_mem_mb must be positive"
    if register.slots is not None and register.slots < 1:
        return "slots must be positive"
    return None
