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
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .protocol import Register, TaskReport


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


@dataclass
class TimingRecord:
    """Per-task timestamps, all in milliseconds.

    ``submitted_ms``/``dispatched_ms``/``completed_ms`` come from the
    master's monotonic clock; ``exec_ms`` is the duration the worker
    reported for the executor run alone. Clocks are never compared
    across processes.
    """

    submitted_ms: int | None = None
    dispatched_ms: int | None = None
    completed_ms: int | None = None
    exec_ms: int | None = None


class MissingTimingError(ValueError):
    """A timing computation needed a timestamp that was never recorded."""


def overhead_ms(timing: TimingRecord | TaskReport) -> int:
    """Framework overhead: turnaround minus worker-side execution time.

    Reads the three timestamps by name, so a master's
    :class:`TimingRecord` and a client's ``TaskReport`` both work.
    Requires ``submitted_ms``, ``completed_ms`` and ``exec_ms`` to be
    present; raises :class:`MissingTimingError` otherwise.
    """
    for name in ("submitted_ms", "completed_ms", "exec_ms"):
        if getattr(timing, name) is None:
            raise MissingTimingError(f"timing field {name} is not set")
    return (timing.completed_ms - timing.submitted_ms) - timing.exec_ms


@dataclass
class TaskDescriptor:
    """One unit of work as tracked by the master.

    ``payload_b64`` is the base64 text the task was submitted with; the
    master forwards it verbatim and never decodes it, and drops it once
    the task is COMPLETED or FAILED, as no DISPATCH can follow either.
    ``output_b64`` is the output of the RESULT that completed the task,
    kept verbatim for status reports; it stays None otherwise.
    """

    task_id: str
    job_id: str
    kind: str
    requires_gpu: bool
    params: dict[str, str] = field(default_factory=dict)
    payload_b64: str = ""
    output_b64: str | None = None
    state: TaskState = TaskState.QUEUED
    assigned_worker: str | None = None
    timing: TimingRecord = field(default_factory=TimingRecord)
    attempt: int = 0
    error: str | None = None


@dataclass
class WorkerProfile:
    """A registered worker and its capability profile.

    ``cpu_mhz`` orders the dispatch rings; ``gpu_cores``/``gpu_mem_mb``
    are descriptive metadata only and never influence placement.
    ``last_heartbeat_ms`` is on the master's clock and decides liveness;
    ``last_beat_ts_ms`` is the newest ``ts_ms`` the worker sent, on the
    worker's own clock, and only orders that worker's beats.
    ``current_task`` is the task the master dispatched to the worker and
    has not yet seen finish; ``busy`` is derived from it.
    """

    worker_id: str
    cpu_mhz: int
    has_gpu: bool = False
    gpu_cores: int | None = None
    gpu_mem_mb: int | None = None
    last_heartbeat_ms: int = 0
    last_beat_ts_ms: int | None = None
    current_task: str | None = None

    @property
    def busy(self) -> bool:
        return self.current_task is not None

    @classmethod
    def from_register(cls, message: Register) -> WorkerProfile:
        """The profile a REGISTER declares."""
        return cls(
            worker_id=message.worker_id,
            cpu_mhz=message.cpu_mhz,
            has_gpu=message.has_gpu,
            gpu_cores=message.gpu_cores,
            gpu_mem_mb=message.gpu_mem_mb,
        )


def validate_profile(profile: WorkerProfile) -> str | None:
    """Return a rejection reason for a malformed profile, or None if valid."""
    if not profile.worker_id:
        return "worker_id must be non-empty"
    if profile.cpu_mhz <= 0:
        return "cpu_mhz must be positive"
    if not profile.has_gpu and (profile.gpu_cores is not None or profile.gpu_mem_mb is not None):
        return "gpu_cores/gpu_mem_mb are only valid when has_gpu is true"
    if profile.gpu_cores is not None and profile.gpu_cores <= 0:
        return "gpu_cores must be positive"
    if profile.gpu_mem_mb is not None and profile.gpu_mem_mb <= 0:
        return "gpu_mem_mb must be positive"
    return None
