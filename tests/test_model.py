import itertools

import pytest

from taskgrid.model import (
    MissingTimingError,
    TaskDescriptor,
    TaskState,
    overhead_ms,
    validate_profile,
    validate_transition,
)
from taskgrid.protocol import Register

LEGAL = {
    (TaskState.QUEUED, TaskState.DISPATCHED),
    (TaskState.DISPATCHED, TaskState.COMPLETED),
    (TaskState.DISPATCHED, TaskState.FAILED),
    (TaskState.DISPATCHED, TaskState.QUEUED),
    (TaskState.QUEUED, TaskState.FAILED),
}


def test_listed_transitions():
    assert validate_transition(TaskState.QUEUED, TaskState.DISPATCHED)
    assert not validate_transition(TaskState.COMPLETED, TaskState.QUEUED)
    assert validate_transition(TaskState.DISPATCHED, TaskState.QUEUED)


def test_transition_table_is_exact():
    for pair in itertools.product(TaskState, repeat=2):
        assert validate_transition(*pair) == (pair in LEGAL)


def test_terminal_states_have_no_exits():
    for terminal in (TaskState.COMPLETED, TaskState.FAILED):
        for to_state in TaskState:
            assert not validate_transition(terminal, to_state)


def _record(**timestamps):
    return TaskDescriptor(task_id="T1", job_id="J1", requires_gpu=False, **timestamps)


def test_overhead_constant_case():
    # turnaround 2887 ms with 887 ms of execution leaves 2000 ms overhead
    timing = _record(submitted_ms=0, dispatched_ms=1900, completed_ms=2887, exec_ms=887)
    assert overhead_ms(timing) == 2000


def test_overhead_zero_case():
    timing = _record(submitted_ms=0, dispatched_ms=0, completed_ms=5, exec_ms=5)
    assert overhead_ms(timing) == 0


def test_overhead_arithmetic():
    timing = _record(submitted_ms=10, dispatched_ms=20, completed_ms=130, exec_ms=60)
    assert overhead_ms(timing) == (130 - 10) - 60 == 60


@pytest.mark.parametrize("missing", ["submitted_ms", "completed_ms", "exec_ms"])
def test_overhead_missing_fields(missing):
    timing = _record(submitted_ms=0, dispatched_ms=1, completed_ms=2, exec_ms=1)
    setattr(timing, missing, None)
    with pytest.raises(MissingTimingError, match=missing):
        overhead_ms(timing)


def test_profile_validation():
    assert validate_profile(Register("W1", 2400, has_gpu=True, gpu_cores=384)) is None
    assert validate_profile(Register("W1", 0, has_gpu=False)) is not None
    assert validate_profile(Register("W1", 2400, has_gpu=False, gpu_cores=4)) is not None
    assert validate_profile(Register("", 2400, has_gpu=False)) is not None
    assert validate_profile(Register("W1", 2400, has_gpu=True, gpu_mem_mb=-1)) is not None
