import functools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from taskgrid import protocol
from taskgrid.model import TaskState
from taskgrid.protocol import Result
from taskgrid.sobel import GrayImage


def random_image(rng: random.Random, width: int, height: int) -> GrayImage:
    return GrayImage(width, height, bytes(rng.randrange(256) for _ in range(width * height)))


def queued_ids(queue) -> list[str]:
    """The ids of the tasks a ``ClassQueues`` holds, both classes merged
    in ``seq`` (enqueue) order; a plain list of ids is returned as is."""
    if isinstance(queue, list):
        return queue
    return [task.task_id for task in sorted([*queue.gpu, *queue.cpu], key=lambda task: task.seq)]


def assert_held_is_dispatched(scheduler) -> None:
    """A task is DISPATCHED iff it is in the ``held`` of the worker it
    is assigned to, and no worker holds more than its slots."""
    dispatched = {}
    for task in scheduler.tasks.values():
        if task.state is TaskState.DISPATCHED:
            dispatched.setdefault(task.assigned_worker, []).append(task.task_id)
    for worker_id, profile in scheduler.workers.items():
        assert len(profile.held) <= profile.slots, worker_id
        assert sorted(profile.held) == sorted(dispatched.pop(worker_id, [])), worker_id
    assert dispatched == {}  # none is assigned to a worker the scheduler dropped


def int_digit_limit() -> int:
    """The most digits ``int`` converts to or from text; 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def json_refused_value(kind: str) -> bytes:
    """A JSON value ``json.loads`` refuses with other than a
    JSONDecodeError: an array nested past the recursion limit
    (RecursionError), or an integer one digit past the int-digit limit
    (ValueError), skipped where there is no such limit."""
    if kind == "nested":
        return b"[" * 100_000 + b"]" * 100_000
    if not (limit := int_digit_limit()):
        pytest.skip("no int-digit limit")
    return b"9" * (limit + 1)


@pytest.fixture(params=["nested", "digits"])
def json_refused_line(request) -> bytes:
    """A HEARTBEAT line, LF excluded, whose ``ts_ms`` is a
    :func:`json_refused_value`."""
    value = json_refused_value(request.param)
    return b'{"type":"HEARTBEAT","worker_id":"W1","ts_ms":%s,"busy":false}' % value


@pytest.fixture(params=["over_cap", "digits"])
def refused_result(request, monkeypatch):
    """A 4 KiB line cap, standing in for 64 MiB at every sender and
    framer, and an executor whose RESULT for task T1 on worker W1 the
    encoder refuses: its line passes the cap by an ``exec_ms`` of 251
    digits, or its ``exec_ms`` has more digits than ``int.__repr__`` may
    print. Gives the executor and the error its task must fail with."""
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    monkeypatch.setattr(protocol, "LineFramer", functools.partial(protocol.LineFramer, 4096))
    if request.param == "over_cap":
        output, exec_ms = bytes(2844), 10**250
        ok = Result(task_id="T1", worker_id="W1", status="OK", exec_ms=exec_ms, output_b64=protocol.to_b64(output))
        error = f"OUTPUT_TOO_LARGE: {len(protocol.encode(ok)) - 1} bytes exceeds line cap 4096"
    else:
        if not (limit := int_digit_limit()):
            pytest.skip("no int-digit limit")
        output, exec_ms = b"", 10**limit
        with pytest.raises(ValueError) as refusal:
            int.__repr__(exec_ms)
        error = f"ValueError: {refusal.value}"
    return (lambda params, payload: (output, exec_ms)), error
