"""Plain helpers the test modules import. They are not in ``conftest.py``,
whose module name ``conftest`` may be bound to ``perfbench/tests``'
conftest, as both directories are collected."""

import random
import sys

import pytest

from taskgrid.model import TaskState
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
