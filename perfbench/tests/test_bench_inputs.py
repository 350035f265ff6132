import numpy as np
import pytest

from inputs import WORKLOADS, IncorrectOutput, half_up_root, make_bag, noise_pgm, reference_sobel, verify
from taskgrid import protocol
from taskgrid.protocol import JobStatusReply, TaskReport
from taskgrid.sobel import parse_pgm, sobel_sequential, write_pgm


@pytest.mark.parametrize("width,height", [(1, 1), (1, 7), (9, 1), (2, 2), (17, 13), (64, 64)])
def test_reference_matches_sequential_executor(width, height):
    rng = np.random.default_rng([width, height])
    pixels = rng.integers(0, 256, size=width * height, dtype=np.uint8).tobytes()
    pgm = b"P5\n%d %d\n255\n" % (width, height) + pixels
    assert reference_sobel(pgm) == write_pgm(sobel_sequential(parse_pgm(pgm)))


def test_half_up_root_is_exact_for_every_reachable_sum():
    s = np.arange(2 * 1020**2 + 1, dtype=np.int64)
    r = half_up_root(s).astype(np.int64)
    # r - 1/2 <= sqrt(s) < r + 1/2, squared and times four to stay in
    # integers; the lower bound says nothing when r is 0.
    assert np.all(((2 * r - 1) ** 2 <= 4 * s) | (r == 0))
    assert np.all(4 * s < (2 * r + 1) ** 2)


def test_reference_rounds_half_up_and_clamps():
    # A vertical step from 0 to 255 gives |gx| = 4 * 255 = 1020, clamped.
    step = np.zeros((3, 4), dtype=np.uint8)
    step[:, 2:] = 255
    out = reference_sobel(b"P5\n4 3\n255\n" + step.tobytes())
    assert out.endswith(bytes([0, 255, 255, 0] * 3))


def test_bags_repeat_for_a_seed_and_differ_across_seeds():
    workload = WORKLOADS["sobel_closed"]
    assert make_bag(workload, 5, 0) == make_bag(workload, 5, 0)
    assert make_bag(workload, 5, 0)[1] != make_bag(workload, 6, 0)[1]
    assert make_bag(workload, 5, 0)[1] != make_bag(workload, 5, 1)[1]


def test_sobel_bag_balances_sizes_across_rings():
    bag = WORKLOADS["sobel_bag"].bag
    for gpu in (True, False):
        assert sorted(side for _, side, g in bag if g == gpu) == [512, 512, 1024, 1024, 2048, 2048]


def _reply(task, output: bytes | None, state="COMPLETED"):
    report = TaskReport(task_id=task.task_id, state=state,
                        output_b64=None if output is None else protocol.to_b64(output))
    return JobStatusReply(job_id="j", tasks=(report,))


def test_verify_gates_outputs_byte_for_byte():
    pgm = noise_pgm(np.random.default_rng(0), 8)
    task = protocol.SubmitTask(task_id="t", kind="sobel_par", requires_gpu=True,
                               payload_b64=protocol.to_b64(pgm))
    verify([task], _reply(task, reference_sobel(pgm)))
    wrong = bytearray(reference_sobel(pgm))
    wrong[-1] ^= 1
    with pytest.raises(IncorrectOutput):
        verify([task], _reply(task, bytes(wrong)))
    # FAILED tasks are counted elsewhere, never gated.
    verify([task], _reply(task, None, state="FAILED"))


def test_verify_requires_empty_noop_output():
    task = protocol.SubmitTask(task_id="n", kind="noop", requires_gpu=False)
    verify([task], _reply(task, b""))
    with pytest.raises(IncorrectOutput):
        verify([task], _reply(task, b"x"))
