"""Workload definitions, seeded inputs and the benchmark's own Sobel reference.

Every input is derived from the workload seed and the bag index, so the
same seed gives byte-identical SUBMIT messages. The cluster receives
only the generated PGM bytes; the reference outputs used by the
correctness gate are computed here with numpy from the README rules and
never by ``taskgrid.sobel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from taskgrid import protocol
from taskgrid.protocol import JobStatusReply, SubmitTask

SIZES = (512, 1024, 2048)
LANE_COUNT = 2


class IncorrectOutput(RuntimeError):
    """A COMPLETED task's output differs from the reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    # (kind, image side or 0 for no payload, requires_gpu) for each task of a bag
    bag: tuple[tuple[str, int, bool], ...]
    poll_s: float
    # A run submits round(seconds / bag_s) bags, so both sides of a
    # comparison do identical work. Near the seed's seconds per bag, so
    # that a run measures about ``seconds``.
    bag_s: float
    # Replay: bags replayed and one JOB_STATUS poll per this many RESULTs.
    replay_bags: int
    replay_poll_every: int

    def bags_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.bag_s))


def _sobel_bag() -> tuple[tuple[str, int, bool], ...]:
    # Sizes interleave so that each ring gets two images of every size.
    sides = [side for _ in range(4) for side in SIZES]
    return tuple(("sobel_par", side, i % 2 == 0) for i, side in enumerate(sides))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("noop_burst", tuple(("noop", 0, i % 2 == 0) for i in range(2000)),
                 poll_s=0.1, bag_s=2.7, replay_bags=1, replay_poll_every=100),
        Workload("sobel_bag", _sobel_bag(),
                 poll_s=0.1, bag_s=6.7, replay_bags=1, replay_poll_every=1),
        Workload("sobel_closed", (("sobel_par", 1024, True),),
                 poll_s=0.01, bag_s=0.6, replay_bags=4, replay_poll_every=1),
    )
}


def noise_pgm(rng: np.random.Generator, side: int) -> bytes:
    pixels = rng.integers(0, 256, size=side * side, dtype=np.uint8)
    return b"P5\n%d %d\n255\n" % (side, side) + pixels.tobytes()


def make_bag(workload: Workload, seed: int, bag: int) -> tuple[str, list[SubmitTask]]:
    """Job id and tasks of one bag; identical for identical arguments."""
    rng = np.random.default_rng([seed, bag])
    job_id = f"{workload.name}-s{seed}-b{bag}"
    tasks = []
    for i, (kind, side, gpu) in enumerate(workload.bag):
        payload = noise_pgm(rng, side) if side else b""
        params = {"lane_count": str(LANE_COUNT)} if kind == "sobel_par" else {}
        tasks.append(SubmitTask(task_id=f"{job_id}-t{i}", kind=kind, requires_gpu=gpu,
                                params=params, payload_b64=protocol.to_b64(payload)))
    return job_id, tasks


def reference_sobel(pgm: bytes) -> bytes:
    """Sobel magnitude per the README: edge replication, half-up rounding,
    clamp to [0, 255]. Exact integer arithmetic throughout."""
    header_end = _pgm_header_end(pgm)
    width, height = (int(v) for v in pgm[3:header_end].split()[:2])
    img = np.frombuffer(pgm, dtype=np.uint8, offset=header_end).reshape(height, width)
    p = np.pad(img.astype(np.int32), 1, mode="edge")
    c = lambda dy, dx: p[1 + dy : 1 + dy + height, 1 + dx : 1 + dx + width]  # noqa: E731
    gx = (c(1, -1) + 2 * c(1, 0) + c(1, 1)) - (c(-1, -1) + 2 * c(-1, 0) + c(-1, 1))
    gy = (c(-1, -1) + 2 * c(0, -1) + c(1, -1)) - (c(-1, 1) + 2 * c(0, 1) + c(1, 1))
    out = np.minimum(half_up_root(gx * gx + gy * gy), 255).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (width, height) + out.tobytes()


def half_up_root(s: np.ndarray) -> np.ndarray:
    """sqrt(s) rounded half up, for integers 0 <= s <= 2 * 1020**2 (the
    largest squared Sobel magnitude). No integer s has a root exactly
    halfway between two integers, and a float64 root lies far closer to
    the true root than any s does to a halfway point, so adding 1/2 and
    flooring is exact; the tests check every s in range."""
    return np.floor(np.sqrt(s) + 0.5).astype(np.int32)


def _pgm_header_end(pgm: bytes) -> int:
    # The generator writes "P5\n<w> <h>\n255\n" with no comments.
    return pgm.index(b"\n255\n") + 5


def verify(tasks: list[SubmitTask], reply: JobStatusReply) -> None:
    """Gate every COMPLETED output byte for byte; FAILED tasks pass through."""
    by_id = {t.task_id: t for t in tasks}
    if sorted(by_id) != sorted(r.task_id for r in reply.tasks):
        raise IncorrectOutput(f"job {reply.job_id}: reported tasks differ from submitted")
    for report in reply.tasks:
        if report.state != "COMPLETED":
            continue
        task = by_id[report.task_id]
        output = protocol.from_b64(report.output_b64 or "")
        if task.kind == "noop":
            expected = b""
        else:
            expected = reference_sobel(protocol.from_b64(task.payload_b64))
        if output != expected:
            raise IncorrectOutput(f"task {report.task_id} ({task.kind}) output differs from reference")
