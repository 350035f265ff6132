import time
from dataclasses import replace

import pytest

from inputs import WORKLOADS
from replay import REPORTED_TYPES, Replay, layer_metrics
from stats import NullTracer, Tracer

# Small versions of the real workloads; images stay below the size at
# which sobel_parallel spawns a process pool.
SMALL = {
    "noop_burst": replace(WORKLOADS["noop_burst"],
                          bag=WORKLOADS["noop_burst"].bag[:300], replay_poll_every=25),
    "sobel_bag": replace(WORKLOADS["sobel_bag"],
                         bag=tuple(("sobel_par", side // 16, gpu)
                                   for _, side, gpu in WORKLOADS["sobel_bag"].bag)),
    "sobel_closed": replace(WORKLOADS["sobel_closed"], bag=(("sobel_par", 96, True),)),
}


def _counts(workload, seed):
    replay = Replay(workload, seed, Tracer())
    replay.run()
    metrics = layer_metrics(replay)
    keys = ["scheduler.rounds", "scheduler.scanned"] + [
        f"protocol.wire_bytes.{name}" for name in REPORTED_TYPES]
    return {key: metrics[key][0] for key in keys}, replay.counts


@pytest.mark.parametrize("name", sorted(SMALL))
def test_replay_counts_repeat_for_a_seed(name):
    first, counts = _counts(SMALL[name], 3)
    again, _ = _counts(SMALL[name], 3)
    assert first == again
    assert counts.tasks == len(SMALL[name].bag) * SMALL[name].replay_bags
    assert all(value > 0 for value in first.values())


def test_untimed_replay_records_nothing_and_completes():
    replay = Replay(SMALL["sobel_closed"], 3, NullTracer())
    assert replay.run() > 0
    assert replay.counts.tasks == SMALL["sobel_closed"].replay_bags


def test_noop_replay_scans_the_whole_queue_every_round():
    _, counts = _counts(SMALL["noop_burst"], 1)
    # Each round visits every queued entry; assignments are one per result.
    assert counts.assigned == 300
    assert counts.scanned > counts.assigned * 100


def test_queue_wait_leaves_out_worker_time():
    # Twenty noop tasks on two workers: without the subtraction, the last
    # task assigned would wait for about nine 20 ms executions.
    workload = replace(WORKLOADS["noop_burst"], bag=WORKLOADS["noop_burst"].bag[:20])
    replay = Replay(workload, 1, NullTracer())
    slow = replay.registry.get("noop")

    def slow_noop(params, payload):
        time.sleep(0.02)
        return slow(params, payload)

    replay.registry.register("noop", slow_noop)
    replay.run()
    assert len(replay.counts.queue_wait_ns) == 20
    assert replay.worker_ns >= 20 * 20_000_000
    assert max(replay.counts.queue_wait_ns) < 10_000_000
