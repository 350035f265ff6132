import random
import sys

from conftest import random_image
from oracle import brute_force_sobel
from taskgrid import protocol
from taskgrid.client import make_task
from taskgrid.cluster import InProcCluster
from taskgrid.model import TaskState
from taskgrid.protocol import Dispatch, Heartbeat
from taskgrid.scheduler import SchedulerConfig
from taskgrid.sobel import parse_pgm, write_pgm
from taskgrid.workloads import built_in_registry


def test_basic_submit_and_complete():
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400, has_gpu=True)
    ack = cluster.submit([make_task("noop", requires_gpu=True, task_id="T1")])
    assert ack.accepted_count == 1
    reply = cluster.run_until_terminal()
    assert reply.tasks[0].state == "COMPLETED"
    assert reply.tasks[0].worker_id == "W1"


def test_sleep_consumes_only_logical_time():
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400)
    cluster.submit(
        [make_task("sleep", params={"duration_ms": "60000"}, task_id="T1")]
    )
    import time

    t0 = time.monotonic()
    reply = cluster.run_until_terminal(max_ms=120000)
    assert time.monotonic() - t0 < 5.0
    [report] = reply.tasks
    assert report.state == "COMPLETED"
    assert report.exec_ms == 60000
    assert report.completed_ms - report.dispatched_ms == 60000


def test_workers_stay_alive_through_long_advances():
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400)
    cluster.advance(60000)
    assert "W1" in cluster.core.scheduler.catalog.workers


def test_dispatch_frames_decode_and_are_canonical():
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400, has_gpu=True)
    cluster.submit([make_task("noop", requires_gpu=True, task_id="T1")])
    cluster.run_until_terminal()
    [frame] = cluster.dispatch_frames
    message = protocol.decode(frame)
    assert isinstance(message, Dispatch)
    assert message.task_id == "T1"
    assert protocol.encode(message) == frame


def _scripted_run():
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=1000))
    cluster.add_worker("W1", cpu_mhz=2400, has_gpu=True)
    cluster.add_worker("W2", cpu_mhz=2000, has_gpu=True)
    cluster.add_worker("W3", cpu_mhz=1500)
    tasks = []
    for i in range(12):
        gpu = i % 3 != 2
        tasks.append(
            make_task(
                "sleep",
                params={"duration_ms": str(500 + 100 * (i % 4))},
                requires_gpu=gpu,
                task_id=f"T{i}",
            )
        )
    cluster.submit(tasks)
    cluster.advance(2500)
    cluster.kill_worker("W2")
    cluster.run_until_terminal(max_ms=60000)
    return cluster.dispatch_frames


def test_identical_scripts_identical_dispatch_logs():
    assert _scripted_run() == _scripted_run()


def test_fault_drill_requeue_and_oracle_output():
    rng = random.Random(99)
    img = random_image(rng, 48, 32)
    payload = write_pgm(img)

    cluster = InProcCluster()
    cluster.advance(500)  # offset worker heartbeats from master ticks
    cluster.add_worker("W1", cpu_mhz=2400, has_gpu=True)
    cluster.add_worker("W2", cpu_mhz=2000, has_gpu=True)
    cluster.submit(
        [
            make_task(
                "sobel_par",
                payload=payload,
                requires_gpu=True,
                params={"sim_exec_ms": "20000"},
                task_id="T1",
            )
        ]
    )
    # T1 is in flight on W1 (fastest worker first)
    assert cluster.assignments[0].worker_id == "W1"
    cluster.advance(1600)  # 2100 logical: safely inside W1's 20 s execution
    kill_at = cluster.now_ms
    cluster.kill_worker("W1")
    reply = cluster.run_until_terminal(max_ms=120000)

    requeues = [
        t
        for t in cluster.transitions
        if t.from_state is TaskState.DISPATCHED and t.to_state is TaskState.QUEUED
    ]
    assert len(requeues) == 1
    window = cluster.config.heartbeat_interval_ms * cluster.config.liveness_misses
    assert requeues[0].at_ms - kill_at <= window

    [report] = reply.tasks
    assert report.state == "COMPLETED"
    assert report.worker_id == "W2"
    out = parse_pgm(protocol.from_b64(report.output_b64))
    assert out.pixels == brute_force_sobel(img)

    task = cluster.core.scheduler.tasks["T1"]
    assert task.attempt == 1


def test_capability_safety_on_mixed_cluster():
    cluster = InProcCluster()
    cluster.add_worker("Wcpu", cpu_mhz=9000, has_gpu=False)
    cluster.add_worker("Wgpu", cpu_mhz=1000, has_gpu=True)
    tasks = [
        make_task("noop", requires_gpu=(i % 2 == 0), task_id=f"T{i}") for i in range(10)
    ]
    cluster.submit(tasks)
    cluster.run_until_terminal()
    for assignment in cluster.assignments:
        if assignment.requires_gpu:
            assert assignment.worker_has_gpu


def test_unschedulable_gpu_task_fails_in_logical_time():
    cluster = InProcCluster()
    cluster.add_worker("Wcpu", cpu_mhz=2000, has_gpu=False)
    cluster.submit([make_task("noop", requires_gpu=True, task_id="T1")])
    reply = cluster.run_until_terminal(max_ms=120000)
    [report] = reply.tasks
    assert report.state == "FAILED"
    assert "UNSCHEDULABLE" in report.error


def test_shortened_reregistration_interval_takes_effect_at_once():
    # The master restarts with a shorter interval (2000 -> 500 ms, so a
    # 1500 ms liveness window) and the worker re-registers: its next beat
    # must follow the new interval, not the one pending from the old ack.
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=2000))
    worker = cluster.add_worker("W1", cpu_mhz=2400)
    cluster.advance(100)
    cluster.config.heartbeat_interval_ms = 500
    worker.start()
    cluster.submit(
        [make_task("sleep", params={"duration_ms": "0", "sim_exec_ms": "5000"}, task_id="T1")]
    )
    assert [a.worker_id for a in cluster.assignments] == ["W1"]
    for _ in range(60):
        cluster.advance(100)
        assert "W1" in cluster.core.scheduler.catalog.workers
    assert not any(
        t.from_state is TaskState.DISPATCHED and t.to_state is TaskState.QUEUED
        for t in cluster.transitions
    )
    [report] = cluster.job_status().tasks
    assert report.state == "COMPLETED"
    assert cluster.core.scheduler.tasks["T1"].attempt == 0


def test_one_beat_per_interval_of_the_latest_ack():
    # Re-acks at 2000 -> 500 -> 800 ms: the beats follow each new interval
    # from its ack, and the wakes armed by older acks (due at 2000 and
    # 1600) find no beat due and send nothing.
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=2000))
    beats = []
    deliver = cluster.core.deliver

    def spy(message, sender):
        if isinstance(message, Heartbeat):
            beats.append(cluster.now_ms)
        deliver(message, sender)

    cluster.core.deliver = spy
    worker = cluster.add_worker("W1", cpu_mhz=2400)
    for at_ms, interval_ms in ((100, 500), (1300, 800)):
        cluster.advance(at_ms - cluster.now_ms)
        cluster.config.heartbeat_interval_ms = interval_ms
        worker.start()
    cluster.advance(5000 - cluster.now_ms)
    assert beats == [600, 1100, 2100, 2900, 3700, 4500]


def test_executor_exit_fails_the_task():
    registry = built_in_registry(simulated_sleep=True)
    registry.register("exit", lambda params, payload: sys.exit(3))
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400, registry=registry)
    cluster.submit([make_task("exit", task_id="T1")])
    [report] = cluster.run_until_terminal().tasks
    assert (report.state, report.error) == ("FAILED", "SystemExit: 3")
    assert "W1" in cluster.core.scheduler.catalog.workers
