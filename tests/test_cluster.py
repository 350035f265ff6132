import hashlib
import itertools
import logging
import os
import random
import selectors
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import taskgrid.cluster as cluster_mod
from oracle import brute_force_sobel
from support import assert_held_is_dispatched, queued_ids, random_image
from taskgrid import protocol
from taskgrid.client import make_task
from taskgrid.cluster import InProcCluster
from taskgrid.model import TaskState
from taskgrid.protocol import Dispatch, ErrorReply, Heartbeat, JobWait, Submit, SubmitAck
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
    assert "W1" in cluster.core.scheduler.workers


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
        assert "W1" in cluster.core.scheduler.workers
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
    assert "W1" in cluster.core.scheduler.workers


@pytest.mark.parametrize("exec_ms, type_name", [(1.5, "float"), (True, "bool")])
def test_a_non_integer_exec_ms_fails_the_task_and_frees_the_worker(exec_ms, type_name):
    # A float from time arithmetic would only fail when the RESULT is
    # encoded, after the slot is freed, leaving the task unreported.
    registry = built_in_registry(simulated_sleep=True)
    registry.register("odd_ms", lambda params, payload: (b"", exec_ms))
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400, registry=registry)
    cluster.submit([make_task("odd_ms", task_id="T1")], job_id="J1")
    [report] = cluster.run_until_terminal("J1").tasks
    assert (report.state, report.error) == ("FAILED", f"TypeError: field exec_ms must be an integer, not {type_name}")
    cluster.submit([make_task("noop", task_id="T2")], job_id="J2")
    [report] = cluster.run_until_terminal("J2").tasks
    assert (report.state, report.worker_id) == ("COMPLETED", "W1")


def test_a_result_the_encoder_refuses_fails_its_task_once_and_frees_the_worker(refused_result):
    # The simulated worker sends as the TCP one does: a RESULT its
    # encoder refuses must fail the task, not vanish from a freed slot.
    executor, error = refused_result
    registry = built_in_registry(simulated_sleep=True)
    registry.register("refused", executor)
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400, registry=registry)
    cluster.submit([make_task("refused", task_id="T1")], job_id="J1")
    [report] = cluster.run_until_terminal("J1", max_ms=60_000).tasks
    assert (report.state, report.error) == ("FAILED", error)
    assert [a.task_id for a in cluster.assignments] == ["T1"]
    cluster.submit([make_task("noop", task_id="T2")], job_id="J2")
    [report] = cluster.run_until_terminal("J2", max_ms=60_000).tasks
    assert (report.state, report.worker_id) == ("COMPLETED", "W1")


def test_an_over_cap_submit_is_refused_before_anything_is_sent(monkeypatch):
    # A 4 KiB cap stands in for 64 MiB; the master's framer keeps the
    # real cap, so only the client's own check can refuse the line.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    cluster = InProcCluster()
    with pytest.raises(protocol.LineTooLarge, match=r"^Submit of \d+ bytes exceeds line cap 4096$"):
        cluster.submit([make_task("noop", payload=bytes(8192), task_id="T1")], job_id="J1")
    assert cluster.submit([make_task("noop", task_id="T2")], job_id="J2").accepted_count == 1
    assert list(cluster.core.jobs) == ["J2"]


def test_a_worker_that_registers_again_mid_task_finishes_it_first():
    # A REGISTER from a busy worker would make the master re-queue its task
    # and dispatch it straight back, to be refused with BUSY.
    cluster = InProcCluster()
    worker = cluster.add_worker("W1", cpu_mhz=2400)
    cluster.submit(
        [make_task("sleep", params={"duration_ms": "0", "sim_exec_ms": "20000"}, task_id="T1")]
    )
    cluster.advance(1000)
    worker.start()
    [report] = cluster.run_until_terminal().tasks
    assert report.state == "COMPLETED"
    assert [a.task_id for a in cluster.assignments] == ["T1"]
    assert cluster.core.scheduler.tasks["T1"].attempt == 0


def test_an_undecodable_line_is_answered_with_an_error_and_the_link_keeps_working():
    cluster = InProcCluster()
    replies = []
    peer = cluster_mod._Link(cluster, replies.append)
    peer.put(b"this is not json\n")
    peer.put(protocol.encode(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),))))
    cluster.advance(0)
    error, ack = replies
    assert isinstance(error, ErrorReply) and error.code == "PROTOCOL_ERROR"
    assert isinstance(ack, SubmitAck) and ack.accepted_count == 1


class _ChokedLink(cluster_mod._Link):
    """A link whose every send either would block or takes 1-64 bytes, as
    ``rng`` decides; a connection waiting to write is flushed again at
    delay 0 for as long as it waits (level-triggered, like a selector)."""

    rng = random.Random(0)
    blocked = 0
    writing = False

    def send(self, data):
        if self.rng.random() < 0.5:
            type(self).blocked += 1
            raise BlockingIOError
        return super().send(data[: self.rng.randint(1, 64)])

    def modify(self, sock, events, data):
        self.writing = bool(events & selectors.EVENT_WRITE)
        if self.writing:
            self._cluster._schedule(0, self._writable)

    def _writable(self):
        self.conn.flush()
        if self.writing:
            self._cluster._schedule(0, self._writable)


def _mixed_run(seed):
    """Four workers, GPU and CPU tasks (sleeps and small Sobel images), one
    worker killed mid-run and a fifth added late."""
    rng = random.Random(seed)
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=500))
    for worker_id, cpu_mhz, has_gpu in (
        ("W1", 2400, True), ("W2", 2000, True), ("W3", 1800, False), ("W4", 1500, False)
    ):
        cluster.add_worker(worker_id, cpu_mhz=cpu_mhz, has_gpu=has_gpu)
    tasks = []
    for i in range(24):
        gpu = rng.random() < 0.5
        if i % 4 == 0:
            # A Sobel task reports its wall-clock exec_ms; fix its logical one.
            params = {"sim_exec_ms": str(rng.randrange(50, 900))}
            payload = write_pgm(random_image(rng, 12, 9))
            kind = "sobel_par" if gpu else "sobel_seq"
            tasks.append(
                make_task(kind, params=params, payload=payload, requires_gpu=gpu, task_id=f"T{i}")
            )
        else:
            params = {"duration_ms": str(rng.randrange(50, 900))}
            tasks.append(make_task("sleep", params=params, requires_gpu=gpu, task_id=f"T{i}"))
    cluster.submit(tasks)
    cluster.advance(rng.randrange(300, 2000))
    cluster.kill_worker(rng.choice(["W1", "W2", "W3", "W4"]))
    cluster.advance(rng.randrange(1000, 4000))
    cluster.add_worker("W5", cpu_mhz=3000, has_gpu=rng.random() < 0.5)
    reply = cluster.run_until_terminal(max_ms=600000)
    logs = [repr(log) for log in (cluster.dispatch_frames, cluster.transitions, cluster.assignments)]
    return cluster, reply, logs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_blocking_partial_sends_change_no_outcome_and_replay_exactly(seed, monkeypatch):
    _, plain, _ = _mixed_run(seed)
    monkeypatch.setattr(cluster_mod, "_Link", _ChokedLink)
    runs = []
    for _ in range(2):
        monkeypatch.setattr(_ChokedLink, "rng", random.Random(seed))
        monkeypatch.setattr(_ChokedLink, "blocked", 0)
        runs.append((*_mixed_run(seed), _ChokedLink.blocked))
    (cluster, choked, logs, blocked), (_, _, logs_again, blocked_again) = runs

    assert blocked > 0
    assert [(t.task_id, t.state, t.output_b64) for t in choked.tasks] == [
        (t.task_id, "COMPLETED", t.output_b64) for t in plain.tasks
    ]
    assert all(a.worker_has_gpu for a in cluster.assignments if a.requires_gpu)
    # Frames are recorded whole though they crossed in pieces.
    assert all(protocol.encode(protocol.decode(f)) == f for f in cluster.dispatch_frames)
    assert (logs, blocked) == (logs_again, blocked_again)


def _log_digests(seeds):
    return [hashlib.sha256("".join(_mixed_run(seed)[2]).encode()).hexdigest() for seed in seeds]


def test_seeded_logs_replay_across_processes_and_hash_seeds():
    # No set or dict order that follows str hashes may reach the logs.
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    code = "import test_cluster; print(*test_cluster._log_digests([1, 2]))"
    runs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        for hash_seed in ("0", "1")
    ]
    assert runs == [_log_digests([1, 2])] * 2


def test_wall_clock_exec_ms_does_not_steer_the_logical_schedule():
    # Like a Sobel executor's, the reported exec_ms differs on every call.
    jitter = itertools.count(1)

    def jittered(params, payload):
        return b"", 37 * next(jitter)

    def run():
        registry = built_in_registry(simulated_sleep=True)
        registry.register("jittered", jittered)
        cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=500))
        for worker_id, cpu_mhz in (("W1", 2400), ("W2", 2000)):
            cluster.add_worker(worker_id, cpu_mhz=cpu_mhz, registry=registry)
        rng = random.Random(7)
        cluster.submit(
            [
                make_task(
                    "jittered" if i % 2 else "sleep",
                    params={"duration_ms": str(rng.randrange(50, 900))},
                    task_id=f"T{i}",
                )
                for i in range(12)
            ]
        )
        cluster.run_until_terminal()
        return b"".join(cluster.dispatch_frames), repr(cluster.transitions).encode()

    assert run() == run()


def _sleeps(durations_ms, prefix="T", **params):
    return [
        make_task("sleep", params={"duration_ms": str(ms), **params}, task_id=f"{prefix}{i}")
        for i, ms in enumerate(durations_ms)
    ]


def test_a_wait_is_answered_when_the_result_that_ends_the_job_arrives():
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=1000))
    cluster.add_worker("W1", cpu_mhz=2400)
    cluster.submit(_sleeps([300, 450, 700]))
    reply = cluster.wait_job()
    assert (reply.queued, reply.dispatched, reply.completed, reply.failed) == (0, 0, 3, 0)
    # One worker runs the three in turn; the last RESULT lands between ticks.
    last = cluster.transitions[-1]
    assert (last.task_id, last.to_state, last.at_ms) == ("T2", TaskState.COMPLETED, 1450)
    assert cluster.now_ms == 1450
    # A job that is already terminal, or empty, is answered at once.
    assert cluster.wait_job().completed == 3
    cluster.submit([], job_id="empty")
    assert cluster.wait_job("empty") == cluster.core.job_progress_reply("empty")
    assert cluster.now_ms == 1450


def test_a_wait_times_out_with_the_counts_of_that_moment():
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=1000))
    cluster.add_worker("W1", cpu_mhz=2400)
    cluster.submit(_sleeps([0, 0], sim_exec_ms="5000"))
    cluster.advance(130)
    reply = cluster.wait_job(timeout_ms=250)
    assert cluster.now_ms == 380
    assert (reply.queued, reply.dispatched, reply.completed) == (1, 1, 0)
    assert cluster.core._waits == []


def test_an_evicted_task_requeued_does_not_end_the_wait():
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=500))
    cluster.add_worker("W1", cpu_mhz=2400)
    cluster.add_worker("W2", cpu_mhz=2000)
    cluster.submit(_sleeps([0], sim_exec_ms="20000"))  # to W1, the fastest
    cluster.submit(_sleeps([0], prefix="U", sim_exec_ms="3000"), job_id="other")  # to W2
    cluster.advance(100)
    cluster.kill_worker("W1")
    reply = cluster.wait_job()
    _, requeue, again, done = [t for t in cluster.transitions if t.task_id == "T0"]
    assert (requeue.from_state, requeue.to_state) == (TaskState.DISPATCHED, TaskState.QUEUED)
    assert requeue.at_ms < 3000  # while W2 still held U0
    assert (again.to_state, again.at_ms) == (TaskState.DISPATCHED, 3000)
    assert (done.to_state, done.at_ms) == (TaskState.COMPLETED, 23000)
    assert cluster.now_ms == 23000
    assert (reply.queued, reply.dispatched, reply.completed) == (0, 0, 1)


def test_an_unschedulable_failure_ends_the_wait():
    cluster = InProcCluster(
        SchedulerConfig(heartbeat_interval_ms=1000, unschedulable_timeout_ms=3000)
    )
    cluster.add_worker("Wcpu", cpu_mhz=2000)
    cluster.submit([make_task("noop", requires_gpu=True, task_id="T1")])
    reply = cluster.wait_job()
    assert (reply.queued, reply.failed) == (0, 1)
    [failed] = [t for t in cluster.transitions if t.to_state is TaskState.FAILED]
    assert cluster.now_ms == failed.at_ms == 4000  # the first tick past the timeout


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_job_counts_match_a_count_over_each_jobs_tasks(seed):
    # Differential check of the kept counts against a fresh count over the
    # tasks, at every step of a run with re-queues, failures, duplicates
    # and jobs that share a worker pool.
    rng = random.Random(seed)
    cluster = InProcCluster(
        SchedulerConfig(heartbeat_interval_ms=500, unschedulable_timeout_ms=2500)
    )
    for worker_id, cpu_mhz in (("W1", 2400), ("W2", 2000), ("W3", 1800)):
        cluster.add_worker(worker_id, cpu_mhz=cpu_mhz)
    core = cluster.core

    def check():
        for job_id, task_ids in core.jobs.items():
            by_tasks = Counter(core.scheduler.tasks[t].state for t in task_ids)
            assert core.job_counts[job_id] == {s: by_tasks[s] for s in TaskState}
        assert_held_is_dispatched(core.scheduler)

    for j in range(4):
        tasks = [
            make_task(
                rng.choice(["sleep", "sleep", "noop", "missing-kind"]),
                params={"duration_ms": str(rng.randrange(50, 2000))},
                requires_gpu=rng.random() < 0.25,
                task_id=f"J{j}T{i}",
            )
            for i in range(0 if j == 1 else rng.randrange(4, 10))
        ]
        cluster.submit(tasks + tasks[:1], job_id=f"J{j}")  # one duplicate, if any
        check()
        cluster.advance(rng.randrange(0, 300))
        check()
    busy = sorted(w for w, profile in core.scheduler.workers.items() if profile.held)
    cluster.kill_worker(rng.choice(busy))
    for step in range(120):
        if step == 40:
            cluster.add_worker("W4", cpu_mhz=3000, has_gpu=True)
        cluster.advance(100)
        check()
    assert all(core.job_is_terminal(job_id) for job_id in core.jobs)
    moves = {(t.from_state, t.to_state) for t in cluster.transitions}
    assert (TaskState.DISPATCHED, TaskState.QUEUED) in moves  # the killed worker's task
    assert (TaskState.DISPATCHED, TaskState.FAILED) in moves  # an unknown kind


def test_a_peer_that_hangs_up_leaves_no_wait_and_no_idle_worker(caplog):
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400)
    idle = cluster.add_worker("W2", cpu_mhz=2000)
    cluster.submit(_sleeps([0], sim_exec_ms="5000"))  # W1 holds it
    replies = []
    client = cluster_mod._Link(cluster, replies.append)
    client.put(protocol.encode(JobWait(job_id="job")))
    cluster.advance(0)
    assert len(cluster.core._waits) == 1
    client.hang_up()
    idle.link.hang_up()
    cluster.advance(0)
    assert cluster.core._waits == []
    assert list(cluster.core.scheduler.workers) == ["W1"]
    cluster.advance(6000)
    assert replies == []
    assert [t.state for t in cluster.job_status().tasks] == ["COMPLETED"]
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_a_worker_whose_connection_closed_gets_no_new_task():
    # Left in its ring, W1 would take T3 into its free slot and closed
    # connection, and T3 would wait there for W1's eviction, while W2
    # stood idle from 1,000 ms.
    cluster = InProcCluster()
    w1 = cluster.add_worker("W1", cpu_mhz=2400, slots=2)
    cluster.add_worker("W2", cpu_mhz=2000)
    cluster.submit(
        [
            make_task("sleep", params={"duration_ms": "20000"}, task_id="T1"),
            make_task("sleep", params={"duration_ms": "1000"}, task_id="T2"),
        ],
        job_id="J1",
    )
    to_w1 = []
    deliver = w1.link._deliver
    w1.link._deliver = lambda message: (to_w1.append(message), deliver(message))
    w1.link.hang_up()
    cluster.advance(0)
    assert cluster.core.scheduler.workers["W1"].held == ["T1"]  # kept for its RESULT
    cluster.submit([make_task("noop", task_id="T3")], job_id="J2")
    [report] = cluster.run_until_terminal("J2").tasks
    assert (report.state, report.worker_id, report.dispatched_ms) == ("COMPLETED", "W2", 1000)
    assert cluster.core.scheduler.tasks["T3"].attempt == 0
    assert not [message for message in to_w1 if isinstance(message, Dispatch)]


# -- workers that hold more than one task ------------------------------------------


def test_a_two_slot_worker_runs_the_tasks_it_holds_one_after_another():
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=1000))
    cluster.add_worker("W1", cpu_mhz=2400, slots=2)
    cluster.submit(_sleeps([300, 450, 700]))
    cluster.wait_job()
    at = {(t.task_id, t.to_state): t.at_ms for t in cluster.transitions}
    # T1 is sent while T0 runs, and T2 once T0's RESULT frees a slot.
    assert [at[f"T{i}", TaskState.DISPATCHED] for i in range(3)] == [0, 0, 300]
    assert [at[f"T{i}", TaskState.COMPLETED] for i in range(3)] == [300, 750, 1450]


@pytest.mark.parametrize("departure", ["killed", "replaced"])
def test_a_two_slot_worker_that_departs_holding_two_tasks_requeues_each_once(departure):
    cluster = InProcCluster(SchedulerConfig(heartbeat_interval_ms=500))
    cluster.add_worker("W1", cpu_mhz=2400, slots=2)
    cluster.add_worker("W2", cpu_mhz=2000)
    cluster.submit(_sleeps([0, 0, 0, 0], sim_exec_ms="5000"))
    placed = [("T0", "W1"), ("T1", "W2"), ("T2", "W1")]  # T3 waits
    assert [(a.task_id, a.worker_id) for a in cluster.assignments] == placed
    cluster.advance(100)
    if departure == "killed":
        cluster.kill_worker("W1")
        cluster.advance(2000)  # past the 1,500 ms liveness window; W2 still holds T1
        assert list(cluster.core.scheduler.workers) == ["W2"]
        assert queued_ids(cluster.core.scheduler.queue) == ["T0", "T2", "T3"]
    else:
        cluster.add_worker("W1", cpu_mhz=2400, slots=2)  # a new incarnation's REGISTER
    reply = cluster.wait_job()
    assert (reply.completed, reply.failed) == (4, 0)
    requeues = [t.task_id for t in cluster.transitions if (t.from_state, t.to_state) == (TaskState.DISPATCHED, TaskState.QUEUED)]
    assert requeues == ["T0", "T2"]
    tasks = cluster.core.scheduler.tasks
    assert [tasks[f"T{i}"].attempt for i in range(4)] == [1, 0, 1, 0]
    # Each went back at its FCFS slot, ahead of T3.
    assert [a.task_id for a in cluster.assignments[len(placed):]] == ["T0", "T2", "T3"]


@pytest.mark.parametrize("slots", [None, 2])
def test_a_dispatch_over_the_line_cap_fails_its_task_and_frees_its_slot(monkeypatch, slots):
    # A 4 KiB cap stands in for 64 MiB. The SUBMIT holds the task id in
    # raw UTF-8, two bytes a character, under the cap; the DISPATCH
    # escapes each character as \u00e9, six bytes, over it.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    task_id = "é" * 1000
    cluster = InProcCluster()
    cluster.add_worker("W1", cpu_mhz=2400, slots=slots)
    line = '{"type":"SUBMIT","job_id":"J1","tasks":[{"kind":"noop","params":{},"payload_b64":"","requires_gpu":false,"task_id":"%s"}]}\n'
    line = (line % task_id).encode("utf-8")
    assert len(line) < 4096
    cluster._client.put(line)
    cluster.advance(0)
    assert cluster._client_replies.pop(0) == SubmitAck(job_id="J1", accepted_count=1)
    assert cluster.wait_job("J1", max_ms=60_000).failed == 1
    task = cluster.core.scheduler.tasks[task_id]  # its status reply is over the cap too
    dispatch_bytes = len(protocol.encode(Dispatch(task_id=task_id, kind="noop", requires_gpu=False))) - 1
    assert dispatch_bytes > 4096
    assert (task.state, task.error) == (TaskState.FAILED, f"DISPATCH_TOO_LARGE: {dispatch_bytes} bytes exceeds line cap 4096")
    assert (task.attempt, cluster.now_ms) == (0, 0)
    assert cluster.core.scheduler.workers["W1"].held == []
    assert cluster.dispatch_frames == []
    cluster.submit([make_task("noop", task_id="T2")], job_id="J2")
    [report] = cluster.run_until_terminal("J2", max_ms=60_000).tasks
    assert (report.state, report.worker_id) == ("COMPLETED", "W1")
