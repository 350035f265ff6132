"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 8 and 9 start real clusters (subprocess workers / TCP loopback)
and take a few minutes combined; everything else is fast.
"""

import random
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

from conftest import random_image
from oracle import brute_force_sobel
from taskgrid import protocol
from taskgrid.bench import run_bench
from taskgrid.client import MasterClient, make_task
from taskgrid.cluster import InProcCluster
from taskgrid.master import MasterServer
from taskgrid.model import TaskState
from taskgrid.protocol import (
    Dispatch,
    ErrorReply,
    Heartbeat,
    HeartbeatAck,
    JobStatus,
    JobStatusReply,
    Register,
    RegisterAck,
    Result,
    Submit,
    SubmitAck,
    SubmitTask,
    TaskReport,
)
from taskgrid.scheduler import SchedulerConfig
from taskgrid.sobel import GrayImage, parse_pgm, sobel_parallel, sobel_pixel, sobel_sequential, write_pgm
from taskgrid.worker import WorkerAgent
from taskgrid.workloads import built_in_registry

LANE_COUNTS = (1, 2, 3, 4, 8, 16)


def test_criterion_1_parallel_sequential_equivalence():
    rng = random.Random(101)
    checked = 0
    for _ in range(50):
        w = rng.randrange(1, 257)
        h = rng.randrange(1, 257)
        img = random_image(rng, w, h)
        reference = sobel_sequential(img).pixels
        for lanes in LANE_COUNTS:
            assert sobel_parallel(img, lanes).pixels == reference, (w, h, lanes)
            checked += 1
    print(f"\nPASS criterion 1: parallel == sequential, byte-exact "
          f"({checked} image/lane combinations)")


def test_criterion_2_pipeline_matches_brute_force_oracle():
    rng = random.Random(202)
    registry = built_in_registry(lane_count=3)
    for _ in range(20):
        img = random_image(rng, 8, 8)
        expected = brute_force_sobel(img)
        for kind in ("sobel_seq", "sobel_par"):
            output, _ = registry.execute(kind, {}, write_pgm(img))
            assert parse_pgm(output).pixels == expected, kind
    print("\nPASS criterion 2: pipeline output matches brute-force evaluator on 20 random 8x8 images")


def test_criterion_3_analytic_cases():
    for value in (0, 128, 255):
        img = GrayImage(9, 7, bytes([value]) * 63)
        assert sobel_sequential(img).pixels == bytes(63)
        assert sobel_parallel(img, 4).pixels == bytes(63)
    assert sobel_pixel([[0, 0, 255], [0, 0, 255], [0, 0, 255]]) == 255
    assert sobel_pixel([[0, 0, 0], [0, 0, 0], [255, 255, 255]]) == 255
    print("\nPASS criterion 3: uniform images -> zero output; step edges clamp to 255")


def test_criterion_4_capability_safety_random_traces():
    rng = random.Random(404)
    cluster = InProcCluster()
    next_worker = 0
    next_task = 0
    live = []
    events = 0
    while events < 1000:
        roll = rng.random()
        if roll < 0.10 or not live:
            wid = f"W{next_worker}"
            next_worker += 1
            cluster.add_worker(wid, cpu_mhz=rng.randrange(500, 4000), has_gpu=rng.random() < 0.5)
            live.append(wid)
        elif roll < 0.15 and len(live) > 1:
            victim = live.pop(rng.randrange(len(live)))
            cluster.kill_worker(victim)
        elif roll < 0.60:
            tid = f"T{next_task}"
            next_task += 1
            cluster.submit(
                [make_task("noop", requires_gpu=rng.random() < 0.5, task_id=tid)],
                job_id="trace",
            )
        else:
            cluster.advance(rng.randrange(100, 3000))
        events += 1
    violations = [
        a for a in cluster.assignments if a.requires_gpu and not a.worker_has_gpu
    ]
    assert violations == []
    assert len(cluster.assignments) > 100  # the trace actually scheduled work
    print(f"\nPASS criterion 4: {events} random events, {len(cluster.assignments)} assignments, "
          f"0 capability violations")


def test_criterion_5_fcfs_round_robin_exact_counts():
    cluster = InProcCluster()
    workers = ["W1", "W2", "W3", "W4"]
    for wid in workers:
        cluster.add_worker(wid, cpu_mhz=2000, has_gpu=True)
    task_ids = [f"T{i:03d}" for i in range(100)]
    cluster.submit(
        [
            make_task("sleep", params={"duration_ms": "1000"}, requires_gpu=True, task_id=tid)
            for tid in task_ids
        ]
    )
    cluster.run_until_terminal(max_ms=200_000)
    counts = {wid: 0 for wid in workers}
    for assignment in cluster.assignments:
        counts[assignment.worker_id] += 1
    assert counts == {wid: 25 for wid in workers}, counts
    assert [a.task_id for a in cluster.assignments] == task_ids  # FCFS dispatch order
    print("\nPASS criterion 5: 100 sleep tasks over 4 GPU workers -> exactly 25 each, FCFS order")


def test_criterion_6_fault_recovery_exact_requeue():
    rng = random.Random(606)
    img = random_image(rng, 64, 48)
    cluster = InProcCluster()
    cluster.advance(500)  # offset worker heartbeats from master eviction ticks
    cluster.add_worker("W1", cpu_mhz=2400, has_gpu=True)
    cluster.add_worker("W2", cpu_mhz=2000, has_gpu=True)
    cluster.submit(
        [
            make_task(
                "sobel_par",
                payload=write_pgm(img),
                requires_gpu=True,
                params={"sim_exec_ms": "30000"},
                task_id="T1",
            )
        ]
    )
    assert cluster.assignments[0].worker_id == "W1"
    cluster.advance(1600)
    kill_at = cluster.now_ms
    cluster.kill_worker("W1")
    reply = cluster.run_until_terminal(max_ms=120_000)

    requeues = [
        t
        for t in cluster.transitions
        if t.from_state is TaskState.DISPATCHED and t.to_state is TaskState.QUEUED
    ]
    window = cluster.config.heartbeat_interval_ms * cluster.config.liveness_misses
    assert len(requeues) == 1
    assert requeues[0].task_id == "T1"
    assert requeues[0].at_ms - kill_at <= window
    [report] = reply.tasks
    assert report.state == "COMPLETED" and report.worker_id == "W2"
    assert parse_pgm(protocol.from_b64(report.output_b64)).pixels == brute_force_sobel(img)
    print(f"\nPASS criterion 6: exactly 1 re-queue, {requeues[0].at_ms - kill_at} ms <= {window} ms "
          f"window, recovered output oracle-correct")


def _random_message(rng: random.Random, type_name: str):
    def rid():
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(8))

    def rb64():
        return protocol.to_b64(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20))))

    def rparams():
        return {rid(): rid() for _ in range(rng.randrange(0, 3))}

    def opt(value):
        return value if rng.random() < 0.5 else None

    if type_name == "REGISTER":
        gpu = rng.random() < 0.5
        return Register(
            worker_id=rid(),
            cpu_mhz=rng.randrange(1, 10000),
            has_gpu=gpu,
            gpu_cores=rng.randrange(1, 4096) if gpu and rng.random() < 0.5 else None,
            gpu_mem_mb=rng.randrange(1, 1 << 16) if gpu and rng.random() < 0.5 else None,
        )
    if type_name == "REGISTER_ACK":
        return RegisterAck(
            accepted=rng.random() < 0.5,
            heartbeat_interval_ms=rng.randrange(1, 100000),
            reason=opt(rid()),
        )
    if type_name == "HEARTBEAT":
        return Heartbeat(worker_id=rid(), ts_ms=rng.randrange(0, 1 << 40), busy=rng.random() < 0.5)
    if type_name == "HEARTBEAT_ACK":
        return HeartbeatAck(status=rng.choice(["OK", "NOT_REGISTERED"]))
    if type_name == "DISPATCH":
        return Dispatch(
            task_id=rid(), kind=rid(), requires_gpu=rng.random() < 0.5,
            params=rparams(), payload_b64=rb64(),
        )
    if type_name == "RESULT":
        return Result(
            task_id=rid(), worker_id=rid(), status=rng.choice(["OK", "FAILED"]),
            exec_ms=rng.randrange(0, 1 << 32), output_b64=opt(rb64()), error=opt(rid()),
        )
    if type_name == "SUBMIT":
        tasks = tuple(
            SubmitTask(task_id=rid(), kind=rid(), requires_gpu=rng.random() < 0.5,
                       params=rparams(), payload_b64=rb64())
            for _ in range(rng.randrange(0, 4))
        )
        return Submit(job_id=rid(), tasks=tasks)
    if type_name == "SUBMIT_ACK":
        return SubmitAck(job_id=rid(), accepted_count=rng.randrange(0, 1000))
    if type_name == "JOB_STATUS":
        return JobStatus(job_id=rid())
    if type_name == "JOB_STATUS_REPLY":
        tasks = tuple(
            TaskReport(
                task_id=rid(),
                state=rng.choice(["QUEUED", "DISPATCHED", "COMPLETED", "FAILED"]),
                worker_id=opt(rid()),
                submitted_ms=opt(rng.randrange(0, 1 << 40)),
                dispatched_ms=opt(rng.randrange(0, 1 << 40)),
                completed_ms=opt(rng.randrange(0, 1 << 40)),
                exec_ms=opt(rng.randrange(0, 1 << 32)),
                output_b64=opt(rb64()),
                error=opt(rid()),
            )
            for _ in range(rng.randrange(0, 3))
        )
        return JobStatusReply(job_id=rid(), tasks=tasks)
    if type_name == "ERROR":
        return ErrorReply(code=rid(), detail=rid())
    raise AssertionError(type_name)


def test_criterion_7_protocol_round_trips_and_framing():
    type_names = [
        "REGISTER", "REGISTER_ACK", "HEARTBEAT", "HEARTBEAT_ACK", "DISPATCH", "RESULT",
        "SUBMIT", "SUBMIT_ACK", "JOB_STATUS", "JOB_STATUS_REPLY", "ERROR",
    ]
    total = 0
    for type_name in type_names:
        rng_a = random.Random(f"proto-{type_name}")
        rng_b = random.Random(f"proto-{type_name}")
        for _ in range(1000):
            message = _random_message(rng_a, type_name)
            twin = _random_message(rng_b, type_name)
            encoded = protocol.encode(message)
            assert protocol.decode(encoded) == message
            # identical generation on a fresh RNG run encodes identically
            assert protocol.encode(twin) == encoded
            total += 1

    # framing invariance under random chunk partitions
    rng = random.Random("framing")
    msgs = [_random_message(rng, rng.choice(type_names)) for _ in range(200)]
    stream = b"".join(protocol.encode(m) for m in msgs)
    for trial in range(20):
        cuts = sorted(rng.randrange(0, len(stream) + 1) for _ in range(rng.randrange(1, 40)))
        framer = protocol.LineFramer()
        lines = []
        prev = 0
        for cut in cuts + [len(stream)]:
            lines.extend(framer.feed(stream[prev:cut]))
            prev = cut
        assert [protocol.decode(line) for line in lines] == msgs, trial
    print(f"\nPASS criterion 7: {total} round trips across {len(type_names)} types, "
          f"deterministic encoding, chunking-invariant framing")


# -- criteria 8 and 9: real clusters -----------------------------------------------


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_for_port(port, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"nothing listening on {port}")


def _spawn(*args):
    return subprocess.Popen(
        [sys.executable, "-m", "taskgrid.cli", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _noise_pgm(rng, w, h):
    import numpy as np

    raster = np.random.default_rng(rng.randrange(1 << 30)).integers(
        0, 256, size=w * h, dtype=np.uint8
    )
    return write_pgm(GrayImage(w, h, raster.tobytes()))


@pytest.mark.slow
def test_criterion_8_crossover_trend_on_real_cluster(tmp_path):
    port = _free_port()
    rng = random.Random(808)
    sizes = [(512, 512), (1024, 586), (2048, 1024), (4096, 2048)]
    images = [(f"{w}x{h}", _noise_pgm(rng, w, h)) for w, h in sizes]

    master = _spawn(
        "master", "--listen", f"127.0.0.1:{port}",
        "--state-file", str(tmp_path / "state.ndjson"),
    )
    workers = []
    try:
        _wait_for_port(port)
        workers.append(
            _spawn("worker", "--master", f"127.0.0.1:{port}", "--id", "Wcpu", "--mhz", "2000")
        )
        workers.append(
            _spawn("worker", "--master", f"127.0.0.1:{port}", "--id", "Wgpu",
                   "--mhz", "2400", "--gpu", "--gpu-cores", "384", "--gpu-mem-mb", "2048",
                   "--lanes", "4")
        )
        with MasterClient("127.0.0.1", port, connect_timeout_s=15) as client:
            report = run_bench(client, images, lane_count=4, repeat=3)
    finally:
        for proc in workers:
            proc.terminate()
        master.terminate()
        for proc in workers + [master]:
            proc.wait(timeout=15)

    ratios = [row.seq_exec_ms / max(row.par_exec_ms, 1) for row in report.rows]
    pixel_counts = [row.m * row.n for row in report.rows]
    assert pixel_counts == sorted(pixel_counts)
    for smaller, larger in zip(ratios, ratios[1:]):
        assert larger >= smaller, (ratios, report.render_table())
    assert ratios[-1] > 1.0, ratios
    table = report.render_table()
    print("\n" + table)
    print(f"PASS criterion 8: seq/par exec ratio non-decreasing {['%.2f' % r for r in ratios]}, "
          f"largest > 1 with lane_count=4")


@pytest.mark.slow
def test_criterion_9_overhead_coefficient_of_variation():
    rng = random.Random(909)
    payload = _noise_pgm(rng, 512, 512)
    config = SchedulerConfig(heartbeat_interval_ms=500)
    server = MasterServer("127.0.0.1", 0, config)
    server.start()
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=True), ("127.0.0.1", server.port))
    agent_thread = threading.Thread(target=agent.run, daemon=True)
    agent_thread.start()
    overheads = []
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            for i in range(23):  # 3 warmups + 20 measured
                ack = client.submit(
                    [make_task("noop", payload=payload, requires_gpu=True)],
                    job_id=f"ovh-{i}",
                )
                assert ack.accepted_count == 1
                reply = client.wait_for_job(ack.job_id, timeout_s=60, poll_interval_s=0.01)
                [report] = reply.tasks
                assert report.state == "COMPLETED", report
                if i >= 3:
                    overheads.append(
                        (report.completed_ms - report.submitted_ms) - report.exec_ms
                    )
    finally:
        agent.stop()
        server.shutdown()

    assert len(overheads) == 20
    assert all(o >= 0 for o in overheads)
    mean = statistics.fmean(overheads)
    stdev = statistics.pstdev(overheads)
    cv = stdev / mean if mean else 0.0
    assert cv < 0.5, (overheads, cv)
    print(f"\nPASS criterion 9: overhead mean {mean:.1f} ms, population CV {cv:.2f} < 0.50 "
          f"over 20 loopback submissions")
