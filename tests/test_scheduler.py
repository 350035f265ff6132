import logging
import random

import pytest

from conftest import assert_held_is_dispatched, queued_ids
from taskgrid import protocol
from taskgrid.master import MasterCore
from taskgrid.model import TaskDescriptor, TaskState, WorkerProfile
from taskgrid.protocol import Dispatch, Heartbeat, Register, Result, Submit, SubmitTask
from taskgrid.scheduler import (
    DuplicateTaskError,
    RegistrationError,
    Scheduler,
    SchedulerConfig,
    UNSCHEDULABLE_ERROR,
)
from taskgrid.worker import WorkerAgent
from taskgrid.workloads import ExecutorRegistry


def mk_scheduler(on_transition=None, **config_kwargs):
    return Scheduler(SchedulerConfig(**config_kwargs), on_transition=on_transition)


def mk_profile(worker_id, mhz=2000, gpu=False):
    return WorkerProfile(Register(worker_id=worker_id, cpu_mhz=mhz, has_gpu=gpu))


def mk_task(task_id, gpu=False):
    return TaskDescriptor(task_id=task_id, job_id="j", requires_gpu=gpu)


# -- registration -------------------------------------------------------------


def test_first_insertion_goes_to_gpu_ring():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), now_ms=0)
    assert s.gpu_ring.ids == ["W1"]
    assert s.cpu_ring.ids == []


def test_rings_order_by_descending_mhz():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    s.register_worker(mk_profile("W2", 2000), 0)
    s.register_worker(mk_profile("W3", 3000), 0)
    assert s.cpu_ring.ids == ["W3", "W2"]


def test_ring_ties_break_by_worker_id():
    s = mk_scheduler()
    for wid in ("Wb", "Wa", "Wc"):
        s.register_worker(mk_profile(wid, 2000), 0)
    assert s.cpu_ring.ids == ["Wa", "Wb", "Wc"]


def test_zero_mhz_rejected():
    s = mk_scheduler()
    with pytest.raises(RegistrationError):
        s.register_worker(mk_profile("W1", 0), 0)


def test_gpu_fields_without_gpu_rejected():
    s = mk_scheduler()
    profile = WorkerProfile(Register(worker_id="W1", cpu_mhz=2000, has_gpu=False, gpu_cores=384))
    with pytest.raises(RegistrationError):
        s.register_worker(profile, 0)


def test_reregistration_replaces_and_orphans_task():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    task = mk_task("T1", gpu=True)
    s.enqueue_task(task, 1)
    assert s.schedule_round(1) == [("T1", "W1")]
    s.register_worker(mk_profile("W1", 2600, gpu=True), 2)
    assert task.state is TaskState.QUEUED
    assert task.attempt == 1
    assert s.workers["W1"].register.cpu_mhz == 2600
    assert s.workers["W1"].held == []


def test_insertion_preserves_rotation_of_existing_workers():
    s = mk_scheduler()
    s.register_worker(mk_profile("W2", 2000, gpu=True), 0)
    s.register_worker(mk_profile("W3", 1000, gpu=True), 0)
    # rotate the cursor onto W3
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    assert s.schedule_round(0) == [("T1", "W2")]
    # a faster worker lands at the ring head; W3 must stay next in rotation
    s.register_worker(mk_profile("W1", 3000, gpu=True), 1)
    s.enqueue_task(mk_task("T2", gpu=True), 1)
    assert s.schedule_round(1) == [("T2", "W3")]


def test_removal_at_the_cursor_hands_the_turn_to_the_next_worker():
    s = mk_scheduler()
    for wid, mhz in (("W1", 3000), ("W2", 2000), ("W4", 1000)):
        s.register_worker(mk_profile(wid, mhz, gpu=True), 0)
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    assert s.schedule_round(0) == [("T1", "W1")]  # the turn passes to W2
    s.heartbeat("W1", 5000, now_ms=5000)
    s.heartbeat("W4", 5000, now_ms=5000)
    assert s.evict_stale(6001) == ["W2"]  # the turn passes to W4
    # a worker inserted before W4 must not take W4's turn
    s.register_worker(mk_profile("W3", 1500, gpu=True), 6001)
    s.enqueue_task(mk_task("T2", gpu=True), 6001)
    s.enqueue_task(mk_task("T3", gpu=True), 6001)
    assert s.schedule_round(6001) == [("T2", "W4"), ("T3", "W3")]


# -- heartbeats ----------------------------------------------------------------


def test_heartbeat_updates_timestamp():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    assert s.heartbeat("W1", 5000, now_ms=700)
    assert s.workers["W1"].last_heartbeat_ms == 700
    assert s.workers["W1"].last_beat_ts_ms == 5000


def test_heartbeat_unknown_worker():
    s = mk_scheduler()
    assert not s.heartbeat("W9", 1000, now_ms=1000)


def test_out_of_order_heartbeat_ignored():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.heartbeat("W1", 5000, now_ms=100)
    s.heartbeat("W1", 4000, now_ms=200)
    assert s.workers["W1"].last_beat_ts_ms == 5000
    assert s.workers["W1"].last_heartbeat_ms == 100
    # replaying any permutation settles on the maximum
    rng = random.Random(3)
    stamps = list(range(5001, 5030))
    rng.shuffle(stamps)
    for now, ts in enumerate(stamps, start=300):
        s.heartbeat("W1", ts, now_ms=now)
    assert s.workers["W1"].last_beat_ts_ms == 5029


def test_liveness_uses_master_clock_not_worker_clock():
    # A heartbeat's ts_ms comes from the worker host's monotonic clock,
    # which can be far behind or far ahead of the master's.
    clock = [1_000_000]
    core = MasterCore(SchedulerConfig(), clock=lambda: clock[0])
    for wid in ("Wbehind", "Wahead"):
        core.handle(Register(worker_id=wid, cpu_mhz=2000, has_gpu=False), lambda message: None)
    evicted_at = {}
    for now in range(1_002_000, 1_020_001, 2000):
        clock[0] = now
        # Wbehind beats on time for 18 s; Wahead beats once, then goes silent.
        core.handle(Heartbeat(worker_id="Wbehind", ts_ms=now - 900_000, busy=False), None)
        if now == 1_002_000:
            core.handle(Heartbeat(worker_id="Wahead", ts_ms=now + 10**9, busy=False), None)
        core.run_due()
        for wid in ("Wbehind", "Wahead"):
            if wid not in core.scheduler.workers:
                evicted_at.setdefault(wid, now)
    # Wahead goes at the first tick more than the 6,000 ms window after its beat.
    assert evicted_at == {"Wahead": 1_010_000}


def test_a_finished_task_drops_its_payload_and_a_requeued_one_keeps_it():
    clock = [0]
    config = SchedulerConfig(heartbeat_interval_ms=100, liveness_misses=2, unschedulable_timeout_ms=500)
    core = MasterCore(config, clock=lambda: clock[0])
    sent = []
    core.deliver(Register(worker_id="W1", cpu_mhz=2000, has_gpu=False), sent.append)
    entries = [("ok", False, "AAEC"), ("bad", False, "AwQF"), ("gpu", True, "BgcI"), ("again", False, "CQoL")]
    submitted = {
        tid: SubmitTask(task_id=tid, kind="noop", requires_gpu=gpu, payload_b64=payload)
        for tid, gpu, payload in entries
    }
    core.deliver(Submit(job_id="J", tasks=tuple(submitted.values())), sent.append)
    tasks = core.scheduler.tasks
    core.deliver(Result(task_id="ok", worker_id="W1", status="OK", exec_ms=1, output_b64="DA=="), None)
    core.deliver(Result(task_id="bad", worker_id="W1", status="FAILED", exec_ms=1, error="boom"), None)
    assert (tasks["ok"].state, tasks["bad"].state) == (TaskState.COMPLETED, TaskState.FAILED)
    assert tasks["ok"].dispatch is tasks["bad"].dispatch is None
    # W1 holds "again" and goes silent: eviction re-queues it with its payload.
    clock[0] = 600
    core.run_due()
    assert tasks["gpu"].error == UNSCHEDULABLE_ERROR
    assert (tasks["again"].state, tasks["gpu"].dispatch) == (TaskState.QUEUED, None)
    assert tasks["again"].dispatch.payload_b64 == "CQoL"
    core.deliver(Register(worker_id="W2", cpu_mhz=2000, has_gpu=False), sent.append)
    dispatches = [m for m in sent if isinstance(m, Dispatch) and m.task_id == "again"]
    # Both DISPATCHes are the entry the SUBMIT carried, not copies of it.
    assert [m is submitted["again"] for m in dispatches] == [True, True]
    first, second = [protocol.encode(m) for m in dispatches]
    assert first == second
    reports = {r.task_id: r for r in core.job_status_reply("J").tasks}
    assert (reports["ok"].output_b64, reports["bad"].output_b64) == ("DA==", None)


# -- eviction ---------------------------------------------------------------------


def test_eviction_just_past_window():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    assert s.evict_stale(6000) == []  # 2000*3 not yet exceeded
    assert s.evict_stale(6001) == ["W1"]
    assert "W1" not in s.workers


def test_fresh_workers_not_evicted():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.register_worker(mk_profile("W2"), 0)
    s.heartbeat("W1", 5000, now_ms=5000)
    s.heartbeat("W2", 5500, now_ms=5500)
    assert s.evict_stale(7000) == []
    assert set(s.workers) == {"W1", "W2"}


def test_orphan_requeues_at_original_fcfs_slot():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    t7 = mk_task("T7")
    s.enqueue_task(t7, 100)
    assert s.schedule_round(100) == [("T7", "W1")]
    s.enqueue_task(mk_task("T8"), 200)  # submitted after T7
    evicted = s.evict_stale(7000)
    assert evicted == ["W1"]
    assert queued_ids(s.queue) == ["T7", "T8"]
    assert t7.state is TaskState.QUEUED
    assert t7.attempt == 1


def test_a_requeue_within_one_millisecond_keeps_enqueue_order():
    # All three share submitted_ms, so only the enqueue order puts T1 first.
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    for task_id in ("T1", "T2", "T3"):
        s.enqueue_task(mk_task(task_id), 100)
    assert s.schedule_round(100) == [("T1", "W1")]
    assert s.evict_stale(7000) == ["W1"]
    assert queued_ids(s.queue) == ["T1", "T2", "T3"]
    s.register_worker(mk_profile("W2"), 7000)
    assert s.schedule_round(7000) == [("T1", "W2")]


@pytest.mark.parametrize("departure", ["evicted", "re-registered"])
def test_a_requeue_logs_one_record_with_task_worker_and_attempt(caplog, departure):
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.register_worker(mk_profile("W2"), 0)
    s.enqueue_task(mk_task("T1"), 0)
    assert s.schedule_round(0) == [("T1", "W1")]
    s.heartbeat("W2", 5000, now_ms=5000)
    caplog.set_level(logging.WARNING, logger="taskgrid.scheduler")
    if departure == "evicted":
        assert s.evict_stale(6001) == ["W1"]
    else:
        s.register_worker(mk_profile("W1"), 6001)
    records = [r for r in caplog.records if hasattr(r, "task_id")]
    assert [(r.levelno, r.getMessage(), r.task_id, r.worker_id, r.attempt) for r in records] == [
        (logging.WARNING, "re-queueing task T1 from worker W1 (attempt 1)", "T1", "W1", 1)
    ]


def test_stale_eviction_and_worker_failure_warnings_carry_the_ids_they_name(caplog):
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.enqueue_task(mk_task("T1"), 0)
    assert s.schedule_round(0) == [("T1", "W1")]
    caplog.set_level(logging.WARNING)
    assert not s.complete_task("T1", "W2", ok=True, exec_ms=1, now_ms=1)
    assert s.evict_stale(6001) == ["W1"]

    def boom(params, payload):
        raise ValueError("bad input")

    registry = ExecutorRegistry()
    registry.register("boom", boom)
    agent = WorkerAgent(Register(worker_id="W3", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", 1), registry=registry)
    # Run by hand and never connected, so the RESULT fails to send.
    agent._exec_queue.put(Dispatch(task_id="T2", kind="boom", requires_gpu=False))
    agent.stop()
    agent._exec_loop()
    records = [
        (r.name, r.getMessage(), getattr(r, "task_id", None), getattr(r, "worker_id", None))
        for r in caplog.records
    ]
    assert records == [
        ("taskgrid.scheduler", "ignoring stale result for T1 from W2", "T1", "W2"),
        ("taskgrid.scheduler", "evicting worker W1 (no heartbeat for > 6000 ms)", None, "W1"),
        ("taskgrid.scheduler", "re-queueing task T1 from worker W1 (attempt 1)", "T1", "W1"),
        ("taskgrid.worker", "executor boom failed: bad input", "T2", None),
        ("taskgrid.worker", "failed to run or report T2", "T2", None),
    ]


# -- enqueue ------------------------------------------------------------------------


def test_fcfs_append():
    s = mk_scheduler()
    s.enqueue_task(mk_task("T1"), 0)
    assert queued_ids(s.queue) == ["T1"]
    s.enqueue_task(mk_task("T2"), 1)
    assert queued_ids(s.queue) == ["T1", "T2"]


def test_duplicate_task_id_rejected():
    s = mk_scheduler()
    s.enqueue_task(mk_task("T1"), 0)
    with pytest.raises(DuplicateTaskError):
        s.enqueue_task(mk_task("T1"), 1)


def test_task_id_unique_for_master_lifetime():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.enqueue_task(mk_task("T1"), 0)
    s.schedule_round(0)
    s.complete_task("T1", "W1", ok=True, exec_ms=1, now_ms=1)
    with pytest.raises(DuplicateTaskError):
        s.enqueue_task(mk_task("T1"), 2)


# -- scheduling ---------------------------------------------------------------------


def test_mixed_queue_ring_trace():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    s.register_worker(mk_profile("W3", 2000, gpu=True), 0)
    s.register_worker(mk_profile("W2", 2000), 0)
    s.enqueue_task(mk_task("T1", gpu=True), 1)
    s.enqueue_task(mk_task("T2"), 2)
    s.enqueue_task(mk_task("T3", gpu=True), 3)
    assert s.schedule_round(4) == [("T1", "W1"), ("T2", "W2"), ("T3", "W3")]


def test_no_workers_leaves_task_queued():
    s = mk_scheduler()
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    assert s.schedule_round(1) == []
    assert s.tasks["T1"].state is TaskState.QUEUED
    assert queued_ids(s.queue) == ["T1"]


def test_round_robin_cycles_through_ring():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    s.register_worker(mk_profile("W3", 2400, gpu=True), 0)
    order = []
    for i in range(4):
        tid = f"T{i}"
        s.enqueue_task(mk_task(tid, gpu=True), i)
        assignments = s.schedule_round(i)
        order.extend(wid for _, wid in assignments)
        s.complete_task(tid, assignments[0][1], ok=True, exec_ms=0, now_ms=i)
    assert order == ["W1", "W3", "W1", "W3"]


def test_gpu_task_never_lands_on_cpu_worker():
    s = mk_scheduler()
    s.register_worker(mk_profile("W2", 9000), 0)  # fast but no GPU
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    assert s.schedule_round(1) == []


def test_cpu_task_falls_back_to_gpu_ring_only_when_cpu_ring_empty():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    s.enqueue_task(mk_task("T1"), 0)
    assert s.schedule_round(1) == [("T1", "W1")]

    s2 = mk_scheduler()
    s2.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    s2.register_worker(mk_profile("W2", 100), 0)
    s2.enqueue_task(mk_task("T1"), 0)
    assert s2.schedule_round(1) == [("T1", "W2")]


def test_skipped_gpu_task_does_not_block_cpu_task():
    s = mk_scheduler()
    s.register_worker(mk_profile("W2", 2000), 0)
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    s.enqueue_task(mk_task("T2"), 1)
    assert s.schedule_round(2) == [("T2", "W2")]
    assert queued_ids(s.queue) == ["T1"]


def test_busy_workers_are_skipped():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    s.enqueue_task(mk_task("T2", gpu=True), 1)
    assert s.schedule_round(2) == [("T1", "W1")]
    assert queued_ids(s.queue) == ["T2"]
    s.complete_task("T1", "W1", ok=True, exec_ms=1, now_ms=3)
    assert s.schedule_round(3) == [("T2", "W1")]


def test_tasks_go_to_workers_holding_nothing_before_free_slots():
    s = mk_scheduler()
    for wid in ("W1", "W2"):
        s.register_worker(WorkerProfile(Register(worker_id=wid, cpu_mhz=2000, has_gpu=False, slots=2)), 0)
    for i in range(5):
        s.enqueue_task(mk_task(f"T{i}"), 0)
    # Each worker gets a task before either gets a second; then both are full.
    assert s.schedule_round(0) == [("T0", "W1"), ("T1", "W2"), ("T2", "W1"), ("T3", "W2")]
    assert queued_ids(s.queue) == ["T4"]
    assert (s.workers["W1"].held, s.workers["W2"].held) == (["T0", "T2"], ["T1", "T3"])
    # The turn is W1's, and W1 has a free slot, but W2 holds nothing.
    s.complete_task("T0", "W1", ok=True, exec_ms=1, now_ms=1)
    s.complete_task("T1", "W2", ok=True, exec_ms=1, now_ms=1)
    s.complete_task("T3", "W2", ok=True, exec_ms=1, now_ms=1)
    assert s.schedule_round(1) == [("T4", "W2")]
    assert (s.workers["W1"].held, s.workers["W2"].held) == (["T2"], ["T4"])


def test_a_profile_with_fewer_than_one_slot_is_refused_alike_by_master_and_agent():
    for slots in (0, -1):
        register = Register(worker_id="W1", cpu_mhz=2000, has_gpu=False, slots=slots)
        with pytest.raises(RegistrationError, match="^slots must be positive$"):
            mk_scheduler().register_worker(WorkerProfile(register), 0)
        with pytest.raises(ValueError, match="^slots must be positive$"):
            WorkerAgent(register, ("127.0.0.1", 1))


def test_unschedulable_gpu_task_times_out_to_failed():
    s = mk_scheduler()
    task = mk_task("T1", gpu=True)
    s.enqueue_task(task, 0)
    s.schedule_round(60000)
    assert task.state is TaskState.QUEUED
    s.schedule_round(60001)
    assert task.state is TaskState.FAILED
    assert task.error == UNSCHEDULABLE_ERROR
    assert task.assigned_worker is None


def test_gpu_task_waits_when_gpu_workers_exist_but_are_busy():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2400, gpu=True), 0)
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    s.schedule_round(0)
    s.enqueue_task(mk_task("T2", gpu=True), 1)
    s.schedule_round(120000)  # long past the timeout, but a GPU worker exists
    assert s.tasks["T2"].state is TaskState.QUEUED


# -- completion ----------------------------------------------------------------------


def test_ok_completion():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.enqueue_task(mk_task("T1"), 0)
    s.schedule_round(0)
    assert s.complete_task("T1", "W1", ok=True, exec_ms=42, now_ms=100)
    task = s.tasks["T1"]
    assert task.state is TaskState.COMPLETED
    assert task.exec_ms == 42
    assert task.completed_ms == 100
    assert s.workers["W1"].held == []


def test_stale_report_from_wrong_worker_ignored():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.register_worker(mk_profile("W2"), 0)
    s.enqueue_task(mk_task("T1"), 0)
    [(tid, wid)] = s.schedule_round(0)
    other = "W2" if wid == "W1" else "W1"
    assert not s.complete_task("T1", other, ok=True, exec_ms=1, now_ms=1)
    assert s.tasks["T1"].state is TaskState.DISPATCHED


def test_failed_report_preserves_error():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1"), 0)
    s.enqueue_task(mk_task("T1"), 0)
    s.schedule_round(0)
    assert s.complete_task("T1", "W1", ok=False, exec_ms=0, now_ms=1, error="boom")
    assert s.tasks["T1"].state is TaskState.FAILED
    assert s.tasks["T1"].error == "boom"


# -- properties over random traces ------------------------------------------------


def test_round_robin_fairness_counts():
    s = mk_scheduler()
    for wid in ("W1", "W2", "W3", "W4"):
        s.register_worker(mk_profile(wid, 2000, gpu=True), 0)
    counts = {wid: 0 for wid in ("W1", "W2", "W3", "W4")}
    for i in range(100):
        s.enqueue_task(mk_task(f"T{i}", gpu=True), i)
    done = 0
    while done < 100:
        for tid, wid in s.schedule_round(done):
            counts[wid] += 1
            s.complete_task(tid, wid, ok=True, exec_ms=0, now_ms=done)
            done += 1
    assert all(count == 25 for count in counts.values())


def test_uneven_fairness_bounds():
    # n=10 tasks over k=3 workers: counts within {3, 4}
    s = mk_scheduler()
    for wid in ("W1", "W2", "W3"):
        s.register_worker(mk_profile(wid, 2000), 0)
    counts = {"W1": 0, "W2": 0, "W3": 0}
    for i in range(10):
        s.enqueue_task(mk_task(f"T{i}"), i)
    done = 0
    while done < 10:
        for tid, wid in s.schedule_round(done):
            counts[wid] += 1
            s.complete_task(tid, wid, ok=True, exec_ms=0, now_ms=done)
            done += 1
    assert sorted(counts.values()) == [3, 3, 4]


def test_requeue_exactness_on_worker_loss():
    transitions = []
    s = mk_scheduler(on_transition=lambda t, a, b, now: transitions.append((t.task_id, a, b)))
    s.register_worker(mk_profile("W1", 2000, gpu=True), 0)
    task = mk_task("T1", gpu=True)
    s.enqueue_task(task, 0)
    s.schedule_round(0)
    s.evict_stale(6001)
    requeues = [t for t in transitions if t[1] is TaskState.DISPATCHED and t[2] is TaskState.QUEUED]
    assert len(requeues) == 1 and requeues[0][0] == "T1"
    assert task.attempt == 1
    assert task.assigned_worker is None


def _has_eligible_idle(s):
    # at least one queued task has a worker with a free slot in its eligible ring
    for tid in queued_ids(s.queue):
        task = s.tasks[tid]
        if task.requires_gpu:
            ring = s.gpu_ring
        else:
            ring = s.cpu_ring if s.cpu_ring.ids else s.gpu_ring
        if any(len(s.workers[w].held) < s.workers[w].slots for w in ring.ids):
            return True
    return False


def _run_random_trace(seed, slots=None):
    # Each new worker has one slot or ``slots``, drawn from its own
    # generator so that a seed replays the same ops whatever ``slots`` is.
    # Free-slot liveness and the held invariant are checked after every op.
    rng = random.Random(seed)
    slot_rng = random.Random(seed)
    s = mk_scheduler()
    now = 0
    next_worker = 0
    next_task = 0
    most_held = 0
    assignments = []
    enqueued = {"gpu": [], "cpu": []}
    first_dispatch = {"gpu": [], "cpu": []}
    live_dispatched = {}

    for _ in range(300):
        now += rng.randrange(1, 50)
        op = rng.random()
        if op < 0.2:
            wid = f"W{next_worker}"
            next_worker += 1
            register = Register(
                worker_id=wid,
                cpu_mhz=rng.randrange(1, 4000),
                has_gpu=rng.random() < 0.5,
                slots=slot_rng.choice((None, slots)),
            )
            s.register_worker(WorkerProfile(register), now)
        elif op < 0.45:
            tid = f"T{next_task}"
            next_task += 1
            gpu = rng.random() < 0.5
            s.enqueue_task(mk_task(tid, gpu=gpu), now)
            enqueued["gpu" if gpu else "cpu"].append(tid)
        elif op < 0.75:
            expect_assignment = _has_eligible_idle(s)
            made = s.schedule_round(now)
            assert made or not expect_assignment  # liveness
            for tid, wid in made:
                task = s.tasks[tid]
                profile = s.workers[wid]
                assignments.append((tid, wid, task.requires_gpu, profile.register.has_gpu))
                cls = "gpu" if task.requires_gpu else "cpu"
                if task.attempt == 0:
                    first_dispatch[cls].append(tid)
                live_dispatched[tid] = wid
        elif op < 0.9 and live_dispatched:
            tid = rng.choice(sorted(live_dispatched))
            wid = live_dispatched.pop(tid)
            s.complete_task(tid, wid, ok=rng.random() < 0.9, exec_ms=rng.randrange(100), now_ms=now)
        else:
            for wid in list(s.workers):
                if rng.random() < 0.3:
                    s.heartbeat(wid, now, now_ms=now)
            for wid in s.evict_stale(now):
                live_dispatched = {
                    tid: w for tid, w in live_dispatched.items() if w != wid
                }
        for ring in (s.gpu_ring, s.cpu_ring):
            # the turn is held by a ring member, and is unheld only while the ring is empty
            assert (ring.turn is None) == (not ring.ids)
            assert ring.turn is None or ring.turn in ring.ids
        assert_held_is_dispatched(s)
        most_held = max([most_held, *(len(profile.held) for profile in s.workers.values())])
    return s, assignments, enqueued, first_dispatch, most_held


def _assert_trace_properties(s, assignments, enqueued, first_dispatch):
    # capability safety: GPU tasks only ever land on GPU workers
    for tid, wid, requires_gpu, has_gpu in assignments:
        assert not (requires_gpu and not has_gpu), (tid, wid)
    # per-class FCFS on first dispatch
    for cls in ("gpu", "cpu"):
        expected = [t for t in enqueued[cls] if t in set(first_dispatch[cls])]
        assert first_dispatch[cls] == expected
    # assigned_worker only for dispatched/terminal-by-result states
    for task in s.tasks.values():
        if task.assigned_worker is not None:
            assert task.state in (TaskState.DISPATCHED, TaskState.COMPLETED, TaskState.FAILED)
        if task.state is TaskState.DISPATCHED:
            assert task.assigned_worker is not None


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_random_trace_properties(seed):
    s, assignments, enqueued, first_dispatch, _ = _run_random_trace(seed)
    _assert_trace_properties(s, assignments, enqueued, first_dispatch)


@pytest.mark.parametrize("slots", [None, 2])
def test_random_traces_with_one_or_two_slot_workers(slots):
    most_held = 0
    for seed in (1, 2, 3, 7, 11, 13):
        s, assignments, enqueued, first_dispatch, held = _run_random_trace(seed, slots)
        _assert_trace_properties(s, assignments, enqueued, first_dispatch)
        most_held = max(most_held, held)
    # some seed fills every slot a worker has
    assert most_held == (slots or 1)


def test_trace_determinism():
    _, a1, _, _, _ = _run_random_trace(42)
    _, a2, _, _, _ = _run_random_trace(42)
    assert a1 == a2


def test_config_liveness_window_arithmetic():
    assert SchedulerConfig(heartbeat_interval_ms=500, liveness_misses=2).liveness_window_ms == 1000
    assert SchedulerConfig().liveness_window_ms == 6000


def test_config_rejects_nonpositive_durations():
    with pytest.raises(ValueError):
        SchedulerConfig(heartbeat_interval_ms=0)
    with pytest.raises(ValueError):
        SchedulerConfig(liveness_misses=0)
    with pytest.raises(ValueError):
        SchedulerConfig(unschedulable_timeout_ms=-1)


def test_liveness_idle_worker_and_queue_gives_assignment():
    s = mk_scheduler()
    s.register_worker(mk_profile("W1", 2000, gpu=True), 0)
    s.enqueue_task(mk_task("T1", gpu=True), 0)
    assert len(s.schedule_round(0)) >= 1


class _CountingTasks(dict):
    """The task table, counting every lookup of a task."""

    lookups = 0

    def __getitem__(self, task_id):
        self.lookups += 1
        return super().__getitem__(task_id)

    def get(self, task_id, default=None):
        self.lookups += 1
        return super().get(task_id, default)


def test_round_work_is_bounded_by_assignments_not_queue_length():
    s = mk_scheduler()
    s.register_worker(mk_profile("G", gpu=True), 0)
    s.register_worker(mk_profile("C"), 0)
    s.enqueue_task(mk_task("busy-g", gpu=True), 0)
    s.enqueue_task(mk_task("busy-c"), 0)
    assert len(s.schedule_round(0)) == 2
    for i in range(10_000):
        s.enqueue_task(mk_task(f"T{i}", gpu=i % 2 == 0), 1)
    s.complete_task("busy-g", "G", ok=True, exec_ms=1, now_ms=2)
    s.tasks = _CountingTasks(s.tasks)
    assert s.schedule_round(2) == [("T0", "G")]
    assert s.tasks.lookups <= 4
    assert len(s.queue) == 9_999
