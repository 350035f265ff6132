"""The per-class queue scheduler against the scan-based one it replaced.

``ScanScheduler`` is a frozen copy of the earlier queue: one list in
FCFS order that every round walks and rebuilds. It picks workers
through ``FrozenRing``, a frozen copy of the cyclic-scan dispatch ring,
so a change in which worker the production ring picks shows here too.
Both schedulers are driven through the same seeded random traces
(multi-task submits, registration and re-registration, eviction,
CPU->GPU fallback, a short unschedulable timeout, OK and FAILED
completions; some traces over pools of up to ~50 workers) and must
agree on every assignment, every transition and the queue after every
operation.
"""

import bisect
import random
from collections import Counter

import pytest

from support import queued_ids
from taskgrid.model import TaskDescriptor, TaskState, WorkerProfile
from taskgrid.protocol import Register
from taskgrid.scheduler import (
    UNSCHEDULABLE_ERROR,
    DuplicateTaskError,
    Scheduler,
    SchedulerConfig,
)


class FrozenRing:
    """The dispatch ring as it was: worker ids ordered by descending
    cpu_mhz (ties: ascending id), picked by a cyclic scan from a cursor."""

    def __init__(self):
        self.ids = []
        self.cursor = 0

    @staticmethod
    def _key(profile):
        return (-profile.register.cpu_mhz, profile.worker_id)

    def insert(self, profile, profiles):
        pos = bisect.bisect_left(self.ids, self._key(profile), key=lambda wid: self._key(profiles[wid]))
        self.ids.insert(pos, profile.worker_id)
        if len(self.ids) > 1 and pos <= self.cursor:
            self.cursor += 1

    def remove(self, worker_id):
        pos = self.ids.index(worker_id)
        self.ids.pop(pos)
        if not self.ids:
            self.cursor = 0
        elif pos < self.cursor:
            self.cursor -= 1
        elif self.cursor >= len(self.ids):
            self.cursor = 0

    def take_idle(self, profiles):
        count = len(self.ids)
        for step in range(count):
            pos = (self.cursor + step) % count
            wid = self.ids[pos]
            if not profiles[wid].held:
                self.cursor = (pos + 1) % count
                return wid
        return None


class ScanScheduler(Scheduler):
    """The scan-based queue and round, as they were before per-class queues."""

    def __init__(self, config, on_transition=None):
        super().__init__(config, on_transition=on_transition)
        self.gpu_ring, self.cpu_ring = FrozenRing(), FrozenRing()
        self.queue = []  # task_ids, FCFS order
        self._seen_task_ids = set()

    def _queue_key(self, task_id):
        task = self.tasks[task_id]
        return (task.submitted_ms or 0, task.seq)

    def _requeue(self, task, now_ms):
        task.assigned_worker = None
        task.dispatched_ms = None
        task.attempt += 1
        self._transition(task, TaskState.QUEUED, now_ms)
        bisect.insort(self.queue, task.task_id, key=self._queue_key)

    def enqueue_task(self, task, now_ms):
        if task.task_id in self._seen_task_ids:
            raise DuplicateTaskError(task.task_id)
        if task.state is not TaskState.QUEUED:
            raise ValueError(f"task {task.task_id} submitted in state {task.state}")
        task.submitted_ms = now_ms
        self._seen_task_ids.add(task.task_id)
        task.seq = self._next_seq
        self._next_seq += 1
        self.tasks[task.task_id] = task
        self.queue.append(task.task_id)

    def schedule_round(self, now_ms):
        assignments = []
        blocked = set()  # id() of rings with no idle worker left
        remaining = []
        for task_id in self.queue:
            task = self.tasks[task_id]
            if task.requires_gpu:
                ring = self.gpu_ring
                if not ring.ids:
                    age = now_ms - (task.submitted_ms or 0)
                    if age > self.config.unschedulable_timeout_ms:
                        task.error = UNSCHEDULABLE_ERROR
                        self._transition(task, TaskState.FAILED, now_ms)
                        continue
                    remaining.append(task_id)
                    continue
            else:
                ring = self.cpu_ring
                if not ring.ids:
                    ring = self.gpu_ring
                    if not ring.ids:
                        remaining.append(task_id)
                        continue
            if id(ring) in blocked:
                remaining.append(task_id)
                continue
            worker_id = ring.take_idle(self.workers)
            if worker_id is None:
                blocked.add(id(ring))
                remaining.append(task_id)
                continue
            profile = self.workers[worker_id]
            profile.held = [task_id]
            task.assigned_worker = worker_id
            task.dispatched_ms = now_ms
            self._transition(task, TaskState.DISPATCHED, now_ms)
            assignments.append((task_id, worker_id))
        self.queue = remaining
        return assignments


class _Side:
    """One scheduler plus the log of every transition it made."""

    def __init__(self, cls):
        self.log = []
        config = SchedulerConfig(
            heartbeat_interval_ms=100, liveness_misses=2, unschedulable_timeout_ms=150
        )
        self.s = cls(config, on_transition=self._record)

    def _record(self, task, from_state, to_state, now_ms):
        self.log.append((task.task_id, from_state, to_state, now_ms))

    def apply(self, op):
        """Run one operation; returns its result."""
        name, now, args = op
        s = self.s
        if name == "submit":
            for task_id, gpu in args:
                task = TaskDescriptor(task_id=task_id, job_id="j", requires_gpu=gpu)
                try:
                    s.enqueue_task(task, now)
                except DuplicateTaskError:
                    pass
            return None
        if name == "register":
            worker_id, mhz, gpu = args
            s.register_worker(WorkerProfile(Register(worker_id=worker_id, cpu_mhz=mhz, has_gpu=gpu)), now)
            return None
        if name == "beat_and_evict":
            for worker_id in args:
                s.heartbeat(worker_id, now, now_ms=now)
            return s.evict_stale(now)
        if name == "round":
            return s.schedule_round(now)
        if name == "complete":
            task_id, worker_id, ok = args
            return s.complete_task(task_id, worker_id, ok, exec_ms=1, now_ms=now, error="boom")
        raise AssertionError(name)

    def snapshot(self):
        def turn(ring):  # the frozen ring holds the turn as an index into its ids
            if isinstance(ring, FrozenRing):
                return ring.ids[ring.cursor] if ring.ids else None
            return ring.turn

        rings = self.s.gpu_ring, self.s.cpu_ring
        return queued_ids(self.s.queue), len(self.s.queue), [(ring.ids, turn(ring)) for ring in rings]

    def task_table(self):
        return {t.task_id: (t.state, t.assigned_worker, t.attempt, t.error) for t in self.s.tasks.values()}


def _random_op(rng, now, state, max_batch=5):
    """Draw one operation from the trace's own view of the cluster."""
    roll = rng.random()
    if roll < 0.12:
        # a new worker, or a known id re-registering (live or evicted)
        if state["workers"] and rng.random() < 0.4:
            worker_id = rng.choice(sorted(state["workers"]))
        else:
            worker_id = f"W{len(state['workers'])}"
        state["workers"].add(worker_id)
        return ("register", now, (worker_id, rng.choice((1000, 2000, 3000)), rng.random() < 0.5))
    if roll < 0.35:
        batch = []
        for _ in range(rng.randrange(1, max_batch + 1)):
            if state["next_task"] and rng.random() < 0.05:
                task_id = f"T{rng.randrange(state['next_task'])}"  # a duplicate id
            else:
                task_id = f"T{state['next_task']}"
                state["next_task"] += 1
            batch.append((task_id, rng.random() < 0.5))
        return ("submit", now, tuple(batch))
    if roll < 0.45:
        beating = tuple(w for w in sorted(state["workers"]) if rng.random() < 0.6)
        return ("beat_and_evict", now, beating)
    if roll < 0.75:
        return ("round", now, None)
    if state["dispatched"]:
        task_id = rng.choice(sorted(state["dispatched"]))
        worker_id = state["dispatched"][task_id]
        if rng.random() < 0.1:
            worker_id = "W-stale"
        return ("complete", now, (task_id, worker_id, rng.random() < 0.8))
    return ("round", now, None)


def _run_trace(seed, ops=250, pool=0):
    """One trace; ``pool`` workers register before the random ops, and
    submits then come in batches of up to ``pool`` tasks."""
    rng = random.Random(seed)
    scan, merged = _Side(ScanScheduler), _Side(Scheduler)
    state = {"workers": set(), "next_task": 0, "dispatched": {}}
    seen = Counter()
    now = logged = 0
    opening = [
        ("register", 0, (f"W{i}", rng.choice((1000, 2000, 3000)), rng.random() < 0.5))
        for i in range(pool)
    ]
    state["workers"].update(f"W{i}" for i in range(pool))
    for step in range(len(opening) + ops):
        if step < len(opening):
            op = opening[step]
        else:
            now += rng.choice((0, 1, 5, 20, 60))
            op = _random_op(rng, now, state, max_batch=max(5, pool))
        expected, got = scan.apply(op), merged.apply(op)
        assert got == expected, (seed, step, op)
        assert merged.log[logged:] == scan.log[logged:], (seed, step, op)
        logged = len(scan.log)
        assert len(merged.log) == logged
        assert merged.snapshot() == scan.snapshot(), (seed, step, op)
        seen["max_workers"] = max(seen["max_workers"], len(scan.s.workers))
        busy = sum(bool(profile.held) for profile in scan.s.workers.values())
        seen["max_busy"] = max(seen["max_busy"], busy)
        if op[0] == "round":
            for task_id, worker_id in got:
                state["dispatched"][task_id] = worker_id
                task = merged.s.tasks[task_id]
                if not task.requires_gpu and merged.s.workers[worker_id].register.has_gpu:
                    seen["cpu_on_gpu_fallback"] += 1
        state["dispatched"] = {
            tid: wid
            for tid, wid in state["dispatched"].items()
            if merged.s.tasks[tid].state is TaskState.DISPATCHED
        }
    assert queued_ids(merged.s.queue) == queued_ids(scan.s.queue)
    assert merged.task_table() == scan.task_table(), seed
    for task_id, from_state, to_state, _ in merged.log:
        if from_state is TaskState.DISPATCHED and to_state is TaskState.QUEUED:
            seen["requeue"] += 1
        elif from_state is TaskState.QUEUED and to_state is TaskState.FAILED:
            seen["unschedulable"] += 1
        elif to_state is TaskState.COMPLETED:
            seen["ok"] += 1
        elif from_state is TaskState.DISPATCHED and to_state is TaskState.FAILED:
            seen["failed"] += 1
    return seen


@pytest.mark.parametrize("block", range(4))
def test_per_class_queues_match_scan_scheduler(block):
    seen = Counter()
    for seed in range(block * 75, block * 75 + 75):
        seen += _run_trace(seed)
    # The traces must actually exercise every path being compared.
    for path in ("cpu_on_gpu_fallback", "requeue", "unschedulable", "ok", "failed"):
        assert seen[path] > 0, (path, seen)


@pytest.mark.parametrize("pool", [20, 50])
def test_per_class_queues_match_scan_scheduler_over_large_pools(pool):
    traces = [_run_trace(seed, pool=pool) for seed in range(1000, 1020)]
    # The pool is really that large, and the scan really skips busy workers.
    assert max(seen["max_workers"] for seen in traces) >= pool
    assert max(seen["max_busy"] for seen in traces) >= pool // 2
    for path in ("requeue", "ok", "failed"):
        assert sum(seen[path] for seen in traces) > 0, path
