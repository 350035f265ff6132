from types import SimpleNamespace

import pytest

from bench import MAX_RESUBMITS, _time_client, run_bag
from inputs import WORKLOADS, make_bag
from stats import Tracer
from taskgrid.protocol import JobStatusReply, TaskReport


class FakeClient:
    """Answers each SUBMIT at once; the first ``busy[n]`` tasks of the
    n-th SUBMIT fail with BUSY, the rest complete."""

    def __init__(self, busy):
        self.busy = list(busy)
        self.clock = 0
        self.submitted = []
        self.replies = {}

    def submit(self, tasks, job_id):
        self.submitted.append((job_id, [t.task_id for t in tasks]))
        n_busy = self.busy.pop(0) if self.busy else 0
        reports = []
        for i, task in enumerate(tasks):
            self.clock += 10
            if i < n_busy:
                reports.append(TaskReport(task.task_id, "FAILED", submitted_ms=self.clock,
                                          completed_ms=self.clock + 1, exec_ms=0, error="BUSY"))
            else:
                reports.append(TaskReport(task.task_id, "COMPLETED", worker_id="gpu-1",
                                          submitted_ms=self.clock, dispatched_ms=self.clock + 2,
                                          completed_ms=self.clock + 5, exec_ms=0, output_b64=""))
        self.replies[job_id] = JobStatusReply(job_id, tuple(reports))
        return SimpleNamespace(job_id=job_id, accepted_count=len(tasks))

    def job_status(self, job_id):
        return self.replies[job_id]

    def wait_for_job(self, job_id, timeout_s, poll_interval_s):
        return self.job_status(job_id)


def _bag(n):
    job_id, tasks = make_bag(WORKLOADS["noop_burst"], 3, 0)
    return job_id, tasks[:n]


def test_busy_tasks_are_resubmitted_under_fresh_ids_until_completed():
    job_id, tasks = _bag(5)
    client = FakeClient(busy=[2, 1])
    bag = run_bag(client, job_id, tasks, poll_s=0.1)

    ids = [t.task_id for t in tasks]
    assert client.submitted == [
        (job_id, ids),
        (f"{job_id}-r1", [f"{ids[0]}-r1", f"{ids[1]}-r1"]),
        (f"{job_id}-r2", [f"{ids[0]}-r2"]),
    ]
    assert bag.first_states == ["FAILED", "FAILED", "COMPLETED", "COMPLETED", "COMPLETED"]
    assert bag.busy_rejects == 3
    # One final report per task, in bag order, under the task's own id.
    assert [r.task_id for r in bag.reports] == ids
    assert all(r.state == "COMPLETED" for r in bag.reports)
    # Turnaround counts from the first SUBMIT, resubmissions included.
    first = client.replies[job_id].tasks[0]
    last = client.replies[f"{job_id}-r2"].tasks[0]
    assert bag.reports[0].submitted_ms == first.submitted_ms
    assert bag.reports[0].completed_ms == last.completed_ms


def test_other_failures_are_final_and_never_resubmitted():
    job_id, tasks = _bag(3)
    client = FakeClient(busy=[0])
    original = client.submit

    def submit_with_error(pending, job_id):
        ack = original(pending, job_id)
        reply = client.replies[job_id]
        failed = TaskReport(pending[0].task_id, "FAILED", submitted_ms=1, error="EXEC_ERROR")
        client.replies[job_id] = JobStatusReply(job_id, (failed,) + reply.tasks[1:])
        return ack

    client.submit = submit_with_error
    bag = run_bag(client, job_id, tasks, poll_s=0.1)
    assert len(client.submitted) == 1
    assert [r.state for r in bag.reports] == ["FAILED", "COMPLETED", "COMPLETED"]
    assert bag.busy_rejects == 0


def test_gives_up_when_busy_never_clears():
    job_id, tasks = _bag(2)
    client = FakeClient(busy=[2] * (MAX_RESUBMITS + 1))
    with pytest.raises(RuntimeError, match="still BUSY"):
        run_bag(client, job_id, tasks, poll_s=0.1)


def test_timed_client_keeps_resubmissions_out_of_the_bag_spans():
    job_id, tasks = _bag(4)
    client, tracer, status_bytes = FakeClient(busy=[2, 1]), Tracer(), []
    _time_client(client, tracer, status_bytes)
    run_bag(client, job_id, tasks, poll_s=0.1)
    names = [span.name for span in tracer.spans]
    assert names.count("client.submit") == names.count("client.job_status") == 1
    assert names.count("client.submit.resubmitted") == names.count("client.job_status.resubmitted") == 2
    assert len(status_bytes) == 3
