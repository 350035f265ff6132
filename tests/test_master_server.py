import contextlib
import gc
import logging
import random
import re
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

import taskgrid.master as master_mod
import taskgrid.worker as worker_mod
from taskgrid import protocol
from taskgrid.cli import main
from taskgrid.client import ClientError, MasterClient, make_task
from taskgrid.master import Connection, MasterCore, MasterServer
from taskgrid.model import TaskState
from taskgrid.protocol import (
    Dispatch,
    ErrorReply,
    Heartbeat,
    HeartbeatAck,
    JobProgressReply,
    JobStatus,
    JobStatusReply,
    JobWait,
    Register,
    RegisterAck,
    Result,
    Submit,
)
from taskgrid.scheduler import SchedulerConfig
from taskgrid.sobel import GrayImage, parse_pgm, write_pgm
from taskgrid.worker import WorkerAgent
from taskgrid.workloads import ExecutorRegistry, built_in_registry
from oracle import brute_force_sobel


class FakeWorkerConn:
    """Raw socket speaking the worker side by hand."""

    def __init__(self, port, worker_id="W1", cpu_mhz=2400, has_gpu=True):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.sock.settimeout(5.0)
        self.worker_id = worker_id
        self._framer = protocol.LineFramer()
        self._pending = []
        self.send(Register(worker_id=worker_id, cpu_mhz=cpu_mhz, has_gpu=has_gpu))
        ack = self.read()
        assert isinstance(ack, RegisterAck) and ack.accepted

    def send(self, message):
        self.sock.sendall(protocol.encode(message))

    def read(self):
        while not self._pending:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise AssertionError("master closed the connection")
            self._pending.extend(protocol.decode(line) for line in self._framer.feed(chunk))
        return self._pending.pop(0)

    def close(self):
        self.sock.close()


def test_register_ack_echoes_heartbeat_interval(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.sendall(protocol.encode(Register(worker_id="Wint", cpu_mhz=1000, has_gpu=False)))
    framer = protocol.LineFramer()
    sock.settimeout(5.0)
    lines = []
    while not lines:
        lines = framer.feed(sock.recv(65536))
    ack = protocol.decode(lines[0])
    assert isinstance(ack, RegisterAck) and ack.accepted
    assert ack.heartbeat_interval_ms == 200  # the server's configured cadence
    sock.close()


@pytest.fixture
def server():
    srv = MasterServer("127.0.0.1", 0, SchedulerConfig(heartbeat_interval_ms=200))
    srv.start()
    yield srv
    srv.shutdown()


def test_register_submit_dispatch_complete(server):
    worker = FakeWorkerConn(server.port)
    with MasterClient("127.0.0.1", server.port) as client:
        ack = client.submit([make_task("noop", requires_gpu=True, task_id="T1")], job_id="J1")
        assert ack.accepted_count == 1

        dispatch = worker.read()
        assert isinstance(dispatch, Dispatch)
        assert dispatch.task_id == "T1" and dispatch.kind == "noop"
        worker.send(
            Result(task_id="T1", worker_id=worker.worker_id, status="OK", exec_ms=7, output_b64="")
        )

        reply = client.wait_for_job("J1", timeout_s=5)
        [report] = reply.tasks
        assert report.state == "COMPLETED"
        assert report.worker_id == "W1"
        assert report.exec_ms == 7
        assert report.submitted_ms <= report.dispatched_ms <= report.completed_ms
    worker.close()


def test_register_ack_precedes_first_dispatch(server):
    with MasterClient("127.0.0.1", server.port) as client:
        client.submit([make_task("noop", requires_gpu=True, task_id="T1")], job_id="J1")
        # T1 is queued; registering makes room for it at once.
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(protocol.encode(Register(worker_id="W1", cpu_mhz=2400, has_gpu=True)))
            framer = protocol.LineFramer()
            lines = []
            while len(lines) < 2:
                chunk = sock.recv(65536)
                assert chunk, "master closed the connection"
                lines.extend(framer.feed(chunk))
        finally:
            sock.close()
    first, second = (protocol.decode(line) for line in lines[:2])
    assert isinstance(first, RegisterAck) and first.accepted
    assert isinstance(second, Dispatch) and second.task_id == "T1"


def test_shutdown_closes_open_connections():
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    serving = server.start()
    client = MasterClient("127.0.0.1", server.port)
    try:
        assert client.submit([make_task("noop", task_id="T1")], job_id="J1").accepted_count == 1
        server.shutdown()
        serving.join(5)
        assert not serving.is_alive()
        # ConnectionError on EOF, or a reset while sending: both OSError.
        with pytest.raises(OSError):
            client.job_progress("J1")
    finally:
        client.close()
        server.shutdown()


def test_unknown_job_is_an_error(server):
    with MasterClient("127.0.0.1", server.port) as client:
        with pytest.raises(ClientError, match="UNKNOWN_JOB"):
            client.job_status("nope")
        with pytest.raises(ClientError, match="UNKNOWN_JOB"):
            client.job_progress("nope")


def _record_request_types(server):
    """Names of the message types the master handles, in arrival order."""
    seen = []
    deliver = server.core.deliver

    def recording(message, sender):
        seen.append(type(message).__name__)
        deliver(message, sender)

    server.core.deliver = recording
    return seen


def test_wait_for_job_sends_one_wait_and_fetches_status_once():
    # The default 6 s liveness window outlasts the test: the fake worker sends no beats.
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    server.start()
    seen = _record_request_types(server)

    def check_wait(client, reply, state):
        # One wait, then one status fetch, whose reply is what a direct
        # job_status call returns.
        requests = [name for name in seen if name in ("JobProgress", "JobWait", "JobStatus")]
        assert requests == ["JobWait", "JobStatus"]
        assert [task.state for task in reply.tasks] == [state]
        assert reply == client.job_status("J1")
        seen.clear()

    def ok(dispatch):
        return Result(
            task_id=dispatch.task_id, worker_id=worker.worker_id, status="OK", exec_ms=3, output_b64=""
        )

    worker = FakeWorkerConn(server.port)
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            client.submit([make_task("noop", requires_gpu=True, task_id="T0")], job_id="J0")
            held = worker.read()  # the only worker holds T0, so T1 stays queued
            client.submit([make_task("noop", requires_gpu=True, task_id="T1")], job_id="J1")

            # Timeout path.
            reply = client.wait_for_job("J1", timeout_s=0.2, poll_interval_s=0.02)
            check_wait(client, reply, "QUEUED")

            # Terminal path: T1's result arrives while the client waits.
            worker.send(ok(held))
            timer = threading.Timer(0.15, lambda: worker.send(ok(worker.read())))
            timer.start()
            try:
                reply = client.wait_for_job("J1", timeout_s=5, poll_interval_s=0.02)
            finally:
                timer.join(5)
            check_wait(client, reply, "COMPLETED")
    finally:
        worker.close()
        server.shutdown()


def test_job_progress_is_one_wait_answered_at_once(server):
    seen = _record_request_types(server)
    with MasterClient("127.0.0.1", server.port) as client:
        client.submit([make_task("noop", task_id="T1")], job_id="J1")  # no worker: T1 stays queued
        progress = client.job_progress("J1")
    assert progress == JobProgressReply(job_id="J1", queued=1, dispatched=0, completed=0, failed=0)
    assert seen == ["Submit", "JobWait"]


def test_a_short_wait_returns_at_its_deadline_not_at_the_next_tick():
    # The loop's next tick is 2 s away; the wait's 0.2 s deadline wakes it.
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    server.start()
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            client.submit([make_task("noop", task_id="T1")], job_id="J1")  # no worker
            started = time.monotonic()
            reply = client.wait_for_job("J1", timeout_s=0.2)
            elapsed = time.monotonic() - started
        assert [task.state for task in reply.tasks] == ["QUEUED"]
        assert 0.15 <= elapsed < 1.0
    finally:
        server.shutdown()


def test_duplicate_task_ids_not_accepted(server):
    with MasterClient("127.0.0.1", server.port) as client:
        ack = client.submit(
            [make_task("noop", task_id="T1"), make_task("noop", task_id="T1")], job_id="J1"
        )
        assert ack.accepted_count == 1


def test_malformed_line_answered_with_error(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.sendall(b"this is not json\n")
    framer = protocol.LineFramer()
    sock.settimeout(5.0)
    message = None
    while message is None:
        lines = framer.feed(sock.recv(65536))
        if lines:
            message = protocol.decode(lines[0])
    assert isinstance(message, ErrorReply)
    assert message.code == "PROTOCOL_ERROR"
    sock.close()


def test_an_old_clients_job_progress_is_an_error_and_job_wait_answers_it(server):
    with MasterClient("127.0.0.1", server.port) as client:
        client.submit([make_task("noop", task_id="T1")], job_id="J1")  # no worker: T1 stays queued
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.settimeout(5.0)
    framer = protocol.LineFramer()

    def request(line):
        sock.sendall(line)
        lines = []
        while not lines:
            chunk = sock.recv(65536)
            assert chunk, "master closed the connection"
            lines = framer.feed(chunk)
        [reply] = lines
        return protocol.decode(reply)

    try:
        error = request(b'{"type":"JOB_PROGRESS","job_id":"J1"}\n')
        assert isinstance(error, ErrorReply) and error.code == "PROTOCOL_ERROR"
        assert "'JOB_PROGRESS'" in error.detail
        progress = request(b'{"type":"JOB_WAIT","job_id":"J1","timeout_ms":0}\n')
        assert progress == JobProgressReply(job_id="J1", queued=1, dispatched=0, completed=0, failed=0)
    finally:
        sock.close()


def test_rejected_registration(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.sendall(protocol.encode(Register(worker_id="W1", cpu_mhz=0, has_gpu=False)))
    framer = protocol.LineFramer()
    sock.settimeout(5.0)
    lines = []
    while not lines:
        lines = framer.feed(sock.recv(65536))
    ack = protocol.decode(lines[0])
    assert isinstance(ack, RegisterAck) and not ack.accepted
    assert "cpu_mhz" in ack.reason
    sock.close()


def test_heartbeat_from_unknown_worker(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.sendall(protocol.encode(protocol.Heartbeat(worker_id="ghost", ts_ms=1, busy=False)))
    framer = protocol.LineFramer()
    sock.settimeout(5.0)
    lines = []
    while not lines:
        lines = framer.feed(sock.recv(65536))
    ack = protocol.decode(lines[0])
    assert isinstance(ack, HeartbeatAck) and ack.status == "NOT_REGISTERED"
    sock.close()


def test_silent_worker_evicted_and_task_recovered(server):
    # a silent fake worker takes the task, then a real agent finishes it
    silent = FakeWorkerConn(server.port, worker_id="Wsilent", cpu_mhz=9000)
    with MasterClient("127.0.0.1", server.port) as client:
        ack = client.submit([make_task("noop", requires_gpu=True, task_id="T1")], job_id="J1")
        assert ack.accepted_count == 1
        dispatch = silent.read()
        assert dispatch.task_id == "T1"  # sent to the silent worker; never answered

        agent = WorkerAgent(Register(worker_id="Wlive", cpu_mhz=1000, has_gpu=True), ("127.0.0.1", server.port))
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            reply = client.wait_for_job("J1", timeout_s=10)
            [report] = reply.tasks
            assert report.state == "COMPLETED"
            assert report.worker_id == "Wlive"
        finally:
            agent.stop()
    silent.close()


def test_a_worker_that_reconnects_mid_task_reports_it_before_registering(monkeypatch):
    # Registering again at once would re-queue T1 and dispatch it back into
    # the busy slot, where it would fail with BUSY.
    monkeypatch.setattr(worker_mod, "RETRY_BASE_S", 0.05)
    server = MasterServer("127.0.0.1", 0, SchedulerConfig(heartbeat_interval_ms=200))
    server.start()
    arrivals = []  # (message type, the sender of its connection)
    deliver = server.core.deliver

    def recording(message, sender):
        arrivals.append((type(message).__name__, sender))
        deliver(message, sender)

    server.core.deliver = recording
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", server.port))
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            task = make_task("sleep", params={"duration_ms": "1500"}, task_id="T1")
            client.submit([task], job_id="J1")
            deadline = time.monotonic() + 5
            while not agent.core.held and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)
            agent._link.sock.shutdown(socket.SHUT_RDWR)
            [report] = client.wait_for_job("J1", timeout_s=10).tasks
    finally:
        agent.stop()
        thread.join(5)
        server.shutdown()
    assert report.state == "COMPLETED"
    assert server.core.scheduler.tasks["T1"].attempt == 0
    worker_messages = [(name, s) for name, s in arrivals if name in ("Register", "Result")]
    assert worker_messages[0][0] == "Register"
    first_connection = worker_messages[0][1]
    assert [name for name, s in worker_messages if s != first_connection] == ["Result", "Register"]


def test_an_idle_worker_that_closes_its_connection_leaves_at_once():
    # Kept until its 3 s liveness window ran out, the worker would take the
    # next task into its closed connection, where it would stay DISPATCHED.
    server = MasterServer("127.0.0.1", 0, SchedulerConfig(heartbeat_interval_ms=1000))
    server.start()
    try:
        FakeWorkerConn(server.port).close()
        workers = server.core.scheduler.workers
        deadline = time.monotonic() + 1.0  # one heartbeat interval
        while "W1" in workers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert "W1" not in workers
        with MasterClient("127.0.0.1", server.port) as client:
            client.submit([make_task("noop", requires_gpu=True, task_id="T1")], job_id="J1")
            progress = client.job_progress("J1")
        assert (progress.queued, progress.dispatched) == (1, 0)
    finally:
        server.shutdown()


def test_a_closed_connection_removes_its_worker_only_when_idle():
    # A busy worker stays, so that its task is re-queued if it never comes
    # back, and completes if its RESULT arrives on a new connection.
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)
    busy, idle = [], []
    core.deliver(Register(worker_id="Wbusy", cpu_mhz=2400, has_gpu=False), busy.append)
    core.deliver(Register(worker_id="Widle", cpu_mhz=2000, has_gpu=False), idle.append)
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), idle.append)
    assert core.scheduler.tasks["T1"].assigned_worker == "Wbusy"
    core.connection_closed(busy.append)
    core.connection_closed(idle.append)
    assert list(core.scheduler.workers) == ["Wbusy"]


def test_a_closed_connection_drops_only_its_own_waits():
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)
    worker, gone, kept = [], [], []
    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), worker.append)
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), kept.append)
    core.deliver(JobWait(job_id="J1"), gone.append)
    core.deliver(JobWait(job_id="J1"), kept.append)
    core.connection_closed(gone.append)
    assert [wait.sender for wait in core._waits] == [kept.append]
    core.deliver(Result(task_id="T1", worker_id="W1", status="OK", exec_ms=0, output_b64=""), worker.append)
    assert gone == []
    assert kept[-1] == JobProgressReply(job_id="J1", queued=0, dispatched=0, completed=1, failed=0)
    assert core._waits == []


def test_a_dispatch_that_fails_to_send_is_one_warning_naming_task_and_worker(caplog):
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)

    def sender(message):
        if isinstance(message, Dispatch):
            raise ConnectionError("connection closed")

    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), sender)
    caplog.set_level(logging.WARNING, logger="taskgrid.master")
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), sender)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.exc_info is None
    assert "T1" in record.getMessage() and "W1" in record.getMessage()


@pytest.mark.parametrize(
    ("error", "level"),
    [(ConnectionError("connection closed"), logging.WARNING), (RuntimeError("bug"), logging.ERROR)],
    ids=["connection-lost", "sender-bug"],
)
def test_a_dispatch_that_fails_to_send_logs_task_worker_and_attempt(caplog, error, level):
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)

    def sender(message):
        if isinstance(message, Dispatch):
            raise error

    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), sender)
    caplog.set_level(logging.WARNING, logger="taskgrid.master")
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), sender)
    assert [(r.levelno, r.task_id, r.worker_id, r.attempt) for r in caplog.records] == [(level, "T1", "W1", 0)]


def test_registration_duplicate_and_close_records_carry_the_ids_they_name(caplog):
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)
    sent = []
    caplog.set_level(logging.INFO, logger="taskgrid.master")
    core.deliver(Register(worker_id="W0", cpu_mhz=0, has_gpu=False), sent.append)
    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), sent.append)
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), sent.append)
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), sent.append)
    core.deliver(Result(task_id="T1", worker_id="W1", status="OK", exec_ms=0, output_b64=""), sent.append)
    core.connection_closed(sent.append)
    records = [
        (r.getMessage().split(":")[0], getattr(r, "worker_id", None), getattr(r, "task_id", None))
        for r in caplog.records
    ]
    assert records == [
        ("rejected registration from W0", "W0", None),
        ("registered worker W1 (2400 MHz, cpu)", "W1", None),
        ("rejected duplicate task id T1", None, "T1"),
        ("worker W1 closed its connection", "W1", None),
    ]


def test_a_waiter_that_cannot_be_answered_is_dropped_quietly(caplog):
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)
    worker, answered = [], []

    def gone(message):
        raise ConnectionError("connection closed")

    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), worker.append)
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), answered.append)
    core.deliver(JobWait(job_id="J1"), gone)
    core.deliver(JobWait(job_id="J1"), answered.append)
    caplog.set_level(logging.DEBUG, logger="taskgrid.master")
    core.deliver(Result(task_id="T1", worker_id="W1", status="OK", exec_ms=0, output_b64=""), worker.append)
    assert caplog.records == []
    assert answered[-1] == JobProgressReply(job_id="J1", queued=0, dispatched=0, completed=1, failed=0)
    assert core._waits == []


class _ResetPeer:
    """A peer that has reset its connection, so every send fails; it is
    also the selector its :class:`Connection` registers with."""

    def __init__(self, chunk=b""):
        self._chunk = chunk

    def recv(self, bufsize):
        chunk, self._chunk = self._chunk, b""
        return chunk

    def send(self, data):
        raise ConnectionResetError("connection reset by peer")

    def _ignore(self, *args):
        pass

    setblocking = register = modify = unregister = close = _ignore


def test_no_line_is_delivered_after_a_failed_reply_closes_the_connection():
    # The HEARTBEAT's ack fails to send and closes the connection; the
    # REGISTER read with it must not make a worker whose dispatches are lost.
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)
    chunk = protocol.encode(Heartbeat(worker_id="W1", ts_ms=0, busy=False)) + protocol.encode(
        Register(worker_id="W1", cpu_mhz=2400, has_gpu=False)
    )
    conn = Connection(_ResetPeer(chunk), _ResetPeer(), core)
    conn.read()
    assert conn.closed
    assert "W1" not in core.scheduler.workers
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), lambda m: None)
    assert core.scheduler.tasks["T1"].state is TaskState.QUEUED


# -- the timer rule ---------------------------------------------------------------


def _timed_core(clock, **config):
    return MasterCore(SchedulerConfig(heartbeat_interval_ms=1000, **config), clock=lambda: clock[0])


def test_next_due_is_the_earlier_of_the_tick_and_the_earliest_deadline():
    clock = [0]
    core = _timed_core(clock)
    replies = []
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), replies.append)
    assert core.next_due_ms() == 1000  # the first tick
    core.deliver(JobWait(job_id="J1"), replies.append)  # no deadline
    core.deliver(JobWait(job_id="J1", timeout_ms=1500), replies.append)
    assert core.next_due_ms() == 1000
    core.deliver(JobWait(job_id="J1", timeout_ms=400), replies.append)
    assert core.next_due_ms() == 400
    clock[0] = 399
    assert not core.run_due()
    assert len(replies) == 1  # the SUBMIT_ACK
    clock[0] = 400
    assert core.run_due()
    assert replies[1:] == [JobProgressReply(job_id="J1", queued=1, dispatched=0, completed=0, failed=0)]
    assert core.next_due_ms() == 1000
    clock[0] = 1000
    assert core.run_due()
    assert core.next_due_ms() == 1500
    clock[0] = 1500
    assert core.run_due()
    assert len(replies) == 3
    assert core.next_due_ms() == 2000  # the wait with no deadline counts for nothing


def test_a_result_answers_only_the_waits_on_the_job_it_ends():
    clock = [0]
    core = _timed_core(clock)
    worker, submitter, on_j1, on_j2, late = [], [], [], [], []
    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), worker.append)
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), submitter.append)
    core.deliver(Submit(job_id="J2", tasks=(make_task("noop", task_id="T2"),)), submitter.append)
    core.deliver(JobWait(job_id="J1"), on_j1.append)
    core.deliver(JobWait(job_id="J2", timeout_ms=800), on_j2.append)
    assert on_j1 == on_j2 == []
    clock[0] = 100
    core.deliver(Result(task_id="T1", worker_id="W1", status="OK", exec_ms=0, output_b64=""), worker.append)
    assert on_j1 == [JobProgressReply(job_id="J1", queued=0, dispatched=0, completed=1, failed=0)]
    assert on_j2 == []
    assert core.next_due_ms() == 800
    # A wait on a job that is already terminal is not parked.
    core.deliver(JobWait(job_id="J1", timeout_ms=50), late.append)
    assert late == on_j1
    assert core.next_due_ms() == 800
    clock[0] = 800
    assert core.run_due()
    assert on_j2 == [JobProgressReply(job_id="J2", queued=0, dispatched=1, completed=0, failed=0)]
    assert core.next_due_ms() == 1000


def test_waits_answered_in_one_pass_go_out_in_parking_order():
    clock = [0]
    core = _timed_core(clock)
    answered = []
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), lambda m: None)
    core.deliver(Submit(job_id="J2", tasks=(make_task("noop", task_id="T2"),)), lambda m: None)
    for name, job_id, timeout_ms in [("a", "J1", 600), ("b", "J2", 300), ("c", "J1", None), ("d", "J2", 500)]:
        core.deliver(JobWait(job_id=job_id, timeout_ms=timeout_ms), lambda m, name=name: answered.append(name))
    clock[0] = 600
    assert core.run_due()  # a, b and d expire together; c has no deadline
    assert answered == ["a", "b", "d"]
    assert core.next_due_ms() == 1000
    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), lambda m: None)
    core.deliver(Result(task_id="T1", worker_id="W1", status="OK", exec_ms=0, output_b64=""), lambda m: None)
    assert answered == ["a", "b", "d", "c"]
    assert core._waits == []


def test_a_wait_whose_deadline_has_passed_is_answered_in_its_handler():
    clock = [0]
    core = _timed_core(clock)
    tasks = (make_task("noop", task_id="T1"), make_task("noop", task_id="T2"))
    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), lambda m: None)
    core.deliver(Submit(job_id="J1", tasks=tasks), lambda m: None)
    for timeout_ms in (0, -1):
        replies = []
        core.deliver(JobWait(job_id="J1", timeout_ms=timeout_ms), replies.append)
        [reply] = replies
        assert isinstance(reply, JobProgressReply)
        assert (reply.queued, reply.dispatched) == (1, 1)
    assert core._waits == []
    assert core.next_due_ms() == 1000  # the eviction tick
    replies = []
    core.deliver(JobWait(job_id="nope", timeout_ms=0), replies.append)
    assert replies == [ErrorReply(code="UNKNOWN_JOB", detail="nope")]


def test_a_wait_with_one_ms_left_is_parked_until_its_deadline():
    clock = [0]
    core = _timed_core(clock)
    replies = []
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), lambda m: None)
    core.deliver(JobWait(job_id="J1", timeout_ms=1), replies.append)
    assert replies == []
    assert core.next_due_ms() == 1
    clock[0] = 1
    assert core.run_due()
    assert replies == [JobProgressReply(job_id="J1", queued=1, dispatched=0, completed=0, failed=0)]
    assert core._waits == []


def test_a_wait_answered_in_its_handler_leaves_the_waits_parked_on_its_job():
    clock = [0]
    core = _timed_core(clock)
    parked, answered = [], []
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), lambda m: None)
    core.deliver(JobWait(job_id="J1", timeout_ms=500), parked.append)
    core.deliver(JobWait(job_id="J1", timeout_ms=0), answered.append)
    progress = JobProgressReply(job_id="J1", queued=1, dispatched=0, completed=0, failed=0)
    assert (parked, answered) == ([], [progress])
    assert core.next_due_ms() == 500
    clock[0] = 500
    assert core.run_due()
    assert (parked, answered) == ([progress], [progress])
    assert core._waits == []


def test_many_parked_waits_are_released_in_one_pass():
    # One wait per `del` from the sorted parked list is quadratic: 100k
    # waits on one job took ~1.1-1.4 s to release by a RESULT, a close
    # or their deadline (in process, 2-vCPU VM); one pass takes 24-37 ms.
    clock = [0]
    count = 100_000

    def parked(timeout_ms):
        core = _timed_core(clock)
        core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), lambda m: None)
        core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), lambda m: None)
        replies = []
        for _ in range(count):
            core.deliver(JobWait(job_id="J1", timeout_ms=timeout_ms), replies.append)
        return core, replies

    def timed(release):
        t0 = time.perf_counter()
        release()
        return time.perf_counter() - t0

    seconds = {}
    core, replies = parked(None)
    result = Result(task_id="T1", worker_id="W1", status="OK", exec_ms=0, output_b64="")
    seconds["result"] = timed(lambda: core.deliver(result, lambda m: None))
    assert replies == [JobProgressReply(job_id="J1", queued=0, dispatched=0, completed=1, failed=0)] * count
    assert (core._waits, core._job_waits) == ([], {})
    core, replies = parked(None)
    seconds["close"] = timed(lambda: core.connection_closed(replies.append))
    assert (replies, core._waits, core._job_waits) == ([], [], {})
    core, replies = parked(500)
    clock[0] = 500
    seconds["deadline"] = timed(core.run_due)
    assert replies == [JobProgressReply(job_id="J1", queued=0, dispatched=1, completed=0, failed=0)] * count
    assert (core._waits, core._job_waits) == ([], {})
    assert max(seconds.values()) < 0.5, seconds


def test_a_tick_that_raises_has_already_been_re_armed():
    clock = [0]
    core = _timed_core(clock)
    evicted_at = []

    def evict_stale(now_ms):
        evicted_at.append(now_ms)
        raise RuntimeError("eviction failed")

    core.scheduler.evict_stale = evict_stale
    clock[0] = 1000
    with pytest.raises(RuntimeError):
        core.run_due()
    assert core.next_due_ms() == 2000
    clock[0] = 1999
    assert not core.run_due()
    clock[0] = 2000
    with pytest.raises(RuntimeError):
        core.run_due()
    assert evicted_at == [1000, 2000]


def test_a_deadline_and_a_tick_due_in_the_same_ms_are_served_by_one_call_waits_first():
    clock = [0]
    core = _timed_core(clock, unschedulable_timeout_ms=500)
    replies = []
    # No GPU worker: the tick at 1000 fails T1, which ends the job.
    task = make_task("noop", requires_gpu=True, task_id="T1")
    core.deliver(Submit(job_id="J1", tasks=(task,)), replies.append)
    core.deliver(JobWait(job_id="J1", timeout_ms=1000), replies.append)
    clock[0] = 1000
    assert core.run_due()
    # The deadline is answered with the counts from before the tick.
    assert replies[1:] == [JobProgressReply(job_id="J1", queued=1, dispatched=0, completed=0, failed=0)]
    assert core.scheduler.tasks["T1"].state is TaskState.FAILED
    assert core.next_due_ms() == 2000


def test_a_tick_that_raises_is_logged_and_the_loop_keeps_ticking(caplog):
    server = MasterServer("127.0.0.1", 0, SchedulerConfig(heartbeat_interval_ms=20))
    evicted = threading.Semaphore(0)

    def evict_stale(now_ms):
        evicted.release()
        raise RuntimeError("eviction failed")

    server.core.scheduler.evict_stale = evict_stale
    serving = server.start()
    try:
        assert evicted.acquire(timeout=5) and evicted.acquire(timeout=5)
    finally:
        server.shutdown()
        serving.join(10)
    assert not serving.is_alive()
    failures = [r for r in caplog.records if r.getMessage() == "eviction tick failed"]
    assert len(failures) >= 2 and failures[0].exc_info is not None


def test_state_dump(tmp_path):
    server = MasterServer("127.0.0.1", 0, SchedulerConfig(heartbeat_interval_ms=200))
    server_thread = server.start()
    worker = FakeWorkerConn(server.port)
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            client.submit([make_task("noop", requires_gpu=True, task_id="T1")], job_id="J1")
            dispatch = worker.read()
            worker.send(
                Result(
                    task_id=dispatch.task_id,
                    worker_id=worker.worker_id,
                    status="OK",
                    exec_ms=1,
                    output_b64="",
                )
            )
            client.wait_for_job("J1", timeout_s=5)
    finally:
        # dump_state reads the core without the loop, so the loop must be done.
        server.shutdown()
        server_thread.join(5)
        worker.close()
    assert not server_thread.is_alive()

    path = tmp_path / "state.ndjson"
    server.dump_state(str(path))
    lines = path.read_bytes().splitlines()
    assert len(lines) == 1
    reply = protocol.decode(lines[0])
    assert isinstance(reply, JobStatusReply)
    assert reply.job_id == "J1"
    assert reply.tasks[0].state == "COMPLETED"


def test_bind_conflict_raises():
    srv = MasterServer("127.0.0.1", 0, SchedulerConfig())
    try:
        with pytest.raises(OSError):
            MasterServer("127.0.0.1", srv.port, SchedulerConfig())
    finally:
        srv.shutdown()


def test_a_server_shut_down_before_serving_closes_its_sockets():
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    server.shutdown()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        del server
        gc.collect()
    assert [w.message for w in caught if w.category is ResourceWarning] == []


def test_serve_forever_after_shutdown_returns_at_once():
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    server.shutdown()
    thread = server.start()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_alternating_noop_stress_completes_every_task():
    # Back-to-back tasks race each agent's executor thread (which frees
    # the slot and sends the RESULT) against its reader thread (which
    # takes the next DISPATCH); a lost race fails a task with BUSY.
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    server.start()
    agents = [
        WorkerAgent(Register(worker_id=wid, cpu_mhz=2000, has_gpu=gpu), ("127.0.0.1", server.port), lane_count=1)
        for wid, gpu in (("Wgpu", True), ("Wcpu", False))
    ]
    threads = [threading.Thread(target=agent.run, daemon=True) for agent in agents]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        tasks = [make_task("noop", requires_gpu=i % 2 == 0) for i in range(2000)]
        with MasterClient("127.0.0.1", server.port) as client:
            ack = client.submit(tasks, job_id="stress")
            assert ack.accepted_count == 2000
            reply = client.wait_for_job("stress", timeout_s=120)
    finally:
        sys.setswitchinterval(switch_interval)
        for agent in agents:
            agent.stop()
        server.shutdown()
        for thread in threads:
            thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    failed = [task for task in reply.tasks if task.state != "COMPLETED"]
    assert len(reply.tasks) == 2000 and failed == []
    assert {task.worker_id for task in reply.tasks} == {"Wgpu", "Wcpu"}


def test_a_worker_that_stops_reading_holds_up_only_its_own_connection():
    # The worker registers, then keeps beating but never reads again, so
    # its large DISPATCH cannot leave the master; the master must still
    # answer everyone else. The default 6 s liveness window keeps a slow
    # 32 MiB decode from evicting the worker.
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    serving = server.start()
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(5.0)
    sock.connect(("127.0.0.1", server.port))
    sock.sendall(protocol.encode(Register(worker_id="Wwedged", cpu_mhz=2400, has_gpu=True)))
    framer = protocol.LineFramer()
    lines = []
    while not lines:
        chunk = sock.recv(4096)
        assert chunk, "master closed the connection"
        lines.extend(framer.feed(chunk))
    ack = protocol.decode(lines[0])
    assert isinstance(ack, RegisterAck) and ack.accepted

    stop = threading.Event()

    def beat():
        ts = 0
        while not stop.wait(0.05):
            ts += 1
            try:
                sock.sendall(
                    protocol.encode(protocol.Heartbeat(worker_id="Wwedged", ts_ms=ts, busy=True))
                )
            except OSError:
                return

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        with MasterClient("127.0.0.1", server.port) as client, MasterClient(
            "127.0.0.1", server.port
        ) as other:
            client._link.sock.settimeout(5.0)
            other._link.sock.settimeout(5.0)
            task = make_task("noop", payload=bytes(32 << 20), requires_gpu=True, task_id="T1")
            assert client.submit([task], job_id="J1").accepted_count == 1
            assert other.job_progress("J1").dispatched == 1
    finally:
        stop.set()
        beater.join(5)
        sock.close()
        server.shutdown()
        serving.join(5)


def test_a_client_that_never_reads_is_closed_at_the_unsent_cap(monkeypatch, caplog):
    # Each JOB_STATUS the client sends queues one more copy of the job's
    # 175 KB output for it; the master must close that client at the cap
    # (lowered here to keep the test small) and keep serving the others.
    cap = 1 << 20
    monkeypatch.setattr(master_mod, "MAX_UNSENT_BYTES", cap, raising=False)
    caplog.set_level(logging.WARNING, logger="taskgrid.master")
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    serving = server.start()
    worker = FakeWorkerConn(server.port)
    hog = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    hog.settimeout(5.0)

    def run_task(client, task_id):
        client.submit([make_task("noop", requires_gpu=True, task_id=task_id)], job_id=task_id)
        assert worker.read().task_id == task_id
        output_b64 = protocol.to_b64(bytes(range(256)) * 512)
        worker.send(Result(task_id=task_id, worker_id="W1", status="OK", exec_ms=1, output_b64=output_b64))
        [report] = client.wait_for_job(task_id, timeout_s=5).tasks
        assert report.state == "COMPLETED"

    def closings():
        return [r for r in caplog.records if r.getMessage().startswith("closing connection")]

    try:
        with MasterClient("127.0.0.1", server.port) as client:
            run_task(client, "T1")
            hog.connect(("127.0.0.1", server.port))
            hog_port = hog.getsockname()[1]
            hog.sendall(protocol.encode(JobStatus(job_id="T1")) * 200)
            deadline = time.monotonic() + 5
            while not closings() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert closings(), "the master kept queueing replies nobody reads"
            run_task(client, "T2")
            # The hog reads what the kernel held for it, then the end.
            with contextlib.suppress(ConnectionResetError):
                while hog.recv(1 << 16):
                    pass
    finally:
        hog.close()
        worker.close()
        server.shutdown()
        serving.join(5)
    [record] = closings()
    peer, unsent, size = record.args[:3]
    assert peer == "127.0.0.1:%d" % hog_port and unsent + size > cap >= unsent


def test_a_status_reply_over_the_line_cap_is_an_error_and_the_connection_stays(server, monkeypatch, caplog, capsys, tmp_path):
    # Each 2 KiB output fits its RESULT line under a 4 KiB cap, which
    # stands in for 64 MiB; the status reply holding three does not, and
    # the client's framer would have to refuse it.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    caplog.set_level(logging.WARNING, logger="taskgrid.master")
    registry = ExecutorRegistry()
    registry.register("blob", lambda params, payload: (bytes(2048), 0))
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", server.port), registry=registry)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    try:
        argv = ["submit", "--master", f"127.0.0.1:{server.port}", "--kind", "blob", "--count", "3", "--outdir", str(tmp_path)]
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"REPLY_TOO_LARGE: JobStatusReply of \d+ bytes exceeds line cap 4096", line), line
        with MasterClient("127.0.0.1", server.port) as client:
            client.submit([make_task("blob", task_id=f"T{i}") for i in range(3)], job_id="J1")
            with pytest.raises(ClientError, match="REPLY_TOO_LARGE"):
                client.wait_for_job("J1", timeout_s=10)
            peer = "%s:%d" % client._link.sock.getsockname()[:2]
            # The same connection still answers.
            assert client.job_progress("J1").completed == 3
    finally:
        agent.stop()
        thread.join(10)
    warnings = [r.getMessage() for r in caplog.records if "REPLY_TOO_LARGE" in r.getMessage()]
    assert len(warnings) == 2 and warnings[1].startswith(f"sending REPLY_TOO_LARGE to {peer}: JobStatusReply of ")


def test_a_result_the_encoder_refuses_fails_its_task_once_and_frees_the_agent(server, refused_result):
    # Refused unsent, after the slot was freed, the RESULT would leave its
    # task DISPATCHED for ever and the beating agent idle with no work.
    executor, error = refused_result
    registry = built_in_registry()
    registry.register("refused", executor)
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", server.port), registry=registry)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            client.submit([make_task("refused", task_id="T1")], job_id="J1")
            [report] = client.wait_for_job("J1", timeout_s=10).tasks
            assert (report.state, report.error) == ("FAILED", error)
            assert server.core.scheduler.tasks["T1"].attempt == 0
            client.submit([make_task("noop", task_id="T2")], job_id="J2")
            [report] = client.wait_for_job("J2", timeout_s=10).tasks
            assert (report.state, report.worker_id) == ("COMPLETED", "W1")
    finally:
        agent.stop()
        thread.join(10)


def test_a_line_json_loads_refuses_is_an_error_and_the_connection_stays(server, json_refused_line):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    with sock:
        sock.sendall(json_refused_line + b"\n" + protocol.encode(JobStatus(job_id="J-none")))
        framer, replies = protocol.LineFramer(), []
        while len(replies) < 2:
            chunk = sock.recv(65536)
            assert chunk, "master closed the connection"
            replies += [protocol.decode(line) for line in framer.feed(chunk)]
    assert [reply.code for reply in replies] == ["PROTOCOL_ERROR", "UNKNOWN_JOB"]
    assert replies[0].detail.startswith("malformed JSON: ")


def test_an_over_cap_submit_is_refused_before_any_byte_and_the_link_stays_usable(server, monkeypatch):
    # A 4 KiB cap stands in for 64 MiB; the master's framer keeps the
    # real cap, so only the client's own check can refuse the line.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    with MasterClient("127.0.0.1", server.port) as client:
        with pytest.raises(protocol.LineTooLarge, match=r"^Submit of \d+ bytes exceeds line cap 4096$"):
            client.submit([make_task("noop", payload=bytes(8192), task_id="T1")], job_id="J1")
        ack = client.submit([make_task("noop", task_id="T2")], job_id="J2")
        assert ack.accepted_count == 1
        assert client.job_status("J2").tasks[0].task_id == "T2"
    with MasterClient("127.0.0.1", server.port) as client:
        with pytest.raises(ClientError, match="UNKNOWN_JOB: J1"):
            client.job_status("J1")


_LONG = "\u00e9" * (4 * 1024 * 1024)  # 8 MiB of UTF-8, 24 MiB as \uXXXX escapes


@pytest.mark.parametrize(
    "line, detail",
    [
        ('{"type":"%s"}' % _LONG, "unknown message type '%s... (%d characters)" % (_LONG[:63], len(_LONG) + 2)),
        (
            '{"type":"JOB_STATUS","job_id":"J1","%s":1}' % _LONG,
            "unknown field %s... (%d characters) in JOB_STATUS" % (_LONG[:64], len(_LONG)),
        ),
        ('{"type":"JOB_STATUS","job_id":"%s"}' % _LONG, "%s... (%d characters)" % (_LONG[:64], len(_LONG))),
    ],
    ids=["type", "unknown-field", "unknown-job"],
)
def test_an_error_reply_quotes_a_bounded_part_of_the_peers_text(server, line, detail):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    try:
        sock.settimeout(10.0)
        sock.sendall(line.encode("utf-8") + b"\n")
        framer = protocol.LineFramer()
        while not (lines := framer.feed(sock.recv(65536))):
            pass
    finally:
        sock.close()
    [reply_line] = lines
    assert len(reply_line) < 1024
    reply = protocol.decode(reply_line)
    assert isinstance(reply, ErrorReply) and reply.detail == detail


def test_a_completed_transition_sees_the_output_of_its_result():
    seen = []

    def record(task, from_state, to_state, now_ms):
        if to_state is TaskState.COMPLETED:
            seen.append((task.task_id, task.output_b64))

    core = MasterCore(SchedulerConfig(), clock=lambda: 0, on_transition=record)
    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), lambda m: None)
    core.deliver(Submit(job_id="J1", tasks=(make_task("noop", task_id="T1"),)), lambda m: None)
    core.deliver(Result(task_id="T1", worker_id="W1", status="OK", exec_ms=1, output_b64="AQID"), lambda m: None)
    assert seen == [("T1", "AQID")]


def test_a_32_mib_task_reaches_a_beating_worker_without_an_eviction(server, caplog):
    # A 600 ms liveness window: the master's passes over the 44.7 MB
    # SUBMIT and DISPATCH lines must leave the worker's beats counted in
    # time, and the task must run on its first dispatch.
    caplog.set_level(logging.WARNING, logger="taskgrid.scheduler")
    agent = WorkerAgent(Register(worker_id="Wbig", cpu_mhz=2400, has_gpu=True), ("127.0.0.1", server.port))
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            task = make_task("noop", payload=bytes(32 << 20), requires_gpu=True, task_id="T1")
            assert client.submit([task], job_id="J1").accepted_count == 1
            del task
            [report] = client.wait_for_job("J1", timeout_s=30).tasks
    finally:
        agent.stop()
        thread.join(10)
    assert (report.state, report.worker_id) == ("COMPLETED", "Wbig")
    assert [r.getMessage() for r in caplog.records if "evicting" in r.getMessage()] == []


def test_the_master_serves_every_peer_on_the_thread_start_returned():
    before = set(threading.enumerate())
    server = MasterServer("127.0.0.1", 0, SchedulerConfig(heartbeat_interval_ms=200))
    serving = server.start()
    agents = [
        WorkerAgent(Register(worker_id=wid, cpu_mhz=2000, has_gpu=gpu), ("127.0.0.1", server.port))
        for wid, gpu in (("Wgpu", True), ("Wcpu", False))
    ]
    threads = [threading.Thread(target=agent.run, daemon=True) for agent in agents]
    for thread in threads:
        thread.start()
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            tasks = [make_task("noop", requires_gpu=gpu) for gpu in (True, False)]
            ack = client.submit(tasks, job_id="J1")
            reply = client.wait_for_job(ack.job_id, timeout_s=10)
            assert [task.state for task in reply.tasks] == ["COMPLETED"] * 2
            new_threads = set(threading.enumerate()) - before
            masters = [t for t in new_threads if t.name.startswith("master-")]
            assert masters == [serving]
    finally:
        for agent in agents:
            agent.stop()
        server.shutdown()
        for thread in threads + [serving]:
            thread.join(10)
    assert not any(thread.is_alive() for thread in threads + [serving])


# -- workers that hold two tasks ------------------------------------------------------


class _StubSocket:
    """A peer's socket for a master :class:`Connection`, with no selector
    behind it. ``recv`` hands over ``inbound`` as one chunk, whatever its
    size; ``send`` would block until ``draining`` is set, so everything
    the master sends before then stays queued on it."""

    def __init__(self, inbound=b"", draining=False):
        self.inbound = inbound
        self.draining = draining
        self.received = bytearray()

    def recv(self, bufsize):
        if not self.inbound:
            raise BlockingIOError
        chunk, self.inbound = self.inbound, b""
        return chunk

    def send(self, data):
        if not self.draining:
            raise BlockingIOError
        self.received += data
        return len(data)

    def _ignore(self, *args):
        pass

    setblocking = register = modify = unregister = close = _ignore


def _stub_connection(core, **kwargs):
    sock = _StubSocket(**kwargs)
    return sock, Connection(sock, sock, core)


def test_two_near_cap_dispatches_queued_to_a_two_slot_worker_both_arrive(monkeypatch):
    # A 4 KiB line cap stands in for 64 MiB, and the unsent cap is scaled
    # with it. The worker reads nothing until both DISPATCHes are queued.
    monkeypatch.setattr(master_mod, "MAX_UNSENT_BYTES", master_mod.MAX_UNSENT_BYTES * 4096 // protocol.MAX_LINE_BYTES)
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)
    sock, conn = _stub_connection(core)
    core.deliver(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False, slots=2), conn.send)
    bare = len(protocol.encode(make_task("noop", task_id="T1"))) - 1
    payload_b64 = "A" * ((4096 - bare) // 4 * 4)
    for task_id in ("T1", "T2"):
        task = Dispatch(task_id=task_id, kind="noop", requires_gpu=False, payload_b64=payload_b64)
        core.deliver(Submit(job_id=task_id, tasks=(task,)), lambda reply: None)
    assert core.scheduler.workers["W1"].held == ["T1", "T2"]
    assert not conn.closed
    sock.draining = True
    conn.flush()
    lines = protocol.LineFramer().feed(bytes(sock.received))
    assert [type(protocol.decode(line)).__name__ for line in lines] == ["RegisterAck", "Dispatch", "Dispatch"]
    assert all(4093 <= len(line) <= 4096 for line in lines[1:])
    assert not conn.closed


def test_a_submit_line_is_released_before_its_message_is_delivered():
    # Four one-slot workers that read nothing: delivering the SUBMIT
    # queues each of them a DISPATCH, a copy of one payload. The line's
    # buffer must be gone by then, so that the peak holds the line and its
    # payloads, or the payloads and their copies, but never all three.
    core = MasterCore(SchedulerConfig(), clock=lambda: 0)
    workers = [_stub_connection(core)[1] for _ in range(4)]
    for i, conn in enumerate(workers):
        core.deliver(Register(worker_id=f"W{i}", cpu_mhz=2400, has_gpu=False), conn.send)
    tasks = tuple(make_task("noop", payload=bytes(1 << 20), task_id=f"T{i}") for i in range(4))
    line = protocol.encode(Submit(job_id="J1", tasks=tasks))
    payload_bytes = sum(len(task.payload_b64) for task in tasks)
    del tasks
    _, client = _stub_connection(core, inbound=line, draining=True)
    tracemalloc.start()
    try:
        client.read()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [profile.held for profile in core.scheduler.workers.values()] == [[f"T{i}"] for i in range(4)]
    assert not any(conn.closed for conn in workers)
    assert peak <= len(line) + payload_bytes + (256 << 10), (peak, len(line), payload_bytes)


def test_a_cli_worker_is_sent_its_next_task_while_it_runs_one(server):
    rng = random.Random(35)
    images = [GrayImage(64, 48, bytes(rng.randrange(256) for _ in range(64 * 48))) for _ in range(3)]
    tasks = [make_task("sleep", params={"duration_ms": "300"}, task_id="T0")]
    tasks += [make_task("sobel_seq", payload=write_pgm(img), task_id=f"T{i}") for i, img in enumerate(images, 1)]
    worker = subprocess.Popen(
        [sys.executable, "-m", "taskgrid.cli", "worker", "--master", f"127.0.0.1:{server.port}",
         "--id", "Wcli", "--mhz", "2400", "--lanes", "1"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        with MasterClient("127.0.0.1", server.port) as client:
            client.submit(tasks, job_id="J1")
            reports = client.wait_for_job("J1", timeout_s=60).tasks
    finally:
        worker.terminate()
        worker.wait(timeout=10)
    assert [(report.state, report.worker_id) for report in reports] == [("COMPLETED", "Wcli")] * 4
    # T1 went out while T0 ran, so it was at the worker when T0's RESULT left.
    assert reports[1].dispatched_ms < reports[0].completed_ms
    for report, img in zip(reports[1:], images):
        assert parse_pgm(protocol.from_b64(report.output_b64)).pixels == brute_force_sobel(img)
