import gc
import socket
import sys
import threading
import time
import warnings

import pytest

from taskgrid import protocol
from taskgrid.client import ClientError, MasterClient, make_task
from taskgrid.master import MasterServer
from taskgrid.protocol import (
    Dispatch,
    ErrorReply,
    HeartbeatAck,
    JobStatusReply,
    Register,
    RegisterAck,
    Result,
)
from taskgrid.scheduler import SchedulerConfig
from taskgrid.worker import WorkerAgent, WorkerConfig


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
        # MasterUnreachable on EOF, or a reset while sending: both OSError.
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


def test_wait_for_job_polls_progress_and_fetches_status_once():
    # The default 6 s liveness window outlasts the test: the fake worker sends no beats.
    server = MasterServer("127.0.0.1", 0, SchedulerConfig())
    server.start()
    seen = _record_request_types(server)

    def check_wait(client, reply, state):
        # Several progress polls, then exactly one status fetch, whose
        # reply is what a direct job_status call returns.
        requests = [name for name in seen if name in ("JobProgress", "JobStatus")]
        assert requests.count("JobProgress") >= 2
        assert requests[-1] == "JobStatus" and requests.count("JobStatus") == 1
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

            # Terminal path: T1's result arrives while the client polls.
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

        config = WorkerConfig(
            worker_id="Wlive",
            master_host="127.0.0.1",
            master_port=server.port,
            cpu_mhz=1000,
            has_gpu=True,
        )
        agent = WorkerAgent(config)
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
        WorkerAgent(
            WorkerConfig(
                worker_id=wid,
                master_host="127.0.0.1",
                master_port=server.port,
                cpu_mhz=2000,
                has_gpu=gpu,
                lane_count=1,
            )
        )
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
            client._sock.settimeout(5.0)
            other._sock.settimeout(5.0)
            task = make_task("noop", payload=bytes(32 << 20), requires_gpu=True, task_id="T1")
            assert client.submit([task], job_id="J1").accepted_count == 1
            assert other.job_progress("J1").dispatched == 1
    finally:
        stop.set()
        beater.join(5)
        sock.close()
        server.shutdown()
        serving.join(5)


def test_the_master_serves_every_peer_on_the_thread_start_returned():
    before = set(threading.enumerate())
    server = MasterServer("127.0.0.1", 0, SchedulerConfig(heartbeat_interval_ms=200))
    serving = server.start()
    agents = [
        WorkerAgent(
            WorkerConfig(
                worker_id=wid, master_host="127.0.0.1", master_port=server.port, cpu_mhz=2000,
                has_gpu=gpu,
            )
        )
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
