import logging
import os
import random
import socket
import sys
import threading
import time

import pytest

import taskgrid.worker as worker_mod
from taskgrid import protocol
from taskgrid.protocol import (
    Dispatch,
    Heartbeat,
    HeartbeatAck,
    Register,
    RegisterAck,
    Result,
)
from taskgrid.sobel import GrayImage, parse_pgm, sobel_sequential, write_pgm
from taskgrid.worker import RegistrationRejected, WorkerAgent, execute_dispatch
from taskgrid.workloads import ExecutorRegistry, built_in_registry


def make_dispatch(kind, payload=b"", params=None, task_id="T1"):
    return Dispatch(
        task_id=task_id,
        kind=kind,
        requires_gpu=False,
        params=params or {},
        payload_b64=protocol.to_b64(payload),
    )


# -- execute_dispatch ------------------------------------------------------------


def test_execute_noop():
    result = execute_dispatch(built_in_registry(), make_dispatch("noop"), "W1")
    assert result.status == "OK"
    assert result.output_b64 == ""
    assert result.exec_ms >= 0


def test_execute_unknown_kind():
    result = execute_dispatch(built_in_registry(), make_dispatch("bogus"), "W1")
    assert result.status == "FAILED"
    assert result.error == "UNKNOWN_KIND"


def test_execute_executor_exception_becomes_failed():
    dispatch = make_dispatch("sleep", params={"duration_ms": "not-a-number"})
    result = execute_dispatch(built_in_registry(), dispatch, "W1")
    assert result.status == "FAILED"
    assert "ValueError" in result.error


def test_execute_sobel_round_trip():
    img = GrayImage(4, 3, bytes(range(12)))
    dispatch = make_dispatch("sobel_seq", payload=write_pgm(img))
    result = execute_dispatch(built_in_registry(), dispatch, "W1")
    assert result.status == "OK"
    out = parse_pgm(protocol.from_b64(result.output_b64))
    assert out == sobel_sequential(img)


def test_execute_is_deterministic():
    img = GrayImage(6, 6, bytes(range(36)))
    dispatch = make_dispatch("sobel_par", payload=write_pgm(img), params={"lane_count": "3"})
    a = execute_dispatch(built_in_registry(), dispatch, "W1")
    b = execute_dispatch(built_in_registry(), dispatch, "W1")
    assert a.output_b64 == b.output_b64


def test_exec_ms_is_within_total_handler_time():
    img = GrayImage(64, 64, bytes(i % 256 for i in range(64 * 64)))
    dispatch = make_dispatch("sobel_seq", payload=write_pgm(img))
    t0 = time.perf_counter_ns()
    result = execute_dispatch(built_in_registry(), dispatch, "W1")
    wall_ms = (time.perf_counter_ns() - t0) // 1_000_000
    assert 0 <= result.exec_ms <= wall_ms


# -- agent against a scripted master ----------------------------------------------


class ScriptedMaster:
    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.conn = None
        self._framer = protocol.LineFramer()
        self._pending = []

    def accept(self, timeout=5.0):
        self.listener.settimeout(timeout)
        self.conn, _ = self.listener.accept()
        self.conn.settimeout(5.0)
        self._framer = protocol.LineFramer()
        self._pending = []

    def read(self):
        while not self._pending:
            chunk = self.conn.recv(65536)
            if not chunk:
                raise AssertionError("agent closed the connection")
            self._pending.extend(protocol.decode(line) for line in self._framer.feed(chunk))
        return self._pending.pop(0)

    def read_until(self, cls, limit=50):
        for _ in range(limit):
            message = self.read()
            if isinstance(message, cls):
                return message
        raise AssertionError(f"no {cls.__name__} within {limit} messages")

    def send(self, message):
        self.conn.sendall(protocol.encode(message))

    def close(self):
        if self.conn is not None:
            self.conn.close()
        self.listener.close()


@pytest.fixture
def scripted():
    master = ScriptedMaster()
    agents = []

    def start_agent(interval_ms=60000):
        agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", master.port))
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        agents.append(agent)
        master.accept()
        register = master.read_until(Register)
        master.send(RegisterAck(accepted=True, heartbeat_interval_ms=interval_ms))
        return agent, register

    yield master, start_agent
    for agent in agents:
        agent.stop()
    master.close()


def test_agent_registers_and_executes(scripted):
    master, start_agent = scripted
    _, register = start_agent()
    assert register == Register(worker_id="W1", cpu_mhz=2400, has_gpu=False)
    master.send(make_dispatch("noop"))
    result = master.read_until(Result)
    assert result.status == "OK"
    assert result.worker_id == "W1"
    assert result.task_id == "T1"


def test_agent_heartbeats_mid_execution(scripted):
    master, start_agent = scripted
    start_agent(interval_ms=50)
    master.send(make_dispatch("sleep", params={"duration_ms": "400"}))
    saw_busy = False
    while True:
        message = master.read()
        if isinstance(message, Heartbeat):
            if message.busy:
                saw_busy = True
            master.send(HeartbeatAck(status="OK"))
        elif isinstance(message, Result):
            assert message.status == "OK"
            break
    assert saw_busy


def test_agent_rejects_dispatch_while_busy(scripted):
    master, start_agent = scripted
    start_agent()
    master.send(make_dispatch("sleep", params={"duration_ms": "500"}, task_id="T-long"))
    time.sleep(0.1)
    master.send(make_dispatch("noop", task_id="T-second"))
    result = master.read_until(Result)
    assert result.task_id == "T-second"
    assert result.status == "FAILED"
    assert result.error == "BUSY"
    final = master.read_until(Result)
    assert final.task_id == "T-long"
    assert final.status == "OK"


def test_agent_is_idle_when_its_result_is_sent():
    # The master may dispatch again as soon as it reads a RESULT, so the
    # slot must already be free when the RESULT goes out; otherwise the
    # next DISPATCH can race in and be refused with BUSY.
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", 1))
    sent = []
    delivered = threading.Event()

    def send(message):
        sent.append((message, agent.core.held))
        delivered.set()

    agent._send = send
    agent.core.held = 1  # the slot ``handle`` takes for the DISPATCH
    agent._start_task(make_dispatch("noop"))
    delivered.wait(timeout=5)
    [(result, held_at_send)] = sent
    assert isinstance(result, Result) and result.status == "OK"
    assert held_at_send == 0
    assert agent.core.held == 0


def test_agent_reregisters_on_not_registered(scripted):
    master, start_agent = scripted
    start_agent(interval_ms=50)
    master.read_until(Heartbeat)
    master.send(HeartbeatAck(status="NOT_REGISTERED"))
    register = master.read_until(Register)
    assert register.worker_id == "W1"


def test_agent_terminates_on_rejection():
    master = ScriptedMaster()
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", master.port))
    errors = []

    def run():
        try:
            agent.run()
        except RegistrationRejected as exc:
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    master.accept()
    master.read_until(Register)
    master.send(RegisterAck(accepted=False, heartbeat_interval_ms=0, reason="bad profile"))
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert errors and "bad profile" in str(errors[0])
    master.close()


def test_agent_retries_with_backoff(monkeypatch):
    monkeypatch.setattr(worker_mod, "RETRY_BASE_S", 0.05)
    master = ScriptedMaster()
    port = master.port
    master.close()  # nothing listening yet

    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=1000, has_gpu=False), ("127.0.0.1", port))
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    time.sleep(0.2)  # let a few connection attempts fail

    listener = socket.create_server(("127.0.0.1", port))
    listener.settimeout(5.0)
    conn, _ = listener.accept()
    conn.settimeout(5.0)
    framer = protocol.LineFramer()
    chunk = conn.recv(65536)
    messages = [protocol.decode(line) for line in framer.feed(chunk)]
    assert any(isinstance(m, Register) for m in messages)
    agent.stop()
    conn.close()
    listener.close()


def test_worker_config_validation():
    with pytest.raises(ValueError):
        WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False, gpu_cores=4), ("h", 1))
    with pytest.raises(ValueError):
        WorkerAgent(Register(worker_id="W1", cpu_mhz=0, has_gpu=False), ("h", 1))
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=1, has_gpu=False), ("h", 1))
    assert agent.lane_count >= 1


def test_default_lane_count_is_the_cpus_the_worker_may_run_on(monkeypatch):
    # Pinned to one CPU of a 64-CPU host, a worker runs one lane, not 64.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=1, has_gpu=False), ("h", 1))
    assert agent.lane_count == 1


@pytest.mark.parametrize("gpu", [{"gpu_cores": 0}, {"gpu_mem_mb": -1}])
def test_worker_config_rejects_non_positive_gpu_resources(gpu):
    with pytest.raises(ValueError, match="must be positive"):
        WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=True, **gpu), ("h", 1))


def test_execute_output_that_fails_to_encode_becomes_failed():
    # A str output cannot be base64-encoded; the RESULT must still go out.
    registry = ExecutorRegistry()
    registry.register("text", lambda params, payload: ("text", 0))
    result = execute_dispatch(registry, make_dispatch("text"), "W1")
    assert result.status == "FAILED"
    assert result.error.startswith("TypeError")


@pytest.mark.parametrize("over", [False, True])
def test_an_output_whose_result_line_passes_the_cap_fails_once(over, monkeypatch):
    # The master's framer would refuse the RESULT line and close the
    # connection, and the re-queued task would come back for ever. A cap
    # one byte under the line's size (or at it) stands in for 64 MiB.
    registry = ExecutorRegistry()
    registry.register("blob", lambda params, payload: (bytes(3000), 0))
    dispatch = make_dispatch("blob")
    ok = execute_dispatch(registry, dispatch, "W1")
    size = len(protocol.encode(ok)) - 1
    cap = size - over
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", cap)
    core = worker_mod.WorkerCore(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), registry)
    sent = []

    def send(message):
        protocol.line_parts(message)  # what every sender checks first
        sent.append(message)

    core.handle(dispatch, None, lambda dispatch: None)
    core.finish(core.execute(dispatch), send)
    [result] = sent
    # The rule is the framer's: a line of ``cap`` bytes passes it.
    framer = protocol.LineFramer()
    if over:
        with pytest.raises(protocol.FramingError):
            framer.feed(protocol.encode(ok))
        assert (result.status, result.exec_ms, result.output_b64) == ("FAILED", 0, None)
        assert result.error == f"OUTPUT_TOO_LARGE: {size} bytes exceeds line cap {cap}"
    else:
        assert framer.feed(protocol.encode(ok)) == [protocol.encode(ok)[:-1]]
        assert result == ok


def test_an_output_far_under_the_cap_is_not_encoded_to_size_it(monkeypatch):
    calls = []
    encode_parts = protocol.encode_parts
    monkeypatch.setattr(protocol, "encode_parts", lambda message: calls.append(message) or encode_parts(message))
    registry = ExecutorRegistry()
    registry.register("blob", lambda params, payload: (bytes(1 << 20), 0))
    assert execute_dispatch(registry, make_dispatch("blob"), "W1").status == "OK"
    assert calls == []


def test_agent_beats_at_the_latest_accepted_interval(scripted):
    # A re-registration's ack (say, from a master restarted with a shorter
    # --heartbeat-ms) sets the cadence of every later beat.
    master, start_agent = scripted
    start_agent(interval_ms=2000)
    master.send(RegisterAck(accepted=True, heartbeat_interval_ms=20))
    deadline = time.monotonic() + 5.0
    beats = 0
    try:
        while beats < 10:
            master.conn.settimeout(max(deadline - time.monotonic(), 0.001))
            beats += isinstance(master.read(), Heartbeat)
    except TimeoutError:
        pass
    assert beats == 10


def test_shortened_reregistration_interval_takes_effect_at_once(scripted):
    # A re-ack with a shorter interval must cut short the beat already
    # waiting out the old one, or a master whose liveness window is
    # 3 x 500 ms evicts the worker before its first beat.
    master, start_agent = scripted
    start_agent(interval_ms=2000)
    master.send(make_dispatch("noop"))
    master.read_until(Result)  # the first ack is applied; the beat waits 2 s
    master.send(RegisterAck(accepted=True, heartbeat_interval_ms=500))
    t0 = time.monotonic()
    master.read_until(Heartbeat)
    assert time.monotonic() - t0 < 1.5


def _record_thread(params, payload):
    return str(threading.get_ident()).encode(), 0


def test_dispatches_run_on_one_long_lived_executor_thread(scripted, monkeypatch):
    master, start_agent = scripted
    agent, _ = start_agent()
    agent.core.registry.register("where", _record_thread)
    master.send(make_dispatch("where", task_id="T0"))
    idents = {protocol.from_b64(master.read_until(Result).output_b64)}

    constructed = []

    class CountingThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            constructed.append(kwargs.get("name"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", CountingThread)
    for i in range(1, 6):
        master.send(make_dispatch("where", task_id=f"T{i}"))
        result = master.read_until(Result)
        assert (result.task_id, result.status) == (f"T{i}", "OK")
        idents.add(protocol.from_b64(result.output_b64))
    assert len(idents) == 1
    assert constructed == []


def test_executor_survives_a_raising_task(scripted):
    master, start_agent = scripted
    agent, _ = start_agent()

    def explode(params, payload):
        raise RuntimeError("boom")

    agent.core.registry.register("explode", explode)
    master.send(make_dispatch("explode", task_id="T-bad"))
    failed = master.read_until(Result)
    assert (failed.task_id, failed.status) == ("T-bad", "FAILED")
    assert "boom" in failed.error
    master.send(make_dispatch("noop", task_id="T-good"))
    ok = master.read_until(Result)
    assert (ok.task_id, ok.status) == ("T-good", "OK")
    assert agent.core.held == 0


def test_stop_ends_the_executor_thread(scripted):
    master, start_agent = scripted
    before = {t for t in threading.enumerate() if t.name == "worker-exec"}
    agent, _ = start_agent()
    master.send(make_dispatch("noop"))
    master.read_until(Result)

    def leftover():
        return [t for t in threading.enumerate() if t.name == "worker-exec" and t not in before]

    assert leftover()
    agent.stop()
    deadline = time.monotonic() + 5.0
    while leftover() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert leftover() == []


def test_executor_exit_becomes_a_failed_result(scripted):
    # sys.exit() in an executor must still be reported, or the master
    # keeps the task DISPATCHED and the worker busy for ever.
    master, start_agent = scripted
    agent, _ = start_agent()
    agent.core.registry.register("exit", lambda params, payload: sys.exit(3))
    master.send(make_dispatch("exit", task_id="T-exit"))
    failed = master.read_until(Result)
    assert (failed.task_id, failed.status, failed.error) == ("T-exit", "FAILED", "SystemExit: 3")
    master.send(make_dispatch("noop", task_id="T-next"))
    ok = master.read_until(Result)
    assert (ok.task_id, ok.status) == ("T-next", "OK")


def test_agent_starts_no_heartbeat_thread(scripted):
    master, start_agent = scripted
    before = set(threading.enumerate())
    start_agent(interval_ms=20)
    for _ in range(3):
        master.read_until(Heartbeat)
    [reader] = set(threading.enumerate()) - before  # the thread running agent.run()
    assert reader.name != "worker-heartbeat"


def test_stop_during_the_beat_wait_returns_from_run(caplog):
    # stop() lands anywhere in the reader's loop: waiting for input until
    # the next beat, sending a beat, or handling a line.
    caplog.set_level(logging.WARNING, logger="taskgrid.worker")
    rng = random.Random(2024)
    for _ in range(20):
        master = ScriptedMaster()
        agent = WorkerAgent(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False), ("127.0.0.1", master.port))
        raised = []

        def run():
            try:
                agent.run()
            except BaseException as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            master.accept()
            master.read_until(Register)
            master.send(RegisterAck(accepted=True, heartbeat_interval_ms=5))
            time.sleep(rng.uniform(0, 0.03))
            agent.stop()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert raised == []
        finally:
            agent.stop()
            master.close()
    # A clean stop is not a lost master.
    assert not [r for r in caplog.records if "master unreachable" in r.getMessage()]


def test_agent_registers_again_after_the_master_drops_the_session(scripted, monkeypatch):
    monkeypatch.setattr(worker_mod, "RETRY_BASE_S", 0.05)
    master, start_agent = scripted
    start_agent(interval_ms=50)
    master.read_until(Heartbeat)
    master.conn.close()
    master.accept()
    assert master.read_until(Register) == Register(worker_id="W1", cpu_mhz=2400, has_gpu=False)
    master.send(RegisterAck(accepted=True, heartbeat_interval_ms=50))
    assert master.read_until(Heartbeat).worker_id == "W1"


def test_an_oversized_line_from_the_master_loses_only_the_session(scripted, monkeypatch):
    monkeypatch.setattr(worker_mod, "RETRY_BASE_S", 0.05)
    master, start_agent = scripted
    start_agent()
    block = b"x" * 65536  # no LF anywhere: one line past the cap
    try:
        for _ in range(protocol.MAX_LINE_BYTES // len(block) + 1):
            master.conn.sendall(block)
    except OSError:
        pass  # the agent dropped the session part-way
    master.conn.close()
    master.accept()  # the agent thread is still running and reconnects
    assert master.read_until(Register) == Register(worker_id="W1", cpu_mhz=2400, has_gpu=False)


def test_a_line_json_loads_refuses_is_dropped_and_the_session_stays(scripted, json_refused_line, caplog):
    caplog.set_level(logging.WARNING, logger="taskgrid.worker")
    master, start_agent = scripted
    start_agent()
    master.conn.sendall(json_refused_line + b"\n")
    master.send(make_dispatch("noop"))
    result = master.read_until(Result)
    assert (result.task_id, result.status) == ("T1", "OK")
    dropped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dropping undecodable line")]
    assert len(dropped) == 1 and dropped[0].startswith("dropping undecodable line from master: malformed JSON: ")


def test_a_register_never_overtakes_the_result_of_a_running_task(scripted):
    # NOT_REGISTERED lands just before, during or just after a short task,
    # while the reader and the executor race for the slot: each REGISTER
    # follows the RESULT of the task it overlapped, exactly once.
    master, start_agent = scripted
    start_agent()
    rng = random.Random(12)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(100):
            duration = str(rng.choice([0, 0, 1, 2]))
            master.send(make_dispatch("sleep", params={"duration_ms": duration}, task_id=f"T{i}"))
            time.sleep(rng.choice([0, 0.0005, 0.001]))
            master.send(HeartbeatAck(status="NOT_REGISTERED"))
            first, second = master.read(), master.read()
            assert [type(first), type(second)] == [Result, Register]
            assert first.task_id == f"T{i}"
    finally:
        sys.setswitchinterval(previous)
