"""WorkerCore without a transport: each inbound message type in each slot
state, and what the core sends, starts or raises in reply."""

import pytest

from taskgrid import protocol
from taskgrid.protocol import (
    Dispatch,
    ErrorReply,
    Heartbeat,
    HeartbeatAck,
    Register,
    RegisterAck,
    Result,
)
from taskgrid.worker import RegistrationRejected, WorkerCore
from taskgrid.workloads import ExecutorRegistry, built_in_registry

REGISTER = Register(worker_id="W1", cpu_mhz=2400, has_gpu=False)
DISPATCH = Dispatch(task_id="T1", kind="noop", requires_gpu=False, params={}, payload_b64="")
BUSY = Result(task_id="T1", worker_id="W1", status="FAILED", exec_ms=0, error="BUSY")

ACCEPT = RegisterAck(accepted=True, heartbeat_interval_ms=500)
REJECT = RegisterAck(accepted=False, heartbeat_interval_ms=500, reason="bad profile")
BEAT_OK = HeartbeatAck(status="OK")
NOT_REGISTERED = HeartbeatAck(status="NOT_REGISTERED")
UNEXPECTED = ErrorReply(code="UNEXPECTED_MESSAGE", detail="x")

# (inbound, slot busy before, sent, started, raised, heartbeat interval after)
_ROWS = {
    "accept-idle": (ACCEPT, False, [], [], None, 500),
    "accept-busy": (ACCEPT, True, [], [], None, 500),
    "reject-idle": (REJECT, False, [], [], RegistrationRejected, None),
    "reject-busy": (REJECT, True, [], [], RegistrationRejected, None),
    "beat-ok-idle": (BEAT_OK, False, [], [], None, None),
    "beat-ok-busy": (BEAT_OK, True, [], [], None, None),
    "not-registered-idle": (NOT_REGISTERED, False, [REGISTER], [], None, None),
    # Deferred until the RESULT: a REGISTER now would make the master
    # re-queue the running task and dispatch it back into the busy slot.
    "not-registered-busy": (NOT_REGISTERED, True, [], [], None, None),
    "dispatch-idle": (DISPATCH, False, [], [DISPATCH], None, None),
    "dispatch-busy": (DISPATCH, True, [BUSY], [], None, None),
    "unexpected-idle": (UNEXPECTED, False, [], [], None, None),
    "unexpected-busy": (UNEXPECTED, True, [], [], None, None),
}


def make_core(registry=None):
    return WorkerCore(REGISTER, registry or built_in_registry())


@pytest.mark.parametrize("row", _ROWS.values(), ids=_ROWS.keys())
def test_inbound_message_table(row):
    inbound, busy, sent, started, raised, interval = row
    core = make_core()
    core.busy = busy
    out, runs = [], []
    if raised is None:
        core.handle(inbound, out.append, runs.append)
    else:
        with pytest.raises(raised, match="bad profile"):
            core.handle(inbound, out.append, runs.append)
    assert out == sent
    assert runs == started
    # Only an accepted dispatch takes the slot; nothing here frees it.
    assert core.busy == (busy or bool(started))
    assert core.beat_interval_ms == interval


def test_latest_accepted_ack_sets_the_interval():
    core = make_core()
    for interval in (2000, 20):
        core.handle(RegisterAck(accepted=True, heartbeat_interval_ms=interval), None, None)
    assert core.beat_interval_ms == 20


def test_heartbeat_reports_the_slot():
    core = make_core()
    assert core.heartbeat(7) == Heartbeat(worker_id="W1", ts_ms=7, busy=False)
    core.handle(DISPATCH, None, lambda dispatch: None)
    assert core.heartbeat(8) == Heartbeat(worker_id="W1", ts_ms=8, busy=True)


def test_finish_frees_the_slot_before_the_result_is_sent():
    core = make_core()
    runs = []
    core.handle(DISPATCH, None, runs.append)
    result = core.execute(runs.pop())
    assert result == Result(task_id="T1", worker_id="W1", status="OK", exec_ms=0, output_b64="")
    assert core.busy
    sent = []
    core.finish(result, lambda message: sent.append((message, core.busy)))
    assert sent == [(result, False)]


def test_slot_is_freed_when_execution_raises():
    class Interrupted(BaseException):
        pass

    def interrupted(params, payload):
        raise Interrupted("caught")

    registry = ExecutorRegistry()
    registry.register("noop", interrupted)
    core = make_core(registry)
    core.handle(DISPATCH, None, lambda dispatch: None)
    result = core.execute(DISPATCH)
    assert result == Result(
        task_id="T1", worker_id="W1", status="FAILED", exec_ms=0, error="Interrupted: caught"
    )
    sent = []
    core.finish(result, sent.append)
    assert sent == [result]
    assert not core.busy


# -- when to register ----------------------------------------------------------------


def test_an_idle_core_registers_at_once():
    core = make_core()
    sent = []
    core.register_when_idle(sent.append)
    assert sent == [REGISTER]
    assert not core.register_pending


def test_a_busy_core_registers_right_after_the_result():
    core = make_core()
    core.handle(DISPATCH, None, lambda dispatch: None)
    sent = []
    core.register_when_idle(sent.append)
    core.handle(NOT_REGISTERED, sent.append, None)  # one pending REGISTER, not two
    assert sent == []
    first = core.execute(DISPATCH)
    core.finish(first, sent.append)
    assert sent == [first, REGISTER]
    core.handle(DISPATCH, None, lambda dispatch: None)
    second = core.execute(DISPATCH)
    core.finish(second, sent.append)
    assert sent == [first, REGISTER, second]


@pytest.mark.parametrize("failing", ["Result", "Register"])
def test_a_send_that_raises_in_finish_leaves_one_register_to_send(failing):
    core = make_core()
    core.handle(DISPATCH, None, lambda dispatch: None)
    core.register_when_idle(None)

    def send(message):
        if type(message).__name__ == failing:
            raise ConnectionError("gone")

    with pytest.raises(ConnectionError):
        core.finish(core.execute(DISPATCH), send)
    sent = []
    core.register_when_idle(sent.append)  # the next session's start
    core.handle(DISPATCH, None, lambda dispatch: None)
    core.finish(core.execute(DISPATCH), sent.append)
    assert [type(message).__name__ for message in sent] == ["Register", "Result"]


@pytest.mark.parametrize(
    "refusal, error",
    [
        (
            lambda result: protocol.LineTooLarge(result, 70_000_000),
            f"OUTPUT_TOO_LARGE: 70000000 bytes exceeds line cap {protocol.MAX_LINE_BYTES}",
        ),
        (
            lambda result: TypeError("field exec_ms must be an integer, not float"),
            "TypeError: field exec_ms must be an integer, not float",
        ),
    ],
    ids=["over-cap", "ill-typed"],
)
def test_a_refused_result_goes_as_failed_before_the_deferred_register(refusal, error):
    # A send refuses a RESULT it cannot encode before writing a byte; the
    # task must still be reported, once, and the slot be free.
    core = make_core()
    core.handle(DISPATCH, None, lambda dispatch: None)
    core.register_when_idle(None)
    result = core.execute(DISPATCH)
    sent = []

    def send(message):
        if message is result:
            raise refusal(result)
        sent.append((message, core.busy))

    core.finish(result, send)
    failed = Result(task_id="T1", worker_id="W1", status="FAILED", exec_ms=0, error=error)
    assert sent == [(failed, False), (REGISTER, False)]
    assert not core.busy and not core.register_pending


# -- heartbeat cadence, on a clock the test sets -----------------------------------


class Clock:
    def __init__(self):
        self.now_ms = 0

    def __call__(self):
        return self.now_ms


def make_clocked_core():
    clock = Clock()
    return WorkerCore(REGISTER, built_in_registry(), clock=clock), clock


def ack(interval_ms):
    return RegisterAck(accepted=True, heartbeat_interval_ms=interval_ms)


def test_no_beat_before_the_first_accepted_ack():
    core, clock = make_clocked_core()
    sent = []
    with pytest.raises(RegistrationRejected):
        core.handle(REJECT, sent.append, None)
    core.handle(NOT_REGISTERED, sent.append, None)
    clock.now_ms = 10**9
    assert not core.beat_if_due(sent.append)
    assert sent == [REGISTER]  # the re-register, never a beat
    assert core.next_beat_ms is None


def test_beat_is_due_at_exactly_ack_plus_interval():
    core, clock = make_clocked_core()
    clock.now_ms = 100
    core.handle(ack(500), None, None)
    assert core.next_beat_ms == 600
    sent = []
    clock.now_ms = 599
    assert not core.beat_if_due(sent.append)
    clock.now_ms = 600
    assert core.beat_if_due(sent.append)
    assert sent == [Heartbeat(worker_id="W1", ts_ms=600, busy=False)]
    assert core.next_beat_ms == 1100


def test_shorter_reack_makes_the_next_beat_due_earlier():
    core, clock = make_clocked_core()
    core.handle(ack(2000), None, None)
    clock.now_ms = 100
    core.handle(ack(500), None, None)
    assert core.next_beat_ms == 600
    sent = []
    clock.now_ms = 600
    assert core.beat_if_due(sent.append)
    assert [beat.ts_ms for beat in sent] == [600]


def test_two_calls_at_one_due_time_send_one_beat():
    core, clock = make_clocked_core()
    core.handle(ack(500), None, None)
    sent = []
    clock.now_ms = 700  # late: still one beat, and the next is 500 ms on
    assert core.beat_if_due(sent.append)
    assert not core.beat_if_due(sent.append)
    assert len(sent) == 1
    assert core.next_beat_ms == 1200
