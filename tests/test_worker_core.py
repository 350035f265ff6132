"""WorkerCore without a transport: each inbound message type in each slot
state, and what the core sends, starts or raises in reply."""

import pytest

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
    "not-registered-busy": (NOT_REGISTERED, True, [REGISTER], [], None, None),
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
        raise Interrupted

    registry = ExecutorRegistry()
    registry.register("noop", interrupted)
    core = make_core(registry)
    core.handle(DISPATCH, None, lambda dispatch: None)
    with pytest.raises(Interrupted):
        core.execute(DISPATCH)
    assert not core.busy
