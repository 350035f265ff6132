import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from support import int_digit_limit, json_refused_value
from taskgrid import protocol
from taskgrid.protocol import Result


@pytest.fixture(params=["nested", "digits"])
def json_refused_line(request) -> bytes:
    """A HEARTBEAT line, LF excluded, whose ``ts_ms`` is a
    :func:`json_refused_value`."""
    value = json_refused_value(request.param)
    return b'{"type":"HEARTBEAT","worker_id":"W1","ts_ms":%s,"busy":false}' % value


@pytest.fixture(params=["over_cap", "digits"])
def refused_result(request, monkeypatch):
    """A 4 KiB line cap, standing in for 64 MiB at every sender and
    framer, and an executor whose RESULT for task T1 on worker W1 the
    encoder refuses: its line passes the cap by an ``exec_ms`` of 251
    digits, or its ``exec_ms`` has more digits than ``int.__repr__`` may
    print. Gives the executor and the error its task must fail with."""
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    if request.param == "over_cap":
        output, exec_ms = bytes(2844), 10**250
        ok = Result(task_id="T1", worker_id="W1", status="OK", exec_ms=exec_ms, output_b64=protocol.to_b64(output))
        error = f"OUTPUT_TOO_LARGE: {len(protocol.encode(ok)) - 1} bytes exceeds line cap 4096"
    else:
        if not (limit := int_digit_limit()):
            pytest.skip("no int-digit limit")
        output, exec_ms = b"", 10**limit
        with pytest.raises(ValueError) as refusal:
            int.__repr__(exec_ms)
        error = f"ValueError: {refusal.value}"
    return (lambda params, payload: (output, exec_ms)), error
