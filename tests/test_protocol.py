import base64
import binascii
import dataclasses
import itertools
import json
import re
import sys
import tracemalloc
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_refused_value
from taskgrid import protocol
from taskgrid.model import TaskState
from taskgrid.protocol import (
    Dispatch,
    ErrorReply,
    FramingError,
    Heartbeat,
    HeartbeatAck,
    JobProgressReply,
    JobStatus,
    JobStatusReply,
    JobWait,
    LineFramer,
    ProtocolError,
    Register,
    RegisterAck,
    Result,
    Submit,
    SubmitAck,
    SubmitTask,
    TaskReport,
    decode,
    encode,
)

ids = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12)
ms = st.integers(0, 2**40)
b64s = st.binary(max_size=64).map(lambda b: base64.b64encode(b).decode())
params = st.dictionaries(ids, st.text(max_size=16), max_size=4)

submit_tasks = st.builds(
    SubmitTask, task_id=ids, kind=ids, requires_gpu=st.booleans(), params=params, payload_b64=b64s
)
task_reports = st.builds(
    TaskReport,
    task_id=ids,
    state=st.sampled_from(["QUEUED", "DISPATCHED", "COMPLETED", "FAILED"]),
    worker_id=st.none() | ids,
    submitted_ms=st.none() | ms,
    dispatched_ms=st.none() | ms,
    completed_ms=st.none() | ms,
    exec_ms=st.none() | ms,
    output_b64=st.none() | b64s,
    error=st.none() | st.text(max_size=20),
)

messages = st.one_of(
    st.builds(
        Register,
        worker_id=ids,
        cpu_mhz=st.integers(1, 100000),
        has_gpu=st.booleans(),
        gpu_cores=st.none() | st.integers(1, 10000),
        gpu_mem_mb=st.none() | st.integers(1, 1 << 20),
    ),
    st.builds(
        RegisterAck,
        accepted=st.booleans(),
        heartbeat_interval_ms=st.integers(1, 10**6),
        reason=st.none() | st.text(max_size=20),
    ),
    st.builds(Heartbeat, worker_id=ids, ts_ms=ms, busy=st.booleans()),
    st.builds(HeartbeatAck, status=st.sampled_from(["OK", "NOT_REGISTERED"])),
    st.builds(
        Dispatch, task_id=ids, kind=ids, requires_gpu=st.booleans(), params=params, payload_b64=b64s
    ),
    st.builds(
        Result,
        task_id=ids,
        worker_id=ids,
        status=st.sampled_from(["OK", "FAILED"]),
        exec_ms=ms,
        output_b64=st.none() | b64s,
        error=st.none() | st.text(max_size=20),
    ),
    st.builds(Submit, job_id=ids, tasks=st.lists(submit_tasks, max_size=4).map(tuple)),
    st.builds(SubmitAck, job_id=ids, accepted_count=st.integers(0, 1000)),
    st.builds(JobStatus, job_id=ids),
    st.builds(JobStatusReply, job_id=ids, tasks=st.lists(task_reports, max_size=4).map(tuple)),
    st.builds(JobWait, job_id=ids, timeout_ms=st.none() | st.integers(0, 10**9)),
    st.builds(
        JobProgressReply,
        job_id=ids,
        queued=st.integers(0, 10**6),
        dispatched=st.integers(0, 10**6),
        completed=st.integers(0, 10**6),
        failed=st.integers(0, 10**6),
    ),
    st.builds(ErrorReply, code=ids, detail=st.text(max_size=40)),
)


def test_heartbeat_golden_bytes():
    beat = Heartbeat(worker_id="W1", ts_ms=5000, busy=False)
    assert encode(beat) == b'{"type":"HEARTBEAT","busy":false,"ts_ms":5000,"worker_id":"W1"}\n'


def test_job_progress_golden_bytes():
    reply = JobProgressReply(job_id="J1", queued=2, dispatched=1, completed=3, failed=0)
    assert encode(reply) == (
        b'{"type":"JOB_PROGRESS_REPLY","completed":3,"dispatched":1,"failed":0,'
        b'"job_id":"J1","queued":2}\n'
    )


def test_job_wait_golden_bytes():
    assert encode(JobWait(job_id="J1")) == b'{"type":"JOB_WAIT","job_id":"J1"}\n'
    assert encode(JobWait(job_id="J1", timeout_ms=200)) == (
        b'{"type":"JOB_WAIT","job_id":"J1","timeout_ms":200}\n'
    )


def test_nested_messages_golden_bytes():
    submit = Submit(
        job_id="J1",
        tasks=(
            SubmitTask(
                task_id="T2",
                kind="sobel_par",
                requires_gpu=True,
                params={"zeta": "1", "alpha": "x", "mid": ""},
                payload_b64="UDUK",
            ),
            SubmitTask(task_id="T1", kind="noop", requires_gpu=False),
        ),
    )
    assert encode(submit) == (
        b'{"type":"SUBMIT","job_id":"J1","tasks":[{"kind":"sobel_par",'
        b'"params":{"alpha":"x","mid":"","zeta":"1"},"payload_b64":"UDUK",'
        b'"requires_gpu":true,"task_id":"T2"},{"kind":"noop","params":{},'
        b'"payload_b64":"","requires_gpu":false,"task_id":"T1"}]}\n'
    )
    reply = JobStatusReply(
        job_id="J1",
        tasks=(
            TaskReport(
                task_id="T1",
                state="COMPLETED",
                worker_id="W1",
                submitted_ms=10,
                completed_ms=30,
                exec_ms=5,
                output_b64="",
            ),
            TaskReport(task_id="T2", state="FAILED", error='bad "é"'),
        ),
    )
    assert encode(reply) == (
        b'{"type":"JOB_STATUS_REPLY","job_id":"J1","tasks":[{"completed_ms":30,'
        b'"exec_ms":5,"output_b64":"","state":"COMPLETED","submitted_ms":10,'
        b'"task_id":"T1","worker_id":"W1"},'
        b'{"error":"bad \\"\\u00e9\\"","state":"FAILED","task_id":"T2"}]}\n'
    )
    assert encode(Submit(job_id="J3")) == b'{"type":"SUBMIT","job_id":"J3","tasks":[]}\n'
    assert encode(JobStatusReply(job_id="J2", tasks=())) == (
        b'{"type":"JOB_STATUS_REPLY","job_id":"J2","tasks":[]}\n'
    )


@pytest.mark.parametrize(
    "line, match",
    [
        (
            b'{"type":"JOB_PROGRESS_REPLY","completed":3,"dispatched":1,"job_id":"J1","queued":2}',
            "missing required field failed",
        ),
        (
            b'{"type":"JOB_PROGRESS_REPLY","completed":3,"dispatched":1,"failed":0,'
            b'"job_id":"J1","queued":2,"tasks":[]}',
            "unknown field tasks",
        ),
        (
            b'{"type":"JOB_PROGRESS_REPLY","completed":3,"dispatched":true,"failed":0,'
            b'"job_id":"J1","queued":2}',
            "dispatched must be an integer",
        ),
    ],
)
def test_job_progress_decoding_is_strict(line, match):
    with pytest.raises(ProtocolError, match=match):
        decode(line)


@pytest.mark.parametrize(
    "line",
    [
        b'{"type":"JOB_PROGRESS","job_id":"J1"}',
        b'{"type":"JOB_PROGRESS"}',
        b'{"type":"JOB_PROGRESS","job_id":"J1","tasks":[]}',
        b'{"type":"JOB_PROGRESS","job_id":7}',
    ],
)
def test_a_job_progress_request_is_an_unknown_type_whatever_its_fields(line):
    # JOB_WAIT with timeout_ms 0 replaced it; the type is checked before any field.
    with pytest.raises(ProtocolError, match=r"^unknown message type 'JOB_PROGRESS'$"):
        decode(line)


def test_empty_payload_dispatch():
    msg = Dispatch(task_id="T1", kind="noop", requires_gpu=False, params={}, payload_b64="")
    line = encode(msg)
    assert b'"payload_b64":""' in line
    assert decode(line) == msg


def test_result_base64_payload():
    assert base64.b64encode(b"\x01\x02\x03") == b"AQID"
    msg = Result(task_id="T1", worker_id="W1", status="OK", exec_ms=1, output_b64="AQID")
    assert b'"output_b64":"AQID"' in encode(msg)


def test_encoding_is_one_lf_terminated_line():
    line = encode(JobStatus(job_id="j"))
    assert line.endswith(b"\n") and line.count(b"\n") == 1


def test_optional_fields_omitted():
    line = encode(Register(worker_id="W1", cpu_mhz=2400, has_gpu=False))
    assert b"gpu_cores" not in line and b"gpu_mem_mb" not in line


def test_params_encode_sorted():
    msg = Dispatch(task_id="t", kind="k", requires_gpu=False, params={"z": "1", "a": "2"})
    text = encode(msg).decode()
    assert text.index('"a":"2"') < text.index('"z":"1"')


@given(messages)
@settings(max_examples=300)
def test_round_trip_identity(msg):
    assert decode(encode(msg)) == msg


@given(messages)
@settings(max_examples=100)
def test_encoding_deterministic(msg):
    assert encode(msg) == encode(msg)


@given(messages)
@settings(max_examples=100)
def test_decode_tolerates_any_field_order(msg):
    import json

    obj = json.loads(encode(msg))
    reordered = json.dumps(dict(reversed(list(obj.items())))).encode() + b"\n"
    assert decode(reordered) == msg


def _one_dumps_encode(message):
    """The encoder before B64 bodies became parts of their own: the whole
    line from one ``json.dumps``."""

    def set_fields(obj):
        return {name: value for name, value in vars(obj).items() if value is not None}

    text = json.dumps(set_fields(message), sort_keys=True, separators=(",", ":"), default=set_fields)
    return f'{{"type":"{protocol._TYPE_NAMES[type(message)]}",{text[1:]}\n'.encode("utf-8")


def _bodies(message):
    """The message's non-empty B64 values, in line order."""
    objects = [message, *getattr(message, "tasks", ())]
    return [value for obj in objects for name, value in vars(obj).items() if name.endswith("_b64") and value]


_FORGERIES = {
    "payload_b64": '"payload_b64":NaN',
    "output_b64": "NaN",
    "x": '\x00"é\\',
    "y": '\\":NaN',
}


@given(messages)
@settings(max_examples=300)
@example(Dispatch(task_id="T\x00", kind='k"', requires_gpu=True, params=_FORGERIES, payload_b64="AQID"))
@example(Dispatch(task_id="T1", kind="noop", requires_gpu=False, params={"payload_b64": "AQID"}))
@example(Result(task_id="T1", worker_id='"output_b64":NaN', status="OK", exec_ms=0, output_b64="AQ=="))
@example(Result(task_id="T1", worker_id="W1", status="FAILED", exec_ms=0, error='é\x00"output_b64":NaN'))
@example(ErrorReply(code="E", detail='{"payload_b64":NaN}'))
@example(
    Submit(
        job_id="J1",
        tasks=(
            SubmitTask(task_id="T1", kind="k", requires_gpu=True, params=_FORGERIES, payload_b64="AQID"),
            SubmitTask(task_id="T2", kind="k", requires_gpu=False, params={"output_b64": "AQID"}),
            SubmitTask(task_id="T3", kind="k", requires_gpu=False, payload_b64="AA=="),
            SubmitTask(task_id='"payload_b64":NaN', kind="k", requires_gpu=False, payload_b64=""),
        ),
    )
)
@example(
    JobStatusReply(
        job_id="J1",
        tasks=(
            TaskReport(task_id="T1", state="COMPLETED", output_b64=""),
            TaskReport(task_id="T2", state="COMPLETED", output_b64="AQID", error="\x00"),
            TaskReport(task_id="T3", state="FAILED", error='"output_b64":NaN'),
            TaskReport(task_id="T4", state="COMPLETED", worker_id="é", output_b64="AQIDBA=="),
        ),
    )
)
def test_parts_join_to_the_one_dumps_line(msg):
    parts = protocol.encode_parts(msg)
    assert b"".join(parts) == encode(msg) == _one_dumps_encode(msg)
    # Each non-empty B64 value is a part of its own, between JSON parts.
    bodies = _bodies(msg)
    assert len(parts) == 2 * len(bodies) + 1
    assert parts[1::2] == [body.encode("ascii") for body in bodies]


@pytest.mark.parametrize("body", ['AAAA","kind":"sleep', "AQID\\", "AQ\u00e9D"])
def test_a_b64_value_that_could_end_its_string_is_refused(body):
    # Sent unescaped, the first would rewrite the task's kind on the wire.
    task = SubmitTask(task_id="T1", kind="noop", requires_gpu=False, payload_b64=body)
    with pytest.raises(ValueError):
        protocol.encode_parts(Submit(job_id="J1", tasks=(task,)))
    with pytest.raises(ValueError):
        protocol.encode_parts(Dispatch(task_id="T1", kind="noop", requires_gpu=False, payload_b64=body))


@pytest.mark.parametrize(
    "message, name",
    [
        # json.dumps wrote true here and int.__repr__ writes True, which is
        # not JSON; only the receiver rejected either.
        (Result(task_id="T1", worker_id="W1", status="OK", exec_ms=True), "exec_ms"),
        (Result(task_id="T1", worker_id="W1", status="OK", exec_ms=1.5), "exec_ms"),
        (Heartbeat(worker_id="W1", ts_ms=5000, busy=1), "busy"),
        (Register(worker_id="W1", cpu_mhz=2400, has_gpu=False, gpu_cores="384"), "gpu_cores"),
        (JobStatus(job_id=7), "job_id"),
        (JobStatus(job_id=None), "job_id"),
        (HeartbeatAck(status=b"OK"), "status"),
        (Result(task_id="T1", worker_id="W1", status="OK", exec_ms=1, output_b64=b"AQID"), "output_b64"),
        (Dispatch(task_id="T1", kind="noop", requires_gpu=False, params={"k": 1}), "params"),
        (Dispatch(task_id="T1", kind="noop", requires_gpu=False, params=[("k", "v")]), "params"),
        (Submit(job_id="J1", tasks=[]), "tasks"),
        (Submit(job_id="J1", tasks=(JobStatus(job_id="J1"),)), "tasks entry"),
        (Submit(job_id="J1", tasks=(SubmitTask(task_id="T1", kind="k", requires_gpu=0),)), "requires_gpu"),
        (JobStatusReply(job_id="J1", tasks=(TaskReport(task_id="T1", state="QUEUED", error=3),)), "error"),
    ],
)
def test_an_ill_typed_value_raises_at_encode(message, name):
    with pytest.raises(TypeError, match=f"^field {name} must "):
        encode(message)


_DEFAULTED = [
    Register(worker_id="W1", cpu_mhz=2400, has_gpu=False),
    RegisterAck(accepted=False, heartbeat_interval_ms=2000),
    Heartbeat(worker_id="W1", ts_ms=5000, busy=True),
    HeartbeatAck(status="NOT_REGISTERED"),
    Dispatch(task_id="T1", kind="noop", requires_gpu=False),
    Result(task_id="T1", worker_id="W1", status="FAILED", exec_ms=0),
    Submit(job_id="J1"),
    Submit(job_id="J1", tasks=(SubmitTask(task_id="T1", kind="noop", requires_gpu=True),)),
    SubmitAck(job_id="J1", accepted_count=0),
    JobStatus(job_id="J1"),
    JobStatusReply(job_id="J1"),
    JobStatusReply(job_id="J1", tasks=(TaskReport(task_id="T1", state="QUEUED"),)),
    JobWait(job_id="J1"),
    JobProgressReply(job_id="J1", queued=0, dispatched=0, completed=0, failed=0),
    ErrorReply(code="E", detail=""),
]


def test_the_readme_lists_every_message_type_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [listed] = re.findall(r"Message types: (.*?)\.\n", readme, re.S)
    assert re.findall(r"`([A-Z_]+)`", listed) == list(protocol._TYPE_NAMES.values())


def test_defaulted_examples_cover_every_message_class():
    assert {type(message) for message in _DEFAULTED} == set(protocol._TYPE_NAMES)


def _all_vars(message):
    """The message's instance dict, with each entry's in place of it."""
    values = dict(vars(message))
    if "tasks" in values:
        values["tasks"] = [vars(entry) for entry in values["tasks"]]
    return values


@pytest.mark.parametrize("message", _DEFAULTED, ids=lambda message: type(message).__name__)
def test_the_reader_builds_what_the_constructor_builds(message):
    # The reader builds the instance without the dataclass __init__, so
    # every field, defaults included, must be filled in as __init__ would.
    decoded = decode(encode(message))
    assert type(decoded) is type(message)
    assert _all_vars(decoded) == _all_vars(message)


def test_decoded_dispatches_get_their_own_params():
    line = encode(Dispatch(task_id="T1", kind="noop", requires_gpu=False))
    first, second = decode(line), decode(line)
    assert first.params == second.params == {}
    assert first.params is not second.params


def test_an_optional_field_must_default_to_none():
    # The writer omits None and the reader gives an absent field None, so
    # any other default would not survive a round trip.
    @dataclasses.dataclass(frozen=True)
    class Poll:
        job_id: str
        limit: int | None = 5

    with pytest.raises(TypeError, match="Poll.limit"):
        protocol._compile(Poll, "{", "}")


def _status_reply_of_four_3mib_outputs():
    outputs = [protocol.to_b64(bytes([i]) * (3 << 20)) for i in range(4)]
    tasks = tuple(
        TaskReport(task_id=f"T{i}", state="COMPLETED", worker_id="W1", exec_ms=1, output_b64=output)
        for i, output in enumerate(outputs)
    )
    return JobStatusReply(job_id="J1", tasks=tasks)


def _dispatch_of_4mib():
    return Dispatch(task_id="T1", kind="noop", requires_gpu=True, payload_b64=protocol.to_b64(bytes(4 << 20)))


def _submit_of_4mib():
    task = SubmitTask(task_id="T1", kind="noop", requires_gpu=True, payload_b64=protocol.to_b64(bytes(4 << 20)))
    return Submit(job_id="J1", tasks=(task,))


@pytest.mark.parametrize("make", [_status_reply_of_four_3mib_outputs, _dispatch_of_4mib, _submit_of_4mib])
def test_encoding_copies_each_body_once(make):
    # The one-dumps encoder peaked at 3x the bodies: the JSON str, the
    # line str and the line bytes.
    message = make()
    body_bytes = sum(map(len, _bodies(message)))
    tracemalloc.start()
    try:
        parts = protocol.encode_parts(message)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b"".join(parts) == _one_dumps_encode(message)
    assert peak <= 1.5 * body_bytes, peak / body_bytes


def _result_of_4mib():
    output = protocol.to_b64(bytes(4 << 20))
    return Result(task_id="T1", worker_id="W1", status="OK", exec_ms=1, output_b64=output)


@pytest.mark.parametrize("make", [_status_reply_of_four_3mib_outputs, _submit_of_4mib, _result_of_4mib])
@pytest.mark.parametrize("as_framed", [bytes, bytearray])
def test_decoding_copies_each_body_once(make, as_framed):
    # Decoding the whole line as text peaked at 2x to 3x the bodies
    # beyond the line: the line's str, the str bodies json.loads made
    # from it and the ASCII copy of a body that the base64 check made.
    message = make()
    body_bytes = sum(map(len, _bodies(message)))
    line = as_framed(encode(message))
    tracemalloc.start()
    try:
        decoded = decode(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == message
    assert peak <= 1.3 * body_bytes, peak / body_bytes


def test_framer_hands_over_a_line_that_fills_its_buffer():
    # Copying the line out of the buffer peaked at 2x the line.
    stream = b"A" * (16 << 20) + b"\n"
    framer = LineFramer()
    lines = []
    tracemalloc.start()
    try:
        for i in range(0, len(stream), 64 * 1024):
            lines += framer.feed(stream[i : i + 64 * 1024])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == [stream[:-1]]
    assert peak <= 1.2 * len(stream), peak / len(stream)
    # Lines that share the buffer are still copied out of it, and the
    # line handed over is not written again.
    assert framer.feed(b"ab\ncd") == [b"ab"] and framer.feed(b"\n") == [b"cd"]
    assert lines == [stream[:-1]]


def test_unknown_type_rejected():
    with pytest.raises(ProtocolError, match="unknown message type"):
        decode(b'{"type":"NOPE"}\n')


def test_missing_field_named():
    with pytest.raises(ProtocolError, match="ts_ms"):
        decode(b'{"type":"HEARTBEAT","busy":false,"worker_id":"W1"}\n')


def test_missing_type_rejected():
    with pytest.raises(ProtocolError, match="type"):
        decode(b'{"busy":false}\n')


def test_malformed_json_rejected():
    with pytest.raises(ProtocolError, match="malformed JSON"):
        decode(b"{nope}\n")


@pytest.mark.parametrize("body", [b"", b'"payload_b64":"AAAA",'], ids=["whole", "cut"])
@pytest.mark.parametrize("kind", ["nested", "digits"])
def test_what_json_loads_refuses_is_malformed_json(kind, body):
    # json.loads raises RecursionError for the one and a ValueError that
    # is no JSONDecodeError for the other; a line with a body to cut is
    # parsed without it first, then whole.
    line = b'{"type":"DISPATCH",%s"task_id":%s}\n' % (body, json_refused_value(kind))
    with pytest.raises(ProtocolError, match="^malformed JSON: "):
        decode(line)


def test_a_heartbeat_json_loads_refuses_is_malformed_json(json_refused_line):
    with pytest.raises(ProtocolError, match="^malformed JSON: "):
        decode(json_refused_line)


def test_non_object_rejected():
    with pytest.raises(ProtocolError):
        decode(b"[1,2]\n")


def test_unknown_field_rejected():
    with pytest.raises(ProtocolError, match="unknown field"):
        decode(b'{"type":"JOB_STATUS","job_id":"j","bogus":1}\n')


def test_wrong_field_type_rejected():
    with pytest.raises(ProtocolError, match="ts_ms"):
        decode(b'{"type":"HEARTBEAT","busy":false,"ts_ms":"soon","worker_id":"W1"}\n')


def test_invalid_base64_rejected():
    with pytest.raises(ProtocolError, match="payload_b64"):
        decode(b'{"type":"DISPATCH","kind":"k","params":{},"payload_b64":"!!","requires_gpu":false,"task_id":"t"}\n')


_QUAD = "[A-Za-z0-9+/]{4}"
# Strict base64 as a regular expression: nothing; whole quads and any
# padding; or whole quads, then two or three characters and the one
# padding that completes their quad.
_STRICT_B64 = re.compile(f"|(?:{_QUAD})+=*|(?:{_QUAD})*(?:[A-Za-z0-9+/]{{2}}==|[A-Za-z0-9+/]{{3}}=)")


def _strict_b64_accepts(text):
    """Whether strict base64 decoding accepts ``text``: the expression
    above, checked on every call against ``binascii.a2b_base64`` with
    ``strict_mode=True`` where Python has it (3.11 and later)."""
    accepted = _STRICT_B64.fullmatch(text) is not None
    if sys.version_info >= (3, 11):
        try:
            binascii.a2b_base64(text.encode("ascii"), strict_mode=True)
        except (UnicodeEncodeError, binascii.Error):
            assert not accepted, text
        else:
            assert accepted, text
    return accepted


def _check_b64_accepts(text):
    try:
        protocol._check_b64(text, "payload_b64")
    except ProtocolError:
        return False
    return True


def test_base64_check_matches_strict_decoder_exhaustively():
    mismatches = [
        text
        for n in range(9)
        for text in map("".join, itertools.product("AB=/-", repeat=n))
        if _check_b64_accepts(text) != _strict_b64_accepts(text)
    ]
    assert mismatches == []


@given(st.text(max_size=24) | st.text("AQ+/=\n-", max_size=24) | b64s.map(lambda s: s + "=" * 3))
@settings(max_examples=500)
@example("AAAA\n")
@example("AA==\n")
@example("AA=A")
@example("A\u00e9==")
@example("=")
def test_base64_check_matches_strict_decoder(text):
    assert _check_b64_accepts(text) == _strict_b64_accepts(text)


def test_bool_is_not_an_int():
    with pytest.raises(ProtocolError, match="cpu_mhz"):
        decode(b'{"type":"REGISTER","cpu_mhz":true,"has_gpu":false,"worker_id":"W"}\n')


# -- decoding with bodies cut out of the line, against the whole-line decoder --


def _plain_decode(line):
    """The decoder before bodies were cut out of the line and before each
    schema was compiled into a reader: the whole line through
    ``line.decode`` and ``json.loads``, then one generic check per field,
    read off the message dataclass's annotations on every call."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    if "type" not in obj:
        raise ProtocolError("missing required field type")
    type_name = obj.pop("type")
    classes = {name: cls for cls, name in protocol._TYPE_NAMES.items()}
    if not isinstance(type_name, str) or type_name not in classes:
        raise ProtocolError(f"unknown message type {type_name!r}")
    return _plain_build(classes[type_name], obj, type_name)


def _plain_build(cls, obj, where):
    """``cls`` from a JSON object: each field checked in declaration
    order, absent ones reported as missing in turn, then unknown keys."""
    hints = get_type_hints(cls, include_extras=True)
    values = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        required = type(None) not in get_args(hint)
        if not required:
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        if f.name in obj:
            values[f.name] = _plain_check(hint, obj[f.name], f.name)
        elif required:
            raise ProtocolError(f"missing required field {f.name} in {where}")
    extras = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if extras:
        raise ProtocolError(f"unknown field {sorted(extras)[0]} in {where}")
    return cls(**values)


def _plain_check(hint, value, name):
    """The value of a field annotated ``hint``, or the ProtocolError."""
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ProtocolError(f"field {name} must be an array")
        entries = []
        for item in value:
            if not isinstance(item, dict):
                raise ProtocolError(f"field {name} must be an object")
            entries.append(_plain_build(get_args(hint)[0], item, f"{name} entry"))
        return tuple(entries)
    if hint == dict[str, str]:
        if not isinstance(value, dict):
            raise ProtocolError(f"field {name} must be an object")
        if not all(isinstance(key, str) and isinstance(item, str) for key, item in value.items()):
            raise ProtocolError(f"field {name} must map strings to strings")
        return dict(value)
    if hint is bool:
        if not isinstance(value, bool):
            raise ProtocolError(f"field {name} must be a boolean")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(f"field {name} must be an integer")
        return value
    if not isinstance(value, str):
        raise ProtocolError(f"field {name} must be a string")
    if get_origin(hint) is Literal and value not in get_args(hint):
        raise ProtocolError(f"field {name} must be one of {', '.join(get_args(hint))}")
    if hint == protocol.B64 and not _strict_b64_accepts(value):
        raise ProtocolError(f"field {name} is not valid base64")
    return value


def _outcome(decoder, line):
    """The decoded message, or the ProtocolError's detail."""
    try:
        return decoder(line)
    except ProtocolError as exc:
        return ("ProtocolError", exc.detail)


def _assert_decodes_as_plain(line):
    # A framed line is bytes, or the framer's bytearray. A body left as a
    # memoryview would compare unequal to the plain decoder's str.
    expected = _outcome(_plain_decode, bytes(line))
    for framed in (bytes(line), bytearray(line)):
        assert _outcome(decode, framed) == expected, framed


_EDITS = [b'"', b"\\", b"=", b"N", b"\x00", b"\xc3\xa9", b"\xff", b"A", b":", b" ", b"", b"NaN", b"Infinity", b'_b64":"']


@given(messages, st.lists(st.tuples(st.integers(0, 4096), st.integers(0, 2), st.sampled_from(_EDITS)), max_size=3))
@settings(max_examples=600)
def test_decode_matches_the_plain_decoder(msg, edits):
    # Each edit replaces 0 to 2 bytes of the line at a position.
    line = bytearray(encode(msg))
    for at, width, text in edits:
        at %= len(line) + 1
        line[at : at + width] = text
    _assert_decodes_as_plain(line)


_DISPATCH = b'{"type":"DISPATCH","kind":"k","requires_gpu":false,"task_id":"T1",'
_SUBMIT_HEAD = b'{"type":"SUBMIT","job_id":"J1","tasks":[{"kind":"k","requires_gpu":false,"task_id":'


@pytest.mark.parametrize(
    "line",
    [
        # params keyed like a B64 field, with and without base64 values
        _DISPATCH + b'"params":{"output_b64":"AA==","payload_b64":"AQID"},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{"payload_b64":"hello!"},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{"payload_b64":"AQI"},"payload_b64":""}',
        _DISPATCH + b'"params":{"payload_b64":""},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{"payload_b64":1},"payload_b64":"AQID"}',
        # a key holding \"payload_b64":", and a quote after an escaped backslash
        _DISPATCH + b'"params":{"a\\"payload_b64":"AQID"},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{"a\\\\":"x"},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{"a":"\\"payload_b64\\":\\"AQID\\""},"payload_b64":"AQID"}',
        # NaN or Infinity in ids, in the body, and as bare tokens
        b'{"type":"DISPATCH","kind":"Infinity","params":{},"payload_b64":"AQID","requires_gpu":false,"task_id":"NaN"}',
        _DISPATCH + b'"params":{"-Infinity":"NaN"},"payload_b64":"NaNa"}',
        _DISPATCH + b'"params":{"x":"NaN"},"payload_b64":"NaNa"}',
        _DISPATCH + b'"params":{"payload_b64":"NaN"},"payload_b64":"NaNa"}',
        b'{"type":"RESULT","exec_ms":NaN,"output_b64":"AQID","status":"OK","task_id":"T1","worker_id":"W"}',
        b'{"type":"RESULT","exec_ms":-Infinity,"output_b64":"AQID","status":"OK","task_id":"T1","worker_id":"W"}',
        b'{"type":"RESULT","exec_ms":1,"output_b64":"AQID"NaN,"status":"OK","task_id":"T1","worker_id":"W"}',
        # other key orders and whitespace
        b'{"task_id":"T1","payload_b64":"AQID","type":"DISPATCH","kind":"k","requires_gpu":false,"params":{}}',
        _DISPATCH + b'"params":{}, "payload_b64" : "AQID" }',
        _DISPATCH + b'"params":{},"payload_b64": "AQID"}',
        _DISPATCH + b'"params":{},"payload_b64"\n:"AQID"}',
        b' \t' + _DISPATCH + b'"params":{},"payload_b64":"AQID"}\r\n',
        # escapes in a body
        _DISPATCH + b'"params":{},"payload_b64":"\\u0041QID"}',
        _DISPATCH + b'"params":{},"payload_b64":"AQI\\u0044"}',
        _DISPATCH + b'"params":{},"payload_b64":"AQ\\/D"}',
        _DISPATCH + b'"params":{},"payload_b64":"\\u00e9AAA"}',
        # duplicate keys
        _DISPATCH + b'"params":{},"payload_b64":"AAAA","payload_b64":"AQID"}',
        _DISPATCH + b'"params":{},"payload_b64":"!!","payload_b64":"AQID"}',
        _DISPATCH + b'"params":{},"payload_b64":"AQID","payload_b64":"!!"}',
        _DISPATCH + b'"params":{"payload_b64":"AA=="},"payload_b64":"AQID","params":{}}',
        # non-ASCII, control characters and bytes that are not UTF-8
        _DISPATCH + b'"params":{"\xc3\xa9":"\xc3\xa9"},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{"x":"\x00"},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{"x":"\xff"},"payload_b64":"AQID"}',
        _DISPATCH + b'"params":{},"payload_b64":"AQ\x01D"}',
        _DISPATCH + b'"params":{},"payload_b64":"AQ\xc3\xa9"}',
        _DISPATCH + b'"params":{},"payload_b64":"AQI\xff"}',
        # padding
        *(
            _DISPATCH + b'"params":{},"payload_b64":"%s"}' % body
            for body in [b"AQI", b"AQ=", b"A===", b"AAAA=A", b"=", b"====", b"AAAA====", b"AA==", b"AAA=", b"A"]
        ),
        # bodies where the schema has none, or in the wrong type of value
        b'{"type":"RESULT","exec_ms":1,"payload_b64":"AQID","status":"OK","task_id":"T1","worker_id":"W"}',
        b'{"type":"JOB_STATUS","job_id":{"output_b64":"AA=="}}',
        b'{"type":"JOB_STATUS","job_id":"J1","x":[{"output_b64":"AA=="}]}',
        b'{"output_b64":"AQID"}',
        b'[{"output_b64":"AQID"}]',
        b'{"type":{"output_b64":"AQID"}}',
        # bodies before and after other invalid JSON
        b'{"type":"RESULT","exec_ms":1,"output_b64":"AQID","status":"OK","task_id":"T1","worker_id":"W",}',
        b'{"type":"RESULT",,"exec_ms":1,"output_b64":"AQID","status":"OK","task_id":"T1","worker_id":"W"}',
        b'{"type":"RESULT","exec_ms":1,"output_b64":"AQID""status":"OK","task_id":"T1","worker_id":"W"}',
        b'{"type":"RESULT","exec_ms":1,"output_b64":"AQID","status":"OK","task_id":"T1","worker_id":"W"} x',
        b'{"type":"RESULT","exec_ms":1,"output_b64":"AQID","status":"OK","task_id":"T1","worker_id":"W"}{}',
        # several tasks, empty bodies among non-empty ones
        _SUBMIT_HEAD + b'"T1","params":{},"payload_b64":""},{"kind":"k","params":{},"payload_b64":"AQID",'
        b'"requires_gpu":true,"task_id":"T2"},{"kind":"k","params":{"payload_b64":"AA=="},"payload_b64":"AA==",'
        b'"requires_gpu":true,"task_id":"T3"}]}',
    ],
)
def test_decode_matches_the_plain_decoder_on_adversarial_lines(line):
    _assert_decodes_as_plain(line)


def test_decode_matches_the_plain_decoder_on_every_truncation():
    line = encode(
        Submit(
            job_id="J1",
            tasks=(
                SubmitTask(task_id="T1", kind="k", requires_gpu=True, params={"output_b64": "AQ=="}, payload_b64="AQID"),
                SubmitTask(task_id="T2", kind="k", requires_gpu=False, payload_b64=""),
                SubmitTask(task_id="T3", kind="k", requires_gpu=False, payload_b64="AAAABB=="),
            ),
        )
    )
    for end in range(len(line) + 1):
        _assert_decodes_as_plain(line[:end])


# -- framing ----------------------------------------------------------------


def test_two_messages_in_one_chunk():
    framer = LineFramer()
    lines = framer.feed(b'{"a":1}\n{"b":2}\n')
    assert lines == [b'{"a":1}', b'{"b":2}']


def test_message_split_across_chunks():
    framer = LineFramer()
    assert framer.feed(b'{"a"') == []
    assert framer.feed(b":1}\n") == [b'{"a":1}']


def test_line_cap_enforced():
    framer = LineFramer(max_line_bytes=10)
    with pytest.raises(FramingError):
        framer.feed(b"x" * 11)
    framer = LineFramer(max_line_bytes=10)
    with pytest.raises(FramingError):
        framer.feed(b"y" * 11 + b"\n")


def test_default_cap_is_64mib():
    assert protocol.MAX_LINE_BYTES == 64 * 1024 * 1024


@given(st.lists(messages, min_size=1, max_size=6), st.data())
@settings(max_examples=60)
def test_framing_is_chunking_invariant(msgs, data):
    stream = b"".join(encode(m) for m in msgs)
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, len(stream)), max_size=8),
        )
    )
    framer = LineFramer()
    got = []
    prev = 0
    for cut in cuts + [len(stream)]:
        got.extend(framer.feed(stream[prev:cut]))
        prev = cut
    assert [decode(line) for line in got] == list(msgs)


class RescanLineFramer:
    """The plain form of LineFramer, rescanning the whole buffer on every
    feed; the oracle the linear framer must match."""

    def __init__(self, max_line_bytes):
        self._buffer = bytearray()
        self._max = max_line_bytes

    def feed(self, data):
        self._buffer.extend(data)
        lines = []
        while True:
            idx = self._buffer.find(b"\n")
            if idx < 0:
                break
            if idx > self._max:
                raise FramingError(f"line of {idx} bytes exceeds cap {self._max}")
            lines.append(bytes(self._buffer[:idx]))
            del self._buffer[: idx + 1]
        if len(self._buffer) > self._max:
            raise FramingError(f"unterminated line exceeds cap {self._max}")
        return lines


def _feed_all(framer, chunks):
    """Each feed's lines, ending with the first FramingError's message."""
    out = []
    for chunk in chunks:
        try:
            out.append(framer.feed(chunk))
        except FramingError as exc:
            out.append(("FramingError", exc.detail))
            break
    return out


def _chunked(stream, cuts):
    bounds = [0] + sorted(cuts) + [len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize(
    "chunks",
    [
        [b"abc", b"\ndef", b"\n"],  # LF as the first byte of a chunk
        [b"abc\n", b"de\n"],  # LF as the last byte of a chunk
        [b"a\nbb\n\nccc\nd", b"d\ne\n"],  # several lines in one chunk
        [b"\n\n\n"],
        [b"abcd", b"efgh", b"\n"],  # over the cap across chunks
        [b"ab\nabcdefgh"],  # unterminated tail over the cap
        [b"ab\nabcdefg\nxyz"],  # terminated line over the cap
    ],
)
def test_framer_matches_rescan_oracle_on_edge_chunks(chunks):
    assert _feed_all(LineFramer(max_line_bytes=5), chunks) == _feed_all(
        RescanLineFramer(max_line_bytes=5), chunks
    )


@given(
    st.lists(st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")), max_size=12),
    st.booleans(),
    st.integers(1, 64),
    st.data(),
)
@settings(max_examples=400)
def test_framer_matches_rescan_oracle(lines, terminated, cap, data):
    stream = b"\n".join(lines) + (b"\n" if terminated and lines else b"")
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=10))
    chunks = _chunked(stream, cuts)
    assert _feed_all(LineFramer(max_line_bytes=cap), chunks) == _feed_all(
        RescanLineFramer(max_line_bytes=cap), chunks
    )


# -- decoding rejections, field by field --------------------------------------

_STR, _INT, _BOOL, _PARAMS, _B64 = "str", "int", "bool", "params", "b64"

# Every field of every message type, in declaration order, as
# (kind, required, valid value). A tuple kind lists an enum's values in
# the order its error message gives them; a dict kind is the schema of
# an array's entries.
_SUBMIT_TASK_FIELDS = {
    "task_id": (_STR, True, "T1"),
    "kind": (_STR, True, "noop"),
    "requires_gpu": (_BOOL, True, False),
    "params": (_PARAMS, True, {"k": "v"}),
    "payload_b64": (_B64, True, "AQID"),
}
_TASK_REPORT_FIELDS = {
    "task_id": (_STR, True, "T1"),
    "state": (("QUEUED", "DISPATCHED", "COMPLETED", "FAILED"), True, "COMPLETED"),
    "worker_id": (_STR, False, "W1"),
    "submitted_ms": (_INT, False, 1),
    "dispatched_ms": (_INT, False, 2),
    "completed_ms": (_INT, False, 3),
    "exec_ms": (_INT, False, 1),
    "output_b64": (_B64, False, "AQID"),
    "error": (_STR, False, "boom"),
}
_WIRE_FIELDS = {
    "REGISTER": {
        "worker_id": (_STR, True, "W1"),
        "cpu_mhz": (_INT, True, 2400),
        "has_gpu": (_BOOL, True, True),
        "gpu_cores": (_INT, False, 384),
        "gpu_mem_mb": (_INT, False, 2048),
    },
    "REGISTER_ACK": {
        "accepted": (_BOOL, True, True),
        "heartbeat_interval_ms": (_INT, True, 2000),
        "reason": (_STR, False, "nope"),
    },
    "HEARTBEAT": {
        "worker_id": (_STR, True, "W1"),
        "ts_ms": (_INT, True, 5000),
        "busy": (_BOOL, True, False),
    },
    "HEARTBEAT_ACK": {"status": (("OK", "NOT_REGISTERED"), True, "OK")},
    "DISPATCH": _SUBMIT_TASK_FIELDS,
    "RESULT": {
        "task_id": (_STR, True, "T1"),
        "worker_id": (_STR, True, "W1"),
        "status": (("OK", "FAILED"), True, "OK"),
        "exec_ms": (_INT, True, 7),
        "output_b64": (_B64, False, "AQID"),
        "error": (_STR, False, "boom"),
    },
    "SUBMIT": {"job_id": (_STR, True, "J1"), "tasks": (_SUBMIT_TASK_FIELDS, True, None)},
    "SUBMIT_ACK": {"job_id": (_STR, True, "J1"), "accepted_count": (_INT, True, 1)},
    "JOB_STATUS": {"job_id": (_STR, True, "J1")},
    "JOB_STATUS_REPLY": {"job_id": (_STR, True, "J1"), "tasks": (_TASK_REPORT_FIELDS, True, None)},
    "JOB_WAIT": {"job_id": (_STR, True, "J1"), "timeout_ms": (_INT, False, 200)},
    "JOB_PROGRESS_REPLY": {
        "job_id": (_STR, True, "J1"),
        "queued": (_INT, True, 2),
        "dispatched": (_INT, True, 1),
        "completed": (_INT, True, 3),
        "failed": (_INT, True, 0),
    },
    "ERROR": {"code": (_STR, True, "E"), "detail": (_STR, True, "bad")},
}


def _valid_object(schema):
    return {
        name: [_valid_object(kind)] if isinstance(kind, dict) else value
        for name, (kind, _, value) in schema.items()
    }


def _bad_values(name, kind):
    """(label, value, error) for values of the wrong JSON type or content."""
    if isinstance(kind, dict):
        not_array = f"field {name} must be an array"
        return [
            ("object", {}, not_array),
            ("null", None, not_array),
            ("string", "x", not_array),
            ("entry-not-object", [1], f"field {name} must be an object"),
        ]
    if kind == _INT:
        not_int = f"field {name} must be an integer"
        return [("string", "1", not_int), ("bool", True, not_int), ("float", 1.5, not_int),
                ("null", None, not_int)]
    if kind == _BOOL:
        not_bool = f"field {name} must be a boolean"
        return [("int", 1, not_bool), ("string", "true", not_bool), ("null", None, not_bool)]
    if kind == _PARAMS:
        return [
            ("array", ["k"], f"field {name} must be an object"),
            ("null", None, f"field {name} must be an object"),
            ("int-value", {"k": 1}, f"field {name} must map strings to strings"),
        ]
    not_str = f"field {name} must be a string"
    cases = [("int", 1, not_str), ("array", ["x"], not_str), ("null", None, not_str)]
    if isinstance(kind, tuple):
        cases.append(("outside-enum", "BOGUS", f"field {name} must be one of {', '.join(kind)}"))
    if kind == _B64:
        cases.append(("bad-alphabet", "!!", f"field {name} is not valid base64"))
        cases.append(("bad-length", "AQI", f"field {name} is not valid base64"))
    return cases


def _rejection_cases(schema, where):
    """(label, object, error) for every way one field of ``schema`` can be
    wrong; array fields recurse into their entries."""
    valid = _valid_object(schema)
    cases = []
    for name, (kind, required, _) in schema.items():
        if required:
            missing = {key: value for key, value in valid.items() if key != name}
            cases.append((f"{name}-missing", missing, f"missing required field {name} in {where}"))
        for label, value, error in _bad_values(name, kind):
            cases.append((f"{name}-{label}", {**valid, name: value}, error))
        if isinstance(kind, dict):
            for label, entry, error in _rejection_cases(kind, f"{name} entry"):
                cases.append((f"{name}.{label}", {**valid, name: [entry]}, error))
    first_required = next(name for name, (_, required, _) in schema.items() if required)
    cases.append(("empty", {}, f"missing required field {first_required} in {where}"))
    cases.append(("unknown-key", {**valid, "bogus": 1}, f"unknown field bogus in {where}"))
    return cases


def _wire_line(type_name, obj):
    return json.dumps({"type": type_name, **obj}).encode() + b"\n"


_REJECTIONS = [
    pytest.param(_wire_line(type_name, obj), error, id=f"{type_name}-{label}")
    for type_name, schema in _WIRE_FIELDS.items()
    for label, obj, error in _rejection_cases(schema, type_name)
] + [
    # ``type`` names the message, so only the top-level object may carry it.
    pytest.param(
        _wire_line(
            type_name,
            {**_valid_object(_WIRE_FIELDS[type_name]),
             "tasks": [{**_valid_object(entry), "type": [1, 2]}]},
        ),
        "unknown field type in tasks entry",
        id=f"{type_name}-tasks.type-key",
    )
    for type_name, entry in (("SUBMIT", _SUBMIT_TASK_FIELDS), ("JOB_STATUS_REPLY", _TASK_REPORT_FIELDS))
]


def test_rejection_table_covers_every_field_of_every_message():
    assert set(_WIRE_FIELDS) == set(protocol._TYPE_NAMES.values())
    for type_name, schema in _WIRE_FIELDS.items():
        msg = decode(_wire_line(type_name, _valid_object(schema)))
        assert list(schema) == [f.name for f in dataclasses.fields(msg)]
        assert all(getattr(msg, name) is not None for name in schema)
        if "tasks" in schema:
            assert list(schema["tasks"][0]) == [f.name for f in dataclasses.fields(msg.tasks[0])]


@pytest.mark.parametrize("line, error", _REJECTIONS)
def test_decode_rejects_each_bad_field_with_exact_error(line, error):
    with pytest.raises(ProtocolError) as info:
        decode(line)
    assert info.value.detail == error


def test_wire_enums_match_their_constants():
    def allowed(cls, name):
        return get_args(get_type_hints(cls)[name])

    assert list(allowed(TaskReport, "state")) == [s.value for s in TaskState]
    assert allowed(Result, "status") == (protocol.RESULT_OK, protocol.RESULT_FAILED)
    assert allowed(HeartbeatAck, "status") == (
        protocol.HEARTBEAT_OK,
        protocol.HEARTBEAT_NOT_REGISTERED,
    )
