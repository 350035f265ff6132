import base64
import binascii
import dataclasses
import itertools
import json
from typing import get_args, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskgrid import protocol
from taskgrid.model import TaskState
from taskgrid.protocol import (
    Dispatch,
    ErrorReply,
    FramingError,
    Heartbeat,
    HeartbeatAck,
    JobProgress,
    JobProgressReply,
    JobStatus,
    JobStatusReply,
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
    st.builds(JobProgress, job_id=ids),
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
    assert encode(JobProgress(job_id="J1")) == b'{"type":"JOB_PROGRESS","job_id":"J1"}\n'
    reply = JobProgressReply(job_id="J1", queued=2, dispatched=1, completed=3, failed=0)
    assert encode(reply) == (
        b'{"type":"JOB_PROGRESS_REPLY","completed":3,"dispatched":1,"failed":0,'
        b'"job_id":"J1","queued":2}\n'
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
        (b'{"type":"JOB_PROGRESS","job_id":"J1","tasks":[]}', "unknown field tasks"),
        (b'{"type":"JOB_PROGRESS"}', "missing required field job_id"),
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


def _strict_b64_accepts(text):
    try:
        binascii.a2b_base64(text.encode("ascii"), strict_mode=True)
    except (UnicodeEncodeError, binascii.Error):
        return False
    return True


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
    "JOB_PROGRESS": {"job_id": (_STR, True, "J1")},
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
