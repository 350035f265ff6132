"""Wire protocol: newline-delimited JSON messages over TCP.

Every message is one UTF-8 JSON object on a single line terminated by
LF. Encoding is canonical and byte-deterministic: the ``type`` field
comes first, every other key (at any nesting level) is sorted
alphabetically, optional fields that are unset are omitted, and binary
payloads travel as base64 strings. Decoders accept any field order.

``decode`` checks every base64 field strictly, accepting exactly what
``from_b64`` accepts, but without decoding it: the master forwards
payload and output text verbatim, and only the worker decodes a
payload, once. :class:`LineFramer` is linear in line length, so a
multi-megabyte line costs the same however the stream is chunked.
"""

from __future__ import annotations

import base64
import json
import socket
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator

MAX_LINE_BYTES = 64 * 1024 * 1024

RESULT_OK = "OK"
RESULT_FAILED = "FAILED"
HEARTBEAT_OK = "OK"
HEARTBEAT_NOT_REGISTERED = "NOT_REGISTERED"

_TASK_STATES = ("QUEUED", "DISPATCHED", "COMPLETED", "FAILED")


class ProtocolError(Exception):
    """Malformed or illegal wire traffic."""

    code = "PROTOCOL_ERROR"

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class FramingError(ProtocolError):
    """Line framing violated (oversized line); the connection must close."""


def to_b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def from_b64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


@dataclass(frozen=True)
class Register:
    worker_id: str
    cpu_mhz: int
    has_gpu: bool
    gpu_cores: int | None = None
    gpu_mem_mb: int | None = None


@dataclass(frozen=True)
class RegisterAck:
    accepted: bool
    heartbeat_interval_ms: int
    reason: str | None = None


@dataclass(frozen=True)
class Heartbeat:
    worker_id: str
    ts_ms: int
    busy: bool


@dataclass(frozen=True)
class HeartbeatAck:
    status: str  # OK | NOT_REGISTERED


@dataclass(frozen=True)
class Dispatch:
    task_id: str
    kind: str
    requires_gpu: bool
    params: dict[str, str] = field(default_factory=dict)
    payload_b64: str = ""


@dataclass(frozen=True)
class Result:
    task_id: str
    worker_id: str
    status: str  # OK | FAILED
    exec_ms: int
    output_b64: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class SubmitTask:
    task_id: str
    kind: str
    requires_gpu: bool
    params: dict[str, str] = field(default_factory=dict)
    payload_b64: str = ""


@dataclass(frozen=True)
class Submit:
    job_id: str
    tasks: tuple[SubmitTask, ...] = ()


@dataclass(frozen=True)
class SubmitAck:
    job_id: str
    accepted_count: int


@dataclass(frozen=True)
class JobStatus:
    job_id: str


@dataclass(frozen=True)
class JobProgress:
    job_id: str


@dataclass(frozen=True)
class JobProgressReply:
    """A job's task counts by state: a constant-size reply for polling."""

    job_id: str
    queued: int
    dispatched: int
    completed: int
    failed: int


@dataclass(frozen=True)
class TaskReport:
    task_id: str
    state: str
    worker_id: str | None = None
    submitted_ms: int | None = None
    dispatched_ms: int | None = None
    completed_ms: int | None = None
    exec_ms: int | None = None
    output_b64: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class JobStatusReply:
    job_id: str
    tasks: tuple[TaskReport, ...] = ()


@dataclass(frozen=True)
class ErrorReply:
    code: str
    detail: str


Message = (
    Register
    | RegisterAck
    | Heartbeat
    | HeartbeatAck
    | Dispatch
    | Result
    | Submit
    | SubmitAck
    | JobStatus
    | JobStatusReply
    | JobProgress
    | JobProgressReply
    | ErrorReply
)

_TYPE_NAMES: dict[type, str] = {
    Register: "REGISTER",
    RegisterAck: "REGISTER_ACK",
    Heartbeat: "HEARTBEAT",
    HeartbeatAck: "HEARTBEAT_ACK",
    Dispatch: "DISPATCH",
    Result: "RESULT",
    Submit: "SUBMIT",
    SubmitAck: "SUBMIT_ACK",
    JobStatus: "JOB_STATUS",
    JobStatusReply: "JOB_STATUS_REPLY",
    JobProgress: "JOB_PROGRESS",
    JobProgressReply: "JOB_PROGRESS_REPLY",
    ErrorReply: "ERROR",
}
_CLASSES_BY_NAME = {name: cls for cls, name in _TYPE_NAMES.items()}


def _wire_value(value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {key: value[key] for key in sorted(value)}
    if isinstance(value, tuple):
        return [_wire_object(item) for item in value]
    raise TypeError(f"cannot encode field value {value!r}")


def _wire_object(obj: Any, type_name: str | None = None) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if type_name is not None:
        out["type"] = type_name
    for name in sorted(f.name for f in fields(obj)):
        value = getattr(obj, name)
        if value is None:
            continue
        out[name] = _wire_value(value)
    return out


def encode(message: Message) -> bytes:
    """Canonical single-line encoding, LF terminated."""
    type_name = _TYPE_NAMES.get(type(message))
    if type_name is None:
        raise TypeError(f"not a wire message: {type(message).__name__}")
    text = json.dumps(_wire_object(message, type_name), separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def _check_str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"field {name} must be a string")
    return value


def _check_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {name} must be an integer")
    return value


def _check_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(f"field {name} must be a boolean")
    return value


_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _is_strict_b64(text: str) -> bool:
    """True iff ``from_b64`` would accept ``text``, found without decoding.

    Strict base64 is alphabet characters followed by a run of ``=``. A
    string without data takes no padding; with ``n`` data characters,
    ``n % 4`` must be 0 (any padding), 2 (exactly two ``=``) or 3
    (exactly one).
    """
    if not text.isascii():
        return False
    data = text.encode("ascii")
    pad = data.translate(None, _B64_ALPHABET)
    if pad != b"=" * len(pad) or not data.endswith(pad):
        return False
    n = len(data) - len(pad)
    if n % 4 == 0:
        return n > 0 or not pad
    return n % 4 > 1 and len(pad) == 4 - n % 4


def _check_b64(value: Any, name: str) -> str:
    text = _check_str(value, name)
    if not _is_strict_b64(text):
        raise ProtocolError(f"field {name} is not valid base64")
    return text


def _check_params(value: Any, name: str) -> dict[str, str]:
    if not isinstance(value, dict):
        raise ProtocolError(f"field {name} must be an object")
    for key, item in value.items():
        if not isinstance(key, str) or not isinstance(item, str):
            raise ProtocolError(f"field {name} must map strings to strings")
    return dict(value)


def _check_enum(allowed: tuple[str, ...]) -> Callable[[Any, str], str]:
    def check(value: Any, name: str) -> str:
        text = _check_str(value, name)
        if text not in allowed:
            raise ProtocolError(f"field {name} must be one of {', '.join(allowed)}")
        return text

    return check


def _build(cls: type, obj: dict[str, Any], spec: dict[str, tuple[Callable, bool]], where: str) -> Any:
    values: dict[str, Any] = {}
    for name, (check, required) in spec.items():
        if name in obj:
            values[name] = check(obj[name], name)
        elif required:
            raise ProtocolError(f"missing required field {name} in {where}")
    extras = set(obj) - set(spec) - {"type"}
    if extras:
        raise ProtocolError(f"unknown field {sorted(extras)[0]} in {where}")
    return cls(**values)


def _check_submit_tasks(value: Any, name: str) -> tuple[SubmitTask, ...]:
    if not isinstance(value, list):
        raise ProtocolError(f"field {name} must be an array")
    spec = {
        "task_id": (_check_str, True),
        "kind": (_check_str, True),
        "requires_gpu": (_check_bool, True),
        "params": (_check_params, True),
        "payload_b64": (_check_b64, True),
    }
    return tuple(
        _build(SubmitTask, _check_object(item, name), spec, f"{name} entry") for item in value
    )


def _check_report_tasks(value: Any, name: str) -> tuple[TaskReport, ...]:
    if not isinstance(value, list):
        raise ProtocolError(f"field {name} must be an array")
    spec = {
        "task_id": (_check_str, True),
        "state": (_check_enum(_TASK_STATES), True),
        "worker_id": (_check_str, False),
        "submitted_ms": (_check_int, False),
        "dispatched_ms": (_check_int, False),
        "completed_ms": (_check_int, False),
        "exec_ms": (_check_int, False),
        "output_b64": (_check_b64, False),
        "error": (_check_str, False),
    }
    return tuple(
        _build(TaskReport, _check_object(item, name), spec, f"{name} entry") for item in value
    )


def _check_object(value: Any, name: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ProtocolError(f"field {name} must be an object")
    return value


_FIELD_SPECS: dict[str, dict[str, tuple[Callable, bool]]] = {
    "REGISTER": {
        "worker_id": (_check_str, True),
        "cpu_mhz": (_check_int, True),
        "has_gpu": (_check_bool, True),
        "gpu_cores": (_check_int, False),
        "gpu_mem_mb": (_check_int, False),
    },
    "REGISTER_ACK": {
        "accepted": (_check_bool, True),
        "heartbeat_interval_ms": (_check_int, True),
        "reason": (_check_str, False),
    },
    "HEARTBEAT": {
        "worker_id": (_check_str, True),
        "ts_ms": (_check_int, True),
        "busy": (_check_bool, True),
    },
    "HEARTBEAT_ACK": {
        "status": (_check_enum((HEARTBEAT_OK, HEARTBEAT_NOT_REGISTERED)), True),
    },
    "DISPATCH": {
        "task_id": (_check_str, True),
        "kind": (_check_str, True),
        "requires_gpu": (_check_bool, True),
        "params": (_check_params, True),
        "payload_b64": (_check_b64, True),
    },
    "RESULT": {
        "task_id": (_check_str, True),
        "worker_id": (_check_str, True),
        "status": (_check_enum((RESULT_OK, RESULT_FAILED)), True),
        "exec_ms": (_check_int, True),
        "output_b64": (_check_b64, False),
        "error": (_check_str, False),
    },
    "SUBMIT": {
        "job_id": (_check_str, True),
        "tasks": (_check_submit_tasks, True),
    },
    "SUBMIT_ACK": {
        "job_id": (_check_str, True),
        "accepted_count": (_check_int, True),
    },
    "JOB_STATUS": {
        "job_id": (_check_str, True),
    },
    "JOB_STATUS_REPLY": {
        "job_id": (_check_str, True),
        "tasks": (_check_report_tasks, True),
    },
    "JOB_PROGRESS": {
        "job_id": (_check_str, True),
    },
    "JOB_PROGRESS_REPLY": {
        "job_id": (_check_str, True),
        "queued": (_check_int, True),
        "dispatched": (_check_int, True),
        "completed": (_check_int, True),
        "failed": (_check_int, True),
    },
    "ERROR": {
        "code": (_check_str, True),
        "detail": (_check_str, True),
    },
}


def decode(line: bytes) -> Message:
    """Parse one LF-terminated (or bare) message line."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    if "type" not in obj:
        raise ProtocolError("missing required field type")
    type_name = obj["type"]
    if not isinstance(type_name, str) or type_name not in _FIELD_SPECS:
        raise ProtocolError(f"unknown message type {type_name!r}")
    cls = _CLASSES_BY_NAME[type_name]
    return _build(cls, obj, _FIELD_SPECS[type_name], type_name)


class LineFramer:
    """Reassemble LF-terminated lines from an arbitrarily chunked stream.

    Work is linear in the bytes fed: each chunk is scanned for LF once,
    resuming where the previous scan stopped, and the consumed lines are
    trimmed from the buffer once per call. A :class:`FramingError`
    leaves the stream unusable; the caller drops the framer with its
    connection.
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES):
        self._buffer = bytearray()
        self._max = max_line_bytes

    def feed(self, data: bytes) -> list[bytes]:
        """Append a chunk; return the now-complete lines (LF stripped)."""
        buffer = self._buffer
        # Everything already buffered was scanned by an earlier call and
        # holds no LF.
        pos = len(buffer)
        buffer.extend(data)
        lines: list[bytes] = []
        start = 0
        with memoryview(buffer) as view:
            while (idx := buffer.find(b"\n", pos)) >= 0:
                if idx - start > self._max:
                    raise FramingError(f"line of {idx - start} bytes exceeds cap {self._max}")
                lines.append(view[start:idx].tobytes())
                start = pos = idx + 1
        del buffer[:start]
        if len(buffer) > self._max:
            raise FramingError(f"unterminated line exceeds cap {self._max}")
        return lines


def send_message(sock: socket.socket, message: Message) -> None:
    sock.sendall(encode(message))


def recv_messages(sock: socket.socket) -> Iterator[Message]:
    """Yield decoded messages from a socket until EOF.

    Raises :class:`FramingError` on an oversized line; the caller is
    expected to close the connection.
    """
    framer = LineFramer()
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return
        for line in framer.feed(chunk):
            yield decode(line)
