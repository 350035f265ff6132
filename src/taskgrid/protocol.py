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

Each message's schema is its dataclass: ``decode`` derives its checks
from the field annotations at import. A field is required unless its
annotation admits ``None``, and :data:`B64` marks base64 text.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, fields
from typing import Annotated, Any, Callable, Literal, get_args, get_origin, get_type_hints

MAX_LINE_BYTES = 64 * 1024 * 1024

RESULT_OK = "OK"
RESULT_FAILED = "FAILED"
HEARTBEAT_OK = "OK"
HEARTBEAT_NOT_REGISTERED = "NOT_REGISTERED"

B64 = Annotated[str, "base64"]


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
    status: Literal["OK", "NOT_REGISTERED"]


@dataclass(frozen=True)
class Dispatch:
    task_id: str
    kind: str
    requires_gpu: bool
    params: dict[str, str] = field(default_factory=dict)
    payload_b64: B64 = ""


@dataclass(frozen=True)
class Result:
    task_id: str
    worker_id: str
    status: Literal["OK", "FAILED"]
    exec_ms: int
    output_b64: B64 | None = None
    error: str | None = None


@dataclass(frozen=True)
class SubmitTask:
    task_id: str
    kind: str
    requires_gpu: bool
    params: dict[str, str] = field(default_factory=dict)
    payload_b64: B64 = ""


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
    state: Literal["QUEUED", "DISPATCHED", "COMPLETED", "FAILED"]
    worker_id: str | None = None
    submitted_ms: int | None = None
    dispatched_ms: int | None = None
    completed_ms: int | None = None
    exec_ms: int | None = None
    output_b64: B64 | None = None
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


def _fields(obj: Any) -> dict[str, Any]:
    """A message dataclass's set fields: its instance dict minus ``None``."""
    return {name: value for name, value in vars(obj).items() if value is not None}


def encode(message: Message) -> bytes:
    """Canonical single-line encoding, LF terminated."""
    type_name = _TYPE_NAMES.get(type(message))
    if type_name is None:
        raise TypeError(f"not a wire message: {type(message).__name__}")
    # Every message has a field, so the object is never "{}".
    text = json.dumps(_fields(message), sort_keys=True, separators=(",", ":"), default=_fields)
    return f'{{"type":"{type_name}",{text[1:]}\n'.encode("utf-8")


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
    extras = set(obj) - set(spec)
    if extras:
        raise ProtocolError(f"unknown field {sorted(extras)[0]} in {where}")
    return cls(**values)


def _check_object(value: Any, name: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ProtocolError(f"field {name} must be an object")
    return value


_PLAIN_CHECKS: dict[Any, Callable[[Any, str], Any]] = {
    str: _check_str,
    int: _check_int,
    bool: _check_bool,
    B64: _check_b64,
    dict[str, str]: _check_params,
}


def _check_array(cls: type) -> Callable[[Any, str], tuple]:
    spec = _spec_of(cls)

    def check(value: Any, name: str) -> tuple:
        if not isinstance(value, list):
            raise ProtocolError(f"field {name} must be an array")
        where = f"{name} entry"
        return tuple(_build(cls, _check_object(item, name), spec, where) for item in value)

    return check


def _check_for(hint: Any) -> Callable[[Any, str], Any]:
    origin = get_origin(hint)
    if origin is Literal:
        return _check_enum(get_args(hint))
    if origin is tuple:
        return _check_array(get_args(hint)[0])
    return _PLAIN_CHECKS[hint]


def _spec_of(cls: type) -> dict[str, tuple[Callable, bool]]:
    """``cls``'s fields in declaration order, each as (check, required)."""
    hints = get_type_hints(cls, include_extras=True)
    spec = {}
    for f in fields(cls):
        hint = hints[f.name]
        required = type(None) not in get_args(hint)
        if not required:
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        spec[f.name] = (_check_for(hint), required)
    return spec


_SPECS = {name: (cls, _spec_of(cls)) for cls, name in _TYPE_NAMES.items()}


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
    type_name = obj.pop("type")
    if not isinstance(type_name, str) or type_name not in _SPECS:
        raise ProtocolError(f"unknown message type {type_name!r}")
    cls, spec = _SPECS[type_name]
    return _build(cls, obj, spec, type_name)


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
