"""Wire protocol: newline-delimited JSON messages over TCP.

Every message is one UTF-8 JSON object on a single line terminated by
LF. Encoding is canonical and byte-deterministic: the ``type`` field
comes first, every other key (at any nesting level) is sorted
alphabetically, optional fields that are unset are omitted, and binary
payloads travel as base64 strings. Decoders accept any field order.

:func:`encode_parts` gives the same line as parts for the senders: each
non-empty base64 body is a part of its own, copied once and never
escaped, and the JSON around it is the rest of the line, so the bytes
on the wire are those of :func:`encode`. The master, the client and
the worker set ``TCP_NODELAY``, so a line's small last part is not held
back for the peer's delayed ACK.

``decode`` checks every base64 field strictly, accepting exactly what
``from_b64`` accepts, but without decoding it: the master forwards
payload and output text verbatim, and only the worker decodes a
payload, once. It holds each body in memory once beside the line: it
cuts every non-empty ``"payload_b64":"…"`` or ``"output_b64":"…"``
string of strict base64 out of the raw line, checks it in 64 KiB
pieces, parses the small JSON left with the token ``NaN`` in its place
and puts each body back where it stood, as a ``str`` made straight
from the line's bytes. A line with no non-empty body costs one regular
expression search more than ``json.loads``; a line the cut does not
fit, or one that is rejected, is decoded whole as before, so every
error reads the same.

:class:`LineFramer` is linear in line length, so a multi-megabyte line
costs the same however the stream is chunked. ``feed`` returns
bytes-like lines: a line that fills the framer's buffer from its first
byte to its last, the usual case for a large one, is the buffer itself,
a ``bytearray`` handed over without a copy; every other line is
``bytes``.

Each message's schema is its dataclass: ``decode`` derives its checks
from the field annotations at import. A field is required unless its
annotation admits ``None``, and :data:`B64` marks base64 text.
"""

from __future__ import annotations

import base64
import json
import re
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
class JobWait:
    """Ask for the job's JOB_PROGRESS_REPLY once no task of it is queued
    or dispatched, or once ``timeout_ms`` has passed; without a timeout
    the wait has no deadline."""

    job_id: str
    timeout_ms: int | None = None


@dataclass(frozen=True)
class JobProgressReply:
    """A job's task counts by state: the constant-size reply to
    JOB_PROGRESS and JOB_WAIT."""

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
    | JobWait
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
    JobWait: "JOB_WAIT",
    JobProgressReply: "JOB_PROGRESS_REPLY",
    ErrorReply: "ERROR",
}


def _fields(obj: Any) -> dict[str, Any]:
    """A message dataclass's set fields: its instance dict minus ``None``."""
    return {name: value for name, value in vars(obj).items() if value is not None}


# A marked body's place in the JSON text. ``json.dumps`` writes a float NaN
# as the bare token NaN, and no message has a float field, so ``"<name>":NaN``
# is a B64 key followed by the marker: a string value can hold those
# characters only with its quotes escaped.
_MARK = float("nan")


def encode_parts(message: Message) -> list[bytes]:
    """The canonical line as parts whose concatenation is :func:`encode`.

    Each non-empty :data:`B64` value is a part of its own, its ASCII text
    copied once without a JSON escape scan. A message with no such value
    is one ``json.dumps`` and one part.

    Raises ValueError when a B64 value is not ASCII or holds a quote or
    a backslash, which would end its JSON string early; ``to_b64`` and
    ``decode`` admit neither.
    """
    type_name = _TYPE_NAMES.get(type(message))
    if type_name is None:
        raise TypeError(f"not a wire message: {type(message).__name__}")
    bodies: list[tuple[str, str]] = []

    def fields_marking_bodies(obj: Any) -> dict[str, Any]:
        # json.dumps calls this as it reaches each dataclass, so the
        # bodies are listed in the order their markers appear.
        values = _fields(obj)
        for name in _B64_FIELDS.get(type(obj), ()):
            if values.get(name):
                bodies.append((name, values[name]))
                values[name] = _MARK
        return values

    # Every message has a field, so the object is never "{}". A message is
    # a tree, so json.dumps need not track containers to catch a cycle.
    text = json.dumps(
        message, sort_keys=True, separators=(",", ":"), check_circular=False, default=fields_marking_bodies
    )
    parts = []
    head, start = f'{{"type":"{type_name}",', 1
    for name, body in bodies:
        data = body.encode("ascii")
        if b'"' in data or b"\\" in data:
            raise ValueError(f"field {name} holds a quote or a backslash")
        key = f'"{name}":'
        at = text.index(key + "NaN", start) + len(key)
        parts += [f'{head}{text[start:at]}"'.encode("utf-8"), data]
        head, start = '"', at + len("NaN")
    parts.append(f"{head}{text[start:]}\n".encode("utf-8"))
    return parts


def encode(message: Message) -> bytes:
    """Canonical single-line encoding, LF terminated."""
    return b"".join(encode_parts(message))


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
_PIECE = 64 * 1024


def _is_strict_b64(data: bytes | bytearray, start: int, end: int) -> bool:
    """True iff ``from_b64`` would accept ``data[start:end]``, found
    without decoding it and copying at most 64 KiB of it at a time.

    Strict base64 is alphabet characters followed by a run of ``=``. A
    string without data takes no padding; with ``n`` data characters,
    ``n % 4`` must be 0 (any padding), 2 (exactly two ``=``) or 3
    (exactly one).
    """
    stop = data.find(b"=", start, end)
    if stop < 0:
        stop = end
    n, pad = stop - start, end - stop
    if n % 4 == 1 or n % 4 and pad != 4 - n % 4 or pad and not n:
        return False
    if data.count(b"=", stop, end) != pad:
        return False
    view = memoryview(data)
    return not any(
        bytes(view[i : min(i + _PIECE, stop)]).translate(None, _B64_ALPHABET) for i in range(start, stop, _PIECE)
    )


def _check_b64(value: Any, name: str) -> str:
    if isinstance(value, memoryview):
        # A body that decode checked and cut from the line.
        return str(value, "ascii")
    text = _check_str(value, name)
    if text and not (text.isascii() and _is_strict_b64(text.encode("ascii"), 0, len(text))):
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


# Each message class's B64 field names, recorded by _spec_of.
_B64_FIELDS: dict[type, tuple[str, ...]] = {}


def _spec_of(cls: type) -> dict[str, tuple[Callable, bool]]:
    """``cls``'s fields in declaration order, each as (check, required);
    also records its B64 fields in ``_B64_FIELDS``."""
    hints = get_type_hints(cls, include_extras=True)
    spec = {}
    for f in fields(cls):
        hint = hints[f.name]
        required = type(None) not in get_args(hint)
        if not required:
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        spec[f.name] = (_check_for(hint), required)
    _B64_FIELDS[cls] = tuple(name for name, (check, _) in spec.items() if check is _check_b64)
    return spec


_SPECS = {name: (cls, _spec_of(cls)) for cls, name in _TYPE_NAMES.items()}


# Every B64 field name ends in "_b64", so this finds each body that may
# be cut: the end of its key, the quote that opens it and its first byte.
_BODY_START = re.compile(rb'_b64":"[^"]')
_BODY_KEYS = tuple({f'"{name}":"'.encode() for names in _B64_FIELDS.values() for name in names})


def _cut_bodies(line: bytes | bytearray, match: re.Match[bytes]) -> tuple[bytes, list[memoryview]] | None:
    """The line with the token ``NaN`` in place of each body that can be
    cut from it, and those bodies in source order, each a ``memoryview``
    of its bytes checked as strict base64; None when none can be cut.
    ``match`` is the line's first ``_BODY_START``.

    A body is cut where its key is a B64 field name whose leading quote
    is not escaped, followed by ``:"`` and a non-empty string of strict
    base64, so it holds no escape.
    """
    view = memoryview(line)
    pieces: list[memoryview] = []
    bodies: list[memoryview] = []
    start = 0
    while match:
        body = match.end() - 1
        end = line.find(b'"', body)
        key = line.rfind(b'"', 0, match.start())
        if (
            end > body
            and line[key:body] in _BODY_KEYS
            and not line.endswith(b"\\", 0, key)
            and _is_strict_b64(line, body, end)
        ):
            pieces.append(view[start : body - 1])
            bodies.append(view[body:end])
            start = body = end + 1
        match = _BODY_START.search(line, body)
    if not bodies:
        return None
    pieces.append(view[start:])
    return b"NaN".join(pieces), bodies


def _message(obj: Any) -> Message:
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    if "type" not in obj:
        raise ProtocolError("missing required field type")
    type_name = obj.pop("type")
    if not isinstance(type_name, str) or type_name not in _SPECS:
        raise ProtocolError(f"unknown message type {type_name!r}")
    cls, spec = _SPECS[type_name]
    return _build(cls, obj, spec, type_name)


def decode(line: bytes | bytearray) -> Message:
    """Parse one LF-terminated (or bare) message line.

    Each body that can be cut is cut out of the line before the JSON is
    parsed (see ``_cut_bodies``). The rest is parsed with ``NaN`` in place
    of each cut string, and ``parse_constant`` gives the bodies back in
    source order: a JSON string holds an unescaped quote only at its
    ends, so each cut string was a value in its object, and ``NaN`` is a
    value in the same place. Only the B64 check accepts a cut body, and
    makes its ``str``. A line whose rest holds ``NaN`` or ``Infinity``
    itself, and any line this rejects (a cut body in a ``params`` value
    among them), is decoded whole, so every error is reported as the
    whole line gives it.
    """
    match = _BODY_START.search(line)
    cut = match and _cut_bodies(line, match)
    if cut:
        rest, bodies = cut
        if rest.count(b"NaN") == len(bodies) and b"Infinity" not in rest:
            values = iter(bodies)
            try:
                return _message(json.loads(rest.decode("utf-8"), parse_constant=lambda _: next(values)))
            except (UnicodeDecodeError, json.JSONDecodeError, ProtocolError):
                pass  # decoded whole below, for the error the whole line gives
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    return _message(obj)


class LineFramer:
    """Reassemble LF-terminated lines from an arbitrarily chunked stream.

    Work is linear in the bytes fed: each chunk is scanned for LF once,
    resuming where the previous scan stopped, and the consumed lines are
    trimmed from the buffer once per call. A line that fills the buffer
    from its first byte to its last is not copied: the buffer itself is
    handed over, and a fresh one started. That is the usual case for a
    large line, as its sender then waits for a reply. A
    :class:`FramingError` leaves the stream unusable; the caller drops
    the framer with its connection.
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES):
        self._buffer = bytearray()
        self._max = max_line_bytes

    def feed(self, data: bytes) -> list[bytes | bytearray]:
        """Append a chunk; return the now-complete lines (LF stripped),
        each ``bytes`` or, for a line that was the whole buffer, the
        ``bytearray``."""
        buffer = self._buffer
        # Everything already buffered was scanned by an earlier call and
        # holds no LF.
        pos = len(buffer)
        buffer.extend(data)
        lines: list[bytes | bytearray] = []
        start = 0
        with memoryview(buffer) as view:
            while (idx := buffer.find(b"\n", pos)) >= 0:
                if idx - start > self._max:
                    raise FramingError(f"line of {idx - start} bytes exceeds cap {self._max}")
                if idx == len(buffer) - 1 and not start:
                    break  # the line is the whole buffer
                lines.append(view[start:idx].tobytes())
                start = pos = idx + 1
        if idx >= 0:
            del buffer[idx]
            self._buffer = bytearray()
            return [buffer]
        del buffer[:start]
        if len(buffer) > self._max:
            raise FramingError(f"unterminated line exceeds cap {self._max}")
        return lines
