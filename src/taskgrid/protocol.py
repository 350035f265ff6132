"""Wire protocol: newline-delimited JSON messages over TCP.

Every message is one UTF-8 JSON object on a single line terminated by
LF. Encoding is canonical and byte-deterministic: the ``type`` field
comes first, every other key (at any nesting level) is sorted
alphabetically, optional fields that are unset are omitted, and binary
payloads travel as base64 strings. Decoders accept any field order.

Each message's schema is its dataclass, declared once. A SUBMIT's task
entries and the DISPATCH share one, :class:`Dispatch` (``SubmitTask`` is
the same class): the master sends each entry it decoded, unchanged, as
that task's DISPATCH. At import, one
walk over each class's field annotations compiles a writer and a reader
for it, the only encode and decode paths. A field is required unless
its annotation admits ``None`` (it then defaults to ``None``), and
:data:`B64` marks base64 text.

The writer emits the canonical line directly: ``str`` values through
``json.encoder.encode_basestring_ascii``, integers as ``int.__repr__``
gives them, booleans as ``true`` and ``false``, ``params`` sorted. A
value whose type is not its field's raises ``TypeError`` at the sender.
:func:`encode_parts` gives the line as parts: each non-empty base64
body is a part of its own, copied once and never escaped, and the JSON
around it is the rest of the line, so the bytes on the wire are those
of :func:`encode`; every sender writes the parts of :func:`line_parts`,
which adds the one check of an outbound line against the cap.

The reader takes the object ``json.loads`` gives. It passes a ``str``,
``int`` or ``bool`` field on an exact type test and runs a check on
every other value and on every base64, ``params``, enum and array
field. A rejection names the first bad or missing field in
declaration order or, failing that, the alphabetically first unknown
key. It builds the instance without running the frozen ``__init__``.

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
"""

from __future__ import annotations

import base64
import json
import re
import select
import socket
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Annotated, Any, Callable, Literal, get_args, get_origin, get_type_hints

MAX_LINE_BYTES = 64 * 1024 * 1024
# An ERROR detail quotes at most this many characters of a peer's text.
ECHO_CHARS = 64

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


class LineTooLarge(ValueError):
    """What :func:`line_parts` raises, before any byte is written, for a
    line of ``line_bytes`` (LF excluded) over :data:`MAX_LINE_BYTES`."""

    def __init__(self, message: Message, line_bytes: int):
        super().__init__(f"{type(message).__name__} of {line_bytes} bytes exceeds line cap {MAX_LINE_BYTES}")
        self.line_bytes = line_bytes


def echo(text: str) -> str:
    """Peer text as an ERROR detail quotes it: at most :data:`ECHO_CHARS`
    characters, and when cut, a marker with the full length."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def to_b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def from_b64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


@dataclass(frozen=True)
class Register:
    """A worker's profile. ``slots`` is how many dispatched tasks it
    holds at once: the one it runs and those queued behind it, in
    dispatch order; unset means 1."""

    worker_id: str
    cpu_mhz: int
    has_gpu: bool
    gpu_cores: int | None = None
    gpu_mem_mb: int | None = None
    slots: int | None = None


@dataclass(frozen=True)
class RegisterAck:
    accepted: bool
    heartbeat_interval_ms: int
    reason: str | None = None


@dataclass(frozen=True)
class Heartbeat:
    """``busy``: the worker holds at least one task."""

    worker_id: str
    ts_ms: int
    busy: bool


@dataclass(frozen=True)
class HeartbeatAck:
    status: Literal["OK", "NOT_REGISTERED"]


@dataclass(frozen=True)
class Dispatch:
    """One task: an entry of a SUBMIT, and the DISPATCH the master sends
    for that entry, which is the entry itself."""

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


SubmitTask = Dispatch


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
class JobWait:
    """Ask for the job's JOB_PROGRESS_REPLY once no task of it is queued
    or dispatched, or once ``timeout_ms`` has passed (at once if it is 0
    or less); without a timeout the wait has no deadline."""

    job_id: str
    timeout_ms: int | None = None


@dataclass(frozen=True)
class JobProgressReply:
    """A job's task counts by state: the constant-size reply to
    JOB_WAIT."""

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
    JobWait: "JOB_WAIT",
    JobProgressReply: "JOB_PROGRESS_REPLY",
    ErrorReply: "ERROR",
}


# -- the reader's checks ------------------------------------------------------
#
# A reader passes a str, int or bool field's value on an exact type test;
# these checks see every other value, and every B64, params, enum and array
# value, and raise the ProtocolError that names the field.


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
    return value


def _check_enum(allowed: tuple[str, ...]) -> Callable[[Any, str], str]:
    def check(value: Any, name: str) -> str:
        text = _check_str(value, name)
        if text not in allowed:
            raise ProtocolError(f"field {name} must be one of {', '.join(allowed)}")
        return text

    return check


def _check_object(value: Any, name: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ProtocolError(f"field {name} must be an object")
    return value


def _check_array(read_entry: Callable[[dict[str, Any], str], Any]) -> Callable[[Any, str], tuple]:
    def check(value: Any, name: str) -> tuple:
        if not isinstance(value, list):
            raise ProtocolError(f"field {name} must be an array")
        where = f"{name} entry"
        return tuple(read_entry(_check_object(item, name), where) for item in value)

    return check


# -- the writer's pieces ------------------------------------------------------
#
# A value writer appends its value's JSON text to ``out`` as str pieces;
# a non-empty B64 body goes in as ``bytes``, its index added to ``bodies``.
# A value of the wrong type raises TypeError naming its field.

_Out = list[Any]


def _ill_typed(name: str, value: Any, expected: str) -> TypeError:
    return TypeError(f"field {name} must be {expected}, not {type(value).__name__}")


def _write_str(value: Any, name: str, out: _Out, bodies: list[int]) -> None:
    if not isinstance(value, str):
        raise _ill_typed(name, value, "a string")
    out.append(encode_basestring_ascii(value))


def _write_int(value: Any, name: str, out: _Out, bodies: list[int]) -> None:
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise _ill_typed(name, value, "an integer")
    out.append(int.__repr__(value))


def _write_bool(value: Any, name: str, out: _Out, bodies: list[int]) -> None:
    if value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise _ill_typed(name, value, "a boolean")


def _write_b64(value: Any, name: str, out: _Out, bodies: list[int]) -> None:
    if not isinstance(value, str):
        raise _ill_typed(name, value, "a string")
    if not value:
        out.append('""')
        return
    data = value.encode("ascii")
    if b'"' in data or b"\\" in data:
        raise ValueError(f"field {name} holds a quote or a backslash")
    out.append('"')
    bodies.append(len(out))
    out += (data, '"')


def _write_params(value: Any, name: str, out: _Out, bodies: list[int]) -> None:
    if not isinstance(value, dict):
        raise _ill_typed(name, value, "a dict")
    if not value:
        out.append("{}")
        return
    out.append("{")
    for key, item in sorted(value.items()):
        if not isinstance(key, str) or not isinstance(item, str):
            raise TypeError(f"field {name} must map strings to strings")
        out += (encode_basestring_ascii(key), ":", encode_basestring_ascii(item), ",")
    out[-1] = "}"


def _write_array(cls: type, write_entry: Callable[[Any, _Out, list[int]], None]) -> Callable:
    def write(value: Any, name: str, out: _Out, bodies: list[int]) -> None:
        if not isinstance(value, tuple):
            raise _ill_typed(name, value, "a tuple")
        if not value:
            out.append("[]")
            return
        out.append("[")
        for entry in value:
            if type(entry) is not cls:
                raise _ill_typed(f"{name} entry", entry, cls.__name__)
            write_entry(entry, out, bodies)
            out.append(",")
        out[-1] = "]"

    return write


# -- one writer and one reader per message class ------------------------------

# Each plain field type's value writer, the type its reader passes without
# a check (None: it checks every value) and its check.
_KINDS: dict[Any, tuple[Callable, type | None, Callable[[Any, str], Any]]] = {
    str: (_write_str, str, _check_str),
    int: (_write_int, int, _check_int),
    bool: (_write_bool, bool, _check_bool),
    B64: (_write_b64, None, _check_b64),
    dict[str, str]: (_write_params, None, _check_params),
}

# Every B64 field name, recorded by _compile.
_B64_NAMES: set[str] = set()


def _kind_of(hint: Any) -> tuple[Callable, type | None, Callable[[Any, str], Any]]:
    origin = get_origin(hint)
    if origin is Literal:
        return _write_str, None, _check_enum(get_args(hint))
    if origin is tuple:
        cls = get_args(hint)[0]
        write_entry, read_entry = _compile(cls, "{", "}")
        return _write_array(cls, write_entry), None, _check_array(read_entry)
    return _KINDS[hint]


def _compile(cls: type, opening: str, closing: str) -> tuple[Callable, Callable]:
    """``cls``'s writer and reader, derived from one walk over its fields.

    A field is required unless its annotation admits None; an optional
    field defaults to None, which the writer omits and the reader gives
    an absent field. The writer emits ``opening``, each set field as
    ``"name":value`` in sorted key order, and ``closing``. The reader
    checks a decoded JSON object's fields in declaration order, then
    its unknown keys, and builds the instance without running the
    frozen ``__init__``.
    """
    hints = get_type_hints(cls, include_extras=True)
    steps = []
    for f in fields(cls):
        hint = hints[f.name]
        optional = type(None) in get_args(hint)
        if optional:
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
            if f.default is not None:
                raise TypeError(f"{cls.__name__}.{f.name} admits None, so it must default to None")
        write, exact, check = _kind_of(hint)
        if write is _write_b64:
            _B64_NAMES.add(f.name)
        steps.append((f.name, optional, write, exact, check))
    writes = tuple((name, f'"{name}":', write, optional) for name, optional, write, _, _ in sorted(steps))
    checks = tuple((name, exact, check, optional) for name, optional, _, exact, check in steps)
    names = frozenset(name for name, *_ in steps)

    def write(message: Any, out: _Out, bodies: list[int]) -> None:
        values = message.__dict__
        out.append(opening)
        for name, key, write_value, optional in writes:
            value = values[name]
            if value is None and optional:
                continue
            out.append(key)
            write_value(value, name, out, bodies)
            out.append(",")
        # Every message and entry class has a required field, so the last
        # piece is the comma after a value.
        out[-1] = closing

    def read(obj: dict[str, Any], where: str) -> Any:
        message = object.__new__(cls)
        values = message.__dict__
        for name, exact, check, optional in checks:
            if name in obj:
                value = obj[name]
                if type(value) is not exact:
                    value = check(value, name)
            elif optional:
                value = None
            else:
                raise ProtocolError(f"missing required field {name} in {where}")
            values[name] = value
        if not obj.keys() <= names:
            raise ProtocolError(f"unknown field {echo(min(obj.keys() - names))} in {where}")
        return message

    return write, read


_CODECS = {cls: _compile(cls, f'{{"type":"{name}",', "}\n") for cls, name in _TYPE_NAMES.items()}
_WRITERS = {cls: write for cls, (write, _) in _CODECS.items()}
_READERS = {_TYPE_NAMES[cls]: read for cls, (_, read) in _CODECS.items()}


def encode_parts(message: Message) -> list[bytes]:
    """The canonical line as parts whose concatenation is :func:`encode`.

    The message's writer emits the line's JSON text and each non-empty
    :data:`B64` value is a part of its own, its ASCII text copied once
    without a JSON escape scan. A message with no such value is one part.

    Raises TypeError when a field's value is not of its declared type,
    and ValueError when a B64 value is not ASCII or holds a quote or a
    backslash, which would end its JSON string early (``to_b64`` and
    ``decode`` admit neither), or an integer has more digits than
    ``int.__repr__`` may print.
    """
    write = _WRITERS.get(type(message))
    if write is None:
        raise TypeError(f"not a wire message: {type(message).__name__}")
    out: _Out = []
    bodies: list[int] = []
    write(message, out, bodies)
    parts = []
    start = 0
    for at in bodies:
        parts += ("".join(out[start:at]).encode("ascii"), out[at])
        start = at + 1
    parts.append("".join(out[start:]).encode("ascii"))
    return parts


def line_parts(message: Message) -> list[bytes]:
    """:func:`encode_parts`, or :class:`LineTooLarge` for a line over
    :data:`MAX_LINE_BYTES`: every sender's one check of its line."""
    parts = encode_parts(message)
    if (line_bytes := sum(map(len, parts)) - 1) > MAX_LINE_BYTES:
        raise LineTooLarge(message, line_bytes)
    return parts


def encode(message: Message) -> bytes:
    """Canonical single-line encoding, LF terminated."""
    return b"".join(encode_parts(message))


# Every B64 field name ends in "_b64", so this finds each body that may
# be cut: the end of its key, the quote that opens it and its first byte.
_BODY_START = re.compile(rb'_b64":"[^"]')
_BODY_KEYS = tuple({f'"{name}":"'.encode() for name in _B64_NAMES})


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
    if not isinstance(type_name, str) or type_name not in _READERS:
        raise ProtocolError(f"unknown message type {echo(repr(type_name))}")
    return _READERS[type_name](obj, type_name)


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
    whole line gives it. Whatever ``json.loads`` refuses is a ProtocolError.
    """
    match = _BODY_START.search(line)
    cut = match and _cut_bodies(line, match)
    if cut:
        rest, bodies = cut
        if rest.count(b"NaN") == len(bodies) and b"Infinity" not in rest:
            values = iter(bodies)
            try:
                return _message(json.loads(rest.decode("utf-8"), parse_constant=lambda _: next(values)))
            except (ValueError, RecursionError, ProtocolError):
                pass  # decoded whole below, for the error the whole line gives
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # Nesting too deep, bad UTF-8 or JSON, an int past the digit limit.
        raise ProtocolError(f"malformed JSON: {exc}") from None
    return _message(obj)


class LineFramer:
    """Reassemble LF-terminated lines from an arbitrarily chunked stream.

    Work is linear in the bytes fed: each chunk is scanned for LF once, resuming
    where the previous scan stopped, and the consumed lines are trimmed from the
    buffer once per call. A line that fills the buffer from its first byte to its
    last is not copied: the buffer itself is handed over, and a fresh one started.
    That is the usual case for a large line, as its sender then waits for a reply.
    A :class:`FramingError` leaves the stream unusable; the caller drops the
    framer with its connection. The cap is :data:`MAX_LINE_BYTES`, read when each
    chunk is checked, as :func:`line_parts` reads it.
    """

    def __init__(self):
        self._buffer = bytearray()

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
        cap = MAX_LINE_BYTES
        with memoryview(buffer) as view:
            while (idx := buffer.find(b"\n", pos)) >= 0:
                if idx - start > cap:
                    raise FramingError(f"line of {idx - start} bytes exceeds cap {cap}")
                if idx == len(buffer) - 1 and not start:
                    break  # the line is the whole buffer
                lines.append(view[start:idx].tobytes())
                start = pos = idx + 1
        if idx >= 0:
            del buffer[idx]
            self._buffer = bytearray()
            return [buffer]
        del buffer[:start]
        if len(buffer) > cap:
            raise FramingError(f"unterminated line exceeds cap {cap}")
        return lines


class MasterLink:
    """The worker's and the client's blocking connection to the master.

    Callers serialise ``send``, which writes :func:`line_parts`: what they
    refuse (:class:`LineTooLarge` among it) raises with nothing written.
    ``read_lines`` returns the lines one ``recv`` completes, ``[]`` if
    nothing came within ``timeout_ms`` (``None`` waits), and raises
    ``ConnectionError`` at EOF.
    """

    def __init__(self, address: tuple[str, int], connect_timeout_s: float):
        self.sock = socket.create_connection(address, timeout=connect_timeout_s)
        # Not a socket timeout, which a large send would share: reads wait in poll.
        self.sock.settimeout(None)
        # Nagle's algorithm would hold a line's small last part, or a small
        # line right behind another, until the master's delayed ACK.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._framer = LineFramer()
        self._poller = select.poll()
        self._poller.register(self.sock, select.POLLIN)

    def send(self, message: Message) -> None:
        for part in line_parts(message):
            self.sock.sendall(part)

    def read_lines(self, timeout_ms: int | None = None) -> list[bytes | bytearray]:
        if timeout_ms is not None and not self._poller.poll(timeout_ms):
            return []
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("master closed the connection")
        return self._framer.feed(chunk)

    def close(self) -> None:
        self.sock.close()
