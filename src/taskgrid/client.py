"""Client-side helpers: submit jobs to a master and wait for them to finish."""

from __future__ import annotations

import uuid
from typing import TypeVar

from . import protocol
from .protocol import (
    ErrorReply,
    JobProgressReply,
    JobStatus,
    JobStatusReply,
    JobWait,
    Message,
    Submit,
    SubmitAck,
    SubmitTask,
)


R = TypeVar("R", bound=Message)


class MasterUnreachable(ConnectionError):
    pass


class ClientError(RuntimeError):
    """The master answered with an ERROR reply."""


def new_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


def make_task(
    kind: str,
    payload: bytes = b"",
    requires_gpu: bool = False,
    params: dict[str, str] | None = None,
    task_id: str | None = None,
) -> SubmitTask:
    return SubmitTask(
        task_id=task_id or new_id("task"),
        kind=kind,
        requires_gpu=requires_gpu,
        params=dict(params or {}),
        payload_b64=protocol.to_b64(payload),
    )


class MasterClient:
    """One TCP connection speaking the request/reply subset of the protocol."""

    def __init__(self, host: str, port: int, connect_timeout_s: float = 5.0):
        try:
            self._link = protocol.MasterLink((host, port), connect_timeout_s)
        except OSError as exc:
            raise MasterUnreachable(f"cannot reach master at {host}:{port}: {exc}") from exc

    def close(self) -> None:
        self._link.close()

    def __enter__(self) -> MasterClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, message: Message, reply_type: type[R]) -> R:
        self._link.send(message)
        # The master answers each request with one line.
        while not (lines := self._link.read_lines()):
            pass
        reply = protocol.decode(lines[0])
        if isinstance(reply, ErrorReply):
            raise ClientError(f"{reply.code}: {reply.detail}")
        if not isinstance(reply, reply_type):
            raise ClientError(f"unexpected reply to {type(message).__name__}: {type(reply).__name__}")
        return reply

    def submit(self, tasks: list[SubmitTask], job_id: str | None = None) -> SubmitAck:
        job_id = job_id or new_id("job")
        return self._request(Submit(job_id=job_id, tasks=tuple(tasks)), SubmitAck)

    def job_status(self, job_id: str) -> JobStatusReply:
        return self._request(JobStatus(job_id=job_id), JobStatusReply)

    def job_progress(self, job_id: str) -> JobProgressReply:
        """The job's counts now: a JOB_WAIT whose deadline has passed."""
        return self._request(JobWait(job_id=job_id, timeout_ms=0), JobProgressReply)

    def wait_for_job(
        self,
        job_id: str,
        timeout_s: float | None = None,
        poll_interval_s: float = 0.1,
    ) -> JobStatusReply:
        """Send one JOB_WAIT, which the master answers once no task of the
        job is queued or dispatched or once ``timeout_s`` has passed
        (``None``: no deadline), then fetch JOB_STATUS once and return it;
        on timeout that reply is not terminal. The outputs cross the wire
        once.

        ``poll_interval_s`` is accepted for older callers and ignored: the
        master pushes the answer, so nothing polls.
        """
        timeout_ms = None if timeout_s is None else round(timeout_s * 1000)
        self._request(JobWait(job_id=job_id, timeout_ms=timeout_ms), JobProgressReply)
        return self.job_status(job_id)
