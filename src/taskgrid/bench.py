"""Timing harness: run the Sobel workload both ways and report.

For each input image the harness submits ``sobel_seq`` (CPU-class) and
``sobel_par`` (GPU-class) tasks against a live cluster, checks that the
two outputs are byte-identical, and reports worker-side execution time
next to client-observed turnaround. ``overhead = turnaround - exec``
isolates what the framework itself costs; exec and turnaround stay
separate columns because they answer different questions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .client import MasterClient, make_task
from .model import overhead_ms
from .protocol import TaskReport
from .sobel import parse_pgm

CSV_HEADER = "label,m,n,seq_exec_ms,par_exec_ms,turnaround_ms,overhead_ms"
TASK_TIMEOUT_S = 600.0


class IntegrityError(RuntimeError):
    """Sequential and parallel outputs disagreed; the report would lie."""


class BenchTaskFailed(RuntimeError):
    pass


@dataclass
class BenchRow:
    label: str
    m: int
    n: int
    seq_exec_ms: int
    par_exec_ms: int
    turnaround_ms: int
    overhead_ms: int


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.label},{r.m},{r.n},{r.seq_exec_ms},{r.par_exec_ms},"
                f"{r.turnaround_ms},{r.overhead_ms}"
            )
        return "\n".join(lines) + "\n"

    def render_table(self) -> str:
        headers = ["label", "size", "seq_exec_ms", "par_exec_ms", "turnaround_ms", "overhead_ms"]
        body = [
            [
                r.label,
                f"{r.m}x{r.n}",
                str(r.seq_exec_ms),
                str(r.par_exec_ms),
                str(r.turnaround_ms),
                str(r.overhead_ms),
            ]
            for r in self.rows
        ]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        def fmt(cells: list[str]) -> str:
            return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
        lines = [fmt(headers), fmt(["-" * w for w in widths])]
        lines.extend(fmt(row) for row in body)
        return "\n".join(lines) + "\n"


def _run_one(
    client: MasterClient,
    kind: str,
    payload: bytes,
    requires_gpu: bool,
    params: dict[str, str],
    timeout_s: float,
) -> TaskReport:
    task = make_task(kind, payload=payload, requires_gpu=requires_gpu, params=params)
    ack = client.submit([task])
    if ack.accepted_count != 1:
        raise BenchTaskFailed(f"master rejected bench task for kind {kind}")
    reply = client.wait_for_job(ack.job_id, timeout_s=timeout_s)
    if len(reply.tasks) != 1:
        raise BenchTaskFailed(f"{kind} job reported {len(reply.tasks)} tasks, not 1")
    report = reply.tasks[0]
    if report.state != "COMPLETED":
        raise BenchTaskFailed(f"{kind} task ended {report.state}: {report.error}")
    return report


def _median_report(reports: list[TaskReport]) -> TaskReport:
    ordered = sorted(reports, key=lambda r: r.exec_ms)
    return ordered[(len(ordered) - 1) // 2]


def run_bench(
    client: MasterClient,
    images: list[tuple[str, bytes]],
    lane_count: int | None = None,
    repeat: int = 1,
) -> BenchReport:
    """Run seq and par tasks for every image; ``repeat`` runs each and
    reports the median-execution run. Aborts with :class:`IntegrityError`
    if any parallel output differs from the sequential output."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    par_params = {} if lane_count is None else {"lane_count": str(lane_count)}
    rows: list[BenchRow] = []
    for label, payload in images:
        img = parse_pgm(payload)
        seq_runs = [
            _run_one(client, "sobel_seq", payload, False, {}, TASK_TIMEOUT_S)
            for _ in range(repeat)
        ]
        par_runs = [
            _run_one(client, "sobel_par", payload, True, par_params, TASK_TIMEOUT_S)
            for _ in range(repeat)
        ]
        reference = seq_runs[0].output_b64
        for run in seq_runs[1:]:
            if run.output_b64 != reference:
                raise IntegrityError(f"{label}: sequential output varied between runs")
        for run in par_runs:
            if run.output_b64 != reference:
                raise IntegrityError(f"{label}: parallel output differs from sequential")
        seq_pick = _median_report(seq_runs)
        par_pick = _median_report(par_runs)
        turnaround = par_pick.completed_ms - par_pick.submitted_ms
        rows.append(
            BenchRow(
                label=label,
                m=img.width,
                n=img.height,
                seq_exec_ms=seq_pick.exec_ms,
                par_exec_ms=par_pick.exec_ms,
                turnaround_ms=turnaround,
                overhead_ms=overhead_ms(par_pick),
            )
        )
    return BenchReport(rows)
