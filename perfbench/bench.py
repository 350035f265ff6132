"""Benchmark phases: the end-to-end cluster run and the traced run.

``--trace 0`` measures the end-to-end metrics on an untraced cluster of
subprocesses. ``--trace 1`` gives the per-layer metrics: the same cluster
run with each ``MasterClient`` call timed, a timed in-process replay of
the workload, and a Sobel kernel probe. Readable lines go first; the
last line of standard output is the JSON result. Any incorrect output
or error raises, so the run exits non-zero with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import time
from dataclasses import dataclass, replace
from statistics import median
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from taskgrid import protocol
from taskgrid.protocol import SubmitTask, TaskReport
from taskgrid.sobel import parse_pgm, sobel_parallel

from inputs import LANE_COUNT, SIZES, WORKLOADS, IncorrectOutput, make_bag, noise_pgm, reference_sobel, verify
from procs import Cluster, live_children, vm_hwm_mb
from replay import Replay, layer_metrics, timed_registry
from stats import NullTracer, Tracer, failed_frac, nearest_rank, run_tail, span_cost_ns, tail

JOB_TIMEOUT_S = 120.0
# BUSY resubmission rounds per bag before the run gives up.
MAX_RESUBMITS = 10
# Job ids that run_bag gives resubmissions.
RESUBMITTED = re.compile(r"-r\d+$")
SETUPS = 3
PROBE_CALLS = 3


def environment(args: argparse.Namespace) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "type").read_text().strip() != "Instruction":
            caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    workload = WORKLOADS[args.workload]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "bags": workload.bags_for(args.seconds),
        "poll_s": workload.poll_s,
        "replay_poll_every_results": workload.replay_poll_every,
        "lane_count": LANE_COUNT,
    }


def _git_commit() -> str:
    git = Path.cwd() / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _time_client(client, tracer: Tracer, status_bytes: list[int]) -> None:
    """Wrap this client's submit and job_status calls in spans. Calls for
    BUSY resubmissions get spans of their own, so that the bags' calls
    keep their medians."""
    submit, job_status = client.submit, client.job_status

    def name(call: str, job_id: str) -> str:
        return f"client.{call}" + (".resubmitted" if RESUBMITTED.search(job_id) else "")

    def timed_submit(tasks, job_id):
        with tracer.span(name("submit", job_id)):
            return submit(tasks, job_id=job_id)

    def timed_job_status(job_id):
        with tracer.span(name("job_status", job_id)):
            reply = job_status(job_id)
        # Canonical encoding: re-encoding reproduces the received line.
        status_bytes.append(len(protocol.encode(reply)))
        return reply

    client.submit, client.job_status = timed_submit, timed_job_status


def cluster_run(workload, seed: int, seconds: float, log_dir: Path, setups: int,
                tracer: Tracer | None = None, status_bytes: list[int] | None = None):
    """Set up ``setups`` fresh clusters one after another; bag j runs on
    cluster j % setups, so that no single cluster sets a run's figures.

    Returns (setup seconds per cluster, the measured bags, master peak
    RSS in MiB per cluster).
    """
    n_bags = workload.bags_for(seconds)
    setup_times, bags, rss_mb = [], [], []
    ticks = _cpu_ticks()
    for i in range(setups):
        cluster = Cluster(Path.cwd(), log_dir)
        try:
            client = cluster.start()
            setup_times.append(cluster.setup_s)
            with client:
                if tracer is not None:
                    _time_client(client, tracer, status_bytes)
                for bag in range(i, n_bags, setups):
                    job_id, tasks = make_bag(workload, seed, bag)
                    bags.append(run_bag(client, job_id, tasks, workload.poll_s))
                rss_mb.append(vm_hwm_mb(cluster.master_pid))
        finally:
            cluster.stop()
    delta = [b - a for a, b in zip(ticks, _cpu_ticks())]
    # Time the hypervisor gave to other guests: the main source of run-to-run drift.
    print(f"host steal during the run: {100 * delta[7] / max(1, sum(delta)):.1f} % of CPU time")
    return setup_times, bags, rss_mb


def _cpu_ticks() -> list[int]:
    # The aggregate "cpu" line: user nice system idle iowait irq softirq steal ...
    return [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]


@dataclass
class BagRun:
    """One bag as its user sees it, BUSY resubmissions included."""
    reports: list[TaskReport]  # final report per task; submitted_ms from the first SUBMIT
    seconds: float  # from the first SUBMIT until the last task is terminal
    first_states: list[str]  # each task's state after its first submission
    busy_rejects: int  # FAILED reports with error BUSY, resubmissions included


def run_bag(client, job_id: str, tasks: list[SubmitTask], poll_s: float) -> BagRun:
    """Submit one bag, then resubmit its BUSY-failed tasks under fresh ids
    until every task is terminal otherwise.

    A BUSY rejection is the worker race of ROADMAP item 2, not a property
    of the task, so a user of the cluster resubmits it. Its cost stays in
    the bag's time and in the task's turnaround, which counts from the
    first SUBMIT; ``first_states`` and ``busy_rejects`` show the race.
    """
    final: dict[str, TaskReport] = {}
    origin = {t.task_id: t.task_id for t in tasks}
    submitted_ms: dict[str, int] = {}
    first_states: list[str] = []
    busy = 0
    pending = tasks
    rounds = []
    t0 = time.perf_counter()
    for attempt in range(MAX_RESUBMITS + 1):
        jid = job_id if attempt == 0 else f"{job_id}-r{attempt}"
        ack = client.submit(pending, job_id=jid)
        reply = client.wait_for_job(jid, timeout_s=JOB_TIMEOUT_S, poll_interval_s=poll_s)
        if ack.accepted_count != len(pending):
            raise RuntimeError(f"{jid}: master accepted {ack.accepted_count} of {len(pending)} tasks")
        if any(r.state not in ("COMPLETED", "FAILED") for r in reply.tasks):
            raise TimeoutError(f"{jid}: not terminal after {JOB_TIMEOUT_S} s")
        rounds.append((pending, reply))
        by_id = {t.task_id: t for t in pending}
        pending = []
        for report in reply.tasks:
            first = origin[report.task_id]
            submitted_ms.setdefault(first, report.submitted_ms)
            if attempt == 0:
                first_states.append(report.state)
            if report.state == "FAILED" and report.error == "BUSY":
                busy += 1
                retry = replace(by_id[report.task_id], task_id=f"{first}-r{attempt + 1}")
                origin[retry.task_id] = first
                pending.append(retry)
                continue
            final[first] = replace(report, task_id=first, submitted_ms=submitted_ms[first])
        if not pending:
            seconds = time.perf_counter() - t0
            for submitted, reply in rounds:
                verify(submitted, reply)
            return BagRun([final[t.task_id] for t in tasks], seconds, first_states, busy)
    raise RuntimeError(f"{job_id}: {len(pending)} tasks still BUSY after {MAX_RESUBMITS} resubmissions")


def e2e_metrics(setup_times, bags: list[BagRun], rss_mb):
    reports = [r for bag in bags for r in bag.reports]
    done = [[r for r in bag.reports if r.state == "COMPLETED"] for bag in bags]
    turnaround = [[r.completed_ms - r.submitted_ms for r in bag] for bag in done]
    pooled = [t for bag in turnaround for t in bag]
    n_done = len(pooled)
    tail_rule, tail_ms = run_tail(turnaround)
    pct, _ = tail(pooled)
    first = failed_frac([state for bag in bags for state in bag.first_states])
    print(f"tasks: {len(reports)} submitted, failed_frac {first:.5f} on first submission, "
          f"{sum(bag.busy_rejects for bag in bags)} BUSY rejections resubmitted, "
          f"{n_done} completed in the end")
    print(f"turnaround tail: {tail_rule} (completed tasks, from the first SUBMIT)")
    print("setup_s per cluster: " + ", ".join(f"{s:.3f}" for s in setup_times))
    print("master_rss_mb per cluster: " + ", ".join(f"{m:.1f}" for m in rss_mb))
    print("seconds per bag: " + ", ".join(f"{bag.seconds:.3f}" for bag in bags))
    print(f"breakdown per completed task in ms, p50 / p{pct} (exec_ms is whole milliseconds):")
    breakdown = {
        "queue_wait": lambda r: r.dispatched_ms - r.submitted_ms,
        "exec": lambda r: r.exec_ms,
        "remainder": lambda r: r.completed_ms - r.dispatched_ms - r.exec_ms,
    }
    for name, part in breakdown.items():
        values = [part(r) for bag in done for r in bag]
        print(f"  {name:<10} {median(values):9.1f} / {nearest_rank(sorted(values), pct):9.1f}")
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "tasks_per_s": (n_done / sum(bag.seconds for bag in bags), "1/s"),
        "turnaround_p50_ms": (median(pooled), "ms"),
        "turnaround_tail_ms": (tail_ms, "ms"),
        "overhead_p50_ms": (median(r.completed_ms - r.submitted_ms - r.exec_ms
                                   for bag in done for r in bag), "ms"),
        "first_try_frac": (1 - first, "ratio"),
        "master_rss_mb": (median(rss_mb), "MiB"),
    }
    return metrics, len(reports), len(reports) - n_done


def kernel_probe(seed: int) -> dict:
    """Registry calls and direct ``sobel_parallel`` calls on one seeded
    image per size; both outputs are gated against the reference."""
    registry = timed_registry(NullTracer())
    out = {}
    for side in SIZES:
        pgm = noise_pgm(np.random.default_rng([seed, side]), side)
        expected = reference_sobel(pgm)
        img = parse_pgm(pgm)
        exec_ms, ns_per_px = [], []
        for _ in range(PROBE_CALLS):
            t0 = time.perf_counter_ns()
            output, _ = registry.execute("sobel_par", {"lane_count": str(LANE_COUNT)}, pgm)
            exec_ms.append((time.perf_counter_ns() - t0) / 1e6)
            t0 = time.perf_counter_ns()
            result = sobel_parallel(img, LANE_COUNT)
            ns_per_px.append((time.perf_counter_ns() - t0) / (side * side))
            if output != expected or result.pixels != expected[-side * side :]:
                raise IncorrectOutput(f"kernel probe {side}x{side} differs from the reference")
        out[f"workloads.exec_ms.sobel_par.{side}"] = (median(exec_ms), "ms")
        out[f"sobel.par_ns_per_px.{side}"] = (median(ns_per_px), "ns/px")
    return out


def _client_metrics(workload, seed: int, seconds: float, log_dir: Path):
    """The cluster part of a traced run: the same bags with timed client calls."""
    tracer, status_bytes = Tracer(), []
    _, bags, _ = cluster_run(workload, seed, seconds, log_dir, setups=1,
                             tracer=tracer, status_bytes=status_bytes)
    reports = [r for bag in bags for r in bag.reports]
    done = [r for r in reports if r.state == "COMPLETED"]
    metrics = {
        "client.submit_ms": (tracer.p50_ms("client.submit"), "ms"),
        "client.poll_p50_ms": (tracer.p50_ms("client.job_status"), "ms"),
        "client.status_bytes": (sum(status_bytes) / len(bags), "bytes/bag"),
        "worker.busy_rejects": (sum(bag.busy_rejects for bag in bags), "count"),
    }
    return metrics, len(reports), len(reports) - len(done)


def traced_run(workload, seed: int, seconds: float, log_dir: Path):
    """Per-layer metrics; attempted and failed count the cluster run only,
    since a replay task that does not complete aborts the run."""
    metrics, attempted, failed = _client_metrics(workload, seed, seconds, log_dir)
    replay = Replay(workload, seed, Tracer())
    wall_s = replay.run()
    metrics.update(layer_metrics(replay))
    # Two whole replays differ by more than the tracer adds, so the
    # overhead is the tracer's own cost: spans recorded times one span's cost.
    cost_ns = span_cost_ns()
    spans = len(replay.t.spans)
    print(f"replay wall {wall_s:.3f} s, {spans} spans at {cost_ns:.0f} ns each")
    metrics["trace.overhead_frac"] = (spans * cost_ns / 1e9 / wall_s, "ratio")

    metrics.update(kernel_probe(seed))
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    log_dir = Path(__file__).resolve().parent / ".run"
    log_dir.mkdir(exist_ok=True)
    print("env " + json.dumps(environment(args), sort_keys=True))
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(workload, args.seed, args.seconds, log_dir)
        else:
            metrics, attempted, failed = e2e_metrics(
                *cluster_run(workload, args.seed, args.seconds, log_dir, setups=SETUPS))
    finally:
        # Spawned Sobel pools in this process leave multiprocessing's
        # resource tracker running; stop and reap it before exiting.
        resource_tracker._resource_tracker._stop()
    if live_children():
        raise RuntimeError(f"child processes outlived the run: {live_children()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
