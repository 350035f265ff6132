"""Command-line entry points: master, worker, submit, bench.

Exit codes are fixed for scripting: 0 success, 1 task failure or bad
reply, 2 usage error (a malformed flag, a file that cannot be read or
written, a port that cannot be bound, a SUBMIT over the line cap), 3
master unreachable or lost.

This module imports no other taskgrid module at load; each ``cmd_*``
imports what it runs, and :func:`main` imports the errors it maps to
exit codes, so the master and ``submit`` never load numpy.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import signal
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNREACHABLE = 3


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with PORT in 0-65535, got {text!r}")
    return host or "0.0.0.0", int(port)


def parse_duration_ms(text: str) -> int:
    match = re.fullmatch(r"(\d+)(ms|s|m)?", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expected a duration like 5s, 500ms or 3000, got {text!r}")
    value = int(match.group(1))
    unit = match.group(2) or "ms"
    return value * {"ms": 1, "s": 1000, "m": 60000}[unit]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def parse_param(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # One stderr line: a script's log should not fill with usage text.
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="taskgrid")
    parser.add_argument("--log-level", default="INFO", help="logging level (default INFO)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_master = sub.add_parser("master", help="run the master node")
    p_master.set_defaults(run=cmd_master)
    p_master.add_argument("--listen", type=parse_address, default=("0.0.0.0", 7070),
                          metavar="HOST:PORT")
    p_master.add_argument("--heartbeat-ms", type=positive_int, default=2000)
    p_master.add_argument("--liveness-misses", type=positive_int, default=3)
    p_master.add_argument("--unschedulable-timeout-ms", type=positive_int, default=60000)
    p_master.add_argument("--state-file", default="taskgrid-master-state.ndjson",
                          help="job-state dump written on shutdown")

    p_worker = sub.add_parser("worker", help="run a worker agent")
    p_worker.set_defaults(run=cmd_worker)
    p_worker.add_argument("--master", type=parse_address, required=True, metavar="HOST:PORT")
    p_worker.add_argument("--id", required=True, dest="worker_id")
    p_worker.add_argument("--mhz", type=positive_int, required=True, help="CPU capacity in MHz")
    p_worker.add_argument("--gpu", action="store_true", help="advertise GPU capability")
    p_worker.add_argument("--gpu-cores", type=positive_int, default=None)
    p_worker.add_argument("--gpu-mem-mb", type=positive_int, default=None)
    p_worker.add_argument("--lanes", type=int, default=0,
                          help="parallel executor lanes (default: hardware parallelism)")

    p_submit = sub.add_parser("submit", help="submit tasks and wait for results")
    p_submit.set_defaults(run=cmd_submit)
    p_submit.add_argument("--master", type=parse_address, required=True, metavar="HOST:PORT")
    p_submit.add_argument("--kind", required=True)
    p_submit.add_argument("--gpu", action="store_true", help="mark tasks as GPU tasks")
    p_submit.add_argument("--in", dest="input_path", default=None, help="payload file (e.g. PGM)")
    p_submit.add_argument("--param", type=parse_param, action="append", default=[],
                          metavar="KEY=VALUE")
    p_submit.add_argument("--count", type=positive_int, default=1, help="number of task copies")
    p_submit.add_argument("--outdir", default=".", help="where task outputs are written")
    p_submit.add_argument("--timeout", type=parse_duration_ms, default=None,
                          help="give up waiting after this long (e.g. 5s)")

    p_bench = sub.add_parser("bench", help="run the sobel timing report")
    p_bench.set_defaults(run=cmd_bench)
    p_bench.add_argument("--master", type=parse_address, required=True, metavar="HOST:PORT")
    p_bench.add_argument("--images", nargs="+", required=True, help="PGM input files")
    p_bench.add_argument("--lanes", type=positive_int, default=None,
                         help="lane_count param for sobel_par")
    p_bench.add_argument("--repeat", type=positive_int, default=1,
                         help="runs per image; median reported")
    p_bench.add_argument("--csv", default=None, help="also write the report as CSV")

    return parser


def _fail(code: int, message: object) -> int:
    print(message, file=sys.stderr)
    return code


def cmd_master(args: argparse.Namespace) -> int:
    from .master import MasterServer
    from .scheduler import SchedulerConfig

    host, port = args.listen
    config = SchedulerConfig(
        heartbeat_interval_ms=args.heartbeat_ms,
        liveness_misses=args.liveness_misses,
        unschedulable_timeout_ms=args.unschedulable_timeout_ms,
    )
    try:
        server = MasterServer(host, port, config)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot listen on {host}:{port}: {exc}")

    def on_signal(signum, frame):
        server.shutdown()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    server.serve_forever()
    server.dump_state(args.state_file)
    return EXIT_OK


def cmd_worker(args: argparse.Namespace) -> int:
    from .protocol import Register
    from .worker import RegistrationRejected, WorkerAgent

    if not args.gpu and (args.gpu_cores is not None or args.gpu_mem_mb is not None):
        raise argparse.ArgumentTypeError("--gpu-cores/--gpu-mem-mb require --gpu")
    # Two slots: the master sends the next task while this one runs, so it
    # is at hand when the RESULT goes out; a third would only wait longer.
    register = Register(args.worker_id, args.mhz, args.gpu, args.gpu_cores, args.gpu_mem_mb, slots=2)
    try:
        agent = WorkerAgent(register, args.master, lane_count=args.lanes)
    except ValueError as exc:  # a profile the master would refuse
        raise argparse.ArgumentTypeError(str(exc)) from None

    signal.signal(signal.SIGINT, lambda s, f: agent.stop())
    signal.signal(signal.SIGTERM, lambda s, f: agent.stop())
    try:
        agent.run()
    except RegistrationRejected as exc:
        return _fail(EXIT_TASK_FAILED, f"registration rejected: {exc}")
    return EXIT_OK


def cmd_submit(args: argparse.Namespace) -> int:
    from . import protocol
    from .client import MasterClient, make_task, new_id
    from .model import overhead_ms

    payload = b"" if args.input_path is None else Path(args.input_path).read_bytes()
    params = dict(args.param)
    tasks = [
        make_task(args.kind, payload=payload, requires_gpu=args.gpu, params=params)
        for _ in range(args.count)
    ]
    host, port = args.master
    with MasterClient(host, port) as client:
        ack = client.submit(tasks, job_id=new_id("job"))
        print(f"job {ack.job_id}: {ack.accepted_count}/{len(tasks)} tasks accepted")
        timeout_s = None if args.timeout is None else args.timeout / 1000.0
        reply = client.wait_for_job(ack.job_id, timeout_s=timeout_s)

    os.makedirs(args.outdir, exist_ok=True)
    # Only the ids sent name an output file: a reply's id could be a path.
    pending = {task.task_id for task in tasks}
    for task in [report for report in reply.tasks if report.task_id in pending]:
        line = f"{task.task_id}  {task.state}"
        if task.state == "COMPLETED":
            pending.discard(task.task_id)
            turnaround = task.completed_ms - task.submitted_ms
            line += (
                f"  worker={task.worker_id} exec={task.exec_ms}ms"
                f" turnaround={turnaround}ms overhead={overhead_ms(task)}ms"
            )
            if task.output_b64 is not None:
                out_path = os.path.join(args.outdir, f"{task.task_id}.pgm")
                Path(out_path).write_bytes(protocol.from_b64(task.output_b64))
                line += f" output={out_path}"
        elif task.error:
            line += f"  error: {task.error}"
        print(line)
    for task_id in sorted(pending - {report.task_id for report in reply.tasks}):
        print(f"{task_id}  MISSING")
    return EXIT_TASK_FAILED if pending else EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import BenchTaskFailed, IntegrityError, run_bench
    from .client import MasterClient
    from .sobel import PgmError

    images = [(os.path.basename(path), Path(path).read_bytes()) for path in args.images]
    host, port = args.master
    try:
        with MasterClient(host, port) as client:
            report = run_bench(client, images, lane_count=args.lanes, repeat=args.repeat)
    except IntegrityError as exc:
        return _fail(EXIT_TASK_FAILED, f"integrity error: {exc}")
    except BenchTaskFailed as exc:
        return _fail(EXIT_TASK_FAILED, exc)
    except PgmError as exc:
        raise argparse.ArgumentTypeError(f"--images: not a PGM image: {exc}") from None
    print(report.render_table(), end="")
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
        print(f"csv written to {args.csv}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    from .client import ClientError
    from .protocol import LineTooLarge, ProtocolError

    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.run(args)
    except ConnectionError as exc:  # MasterUnreachable, or the link lost mid-request
        return _fail(EXIT_UNREACHABLE, exc)
    # a file, an input no type could check, or a request the master would refuse unread
    except (OSError, argparse.ArgumentTypeError, LineTooLarge) as exc:
        parser.error(str(exc))
    except ClientError as exc:
        return _fail(EXIT_TASK_FAILED, exc)
    except ProtocolError as exc:  # a reply that does not decode, or is over the line cap
        return _fail(EXIT_TASK_FAILED, f"bad reply from master: {exc}")


if __name__ == "__main__":
    sys.exit(main())
