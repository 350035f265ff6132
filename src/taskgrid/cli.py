"""Command-line entry points: master, worker, submit, bench.

Exit codes are fixed for scripting: 0 success, 1 task failure,
2 bind/usage error, 3 master unreachable.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import signal
import sys

from . import protocol
from .bench import BenchTaskFailed, IntegrityError, run_bench
from .client import ClientError, MasterClient, MasterUnreachable, make_task, new_id
from .master import MasterServer
from .model import overhead_ms
from .scheduler import SchedulerConfig
from .worker import RegistrationRejected, WorkerAgent, WorkerConfig

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_BIND = 2
EXIT_UNREACHABLE = 3

logger = logging.getLogger(__name__)


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host or "0.0.0.0", int(port)


def parse_duration_ms(text: str) -> int:
    match = re.fullmatch(r"(\d+)(ms|s|m)?", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expected a duration like 5s, 500ms or 3000, got {text!r}")
    value = int(match.group(1))
    unit = match.group(2) or "ms"
    return value * {"ms": 1, "s": 1000, "m": 60000}[unit]


def _parse_params(pairs: list[str]) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {pair!r}")
        params[key] = value
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taskgrid")
    parser.add_argument("--log-level", default="INFO", help="logging level (default INFO)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_master = sub.add_parser("master", help="run the master node")
    p_master.add_argument("--listen", type=parse_address, default=("0.0.0.0", 7070),
                          metavar="HOST:PORT")
    p_master.add_argument("--heartbeat-ms", type=int, default=2000)
    p_master.add_argument("--liveness-misses", type=int, default=3)
    p_master.add_argument("--unschedulable-timeout-ms", type=int, default=60000)
    p_master.add_argument("--state-file", default="taskgrid-master-state.ndjson",
                          help="job-state dump written on shutdown")

    p_worker = sub.add_parser("worker", help="run a worker agent")
    p_worker.add_argument("--master", type=parse_address, required=True, metavar="HOST:PORT")
    p_worker.add_argument("--id", required=True, dest="worker_id")
    p_worker.add_argument("--mhz", type=int, required=True, help="CPU capacity in MHz")
    p_worker.add_argument("--gpu", action="store_true", help="advertise GPU capability")
    p_worker.add_argument("--gpu-cores", type=int, default=None)
    p_worker.add_argument("--gpu-mem-mb", type=int, default=None)
    p_worker.add_argument("--lanes", type=int, default=0,
                          help="parallel executor lanes (default: hardware parallelism)")

    p_submit = sub.add_parser("submit", help="submit tasks and wait for results")
    p_submit.add_argument("--master", type=parse_address, required=True, metavar="HOST:PORT")
    p_submit.add_argument("--kind", required=True)
    p_submit.add_argument("--gpu", action="store_true", help="mark tasks as GPU tasks")
    p_submit.add_argument("--in", dest="input_path", default=None, help="payload file (e.g. PGM)")
    p_submit.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p_submit.add_argument("--count", type=int, default=1, help="number of task copies")
    p_submit.add_argument("--outdir", default=".", help="where task outputs are written")
    p_submit.add_argument("--timeout", type=parse_duration_ms, default=None,
                          help="give up waiting after this long (e.g. 5s)")

    p_bench = sub.add_parser("bench", help="run the sobel timing report")
    p_bench.add_argument("--master", type=parse_address, required=True, metavar="HOST:PORT")
    p_bench.add_argument("--images", nargs="+", required=True, help="PGM input files")
    p_bench.add_argument("--lanes", type=int, default=None, help="lane_count param for sobel_par")
    p_bench.add_argument("--repeat", type=int, default=1, help="runs per image; median reported")
    p_bench.add_argument("--csv", default=None, help="also write the report as CSV")

    return parser


def cmd_master(args: argparse.Namespace) -> int:
    host, port = args.listen
    try:
        config = SchedulerConfig(
            heartbeat_interval_ms=args.heartbeat_ms,
            liveness_misses=args.liveness_misses,
            unschedulable_timeout_ms=args.unschedulable_timeout_ms,
        )
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BIND
    try:
        server = MasterServer(host, port, config)
    except OSError as exc:
        print(f"cannot listen on {host}:{port}: {exc}", file=sys.stderr)
        return EXIT_BIND

    def on_signal(signum, frame):
        server.shutdown()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    server.serve_forever()
    server.dump_state(args.state_file)
    return EXIT_OK


def cmd_worker(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not args.gpu and (args.gpu_cores is not None or args.gpu_mem_mb is not None):
        parser.error("--gpu-cores/--gpu-mem-mb require --gpu")
    host, port = args.master
    try:
        config = WorkerConfig(
            worker_id=args.worker_id,
            master_host=host,
            master_port=port,
            cpu_mhz=args.mhz,
            has_gpu=args.gpu,
            gpu_cores=args.gpu_cores,
            gpu_mem_mb=args.gpu_mem_mb,
            lane_count=args.lanes,
        )
        agent = WorkerAgent(config)
    except ValueError as exc:
        parser.error(str(exc))
        return EXIT_BIND  # unreachable; parser.error exits

    signal.signal(signal.SIGINT, lambda s, f: agent.stop())
    signal.signal(signal.SIGTERM, lambda s, f: agent.stop())
    try:
        agent.run()
    except RegistrationRejected as exc:
        print(f"registration rejected: {exc}", file=sys.stderr)
        return EXIT_TASK_FAILED
    return EXIT_OK


def cmd_submit(args: argparse.Namespace) -> int:
    payload = b""
    if args.input_path is not None:
        with open(args.input_path, "rb") as fh:
            payload = fh.read()
    params = _parse_params(args.param)
    tasks = [
        make_task(args.kind, payload=payload, requires_gpu=args.gpu, params=params)
        for _ in range(args.count)
    ]
    host, port = args.master
    try:
        with MasterClient(host, port) as client:
            ack = client.submit(tasks, job_id=new_id("job"))
            print(f"job {ack.job_id}: {ack.accepted_count}/{len(tasks)} tasks accepted")
            timeout_s = None if args.timeout is None else args.timeout / 1000.0
            reply = client.wait_for_job(ack.job_id, timeout_s=timeout_s)
    except MasterUnreachable as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNREACHABLE
    except ClientError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_TASK_FAILED
    except protocol.ProtocolError as exc:
        return _bad_reply(exc)

    os.makedirs(args.outdir, exist_ok=True)
    all_completed = ack.accepted_count == len(tasks)
    for task in reply.tasks:
        line = f"{task.task_id}  {task.state}"
        if task.state == "COMPLETED":
            turnaround = task.completed_ms - task.submitted_ms
            line += (
                f"  worker={task.worker_id} exec={task.exec_ms}ms"
                f" turnaround={turnaround}ms overhead={overhead_ms(task)}ms"
            )
            if task.output_b64 is not None:
                out_path = os.path.join(args.outdir, f"{task.task_id}.pgm")
                with open(out_path, "wb") as fh:
                    fh.write(protocol.from_b64(task.output_b64))
                line += f" output={out_path}"
        else:
            all_completed = False
            if task.error:
                line += f"  error: {task.error}"
        print(line)
    return EXIT_OK if all_completed else EXIT_TASK_FAILED


def _bad_reply(exc: protocol.ProtocolError) -> int:
    """A reply that does not decode, or is over the line cap."""
    print(f"bad reply from master: {exc}", file=sys.stderr)
    return EXIT_TASK_FAILED


def cmd_bench(args: argparse.Namespace) -> int:
    images = []
    for path in args.images:
        with open(path, "rb") as fh:
            images.append((os.path.basename(path), fh.read()))
    host, port = args.master
    try:
        with MasterClient(host, port) as client:
            report = run_bench(client, images, lane_count=args.lanes, repeat=args.repeat)
    except MasterUnreachable as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNREACHABLE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_TASK_FAILED
    except (ClientError, BenchTaskFailed) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_TASK_FAILED
    except protocol.ProtocolError as exc:
        return _bad_reply(exc)
    print(report.render_table(), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"csv written to {args.csv}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    if args.command == "master":
        return cmd_master(args)
    if args.command == "worker":
        return cmd_worker(args, parser)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "bench":
        return cmd_bench(args)
    parser.error(f"unknown command {args.command}")
    return EXIT_BIND


if __name__ == "__main__":
    sys.exit(main())
