import contextlib
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from oracle import brute_force_sobel
from taskgrid import protocol
from taskgrid.cli import main, parse_address, parse_duration_ms
from taskgrid.client import MasterClient, make_task
from taskgrid.protocol import ErrorReply, JobProgressReply, JobStatusReply, SubmitAck, TaskReport
from taskgrid.sobel import GrayImage, sobel_sequential, parse_pgm, write_pgm


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for_port(port, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"nothing listening on {port}")


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "taskgrid.cli", *args],
        capture_output=True,
        text=True,
        timeout=kwargs.pop("timeout", 60),
        **kwargs,
    )


def spawn_cli(*args):
    return subprocess.Popen(
        [sys.executable, "-m", "taskgrid.cli", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


# -- flag parsing ----------------------------------------------------------------


def test_parse_address():
    assert parse_address("host:7070") == ("host", 7070)
    assert parse_address(":7070") == ("0.0.0.0", 7070)
    assert parse_address("127.0.0.1:65535") == ("127.0.0.1", 65535)
    with pytest.raises(Exception):
        parse_address("nope")
    with pytest.raises(Exception):
        parse_address("127.0.0.1:65536")


def test_parse_duration():
    assert parse_duration_ms("5s") == 5000
    assert parse_duration_ms("500ms") == 500
    assert parse_duration_ms("2m") == 120000
    assert parse_duration_ms("1500") == 1500
    with pytest.raises(Exception):
        parse_duration_ms("5 parsecs")


def test_gpu_cores_without_gpu_is_usage_error():
    result = run_cli(
        "worker", "--master", "127.0.0.1:1", "--id", "W1", "--mhz", "2400",
        "--gpu-cores", "384",
    )
    assert result.returncode == 2
    assert "--gpu" in result.stderr


def test_submit_unreachable_master_exits_3():
    result = run_cli("submit", "--master", f"127.0.0.1:{free_port()}", "--kind", "noop")
    assert result.returncode == 3


def test_submit_with_no_workers_times_out_queued(tmp_path):
    port = free_port()
    master = spawn_cli(
        "master", "--listen", f"127.0.0.1:{port}",
        "--state-file", str(tmp_path / "state.ndjson"),
    )
    try:
        wait_for_port(port)
        result = run_cli(
            "submit", "--master", f"127.0.0.1:{port}", "--kind", "noop",
            "--timeout", "2s", "--outdir", str(tmp_path),
        )
        assert result.returncode == 1
        assert "QUEUED" in result.stdout
    finally:
        master.terminate()
        master.wait(timeout=10)


# -- a fake master ----------------------------------------------------------------


@contextlib.contextmanager
def fake_master(*replies):
    """A master on a thread that answers the n-th request line with the
    n-th of ``replies``; yields its port."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener, listener.accept()[0] as conn, contextlib.suppress(OSError):
            framer, pending = protocol.LineFramer(), list(replies)
            while pending and (chunk := conn.recv(65536)):
                for _ in framer.feed(chunk):
                    conn.sendall(pending.pop(0))
            conn.recv(1)  # the client hangs up

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        thread.join(10)
    assert not thread.is_alive()


ACK = protocol.encode(SubmitAck(job_id="J1", accepted_count=1))
DONE = protocol.encode(JobProgressReply(job_id="J1", queued=0, dispatched=0, completed=0, failed=1))


def _failed_status(error):
    report = TaskReport(
        task_id="T1", state="FAILED", worker_id="W1", submitted_ms=0, dispatched_ms=1,
        completed_ms=2, exec_ms=1, output_b64=None, error=error,
    )
    return protocol.encode(JobStatusReply(job_id="J1", tasks=(report,)))


def _one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and text in err, err


def test_submit_reports_an_undecodable_reply_in_one_line(capsys):
    with fake_master(b"not json\n") as port:
        assert main(["submit", "--master", f"127.0.0.1:{port}", "--kind", "noop"]) == 1
    _one_error_line(capsys, "bad reply from master: malformed JSON")


def test_submit_reports_a_reply_json_loads_refuses_in_one_line(json_refused_line, capsys):
    with fake_master(json_refused_line + b"\n") as port:
        assert main(["submit", "--master", f"127.0.0.1:{port}", "--kind", "noop"]) == 1
    _one_error_line(capsys, "bad reply from master: malformed JSON")


def test_bench_reports_a_reply_json_loads_refuses_in_one_line(json_refused_line, capsys, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(write_pgm(GrayImage(4, 3, bytes(12))))
    with fake_master(json_refused_line + b"\n") as port:
        assert main(["bench", "--master", f"127.0.0.1:{port}", "--images", str(path)]) == 1
    _one_error_line(capsys, "bad reply from master: malformed JSON")


def test_submit_reports_a_status_reply_over_the_line_cap_in_one_line(capsys, tmp_path, monkeypatch):
    # A 4 KiB cap stands in for the 64 MiB one.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    big = _failed_status("x" * 8192)
    with fake_master(ACK, DONE, big) as port:
        code = main(["submit", "--master", f"127.0.0.1:{port}", "--kind", "noop", "--outdir", str(tmp_path)])
    assert code == 1
    _one_error_line(capsys, "exceeds cap 4096")


@pytest.mark.parametrize(
    "replies, text",
    [
        ([b"not json\n"], "bad reply from master: malformed JSON"),
        ([protocol.encode(ErrorReply(code="BUSY", detail="no room"))], "BUSY: no room"),
        ([ACK, DONE, _failed_status("boom")], "sobel_seq task ended FAILED: boom"),
        ([ACK, DONE, protocol.encode(JobStatusReply(job_id="J1", tasks=()))], "sobel_seq job reported 0 tasks, not 1"),
    ],
)
def test_bench_reports_master_side_errors_in_one_line(replies, text, capsys, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(write_pgm(GrayImage(4, 3, bytes(12))))
    with fake_master(*replies) as port:
        assert main(["bench", "--master", f"127.0.0.1:{port}", "--images", str(path)]) == 1
    _one_error_line(capsys, text)


@pytest.mark.parametrize("reports_t1, code", [(False, 1), (True, 0)])
def test_submit_writes_only_the_outputs_of_the_ids_it_submitted(reports_t1, code, monkeypatch, tmp_path, capsys):
    # The task's id is T1; the master also reports a path as an id.
    monkeypatch.setattr("taskgrid.client.new_id", lambda prefix: {"task": "T1", "job": "J1"}[prefix])
    outdir, escaped = tmp_path / "out", tmp_path / "escaped"
    reports = [
        TaskReport(
            task_id=task_id, state="COMPLETED", worker_id="W1", submitted_ms=0, dispatched_ms=1,
            completed_ms=2, exec_ms=1, output_b64=protocol.to_b64(b"P5"), error=None,
        )
        for task_id in [str(escaped), "T1"][: 1 + reports_t1]
    ]
    status = protocol.encode(JobStatusReply(job_id="J1", tasks=tuple(reports)))
    with fake_master(ACK, DONE, status) as port:
        argv = ["submit", "--master", f"127.0.0.1:{port}", "--kind", "noop", "--outdir", str(outdir)]
        assert main(argv) == code
    assert not (tmp_path / "escaped.pgm").exists()
    assert sorted(os.listdir(outdir)) == (["T1.pgm"] if reports_t1 else [])
    assert ("T1  MISSING" in capsys.readouterr().out.splitlines()) is not reports_t1


def _exit_code(argv):
    # A usage error leaves main through parser.error's SystemExit.
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _usage_error(capsys, argv, text):
    assert _exit_code(argv) == 2
    _one_error_line(capsys, text)


NOWHERE = "127.0.0.1:1"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["submit", "--master", NOWHERE, "--kind", "noop", "--param", "foo"],
         "argument --param: expected KEY=VALUE, got 'foo'"),
        (["submit", "--master", NOWHERE, "--kind", "noop", "--count", "0"],
         "argument --count: expected a positive integer, got '0'"),
        (["bench", "--master", NOWHERE, "--images", "{image}", "--repeat", "0"],
         "argument --repeat: expected a positive integer, got '0'"),
        (["master", "--heartbeat-ms", "0"],
         "argument --heartbeat-ms: expected a positive integer, got '0'"),
        (["submit", "--master", NOWHERE, "--kind", "noop", "--in", "{missing}"],
         "No such file or directory"),
        (["bench", "--master", NOWHERE, "--images", "{missing}"],
         "No such file or directory"),
        (["master", "--listen", "127.0.0.1:99999"],
         "argument --listen: expected HOST:PORT with PORT in 0-65535, got '127.0.0.1:99999'"),
        (["submit", "--master", "127.0.0.1:70000", "--kind", "noop"],
         "argument --master: expected HOST:PORT with PORT in 0-65535, got '127.0.0.1:70000'"),
    ],
)
def test_a_malformed_input_exits_2_in_one_line(argv, text, capsys, tmp_path):
    image = tmp_path / "img.pgm"
    image.write_bytes(write_pgm(GrayImage(4, 3, bytes(12))))
    argv = [arg.format(image=image, missing=tmp_path / "missing.pgm") for arg in argv]
    _usage_error(capsys, argv, text)


def test_a_worker_given_a_port_out_of_range_exits_2_in_one_line():
    # A subprocess with a deadline: a worker given such a port would
    # otherwise retry its connection for ever.
    result = run_cli("worker", "--master", "127.0.0.1:70000", "--id", "W1", "--mhz", "2400", timeout=20)
    assert result.returncode == 2
    [line] = result.stderr.splitlines()
    assert "argument --master: expected HOST:PORT with PORT in 0-65535, got '127.0.0.1:70000'" in line


@pytest.mark.parametrize(
    "flags, text",
    [
        (["--id", ""], "worker_id must be non-empty"),
        (["--id", "W1", "--lanes", "-1"], "lane_count must be >= 1"),
    ],
)
def test_a_worker_it_cannot_run_exits_2_in_one_line_before_connecting(flags, text):
    # Nothing listens on port 1, so a worker that tried to connect would
    # retry until the deadline.
    result = run_cli("worker", "--master", "127.0.0.1:1", *flags, "--mhz", "2400", timeout=20)
    assert result.returncode == 2
    [line] = result.stderr.splitlines()
    assert line == f"taskgrid: error: {text}"


def test_bench_refuses_a_non_pgm_image_in_one_line(capsys, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"GIF89a")
    with fake_master() as port:
        argv = ["bench", "--master", f"127.0.0.1:{port}", "--images", str(path)]
        _usage_error(capsys, argv, "not a PGM image: UNSUPPORTED_FORMAT")


def test_submit_into_an_outdir_that_cannot_be_made_exits_2(capsys, tmp_path):
    outdir = tmp_path / "taken"
    outdir.write_bytes(b"")
    with fake_master(ACK, DONE, _failed_status("boom")) as port:
        argv = ["submit", "--master", f"127.0.0.1:{port}", "--kind", "noop", "--outdir", str(outdir)]
        _usage_error(capsys, argv, "File exists")


@pytest.mark.parametrize("command", ["submit", "bench"])
def test_a_submit_over_the_line_cap_exits_2_in_one_line(command, capsys, tmp_path, monkeypatch):
    # A 4 KiB cap stands in for 64 MiB; the fake master answers nothing,
    # as no byte of the SUBMIT may reach it.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    path = tmp_path / "img.pgm"
    path.write_bytes(write_pgm(GrayImage(96, 96, bytes(96 * 96))))
    with fake_master() as port:
        if command == "submit":
            argv = ["submit", "--master", f"127.0.0.1:{port}", "--kind", "noop", "--in", str(path), "--count", "2"]
        else:
            argv = ["bench", "--master", f"127.0.0.1:{port}", "--images", str(path)]
        assert _exit_code(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"taskgrid: error: Submit of \d+ bytes exceeds line cap 4096", line), line


def test_submit_exits_3_when_the_master_drops_the_link_mid_request(capsys):
    # The fake master hangs up after the SUBMIT_ACK, mid JOB_WAIT.
    with fake_master(ACK) as port:
        assert main(["submit", "--master", f"127.0.0.1:{port}", "--kind", "noop"]) == 3
    # Either a clean close or a reset, as the fake master hangs up unread.
    _one_error_line(capsys, "")


def test_importing_the_cli_loads_no_other_taskgrid_module_and_no_numpy():
    # Each command imports what it runs, so the master and submit never
    # load numpy.
    code = (
        "import sys, taskgrid.cli\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "    if m.split('.')[0] == 'numpy' or m.startswith('taskgrid.'))))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["taskgrid.cli"]


# -- live cluster over subprocesses ----------------------------------------------


@pytest.fixture(scope="module")
def live_cluster(tmp_path_factory):
    port = free_port()
    state_file = tmp_path_factory.mktemp("state") / "dump.ndjson"
    master = spawn_cli(
        "master", "--listen", f"127.0.0.1:{port}",
        "--heartbeat-ms", "300", "--state-file", str(state_file),
    )
    try:
        wait_for_port(port)
        worker = spawn_cli(
            "worker", "--master", f"127.0.0.1:{port}", "--id", "W1",
            "--mhz", "2400", "--gpu", "--gpu-cores", "384", "--gpu-mem-mb", "2048",
            "--lanes", "2",
        )
        try:
            yield port, state_file, master
        finally:
            worker.terminate()
            worker.wait(timeout=10)
    finally:
        if master.poll() is None:
            master.terminate()
            master.wait(timeout=10)


def test_submit_noop_tasks(live_cluster, tmp_path):
    port, _, _ = live_cluster
    result = run_cli(
        "submit", "--master", f"127.0.0.1:{port}", "--kind", "noop",
        "--count", "3", "--outdir", str(tmp_path), "--timeout", "30s",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("COMPLETED") == 3


def test_submit_passes_params_to_the_executor(live_cluster, tmp_path):
    port, _, _ = live_cluster
    result = run_cli(
        "submit", "--master", f"127.0.0.1:{port}", "--kind", "sleep",
        "--param", "duration_ms=50", "--outdir", str(tmp_path), "--timeout", "30s",
    )
    assert result.returncode == 0, result.stderr
    assert "COMPLETED" in result.stdout and "exec=50ms" in result.stdout


def test_submit_sobel_writes_output(live_cluster, tmp_path):
    port, _, _ = live_cluster
    img = GrayImage(16, 12, bytes((x * 7 + 3) % 256 for x in range(192)))
    src = tmp_path / "in.pgm"
    src.write_bytes(write_pgm(img))
    result = run_cli(
        "submit", "--master", f"127.0.0.1:{port}", "--kind", "sobel_par", "--gpu",
        "--in", str(src), "--outdir", str(tmp_path), "--timeout", "60s",
    )
    assert result.returncode == 0, result.stderr
    outputs = [p for p in tmp_path.iterdir() if p.name.startswith("task-")]
    assert len(outputs) == 1
    assert parse_pgm(outputs[0].read_bytes()) == sobel_sequential(img)


def test_submit_unknown_kind_fails_with_exit_1(live_cluster, tmp_path):
    port, _, _ = live_cluster
    result = run_cli(
        "submit", "--master", f"127.0.0.1:{port}", "--kind", "bogus",
        "--outdir", str(tmp_path), "--timeout", "30s",
    )
    assert result.returncode == 1
    assert "UNKNOWN_KIND" in result.stdout


def test_bench_runs_and_writes_csv(live_cluster, tmp_path):
    port, _, _ = live_cluster
    paths = []
    for i, (w, h) in enumerate([(20, 14), (24, 18)]):
        img = GrayImage(w, h, bytes((x * 11 + i) % 256 for x in range(w * h)))
        path = tmp_path / f"img{i}.pgm"
        path.write_bytes(write_pgm(img))
        paths.append(str(path))
    csv_path = tmp_path / "report.csv"
    result = run_cli(
        "bench", "--master", f"127.0.0.1:{port}", "--images", *paths,
        "--lanes", "2", "--csv", str(csv_path),
    )
    assert result.returncode == 0, result.stderr
    assert "seq_exec_ms" in result.stdout
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "label,m,n,seq_exec_ms,par_exec_ms,turnaround_ms,overhead_ms"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "img0.pgm" and row[1] == "20" and row[2] == "14"
    turnaround, overhead, par_exec = int(row[5]), int(row[6]), int(row[4])
    assert overhead == turnaround - par_exec


def test_second_master_same_port_exits_2(live_cluster):
    port, _, _ = live_cluster
    result = run_cli("master", "--listen", f"127.0.0.1:{port}")
    assert result.returncode == 2
    assert "cannot listen" in result.stderr


def test_master_sigterm_dumps_state(live_cluster, tmp_path):
    port, state_file, master = live_cluster
    run_cli(
        "submit", "--master", f"127.0.0.1:{port}", "--kind", "noop",
        "--timeout", "30s", "--outdir", str(tmp_path),
    )
    master.send_signal(signal.SIGTERM)
    assert master.wait(timeout=15) == 0
    assert state_file.exists()
    lines = state_file.read_bytes().splitlines()
    assert lines
    from taskgrid import protocol

    replies = [protocol.decode(line) for line in lines]
    assert all(isinstance(r, protocol.JobStatusReply) for r in replies)


def test_a_worker_keeps_its_master_session_across_forked_sobel_lanes(tmp_path):
    # Each large sobel_par task forks lane processes that inherit the
    # worker's SIGTERM handler and its master socket. A lane that ran the
    # handler as its pool ended would shut that socket down under the
    # worker, which would then reconnect and register again, or it would
    # live on and hang its pool's teardown. Whether a lane still runs when
    # its pool is torn down is a race, hence the 32 tasks.
    port = free_port()
    img = GrayImage(512, 512, random.Random(26).randbytes(512 * 512))
    logs = {name: tmp_path / f"{name}.log" for name in ("master", "worker")}

    def start(name, *args):
        # Its own session, so a teardown that times out can kill its lanes too.
        with open(logs[name], "wb") as log:
            return subprocess.Popen(
                [sys.executable, "-m", "taskgrid.cli", name, *args],
                stdout=subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )

    master = start("master", "--listen", f"127.0.0.1:{port}", "--state-file",
                   str(tmp_path / "state.ndjson"))
    procs = [master]
    try:
        wait_for_port(port)
        procs.insert(0, start("worker", "--master", f"127.0.0.1:{port}", "--id", "W1",
                              "--mhz", "2400", "--lanes", "2"))
        with MasterClient("127.0.0.1", port) as client:
            pgm = write_pgm(img)
            tasks = [make_task("sobel_par", payload=pgm) for _ in range(32)]
            assert client.submit(tasks, job_id="J1").accepted_count == 32
            reply = client.wait_for_job("J1", timeout_s=60)
    finally:
        for proc in procs:  # the worker first, so it leaves an idle slot
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

    assert [task.state for task in reply.tasks] == ["COMPLETED"] * 32
    expected = brute_force_sobel(img)
    for task in reply.tasks:
        assert parse_pgm(protocol.from_b64(task.output_b64)).pixels == expected
    master_log = logs["master"].read_text()
    worker_log = logs["worker"].read_text()
    assert master_log.count("registered worker W1") == 1, master_log
    assert "re-queueing" not in master_log, master_log
    assert "master unreachable" not in worker_log, worker_log
