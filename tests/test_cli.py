import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from taskgrid.cli import parse_address, parse_duration_ms
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
    with pytest.raises(Exception):
        parse_address("nope")


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
