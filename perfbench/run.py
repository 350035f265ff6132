"""Entry point of the taskgrid benchmark; run it from the root of a checkout::

    python3 perfbench/run.py --workload noop_burst --seed 1 --seconds 40 --trace 0

It imports the program from the checkout's ``src`` directory and exits
non-zero, printing no result, when that directory is missing.
"""

import signal
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def _on_signal(signum, frame):
    raise SystemExit(f"error: stopped by signal {signum}")


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    src = Path.cwd() / "src"
    if not (src / "taskgrid" / "__init__.py").is_file():
        sys.exit(f"error: no taskgrid sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    # Every exit path, a timeout included, unwinds through the teardown.
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGHUP, _on_signal)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_TIMEOUT_S)

    import bench

    sys.exit(bench.main())
