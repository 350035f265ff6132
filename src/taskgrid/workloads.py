"""Named workload executors shipped with every worker agent.

An executor is a callable ``(params, payload) -> (output_bytes, exec_ms)``
that is pure with respect to its inputs: the same (kind, params, payload)
always yields byte-identical output. ``exec_ms`` covers only the compute
itself, mirroring how the timing report isolates worker-side execution
from framework overhead.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

from .sobel import GrayImage, parse_pgm, sobel_parallel, sobel_sequential, write_pgm

Executor = Callable[[Mapping[str, str], bytes], tuple[bytes, int]]


class UnknownKindError(KeyError):
    """No executor is registered under the requested kind name."""


class ExecutorRegistry:
    def __init__(self) -> None:
        self._executors: dict[str, Executor] = {}

    def register(self, kind: str, executor: Executor) -> None:
        self._executors[kind] = executor

    def kinds(self) -> list[str]:
        return sorted(self._executors)

    def get(self, kind: str) -> Executor:
        try:
            return self._executors[kind]
        except KeyError:
            raise UnknownKindError(kind) from None

    def execute(self, kind: str, params: Mapping[str, str], payload: bytes) -> tuple[bytes, int]:
        return self.get(kind)(params, payload)


def _noop(params: Mapping[str, str], payload: bytes) -> tuple[bytes, int]:
    return b"", 0


def _make_sleep(simulated: bool) -> Executor:
    def sleep_executor(params: Mapping[str, str], payload: bytes) -> tuple[bytes, int]:
        duration_ms = int(params.get("duration_ms", "0"))
        if duration_ms < 0:
            raise ValueError(f"duration_ms must be >= 0, got {duration_ms}")
        if not simulated:
            time.sleep(duration_ms / 1000.0)
        return b"", duration_ms

    return sleep_executor


def _filter_pgm(payload: bytes, sobel: Callable[[GrayImage], GrayImage]) -> tuple[bytes, int]:
    """Parse, ``sobel`` and write a PGM; ``exec_ms`` times ``sobel`` alone."""
    img = parse_pgm(payload)
    t0 = time.perf_counter_ns()
    result = sobel(img)
    exec_ms = (time.perf_counter_ns() - t0) // 1_000_000
    return write_pgm(result), exec_ms


def _sobel_seq(params: Mapping[str, str], payload: bytes) -> tuple[bytes, int]:
    return _filter_pgm(payload, sobel_sequential)


def _make_sobel_par(default_lanes: int) -> Executor:
    def sobel_par(params: Mapping[str, str], payload: bytes) -> tuple[bytes, int]:
        lanes = int(params.get("lane_count", str(default_lanes)))
        return _filter_pgm(payload, lambda img: sobel_parallel(img, lanes))

    return sobel_par


def built_in_registry(lane_count: int = 1, simulated_sleep: bool = False) -> ExecutorRegistry:
    """Registry with the stock workloads: noop, sleep, sobel_seq, sobel_par.

    ``lane_count`` is the sobel_par default when the task carries no
    lane_count param. ``simulated_sleep`` makes "sleep" return its nominal
    duration without wall-clock blocking; the in-process test cluster uses
    this so sleep durations advance only logical time.
    """
    registry = ExecutorRegistry()
    registry.register("noop", _noop)
    registry.register("sleep", _make_sleep(simulated_sleep))
    registry.register("sobel_seq", _sobel_seq)
    registry.register("sobel_par", _make_sobel_par(lane_count))
    return registry
