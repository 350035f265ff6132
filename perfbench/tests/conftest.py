import sys
from pathlib import Path

# The benchmark's modules import each other by bare name and the program
# from the checkout's src directory, as perfbench/run.py arranges.
_BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]
