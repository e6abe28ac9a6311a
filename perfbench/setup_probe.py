"""Time one set-up of a workload: import of unisym (with numpy and scipy),
config build and the first warm-up call. Prints the seconds, then the
reference kernel's ms measured right after, which gauges the host speed.

Run by run.py in a fresh interpreter, so each sample pays the imports:
    python3 perfbench/setup_probe.py <workload> <work dir>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports unisym)

workloads.warm_up(workloads.WORKLOADS[sys.argv[1]], Path(sys.argv[2]))
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr(workloads.reference_ms()))
