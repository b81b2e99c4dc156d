"""Set-up probe: import the package from this checkout and warm up one
workload, then exit.  run.py times whole runs of this script for setup_s.

    python3 bench/probe.py <workload>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

workloads.warm_up(sys.argv[1], BENCH / "out" / "probe")
