"""Set-up probe: build one workload's inputs in a fresh process, then print
``ready``.  run.py times it from process start to that line.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports hc3 and hc3.cli)

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
