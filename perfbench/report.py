"""Run every workload untraced and traced, and print every metric by name
with its unit, failed_share included.

    python3 perfbench/report.py --seed 1 --seconds 20

Each run is its own process (run.py), so peak_rss_mib is per workload.
Exits 1 if any answer missed its reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pack", "count", "stack", "cells")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    ok = True
    print(f"{'workload':8} {'metric':40} {'value':>16} unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = p.stdout.strip().splitlines()
            if not lines:
                print(p.stderr, file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            ok = ok and p.returncode == 0 and result["correct"]
            rows = dict(result["metrics"])
            if trace == 0:
                rows["failed_share"] = {
                    "value": result["failed"] / result["attempted"], "unit": "ratio"}
            for name, m in rows.items():
                print(f"{workload:8} {name:40} {m['value']:16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
