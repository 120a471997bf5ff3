"""Time the runs the README quotes as reference figures, which are not
workloads of the benchmark.  Run from the root of a checkout:

    python3 benchmarks/reference_figures.py

  verify      fordspheres verify --suite all, in a fresh process
  tier1       the Tier-1 pytest run (tests/), in a fresh process
  threads2    moment_first_counting on S = 32, 64, 128 with threads = 2
              (the multiprocessing pool), in a fresh process, after set-up

Each line gives the wall time and the exit code.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREADS2 = """\
import sys, time
sys.path.insert(0, "src")
from fordspheres import moment
moment.constants_bundle()
for S in (32, 64, 128):
    t0 = time.perf_counter()
    moment.moment_first_counting(S, "omega_full", threads=2)
    print(f"  S={S}: {time.perf_counter() - t0:.2f} s")
"""

RUNS = {
    "verify": [sys.executable, "-m", "fordspheres.cli", "verify", "--suite", "all"],
    "tier1": [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
    "threads2": [sys.executable, "-c", THREADS2],
}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, cmd in RUNS.items():
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        print(f"{name}: {elapsed:.1f} s, exit {proc.returncode}")
        for line in proc.stdout.strip().splitlines()[-3:]:
            print(f"  {line.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
