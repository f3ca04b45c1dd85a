"""Set-up probe: seconds to import g2kit and serve one warm-up request.

    python3 bench/probe.py WORKLOAD SEED

run.py starts it in a fresh interpreter; the seconds are the last line of
its standard output.
"""

import sys
import time
from pathlib import Path


def main(workload, seed):
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import g2kit  # noqa: F401

    import workloads

    workloads.warmup(workload, seed)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
