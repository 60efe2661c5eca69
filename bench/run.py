"""Benchmark entry point: runs one workload in a fresh single-threaded process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in bench/worker.py, started with the BLAS and OpenMP
thread pools set to one thread and a fixed hash seed.  Its last line of
standard output, one JSON object, is passed on; raw per-run outputs are
left under .bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
from inputs import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170

ONE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "thetagap" / "cli.py").is_file():
        sys.stderr.write(f"no thetagap sources under {ROOT / 'src'}\n")
        return 2
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = {**os.environ, **ONE_THREAD}
    env.pop("PYTHONPATH", None)
    # a terminated launcher takes its worker down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as worker:
        try:
            out, _ = worker.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"workload {args.workload} did not finish within {TIMEOUT_S} s\n")
            return 3
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    lines = out.strip().splitlines()
    if worker.returncode != 0 or not lines:
        sys.stderr.write(f"workload {args.workload} exited with code {worker.returncode}\n")
        return worker.returncode or 1
    sys.stdout.write(lines[-1] + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
