"""framewatch benchmark: one seeded workload, checked, with its metrics.

    python3 perfbench/run.py --workload {train,stream,eval} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a framewatch checkout.  The inputs are made from the
seed in one process (inputs.py; for `stream` and `eval` this also trains
the fixture checkpoint, outside every metric), then the workload runs in a
process of its own (worker.py), so neither the fixture's memory nor the
input generation shows in the workload's `peak_rss_mb`.  Both children get
as many BLAS threads as this process may use CPUs.  The worker's stdout is
passed through; its last line is the result, a JSON object with `correct`,
`attempted`, `failed` and `metrics`.

Scratch files go to .perfbench/ under the checkout root.  A run that cannot
start (no package sources, say) or whose worker fails exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "stream", "eval")
TIMEOUT_S = 900


def _child(script: str, args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "framewatch" / "__init__.py").is_file():
        print(f"perfbench: no framewatch sources under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    work = state / "run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--root", str(ROOT), "--state", str(state), "--work", str(work)]
    try:
        prep = _child("inputs.py", common, env)
        if prep.returncode != 0:
            print(f"perfbench: preparing inputs failed ({prep.returncode})",
                  file=sys.stderr)
            return 1
        result = _child("worker.py", common + ["--seconds", str(args.seconds),
                                               "--trace", str(args.trace)], env)
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        print(f"perfbench: workload failed ({result.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
