"""Benchmark of faircl's three user-facing commands: gen, run and eval.

Run from the root of a faircl checkout (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload stream_small --seed 0 --seconds 60 --trace 0

Workloads: stream_stock, stream_small (see perfbench/README.md).
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric from a
run with span-recording wrappers installed. Exit code 0 means a result
was printed (check its "correct" field); 2 means none could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("stream_stock", "stream_small")


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    The GEMMs here are at most 200 x 200 by a few hundred rows, so a second
    thread saves nothing, and on a shared 2-core machine it turns any load
    on the other core into a stall of every matrix product.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_bench(root: Path):
    """Import the benchmark module against the checkout's own src/faircl."""
    src = root / "src"
    if not (src / "faircl" / "__init__.py").is_file():
        raise FileNotFoundError(f"no faircl package under {src}; run from the repository root")
    pin_blas_threads()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench
    import faircl

    if Path(faircl.__file__).resolve().parent != (src / "faircl").resolve():
        raise ImportError(f"imported faircl from {faircl.__file__}, expected {src}")
    return bench


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def report(result: dict) -> str:
    """Print the environment and metrics; return the final JSON line."""
    ledger, metrics = result["ledger"], result["metrics"]
    print("env " + json.dumps(result["env"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for line in result.get("notes", ()):
        print(line)
    print(f"samples: {result['samples']}; operations: {ledger.attempted} attempted, {ledger.failed} failed")
    return json.dumps(
        {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = import_bench(Path.cwd())
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        result = bench.traced_run(args.workload, args.seed, args.seconds)
    else:
        result = bench.run_workload(args.workload, args.seed, args.seconds)
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
