"""Steadiness check: run each workload over several seeds and report spreads.

Run from the repository root:

    python3 perfbench/prove.py --seeds 10 --out spreads.json

Each run is a fresh `perfbench/run.py` process. For every end-to-end metric
it prints the median and the quartile spread (q3 - q1) / median over the
seeds, as statistics.quantiles(values, n=4) gives the quartiles, next to
the metric's bound in BENCHMARK.json. --out saves every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"seconds": args.seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    for w in args.workloads.split(","):
        runs = [run_once(w, s, args.seconds, args.trace) for s in seeds]
        walls = [r["wall_s"] for r in runs]
        print(f"{w}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed {sum(r['failed'] for r in runs)}")
        summary = {"wall_s": walls, "attempted": [r["attempted"] for r in runs],
                   "failed": [r["failed"] for r in runs], "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2 or any(v is None for v in values):
                print(f"  {name:34s} missing")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            sp = (q3 - q1) / abs(med) if med else 0.0
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                                        "bound": bound, "values": values}
            note = "" if bound is None else f" bound {bound:.3f} ({sp / bound:.2f} of it)"
            print(f"  {name:34s} median {med:.6g} spread {sp:.4f}{note}")
        report["workloads"][w] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
