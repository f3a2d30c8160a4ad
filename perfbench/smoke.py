"""Smoke check of the benchmark itself, at tiny sizes (about 15 seconds).

Run from the repository root:

    python3 perfbench/smoke.py

It asserts that every metric BENCHMARK.json names is printed with its unit
on every workload, traced and untraced; that a dataset with one p_label
removed is counted as failed operations, not a crash; and that run.py
prints no result and exits non-zero where the faircl sources are missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
bench = None  # the benchmark module, imported by main() against ./src


def tiny(name: str):
    plan = bench.PLANS[name]
    runs = tuple((methods, dict(cfg, epochs=1)) for methods, cfg in plan.runs)
    return dataclasses.replace(
        plan, n_train=4, n_test=4, n_batches=2, runs=runs,
        gen_sizes=(8, 2, 4) if plan.gen_sizes else None,
    )


def run_tiny(name: str, trace: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn = bench.traced_run if trace else bench.run_workload
        result = fn(name, seed=3, seconds=0.01, plan=tiny(name))
        print(run.report(result))
    return json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def drop_first_label():
    """Make every `faircl gen` write one sample without its p_label."""
    real = bench.cli.main

    def corrupting(argv):
        code = real(argv)
        if argv[0] == "gen" and code == 0:
            path = Path(argv[argv.index("--out") + 1])
            lines = path.read_text().splitlines()
            rec = json.loads(lines[1])
            del rec["p_label"]
            lines[1] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
        return code

    bench.cli.main = corrupting
    try:
        yield
    finally:
        bench.cli.main = real


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "stream_small", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # left for a run still using it
            bare.parent.rmdir()
    assert proc.returncode != 0, "run.py succeeded without the faircl sources"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the faircl sources"


def main() -> int:
    global bench
    bench = run.import_bench(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            res = run_tiny(w["name"], trace)
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            assert got == want, f"{w['name']} trace={trace}: metrics differ: {set(got) ^ set(want)}"
            assert res["correct"] and res["failed"] == 0, f"{w['name']} trace={trace}: {res}"
            print(f"ok   {w['name']} trace={int(trace)}: {len(got)} metrics, {res['attempted']} operations")

    with drop_first_label(), contextlib.redirect_stderr(io.StringIO()) as err:
        res = run_tiny("stream_small", False)
    assert "FAILED run TL" in err.getvalue(), err.getvalue()
    assert not res["correct"] and res["failed"] > 0, res
    assert res["attempted"] > res["failed"], res
    print(f"ok   missing p_label: {res['failed']} of {res['attempted']} operations failed, result printed")

    check_bare_directory()
    print("ok   no result and a non-zero exit without the faircl sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
