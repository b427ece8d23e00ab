#!/usr/bin/env python3
"""Smoke check of the benchmark harness itself, at tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload, with tracing off and on, it checks that the last line of
run.py's output has the required keys and every metric BENCHMARK.json
declares, each with its unit (end-to-end values nonzero). It then plants a
wrong output in every command of each workload and checks that all of them
are counted as failed, and that run.py refuses to run in a directory that
holds only BENCHMARK.json and perfbench/. Exits non-zero on the first failure.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def plant_wrong_output(bench: run.Bench, out_dir: Path) -> None:
    """Raise the reported R@1 by 0.25, far beyond every check's tolerance."""
    if bench.is_train:
        path = out_dir / run.WORKLOADS[bench.workload] / str(bench.seed) / "summary.csv"
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        rows[0]["r_at_1"] = str(float(rows[0]["r_at_1"]) + 0.25)
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        path = out_dir / "stdout.txt"
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("r_at_1,"):
                lines[i] = f"r_at_1,{float(line.split(',')[1]) + 0.25:.6f}"
        path.write_text("\n".join(lines) + "\n")


def run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = run_cli(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                            "--trace", str(trace), "--scale", "tiny"], run.ROOT)
            check(proc.returncode == 0, f"{what} exited with {proc.returncode}: {proc.stderr}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{what} keys {out}")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{what} reported failures: {proc.stdout}")
            for metric in declared[kind]:
                got = out["metrics"].get(metric["name"])
                check(got is not None, f"{what} lacks {metric['name']}")
                check(got["unit"] == metric["unit"], f"{what} {metric['name']} unit {got}")
                check(isinstance(got["value"], (int, float)), f"{what} {metric['name']} {got}")
                check(trace or got["value"] != 0, f"{what} {metric['name']} is 0")
            check(len(out["metrics"]) == len(declared[kind]), f"{what} extra metrics")
        out = run.measure(workload, 3, 0.5, False, "tiny", tamper=plant_wrong_output)
        check(out["failed"] == out["attempted"] and not out["correct"],
              f"{workload}: planted wrong outputs not all counted: {out['details']}")
        check(out["details"]["fail_frac"] == 1.0, f"{workload}: fail_frac {out['details']}")
    bare = run.WORK_ROOT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli(["--workload", "train-nomem", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"run.py without the program exited {proc.returncode}: {proc.stdout}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        run.WORK_ROOT.rmdir()
    print("smoke ok: every metric emitted with its unit; planted wrong outputs all failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
