#!/usr/bin/env python3
"""Benchmark of the crossbatch command line: desk-scale training and large-gallery eval.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-axbn --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):
  train-axbn   `crossbatch train --variant axbn` on the A6 desk configuration
  train-nomem  the same command with `--variant no-xbm`, the memoryless control
  eval-large   `crossbatch eval` of a freshly initialised checkpoint on a
               query/gallery set of 4000 x 4000 rows

The seed drives `gen-data --seed`, `train --seed` and the eval checkpoint's
initialisation; the program only receives the generated files. Every CLI
command runs in a fresh process (perfbench/worker.py) with one BLAS thread.
A run first launches PROBES set-up-only processes, then repeats the command
until --seconds have passed, and checks every command's outputs.

With --trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json. With --trace 1 it holds the per-layer metrics, taken from
spans around each module's public functions; traced and untraced commands
alternate so that the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench-work"

# One BLAS thread: the load comes from one process, and on a small shared
# machine a single thread gives the steadiest timings.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 5  # set-up-only launches per run, so setup_s is a median of several
COMMAND_TIMEOUT_S = 120
RECALL_KS = "1,10"
TRAIN_FLAGS = [
    "--batch-size", "16", "--lr", "2e-3", "--schedule-gamma", "1", "--schedule-every", "0",
    "--recall-ks", RECALL_KS,
]
BATCH_SIZE = 16
CHECKPOINT_DIMS = (32, 64, 32, 16)  # the trainer's default network on 32-d inputs

WORKLOADS = {"train-axbn": "axbn", "train-nomem": "no-xbm", "eval-large": None}
SCALES = {
    "full": {
        "train_data": ["--cluster-std", "1.02"],
        "epochs": (2, 25),
        "eval_data": ["--train-classes", "2", "--val-classes", "400",
                      "--samples-per-class", "20", "--cluster-std", "0.3"],
    },
    # A few seconds in all; used by perfbench/smoke.py to check the harness.
    "tiny": {
        "train_data": ["--cluster-std", "1.02", "--train-classes", "8", "--val-classes", "4",
                       "--samples-per-class", "8"],
        "epochs": (1, 2),
        "eval_data": ["--train-classes", "2", "--val-classes", "20",
                      "--samples-per-class", "10", "--cluster-std", "0.3"],
    },
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


@dataclass
class Op:
    """One timed CLI command and what its checks found."""

    traced: bool
    result: dict | None
    error: str | None = None
    r1: float | None = None

    @property
    def timed(self) -> bool:
        return self.result is not None and self.result.get("rc") == 0

    def spans(self, name: str) -> list[list]:
        return [s for s in self.result["spans"] if s[0] == name]

    @property
    def run_s(self) -> float:
        r = self.result
        return (r["main_end_ns"] - r["setup_end_ns"]) / 1e9


@dataclass
class Bench:
    workload: str
    seed: int
    scale: str
    work: Path
    argv: list[str] = field(default_factory=list)
    train_data: Path | None = None
    iterations: int = 0
    epochs: int = 0
    reference: dict[int, float] = field(default_factory=dict)
    n_queries: int = 0

    @property
    def is_train(self) -> bool:
        return WORKLOADS[self.workload] is not None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def import_program():
    """Import crossbatch from this checkout's src/, never from elsewhere."""
    if not (SRC / "crossbatch" / "__init__.py").is_file():
        raise BenchError(f"no crossbatch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crossbatch
    import crossbatch.cli

    if Path(crossbatch.__file__).resolve().parent != (SRC / "crossbatch").resolve():
        raise BenchError(f"crossbatch imported from {crossbatch.__file__}, not {SRC}")
    return crossbatch


def cli_quiet(argv: list[str]) -> str:
    """Run crossbatch.cli.main in this process; return its stdout."""
    from crossbatch import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise BenchError(f"crossbatch {' '.join(map(str, argv))} exited with {rc}")
    return out.getvalue()


def parse_recall(text: str) -> dict[int, float]:
    """The `r_at_k,value` lines printed by `crossbatch eval`."""
    recall = {}
    for line in text.splitlines():
        if line.startswith("r_at_"):
            key, value = line.split(",")
            recall[int(key[len("r_at_"):])] = float(value)
    return recall


def reference_embed(weights, biases, x):
    """Plain forward pass of the ReLU MLP with unit-norm output."""
    import numpy as np

    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if i < len(weights) - 1:
            a = np.maximum(a, 0.0)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def reference_recall(q, q_labels, g, g_labels, ks) -> dict[int, float]:
    """Recall@k under the order (similarity desc, gallery index asc).

    A query hits at k when its first positive in that order has rank < k;
    that rank counts the gallery items ordered before it.
    """
    import numpy as np

    hits = Counter()
    idx = np.arange(len(g))
    for lo in range(0, len(q), 256):
        sims = q[lo:lo + 256] @ g.T
        pos = q_labels[lo:lo + 256, None] == g_labels[None, :]
        best = np.where(pos, sims, -np.inf).max(axis=1, keepdims=True)
        first = np.argmax(pos & (sims == best), axis=1)[:, None]
        rank = (sims > best).sum(axis=1) + ((sims == best) & (idx < first)).sum(axis=1)
        for k in ks:
            hits[k] += int((rank < k).sum())
    return {k: hits[k] / len(q) for k in ks}


def prepare(bench: Bench) -> None:
    """Generate the workload's input files from the seed."""
    from crossbatch import MLPEmbedder, load_features, save_checkpoint
    from crossbatch.data import TAG_TRAIN, TAG_VAL_GALLERY, TAG_VAL_QUERY

    scale = SCALES[bench.scale]
    ks = [int(k) for k in RECALL_KS.split(",")]
    if bench.is_train:
        data = bench.work / "train.xbnf"
        cli_quiet(["gen-data", "--out", data, "--seed", bench.seed, *scale["train_data"]])
        train_rows = int((load_features(data).splits == TAG_TRAIN).sum())
        warmup, main = scale["epochs"]
        bench.train_data = data
        bench.epochs = warmup + main
        bench.iterations = math.ceil(train_rows / BATCH_SIZE) * bench.epochs
        bench.argv = [
            "train", "--dataset", str(data), "--variant", WORKLOADS[bench.workload],
            "--seed", str(bench.seed), "--warmup-epochs", str(warmup), "--epochs", str(main),
            *TRAIN_FLAGS,
        ]
        return
    data = bench.work / "eval.xbnf"
    cli_quiet(["gen-data", "--out", data, "--seed", bench.seed,
               "--protocol", "query-gallery", *scale["eval_data"]])
    embedder = MLPEmbedder(CHECKPOINT_DIMS, seed=bench.seed)
    checkpoint = bench.work / "eval.xbnc"
    save_checkpoint(embedder, checkpoint)
    ds = load_features(data)
    q_rows, g_rows = ds.splits == TAG_VAL_QUERY, ds.splits == TAG_VAL_GALLERY
    q = reference_embed(embedder.weights, embedder.biases, ds.features[q_rows])
    g = reference_embed(embedder.weights, embedder.biases, ds.features[g_rows])
    bench.reference = reference_recall(q, ds.labels[q_rows], g, ds.labels[g_rows], ks)
    bench.n_queries = len(q)
    bench.argv = ["eval", "--checkpoint", str(checkpoint), "--dataset", str(data),
                  "--recall-ks", RECALL_KS]


def launch(bench: Bench, run_id: str, traced: bool, setup_only: bool, argv: list[str]):
    """Run one worker process to completion; return (result or None, stdout, error)."""
    result_path = bench.work / f"{run_id}.json"
    spec = {"argv": argv, "trace": traced, "setup_only": setup_only, "run_id": run_id,
            "result": str(result_path)}
    spec["launch_ns"] = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            env=child_env(), capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {COMMAND_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return None, proc.stdout, f"worker exited with {proc.returncode}: {tail[0]}"
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, proc.stdout, None


def check_train(bench: Bench, out_root: Path) -> tuple[str | None, float | None]:
    """Record counts, finite losses, and eval of the checkpoint reproducing summary.csv."""
    out = out_root / WORKLOADS[bench.workload] / str(bench.seed)
    kinds = Counter()
    for line in (out / "metrics.jsonl").read_text().splitlines():
        record = json.loads(line)
        kinds[record["type"]] += 1
        loss = record["loss"] if record["type"] == "iteration" else record["mean_loss"]
        if not math.isfinite(loss):
            return f"non-finite loss in {record}", None
    if kinds != Counter(iteration=bench.iterations, epoch=bench.epochs):
        return (f"metrics.jsonl has {dict(kinds)}, expected {bench.iterations} iteration "
                f"and {bench.epochs} epoch records"), None
    with open(out / "summary.csv", newline="") as f:
        (summary,) = list(csv.DictReader(f))
    r1 = float(summary["r_at_1"])
    printed = parse_recall(cli_quiet(["eval", "--checkpoint", out / "checkpoint.xbnc",
                                      "--dataset", bench.train_data, "--recall-ks", RECALL_KS]))
    for k, value in printed.items():
        if f"{float(summary[f'r_at_{k}']):.6f}" != f"{value:.6f}":
            return f"eval of checkpoint gives r_at_{k}={value}, summary.csv {summary}", r1
    if set(printed) != {int(k) for k in RECALL_KS.split(",")}:
        return f"eval printed {printed}", r1
    return None, r1


def check_eval(bench: Bench, stdout: str) -> tuple[str | None, float | None]:
    """Printed recall within one query per k of the plain reference."""
    printed = parse_recall(stdout)
    if set(printed) != set(bench.reference):
        return f"eval printed {printed}, expected k in {sorted(bench.reference)}", None
    for k, ref in bench.reference.items():
        if abs(printed[k] - ref) * bench.n_queries > 1.01:
            return f"r_at_{k}={printed[k]}, reference {ref}", printed[1]
    return None, printed[1]


def run_op(bench: Bench, index: int, traced: bool, tamper=None) -> Op:
    """One timed command plus its output checks (which are not timed)."""
    run_id = f"{bench.workload}-{bench.seed}-op{index}"
    out_root = bench.work / run_id
    argv = bench.argv + (["--out", str(out_root)] if bench.is_train else [])
    result, stdout, error = launch(bench, run_id, traced, False, argv)
    op = Op(traced, result, error)
    if op.timed:
        out_root.mkdir(parents=True, exist_ok=True)
        (out_root / "stdout.txt").write_text(stdout)
        if tamper is not None:
            tamper(bench, out_root)
        stdout = (out_root / "stdout.txt").read_text()
        try:
            check = check_train(bench, out_root) if bench.is_train else check_eval(bench, stdout)
        except Exception as exc:  # a broken output fails this command, not the run
            check = (f"check raised {exc!r}", None)
        op.error, op.r1 = check
    elif op.error is None:
        op.error = f"crossbatch exited with {result.get('rc')}"
    shutil.rmtree(out_root, ignore_errors=True)
    return op


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(bench: Bench, ops: list[Op], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics from untraced commands; a step is an eval pass on eval-large."""
    timed = [op for op in ops if op.timed and not op.traced]
    if bench.is_train:
        steps = [(e - s) / 1e6 for op in timed for _, s, e, _, _ in op.spans("training.train_step")]
        evals = [(e - s) / 1e6 for op in timed for _, s, e, _, _ in op.spans("training.evaluate")]
    else:
        steps = evals = [op.run_s * 1e3 for op in timed]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(op.run_s for op in timed),
        "steps_per_s": len(steps) / (sum(steps) / 1e3),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": p90(steps),
        "eval_ms_p50": statistics.median(evals),
        "best_r1": statistics.median(op.r1 for op in timed if op.r1 is not None),
        "peak_rss_mb": statistics.median(op.result["maxrss_kb"] / 1024 for op in timed),
    }


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced command (times in ms per command)."""
    dur = [e - s for _, s, e, _, _ in spans]
    child = [0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    total, own, calls = Counter(), Counter(), Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    in_step = [False] * len(spans)
    dm_in_step = probe_ns = 0
    for i, (name, _, _, parent, c) in enumerate(spans):
        total[name] += dur[i]
        own[name] += dur[i] - child[i]
        calls[name] += 1
        if c:
            counts[name].update(c)
        in_step[i] = name == "training.train_step" or (parent >= 0 and in_step[parent])
        if name == "losses.distance_matrix" and in_step[i]:
            dm_in_step += 1
        if name == "embedder.embed" and parent >= 0 and spans[parent][0] == "training.train_step":
            probe_ns += dur[i]

    def ms(name):
        return total[name] / 1e6

    def per_call(name, key):
        return counts[name][key] / calls[name] if calls[name] else 0.0

    pairs = counts["losses.mine_pairs"]
    candidates = pairs["candidates"]
    bank_calls = ("memory.adapt", "memory.enqueue", "memory.reference_set")
    steps = calls["training.train_step"]
    return {
        "losses.xbm_loss.self_ms": own["losses.xbm_loss"] / 1e6,
        "losses.mine_pairs.ms": ms("losses.mine_pairs"),
        "losses.contrastive_loss.ms": ms("losses.contrastive_loss"),
        "losses.distance_matrix.calls_per_step": dm_in_step / steps if steps else 0.0,
        "losses.candidates": candidates,
        "losses.n_pos": pairs["n_pos"],
        "losses.n_neg": pairs["n_neg"],
        "losses.mined_frac": (pairs["n_pos"] + pairs["n_neg"]) / candidates if candidates else 0.0,
        "memory.adapt.ms": ms("memory.adapt"),
        "memory.enqueue.ms": ms("memory.enqueue"),
        "memory.reference_set.ms": ms("memory.reference_set"),
        "memory.fill": per_call("memory.reference_set", "fill"),
        "memory.bytes_copied": sum(counts[n]["bytes"] for n in bank_calls),
        "moments.compute_moments.ms": ms("moments.compute_moments"),
        "kalman.kalman_step.ms": ms("kalman.kalman_step"),
        "embedder.forward.ms": ms("embedder.forward"),
        "embedder.forward.rows": counts["embedder.forward"]["rows"],
        "embedder.probe.ms": probe_ns / 1e6,
        "embedder.backward.ms": ms("embedder.backward"),
        "embedder.optimizer_step.ms": ms("embedder.optimizer_step"),
        "embedder.load_checkpoint.ms": ms("embedder.load_checkpoint"),
        "embedder.save_checkpoint.ms": ms("embedder.save_checkpoint"),
        "training.train_step.self_ms": own["training.train_step"] / 1e6,
        "training.sample_pk_batches.ms": ms("training.sample_pk_batches"),
        "training.evaluate.ms": ms("training.evaluate"),
        "retrieval.recall_at_k.ms": ms("retrieval.recall_at_k"),
        "retrieval.queries": per_call("retrieval.recall_at_k", "queries"),
        "retrieval.gallery": per_call("retrieval.recall_at_k", "gallery"),
        "retrieval.sim_bytes": per_call("retrieval.recall_at_k", "sim_bytes"),
        "data.load_features.ms": ms("data.load_features"),
        "data.bytes_read": counts["data.load_features"]["bytes"],
        "cli.write_metrics.ms": ms("cli.write_metrics"),
        "cli.main.self_ms": own["cli.main"] / 1e6,
    }


def per_layer(ops: list[Op]) -> dict[str, float]:
    """Median over traced commands, plus traced vs untraced run_s."""
    traced = [layer_metrics(op.result["spans"]) for op in ops if op.timed and op.traced]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    run_s = {flag: statistics.median(op.run_s for op in ops if op.timed and op.traced == flag)
             for flag in (True, False)}
    metrics["trace.overhead_pct"] = 100.0 * (run_s[True] / run_s[False] - 1.0)
    return metrics


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(AttributeError, KeyError, TypeError):  # numpy < 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: env[var] for var in THREAD_VARS},
    }


def load_declared() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in declared["workloads"]}
    if names != set(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}")
    return declared


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", tamper=None) -> dict:
    """Run one workload; return the result object printed as the last line.

    tamper(bench, out_dir), when given, edits each command's outputs before
    they are checked; the smoke check uses it to plant wrong outputs.
    """
    declared = load_declared()
    import_program()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(workload, seed, scale, work)
    try:
        prepare(bench)
        setups = []
        for i in range(PROBES):
            argv = bench.argv + (["--out", str(work / f"probe{i}")] if bench.is_train else [])
            result, _, error = launch(bench, f"probe{i}", False, True, argv)
            if error:
                raise BenchError(f"set-up probe failed: {error}")
            setups.append((result["setup_end_ns"] - result["launch_ns"]) / 1e9)
        ops: list[Op] = []
        deadline = time.monotonic() + seconds
        while len(ops) < (2 if trace else 1) or time.monotonic() < deadline:
            ops.append(run_op(bench, len(ops), trace and len(ops) % 2 == 0, tamper))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    timed = [op for op in ops if op.timed]
    if not any(not op.traced for op in timed) or (trace and not any(op.traced for op in timed)):
        errors = "; ".join(op.error for op in ops if op.error)
        raise BenchError(f"no command of {workload} completed: {errors}")
    setups += [(op.result["setup_end_ns"] - op.result["launch_ns"]) / 1e9
               for op in timed if not op.traced]
    values = per_layer(ops) if trace else end_to_end(bench, ops, setups)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"computed metrics {sorted(values)} != declared {sorted(units)}")
    failed = sum(op.error is not None for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "details": {
            "env": environment(),
            "commands": len(ops),
            "traced_commands": sum(op.traced for op in ops),
            "setup_samples": len(setups),
            "run_s_each": [round(op.run_s, 4) for op in timed],
            "fail_frac": failed / len(ops),
            "errors": [op.error for op in ops if op.error],
            "not_traced": sorted({m for op in timed for m in op.result.get("missing", [])}),
        },
    }


def report(workload: str, seed: int, trace: bool, out: dict) -> None:
    details = out.pop("details")
    print(f"crossbatch benchmark: workload {workload}, seed {seed}, trace {int(trace)}")
    print("env " + json.dumps(details.pop("env")))
    print("run " + json.dumps(details))
    print(f"  {'fail_frac':40s} {details['fail_frac']:.4f} fraction "
          f"({out['failed']}/{out['attempted']} commands)")
    for name, metric in out["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, bool(args.trace), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
