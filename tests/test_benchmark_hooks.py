"""The benchmark still runs the program it measures.

perfbench/worker.py patches the program's functions by name and reads
MinedPairs.positives/negatives from mine_pairs' result, and perfbench/run.py
passes the run settings as flags named after TrainConfig's fields. A refactor
that renames a wrapped function, drops one of those fields or renames a
setting fails here, and not only in perfbench/smoke.py.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crossbatch.cli import build_parser, build_train_config, main, resolve_settings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER = PERFBENCH / "worker.py"
# cli no longer imports recall_at_k, but the benchmark still wraps it there
KNOWN_DEAD = {"crossbatch.cli.recall_at_k"}


def test_traced_axbn_run_finds_every_patch_point(tmp_path):
    data = tmp_path / "toy.xbnf"
    assert main(["gen-data", "--out", str(data), "--train-classes", "6", "--val-classes", "3",
                 "--samples-per-class", "6", "--input-dim", "8", "--seed", "3"]) == 0
    result = tmp_path / "result.json"
    spec = {
        "argv": ["train", "--dataset", str(data), "--out", str(tmp_path / "runs"),
                 "--variant", "axbn", "--batch-size", "6", "--samples-per-class", "2",
                 "--epochs", "1", "--warmup-epochs", "1", "--hidden-dims", "12",
                 "--embed-dim", "6", "--recall-ks", "1,5"],
        "launch_ns": time.monotonic_ns(),
        "trace": True,
        "setup_only": False,
        "run_id": "hooks",
        "result": str(result),
    }
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["rc"] == 0
    assert set(out["missing"]) <= KNOWN_DEAD
    spans = {name for name, *_ in out["spans"]}
    assert {"losses.mine_pairs", "losses.contrastive_loss", "memory.adapt"} <= spans


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py, loaded by path as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", ["train-axbn", "train-nomem", "eval-large"])
def test_benchmark_command_lines_parse(tmp_path, bench_run, workload):
    bench = bench_run.Bench(workload, 1, "tiny", tmp_path)
    bench_run.prepare(bench)
    args = build_parser(bench.argv[0]).parse_args(bench.argv)
    if not bench.is_train:
        assert args.command == "eval"
        return
    flags = dict(zip(bench_run.TRAIN_FLAGS[::2], bench_run.TRAIN_FLAGS[1::2]))
    config = build_train_config(resolve_settings(args))
    assert config.batch_size == bench_run.BATCH_SIZE == int(flags["--batch-size"])
    assert config.lr == float(flags["--lr"])
    assert config.schedule_gamma == float(flags["--schedule-gamma"])
    assert config.schedule_every == int(flags["--schedule-every"])
    assert config.recall_ks == tuple(int(k) for k in bench_run.RECALL_KS.split(","))
    assert args.variant == bench_run.WORKLOADS[workload]
