"""The benchmark's tracer still finds the functions it wraps.

perfbench/worker.py patches the program's functions by name and reads
MinedPairs.positives/negatives from mine_pairs' result. A refactor that
renames a wrapped function or drops one of those fields fails here, and not
only in perfbench/smoke.py.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from crossbatch.cli import main

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
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
