"""Byte identity of run outputs, checked against committed digests.

One dataset (`gen-data --seed 801 --cluster-std 1.02`), six train runs, a
sweep and a drift grid, all run through cli.main, and one eval of the axbn
checkpoint on 1600 queries x 1600 gallery rows of a second dataset: about 21 MB
of similarities, over retrieval's 16 MiB chunk budget, so it runs in tiles on
threads at one BLAS thread and in chunks at two. The recipe runs twice, in
two subprocesses with one and with two BLAS threads, and the first 16 hex
digits of each output's SHA-256 must equal DIGESTS in both. config.txt is left
out: it holds the dataset's absolute path.

A change that moves rounding on purpose updates DIGESTS in the same commit;
the failure message prints the observed table in the format below. The
digests belong to one numpy/BLAS stack (STACK); on another the test skips and
says which stack it found.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossbatch import MethodVariant
from crossbatch.cli import main

# numpy version, BLAS name and BLAS version the digests were taken on
STACK = ("2.4.6", "scipy-openblas", "0.3.31.188.0")

TRAIN = ["--seed", "3", "--warmup-epochs", "1", "--epochs", "3", "--batch-size", "16",
         "--lr", "2e-3"]
GRIDS = {
    "sweep": ["sweep", "--axis", "batch-size", "--values", "8,16", "--variants", "xbm,axbn",
              "--seeds", "0,1", "--warmup-epochs", "1", "--epochs", "1", "--lr", "2e-3"],
    "drift": ["sweep", "--variants", "no-xbm,ema:0.5", "--seed", "5", "--warmup-epochs", "1",
              "--epochs", "1", "--lr", "2e-3"],  # the grid without an axis
}
EVAL_DATA = ["--protocol", "query-gallery", "--val-classes", "80", "--samples-per-class", "40",
             "--seed", "801", "--cluster-std", "1.02"]
RUN_FILES = ("checkpoint.xbnc", "metrics.jsonl", "summary.csv")
GRID_FILES = ("sweep_runs.csv", "sweep_summary.csv", "drift.csv")

DIGESTS = {
    # train --variant V: checkpoint.xbnc / metrics.jsonl / summary.csv
    "no-xbm": ("938482a7cd2772e1", "e07882d009fc2fce", "3a82673040269cff"),
    "xbm": ("e52c798e103e0f03", "4ad2b08a330f2dde", "84ccab48c03fe7ef"),
    "xbm-star": ("74edbed54a992480", "ecd655f36f513205", "83e4011bd00ce525"),
    "xbn": ("e42338f27bcf94d6", "f6a2ccd4d81f01d5", "1a98648f2eab9f1f"),
    "axbn": ("5719796d82eddd75", "291cb050a4711880", "11ed6b253b54ef8d"),
    "ema:0.5": ("7ac868c5a7897546", "cc1c047019a5ac98", "763b107b64bd7c76"),
    # grids: sweep_runs.csv / sweep_summary.csv / drift.csv
    "sweep": ("38313beab30a8e85", "1fe7e27081ce5d23", "222ff53038e5c956"),
    "drift": ("fccf6b24ce175711", "b4849f8d5ef84acd", "b6a99b00b77fdafa"),
    # eval of the axbn checkpoint on the EVAL_DATA dataset: stdout
    "eval": ("6a23ffbe7ac5e0ad",),
}


def _stack() -> tuple[str, str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (np.__version__, blas.get("name", "unknown"), blas.get("version", "unknown"))


def _digests(root, files) -> tuple[str, ...]:
    return tuple(hashlib.sha256((root / name).read_bytes()).hexdigest()[:16] for name in files)


def _table(digests: dict) -> str:
    return "\n".join(f"    {name!r}: {value!r}," for name, value in digests.items())


def _observe(root: Path) -> dict:
    """Run the recipe under root and return its digests, keyed as DIGESTS."""
    data = str(root / "data.xbnf")
    assert main(["gen-data", "--out", data, "--seed", "801", "--cluster-std", "1.02"]) == 0
    observed = {}
    for spec in [name for name in DIGESTS if name not in GRIDS and name != "eval"]:
        out = root / "train"
        assert main(["train", "--dataset", data, "--out", str(out), "--variant", spec, *TRAIN]) == 0
        observed[spec] = _digests(out / str(MethodVariant.parse(spec)) / "3", RUN_FILES)
    for name, argv in GRIDS.items():
        out = root / name
        assert main([*argv, "--dataset", data, "--out", str(out)]) == 0
        observed[name] = _digests(out, GRID_FILES)
    eval_data = str(root / "eval.xbnf")
    assert main(["gen-data", "--out", eval_data, *EVAL_DATA]) == 0
    checkpoint = root / "train" / "axbn" / "3" / "checkpoint.xbnc"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", eval_data,
                     "--recall-ks", "1,2,4,8,16,32,64"]) == 0
    observed["eval"] = (hashlib.sha256(printed.getvalue().encode()).hexdigest()[:16],)
    return observed


def test_outputs_match_committed_digests(tmp_path):
    if _stack() != STACK:
        pytest.skip(f"digests were taken on numpy {STACK[0]} with {STACK[1]} {STACK[2]}; "
                    f"this is numpy {_stack()[0]} with {_stack()[1]} {_stack()[2]}")
    src = str(Path(__file__).resolve().parent.parent / "src")
    procs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        (tmp_path / threads).mkdir()
        procs[threads] = subprocess.Popen([sys.executable, __file__, str(tmp_path / threads)],
                                          env=env, stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE, text=True)
    for threads, proc in procs.items():
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        digests = json.loads((tmp_path / threads / "digests.json").read_text())
        observed = {name: tuple(value) for name, value in digests.items()}
        assert observed == DIGESTS, (f"outputs moved at {threads} BLAS thread(s); "
                                     f"observed digests:\n{_table(observed)}")


if __name__ == "__main__":
    root = Path(sys.argv[1])
    (root / "digests.json").write_text(json.dumps(_observe(root)))
