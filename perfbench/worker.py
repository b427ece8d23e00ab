"""Run one crossbatch CLI command in this process and time its calls.

Usage: python3 perfbench/worker.py SPEC

SPEC is a JSON object with:
  argv        the arguments for crossbatch.cli.main
  launch_ns   time.monotonic_ns() taken by the parent just before it started
              this process (CLOCK_MONOTONIC is shared by all processes)
  trace       true: a span around every module boundary patched by
              install(); false: spans around train_step and evaluate only
  setup_only  stop at the end of set-up (the first train_step, or the call
              of cli.main for other commands) without running the command
  run_id      identifier shared by every span of this command
  result      path of the JSON file this process writes when it ends

Spans are kept in memory as [name, start_ns, end_ns, parent index, counts]
and written to the result file once the command has returned.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class SetupDone(BaseException):
    """Raised at the first train_step of a set-up-only launch.

    A BaseException, so that no handler in the program swallows it.
    """


class Tracer:
    """Records nested spans around functions patched at their lookup names."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace owner.attr by a spanned call of it.

        pre(args) gives counts known before the call, post(args, result)
        counts taken from its return value.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, clock = self.spans, self._stack, time.monotonic_ns

        def spanned(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, pre(args) if pre else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if post is not None:
                span[4] = post(args, result)
            return result

        setattr(owner, attr, spanned)


def _bank_rows(extra_batch: bool):
    """Rows of the bank copied by a MemoryBank call, computed as rows x dim x 8."""

    def count(args):
        bank = args[0]
        rows = len(bank) + (args[1].n if extra_batch else 0)
        return {"fill": len(bank), "bytes": rows * bank.dim * 8}

    return count


def _pairs(args, result):
    batch, reference = args[0], args[1]
    return {
        "candidates": batch.n * reference.n,
        "n_pos": len(result.positives),
        "n_neg": len(result.negatives),
    }


def _retrieval_sizes(args):
    queries, gallery = args[0], args[1]
    return {"queries": queries.n, "gallery": gallery.n, "sim_bytes": queries.n * gallery.n * 8}


def install(tracer: Tracer, full: bool) -> None:
    """Patch the program's public functions where their callers look them up."""
    from crossbatch import cli, embedder, losses, memory, training

    tracer.wrap(training.TrainingRun, "train_step", "training.train_step")
    tracer.wrap(training.TrainingRun, "evaluate", "training.evaluate")
    if not full:
        return
    bank = memory.MemoryBank
    targets = [
        (cli, "load_features", "data.load_features",
         lambda a: {"bytes": os.path.getsize(a[0])}, None),
        (cli, "load_checkpoint", "embedder.load_checkpoint", None, None),
        (cli, "save_checkpoint", "embedder.save_checkpoint", None, None),
        (cli, "write_metrics", "cli.write_metrics", None, None),
        (cli, "recall_at_k", "retrieval.recall_at_k", _retrieval_sizes, None),
        (training, "recall_at_k", "retrieval.recall_at_k", _retrieval_sizes, None),
        (training, "sample_pk_batches", "training.sample_pk_batches", None, None),
        (training, "xbm_loss", "losses.xbm_loss", None, None),
        (losses, "mine_pairs", "losses.mine_pairs", None, _pairs),
        (losses, "contrastive_loss", "losses.contrastive_loss", None, None),
        (losses, "distance_matrix", "losses.distance_matrix", None, None),
        (bank, "adapt", "memory.adapt", _bank_rows(False), None),
        (bank, "enqueue", "memory.enqueue", _bank_rows(True), None),
        (bank, "reference_set", "memory.reference_set", _bank_rows(True), None),
        (training, "compute_moments", "moments.compute_moments", None, None),
        (memory, "compute_moments", "moments.compute_moments", None, None),
        (training, "kalman_step", "kalman.kalman_step", None, None),
        (embedder.MLPEmbedder, "forward", "embedder.forward",
         lambda a: {"rows": len(a[1])}, None),
        (embedder.MLPEmbedder, "embed", "embedder.embed", None, None),
        (embedder.MLPEmbedder, "backward", "embedder.backward", None, None),
        (embedder.Optimizer, "step", "embedder.optimizer_step", None, None),
    ]
    for owner, attr, name, pre, post in targets:
        tracer.wrap(owner, attr, name, pre, post)


def run(spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    from crossbatch import cli, training

    tracer = Tracer()
    install(tracer, spec["trace"])
    is_train = spec["argv"][0] == "train"
    result = {"run_id": spec["run_id"], "launch_ns": spec["launch_ns"], "rc": None}
    if spec["setup_only"]:
        result["setup_end_ns"] = time.monotonic_ns()
        if is_train:
            def stop(*_args, **_kwargs):
                result["setup_end_ns"] = time.monotonic_ns()
                raise SetupDone

            training.TrainingRun.train_step = stop
            try:
                cli.main(spec["argv"])
            except SetupDone:
                pass
        return result
    main_start = time.monotonic_ns()
    rc = cli.main(spec["argv"])
    main_end = time.monotonic_ns()
    steps = [s for s in tracer.spans if s[0] == "training.train_step"]
    result.update(
        rc=rc,
        main_start_ns=main_start,
        main_end_ns=main_end,
        setup_end_ns=steps[0][1] if is_train and steps else main_start,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        missing=tracer.missing,
        spans=[["cli.main", main_start, main_end, -1, None]]
        + [[n, s, e, p + 1 if p >= 0 else 0, c] for n, s, e, p, c in tracer.spans],
    )
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
