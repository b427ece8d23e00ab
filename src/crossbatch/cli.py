"""Experiment command line: train, sweep, drift, eval, gen-data.

Configuration comes from a flat key=value file plus flag overrides (flags
win); every run echoes its fully resolved config into its output directory.
Results are line-delimited JSON metric records and CSV summaries, all
parseable by the readers in this module. Exit code 0 means every requested
run completed without a non-finite loss.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict, fields, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .data import FeatureDataset, SyntheticConfig, generate_synthetic, load_features, save_features
from .embedder import load_checkpoint, save_checkpoint
from .errors import CrossbatchError, InvalidConfig
from .training import VARIANTS, MethodVariant, TrainConfig, TrainingRun, TrainResult, evaluate

__all__ = ["main", "entrypoint", "read_metrics", "read_csv_rows"]

OUT_ENV_VAR = "CROSSBATCH_OUT"


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidConfig(f"expected comma-separated integers, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(text)


# Every training setting, declared once: its config-file key (the flag is the
# key with dashes), its TrainConfig attribute path and the parser of its text.
# Defaults are TrainConfig()'s. kalman.* settings apply only to variants that
# run the kalman filter.
_SETTINGS = {
    "batch_size": ("batch_size", int),
    "samples_per_class": ("samples_per_class", int),
    "memory_fraction": ("memory_fraction", float),
    "memory_capacity": ("memory_capacity", int),
    "epochs": ("epochs", int),
    "warmup_epochs": ("warmup_epochs", int),
    "hidden_dims": ("hidden_dims", _parse_int_tuple),
    "embed_dim": ("embed_dim", int),
    "lr": ("main_optimizer.learning_rate", float),
    "weight_decay": ("main_optimizer.weight_decay", float),
    "schedule_gamma": ("main_optimizer.schedule_gamma", float),
    "schedule_every": ("main_optimizer.schedule_every", int),
    "warmup_lr": ("warmup_optimizer.learning_rate", float),
    "pos_margin": ("miner.pos_margin", float),
    "neg_margin": ("miner.neg_margin", float),
    "recall_ks": ("recall_ks", _parse_int_tuple),
    "probe_drift": ("probe_drift", _parse_bool),
    "seed": ("seed", int),
    "q": ("kalman.q", float),
    "p0": ("kalman.p0", float),
    "r": ("kalman.r", float),
    "gain_interval": ("kalman.gain_interval", int),
}


def default_out_root() -> Path:
    return Path(os.environ.get(OUT_ENV_VAR, "runs"))


def read_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines ignored. A '#' at the start of a line
    or after whitespace starts a comment, so a path may contain '#'."""
    return _parse_config(Path(path).read_text(), path)


def _parse_config(text: str, path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in (*_SETTINGS, "variant", "dataset"):
            raise InvalidConfig(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, text: str):
    parse = _SETTINGS[key][1]
    try:
        return parse(text)
    except ValueError:
        kind = "a boolean" if parse is _parse_bool else "numeric"
        raise InvalidConfig(f"{key} must be {kind}, got {text!r}") from None


def _format(value) -> str:
    """A setting's value as text its parser reads back exactly."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def resolve_settings(args: argparse.Namespace) -> dict:
    """Config file, then flags (flags win), parsed into one flat dict.

    Settings given in neither map to None and keep TrainConfig()'s default.
    """
    settings = dict.fromkeys((*_SETTINGS, "variant", "dataset"))
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for key in settings:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    for key in _SETTINGS:
        if settings[key] is not None:
            settings[key] = _coerce(key, settings[key])
    return settings


def build_train_config(settings: dict) -> TrainConfig:
    """TrainConfig() with the settings that are not None replaced."""
    changes: dict[str, dict] = {}
    for key, (path, _) in _SETTINGS.items():
        if settings.get(key) is not None:
            section, _, attr = path.rpartition(".")
            changes.setdefault(section, {})[attr] = settings[key]
    config = TrainConfig()
    nested = {name: replace(getattr(config, name), **kw) for name, kw in changes.items() if name}
    return replace(config, **changes.get("", {}), **nested)


def _applies(key: str, variant: MethodVariant) -> bool:
    """kalman.* settings apply only to variants whose filter is the kalman filter."""
    return not _SETTINGS[key][0].startswith("kalman.") or variant.stats_filter == "kalman"


def build_variant(settings: dict) -> MethodVariant:
    name = settings.get("variant")
    if not name:
        raise InvalidConfig("no variant selected (use --variant)")
    variant = MethodVariant.parse(name)
    stray = [k for k in _SETTINGS if settings.get(k) is not None and not _applies(k, variant)]
    if stray:
        owners = " or ".join(kind for kind, row in VARIANTS.items() if row[1] == "kalman")
        raise InvalidConfig(
            f"{', '.join(stray)} appl{'ies' if len(stray) == 1 else 'y'} "
            f"only to the {owners} variant, not {name!r}"
        )
    return variant


def _run_dir(root: Path, variant: MethodVariant, seed: int) -> Path:
    """<root>/<variant>/<seed>, the output directory of every training run."""
    return root / str(variant) / str(seed)


def _config_text(config: TrainConfig, variant: MethodVariant, dataset) -> str:
    """The resolved settings, as a config file that replays the run from any directory."""
    dataset = os.path.abspath(dataset)
    values = {"variant": variant.spec, "dataset": dataset}
    for key, (attr_path, _) in _SETTINGS.items():
        value = reduce(getattr, attr_path.split("."), config)
        if value is not None and _applies(key, variant):
            values[key] = _format(value)
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    if _parse_config(text, "config.txt") != values:
        raise InvalidConfig(f"dataset path {dataset!r} cannot be written to a config file")
    return text


def write_metrics(result: TrainResult, path: Path) -> None:
    with open(path, "w") as f:
        for record in result.iterations:
            f.write(json.dumps({"type": "iteration", **asdict(record)}) + "\n")
        for record in result.epoch_records:
            f.write(json.dumps({"type": "epoch", **asdict(record)}) + "\n")


def read_metrics(path) -> tuple[list[dict], list[dict]]:
    """Parse a metrics file back into (iteration records, epoch records)."""
    iterations, epochs = [], []
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        (iterations if record["type"] == "iteration" else epochs).append(record)
    return iterations, epochs


def read_csv_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _summary_row(result: TrainResult, seed: int) -> dict:
    row = {"variant": str(result.variant), "seed": seed, "best_epoch": result.best_epoch}
    for k in result.config.recall_ks:
        row[f"r_at_{k}"] = result.best_recall.get(k, "")
    return row


def _run_one(config: TrainConfig, variant: MethodVariant, dataset_path,
             dataset: FeatureDataset, out_dir: Path) -> TrainResult:
    # a run rejected by its trainer or its config file leaves no run directory behind
    trainer = TrainingRun(config, dataset, variant)
    config_text = _config_text(config, variant, dataset_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(config_text)
    result = trainer.run()
    write_metrics(result, out_dir / "metrics.jsonl")
    _write_csv(
        out_dir / "summary.csv",
        ["variant", "seed", "best_epoch"] + [f"r_at_{k}" for k in config.recall_ks],
        [_summary_row(result, config.seed)],
    )
    save_checkpoint(result.embedder, out_dir / "checkpoint.xbnc")
    return result


def _load_dataset(settings: dict) -> FeatureDataset:
    path = settings.get("dataset")
    if not path:
        raise InvalidConfig("no dataset given (use --dataset)")
    return load_features(path)


def cmd_train(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    dataset = _load_dataset(settings)
    variant = build_variant(settings)
    config = build_train_config(settings)
    out_dir = _run_dir(Path(args.out or default_out_root()), variant, config.seed)
    result = _run_one(config, variant, settings["dataset"], dataset, out_dir)
    best = ", ".join(f"R@{k}={v:.4f}" for k, v in sorted(result.best_recall.items()))
    print(f"{variant} seed {result.config.seed}: best epoch {result.best_epoch}, {best}")
    print(f"outputs in {out_dir}")
    return 0


def _sweep_cell(payload: dict) -> dict:
    """One grid run; returns a row dict. Top-level so process pools can pickle it.

    A package error or an OSError (invalid axis value, unreadable dataset,
    unwritable out dir) fails this cell only; it is recorded in the row, never
    raised.
    """
    settings, variant = payload["settings"], payload["variant"]
    row = {
        "axis": payload["axis"],
        "axis_value": payload["axis_value"],
        "variant": variant.spec,
        "seed": settings["seed"],
        "status": "ok",
        "error": "",
    }
    try:
        config = build_train_config(settings)
        dataset = load_features(settings["dataset"])
        result = _run_one(config, variant, settings["dataset"], dataset, Path(payload["out_dir"]))
    except (CrossbatchError, OSError) as exc:
        row["status"] = "failed"
        row["error"] = str(exc)
        return row
    for k in result.config.recall_ks:
        row[f"r_at_{k}"] = result.best_recall.get(k, "")
    return row


def _distinct(flag: str, items: list) -> None:
    """Reject a grid list that names an entry twice: both cells would share one directory."""
    repeated = [item for i, item in enumerate(items) if item in items[:i]]
    if repeated:
        raise InvalidConfig(f"{flag} lists {repeated[0]} more than once")


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the grid of axis values x variants x seeds; drift is this grid without an axis."""
    if args.workers < 1:
        raise InvalidConfig(f"--workers must be >= 1, got {args.workers}")
    settings = resolve_settings(args)
    _load_dataset(settings)  # fail fast on a bad path before launching workers
    config = build_train_config(settings)
    key = args.axis.replace("-", "_") if args.axis else None
    values = [None] if key is None else [_coerce(key, v) for v in args.values.split(",")]
    seeds = [config.seed] if args.seeds is None else [
        _coerce("seed", s) for s in args.seeds.split(",")
    ]
    variants = [MethodVariant.parse(name) for name in args.variants.split(",")]
    _distinct("--values", values)
    _distinct("--variants", [variant.spec for variant in variants])
    _distinct("--seeds", seeds)
    out_root = Path(args.out or default_out_root())
    ks = config.recall_ks

    cells = []
    for value in values:
        # every digit of the value, so distinct values never share a directory
        root = out_root if key is None else (
            out_root / f"{args.axis}-{np.format_float_positional(value, trim='-')}"
        )
        for variant in variants:
            for seed in seeds:
                cell = {**settings, key: value, "seed": seed}  # key None is ignored
                if key == "memory_fraction":
                    cell["memory_capacity"] = None  # the swept fraction must win
                cells.append({"settings": cell, "variant": variant, "axis": args.axis,
                              "axis_value": value, "out_dir": str(_run_dir(root, variant, seed))})

    workers = min(args.workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at module level: ~30 ms per command
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    out_root.mkdir(parents=True, exist_ok=True)  # no run may have made it
    cell_fields = ["axis", "axis_value", "variant", "seed"]
    run_fields = cell_fields + ["status", "error"] + [f"r_at_{k}" for k in ks]
    _write_csv(out_root / "sweep_runs.csv", run_fields, rows)

    agg_rows = []
    for value in values:
        for variant in variants:
            ok = [
                r
                for r in rows
                if r["axis_value"] == value and r["variant"] == variant.spec and r["status"] == "ok"
            ]
            agg = {"axis": args.axis, "axis_value": value, "variant": variant.spec, "n_seeds": len(ok)}
            for k in ks:
                vals = np.array([float(r[f"r_at_{k}"]) for r in ok], dtype=np.float64)
                agg[f"mean_r_at_{k}"] = vals.mean() if len(vals) else ""
                agg[f"std_r_at_{k}"] = vals.std() if len(vals) else ""
            agg_rows.append(agg)
    agg_fields = ["axis", "axis_value", "variant", "n_seeds"] + [
        f"{stat}_r_at_{k}" for k in ks for stat in ("mean", "std")
    ]
    _write_csv(out_root / "sweep_summary.csv", agg_fields, agg_rows)

    drift_rows = [  # the epoch records of each ok run, read back from its metrics file
        {**{f: row[f] for f in cell_fields}, "epoch": e["epoch"], "mean_drift": e["mean_drift"],
         "max_drift": e["max_drift"], "val_r_at_1": e["recall"].get("1", "")}
        for cell, row in zip(cells, rows)
        if row["status"] == "ok"
        for e in read_metrics(Path(cell["out_dir"]) / "metrics.jsonl")[1]
    ]
    drift_fields = cell_fields + ["epoch", "mean_drift", "max_drift", "val_r_at_1"]
    _write_csv(out_root / "drift.csv", drift_fields, drift_rows)

    failed = [r for r in rows if r["status"] != "ok"]
    print(f"sweep complete: {len(rows) - len(failed)}/{len(rows)} runs ok")
    print(f"tables sweep_runs.csv, sweep_summary.csv and drift.csv in {out_root}")
    for r in failed:
        where = "" if key is None else f"{r['axis']}={r['axis_value']} "
        print(f"failed: {where}{r['variant']} seed {r['seed']}: {r['error']}")
    return 1 if failed else 0


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_features(args.dataset)
    embedder = load_checkpoint(args.checkpoint)
    recall = evaluate(embedder, dataset, _parse_int_tuple(args.recall_ks))
    for k, v in sorted(recall.items()):
        print(f"r_at_{k},{v:.6f}")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = SyntheticConfig(**{f.name: getattr(args, f.name) for f in fields(SyntheticConfig)})
    dataset = generate_synthetic(cfg)
    if args.dtype == "f4":
        dataset = FeatureDataset(
            features=dataset.features.astype(np.float32),
            labels=dataset.labels,
            splits=dataset.splits,
        )
    save_features(dataset, args.out)
    print(
        f"wrote {dataset.n} rows ({cfg.train_classes} train + {cfg.val_classes} val classes, "
        f"dim {cfg.input_dim}) to {args.out}"
    )
    return 0


def _run_flags() -> argparse.ArgumentParser:
    """The flags train, sweep and drift share, for their parsers' parents=."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--dataset", help="XBNF feature file")
    p.add_argument("--out", help=f"output root (default ${OUT_ENV_VAR} or ./runs)")
    defaults = TrainConfig()
    for key, (path, _) in _SETTINGS.items():
        default = reduce(getattr, path.split("."), defaults)
        text = f"TrainConfig.{path}, default {'unset' if default is None else _format(default)}"
        if key == "probe_drift":
            p.add_argument("--no-drift", dest=key, action="store_const", const="false", help=text)
        else:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossbatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = [_run_flags()]

    p_train = sub.add_parser("train", parents=run_flags, help="one training run")
    p_train.add_argument("--variant", help=f"one of {', '.join(VARIANTS)}; ema is spelled ema:M")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", parents=run_flags,
                             help="grid of runs over one axis x variants x seeds")
    axes = [k.replace("_", "-") for k, (_, parse) in _SETTINGS.items()
            if parse in (int, float) and k != "seed"]
    p_sweep.add_argument("--axis", required=True, choices=axes, help="the scalar setting to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--variants", required=True, help="comma-separated variant names")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes, at most one per run and per CPU")
    p_sweep.set_defaults(func=cmd_sweep)

    p_drift = sub.add_parser("drift", parents=run_flags,
                             help="per-epoch drift curves: the sweep without an axis")
    p_drift.add_argument("--variants", required=True, help="comma-separated variant names")
    p_drift.set_defaults(func=cmd_sweep, axis=None, values=None, seeds=None, workers=1)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--recall-ks", dest="recall_ks", default=_format(TrainConfig().recall_ks))
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic clustered dataset")
    p_gen.add_argument("--out", required=True)
    for f in fields(SyntheticConfig):
        p_gen.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                           default=f.default, help=f"SyntheticConfig.{f.name}, default {f.default}")
    p_gen.add_argument("--dtype", choices=["f4", "f8"], default="f8")
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CrossbatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
