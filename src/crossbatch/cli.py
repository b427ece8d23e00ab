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
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np

from .data import FeatureDataset, SyntheticConfig, generate_synthetic, load_features, save_features
from .embedder import load_checkpoint, save_checkpoint
from .errors import CrossbatchError, InvalidConfig
from .moments import EmbeddingBatch
from .retrieval import RetrievalProtocol, recall_at_k
from .training import VARIANTS, MethodVariant, TrainConfig, TrainResult, run_training

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
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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


def _for_variant(settings: dict, variant: MethodVariant) -> dict:
    """One variant's copy of settings shared by several runs.

    Mixed-variant grids share one flag set; filter knobs passed for the
    adaptive variant must not invalidate the others' runs.
    """
    cell = {k: None if k in _SETTINGS and not _applies(k, variant) else v
            for k, v in settings.items()}
    cell["variant"] = variant.spec
    return cell


def _run_dir(root: Path, variant: MethodVariant, settings: dict) -> Path:
    """<root>/<variant>/<seed>, the output directory of every training run."""
    return root / str(variant) / str(build_train_config(settings).seed)


def _echo_config(config: TrainConfig, variant: MethodVariant, dataset, path: Path) -> None:
    """The resolved settings, as a config file that replays the run."""
    lines = [f"variant = {variant.spec}", f"dataset = {dataset}"]
    for key, (attr_path, _) in _SETTINGS.items():
        value = reduce(getattr, attr_path.split("."), config)
        if value is not None and _applies(key, variant):
            lines.append(f"{key} = {_format(value)}")
    path.write_text("\n".join(lines) + "\n")


def write_metrics(result: TrainResult, path: Path) -> None:
    with open(path, "w") as f:
        for record in result.iterations:
            f.write(json.dumps(record.to_dict()) + "\n")
        for record in result.epoch_records:
            f.write(json.dumps(record.to_dict()) + "\n")


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


def _run_one(settings: dict, dataset: FeatureDataset, out_dir: Path) -> TrainResult:
    config = build_train_config(settings)
    variant = build_variant(settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, variant, settings["dataset"], out_dir / "config.txt")
    result = run_training(config, dataset, variant)
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
    out_dir = _run_dir(Path(args.out or default_out_root()), variant, settings)
    result = _run_one(settings, dataset, out_dir)
    best = ", ".join(f"R@{k}={v:.4f}" for k, v in sorted(result.best_recall.items()))
    print(f"{variant} seed {result.config.seed}: best epoch {result.best_epoch}, {best}")
    print(f"outputs in {out_dir}")
    return 0


def _sweep_cell(payload: dict) -> dict:
    """One sweep run; returns a row dict. Top-level so process pools can pickle it.

    A package error or an OSError (unreadable dataset, unwritable out dir)
    fails this cell only; it is recorded in the row, never raised.
    """
    settings = payload["settings"]
    row = {
        "axis": payload["axis"],
        "axis_value": payload["axis_value"],
        "variant": settings["variant"],
        "seed": settings["seed"],
        "status": "ok",
        "error": "",
    }
    try:
        dataset = load_features(settings["dataset"])
        result = _run_one(settings, dataset, Path(payload["out_dir"]))
    except (CrossbatchError, OSError) as exc:
        row["status"] = "failed"
        row["error"] = str(exc)
        return row
    for k in result.config.recall_ks:
        row[f"r_at_{k}"] = result.best_recall.get(k, "")
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    _load_dataset(settings)  # fail fast on a bad path before launching workers
    axis_key = args.axis.replace("-", "_")
    if axis_key not in ("batch_size", "memory_fraction"):
        raise InvalidConfig(f"sweep axis must be batch-size or memory-fraction, got {args.axis!r}")
    try:
        values = [
            int(v) if axis_key == "batch_size" else float(v) for v in args.values.split(",")
        ]
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise InvalidConfig(
            f"sweep values and seeds must be numeric, got {args.values!r} / {args.seeds!r}"
        ) from None
    variants = [MethodVariant.parse(name) for name in args.variants.split(",")]
    if not values or not variants or not seeds:
        raise InvalidConfig("sweep needs at least one value, variant, and seed")
    out_root = Path(args.out or default_out_root())
    ks = build_train_config(settings).recall_ks

    cells = []
    for value in values:
        for variant in variants:
            for seed in seeds:
                cell = _for_variant(settings, variant)
                cell[axis_key] = value
                if axis_key == "memory_fraction":
                    cell["memory_capacity"] = None  # the swept fraction must win
                cell["seed"] = seed
                out_dir = _run_dir(out_root / f"{args.axis}-{value:g}", variant, cell)
                cells.append(
                    {"settings": cell, "axis": args.axis, "axis_value": value, "out_dir": str(out_dir)}
                )

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    run_fields = ["axis", "axis_value", "variant", "seed", "status", "error"] + [
        f"r_at_{k}" for k in ks
    ]
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

    failed = [r for r in rows if r["status"] != "ok"]
    print(f"sweep complete: {len(rows) - len(failed)}/{len(rows)} runs ok")
    print(f"tables in {out_root / 'sweep_runs.csv'} and {out_root / 'sweep_summary.csv'}")
    for r in failed:
        print(f"failed: {r['axis']}={r['axis_value']} {r['variant']} seed {r['seed']}: {r['error']}")
    return 1 if failed else 0


def cmd_drift(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    settings["probe_drift"] = True
    dataset = _load_dataset(settings)
    out_root = Path(args.out or default_out_root())
    rows = []
    for variant in [MethodVariant.parse(name) for name in args.variants.split(",")]:
        cell = _for_variant(settings, variant)
        result = _run_one(cell, dataset, _run_dir(out_root, variant, cell))
        for record in result.epoch_records:
            rows.append(
                {
                    "epoch": record.epoch,
                    "variant": variant.spec,
                    "mean_drift": record.mean_drift,
                    "max_drift": record.max_drift,
                    "val_r_at_1": record.recall.get(1, ""),
                }
            )
    path = out_root / "drift.csv"
    _write_csv(path, ["epoch", "variant", "mean_drift", "max_drift", "val_r_at_1"], rows)
    print(f"drift table in {path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_features(args.dataset)
    embedder = load_checkpoint(args.checkpoint)
    ks = _parse_int_tuple(args.recall_ks)
    from .data import TAG_VAL_GALLERY, TAG_VAL_QUERY

    q_rows = dataset.rows(TAG_VAL_QUERY)
    if len(q_rows) == 0:
        raise InvalidConfig("dataset has no validation query rows")
    queries = EmbeddingBatch(
        vectors=embedder.embed(dataset.features[q_rows]), labels=dataset.labels[q_rows]
    )
    if dataset.single_set:
        recall = recall_at_k(queries, queries, RetrievalProtocol("single", ks))
    else:
        g_rows = dataset.rows(TAG_VAL_GALLERY)
        gallery = EmbeddingBatch(
            vectors=embedder.embed(dataset.features[g_rows]), labels=dataset.labels[g_rows]
        )
        recall = recall_at_k(queries, gallery, RetrievalProtocol("query-gallery", ks))
    for k, v in sorted(recall.items()):
        print(f"r_at_{k},{v:.6f}")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = SyntheticConfig(
        train_classes=args.train_classes,
        val_classes=args.val_classes,
        samples_per_class=args.samples_per_class,
        input_dim=args.input_dim,
        cluster_std=args.cluster_std,
        center_scale=args.center_scale,
        seed=args.seed,
        protocol=args.protocol,
    )
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


def _add_run_flags(p: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossbatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="one training run")
    _add_run_flags(p_train)
    p_train.add_argument("--variant", help=f"one of {', '.join(VARIANTS)}; ema is spelled ema:M")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid of runs over one axis x variants x seeds")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=["batch-size", "memory-fraction"])
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--variants", required=True, help="comma-separated variant names")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_drift = sub.add_parser("drift", help="per-epoch drift curves for several variants")
    _add_run_flags(p_drift)
    p_drift.add_argument("--variants", required=True, help="comma-separated variant names")
    p_drift.set_defaults(func=cmd_drift)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--recall-ks", dest="recall_ks", default=_format(TrainConfig().recall_ks))
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic clustered dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--train-classes", dest="train_classes", type=int, default=100)
    p_gen.add_argument("--val-classes", dest="val_classes", type=int, default=40)
    p_gen.add_argument("--samples-per-class", dest="samples_per_class", type=int, default=20)
    p_gen.add_argument("--input-dim", dest="input_dim", type=int, default=32)
    p_gen.add_argument("--cluster-std", dest="cluster_std", type=float, default=1.0)
    p_gen.add_argument("--center-scale", dest="center_scale", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--protocol", choices=["single", "query-gallery"], default="single")
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
