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
from pathlib import Path

import numpy as np

from .data import FeatureDataset, SyntheticConfig, generate_synthetic, load_features, save_features
from .embedder import OptimizerConfig, load_checkpoint, save_checkpoint
from .errors import CrossbatchError, InvalidConfig
from .kalman import KalmanConfig
from .losses import PairMinerConfig
from .moments import EmbeddingBatch
from .retrieval import RetrievalProtocol, recall_at_k
from .training import MethodVariant, TrainConfig, TrainResult, run_training

__all__ = ["main", "entrypoint", "read_metrics", "read_csv_rows"]

OUT_ENV_VAR = "CROSSBATCH_OUT"

# Keys accepted in config files and as flags. Kalman keys apply to axbn only,
# momentum to ema only; validation rejects anything else.
_KALMAN_KEYS = ("q", "p0", "r", "gain_interval")
_TRAIN_KEYS = (
    "batch_size",
    "samples_per_class",
    "memory_fraction",
    "memory_capacity",
    "epochs",
    "warmup_epochs",
    "hidden_dims",
    "embed_dim",
    "lr",
    "weight_decay",
    "schedule_gamma",
    "schedule_every",
    "warmup_lr",
    "pos_margin",
    "neg_margin",
    "recall_ks",
    "probe_drift",
    "momentum",
) + _KALMAN_KEYS


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
        if key not in _TRAIN_KEYS + ("variant", "seed", "dataset"):
            raise InvalidConfig(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidConfig(f"expected comma-separated integers, got {text!r}") from None


def resolve_settings(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win) into one flat dict."""
    settings: dict = {
        "batch_size": 16,
        "samples_per_class": 4,
        "memory_fraction": 0.5,
        "memory_capacity": None,
        "epochs": 25,
        "warmup_epochs": 2,
        "hidden_dims": "64,32",
        "embed_dim": 16,
        "lr": 1e-3,
        "weight_decay": 0.0,
        "schedule_gamma": 0.33,
        "schedule_every": 15,
        "warmup_lr": 1e-3,
        "pos_margin": 0.2,
        "neg_margin": 0.8,
        "recall_ks": "1,10",
        "probe_drift": True,
        "momentum": None,
        "q": None,
        "p0": None,
        "r": None,
        "gain_interval": None,
        "variant": None,
        "seed": 0,
        "dataset": None,
    }
    filled_by_flag: set[str] = set()
    if getattr(args, "config", None):
        file_values = read_config_file(args.config)
        for key, text in file_values.items():
            settings[key] = _coerce(key, text)
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
            filled_by_flag.add(key)
    settings["_flagged"] = filled_by_flag
    return settings


def _coerce(key: str, text: str):
    if key in ("hidden_dims", "recall_ks", "variant", "dataset"):
        return text
    if key == "probe_drift":
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise InvalidConfig(f"{key} must be a boolean, got {text!r}")
    try:
        if key in ("batch_size", "samples_per_class", "epochs", "warmup_epochs", "embed_dim",
                   "schedule_every", "gain_interval", "memory_capacity", "seed"):
            return int(text)
        return float(text)
    except ValueError:
        raise InvalidConfig(f"{key} must be numeric, got {text!r}") from None


def build_train_config(settings: dict) -> TrainConfig:
    kalman_kwargs = {}
    for key, name in (("q", "q"), ("p0", "p0"), ("r", "r"), ("gain_interval", "gain_interval")):
        if settings.get(key) is not None:
            kalman_kwargs[name] = settings[key]
    return TrainConfig(
        batch_size=int(settings["batch_size"]),
        samples_per_class=int(settings["samples_per_class"]),
        memory_fraction=settings["memory_fraction"],
        memory_capacity=settings["memory_capacity"],
        epochs=int(settings["epochs"]),
        warmup_epochs=int(settings["warmup_epochs"]),
        hidden_dims=_parse_int_tuple(str(settings["hidden_dims"])),
        embed_dim=int(settings["embed_dim"]),
        warmup_optimizer=OptimizerConfig(kind="sgd", learning_rate=float(settings["warmup_lr"])),
        main_optimizer=OptimizerConfig(
            kind="adamw",
            learning_rate=float(settings["lr"]),
            weight_decay=float(settings["weight_decay"]),
            schedule_gamma=float(settings["schedule_gamma"]),
            schedule_every=int(settings["schedule_every"]),
        ),
        kalman=KalmanConfig(**kalman_kwargs),
        miner=PairMinerConfig(
            pos_margin=float(settings["pos_margin"]), neg_margin=float(settings["neg_margin"])
        ),
        probe_drift=bool(settings["probe_drift"]),
        recall_ks=_parse_int_tuple(str(settings["recall_ks"])),
        seed=int(settings["seed"]),
    )


def build_variant(settings: dict) -> MethodVariant:
    name = settings.get("variant")
    if not name:
        raise InvalidConfig("no variant selected (use --variant)")
    kalman_flags = [k for k in _KALMAN_KEYS if settings.get(k) is not None]
    if name != "axbn" and kalman_flags:
        raise InvalidConfig(
            f"{', '.join(kalman_flags)} appl{'ies' if len(kalman_flags) == 1 else 'y'} "
            f"only to the axbn variant, not {name!r}"
        )
    if name != "ema" and settings.get("momentum") is not None:
        raise InvalidConfig(f"momentum applies only to the ema variant, not {name!r}")
    if name == "ema":
        momentum = settings.get("momentum")
        if momentum is None:
            raise InvalidConfig("the ema variant requires --momentum")
        return MethodVariant("ema", momentum=float(momentum))
    return MethodVariant.parse(name)


def _echo_config(settings: dict, config: TrainConfig, variant: MethodVariant, path: Path) -> None:
    lines = [f"variant = {variant}"]
    for key in sorted(k for k in settings if not k.startswith("_") and k != "variant"):
        value = settings[key]
        if value is None:
            continue
        lines.append(f"{key} = {value}")
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


def _scrub_variant_keys(cell: dict) -> None:
    """Drop variant-specific keys that do not apply to this cell's variant.

    Mixed-variant grids share one flag set; filter knobs passed for the
    adaptive variant must not invalidate the others' cells.
    """
    kind = str(cell.get("variant") or "").split(":", 1)[0]
    if kind != "axbn":
        for key in _KALMAN_KEYS:
            cell[key] = None
    if kind != "ema":
        cell["momentum"] = None


def _run_one(settings: dict, dataset: FeatureDataset, out_dir: Path) -> TrainResult:
    config = build_train_config(settings)
    variant = build_variant(settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(settings, config, variant, out_dir / "config.txt")
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
    out_dir = Path(args.out or default_out_root()) / str(variant) / str(settings["seed"])
    result = _run_one(settings, dataset, out_dir)
    best = ", ".join(f"R@{k}={v:.4f}" for k, v in sorted(result.best_recall.items()))
    print(f"{variant} seed {settings['seed']}: best epoch {result.best_epoch}, {best}")
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
    variants = args.variants.split(",")
    if not values or not variants or not seeds:
        raise InvalidConfig("sweep needs at least one value, variant, and seed")
    out_root = Path(args.out or default_out_root())
    ks = _parse_int_tuple(str(settings["recall_ks"]))

    cells = []
    for value in values:
        for variant in variants:
            for seed in seeds:
                cell = dict(settings)
                cell.pop("_flagged", None)
                cell[axis_key] = value
                if axis_key == "memory_fraction":
                    cell["memory_capacity"] = None  # the swept fraction must win
                cell["variant"] = variant
                cell["seed"] = seed
                _scrub_variant_keys(cell)
                cells.append(
                    {
                        "settings": cell,
                        "axis": args.axis,
                        "axis_value": value,
                        "out_dir": str(out_root / f"{args.axis}-{value:g}" / variant / str(seed)),
                    }
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
                if r["axis_value"] == value and r["variant"] == variant and r["status"] == "ok"
            ]
            agg = {"axis": args.axis, "axis_value": value, "variant": variant, "n_seeds": len(ok)}
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
    for name in args.variants.split(","):
        cell = dict(settings)
        cell["variant"] = name
        _scrub_variant_keys(cell)
        result = _run_one(cell, dataset, out_root / name / str(settings["seed"]))
        for record in result.epoch_records:
            rows.append(
                {
                    "epoch": record.epoch,
                    "variant": name,
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
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int)
    p.add_argument("--memory-fraction", dest="memory_fraction", type=float)
    p.add_argument("--memory-capacity", dest="memory_capacity", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    p.add_argument("--hidden-dims", dest="hidden_dims", help="comma-separated, e.g. 64,32")
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup-lr", dest="warmup_lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--schedule-gamma", dest="schedule_gamma", type=float)
    p.add_argument("--schedule-every", dest="schedule_every", type=int)
    p.add_argument("--pos-margin", dest="pos_margin", type=float)
    p.add_argument("--neg-margin", dest="neg_margin", type=float)
    p.add_argument("--recall-ks", dest="recall_ks", help="comma-separated, e.g. 1,10")
    p.add_argument("--no-drift", dest="probe_drift", action="store_const", const=False)
    p.add_argument("--q", type=float, help="process noise (axbn only)")
    p.add_argument("--p0", type=float, help="initial estimation variance (axbn only)")
    p.add_argument("--r", type=float, help="base measurement noise (axbn only)")
    p.add_argument("--gain-interval", dest="gain_interval", type=int,
                   help="steps between gain updates (axbn only)")
    p.add_argument("--momentum", type=float, help="ema momentum (ema only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossbatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="one training run")
    _add_run_flags(p_train)
    p_train.add_argument("--variant", required=False)
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
    p_eval.add_argument("--recall-ks", dest="recall_ks", default="1,10")
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
