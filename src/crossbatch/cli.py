"""Experiment command line: train, sweep, eval, gen-data.

Configuration comes from a flat key=value file plus flag overrides (flags
win); the keys, and the flags spelled with dashes, are TrainConfig's fields.
Every run echoes its fully resolved config into its output directory.
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
from dataclasses import fields, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from .data import FeatureDataset, SyntheticConfig, generate_synthetic, load_features, save_features
from .embedder import load_checkpoint, save_checkpoint
from .errors import CrossbatchError, InvalidConfig
from .retrieval import available_cpus
from .training import (KALMAN_SETTINGS, VARIANTS, EpochRecord, IterationRecord, MethodVariant,
                       TrainConfig, TrainingRun, TrainResult, evaluate)

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


# Every training setting: a TrainConfig field, its config-file key (the flag
# is the key with dashes) and the parser its default's type picks. Defaults are
# TrainConfig()'s.
_SETTINGS = {
    f.name: {tuple: _parse_int_tuple, bool: _parse_bool}.get(type(f.default), type(f.default))
    for f in fields(TrainConfig)
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
    parse = _SETTINGS[key]
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
    return TrainConfig(**{k: settings[k] for k in _SETTINGS if settings.get(k) is not None})


def _applies(key: str, variant: MethodVariant) -> bool:
    """KALMAN_SETTINGS apply only to variants whose filter is the kalman filter."""
    return key not in KALMAN_SETTINGS or variant.stats_filter == "kalman"


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
    for key in _SETTINGS:
        if _applies(key, variant):
            values[key] = _format(getattr(config, key))
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    if _parse_config(text, "config.txt") != values:
        raise InvalidConfig(f"dataset path {dataset!r} cannot be written to a config file")
    return text


def write_metrics(f, record: IterationRecord | EpochRecord) -> None:
    """Write record to f as one line of metrics.jsonl, typed by its class."""
    kind = "iteration" if isinstance(record, IterationRecord) else "epoch"
    # vars(): the fields in order, without asdict()'s deep copy
    f.write(json.dumps({"type": kind, **vars(record)}) + "\n")


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


def _recall_columns(result: TrainResult, config: TrainConfig) -> dict:
    return {f"r_at_{k}": result.best_recall.get(k, "") for k in config.recall_ks}


def _run_one(config: TrainConfig, variant: MethodVariant, dataset_path,
             dataset: FeatureDataset, out_dir: Path) -> TrainResult:
    # a run rejected by its trainer or its config file leaves no run directory behind
    trainer = TrainingRun(config, dataset, variant)
    config_text = _config_text(config, variant, dataset_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(config_text)
    with open(out_dir / "metrics.jsonl", "w", buffering=1) as f:  # each line reaches disk whole
        result = trainer.run(partial(write_metrics, f))
    _write_csv(
        out_dir / "summary.csv",
        ["variant", "seed", "best_epoch"] + [f"r_at_{k}" for k in config.recall_ks],
        [{"variant": str(variant), "seed": config.seed, "best_epoch": result.best_epoch,
          **_recall_columns(result, config)}],
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
    print(f"{variant} seed {config.seed}: best epoch {result.best_epoch}, {best}")
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
    return {**row, **_recall_columns(result, config)}


def _distinct(flag: str, items: list) -> None:
    """Reject a grid list that names an entry twice: both cells would share one directory."""
    repeated = [item for i, item in enumerate(items) if item in items[:i]]
    if repeated:
        raise InvalidConfig(f"{flag} lists {repeated[0]} more than once")


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the grid of axis values x variants x seeds; without --axis, of variants x seeds."""
    if args.workers < 1:
        raise InvalidConfig(f"--workers must be >= 1, got {args.workers}")
    if (args.axis is None) != (args.values is None):
        raise InvalidConfig("--axis and --values are given together or not at all")
    settings = resolve_settings(args)
    _load_dataset(settings)  # fail fast on a bad path before launching workers
    # from the settings, not a built config: a base value that is invalid fails
    # only the cells that keep it, and none if the axis overrides it
    seed, ks = (getattr(TrainConfig(), k) if settings[k] is None else settings[k]
                for k in ("seed", "recall_ks"))
    key = args.axis.replace("-", "_") if args.axis else None
    values = [None] if key is None else [_coerce(key, v) for v in args.values.split(",")]
    seeds = [seed] if args.seeds is None else [
        _coerce("seed", s) for s in args.seeds.split(",")
    ]
    variants = [MethodVariant.parse(name) for name in args.variants.split(",")]
    if not any(variant.stats_filter == "kalman" for variant in variants):  # none reads q/r/p0
        build_variant({**settings, key: values[0], "variant": variants[0].spec})
    _distinct("--values", values)
    _distinct("--variants", [variant.spec for variant in variants])
    _distinct("--seeds", seeds)
    out_root = Path(args.out or default_out_root())

    cells = []
    for value in values:
        # every digit of the value, so distinct values never share a directory
        root = out_root if key is None else (
            out_root / f"{args.axis}-{np.format_float_positional(value, trim='-')}"
        )
        for variant in variants:
            for seed in seeds:
                cell = {**settings, key: value, "seed": seed}  # key None is ignored
                cells.append({"settings": cell, "variant": variant, "axis": args.axis,
                              "axis_value": value, "out_dir": str(_run_dir(root, variant, seed))})

    workers = min(args.workers, len(cells), available_cpus())
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
    for start in range(0, len(rows), len(seeds)):  # the seeds of one (value, variant) cell
        group = rows[start : start + len(seeds)]
        ok = [r for r in group if r["status"] == "ok"]
        agg = {f: group[0][f] for f in ("axis", "axis_value", "variant")}
        agg["n_seeds"] = len(ok)
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
        dataset = replace(dataset, features=dataset.features.astype(np.float32))
    save_features(dataset, args.out)
    print(
        f"wrote {dataset.n} rows ({cfg.train_classes} train + {cfg.val_classes} val classes, "
        f"dim {cfg.input_dim}) to {args.out}"
    )
    return 0


def _run_flags() -> argparse.ArgumentParser:
    """The flags train and sweep share, as a parent parser their subparsers copy."""
    # a parent never prints help: a fixed width skips a terminal-size lookup per flag
    p = argparse.ArgumentParser(
        add_help=False, formatter_class=lambda prog: argparse.HelpFormatter(prog, width=80))
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--dataset", help="XBNF feature file")
    p.add_argument("--out", help=f"output root (default ${OUT_ENV_VAR} or ./runs)")
    for key in _SETTINGS:
        text = f"TrainConfig.{key}, default {_format(getattr(TrainConfig, key))}"
        if key == "probe_drift":
            p.add_argument("--no-drift", dest=key, action="store_const", const="false", help=text)
        else:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
    return p


def _add_train(sub, run_flags) -> None:
    p = sub.add_parser("train", help="one training run", parents=[run_flags()])
    p.add_argument("--variant", help=f"one of {', '.join(VARIANTS)}; ema is spelled ema:M")
    p.set_defaults(func=cmd_train)


def _add_sweep(sub, run_flags) -> None:
    p = sub.add_parser("sweep", help="grid of runs over an optional axis x variants x seeds",
                       parents=[run_flags()])
    axes = [k.replace("_", "-") for k, parse in _SETTINGS.items()
            if parse in (int, float) and k != "seed"]
    p.add_argument("--axis", choices=axes, help="the scalar setting to vary, with --values")
    p.add_argument("--values", help="comma-separated axis values")
    p.add_argument("--variants", required=True, help="comma-separated variant names")
    p.add_argument("--seeds", help="comma-separated seeds (default the seed setting)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per run and per CPU")
    p.set_defaults(func=cmd_sweep)


def _add_eval(sub, run_flags) -> None:
    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--recall-ks", dest="recall_ks", default=_format(TrainConfig().recall_ks))
    p.set_defaults(func=cmd_eval)


def _add_gen_data(sub, run_flags) -> None:
    p = sub.add_parser("gen-data", help="generate a synthetic clustered dataset")
    p.add_argument("--out", required=True)
    for f in fields(SyntheticConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                       default=f.default, help=f"SyntheticConfig.{f.name}, default {f.default}")
    p.add_argument("--dtype", choices=["f4", "f8"], default="f8")
    p.set_defaults(func=cmd_gen_data)


_COMMANDS = {  # each command's subparser builder, in the order the help lists them
    "train": _add_train, "sweep": _add_sweep, "eval": _add_eval, "gen-data": _add_gen_data,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one given, whose usage still lists them all."""
    parser = argparse.ArgumentParser(prog="crossbatch", description=__doc__)
    # only then: a metavar would also rename the argument "command" in the full parser's errors
    listed = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    run_flags = cache(_run_flags)  # built at most once, and only for a run command
    for name in [command] if command else _COMMANDS:
        _COMMANDS[name](sub, run_flags)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv  # only the command that runs gets a parser
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (CrossbatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
