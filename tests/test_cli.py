import concurrent.futures
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from crossbatch import (
    InvalidConfig,
    MethodVariant,
    SyntheticConfig,
    TrainConfig,
    cli,
    evaluate,
    load_checkpoint,
    load_features,
)
from crossbatch.cli import (
    OUT_ENV_VAR,
    _parse_int_tuple,
    build_parser,
    build_train_config,
    default_out_root,
    main,
    read_config_file,
    read_csv_rows,
    read_metrics,
    resolve_settings,
)

# small but non-degenerate: 6 train + 3 val classes, 6 rows each, dim 8
GEN_FLAGS = [
    "--train-classes", "6", "--val-classes", "3",
    "--samples-per-class", "6", "--input-dim", "8", "--seed", "3",
]
# fast training geometry shared by most tests below
FAST = [
    "--batch-size", "6", "--samples-per-class", "2",
    "--epochs", "2", "--warmup-epochs", "1",
    "--hidden-dims", "12", "--embed-dim", "6", "--recall-ks", "1,5",
]


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.xbnf"
    assert main(["gen-data", "--out", str(path), *GEN_FLAGS]) == 0
    return path


# TrainConfig's fields: the config keys, and in this order the run flags
SETTINGS = [
    "batch_size", "samples_per_class", "memory_fraction", "epochs", "warmup_epochs",
    "hidden_dims", "embed_dim", "lr", "weight_decay", "schedule_gamma", "schedule_every",
    "warmup_lr", "pos_margin", "neg_margin", "recall_ks", "probe_drift", "seed", "q", "p0", "r",
]


def train_argv(data_file, out_dir, *extra):
    return [
        "train", "--dataset", str(data_file), "--out", str(out_dir), *FAST, *extra
    ]


class TestConfigFile:
    def test_parse_with_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# experiment defaults\n"
            "\n"
            "epochs = 5   # short run\n"
            "variant=xbn\n"
            "lr = 2e-4\n"
            "dataset = /data/hash#dir/d.xbnf\t# a '#' inside a value is kept\n"
            "#seed = 3\n"
        )
        values = read_config_file(p)
        assert values == {
            "epochs": "5", "variant": "xbn", "lr": "2e-4", "dataset": "/data/hash#dir/d.xbnf"
        }

    # gain_interval was a filter setting; old axbn config.txt files hold it
    @pytest.mark.parametrize("key", ["bogus", "gain_interval"])
    def test_unknown_key_cites_line(self, tmp_path, key):
        p = tmp_path / "run.cfg"
        p.write_text(f"epochs = 5\n{key} = 1\n")
        with pytest.raises(InvalidConfig, match=rf"run\.cfg:2.*{key}"):
            read_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs\n")
        with pytest.raises(InvalidConfig, match="key=value"):
            read_config_file(p)

    @pytest.mark.parametrize("line,needle", [
        ("lr = fast", "lr must be numeric, got 'fast'"),
        ("probe_drift = maybe", "probe_drift must be a boolean, got 'maybe'"),
    ])
    def test_unparsable_value_exits_cleanly(self, tmp_path, data_file, capsys, line, needle):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n")
        code = main(train_argv(data_file, tmp_path / "out", "--variant", "xbn",
                               "--config", str(p)))
        assert code == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # config.txt files written while gain_interval was a setting hold it after r,
    # and those of a run sized by memory_capacity hold it after memory_fraction
    @pytest.mark.parametrize("variant,after,key", [
        ("axbn", "r", "gain_interval"),
        ("xbm", "memory_fraction", "memory_capacity"),
    ])
    def test_old_config_exits_at_removed_key_line(self, tmp_path, data_file, capsys,
                                                  variant, after, key):
        assert main(train_argv(data_file, tmp_path / "a", "--variant", variant)) == 0
        lines = (tmp_path / "a" / variant / "0" / "config.txt").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{after} = ")) + 1
        old = tmp_path / "config.txt"
        old.write_text("\n".join([*lines[:at], f"{key} = 12", *lines[at:]]) + "\n")
        capsys.readouterr()
        code = main(["train", "--config", str(old), "--out", str(tmp_path / "b")])
        assert code == 2
        assert f"config.txt:{at + 1}: unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_flags_beat_config_file(self, tmp_path, data_file):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 9\nvariant = xbn\nseed = 7\n")
        out = tmp_path / "out"
        code = main(
            ["train", "--dataset", str(data_file), "--out", str(out),
             *FAST, "--config", str(p)]  # FAST carries --epochs 2
        )
        assert code == 0
        echoed = (out / "xbn" / "7" / "config.txt").read_text()
        assert "epochs = 2" in echoed  # flag beat the file value 9
        assert echoed.splitlines()[0] == "variant = xbn"
        assert "seed = 7" in echoed  # file value stands, no flag given


class TestSettingsTable:
    def test_defaults_are_train_config(self):
        args = build_parser().parse_args(["train"])
        assert build_train_config(resolve_settings(args)) == TrainConfig()

    def test_defaults_have_the_annotated_type(self):
        # the settings table picks each parser by the type of the field's default
        hints = typing.get_type_hints(TrainConfig)
        assert list(cli._SETTINGS) == SETTINGS
        for f in dataclasses.fields(TrainConfig):
            hint = hints[f.name]
            assert hint in (int, float, bool, tuple[int, ...]), f.name
            assert type(f.default) is (typing.get_origin(hint) or hint), f.name
            if hint == tuple[int, ...]:
                assert all(type(v) is int for v in f.default), f.name

    def test_every_setting_round_trips_through_config_txt(self, tmp_path):
        config = TrainConfig(
            batch_size=12, samples_per_class=3, memory_fraction=0.25, epochs=3,
            warmup_epochs=1, hidden_dims=(8, 4), embed_dim=5, lr=3e-3, weight_decay=0.01,
            schedule_gamma=0.5, schedule_every=2, warmup_lr=0.02, pos_margin=0.1,
            neg_margin=0.9, recall_ks=(1, 2, 4), probe_drift=False, seed=9, q=2.0, p0=0.5,
            r=0.125,
        )
        assert all(getattr(config, f.name) != f.default for f in dataclasses.fields(config))
        path = tmp_path / "config.txt"
        path.write_text(cli._config_text(config, MethodVariant("axbn"), tmp_path / "d.xbnf"))
        args = build_parser().parse_args(["train", "--config", str(path)])
        assert build_train_config(resolve_settings(args)) == config

    def test_help_lists_every_setting(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        text = capsys.readouterr().out
        flags = ["--no-drift" if key == "probe_drift" else "--" + key.replace("_", "-")
                 for key in SETTINGS]
        at = [text.index(f"\n  {flag} ") for flag in flags]  # the flag's line of the listing
        assert at == sorted(at)
        for key in SETTINGS:
            assert f"TrainConfig.{key}, default " in text, key

    def test_train_and_sweep_share_the_run_flags(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        run_flags = {"--config", "--dataset", "--out"} | {
            "--no-drift" if key == "probe_drift" else "--" + key.replace("_", "-")
            for key in cli._SETTINGS
        }
        own = {
            "train": {"--variant"},
            "sweep": {"--axis", "--values", "--variants", "--seeds", "--workers"},
        }
        for name, extra in own.items():
            parser = sub.choices[name]
            flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == run_flags | extra, name

    def test_momentum_flag_removed(self, tmp_path, data_file):
        with pytest.raises(SystemExit) as exc:  # ema takes its momentum as ema:M
            main(train_argv(data_file, tmp_path, "--variant", "ema:0.3", "--momentum", "0.5"))
        assert exc.value.code == 2

    # the filter recomputes its gain every step, and --memory-fraction alone sizes the bank
    @pytest.mark.parametrize("variant,flag", [
        ("axbn", "--gain-interval"), ("xbm", "--memory-capacity"),
    ])
    def test_removed_flag_exits_2(self, tmp_path, data_file, capsys, variant, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        assert flag not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(train_argv(data_file, tmp_path, "--variant", variant, flag, "12"))
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "variant,extra",
        [
            ("no-xbm", ()),
            ("xbm", ("--memory-fraction", "0.34")),  # 12 of the 36 train rows
            ("xbm-star", ()),
            ("xbn", ("--no-drift",)),
            ("axbn", ("--r", "0.02")),
            ("ema:0.3", ()),
        ],
    )
    def test_echoed_config_replays_the_run(self, tmp_path, data_file, variant, extra):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(train_argv(data_file, out_a, "--variant", variant, "--seed", "2", *extra)) == 0
        run_a = out_a / str(MethodVariant.parse(variant)) / "2"
        assert main(["train", "--config", str(run_a / "config.txt"), "--out", str(out_b)]) == 0
        run_b = out_b / run_a.relative_to(out_a)
        assert (run_b / "config.txt").read_text() == (run_a / "config.txt").read_text()
        for name in ("checkpoint.xbnc", "metrics.jsonl", "summary.csv"):
            assert (run_b / name).read_bytes() == (run_a / name).read_bytes(), name

    def test_replay_with_hash_in_dataset_path(self, tmp_path, data_file):
        data_dir = tmp_path / "hash#dir"
        data_dir.mkdir()
        data = data_dir / "d.xbnf"
        data.write_bytes(data_file.read_bytes())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(train_argv(data, out_a, "--variant", "xbn")) == 0
        run_a = out_a / "xbn" / "0"
        assert read_config_file(run_a / "config.txt")["dataset"] == str(data)
        assert main(["train", "--config", str(run_a / "config.txt"), "--out", str(out_b)]) == 0
        ckpt = "xbn/0/checkpoint.xbnc"
        assert (out_b / ckpt).read_bytes() == (out_a / ckpt).read_bytes()

    def test_replay_of_relative_dataset_path_from_another_directory(
        self, tmp_path, data_file, monkeypatch
    ):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "d.xbnf").write_bytes(data_file.read_bytes())
        monkeypatch.chdir(sub)
        assert main(train_argv("d.xbnf", "runs", "--variant", "xbn")) == 0
        run_a = sub / "runs" / "xbn" / "0"
        recorded = Path(read_config_file(run_a / "config.txt")["dataset"])
        assert recorded.is_absolute() and recorded.samefile(sub / "d.xbnf")
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", "sub/runs/xbn/0/config.txt", "--out", "b"]) == 0
        ckpt = "xbn/0/checkpoint.xbnc"
        assert (tmp_path / "b" / ckpt).read_bytes() == (run_a / "checkpoint.xbnc").read_bytes()

    def test_unreplayable_dataset_path_rejected(self, tmp_path, data_file, capsys):
        data_dir = tmp_path / "space #dir"  # would read back as a comment
        data_dir.mkdir()
        data = data_dir / "d.xbnf"
        data.write_bytes(data_file.read_bytes())
        assert main(train_argv(data, tmp_path / "out", "--variant", "xbn")) == 2
        assert "cannot be written to a config file" in capsys.readouterr().err
        assert not (tmp_path / "out" / "xbn" / "0" / "config.txt").exists()


def parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits, as --help and usage errors do."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestOneCommandParser:
    """main builds the parser of the command it runs; its text is the full parser's."""

    # per command: its help, an unknown flag (reported with the top-level
    # usage) and an error of the command's own parser
    CASES = {
        "train": (["--help"], ["--bogus"], ["--seed"]),
        "sweep": (["-h"], ["--values", "1", "--bogus"], ["--axis", "seed", "--variants", "xbn"]),
        "eval": (["--help"], ["--checkpoint", "c", "--dataset", "d", "--bogus"], []),
        "gen-data": (["-h"], ["--out", "d", "--bogus"], ["--out", "d", "--dtype", "f2"]),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_same_text_as_the_full_parser(self, command, capsys):
        assert list(self.CASES) == list(cli._COMMANDS)
        for tail, code in zip(self.CASES[command], (0, 2, 2)):
            argv = [command, *tail]
            full = parse_outcome(build_parser().parse_args, argv, capsys)
            one = parse_outcome(build_parser(command).parse_args, argv, capsys)
            assert one == full and full[0] == code, argv
            assert full[1 if code == 0 else 2], argv

    @pytest.mark.parametrize("argv,code", [([], 2), (["bogus"], 2), (["-h"], 0), (["--help"], 0)])
    def test_no_known_command_prints_the_full_parsers_text(self, argv, code, capsys):
        expected = parse_outcome(build_parser().parse_args, argv, capsys)
        assert parse_outcome(main, argv, capsys) == expected
        assert expected[0] == code
        if code:
            assert "{train,sweep,eval,gen-data}" in expected[2]
        else:
            assert "{train,sweep,eval,gen-data}" in expected[1]

    def test_main_builds_only_the_command_it_runs(self, tmp_path, monkeypatch):
        built = []

        def spy(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        assert main(["gen-data", "--out", str(tmp_path / "d.xbnf"), *GEN_FLAGS]) == 0
        assert built == ["gen-data"]
        sub = next(a for a in build_parser("eval")._actions if a.dest == "command")
        assert list(sub.choices) == ["eval"]


class TestParseHelpers:
    def test_parse_int_tuple(self):
        assert _parse_int_tuple("64,32") == (64, 32)
        assert _parse_int_tuple(" 1 ") == (1,)
        assert _parse_int_tuple("") == ()
        with pytest.raises(InvalidConfig):
            _parse_int_tuple("64,abc")

    def test_default_out_root(self, monkeypatch):
        monkeypatch.delenv(OUT_ENV_VAR, raising=False)
        assert str(default_out_root()) == "runs"
        monkeypatch.setenv(OUT_ENV_VAR, "/tmp/elsewhere")
        assert str(default_out_root()) == "/tmp/elsewhere"


class TestTrain:
    def test_outputs_and_metrics(self, tmp_path, data_file, capsys):
        out = tmp_path / "out"
        code = main(train_argv(data_file, out, "--variant", "xbn", "--seed", "1"))
        assert code == 0
        run_dir = out / "xbn" / "1"
        for name in ("config.txt", "metrics.jsonl", "summary.csv", "checkpoint.xbnc"):
            assert (run_dir / name).is_file()

        iterations, epochs = read_metrics(run_dir / "metrics.jsonl")
        assert len(iterations) == 3 * 6  # 3 epochs x ceil(36 / 6) batches
        assert len(epochs) == 3
        assert {r["stage"] for r in iterations} == {"warmup", "main"}

        summary = read_csv_rows(run_dir / "summary.csv")[0]
        assert summary["variant"] == "xbn"
        assert summary["seed"] == "1"
        best = next(e for e in epochs if e["epoch"] == int(summary["best_epoch"]))
        assert float(summary["r_at_1"]) == best["recall"]["1"]
        assert 0.0 <= float(summary["r_at_5"]) <= 1.0

        stdout = capsys.readouterr().out
        assert "best epoch" in stdout and "R@1" in stdout

    def test_each_epoch_writes_its_steps_then_itself(self, tmp_path, data_file):
        out = tmp_path / "out"
        assert main(train_argv(data_file, out, "--variant", "axbn")) == 0
        lines = (out / "axbn" / "0" / "metrics.jsonl").read_text().splitlines()
        order = [(r["type"], r["epoch"]) for r in map(json.loads, lines)]
        assert order == [
            (kind, epoch) for epoch in range(3) for kind in ["iteration"] * 6 + ["epoch"]
        ]

    @staticmethod
    def fail_at_step(monkeypatch, k, fail):
        """Make the k-th training step (0-based) call fail(out) on its loss output."""
        import crossbatch.training as training_module

        loss, steps = training_module.xbm_loss, itertools.count()

        def failing(*args):
            out = loss(*args)
            return fail(out) if next(steps) == k else out

        monkeypatch.setattr(training_module, "xbm_loss", failing)

    @pytest.mark.parametrize("k", [0, 8])
    def test_non_finite_loss_keeps_the_finished_steps(self, tmp_path, data_file, monkeypatch,
                                                      capsys, k):
        nan = float("nan")
        self.fail_at_step(monkeypatch, k, lambda out: dataclasses.replace(out, value=nan))
        out = tmp_path / "out"
        assert main(train_argv(data_file, out, "--variant", "axbn")) == 2
        assert f"non-finite loss (step {k})" in capsys.readouterr().err
        run_dir = out / "axbn" / "0"
        iterations, epochs = read_metrics(run_dir / "metrics.jsonl")
        assert [r["step"] for r in iterations] == list(range(k))
        assert [r["epoch"] for r in epochs] == list(range(k // 6))  # 6 steps an epoch
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.txt", "metrics.jsonl"]

    def test_interrupt_leaves_only_whole_lines(self, tmp_path, data_file, monkeypatch):
        def interrupt(out):
            raise KeyboardInterrupt

        self.fail_at_step(monkeypatch, 10, interrupt)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(train_argv(data_file, out, "--variant", "xbn"))
        text = (out / "xbn" / "0" / "metrics.jsonl").read_text()
        assert text.endswith("\n")
        iterations, epochs = read_metrics(out / "xbn" / "0" / "metrics.jsonl")
        assert (len(iterations), len(epochs)) == (10, 1)

    def test_two_runs_identical(self, tmp_path, data_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(train_argv(data_file, out, "--variant", "axbn")) == 0
        rel = ("axbn", "0")
        a_dir, b_dir = out_a.joinpath(*rel), out_b.joinpath(*rel)
        assert (a_dir / "summary.csv").read_text() == (b_dir / "summary.csv").read_text()
        assert (a_dir / "checkpoint.xbnc").read_bytes() == (b_dir / "checkpoint.xbnc").read_bytes()

    def test_out_env_var(self, tmp_path, data_file, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "envroot"))
        code = main(["train", "--dataset", str(data_file), *FAST, "--variant", "xbm"])
        assert code == 0
        assert (tmp_path / "envroot" / "xbm" / "0" / "summary.csv").is_file()

    def test_ema_directory_carries_momentum(self, tmp_path, data_file):
        out = tmp_path / "out"
        code = main(train_argv(data_file, out, "--variant", "ema:0.3"))
        assert code == 0
        assert (out / "ema0.3" / "0" / "summary.csv").is_file()

    def test_sweep_directory_carries_momentum(self, tmp_path, data_file):
        out = tmp_path / "out"
        code = main(["sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
                     "--axis", "batch-size", "--values", "6",
                     "--variants", "ema:0.3", "--seeds", "0"])
        assert code == 0
        assert (out / "batch-size-6" / "ema0.3" / "0" / "summary.csv").is_file()

    def test_drift_directory_carries_momentum(self, tmp_path, data_file):
        out = tmp_path / "out"
        code = main(["sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
                     "--variants", "ema:0.3"])
        assert code == 0
        assert (out / "ema0.3" / "0" / "summary.csv").is_file()


class TestFlagValidation:
    @pytest.mark.parametrize(
        "extra,needle",
        [
            ((), "no variant selected"),
            (("--variant", "xbn", "--r", "0.5"), "only to the axbn variant"),
            (("--variant", "ema:1.5"), "ema momentum must be in"),
            (("--variant", "ema"), "requires a momentum"),
            (("--variant", "ema:abc"), "bad ema momentum"),
            (("--variant", "banana"), "variant must be one of"),
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, data_file, capsys, extra, needle):
        code = main(train_argv(data_file, tmp_path / "out", *extra))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err

    @pytest.mark.parametrize("extra,needle", [
        # the best epoch is picked by R@1, so training without it is refused
        (("--recall-ks", "5"), "recall_ks must start with 1"),
        # 18 single-set validation rows leave 17 candidates per query
        (("--recall-ks", "1,17"), "k=17 must be < effective gallery size 17"),
        # 7 classes per batch, from a train split of 6
        (("--batch-size", "14"), "need >= 7 distinct classes, dataset has 6"),
        (("--memory-fraction", "1.5"), "memory_fraction must be in [0, 1], got 1.5"),
        # more parameters than numpy can index: refused before anything is allocated
        (("--embed-dim", "10000000000000000000"), "parameters, too many"),
        (("--lr", "0"), "lr must be finite and > 0, got 0.0"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
    ])
    def test_rejected_before_training(self, tmp_path, data_file, capsys, extra, needle):
        out = tmp_path / "out"
        assert main(train_argv(data_file, out, "--variant", "xbn", *extra)) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()  # no run directory, so no config.txt or checkpoint.xbnc

    @pytest.mark.parametrize("extra", [
        ("--variant", "axbn", "--q", "inf"),
        ("--variant", "axbn", "--p0", "inf"),
        ("--variant", "axbn", "--r", "inf"),
        ("--variant", "xbn", "--lr", "inf"),
        ("--variant", "xbn", "--warmup-lr", "inf"),
        ("--variant", "xbn", "--weight-decay", "inf"),
        ("--variant", "xbn", "--weight-decay", "nan"),
    ])
    def test_non_finite_setting_exits_2_without_run_directory(self, tmp_path, data_file,
                                                              capsys, extra):
        out = tmp_path / "out"
        assert main(train_argv(data_file, out, *extra)) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(["train", "--variant", "xbn", "--out", str(tmp_path)])
        assert code == 2
        assert "no dataset" in capsys.readouterr().err

    def test_unreadable_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.xbnf"
        bad.write_bytes(b"not a feature file")
        code = main(["train", "--variant", "xbn", "--dataset", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nonexistent_dataset_path(self, tmp_path, capsys):
        code = main(["train", "--variant", "xbn",
                     "--dataset", str(tmp_path / "nope.xbnf"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.xbnf" in err

    def test_nonexistent_checkpoint_path(self, tmp_path, data_file, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.xbnc"),
                     "--dataset", str(data_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.xbnc" in err

    def test_nonexistent_config_path(self, tmp_path, data_file, capsys):
        code = main(["train", "--variant", "xbn", "--dataset", str(data_file),
                     "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.cfg" in err


class TestSweep:
    def test_tables_and_aggregates(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--axis", "batch-size", "--values", "6,12",
            "--variants", "xbm,axbn", "--seeds", "0,1",
            "--r", "0.02",  # applies to axbn cells; scrubbed for xbm cells
        ])
        assert code == 0
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert len(runs) == 2 * 2 * 2
        assert all(r["status"] == "ok" for r in runs)

        agg = read_csv_rows(out / "sweep_summary.csv")
        assert len(agg) == 4
        for row in agg:
            sel = [
                float(r["r_at_1"])
                for r in runs
                if r["variant"] == row["variant"]
                and r["axis_value"] == row["axis_value"]
                and r["status"] == "ok"
            ]
            assert int(row["n_seeds"]) == len(sel) == 2
            assert float(row["mean_r_at_1"]) == pytest.approx(np.mean(sel), rel=1e-12)
            assert float(row["std_r_at_1"]) == pytest.approx(
                np.std(sel), rel=1e-12, abs=1e-15
            )

    def test_memory_fraction_axis_overrides_the_base_fraction(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--memory-fraction", "0.9",  # the swept fractions win over the base value
            "--axis", "memory-fraction", "--values", "0,0.5",
            "--variants", "xbm", "--seeds", "0",
        ])
        assert code == 0
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert [r["axis_value"] for r in runs] == ["0.0", "0.5"]
        for value in ("0", "0.5"):
            echoed = read_config_file(out / f"memory-fraction-{value}" / "xbm" / "0" / "config.txt")
            assert float(echoed["memory_fraction"]) == float(value)
        assert all(r["status"] == "ok" for r in runs)
        agg = read_csv_rows(out / "sweep_summary.csv")
        assert all(float(r["std_r_at_1"]) == 0.0 for r in agg)  # single seed

    def test_failed_cell_reported_not_fatal(self, tmp_path, data_file, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--axis", "batch-size", "--values", "6,7",  # 7 % 2 != 0 fails
            "--variants", "xbm", "--seeds", "0",
        ])
        assert code == 1
        runs = read_csv_rows(out / "sweep_runs.csv")
        by_status = {r["axis_value"]: r["status"] for r in runs}
        assert by_status == {"6": "ok", "7": "failed"}
        failed = next(r for r in runs if r["status"] == "failed")
        assert "divisible" in failed["error"]
        assert "failed:" in capsys.readouterr().out

    def test_os_error_in_one_cell_keeps_the_others(self, tmp_path, data_file, monkeypatch, capsys):
        real_run_one = cli._run_one

        def flaky(config, variant, dataset_path, dataset, out_dir):
            if config.seed == 1:
                raise OSError(f"[Errno 30] Read-only file system: '{out_dir}'")
            return real_run_one(config, variant, dataset_path, dataset, out_dir)

        monkeypatch.setattr(cli, "_run_one", flaky)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--axis", "batch-size", "--values", "6",
            "--variants", "xbm", "--seeds", "0,1,2", "--workers", "1",
        ])
        assert code == 1
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert {r["seed"]: r["status"] for r in runs} == {"0": "ok", "1": "failed", "2": "ok"}
        failed = next(r for r in runs if r["status"] == "failed")
        assert "Read-only file system" in failed["error"]
        assert read_csv_rows(out / "sweep_summary.csv")[0]["n_seeds"] == "2"
        assert "failed:" in capsys.readouterr().out

    def test_parallel_workers_match_row_count(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--axis", "batch-size", "--values", "6",
            "--variants", "no-xbm,xbn", "--seeds", "0",
            "--workers", "2",
        ])
        assert code == 0
        assert len(read_csv_rows(out / "sweep_runs.csv")) == 2

    def test_bad_values_exit_2(self, tmp_path, data_file, capsys):
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(tmp_path), *FAST,
            "--axis", "batch-size", "--values", "6,abc",
            "--variants", "xbm", "--seeds", "0",
        ])
        assert code == 2
        assert "numeric" in capsys.readouterr().err

    def sweep(self, data_file, out, *extra):
        return main(["sweep", "--dataset", str(data_file), "--out", str(out), *FAST, *extra])

    @pytest.mark.parametrize("axis, values, variants, seeds, repeated", [
        ("batch-size", "6,12,6", "xbm", "0", "--values lists 6 more"),
        ("memory-fraction", "0.5,.5", "xbm", "0", "--values lists 0.5 more"),
        ("batch-size", "6", "xbm,ema:0.5,ema:.5", "0", "--variants lists ema:0.5 more"),
        ("batch-size", "6", "ema:0,ema:-0.0", "0", "--variants lists ema:0.0 more"),
        ("batch-size", "6", "xbm", "1,0,1", "--seeds lists 1 more"),
    ])
    def test_repeated_entries_exit_2_before_any_run(
        self, tmp_path, data_file, capsys, axis, values, variants, seeds, repeated
    ):
        out = tmp_path / "sweep"
        code = self.sweep(data_file, out, "--axis", axis, "--values", values,
                          "--variants", variants, "--seeds", seeds)
        assert code == 2
        assert repeated in capsys.readouterr().err
        assert not out.exists()

    def test_axis_overrides_an_invalid_base_value(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        # the default batch size 16 is not divisible by 6; each swept one is
        code = main(["sweep", "--dataset", str(data_file), "--out", str(out), *FAST[4:],
                     "--samples-per-class", "6", "--axis", "batch-size", "--values", "12,24",
                     "--variants", "no-xbm", "--seeds", "0"])
        assert code == 0
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert [(r["axis_value"], r["status"]) for r in runs] == [("12", "ok"), ("24", "ok")]

    def test_invalid_base_value_fails_each_cell(self, tmp_path, data_file, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--dataset", str(data_file), "--out", str(out), *FAST[4:],
                     "--batch-size", "10", "--axis", "lr", "--values", "1e-3,2e-3",
                     "--variants", "xbm", "--seeds", "0"])
        assert code == 1
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert [r["status"] for r in runs] == ["failed", "failed"]
        assert {r["error"] for r in runs} == {"batch_size 10 not divisible by samples_per_class 4"}
        assert [r["n_seeds"] for r in read_csv_rows(out / "sweep_summary.csv")] == ["0", "0"]
        assert read_csv_rows(out / "drift.csv") == []
        assert capsys.readouterr().out.count("failed: lr=") == 2

    def test_axes_are_the_scalar_settings(self, capsys):
        axes = [
            "batch-size", "samples-per-class", "memory-fraction", "epochs",
            "warmup-epochs", "embed-dim", "lr", "weight-decay", "schedule-gamma",
            "schedule-every", "warmup-lr", "pos-margin", "neg-margin", "q", "p0", "r",
        ]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--help"])
        assert "{" + ",".join(axes) + "}" in "".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("axis", ["seed", "hidden-dims"])
    def test_non_axis_settings_rejected(self, tmp_path, data_file, axis):
        with pytest.raises(SystemExit) as exc:
            self.sweep(data_file, tmp_path, "--axis", axis, "--values", "1",
                       "--variants", "xbm", "--seeds", "0")
        assert exc.value.code == 2

    def test_r_axis_keeps_the_xbn_identity(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        assert self.sweep(data_file, out, "--axis", "r", "--values", "0,1",
                          "--variants", "xbn,axbn", "--seeds", "0") == 0

        def metrics(value, variant):
            return (out / f"r-{value}" / variant / "0" / "metrics.jsonl").read_bytes()

        assert metrics(0, "axbn") == metrics(0, "xbn")  # axbn at r=0 is xbn step for step
        assert metrics(1, "xbn") == metrics(0, "xbn")  # r does not reach xbn
        assert metrics(1, "axbn") != metrics(0, "axbn")

    @pytest.mark.parametrize("extra, needle", [
        (("--axis", "r", "--values", "0.01,1"), "r applies"),
        (("--q", "2"), "q applies"),
        (("--config", "p0.cfg"), "p0 applies"),
    ])
    def test_kalman_setting_no_variant_reads_exits_2(self, tmp_path, data_file, monkeypatch,
                                                       capsys, extra, needle):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p0.cfg").write_text("p0 = 0.5\n")
        out = tmp_path / "sweep"
        assert self.sweep(data_file, out, *extra, "--variants", "xbn,xbm", "--seeds", "0") == 2
        assert f"{needle} only to the axbn variant, not 'xbn'" in capsys.readouterr().err
        assert not out.exists()

    def test_distinct_values_get_distinct_directories(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        values = ["0.5000001", "0.5000002"]
        assert self.sweep(data_file, out, "--axis", "memory-fraction", "--values", ",".join(values),
                          "--variants", "xbm", "--seeds", "0") == 0
        for value in values:
            config = read_config_file(out / f"memory-fraction-{value}" / "xbm" / "0" / "config.txt")
            assert config["memory_fraction"] == value

    def test_drift_table_has_every_epoch_of_ok_runs(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        assert self.sweep(data_file, out, "--axis", "batch-size", "--values", "6,7",  # 7 fails
                          "--variants", "xbm", "--seeds", "0,1") == 1
        rows = read_csv_rows(out / "drift.csv")
        assert [(r["axis_value"], r["seed"], r["epoch"]) for r in rows] == [
            ("6", seed, epoch) for seed in "01" for epoch in "012"
        ]
        assert {r["axis"] for r in rows} == {"batch-size"}

    @pytest.mark.parametrize(  # 3 runs; pooled is the pool size, None runs them serially
        "workers,cpus,pooled", [(64, 4, 3), (64, 2, 2), (64, 1, None), (2, 4, 2), (1, 4, None)]
    )  # cpus is the affinity mask; the machine's CPU count (64 here) must not raise the cap
    def test_workers_capped_by_runs_and_cpus(
        self, tmp_path, data_file, monkeypatch, workers, cpus, pooled
    ):
        created = []

        class RecordingPool:  # runs the cells in this process
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # cli imports the pool class from concurrent.futures only when it builds one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert self.sweep(data_file, tmp_path / "sweep", "--axis", "batch-size",
                          "--values", "6", "--variants", "no-xbm,xbm,xbn", "--seeds", "0",
                          "--workers", str(workers)) == 0
        assert created == ([] if pooled is None else [pooled])

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, tmp_path, data_file, capsys, workers):
        code = self.sweep(data_file, tmp_path, "--axis", "batch-size", "--values", "6",
                          "--variants", "xbm", "--seeds", "0", "--workers", workers)
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [("--values", "6"), ("--axis", "batch-size")])
    def test_axis_without_values_or_values_without_axis_exit_2(
        self, tmp_path, data_file, capsys, extra
    ):
        out = tmp_path / "sweep"
        assert self.sweep(data_file, out, *extra, "--variants", "xbm", "--seeds", "0") == 2
        assert "--axis and --values are given together" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_cell_fails_alone(self, tmp_path, data_file, capsys):
        out = tmp_path / "sweep"
        huge = "10000000000000000000"  # more parameters than numpy can index
        assert self.sweep(data_file, out, "--axis", "embed-dim", "--values", f"6,{huge}",
                          "--variants", "xbm", "--seeds", "0") == 1
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert [(r["axis_value"], r["status"]) for r in runs] == [("6", "ok"), (huge, "failed")]
        assert "parameters, too many" in runs[1]["error"]
        assert [r["axis_value"] for r in read_csv_rows(out / "drift.csv")] == ["6"] * 3
        assert [r["n_seeds"] for r in read_csv_rows(out / "sweep_summary.csv")] == ["1", "0"]
        assert f"failed: embed-dim={huge} xbm seed 0" in capsys.readouterr().out

    def test_negative_seed_fails_its_cells_alone(self, tmp_path, data_file, capsys):
        out = tmp_path / "sweep"
        assert self.sweep(data_file, out, "--variants", "xbn,xbm", "--seeds", "0,-1") == 1
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert [(r["variant"], r["seed"], r["status"]) for r in runs] == [
            ("xbn", "0", "ok"), ("xbn", "-1", "failed"), ("xbm", "0", "ok"), ("xbm", "-1", "failed")
        ]
        assert {r["error"] for r in runs if r["status"] == "failed"} == {"seed must be >= 0, got -1"}
        assert [r["n_seeds"] for r in read_csv_rows(out / "sweep_summary.csv")] == ["1", "1"]
        assert {r["variant"] for r in read_csv_rows(out / "drift.csv")} == {"xbn", "xbm"}
        assert not (out / "xbn" / "-1").exists() and not (out / "xbm" / "-1").exists()
        assert capsys.readouterr().out.count("failed: ") == 2

    def test_drift_command_removed(self, tmp_path, data_file):
        out = tmp_path / "drift"  # the grid without an axis is sweep without --axis
        with pytest.raises(SystemExit) as exc:
            main(["drift", "--dataset", str(data_file), "--out", str(out), *FAST,
                  "--variants", "xbn"])
        assert exc.value.code == 2
        assert not out.exists()


class TestDrift:
    """The grid without an axis: sweep given --variants alone, one run per variant."""

    def test_per_epoch_rows(self, tmp_path, data_file):
        out = tmp_path / "drift"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--variants", "no-xbm,xbn",
        ])
        assert code == 0
        rows = read_csv_rows(out / "drift.csv")
        assert len(rows) == 3 * 2  # epochs x variants
        assert {r["variant"] for r in rows} == {"no-xbm", "xbn"}
        for r in rows:
            assert 0.0 <= float(r["mean_drift"]) <= float(r["max_drift"]) <= 2.0
            assert 0.0 <= float(r["val_r_at_1"]) <= 1.0
        # per-variant epoch sequence is complete and ordered
        for name in ("no-xbm", "xbn"):
            epochs = [int(r["epoch"]) for r in rows if r["variant"] == name]
            assert epochs == [0, 1, 2]

    def test_failed_variant_keeps_its_siblings_rows(self, tmp_path, data_file, capsys):
        out = tmp_path / "drift"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--variants", "no-xbm,xbm", "--memory-fraction", "0.08",  # 3 rows < batch 6 fails xbm
        ])
        assert code == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "failed:" in line]
        assert len(failed) == 1
        assert failed[0].startswith("failed: xbm seed 0: memory capacity 3")
        rows = read_csv_rows(out / "drift.csv")
        assert [(r["variant"], r["epoch"]) for r in rows] == [("no-xbm", e) for e in "012"]
        # the rejected run left no directory; its sibling's run is complete
        assert not (out / "xbm").exists()
        assert sorted(p.name for p in (out / "no-xbm" / "0").iterdir()) == [
            "checkpoint.xbnc", "config.txt", "metrics.jsonl", "summary.csv"
        ]

    def test_kalman_knob_reaches_every_variant(self, tmp_path, data_file, capsys):
        out = tmp_path / "drift"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--variants", "xbm,axbn", "--r", "-1",  # every run fails validation
        ])
        assert code == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "failed:" in line]
        assert [line.split(":")[1] for line in failed] == [" xbm seed 0", " axbn seed 0"]
        assert {r["status"] for r in read_csv_rows(out / "sweep_runs.csv")} == {"failed"}
        assert read_csv_rows(out / "drift.csv") == []

    def test_no_drift_leaves_drift_columns_empty(self, tmp_path, data_file):
        out = tmp_path / "drift"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--variants", "xbn", "--no-drift",
        ])
        assert code == 0
        rows = read_csv_rows(out / "drift.csv")
        assert len(rows) == 3
        assert all(r["mean_drift"] == r["max_drift"] == "" for r in rows)
        assert all(r["val_r_at_1"] for r in rows)


class TestEval:
    def test_matches_training_summary(self, tmp_path, data_file, capsys):
        out = tmp_path / "out"
        assert main(train_argv(data_file, out, "--variant", "xbn")) == 0
        run_dir = out / "xbn" / "0"
        capsys.readouterr()  # drop train output
        code = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.xbnc"),
            "--dataset", str(data_file), "--recall-ks", "1,5",
        ])
        assert code == 0
        lines = dict(
            line.split(",") for line in capsys.readouterr().out.strip().splitlines()
        )
        summary = read_csv_rows(run_dir / "summary.csv")[0]
        for k in ("r_at_1", "r_at_5"):
            assert f"{float(summary[k]):.6f}" == lines[k]

    def test_query_gallery_dataset(self, tmp_path, data_file, capsys):
        qg = tmp_path / "qg.xbnf"
        assert main(["gen-data", "--out", str(qg), *GEN_FLAGS, "--protocol",
                     "query-gallery"]) == 0
        out = tmp_path / "out"
        assert main(train_argv(data_file, out, "--variant", "xbm")) == 0
        capsys.readouterr()
        ckpt = out / "xbm" / "0" / "checkpoint.xbnc"
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(qg), "--recall-ks", "1,5"])
        assert code == 0
        recall = evaluate(load_checkpoint(ckpt), load_features(qg), (1, 5))
        assert capsys.readouterr().out == "".join(f"r_at_{k},{v:.6f}\n" for k, v in recall.items())

    def test_recall_ks_need_not_include_1(self, tmp_path, data_file, capsys):
        # eval selects nothing, so any ascending k values are legal
        from crossbatch import MLPEmbedder, save_checkpoint

        ckpt = tmp_path / "net.xbnc"
        save_checkpoint(MLPEmbedder((8, 6)), ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data_file),
                     "--recall-ks", "5"])
        assert code == 0
        recall = evaluate(load_checkpoint(ckpt), load_features(data_file), (5,))
        assert capsys.readouterr().out == f"r_at_5,{recall[5]:.6f}\n"

    def test_train_only_dataset_rejected(self, tmp_path, capsys):
        # a dataset with no validation rows cannot be evaluated
        from crossbatch import FeatureDataset, MLPEmbedder, save_checkpoint, save_features

        train_only = tmp_path / "train_only.xbnf"
        assert main(["gen-data", "--out", str(train_only), *GEN_FLAGS]) == 0
        ds = load_features(train_only)
        stripped = FeatureDataset(
            features=ds.features, labels=ds.labels,
            splits=np.zeros(ds.n, dtype=np.uint8),
        )
        save_features(stripped, train_only)
        ckpt = tmp_path / "net.xbnc"
        save_checkpoint(MLPEmbedder((8, 6)), ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(train_only)])
        assert code == 2
        assert "no validation query rows" in capsys.readouterr().err


class TestGenData:
    def test_defaults_are_synthetic_config(self, tmp_path):
        args = build_parser().parse_args(["gen-data", "--out", str(tmp_path / "d.xbnf")])
        names = [f.name for f in dataclasses.fields(SyntheticConfig)]
        assert SyntheticConfig(**{n: getattr(args, n) for n in names}) == SyntheticConfig()

    def test_bad_protocol_exits_2(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "d.xbnf"), "--protocol", "both"])
        assert code == 2
        assert "protocol must be single or query-gallery" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,needle", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        # sizes numpy refuses to index, before it allocates anything
        ("--train-classes", "10000000000000000000", "too many"),
        ("--samples-per-class", "10000000000000000000", "too many"),
        ("--input-dim", "10000000000000000000", "too many"),
    ])
    def test_rejected_setting_exits_2_without_file(self, tmp_path, capsys, flag, value, needle):
        path = tmp_path / "d.xbnf"
        assert main(["gen-data", "--out", str(path), flag, value]) == 2
        assert needle in capsys.readouterr().err
        assert not path.exists()

    def test_center_scale_flag_removed(self, tmp_path):
        # class centers are always drawn from the standard normal
        path = tmp_path / "d.xbnf"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", str(path), *GEN_FLAGS, "--center-scale", "2"])
        assert exc.value.code == 2
        assert not path.exists()

    def test_dtype_f4(self, tmp_path, capsys):
        path = tmp_path / "small.xbnf"
        code = main(["gen-data", "--out", str(path), *GEN_FLAGS, "--dtype", "f4"])
        assert code == 0
        ds = load_features(path)
        assert ds.features.dtype == np.float32
        assert ds.n == 9 * 6
        assert "wrote 54 rows" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["crossbatch", "crossbatch.cli"])
    def test_python_m_runs_the_command_line(self, tmp_path, module):
        path = tmp_path / "d.xbnf"
        src = Path(cli.__file__).resolve().parents[1]
        path_entries = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
        proc = subprocess.run(
            [sys.executable, "-m", module, "gen-data", "--out", str(path), *GEN_FLAGS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote 54 rows" in proc.stdout
        assert load_features(path).n == 54

    def test_default_f8(self, data_file):
        ds = load_features(data_file)
        assert ds.features.dtype == np.float64
        assert ds.input_dim == 8
