import numpy as np
import pytest

from crossbatch import InvalidConfig, MethodVariant, TrainConfig, cli, load_features
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
        )
        values = read_config_file(p)
        assert values == {"epochs": "5", "variant": "xbn", "lr": "2e-4"}

    def test_unknown_key_cites_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 5\nbogus = 1\n")
        with pytest.raises(InvalidConfig, match=r"run\.cfg:2.*bogus"):
            read_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs\n")
        with pytest.raises(InvalidConfig, match="key=value"):
            read_config_file(p)

    def test_non_numeric_value_exits_cleanly(self, tmp_path, data_file, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("lr = fast\n")
        code = main(train_argv(data_file, tmp_path / "out", "--variant", "xbn",
                               "--config", str(p)))
        assert code == 2
        assert "lr must be numeric" in capsys.readouterr().err

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

    def test_help_lists_every_setting(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        text = capsys.readouterr().out
        for key in cli._SETTINGS:
            flag = "--no-drift" if key == "probe_drift" else "--" + key.replace("_", "-")
            assert flag in text, key

    def test_momentum_flag_removed(self, tmp_path, data_file):
        with pytest.raises(SystemExit) as exc:  # ema takes its momentum as ema:M
            main(train_argv(data_file, tmp_path, "--variant", "ema:0.3", "--momentum", "0.5"))
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "variant,extra",
        [
            ("no-xbm", ()),
            ("xbm", ("--memory-capacity", "12")),
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
        code = main(["drift", "--dataset", str(data_file), "--out", str(out), *FAST,
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

    def test_memory_fraction_axis_overrides_capacity(self, tmp_path, data_file):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--dataset", str(data_file), "--out", str(out), *FAST,
            "--memory-capacity", "18",  # would clash; the swept fraction must win
            "--axis", "memory-fraction", "--values", "0,0.5",
            "--variants", "xbm", "--seeds", "0",
        ])
        assert code == 0
        runs = read_csv_rows(out / "sweep_runs.csv")
        assert [r["axis_value"] for r in runs] == ["0.0", "0.5"]
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

        def flaky(settings, dataset, out_dir):
            if settings["seed"] == 1:
                raise OSError(f"[Errno 30] Read-only file system: '{out_dir}'")
            return real_run_one(settings, dataset, out_dir)

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


class TestDrift:
    def test_per_epoch_rows(self, tmp_path, data_file):
        out = tmp_path / "drift"
        code = main([
            "drift", "--dataset", str(data_file), "--out", str(out), *FAST,
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
        assert float(lines["r_at_1"]) == pytest.approx(float(summary["r_at_1"]), abs=1e-6)
        assert float(lines["r_at_5"]) == pytest.approx(float(summary["r_at_5"]), abs=1e-6)

    def test_query_gallery_dataset(self, tmp_path, data_file, capsys):
        qg = tmp_path / "qg.xbnf"
        assert main(["gen-data", "--out", str(qg), *GEN_FLAGS, "--protocol",
                     "query-gallery"]) == 0
        out = tmp_path / "out"
        assert main(train_argv(data_file, out, "--variant", "xbm")) == 0
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(out / "xbm" / "0" / "checkpoint.xbnc"),
            "--dataset", str(qg), "--recall-ks", "1",
        ])
        assert code == 0
        out_text = capsys.readouterr().out
        assert out_text.startswith("r_at_1,")

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
    def test_dtype_f4(self, tmp_path, capsys):
        path = tmp_path / "small.xbnf"
        code = main(["gen-data", "--out", str(path), *GEN_FLAGS, "--dtype", "f4"])
        assert code == 0
        ds = load_features(path)
        assert ds.features.dtype == np.float32
        assert ds.n == 9 * 6
        assert "wrote 54 rows" in capsys.readouterr().out

    def test_default_f8(self, data_file):
        ds = load_features(data_file)
        assert ds.features.dtype == np.float64
        assert ds.input_dim == 8
