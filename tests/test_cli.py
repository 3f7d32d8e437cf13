import argparse
import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from avtrait import cli
from avtrait import data as D
from avtrait import rnn_head as R
from avtrait import train as T
from test_train import with_conv_biases


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    data_dir = str(root / "data")
    assert run(["synth", "--n", "6", "--seed", "3", "--out", data_dir,
                "--val-n", "2", "--seconds", "1.0", "--height", "40", "--width", "40"]) == 0
    run_dir = str(root / "run")
    assert run(["train", "--manifest", os.path.join(data_dir, "manifest.csv"), "--out", run_dir,
                "--epochs", "2", "--batch-size", "4", "--seed", "5", "--mini",
                "--checkpoint-every", "1", "--config", _write_cfg(root)]) == 0
    ckpt = os.path.join(run_dir, "checkpoint_00001.ckpt")
    assert os.path.exists(ckpt)
    return {"root": root, "data": data_dir, "manifest": os.path.join(data_dir, "manifest.csv"),
            "run": run_dir, "ckpt": ckpt}


def _write_cfg(root):
    path = str(root / "train.cfg")
    with open(path, "w") as fh:
        fh.write("# desk-scale crops\naudio_crop = 2048\nframe_crop = 32\n")
    return path


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run(["synth", "--n", "1", "--out", "x", "--bogus"]) == 1

    def test_missing_required_flag(self):
        assert run(["train", "--out", "x"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_every_option_of_every_command_has_help(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert sorted(commands) == sorted(cli._COMMANDS)
        silent = [(name, a.option_strings[0]) for name, sub in commands.items() for a in sub._actions if not a.help]
        assert silent == []

    @pytest.mark.parametrize("command", ["eval", "predict", "extract-features", "predict-rnn"])
    def test_seed_flag_is_unknown_to_the_scoring_commands(self, tmp_path, capsys, command):
        # scoring draws no random numbers, so there is no seed to set
        assert run(_scoring_argv(tmp_path, command) + ["--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict", "extract-features", "predict-rnn"])
    def test_threads_flag_is_unknown(self, tmp_path, capsys, command):
        # clips are scored one at a time; there is no worker count to set
        assert run(_scoring_argv(tmp_path, command) + ["--threads", "2"]) == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestSynth:
    def test_same_seed_identical_directories(self, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (d1, d2):
            assert run(["synth", "--n", "4", "--seed", "7", "--out", d,
                        "--seconds", "0.5", "--height", "24", "--width", "24"]) == 0
        names1 = sorted(os.listdir(d1))
        assert names1 == sorted(os.listdir(d2))
        for name in names1:
            assert Path(os.path.join(d1, name)).read_bytes() == Path(os.path.join(d2, name)).read_bytes()

    def test_invalid_counts_are_data_error(self, tmp_path):
        assert run(["synth", "--n", "2", "--val-n", "3", "--out", str(tmp_path / "x")]) == 2
        for extent in ("--height", "--width"):
            assert run(["synth", "--n", "2", extent, "0", "--out", str(tmp_path / "y")]) == 2

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--seconds", "inf", "seconds"),
            ("--seconds", "nan", "seconds"),
            ("--seconds", "1e308", "seconds"),  # finite, but not in samples
            ("--seconds", "0.01", "seconds"),  # under one frame at 25 fps
            ("--seconds", "0.02", "seconds"),  # half a frame, which rounds to none
            ("--seconds", "-1", "seconds"),
            ("--height", "0", "height"),
            ("--width", "0", "width"),
        ],
    )
    def test_bad_size_is_data_error_naming_it_before_the_directory(self, tmp_path, capsys, flag, value, key):
        out = str(tmp_path / "o")
        assert run(["synth", "--n", "1", "--out", out, f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--height", "65536", "--width", "1"], "height"),
            (["--width", "65536", "--height", "1"], "width"),
            (["--seconds", "268435.456", "--height", "1", "--width", "1"], "seconds"),  # 2^32 samples
        ],
    )
    def test_size_the_container_cannot_hold_is_refused_before_the_directory(self, tmp_path, capsys, flags, key):
        out = str(tmp_path / "o")
        assert run(["synth", "--n", "1", "--out", out, "--seconds", "0.04"] + flags) == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--val-n", "-1"], "val_count"),
            (["--val-n", "-2", "--test-n", "3"], "val_count"),
            (["--test-n", "-1"], "test_count"),
        ],
    )
    def test_negative_split_count_is_refused_before_the_directory(self, tmp_path, capsys, flags, key):
        out = str(tmp_path / "o")
        tiny = ["--seconds", "0.04", "--height", "2", "--width", "2"]
        assert run(["synth", "--n", "3", "--out", out] + tiny + flags) == 2
        assert f"{key} must be >= 0, got " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_second_run_into_the_same_directory_is_data_error(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        argv = ["synth", "--seconds", "0.5", "--height", "24", "--width", "24", "--out", out]
        assert run(argv + ["--n", "4"]) == 0
        assert run(argv + ["--n", "2"]) == 2
        assert "not empty" in capsys.readouterr().err
        assert len(D.load_manifest(os.path.join(out, "manifest.csv")).rows) == 4


class TestTrainCommand:
    def test_artifacts_exist(self, workspace):
        files = os.listdir(workspace["run"])
        assert "loss_log.csv" in files
        assert any(f.endswith(".ckpt") for f in files)

    def test_loss_log_format(self, workspace):
        lines = Path(os.path.join(workspace["run"], "loss_log.csv")).read_text().splitlines()
        assert lines[0] == "epoch,alpha,train_mae"
        assert len(lines) == 3

    def test_config_file_crops_applied(self, workspace):
        ckpt = T.load_checkpoint(workspace["ckpt"])
        assert ckpt.mini

    def test_resume_from_checkpoint(self, workspace):
        out = str(workspace["root"] / "resumed")
        import shutil

        shutil.copytree(workspace["run"], out)
        code = run(["train", "--manifest", workspace["manifest"], "--out", out,
                    "--epochs", "3", "--batch-size", "4", "--seed", "5", "--mini",
                    "--resume", os.path.join(out, "checkpoint_00001.ckpt"),
                    "--config", str(workspace["root"] / "train.cfg")])
        assert code == 0
        assert os.path.exists(os.path.join(out, "checkpoint_00002.ckpt"))

    def test_resume_with_no_epoch_left_is_data_error(self, workspace, tmp_path, capsys):
        # the run's last checkpoint, resumed with the same epochs, trains nothing
        out = str(tmp_path / "next")
        code = run(["train", "--manifest", workspace["manifest"], "--out", out,
                    "--epochs", "2", "--batch-size", "4", "--seed", "5", "--mini",
                    "--resume", workspace["ckpt"], "--config", str(workspace["root"] / "train.cfg")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "epoch 1 leaves no epoch to train" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    def test_resume_from_bad_rng_trailer_is_data_error(self, workspace, tmp_path, capsys):
        epoch, named, _ = T.read_tensor_container(workspace["ckpt"])
        bad = str(tmp_path / "rng.ckpt")
        T.write_tensor_container(bad, named, epoch, b'{"bit_generator": "PCG64", "state": [1, 2]}')
        code = run(["train", "--manifest", workspace["manifest"], "--out", str(tmp_path / "o"),
                    "--epochs", "3", "--batch-size", "4", "--mini", "--resume", bad])
        assert code == 2
        assert "PCG64" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert run(["train", "--manifest", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")]) == 2


class TestEvalCommand:
    def test_prints_and_writes_report(self, workspace, capsys):
        out_csv = str(workspace["root"] / "report.csv")
        code = run(["eval", "--checkpoint", workspace["ckpt"], "--manifest", workspace["manifest"],
                    "--split", "validation", "--out", out_csv])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0].startswith("average,openness")
        assert Path(out_csv).read_text() == printed

    def test_default_report_path_next_to_checkpoint(self, workspace):
        code = run(["eval", "--checkpoint", workspace["ckpt"], "--manifest", workspace["manifest"],
                    "--split", "validation"])
        assert code == 0
        assert os.path.exists(os.path.join(workspace["run"], "eval_validation.csv"))

    def test_bad_checkpoint_is_data_error(self, workspace, tmp_path):
        bad = str(tmp_path / "bad.ckpt")
        Path(bad).write_bytes(b"garbage")
        assert run(["eval", "--checkpoint", bad, "--manifest", workspace["manifest"]]) == 2

    def test_infinite_step_count_is_data_error(self, workspace, tmp_path, capsys):
        epoch, named, trailer = T.read_tensor_container(workspace["ckpt"])
        named["adam.t"] = np.array([np.inf], np.float32)
        bad = str(tmp_path / "inf.ckpt")
        T.write_tensor_container(bad, named, epoch, trailer)
        assert run(["eval", "--checkpoint", bad, "--manifest", workspace["manifest"]]) == 2
        assert "adam.t" in capsys.readouterr().err

    def test_checkpoint_with_convolution_biases_is_data_error(self, workspace, tmp_path, capsys):
        epoch, named, trailer = T.read_tensor_container(workspace["ckpt"])
        old = str(tmp_path / "old.ckpt")
        T.write_tensor_container(old, with_conv_biases(named), epoch, trailer)
        assert run(["eval", "--checkpoint", old, "--manifest", workspace["manifest"]]) == 2
        assert "auditory.stage1.block1.conv1.b" in capsys.readouterr().err


class TestPredictCommand:
    def test_line_format_six_decimals(self, workspace, capsys):
        code = run(["predict", "--checkpoint", workspace["ckpt"], "--manifest", workspace["manifest"],
                    "--split", "validation"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for line in lines:
            parts = line.split(",")
            assert parts[0].startswith("clip")
            assert len(parts) == 6
            for p in parts[1:]:
                whole, frac = p.split(".")
                assert len(frac) == 6
                assert 0.0 <= float(p) <= 1.0

    def test_writes_output_file(self, workspace, capsys, tmp_path):
        out = str(tmp_path / "preds.csv")
        assert run(["predict", "--checkpoint", workspace["ckpt"], "--manifest", workspace["manifest"],
                    "--out", out]) == 0
        printed = capsys.readouterr().out
        assert Path(out).read_text() == printed
        assert len(printed.splitlines()) == 6


class TestFinetuneCommand:
    def test_finetune_writes_single_trait_checkpoint(self, workspace):
        out = str(workspace["root"] / "ft")
        code = run(["finetune", "--checkpoint", workspace["ckpt"], "--trait", "conscientiousness",
                    "--manifest", workspace["manifest"], "--out", out,
                    "--epochs", "1", "--batch-size", "4", "--seed", "5",
                    "--config", str(workspace["root"] / "train.cfg")])
        assert code == 0
        files = [f for f in os.listdir(out) if f.endswith(".ckpt")]
        ckpt = T.load_checkpoint(os.path.join(out, files[0]))
        assert ckpt.trait == 2 and ckpt.arch.out_dim == 1

    def test_eval_on_finetuned_checkpoint(self, workspace, capsys):
        out = str(workspace["root"] / "ft")
        files = [f for f in os.listdir(out) if f.endswith(".ckpt")]
        argv = ["eval", "--checkpoint", os.path.join(out, files[0]),
                "--manifest", workspace["manifest"], "--split", "validation"]
        assert run(argv) == 0
        single = capsys.readouterr().out
        assert single.splitlines()[0] == "average,conscientiousness,clips,excluded"
        assert Path(os.path.join(out, "eval_validation.csv")).read_text() == single

    def test_mini_flag_is_unknown(self, tmp_path, capsys):
        # the base checkpoint decides the architecture
        assert run(_argv_without_inputs(tmp_path, "finetune") + ["--mini"]) == 1
        assert "unrecognized arguments: --mini" in capsys.readouterr().err

    def test_bad_trait_name_is_usage_error(self, workspace):
        assert run(["finetune", "--checkpoint", workspace["ckpt"], "--trait", "charisma",
                    "--manifest", workspace["manifest"], "--out", "x"]) == 1


class TestRnnPipeline:
    def test_extract_train_predict(self, workspace, capsys, tmp_path):
        cache = str(tmp_path / "feats.ckpt")
        code = run(["extract-features", "--checkpoint", workspace["ckpt"],
                    "--manifest", workspace["manifest"], "--out", cache])
        assert code == 0
        capsys.readouterr()

        feats = cli.load_feature_cache(cache)
        assert len(feats) == 6
        for seq in feats.values():
            assert seq.ndim == 2 and seq.shape[1] == 64

        head = str(tmp_path / "head.ckpt")
        code = run(["train-rnn", "--features", cache, "--manifest", workspace["manifest"],
                    "--out", head, "--epochs", "2", "--hidden", "8", "--seed", "1"])
        assert code == 0
        capsys.readouterr()

        code = run(["predict-rnn", "--checkpoint", workspace["ckpt"], "--rnn-head", head,
                    "--manifest", workspace["manifest"], "--split", "validation"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and all(len(l.split(",")) == 6 for l in lines)


@pytest.fixture(scope="module")
def mixed_split(workspace, tmp_path_factory):
    """A validation split of a good clip, a truncated clip and a 0.5 s clip,
    with a recurrent head for the base checkpoint."""
    root = tmp_path_factory.mktemp("mixed")
    good = D.load_manifest(workspace["manifest"]).split_rows("validation")[0]
    blob = Path(os.path.join(workspace["data"], good.path)).read_bytes()
    (root / "truncated.clip").write_bytes(blob[:-100])
    D.save_clip(D.synth_clip(np.random.default_rng(0), seconds=0.5, height=40, width=40), str(root / "short.clip"))
    rows = [
        D.ManifestRow(good.clip_id, os.path.join(workspace["data"], good.path), good.traits, "validation"),
        D.ManifestRow("truncated", "truncated.clip", good.traits, "validation"),
        D.ManifestRow("short", "short.clip", good.traits, "validation"),
    ]
    head = str(root / "head.ckpt")
    T.write_tensor_container(head, R.build_rnn_head(0, input_dim=64, hidden=8))
    return {"root": root, "rows": rows, "head": head}


def _run_on_rows(command, workspace, mixed_split, rows, tmp_path):
    manifest = str(mixed_split["root"] / f"{tmp_path.name}.csv")
    D.save_manifest(D.Manifest(rows=rows), manifest)
    out = str(tmp_path / "out")
    argv = [command, "--checkpoint", workspace["ckpt"], "--manifest", manifest, "--split", "validation",
            "--out", out]
    if command == "predict-rnn":
        argv += ["--rnn-head", mixed_split["head"]]
    return run(argv), out


# whole-clip inference pads a 0.5 s clip; the per-second commands cannot use it
USABLE = {
    "eval": ["clip0004", "short"],
    "predict": ["clip0004", "short"],
    "extract-features": ["clip0004"],
    "predict-rnn": ["clip0004"],
}


@pytest.mark.parametrize("command", list(USABLE))
def test_multi_clip_command_skips_unusable_clips(command, workspace, mixed_split, tmp_path, capsys):
    code, out = _run_on_rows(command, workspace, mixed_split, mixed_split["rows"], tmp_path)
    assert code == 0, capsys.readouterr().err
    printed = capsys.readouterr().out
    if command == "eval":
        header, values = printed.splitlines()
        report = dict(zip(header.split(","), values.split(",")))
        assert (report["clips"], report["excluded"]) == ("2", "1")
    elif command == "extract-features":
        assert sorted(cli.load_feature_cache(out)) == USABLE[command]
    else:
        assert [line.split(",")[0] for line in printed.splitlines()] == USABLE[command]
        assert Path(out).read_text() == printed


@pytest.mark.parametrize("command", list(USABLE))
def test_multi_clip_command_without_usable_clips_is_data_error(command, workspace, mixed_split, tmp_path, capsys):
    rows = [r for r in mixed_split["rows"] if r.clip_id not in USABLE[command]]
    code, out = _run_on_rows(command, workspace, mixed_split, rows, tmp_path)
    assert code == 2
    assert "no readable clips" in capsys.readouterr().err
    assert not os.path.exists(out)


class TestGradcheckCommand:
    def test_layer_table_exit_zero(self, capsys):
        assert run(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "lstm_segment" in out and "pass" in out
        assert run(["gradcheck", "--seed", "0", "--mini"]) == 0
        row = [line for line in capsys.readouterr().out.splitlines() if line.startswith("full_miniature_network")]
        assert len(row) == 1 and row[0].split()[-1] == "pass"

    def test_failure_exits_three(self, monkeypatch, capsys):
        from avtrait.gradcheck import GradCheckRow

        monkeypatch.setattr(cli, "run_gradcheck", lambda **kw: ([GradCheckRow("conv2d", 1.0, 1e-5)], False))
        assert run(["gradcheck"]) == 3


@pytest.fixture
def feature_cache(workspace, tmp_path):
    manifest = D.load_manifest(workspace["manifest"])
    path = str(tmp_path / "feats.ckpt")
    T.write_tensor_container(path, {f"feat.{row.clip_id}": np.ones((2, 4), np.float32) for row in manifest.rows})
    return path


@pytest.mark.parametrize(
    "command, flags, config, message",
    [
        ("train", ["--checkpoint-every", "0"], "", "checkpoint_every"),
        ("train", [], "lr_period = 0\n", "lr_period"),
        ("train-rnn", ["--epochs", "0"], "", "epochs"),
        ("train-rnn", ["--hidden", "0"], "", "hidden"),
    ],
)
def test_degenerate_setting_is_data_error(workspace, feature_cache, tmp_path, capsys, command, flags, config, message):
    # every other setting is one that runs, so only the degenerate one can fail
    cfg = str(tmp_path / "c.cfg")
    Path(cfg).write_text("audio_crop = 2048\nframe_crop = 32\n" + config)
    if command == "train":
        inputs = ["--mini", "--epochs", "1", "--batch-size", "4"]
    else:
        inputs = ["--features", feature_cache, "--epochs", "1", "--hidden", "2"]
    argv = [command, "--manifest", workspace["manifest"], "--out", str(tmp_path / "o"), "--config", cfg]
    assert run(argv + inputs + flags) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, config, message",
    [
        ("train-rnn", ["--trunc", "0"], "", "truncation length"),
        ("train-rnn", ["--hidden", "0"], "", "hidden"),
        ("train-rnn", [], "hidden = -1\n", "hidden"),
        ("train-rnn", ["--dropout", "1"], "", "dropout rate"),
        ("train-rnn", [], "alpha = nan\n", "alpha"),
        ("train", [], "initial_alpha = nan\n", "alpha"),
        ("finetune", [], "initial_alpha = nan\n", "alpha"),
    ],
)
def test_bad_setting_exits_before_reading_data(tmp_path, capsys, command, flags, config, message):
    # no input exists, so only a check made before reading them can name
    # the setting
    cfg = str(tmp_path / "c.cfg")
    Path(cfg).write_text(config)
    argv = [command, "--manifest", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"), "--config", cfg]
    if command == "train-rnn":
        argv += ["--features", str(tmp_path / "missing.ckpt")]
    if command == "finetune":
        argv += ["--checkpoint", str(tmp_path / "missing.ckpt"), "--trait", "0"]
    assert run(argv + flags) == 2
    err = capsys.readouterr().err
    assert message in err and "missing" not in err


def _scoring_argv(tmp_path, command):
    """A multi-clip command whose checkpoint and manifest do not exist."""
    argv = [command, "--checkpoint", str(tmp_path / "missing.ckpt"), "--manifest", str(tmp_path / "missing.csv")]
    if command == "extract-features":
        argv += ["--out", str(tmp_path / "o")]
    if command == "predict-rnn":
        argv += ["--rnn-head", str(tmp_path / "missing.head")]
    return argv


@pytest.mark.parametrize("command", ["eval", "predict", "extract-features", "predict-rnn"])
@pytest.mark.parametrize("source", ["config", "env"])
def test_stale_threads_setting_is_ignored(tmp_path, capsys, monkeypatch, command, source):
    # a worker count is no longer read: an old config file that sets one is
    # refused by name before any input is read, while DI_THREADS is ignored
    # and the command fails only because its inputs are missing
    argv = _scoring_argv(tmp_path, command)
    if source == "config":
        cfg = str(tmp_path / "c.cfg")
        Path(cfg).write_text("threads = two\n")
        argv += ["--config", cfg]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "threads" in err and "missing" not in err
        return
    monkeypatch.setenv("DI_THREADS", "abc")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "missing" in err and "must be" not in err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("flags, config", [(["--frame-stride", "0"], ""), ([], "frame_stride = -1\n")])
def test_bad_frame_stride_exits_before_reading_data(tmp_path, capsys, command, flags, config):
    cfg = str(tmp_path / "c.cfg")
    Path(cfg).write_text(config)
    assert run(_scoring_argv(tmp_path, command) + ["--config", cfg] + flags) == 2
    err = capsys.readouterr().err
    assert "frame_stride must be >= 1" in err and "missing" not in err


def _argv_without_inputs(tmp_path, command):
    """`command` with every required flag, naming inputs that do not exist."""
    if command in ("eval", "predict", "extract-features", "predict-rnn"):
        return _scoring_argv(tmp_path, command)
    if command == "synth":
        return ["synth", "--n", "2", "--out", str(tmp_path / "o")]
    if command == "gradcheck":
        return ["gradcheck"]
    argv = [command, "--manifest", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]
    if command == "train-rnn":
        argv += ["--features", str(tmp_path / "missing.ckpt")]
    if command == "finetune":
        argv += ["--checkpoint", str(tmp_path / "missing.ckpt"), "--trait", "0"]
    return argv


@pytest.mark.parametrize(
    "command, key",
    [
        ("eval", "frame_stride"),
        ("predict", "frame_stride"),
        ("train", "epochs"),
        ("train", "batch_size"),
        ("train", "seed"),
        ("train", "checkpoint_every"),
        ("train", "lr_period"),
        ("train", "frame_crop"),
        ("finetune", "audio_crop"),
        ("train-rnn", "epochs"),
        ("train-rnn", "trunc"),
        ("train-rnn", "hidden"),
        ("synth", "height"),
        ("synth", "val_n"),
        ("gradcheck", "seed"),
    ],
)
@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_non_integer_setting_is_usage_error_naming_it(tmp_path, capsys, command, key, value):
    cfg = str(tmp_path / "c.cfg")
    Path(cfg).write_text(f"{key} = {value}\n")
    assert run(_argv_without_inputs(tmp_path, command) + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"{key} must be an integer, got " in err and "missing" not in err
    assert not os.path.exists(str(tmp_path / "o"))


@pytest.mark.parametrize("trait", ["charisma", "7", "-1"])
def test_bad_trait_is_usage_error_before_reading_data(tmp_path, capsys, trait):
    argv = _argv_without_inputs(tmp_path, "finetune") + ["--trait", trait]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "--trait" in err and "missing" not in err
    assert not os.path.exists(str(tmp_path / "o"))


@pytest.mark.parametrize("key, value", [("audio_crop", "0"), ("audio_crop", "-5"), ("frame_crop", "0")])
def test_crop_below_one_is_refused_before_the_run_directory(workspace, tmp_path, capsys, key, value):
    crops = {"audio_crop": "2048", "frame_crop": "32", key: value}
    cfg = str(tmp_path / "c.cfg")
    Path(cfg).write_text("".join(f"{k} = {v}\n" for k, v in crops.items()))
    out = str(tmp_path / "run")
    argv = ["train", "--manifest", workspace["manifest"], "--out", out, "--config", cfg,
            "--mini", "--epochs", "1", "--batch-size", "4"]
    assert run(argv) == 2
    assert f"{key} must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, key",
    [
        ("train", "initial_alpha"),
        ("finetune", "initial_alpha"),
        ("synth", "seconds"),
        ("train-rnn", "dropout"),
        ("train-rnn", "alpha"),
    ],
)
@pytest.mark.parametrize("value", ["abc", "true"])
def test_non_number_setting_is_usage_error_naming_it(tmp_path, capsys, command, key, value):
    cfg = str(tmp_path / "c.cfg")
    Path(cfg).write_text(f"{key} = {value}\n")
    assert run(_argv_without_inputs(tmp_path, command) + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"{key} must be a number, got " in err and "missing" not in err
    assert not os.path.exists(str(tmp_path / "o"))


@pytest.mark.parametrize(
    "command, config, keys",
    [
        # Adam's decays and epsilon and the x10 step decay are constants:
        # an old config that sets them is refused, whatever the values
        ("train", "beta1 = 0.5\nlr_decay_factor = 10\n", ["beta1", "lr_decay_factor"]),
        ("train", "beta2 = 1.0\n", ["beta2"]),
        ("train", "lr_decay_factor = 0\n", ["lr_decay_factor"]),
        ("train", "lr_decay_factor = nan\n", ["lr_decay_factor"]),
        ("train", "epsilon = abc\nbeta2 = true\nbeta1 = abc\n", ["beta1", "beta2", "epsilon"]),
        ("finetune", "lr_period = 2\nmini = true\n", ["mini"]),  # the base checkpoint's size is used
        ("train-rnn", "batchsize = 4\n", ["batchsize"]),
        ("eval", "seed = 1\n", ["seed"]),
        ("predict", "frame_stride = 2\nthreads = 2\n", ["threads"]),
        ("extract-features", "frame_stride = 2\n", ["frame_stride"]),
        ("predict-rnn", "hidden = 4\nsplit = train\n", ["hidden"]),
        ("synth", "config = other.cfg\n", ["config"]),
        ("gradcheck", "mini = false\ncommand = train\n", ["command"]),
    ],
)
def test_config_key_the_command_does_not_read_is_refused_naming_each(tmp_path, capsys, command, config, keys):
    cfg = str(tmp_path / "c.cfg")
    Path(cfg).write_text(config)
    assert run(_argv_without_inputs(tmp_path, command) + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.rstrip().endswith(f"reads no config key {', '.join(keys)}")
    assert "missing" not in err and not os.path.exists(str(tmp_path / "o"))


class TestNumericFailureExit:
    def test_training_divergence_maps_to_exit_three(self, workspace, monkeypatch):
        def boom(*a, **kw):
            raise FloatingPointError("loss went non-finite")

        monkeypatch.setattr(cli.T, "train", boom)
        assert run(["train", "--manifest", workspace["manifest"], "--out", "x"]) == 3


class _Captured(Exception):
    pass


class TestDefaults:
    """A command given only its required flags leaves every default to the API."""

    def test_train_config_is_train_configs_defaults(self, workspace, tmp_path, monkeypatch):
        seen = []

        def capture(config, manifest, resume=None):
            seen.append(config)
            raise _Captured

        monkeypatch.setattr(cli.T, "train", capture)
        out = str(tmp_path / "o")
        with pytest.raises(_Captured):
            run(["train", "--manifest", workspace["manifest"], "--out", out])
        assert seen == [T.TrainConfig(out_dir=out)]

    def test_train_rnn_config_is_rnn_train_configs_defaults(self, workspace, feature_cache, tmp_path, monkeypatch):
        seen = []

        def capture(sequences, params, config):
            seen.append((R.head_dims(params), config))
            raise _Captured

        monkeypatch.setattr(cli.R, "train_rnn", capture)
        with pytest.raises(_Captured):
            run(["train-rnn", "--features", feature_cache, "--manifest", workspace["manifest"],
                 "--out", str(tmp_path / "head")])
        assert seen == [((4, R.RNN_HIDDEN, 5), R.RnnTrainConfig())]


class TestConfigKeys:
    """Each training setting is a config key of the command that builds its
    config, so none is left unreachable and a removed one cannot linger."""

    # (command, field) pairs that no config key sets
    API_ONLY = {("finetune", "mini"), ("train-rnn", "batch_size")}  # the base checkpoint's size; the API's batch
    KEY_OF = {"out_dir": "out"}

    @pytest.mark.parametrize(
        "command, config_class", [("train", T.TrainConfig), ("finetune", T.TrainConfig), ("train-rnn", R.RnnTrainConfig)]
    )
    def test_every_field_is_a_key_and_every_flagless_key_a_field(self, tmp_path, command, config_class):
        keys = cli.config_keys(cli.build_parser().parse_args(_argv_without_inputs(tmp_path, command)))
        fields = [f.name for f in dataclasses.fields(config_class)]
        unreachable = [f for f in fields if self.KEY_OF.get(f, f) not in keys and (command, f) not in self.API_ONLY]
        assert unreachable == []
        assert set(cli.CONFIG_ONLY[command]) <= set(fields)


class TestConfigFile:
    def test_values_parsed_and_flags_override(self, tmp_path):
        cfg = str(tmp_path / "c.cfg")
        with open(cfg, "w") as fh:
            fh.write("n = 3\nseconds = 0.5\nheight = 24\nwidth = 24\n# comment\n")
        parsed = cli.read_config_file(cfg)
        assert parsed == {"n": 3, "seconds": 0.5, "height": 24, "width": 24}
        out = str(tmp_path / "d")
        assert run(["synth", "--n", "2", "--out", out, "--config", cfg]) == 0
        manifest = D.load_manifest(os.path.join(out, "manifest.csv"))
        assert len(manifest.rows) == 2  # flag wins over config's n=3

    def test_malformed_config_is_data_error(self, tmp_path):
        cfg = str(tmp_path / "c.cfg")
        Path(cfg).write_text("just some words\n")
        assert run(["synth", "--n", "1", "--out", str(tmp_path / "o"), "--config", cfg]) == 2

    def test_boolean_values(self, tmp_path):
        cfg = str(tmp_path / "c.cfg")
        Path(cfg).write_text("mini = true\n")
        assert cli.read_config_file(cfg) == {"mini": True}
