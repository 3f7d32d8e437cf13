"""Command-line surface tying the modules into reproducible runs.

Subcommands: synth, train, eval, predict, finetune, extract-features,
train-rnn, predict-rnn, gradcheck. Every command accepts --config, an
optional file of plain ``key = value`` lines; explicit flags override it.
A command reads the key of each of its flags but --config, named as the
flag with "_" for "-" (batch_size for --batch-size), and the keys that
have no flag: train and finetune audio_crop, frame_crop (crop lengths),
initial_alpha (Adam's step size) and lr_period (epochs between its /10
decays). A config key the command does not read is a usage error naming
it, raised before any input is read. The commands that draw random
numbers (synth, train, finetune, train-rnn, gradcheck) also accept
--seed, and all their stochastic behavior flows from it; the scoring
commands draw none and take no seed.

The multi-clip commands eval, predict, extract-features and predict-rnn
score one clip at a time. Each skips, with a warning, a clip it cannot use
(unreadable, corrupt, or for per-second features under one second), and
exits 2 only when no clip is usable.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as D
from . import gradcheck as G
from . import rnn_head as R
from . import train as T
from .gradcheck import run_gradcheck


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_config_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def read_config_file(path: str) -> dict:
    """Plain `key = value` lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise D.ManifestError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = _parse_config_value(value)
    return out


_TRAINING_ONLY = ("audio_crop", "frame_crop", "initial_alpha", "lr_period")
# the config keys that have no flag, of each command that reads some (module docstring)
CONFIG_ONLY = {"train": _TRAINING_ONLY, "finetune": _TRAINING_ONLY}


def config_keys(args) -> set:
    """The config keys the command parsed into `args` reads: its flags' and its CONFIG_ONLY keys."""
    return set(vars(args)) - {"command", "config"} | set(CONFIG_ONLY.get(args.command, ()))


class Settings:
    """Flag > config file > default, per key."""

    def __init__(self, args, config: dict):
        self.args = args
        self.config = config

    def get(self, key: str, default=None):
        v = getattr(self.args, key, None)
        return self.config.get(key, default) if v is None else v

    def refuse_unread(self) -> None:
        """Name every config key the command does not read in a UsageError; called before any input is read."""
        unread = sorted(set(self.config) - config_keys(self.args))
        if unread:
            raise UsageError(f"{self.args.command} reads no config key {', '.join(unread)}")


def _setting(settings: Settings, key: str, default=None, cast=int):
    """The setting `key` read as `cast` (int or float), or None if it is unset and has no default.

    A value that `cast` refuses is a usage error naming the setting.
    """
    v = settings.get(key, default)
    if v is None:
        return None
    try:
        # through str, so that a config's 1.5 is refused as an integer, not
        # cut to 1, and a config's `true` is refused as a number, not read as 1.0
        return cast(str(v))
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise UsageError(f"{key} must be {kind}, got {v!r}") from None


def _given(settings: Settings, keys, cast=int) -> dict:
    """{name: value} for each of `keys` that a flag or the config file sets, read as `cast`.

    `keys` names the settings, or maps each setting to the API parameter it
    is passed as. An unset setting is left out, so the API's own default
    applies.
    """
    names = keys if isinstance(keys, dict) else {key: key for key in keys}
    return {name: v for key, name in names.items() if (v := _setting(settings, key, cast=cast)) is not None}


def _default(func, name: str):
    """The default of `func`'s parameter `name`: the API owns it, and help text quotes it."""
    return inspect.signature(func).parameters[name].default


# --split value that selects every manifest row: the row commands' default
ALL_ROWS = "all"
# synth_dataset takes a seed with no default, so the command gives it this one
SYNTH_SEED = 0


def _frame_stride(settings: Settings, api) -> int:
    stride = _setting(settings, "frame_stride", _default(api, "frame_stride"))
    if stride < 1:
        raise ValueError("frame_stride must be >= 1")
    return stride


def _add_common(p: argparse.ArgumentParser, seed_help: str | None = None):
    """--config, and --seed when the command draws random numbers."""
    if seed_help is not None:
        p.add_argument("--seed", type=int, default=None, help=seed_help)
    p.add_argument("--config", default=None, help="file of 'key = value' lines, one setting each; flags override it")


def _add_training(p: argparse.ArgumentParser):
    """The flags `train` and `finetune` share; their defaults are TrainConfig's."""
    c = T.TrainConfig
    p.add_argument("--manifest", required=True, help="manifest CSV; its train rows are trained on")
    p.add_argument("--out", required=True, help="run directory for checkpoints and loss_log.csv")
    p.add_argument("--epochs", type=int, default=None, help=f"epochs to train, >= 1 (default {c.epochs})")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                   help=f"clips per step, >= 2 (default {c.batch_size})")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None,
                   help=f"epochs between checkpoints, >= 1; the last epoch is always saved "
                   f"(default {c.checkpoint_every})")


def _add_rows(p: argparse.ArgumentParser, what: str):
    """--checkpoint, --manifest and --split of a command that scores manifest rows."""
    p.add_argument("--checkpoint", required=True, help="5-trait base network checkpoint from train")
    p.add_argument("--manifest", required=True, help="manifest CSV of the clips")
    p.add_argument("--split", default=None, choices=list(D.SPLITS) + [ALL_ROWS],
                   help=f"manifest split to {what}, or {ALL_ROWS} rows (default {ALL_ROWS})")


def build_parser() -> _Parser:
    parser = _Parser(prog="avtrait", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    training_seed_help = f"master seed of data order, crops and initial weights (default {T.TrainConfig.seed})"
    stride_help = f"score every n-th frame, >= 1 (default {_default(T.evaluate, 'frame_stride')})"

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p, f"seed of every clip and label (default {SYNTH_SEED})")
    p.add_argument("--n", type=int, required=True, help="clips to write, >= 1")
    p.add_argument("--out", required=True, help="directory for the clips and manifest.csv; made if missing")
    p.add_argument("--val-n", dest="val_n", type=int, default=None,
                   help=f"clips tagged validation, after the train clips; >= 0, and with --test-n at most --n "
                   f"(default {_default(D.synth_dataset, 'val_count')})")
    p.add_argument("--test-n", dest="test_n", type=int, default=None,
                   help=f"clips tagged test, after the validation clips; >= 0, and with --val-n at most --n "
                   f"(default {_default(D.synth_dataset, 'test_count')})")
    p.add_argument("--seconds", type=float, default=None,
                   help=f"clip length in seconds, at {D.SAMPLE_RATE} Hz audio and {D.FPS} fps; "
                   f"at least one frame (default {_default(D.synth_dataset, 'seconds')})")
    for extent in ("height", "width"):
        p.add_argument(f"--{extent}", type=int, default=None,
                       help=f"frame {extent} in pixels, 1 to {D.EXTENT_LIMIT - 1} "
                       f"(default {_default(D.synth_dataset, extent)})")

    p = sub.add_parser("train", help="train the challenge model")
    _add_common(p, training_seed_help)
    _add_training(p)
    p.add_argument("--mini", action="store_true", default=None,
                   help=f"miniature network (channels / 8, one block per stage) at {T.MINI_AUDIO_CROP}-sample "
                   f"and {T.MINI_FRAME_CROP} px crops; the full one crops {T.FULL_AUDIO_CROP} samples "
                   f"and {T.FULL_FRAME_CROP} px")
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue training from, with its optimizer and generator state")

    p = sub.add_parser("eval", help="full-clip evaluation of a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint from train or finetune")
    p.add_argument("--manifest", required=True, help="manifest CSV of the clips")
    p.add_argument("--split", default=None, choices=list(D.SPLITS),
                   help=f"manifest split to score (default {_default(T.evaluate, 'split')})")
    p.add_argument("--frame-stride", dest="frame_stride", type=int, default=None, help=stride_help)
    p.add_argument("--out", default=None, help="report CSV (default: eval_<split>.csv next to the checkpoint)")

    p = sub.add_parser("predict", help="one trait line per clip")
    _add_common(p)
    _add_rows(p, "predict")
    p.add_argument("--frame-stride", dest="frame_stride", type=int, default=None, help=stride_help)
    p.add_argument("--out", default=None, help="predictions CSV, also printed (default: printed only)")

    p = sub.add_parser("finetune", help="per-trait fine-tuning from a base checkpoint")
    _add_common(p, training_seed_help)
    p.add_argument("--checkpoint", required=True, help="5-trait base network checkpoint from train")
    p.add_argument("--trait", required=True, help=f"trait index 0-{len(D.TRAITS) - 1} or name: {', '.join(D.TRAITS)}")
    _add_training(p)

    p = sub.add_parser("extract-features", help="per-second pooled features for the recurrent head")
    _add_common(p)
    _add_rows(p, "extract")
    p.add_argument("--out", required=True, help="feature cache file")

    r = R.RnnTrainConfig
    p = sub.add_parser("train-rnn", help="train the recurrent head on cached features")
    _add_common(p, f"seed of the head's weights, dropout masks and clip order (default {r.seed})")
    p.add_argument("--features", required=True, help="feature cache file from extract-features")
    p.add_argument("--manifest", required=True, help="manifest CSV holding each cached clip's labels")
    p.add_argument("--out", required=True, help="head checkpoint file")
    p.add_argument("--epochs", type=int, default=None, help=f"epochs to train, >= 1 (default {r.epochs})")
    p.add_argument("--hidden", type=int, default=None,
                   help=f"units in each LSTM layer, >= 1 (default {_default(R.build_rnn_head, 'hidden')})")

    p = sub.add_parser("predict-rnn", help="recurrent-head predictions, one line per clip")
    _add_common(p)
    _add_rows(p, "predict")
    p.add_argument("--rnn-head", dest="rnn_head", required=True, help="head checkpoint file from train-rnn")
    p.add_argument("--out", default=None, help="predictions CSV, also printed (default: printed only)")

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    _add_common(p, f"seed of the checked inputs and weights (default {_default(G.run_gradcheck, 'seed')})")
    p.add_argument("--mini", action="store_true", default=None, help="include the full miniature-network check")

    return parser


# ---------------------------------------------------------------------------
# command bodies

def _base_and_rows(s: Settings, command: str):
    """The 5-trait base checkpoint, the manifest and its --split rows (all by default)."""
    s.refuse_unread()
    ckpt = T.load_checkpoint(s.get("checkpoint"))
    if ckpt.arch.out_dim != 5:
        raise ValueError(f"{command} uses the 5-trait base network")
    manifest = D.load_manifest(s.get("manifest"))
    split = s.get("split", ALL_ROWS)
    return ckpt, manifest, manifest.rows if split == ALL_ROWS else manifest.split_rows(split)


def _trait_index(raw: str) -> int:
    if raw in D.TRAITS:
        return D.TRAITS.index(raw)
    try:
        idx = int(raw)
    except ValueError:
        raise UsageError(f"--trait must be an index or one of {D.TRAITS}") from None
    if not 0 <= idx < len(D.TRAITS):
        raise UsageError(f"--trait index must be in [0, {len(D.TRAITS)}), got {idx}")
    return idx


def _train_config(s: Settings, **fixed) -> T.TrainConfig:
    """The TrainConfig of `fixed` and the training settings given; TrainConfig checks them all."""
    return T.TrainConfig(
        **_given(s, ("epochs", "batch_size", "seed", "checkpoint_every", "audio_crop", "frame_crop", "lr_period")),
        **_given(s, ("initial_alpha",), float),
        **fixed,
    )


def _cmd_synth(s: Settings) -> int:
    s.refuse_unread()
    manifest = D.synth_dataset(
        n=_setting(s, "n"),
        seed=_setting(s, "seed", SYNTH_SEED),
        out_dir=s.get("out"),
        **_given(s, {"val_n": "val_count", "test_n": "test_count", "height": "height", "width": "width"}),
        **_given(s, ("seconds",), float),
    )
    print(f"wrote {len(manifest.rows)} clips and manifest.csv under {s.get('out')}")
    return 0


def _cmd_train(s: Settings) -> int:
    fixed = {"out_dir": s.get("out")}
    if s.get("mini") is not None:
        fixed["mini"] = bool(s.get("mini"))
    config = _train_config(s, **fixed)
    s.refuse_unread()
    manifest = D.load_manifest(s.get("manifest"))
    result = T.train(config, manifest, resume=s.get("resume"))
    last_epoch, alpha, mae = result.losses[-1]
    print(f"epoch {last_epoch} alpha {alpha:.8g} train_mae {mae:.6f}")
    print(f"checkpoint {result.checkpoint_path}")
    return 0


def _cmd_eval(s: Settings) -> int:
    stride = _frame_stride(s, T.evaluate)
    s.refuse_unread()
    ckpt = T.load_checkpoint(s.get("checkpoint"))
    manifest = D.load_manifest(s.get("manifest"))
    split = s.get("split", _default(T.evaluate, "split"))
    trait = ckpt.trait if ckpt.arch.out_dim == 1 else None
    text = T.evaluate(ckpt.arch, ckpt.params, manifest, split, stride, trait=trait).csv()
    out = s.get("out") or os.path.join(os.path.dirname(os.path.abspath(s.get("checkpoint"))), f"eval_{split}.csv")
    D.atomic_write_text(out, text)
    sys.stdout.write(text)
    return 0


def _write_predictions(s: Settings, results: list) -> int:
    """One `clip_id,trait,...` line per usable clip, to stdout and --out."""
    usable = T.readable(results, s.get("split", ALL_ROWS))
    text = "".join(row.clip_id + "," + ",".join(f"{float(v):.6f}" for v in pred) + "\n" for row, pred in usable)
    if s.get("out"):
        D.atomic_write_text(s.get("out"), text)
    sys.stdout.write(text)
    return 0


def _cmd_predict(s: Settings) -> int:
    stride = _frame_stride(s, T.predict_rows)
    ckpt, manifest, rows = _base_and_rows(s, "predict")
    return _write_predictions(s, T.predict_rows(ckpt.arch, ckpt.params, manifest, rows, stride))


def _cmd_finetune(s: Settings) -> int:
    trait = _trait_index(str(s.get("trait")))
    # the checks do not look at the crops, so the base's architecture can
    # join the config after it is read
    config = _train_config(s, out_dir=s.get("out"))
    s.refuse_unread()
    base = T.load_checkpoint(s.get("checkpoint"))
    manifest = D.load_manifest(s.get("manifest"))
    config = replace(config, mini=base.mini)
    result = T.finetune_per_trait(base, trait, config, manifest)
    last_epoch, alpha, mae = result.losses[-1]
    print(f"trait {D.TRAITS[trait]} epoch {last_epoch} train_mae {mae:.6f}")
    print(f"checkpoint {result.checkpoint_path}")
    return 0


def _cmd_extract_features(s: Settings) -> int:
    ckpt, manifest, rows = _base_and_rows(s, "extract-features")
    results = T.map_clips(manifest, rows, lambda clip: R.extract_features(clip, ckpt.arch, ckpt.params))
    named = {f"feat.{row.clip_id}": feats for row, feats in T.readable(results, s.get("split", ALL_ROWS))}
    T.write_tensor_container(s.get("out"), named)
    print(f"wrote {len(named)} feature sequences to {s.get('out')}")
    return 0


def load_feature_cache(path: str) -> dict:
    """{clip id: (T, D) features}, every clip's D the same."""
    _, named, _ = T.read_tensor_container(path)
    out = {}
    for name, arr in named.items():
        if not name.startswith("feat.") or arr.ndim != 2:
            raise T.CheckpointManifestError(f"{path}: unexpected tensor {name!r} in feature cache")
        out[name[len("feat.") :]] = arr
    first = next(iter(out), None)
    for clip_id, arr in out.items():
        if arr.shape[1] != out[first].shape[1]:
            raise T.CheckpointManifestError(
                f"{path}: feature cache clip {clip_id!r} has {arr.shape[1]}-wide features, "
                f"but clip {first!r} has {out[first].shape[1]}-wide ones"
            )
    return out


def _cmd_train_rnn(s: Settings) -> int:
    config = R.RnnTrainConfig(**_given(s, ("epochs", "seed")))
    hidden = _given(s, ("hidden",))
    if hidden:  # before any input is read, as RnnTrainConfig checks its settings
        R.check_hidden(hidden["hidden"])
    s.refuse_unread()
    feats = load_feature_cache(s.get("features"))
    manifest = D.load_manifest(s.get("manifest"))
    labels = {row.clip_id: row.traits.astype(np.float32) for row in manifest.rows}
    sequences = []
    for clip_id in sorted(feats):
        if clip_id not in labels:
            raise D.ManifestError(f"feature cache clip {clip_id!r} missing from manifest")
        sequences.append((feats[clip_id], labels[clip_id]))
    if not sequences:
        raise D.ManifestError("feature cache is empty")
    input_dim = sequences[0][0].shape[1]
    params = R.build_rnn_head(config.seed, input_dim=input_dim, **hidden)
    losses = R.train_rnn(sequences, params, config)
    T.write_tensor_container(s.get("out"), params)
    print(f"epoch {len(losses) - 1} train_mae {losses[-1]:.6f}")
    print(f"rnn head {s.get('out')}")
    return 0


def _cmd_predict_rnn(s: Settings) -> int:
    ckpt, manifest, rows = _base_and_rows(s, "predict-rnn")
    _, head, _ = T.read_tensor_container(s.get("rnn_head"))
    R.head_dims(head)
    results = T.map_clips(manifest, rows, lambda clip: R.predict_rnn(clip, ckpt.arch, ckpt.params, head))
    return _write_predictions(s, results)


def _cmd_gradcheck(s: Settings) -> int:
    s.refuse_unread()
    rows, ok = run_gradcheck(include_network=bool(s.get("mini", False)), **_given(s, ("seed",)))
    print(f"{'layer':30s} {'max_rel_err':>12s} {'tolerance':>10s} result")
    for r in rows:
        print(f"{r.name:30s} {r.max_rel_err:12.3e} {r.tolerance:10.0e} {'pass' if r.passed else 'FAIL'}")
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "finetune": _cmd_finetune,
    "extract-features": _cmd_extract_features,
    "train-rnn": _cmd_train_rnn,
    "predict-rnn": _cmd_predict_rnn,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = read_config_file(args.config) if getattr(args, "config", None) else {}
        settings = Settings(args, config)
        return _COMMANDS[args.command](settings)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
