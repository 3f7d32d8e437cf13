"""Command-line surface tying the modules into reproducible runs.

Subcommands: synth, train, eval, predict, finetune, extract-features,
train-rnn, predict-rnn, gradcheck. Every command accepts --seed and
--config; all stochastic behavior flows from the seed. An optional config
file holds plain ``key = value`` lines; explicit flags override it.

The multi-clip commands eval, predict, extract-features and predict-rnn
score one clip at a time. Each skips, with a warning, a clip it cannot use
(unreadable, corrupt, or for per-second features under one second), and
exits 2 only when no clip is usable.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as D
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


class Settings:
    """Flag > config file > default, per key."""

    def __init__(self, args, config: dict):
        self.args = args
        self.config = config

    def get(self, key: str, default=None):
        v = getattr(self.args, key, None)
        if v is None:
            v = self.config.get(key, default)
        return v


def _setting(settings: Settings, key: str, default=None, name: str = "", cast=int):
    """The setting `key` read as `cast` (int or float), or None if it is unset and has no default.

    A value that `cast` refuses is a usage error naming the setting
    (`name`, else `key`).
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
        raise UsageError(f"{name or key} must be {kind}, got {v!r}") from None


def _frame_stride(settings: Settings) -> int:
    stride = _setting(settings, "frame_stride", 1)
    if stride < 1:
        raise ValueError("frame_stride must be >= 1")
    return stride


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--config", default=None, help="key = value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="avtrait", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--val-n", dest="val_n", type=int, default=None)
    p.add_argument("--test-n", dest="test_n", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)

    p = sub.add_parser("train", help="train the challenge model")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--mini", action="store_true", default=None)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)
    p.add_argument("--resume", default=None)

    p = sub.add_parser("eval", help="full-clip evaluation of a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default=None, choices=list(D.SPLITS))
    p.add_argument("--frame-stride", dest="frame_stride", type=int, default=None)
    p.add_argument("--out", default=None, help="report CSV (default: next to the checkpoint)")

    p = sub.add_parser("predict", help="one trait line per clip")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default=None, choices=list(D.SPLITS) + ["all"])
    p.add_argument("--frame-stride", dest="frame_stride", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("finetune", help="per-trait fine-tuning from a base checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trait", required=True, help="index 0-4 or trait name")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--mini", action="store_true", default=None)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)

    p = sub.add_parser("extract-features", help="per-second pooled features for the recurrent head")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default=None, choices=list(D.SPLITS) + ["all"])
    p.add_argument("--out", required=True, help="feature cache file")

    p = sub.add_parser("train-rnn", help="train the recurrent head on cached features")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="head checkpoint file")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--trunc", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--hidden", type=int, default=None)

    p = sub.add_parser("predict-rnn", help="recurrent-head predictions, one line per clip")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="base network checkpoint")
    p.add_argument("--rnn-head", dest="rnn_head", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default=None, choices=list(D.SPLITS) + ["all"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    _add_common(p)
    p.add_argument("--mini", action="store_true", default=None, help="include the full miniature-network check")

    return parser


# ---------------------------------------------------------------------------
# command bodies

def _base_and_rows(s: Settings, command: str):
    """The 5-trait base checkpoint, the manifest and its --split rows (all by default)."""
    ckpt = T.load_checkpoint(s.get("checkpoint"))
    if ckpt.arch.out_dim != 5:
        raise ValueError(f"{command} uses the 5-trait base network")
    manifest = D.load_manifest(s.get("manifest"))
    split = s.get("split", "all")
    return ckpt, manifest, manifest.rows if split == "all" else manifest.split_rows(split)


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


def _train_config(s: Settings, out_dir: str, mini) -> T.TrainConfig:
    return T.TrainConfig(
        epochs=_setting(s, "epochs", 900),
        batch_size=_setting(s, "batch_size", 32),
        seed=_setting(s, "seed", 0),
        checkpoint_every=_setting(s, "checkpoint_every", 100),
        out_dir=out_dir,
        mini=bool(mini),
        audio_crop=_setting(s, "audio_crop"),
        frame_crop=_setting(s, "frame_crop"),
        initial_alpha=_setting(s, "initial_alpha", 2e-4, cast=float),
        lr_decay_factor=_setting(s, "lr_decay_factor", 10.0, cast=float),
        lr_period=_setting(s, "lr_period", 300),
        beta1=_setting(s, "beta1", 0.5, cast=float),
        beta2=_setting(s, "beta2", 0.999, cast=float),
        epsilon=_setting(s, "epsilon", 1e-8, cast=float),
    )


def _cmd_synth(s: Settings) -> int:
    manifest = D.synth_dataset(
        n=_setting(s, "n"),
        seed=_setting(s, "seed", 0),
        out_dir=s.get("out"),
        val_count=_setting(s, "val_n", 0),
        test_count=_setting(s, "test_n", 0),
        seconds=_setting(s, "seconds", 2.0, cast=float),
        height=_setting(s, "height", 48),
        width=_setting(s, "width", 48),
    )
    print(f"wrote {len(manifest.rows)} clips and manifest.csv under {s.get('out')}")
    return 0


def _cmd_train(s: Settings) -> int:
    config = _train_config(s, s.get("out"), s.get("mini", False))
    manifest = D.load_manifest(s.get("manifest"))
    result = T.train(config, manifest, resume=s.get("resume"))
    last_epoch, alpha, mae = result.losses[-1]
    print(f"epoch {last_epoch} alpha {alpha:.8g} train_mae {mae:.6f}")
    print(f"checkpoint {result.checkpoint_path}")
    return 0


def _cmd_eval(s: Settings) -> int:
    stride = _frame_stride(s)
    ckpt = T.load_checkpoint(s.get("checkpoint"))
    manifest = D.load_manifest(s.get("manifest"))
    split = s.get("split", "validation")
    single = ckpt.arch.out_dim == 1
    trait = ckpt.trait if single else None
    report = T.evaluate(ckpt.arch, ckpt.params, manifest, split, stride, trait=trait)
    if single:
        acc = report.per_trait[0]
        text = f"trait,{D.TRAITS[trait]},accuracy,{acc:.6f},clips,{report.clips},excluded,{report.excluded}\n"
    else:
        text = report.csv()
    out = s.get("out") or os.path.join(os.path.dirname(os.path.abspath(s.get("checkpoint"))), f"eval_{split}.csv")
    D.atomic_write_text(out, text)
    sys.stdout.write(text)
    return 0


def _write_predictions(s: Settings, results: list) -> int:
    """One `clip_id,trait,...` line per usable clip, to stdout and --out."""
    usable = T.readable(results, s.get("split", "all"))
    text = "".join(row.clip_id + "," + ",".join(f"{float(v):.6f}" for v in pred) + "\n" for row, pred in usable)
    if s.get("out"):
        D.atomic_write_text(s.get("out"), text)
    sys.stdout.write(text)
    return 0


def _cmd_predict(s: Settings) -> int:
    stride = _frame_stride(s)
    ckpt, manifest, rows = _base_and_rows(s, "predict")
    return _write_predictions(s, T.predict_rows(ckpt.arch, ckpt.params, manifest, rows, stride))


def _cmd_finetune(s: Settings) -> int:
    trait = _trait_index(str(s.get("trait")))
    # the checks do not look at the crops, so the base's miniature flag can
    # join the config after it is read
    config = _train_config(s, s.get("out"), s.get("mini", False))
    base = T.load_checkpoint(s.get("checkpoint"))
    manifest = D.load_manifest(s.get("manifest"))
    if base.mini and not config.mini:
        config = replace(config, mini=True)
    result = T.finetune_per_trait(base, trait, config, manifest)
    last_epoch, alpha, mae = result.losses[-1]
    print(f"trait {D.TRAITS[trait]} epoch {last_epoch} train_mae {mae:.6f}")
    print(f"checkpoint {result.checkpoint_path}")
    return 0


def _cmd_extract_features(s: Settings) -> int:
    ckpt, manifest, rows = _base_and_rows(s, "extract-features")
    results = T.map_clips(manifest, rows, lambda clip: R.extract_features(clip, ckpt.arch, ckpt.params))
    named = {f"feat.{row.clip_id}": feats for row, feats in T.readable(results, s.get("split", "all"))}
    T.write_tensor_container(s.get("out"), named)
    print(f"wrote {len(named)} feature sequences to {s.get('out')}")
    return 0


def load_feature_cache(path: str) -> dict:
    _, named, _ = T.read_tensor_container(path)
    out = {}
    for name, arr in named.items():
        if not name.startswith("feat.") or arr.ndim != 2:
            raise T.CheckpointManifestError(f"{path}: unexpected tensor {name!r} in feature cache")
        out[name[len("feat.") :]] = arr
    return out


def _cmd_train_rnn(s: Settings) -> int:
    config = R.RnnTrainConfig(
        epochs=_setting(s, "epochs", 100),
        seed=_setting(s, "seed", 0),
        trunc=_setting(s, "trunc", R.TRUNCATION),
        dropout=_setting(s, "dropout", R.DROPOUT_RATE, cast=float),
        alpha=_setting(s, "alpha", 2e-4, cast=float),
    )
    hidden = _setting(s, "hidden", R.RNN_HIDDEN)
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
    params = R.build_rnn_head(config.seed, input_dim=input_dim, hidden=hidden, out_dim=5)
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
    rows, ok = run_gradcheck(include_network=bool(s.get("mini", False)), seed=_setting(s, "seed", 0))
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
