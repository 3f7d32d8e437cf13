#!/usr/bin/env python3
"""End-to-end desk-scale experiment: synthesize, train, evaluate, fine-tune.

Runs the miniature configuration on generated data in a few minutes on one
core and prints the holdout report. A scratch directory holds everything.

    python3 scripts/desk_pipeline.py --workdir /tmp/desk --epochs 300
"""

import argparse
import os
import sys

import numpy as np

from avtrait import data as D
from avtrait import train as T


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="desk_run")
    ap.add_argument("--clips", type=int, default=80)
    ap.add_argument("--holdout", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--finetune-trait", type=int, default=None)
    args = ap.parse_args()

    data_dir = os.path.join(args.workdir, "data")
    print(f"[1/4] synthesizing {args.clips} clips under {data_dir}")
    manifest = D.synth_dataset(
        args.clips, seed=args.seed, out_dir=data_dir, val_count=args.holdout,
        seconds=1.0, height=64, width=64,
    )

    print(f"[2/4] training the miniature model for {args.epochs} epochs")
    config = T.TrainConfig(
        epochs=args.epochs,
        batch_size=32,
        seed=args.seed,
        checkpoint_every=100,
        out_dir=os.path.join(args.workdir, "run"),
        mini=True,
        audio_crop=16000,
        frame_crop=48,
        initial_alpha=2e-3,
        lr_period=150,
    )
    result = T.train(config, manifest)
    print(f"      final train MAE {result.losses[-1][2]:.4f}; checkpoint {result.checkpoint_path}")

    print("[3/4] whole-clip evaluation on the holdout split")
    report = T.evaluate(result.arch, result.params, manifest, "validation")
    print("      " + report.csv().replace("\n", "\n      ").rstrip())

    if args.finetune_trait is None:
        print("[4/4] skipping fine-tune (pass --finetune-trait 0..4 to run it)")
        return 0

    trait = args.finetune_trait
    print(f"[4/4] fine-tuning a single-output head for trait {D.TRAITS[trait]}")
    base = T.load_checkpoint(result.checkpoint_path)
    ft_config = T.TrainConfig(
        epochs=max(args.epochs // 2, 50),
        batch_size=32,
        seed=args.seed + 1,
        checkpoint_every=100,
        out_dir=os.path.join(args.workdir, "finetune"),
        mini=True,
        audio_crop=16000,
        frame_crop=48,
        initial_alpha=2e-3,
        lr_period=150,
    )
    ft = T.finetune_per_trait(base, trait, ft_config, manifest)
    ft_report = T.evaluate(ft.arch, ft.params, manifest, "validation", trait=trait)
    base_acc = float(report.per_trait[trait])
    print(f"      holdout accuracy {ft_report.average:.4f} over {ft_report.clips} clips (base model: {base_acc:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
