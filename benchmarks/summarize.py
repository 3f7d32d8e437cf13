#!/usr/bin/env python3
"""Summarise run records into medians, quartiles and spreads per workload.

    python3 benchmarks/summarize.py .bench_work/results/*.json
    python3 benchmarks/summarize.py --out benchmarks/results/baseline.json .bench_work/results/*.json

Untraced records give the end-to-end table (spread = interquartile range
over the median, as ``statistics.quantiles(values, n=4)`` gives it); traced
records give the per-layer table (median over runs). The wall-clock pass
time, each workload's phase rates and the calibration kernel's time are
summarised next to the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def describe(values: list) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def summarise(records: list) -> dict:
    out = {}
    for rec in records:
        wl = out.setdefault(rec["workload"], {"end_to_end": {}, "per_pass": {}, "per_layer": {}, "env": rec["env"], "seeds": []})
        wl["seeds"].append(rec["env"]["seed"])
        if rec["trace"]:
            for k, v in rec["per_layer"].items():
                wl["per_layer"].setdefault(k, []).append(v)
            continue
        for k, v in rec["metrics"].items():
            wl["end_to_end"].setdefault(k, []).append(v)
        wl["per_pass"].setdefault("pass_s", []).append(statistics.median(rec["pass_s"]))
        wl["per_pass"].setdefault("calibration_s", []).append(statistics.median(rec["calibration_s"]))
        for k, v in rec["work"].items():
            wl["per_pass"].setdefault(k, []).append(v)
    for wl in out.values():
        wl["env"] = {k: v for k, v in wl["env"].items() if k != "seed"}
        wl["seeds"] = sorted(set(wl["seeds"]))
        for table in ("end_to_end", "per_pass"):
            wl[table] = {k: describe(v) for k, v in wl[table].items()}
        wl["per_layer"] = {k: statistics.median(v) for k, v in wl["per_layer"].items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("records", nargs="+")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    records = []
    for path in args.records:
        with open(path) as fh:
            records.append(json.load(fh))
    summary = summarise(records)
    for name, wl in summary.items():
        for table in ("end_to_end", "per_pass"):
            for metric, d in wl[table].items():
                print(f"{name:10s} {metric:24s} n={d['n']:2d} median {d['median']:.6g} "
                      f"q1 {d['q1']:.6g} q3 {d['q3']:.6g} spread {d['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
