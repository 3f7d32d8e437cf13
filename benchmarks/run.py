#!/usr/bin/env python3
"""Benchmark of avtrait: one workload per call, end-to-end metrics or a traced per-layer table.

    python3 benchmarks/run.py --workload clip_infer --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 1

The program is imported from the ``src/`` directory of the checkout this
file sits in. Inputs are generated from ``--seed`` under ``.bench_work/``
and removed afterwards; a JSON record of each run is kept under
``.bench_work/results/``. The timed passes run in a fresh child process, so
``peak_rss_mb`` is the high-water mark of the timed region and not of input
generation. With ``--trace 1`` an untraced and a traced child both run; the
traced one reports the per-layer table and the gap between them is the
tracing overhead.

Every line but the last is for people: each metric by name with its unit.
The last line is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 1 when an output check fails and 2 when the
program cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3
MIN_PASSES = 3
CALIBRATION_SAMPLES = 5
# The calibration kernel's median time on the reference machine (2-core
# Intel Xeon 2.0 GHz VM, numpy 2.4.6, OpenBLAS 0.3.31 on 2 threads).
# pass_norm_s and setup_s are rescaled to that machine speed.
CALIBRATION_REF_S = 0.05
CHILD_TIMEOUT_S = 75  # a child normally ends within 40 s; two of them plus set-up stay under 180 s

# name -> unit of the end-to-end metrics; BENCHMARK.json fixes their bounds
END_TO_END = {"pass_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# phase rates and quality each workload prints next to them, by name -> unit
WORK_UNITS = {
    "infer_video_s_per_s": "s/s",
    "train_samples_per_s": "1/s",
    "extract_video_s_per_s": "s/s",
    "rnn_train_steps_per_s": "1/s",
    "rnn_video_s_per_s": "s/s",
    "val_accuracy": "ratio",
    "failed_frac": "ratio",
}


def _import_program():
    """Import avtrait from this checkout's src/, or return None."""
    if not os.path.isfile(os.path.join(SRC, "avtrait", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import avtrait

    if os.path.dirname(os.path.dirname(os.path.abspath(avtrait.__file__))) != SRC:
        return None
    return avtrait


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
    }


def _blas_threads():
    """OpenBLAS's thread count, asked from the loaded library; None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# child: the timed passes


def calibrate() -> list:
    """Times of a fixed numpy + Python kernel: the machine's current speed.

    On a shared machine the same pass can run 20-40% slower for tens of
    minutes while neighbours are busy. The kernel mixes what the program
    spends its time on (float32 matrix products on the BLAS threads,
    memory-bound elementwise passes, interpreted Python); it is timed
    before the first pass and after every pass, and ``pass_norm_s`` and
    ``setup_s`` rescale the median pass and set-up by the median of these
    times. Its arrays live
    only inside this call and do not add to peak memory.
    """
    import numpy as np

    a = np.full((4096, 576), 0.5, dtype=np.float32)
    b = np.full((576, 64), 0.25, dtype=np.float32)
    x = np.full(1 << 21, 0.5, dtype=np.float32)
    y = np.empty_like(x)

    def once() -> float:
        t0 = time.perf_counter()
        for _ in range(8):
            a @ b
        for _ in range(8):
            np.multiply(x, 1.5, out=y)
            np.add(y, 0.25, out=y)
            np.maximum(y, 0.0, out=y)
            y.sum()
        total = 0
        for i in range(80000):
            total += i
        return time.perf_counter() - t0

    return [once() for _ in range(CALIBRATION_SAMPLES)]


def _peak_rss_mb() -> float:
    """This process's resident-memory high-water mark, in MB.

    ``ru_maxrss`` would also count the parent's resident memory from before
    the child's exec, so the set-up's memory could mask the passes'. VmHWM
    belongs to the address space the exec created.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def child_main(job_path: str) -> int:
    import workloads
    from tracer import ROOT as ROOT_SPAN, Tracer, per_layer

    with open(job_path) as fh:
        job = json.load(fh)
    sizes = workloads.Sizes(**job["sizes"])
    wl = workloads.WORKLOADS[job["workload"]](sizes)
    wl.load(job["inputs"], job["seed"])
    tracer = Tracer() if job["trace"] else None
    record = {"pass_s": [], "calibration_s": [], "outputs": [], "work": [], "attempted": 0, "failed": 0, "error": None}
    record["calibration_s"] += calibrate()
    start = time.perf_counter()
    try:
        while len(record["pass_s"]) < MIN_PASSES or time.perf_counter() - start < job["seconds"]:
            pass_dir = os.path.join(job["work"], f"pass{len(record['pass_s'])}")
            if tracer is None:
                result = wl.run_pass(pass_dir)
            else:
                with tracer.installed(), tracer.span(ROOT_SPAN):
                    result = wl.run_pass(pass_dir)
            workloads.clear(pass_dir)
            record["calibration_s"] += calibrate()
            record["pass_s"].append(result.seconds)
            record["outputs"].append(result.outputs)
            record["work"].append(result.work)
            record["attempted"] += result.attempted
            record["failed"] += result.failed
    except Exception:
        record["error"] = traceback.format_exc()
        record["attempted"] += 1
        record["failed"] += 1
    record["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None and record["pass_s"]:
        record["per_layer"] = per_layer(tracer.spans, len(record["pass_s"]), wl.scored_frames())
        os.makedirs(job["spans"], exist_ok=True)
        with open(os.path.join(job["spans"], f"{job['workload']}-seed{job['seed']}-{os.getpid()}.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    with open(os.path.join(job["work"], "child.json"), "w") as fh:
        json.dump(record, fh)
    return 0


def _spawn(job: dict, tag: str) -> dict:
    job_path = os.path.join(job["work"], f"job-{tag}.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    result_path = os.path.join(job["work"], "child.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", job_path],
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=False,
        )
        error = None if proc.returncode == 0 else f"child process exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"child process killed after {CHILD_TIMEOUT_S} s"
    if error or not os.path.exists(result_path):
        return {"pass_s": [], "calibration_s": [], "outputs": [], "work": [], "attempted": 1, "failed": 1, "peak_rss_mb": 0.0,
                "error": error or "child process wrote no result"}
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# parent: set-up, children, checks, report


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, work_root=None) -> dict:
    """Set up, run the timed child (and the traced one), check outputs; one record."""
    import workloads

    sizes = sizes or workloads.FULL
    work_root = work_root or os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{name}-s{seed}-p{os.getpid()}")
    spans = os.path.join(work_root, "spans")
    inputs = os.path.join(work, "inputs")
    wl = workloads.WORKLOADS[name](sizes)
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            workloads.clear(work)
            t0 = time.perf_counter()
            wl.setup(inputs, seed)
            setup_s.append(time.perf_counter() - t0)
        job = {"workload": name, "seed": seed, "seconds": seconds, "inputs": inputs, "work": work,
               "spans": spans, "sizes": dict(vars(sizes)), "trace": False}
        runs = [_spawn(job, "plain")]
        if trace:
            runs.append(_spawn(dict(job, trace=True), "traced"))
        problems = [run["error"] for run in runs if run["error"]]
        problems += wl.check([out for run in runs for out in run["outputs"]])
    finally:
        workloads.clear(work)

    plain = runs[0]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    record = {
        "workload": name,
        "env": environment(seed),
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "pass_s": plain["pass_s"],
        "calibration_s": plain["calibration_s"],
        "metrics": {
            "pass_norm_s": _normalised(plain),
            "setup_s": _normalised(plain, setup_s),
            "peak_rss_mb": plain["peak_rss_mb"],
        },
        "work": {k: _median([w[k] for w in plain["work"]]) for k in (plain["work"][0] if plain["work"] else {})},
    }
    record["work"]["failed_frac"] = failed / attempted
    if trace:
        traced = runs[1]
        layer = traced.get("per_layer")
        if layer is None:
            from tracer import metric_units

            layer = dict.fromkeys(metric_units(), 0.0)
        layer["trace.pass_s"] = _normalised(traced)
        base = record["metrics"]["pass_norm_s"]
        layer["trace.overhead_frac"] = layer["trace.pass_s"] / base - 1.0 if base else 0.0
        record["per_layer"] = layer
    return record


def _normalised(run: dict, seconds=None) -> float:
    """A median time (by default the run's median pass) rescaled by the run's
    median calibration time to the reference machine speed."""
    times = run["pass_s"] if seconds is None else seconds
    if not times or not run["calibration_s"]:
        return _median(times)
    return statistics.median(times) * CALIBRATION_REF_S / statistics.median(run["calibration_s"])


def _median(values):
    return statistics.median(values) if values else 0.0


def report(record: dict) -> dict:
    """Print one record for people; return the contract's JSON object."""
    from tracer import metric_units

    name = record["workload"]
    print(f"{name}: env {json.dumps(record['env'], sort_keys=True)}")
    print(f"{name}: {len(record['pass_s'])} timed passes {['%.4f' % s for s in record['pass_s']]} s "
          f"(wall median {_median(record['pass_s']):.4f} s); calibration kernel {['%.4f' % s for s in record['calibration_s']]} s; "
          f"set-up {['%.4f' % s for s in record['setup_s']]} s")
    for metric, unit in END_TO_END.items():
        print(f"{name}: {metric} {record['metrics'][metric]:.6g} {unit}")
    for metric, value in record["work"].items():
        print(f"{name}: {metric} {value:.6g} {WORK_UNITS[metric]}")
    if record["trace"]:
        units = metric_units()
        for metric, value in record["per_layer"].items():
            print(f"{name}: {metric} {value:.6g} {units[metric]}")
    for problem in record["problems"]:
        print(f"{name}: CHECK FAILED: {problem.strip()}")
    if record["trace"]:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def save(record: dict) -> str:
    directory = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(directory, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(directory, f"{record['workload']}-seed{record['env']['seed']}-trace{int(record['trace'])}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if _import_program() is None:
        print(f"cannot import avtrait from {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child)

    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: record {save(record)}")
        results[name] = report(record)
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
