"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

assert run._import_program() is not None
import tracer  # noqa: E402
import workloads  # noqa: E402
from avtrait import data, layers, model, optim, rnn_head, train  # noqa: E402

TINY = workloads.Sizes(
    mini=True, infer_seconds=0.4, infer_height=40, infer_width=40, frame_stride=2,
    train_clips=2, train_seconds=0.2, train_height=32, train_width=32, train_batch=2, train_epochs=2,
    train_audio_crop=1024, train_frame_crop=32,
    desk_clips=4, desk_holdout=2, desk_seconds=1.0, desk_side=32, desk_batch=2, desk_epochs=2,
    desk_checkpoint_every=1, desk_audio_crop=1024, desk_frame_crop=32, desk_rnn_epochs=1, desk_rnn_hidden=8,
)
MODULES = (data, layers, model, optim, rnn_head, train)


def _declared():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return spec, end_to_end, per_layer


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("bench"))
    return {name: run.run_workload(name, 3, 0.01, True, TINY, work_root=root) for name in workloads.WORKLOADS}


def test_every_named_metric_is_emitted_with_its_unit(records):
    spec, end_to_end, per_layer = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.END_TO_END == end_to_end
    for name, record in records.items():
        assert record["correct"], (name, record["problems"])
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            out = run.report(dict(record, trace=trace))
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["attempted"] >= 1 and out["failed"] == 0
            assert {k: v["unit"] for k, v in out["metrics"].items()} == declared, (name, trace)
            assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
        for k in end_to_end:
            assert record["metrics"][k] > 0, (name, k)


def test_computed_counts_follow_the_workload(records):
    desk = records["desk_mini"]["per_layer"]
    assert desk["model.visual_frames_per_scored_frame"] == 2.0  # evaluate, then predict_rnn again
    infer = records["clip_infer"]["per_layer"]
    assert infer["model.visual_frames_per_scored_frame"] == 1.0
    assert infer["layers.conv_backward.s"] == 0.0 and infer["layers.conv_backward.gflop"] == 0.0
    full = records["train_full"]["per_layer"]
    assert full["data.load_clip.calls_per_clip"] == 1.0  # the clip cache holds across epochs
    assert full["layers.conv_backward.gflop"] == pytest.approx(2 * full["layers.conv_forward.gflop"])
    assert full["optim.adam_step.calls"] == TINY.train_epochs
    for stream in tracer.STREAMS:
        for entry in ("stem.conv", "stage4.block1", "gap"):
            assert full[f"{stream}.{entry}.fwd_s"] > 0 and full[f"{stream}.{entry}.bwd_s"] > 0


def _snapshot():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def _traced_pass(tmp_path, name="train_full"):
    wl = workloads.WORKLOADS[name](TINY)
    wl.setup(str(tmp_path / "inputs"), 5)
    wl.load(str(tmp_path / "inputs"), 5)
    t = tracer.Tracer()
    before = _snapshot()
    with t.installed():
        assert model.conv_forward is not before[("avtrait.model", "conv_forward")]
        assert layers.conv_forward is model.conv_forward  # one wrapper in every namespace
        with t.span(tracer.ROOT):
            wl.run_pass(str(tmp_path / "pass"))
    return t, before


def test_traced_run_restores_every_module_attribute(tmp_path):
    _, before = _traced_pass(tmp_path)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_children_never_exceed_their_parent_span(tmp_path):
    t, _ = _traced_pass(tmp_path, "desk_mini")
    spans = t.spans
    own = tracer.self_times(spans)
    assert len(spans) > 100
    for i, (_, start, end, parent, _) in enumerate(spans):
        assert own[i] >= -1e-9
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            assert own[i] <= spans[parent][2] - spans[parent][1]


def test_self_time_subtracts_covered_child_time():
    spans = [["root", 0.0, 10.0, -1, {}], ["a", 1.0, 4.0, 0, {}], ["b", 2.0, 3.0, 1, {}], ["c", 5.0, 6.0, 0, {}]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "clip_infer", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_peak_memory_excludes_the_parents():
    parent = np.ones(150_000_000 // 8)  # resident in this process while the child starts
    code = f"import sys; sys.path.insert(0, {BENCH!r}); import run; print(run._peak_rss_mb())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert float(out.stdout) < 100.0
    del parent
