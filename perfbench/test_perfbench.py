"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import xfmr  # noqa: E402
import xfmr.tensor  # noqa: E402
from run import MIN_SAMPLES, tail, timed_phase  # noqa: E402
from tracer import OPS, Tracer, self_times, unit_figures  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_are_well_formed_and_unique():
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in workloads + metrics:
        assert NAME.fullmatch(name), name
    assert len(set(metrics)) == len(metrics)
    assert workloads == list(WORKLOADS)


def _snapshot():
    """Every attribute of every xfmr module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "xfmr" or name.startswith("xfmr."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def _traced_toy_forward(batch=2):
    model = xfmr.build_model(xfmr.toy_spec(), seed=0)
    images = np.random.default_rng(0).random((batch, 64, 64, 3), dtype=np.float32)
    tracer = Tracer()
    with tracer.installed(model):
        start = time.perf_counter_ns()
        logits = xfmr.model_forward(model, images)
        elapsed = time.perf_counter_ns() - start
    tracer.cut(elapsed)
    return model, images, logits, tracer


def test_tracing_restores_every_original():
    matmul = xfmr.tensor.matmul
    before = _snapshot()
    _traced_toy_forward()
    after = _snapshot()
    assert xfmr.tensor.matmul is matmul
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracing_keeps_outputs_and_counts_every_mac():
    model, images, logits, tracer = _traced_toy_forward()
    assert np.array_equal(logits.data, xfmr.model_forward(model, images).data)
    unit = tracer.units[0]
    root = unit["spans"][0]
    assert root[0] == "model.forward"
    spec = xfmr.toy_spec()
    flops = xfmr.count_flops(spec).entries
    bias = sum(v for k, v in flops.items() if k.endswith(".bias"))
    assert root[4] == 2 * (sum(flops.values()) - bias) + bias
    assert sum(self_times(unit["spans"])[i][1] for i in range(len(unit["spans"]))) == root[4]
    assert unit["dpb_rows"] > 0
    figures = unit_figures(unit)
    assert figures["bias.dpb_rows"] == unit["dpb_rows"]
    assert set(f"tensor.{op}.calls" for op in OPS) <= set(figures)


def test_self_times_are_non_negative_and_fit_the_enclosing_span():
    _, _, _, tracer = _traced_toy_forward()
    spans = tracer.units[0]["spans"]
    selfs = self_times(spans)
    children = {}
    for i, (_, parent, start, end, _) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            children.setdefault(parent, []).append(i)
            assert spans[parent][2] <= start and end <= spans[parent][3]
    for i, (self_ns, self_macs) in enumerate(selfs):
        assert self_ns >= 0 and self_macs >= 0
        inner = sum(spans[c][3] - spans[c][2] for c in children.get(i, []))
        assert inner <= spans[i][3] - spans[i][2]
    root = spans[0]
    assert sum(s for s, _ in selfs) == root[3] - root[2]


def test_tail_is_the_highest_sample_with_ten_beyond():
    samples = list(range(100, 0, -1))
    assert tail(samples) == (90, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 2)


class _FakeWorkload:
    """Units of ten 1 µs samples that take 2 ms of wall time each."""

    batch = 4

    def __init__(self, ok):
        self.ok = ok

    def run_unit(self, tracer):
        time.sleep(0.002)
        return [(None, self.ok)] + [(1000, self.ok)] * 9


def test_timed_phase_counts_wall_time_and_stops_a_failing_run():
    phase = timed_phase(_FakeWorkload(True), 0, None)
    assert len(phase.plain) >= MIN_SAMPLES and phase.failed == 0
    assert phase.plain_items == 4 * phase.attempted
    assert phase.plain_s > 100 * sum(phase.plain) / 1e3  # throughput counts time outside the samples
    failing = timed_phase(_FakeWorkload(False), 0, None)
    assert failing.failed == failing.attempted == 10 and failing.plain_items == 0


def _run(cwd, *args, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_minimal_runs_pass_their_output_checks(trace):
    # the caller's BLAS setting must not reach the workload
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    done = _run(ROOT, "--workload", "all", "--seed", "5", "--seconds", "0", "--trace", trace, env=env)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == len(WORKLOADS)
    listed = [m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == listed
        if trace == "1":
            assert result["metrics"]["analysis.mac_ratio"]["value"] == 1.0
    for name in WORKLOADS:
        saved = json.loads((HERE / "out" / f"{name}-seed5-trace{trace}.json").read_text())
        assert saved["environment"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert saved["environment"]["blas_env"]["OMP_NUM_THREADS"] == "1"
        assert len(saved["samples"]["call_ms"]) >= MIN_SAMPLES


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "infer-live-b1", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
