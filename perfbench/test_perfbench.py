"""Self-tests of the benchmark itself (not of the package).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fixtures  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from enfcapon.matching import MatchResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def measure_fixture(fixture, workload):
    """Run the measured process on an existing fixture; return its record."""
    out = os.path.join(fixture, "out.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), "--workload", workload,
         "--fixture", fixture, "--seconds", "0.2", "--out", out,
         "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
        cwd=ROOT, check=True, timeout=170, env={**os.environ, **run.PINS},
    )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    for key in ("fixture", "environment", "error_rate"):
        assert key in record
    assert record["fixture"]["seed"] == 7
    assert record["thread_pins"] == run.PINS


def test_extract_offset_by_a_tenth_of_a_hertz_fails_every_op(tmp_path):
    fixture = str(tmp_path / "fx")
    fixtures.generate("extract_441_capon", 3, fixture, "tiny")
    path = os.path.join(fixture, "expected.npz")
    expected = dict(np.load(path))
    expected["truth_hz"] = expected["truth_hz"] + 0.1
    np.savez(path, **expected)
    record = measure_fixture(fixture, "extract_441_capon")
    assert record["attempted"] >= 2
    assert record["failed"] == record["attempted"]
    assert all(t is None for t in record["op_s"])
    assert "mean absolute error" in record["errors"][0]


def test_reference_shifted_by_one_lag_fails_every_op(tmp_path):
    fixture = str(tmp_path / "fx")
    fixtures.generate("match_24h", 3, fixture, "tiny")
    reference = np.load(os.path.join(fixture, "expected.npz"))["reference_hz"]
    fixtures.write_track_csv(os.path.join(fixture, "reference.csv"),
                             np.concatenate([[fixtures.NOMINAL_HZ], reference[:-1]]))
    record = measure_fixture(fixture, "match_24h")
    assert record["attempted"] >= 2
    assert record["failed"] == record["attempted"]
    assert "planted" in record["errors"][0]


def test_match_gate_checks_correlation_and_pair_count():
    rng = np.random.default_rng(0)
    reference = 60.0 + 0.01 * rng.standard_normal(50)
    query = reference[10:30].copy()
    query[3] = np.nan
    good = [MatchResult(10, measure.reference_correlation(query, reference[10:30], c)[0],
                        c, 19) for c in (False, True)]
    assert measure.check_match(good, query, reference, 10)[0] == []
    nudged = [MatchResult(10, good[0].correlation - 1e-11, False, 19), good[1]]
    assert measure.check_match(nudged, query, reference, 10)[0]
    miscounted = [good[0], MatchResult(10, good[1].correlation, True, 20)]
    assert measure.check_match(miscounted, query, reference, 10)[0]


def test_extract_gate_checks_layout():
    truth = 60.0 + 0.01 * np.sin(np.arange(100) / 5.0)
    times = 1.0 + np.arange(100.0)
    assert measure.check_extract(times, truth, times, truth, "capon")[0] == []
    assert measure.check_extract(times[:-1], truth[:-1], times, truth, "capon")[0]
    assert measure.check_extract(times + 1.0, truth, times, truth, "capon")[0]
    half_missing = np.where(np.arange(100) % 2 == 0, truth, np.nan)
    assert measure.check_extract(times, half_missing, times, truth, "capon")[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_self_times_partition_the_op_and_missing_targets_are_absent(monkeypatch):
    from enfcapon import framing, pipeline
    from enfcapon.signal_io import SampledSignal

    monkeypatch.setitem(tracing.TARGETS, "capon",
                        tracing.TARGETS["capon"] + ("no_such_function",))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t = np.arange(441 * 30) / 441.0
        signal = SampledSignal(np.cos(2 * np.pi * 180.01 * t), 441.0)
        root = tracer.begin_op()
        track = pipeline.extract_enf(signal, pipeline.power_config())
        tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert pipeline.windowed_frame is framing.windowed_frame
    codes, duration, self_time = tracer.self_times()
    assert self_time.sum() == pytest.approx(duration[codes == 0].sum(), rel=1e-9)
    assert np.all(self_time > -1e-9)
    metrics = tracer.layer_metrics(1.0, 1.0)
    assert tracer.absent == ["capon.no_such_function"]
    assert metrics["capon.no_such_function.calls"] == (0.0, "count")
    assert metrics["capon.capon_estimate_frame.calls"][0] == len(track)
    assert metrics["matching.correlation.calls"][0] == 0
    assert metrics["pipeline.valid_ratio"][0] == 1.0


def test_predictions_name_defined_metrics_and_workloads():
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    for row in predictions:
        assert set(row["layer_metrics"]) <= layer_names
        for workload, metrics in row["moves"].items():
            assert workload in WORKLOADS
            assert {m.split(" ")[0] for m in metrics} <= e2e_names
        assert set(row["no_change"]) <= set(WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
