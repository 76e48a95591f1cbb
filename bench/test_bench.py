"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest bench -q
"""

import functools
import json
import shutil

import pytest

import record_golden
import run
import spans
import workloads as W
from prato import pipeline

TINY = {
    "prune-z1024": lambda d: W.PruneZ1024(size=64, pool=6, golden_dir=d),
    "sweep-z256": lambda d: W.SweepZ256(size=128, pool=3, out_root=d, golden_dir=d),
    "batch-z256-staged": lambda d: W.BatchZ256Staged(size=64, pool=6, scenes=6, golden_dir=d),
}


@pytest.fixture(scope="session")
def recorded(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for make in TINY.values():
        wl = make(d)
        wl.golden_path.write_text(json.dumps(record_golden.record(wl)))
    return d


@pytest.fixture
def tiny(recorded, tmp_path, monkeypatch):
    """Tiny workloads whose goldens sit in a fresh temporary directory."""
    for path in recorded.glob("*.json"):
        shutil.copy(path, tmp_path)
    monkeypatch.setattr(W, "WORKLOADS", {n: functools.partial(m, tmp_path) for n, m in TINY.items()})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def bench(capsys, name, trace=0, seed=3):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_runner_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("name", TINY)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric_with_its_unit(tiny, capsys, name, trace):
    result = bench(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = run.END_TO_END if trace == 0 else {n: u for n, u, _ in spans.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    record = json.loads((tiny / "out" / f"BENCH_{name}_seed3_trace{trace}.json").read_text())
    assert record["machine"]["blas"]["threads"] == run.BLAS_THREADS
    assert record["machine"]["seed"] == 3
    if trace == 0:
        scale = record["probe_scale"]
        assert scale > 0
        assert result["metrics"]["latency_p50_ms"]["value"] == pytest.approx(
            record["raw_unscaled"]["latency_p50_ms"] * scale)


def test_traced_counts_are_exact_per_call(tiny, capsys):
    layers = bench(capsys, "batch-z256-staged", trace=1)["metrics"]
    # 8 images, 4 blocks, stages after blocks 0, 1 and 2; Z = 16 at size 64
    assert layers["encoder.calls"]["value"] == 32
    assert layers["encoder.tokens_in"]["value"] == 8 * (16 + 8 + 4 + 2)
    assert layers["pipeline.weights_builds"]["value"] == 8
    assert layers["prune.calls"]["value"] == 24
    assert layers["prune.keep_ratio"]["value"] == pytest.approx(0.5)


@pytest.mark.parametrize("name, field", [
    ("prune-z1024", "coords_sha256"),
    ("sweep-z256", "sweep_csv_sha256"),
    ("sweep-z256", "summary_json_sha256"),
    ("batch-z256-staged", "coords_sha256"),
])
def test_a_wrong_recorded_digest_fails_every_call(tiny, capsys, name, field):
    path = TINY[name](tiny).golden_path
    golden = json.loads(path.read_text())
    for entry in golden["entries"].values():
        entry[field] = "0" * 64
    path.write_text(json.dumps(golden))
    result = bench(capsys, name)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_drifted_token_values_fail(tiny, capsys):
    path = TINY["prune-z1024"](tiny).golden_path
    golden = json.loads(path.read_text())
    for entry in golden["entries"].values():
        entry["token_sums"][0] *= 1 + 1e-6
    path.write_text(json.dumps(golden))
    result = bench(capsys, "prune-z1024")
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("name", ["prune-z1024", "batch-z256-staged"])
def test_a_changed_retained_count_fails(tiny, capsys, monkeypatch, name):
    real = pipeline.run_pipeline

    def miscounting(*args, **kwargs):
        pruned, bundles, report = real(*args, **kwargs)
        report.tokens_retained = [n + 1 for n in report.tokens_retained]
        return pruned, bundles, report

    monkeypatch.setattr(pipeline, "run_pipeline", miscounting)
    result = bench(capsys, name)
    assert result["failed"] == result["attempted"]


def test_a_raised_error_counts_as_failed(tiny, capsys, monkeypatch):
    real = pipeline.run_pipeline
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_pipeline", flaky)
    result = bench(capsys, "prune-z1024")
    assert 0 < result["failed"] < result["attempted"]


def test_traced_run_fails_loudly_when_a_layer_records_no_spans(tiny, capsys, monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [t for t in spans.TARGETS if t[2] != "encoder.gelu"])
    with pytest.raises(SystemExit, match="encoder.gelu"):
        bench(capsys, "prune-z1024", trace=1)


def test_self_time_subtracts_child_spans():
    tr = spans.Tracer()
    tr.name = ["bench.call", "pipeline.run_pipeline", "encoder.encode_tokens", "encoder.gelu"]
    tr.start = [0.0, 1.0, 2.0, 2.5]
    tr.end = [10.0, 9.0, 4.0, 3.0]
    tr.parent = [-1, 0, 1, 2]
    count, total, own = tr.totals()
    assert own["bench.call"] == 2.0
    assert own["pipeline.run_pipeline"] == 6.0
    assert own["encoder.encode_tokens"] == 1.5
    assert total["encoder.gelu"] == own["encoder.gelu"] == 0.5
