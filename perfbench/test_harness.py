"""Self-tests of the benchmark harness on tiny inputs; they run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = run.Sizes(compare_train=600, compare_test=150, tag_train=400, tag_apply=500,
                 fuzz_pairs=60, setup_rounds=1)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 11


def _run(trace: bool) -> dict:
    return run.run(list(run.WORKLOADS), SEED, 0, trace, TINY)


@pytest.fixture(scope="module")
def plain() -> dict:
    return _run(False)


@pytest.fixture(scope="module")
def traced() -> dict:
    return _run(True)


def test_benchmark_json_lists_the_harness_workloads_and_metrics():
    from layers import PER_LAYER

    assert set(w["name"] for w in BENCHMARK["workloads"]) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(trace, plain, traced):
    outcome = traced if trace else plain
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    for workload in run.WORKLOADS:
        for metric in listed:
            emitted = result["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
    assert len(result["metrics"]) == len(listed) * len(run.WORKLOADS)
    provenance = outcome["details"]["provenance"]
    for key in ("nproc", "python", "git_sha", "seed", "loadavg_start", "loadavg_end"):
        assert key in provenance


def test_layer_predictions_hold_on_counts(traced):
    metrics = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    for name in ("corpus_io.parse_conllu.tokens", "corpus_io.label_corpus.tokens",
                 "baseline.train_baseline.tokens", "baseline.predict_corpus.tokens"):
        assert metrics[f"fuzz_roundtrip.{name}"] == 0
    for aligner in ("levenshtein_align", "min_script_align", "longest_common_substring"):
        assert metrics[f"tag_apply.alignment.{aligner}.calls"] == 0
        assert metrics[f"fuzz_roundtrip.alignment.{aligner}.calls"] > 0
        assert metrics[f"treebank_compare.alignment.{aligner}.calls"] > 0


def test_counts_repeat_exactly_across_runs(traced):
    again = _run(True)["result"]["metrics"]
    counts = [k for k in again if k.endswith((".calls", ".cells"))]
    assert counts
    for name in counts:
        assert again[name]["value"] == traced["result"]["metrics"][name]["value"], name


def _traced_unit(tmp_path, name):
    from layers import LayerTrace

    ctx = run.Context(SEED, 0, TINY, tmp_path, {})
    workload = run.WORKLOADS[name]()
    workload.prepare(ctx)
    workload.setup(ctx, run.cli_inprocess)
    layer = LayerTrace()
    with layer.patched():
        workload.unit(ctx, run.cli_inprocess, layer.tracer)
    return layer


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_spans_nest_and_self_times_are_not_negative(tmp_path, name):
    layer = _traced_unit(tmp_path, name)
    spans = {span.id: span for span in layer.tracer.spans}
    assert spans
    child_ns = dict.fromkeys(spans, 0)
    for span in spans.values():
        assert span.start_ns <= span.end_ns
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns
            child_ns[span.parent] += span.end_ns - span.start_ns
    for span in spans.values():
        assert span.end_ns - span.start_ns - child_ns[span.id] >= 0
    assert all(value >= 0 for value in layer.tracer.self_ns.values())


def test_a_corrupted_report_fails_its_check(tmp_path):
    ctx = run.Context(SEED, 0, TINY, tmp_path, {})
    workload = run.WORKLOADS["treebank_compare"]()
    workload.prepare(ctx)
    unit = workload.unit(ctx, run.cli_inprocess, None)
    assert unit.problems == []
    report = json.loads((tmp_path / "report.json").read_bytes())
    report["schemes"]["morpheus"]["encode_failures"] = 1
    assert run.check_report(json.dumps(report).encode(), workload.tokens)
    assert run.check_report(b"{", workload.tokens)
    tally = run.Tally()
    tally.check(unit, {"report": "0" * 16})
    assert tally.failed == unit.ops


def test_corrupted_predictions_fail_their_check():
    forms = ["Cats", "sat", "", "Dogs", ""]
    good = "Cats\tcat\nsat\tsit\n\nDogs\tDogs\n\n"
    assert run.check_predictions(good, forms, 1) == []
    assert run.check_predictions(good.replace("sat\tsit\n", ""), forms, 1)
    assert run.check_predictions(good.replace("\tsit", ""), forms, 1)
    assert run.check_predictions(good, forms, 2)


def test_a_wrong_roundtrip_fails_the_run_and_the_exit_status(monkeypatch, capsys):
    from lemscript import schemes

    decode = schemes.decode
    monkeypatch.setattr(schemes, "decode", lambda form, label: decode(form, label) + "x")
    monkeypatch.setattr(run, "FULL", TINY)
    status = run.main(["--workload", "fuzz_roundtrip", "--seed", str(SEED), "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert not result["correct"] and result["failed"] == result["attempted"]
