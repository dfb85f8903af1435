"""Self-time arithmetic on a synthetic span tree, and the wrappers on the package."""

import json

import pytest

from perfbench import checks, spans


def tree():
    # root [0, 10] > a [1, 4] > a.child [2, 3]; root > b [5, 9]; second root [10, 12]
    return [spans.Span(0, None, "cli.main", 0.0, 10.0),
            spans.Span(1, 0, "propagation.monodromy", 1.0, 4.0),
            spans.Span(2, 1, "system.validate", 2.0, 3.0),
            spans.Span(3, 0, "criteria.evaluate_all", 5.0, 9.0),
            spans.Span(4, None, "cli.main", 10.0, 12.0)]


def test_self_time_is_duration_minus_children():
    assert spans.self_times(tree()) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_layer_self_times_sum_to_the_root_durations():
    m = spans.layer_metrics(tree())
    assert m["cli.self_s"] == 5.0
    assert m["propagation.monodromy_s"] == 2.0
    assert m["system.validate_s"] == 1.0
    assert m["criteria.evaluate_all_s"] == 4.0
    layer_total = sum(m[spans.layer_self_metric(layer)] for layer in spans.LAYERS)
    assert layer_total == 12.0
    assert m["propagation.monodromy_calls"] == 1.0
    assert m["propagation.monodromy_p50_ms"] == 3000.0


def test_nested_spans_of_one_name_count_as_one_entry():
    nested = [spans.Span(0, None, "piecewise.integrate", 0.0, 4.0),
              spans.Span(1, 0, "piecewise.integrate", 1.0, 2.0),
              spans.Span(2, None, "lyapunov.zero_pair", 4.0, 5.0, useful=True),
              spans.Span(3, None, "lyapunov.zero_pair", 5.0, 6.0, useful=False)]
    m = spans.layer_metrics(nested)
    assert m["piecewise.integrate_calls"] == 1.0
    assert m["piecewise.integrate_s"] == 4.0
    assert m["lyapunov.pairs_per_scan"] == 0.5


def test_package_share_counts_time_outside_the_package_against_coverage():
    covered = [spans.Span(0, None, "bench.pass", 0.0, 10.0),
               spans.Span(1, 0, "cli.main", 0.1, 9.9),
               spans.Span(2, 1, "propagation.monodromy", 1.0, 6.0)]
    assert spans.package_share(covered, 10.0) == pytest.approx(0.98)
    assert checks.layer_share_failures(0.98) == []
    # 1.2 s of the pass runs outside every wrapped entry point
    uncovered = [spans.Span(0, None, "bench.pass", 0.0, 10.0),
                 spans.Span(1, 0, "cli.main", 0.2, 9.0),
                 spans.Span(2, 1, "propagation.monodromy", 1.0, 6.0)]
    share = spans.package_share(uncovered, 10.0)
    assert share == pytest.approx(0.88)
    assert checks.layer_share_failures(share)


def test_empty_trace_reports_zeros():
    m = spans.layer_metrics([])
    assert set(m.values()) == {0.0}


@pytest.fixture
def rotation(tmp_path):
    doc = {"period": 1.0, "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                                           "b": [{"end": 1.0, "poly": [1.0]}],
                                           "c": [{"end": 1.0, "poly": [1.0]}]},
           "impulses": [{"tau": 0.5, "alpha": -1.0, "beta": 0.25}]}
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_install_records_the_call_tree_and_uninstall_restores(rotation, tmp_path):
    from impulse_floquet import cli, harness, propagation

    originals = (cli.main, cli.monodromy, harness.generate, propagation.DensePath.__init__)
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        with recorder.span("bench.pass"):
            rc = cli.main(["analyze", "--input", str(rotation),
                           "--output", str(tmp_path / "out.json")])
    finally:
        spans.uninstall(undo)
    assert rc == 0
    assert (cli.main, cli.monodromy, harness.generate,
            propagation.DensePath.__init__) == originals

    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    assert {"cli.main", "descriptors.load", "propagation.monodromy", "system.validate",
            "floquet.classify", "criteria.evaluate_all", "piecewise.integrate"} <= set(by_name)
    main_span = by_name["cli.main"][0]
    mono = by_name["propagation.monodromy"][0]
    assert mono.parent == main_span.id and main_span.parent == 0
    assert any(v.parent == mono.id for v in by_name["system.validate"])
    total = sum(spans.self_times(recorder.spans))
    assert total == pytest.approx(recorder.spans[0].duration, rel=1e-9)
    assert checks.layer_share_failures(
        spans.package_share(recorder.spans, recorder.spans[0].duration)) == []

    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    dumped = json.loads(path.read_text(encoding="utf-8"))
    assert [d["name"] for d in dumped] == [s.name for s in recorder.spans]
    assert [d["parent"] for d in dumped] == [s.parent for s in recorder.spans]
