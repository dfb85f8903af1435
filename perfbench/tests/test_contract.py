"""BENCHMARK.json agrees with the metrics the benchmark prints, and the
seeded inputs are deterministic and well formed."""

import json
import math
import re
from pathlib import Path

from perfbench import inputs, run

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_keys_and_names_are_valid():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_matches_the_printed_metrics():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_tail_rank_leaves_ten_samples_beyond():
    pct, index = run.tail_rank(40)
    assert (pct, index) == (75.0, 29)
    assert 40 - 1 - index == 10


def test_inputs_depend_only_on_the_seed():
    assert inputs.sweep_descriptor(3) == inputs.sweep_descriptor(3)
    assert inputs.sweep_descriptor(3) != inputs.sweep_descriptor(4)
    assert inputs.windows_population(5) == inputs.windows_population(5)
    assert inputs.long_horizon_jobs(2) == inputs.long_horizon_jobs(2)
    assert inputs.simulate_descriptor(2) != inputs.simulate_descriptor(3)


def _segments_min(segments):
    lows = [0.0] + [s["end"] for s in segments[:-1]]
    return min(inputs.quadratic_min(s["poly"], lo, s["end"]) for s, lo in zip(segments, lows))


def test_inputs_keep_their_stated_shape():
    for seed in range(5):
        doc = inputs.sweep_descriptor(seed)
        assert [len(doc["coefficients"][n]) for n in "abc"] == [3, 3, 3]
        assert _segments_min(doc["coefficients"]["b"]) > 0.0
        assert math.isclose(abs(math.prod(i["alpha"] for i in doc["impulses"])), 1.0)
        windows = inputs.windows_population(seed)
        assert len(windows) == inputs.WINDOW_COUNT
        for w in windows:
            assert 0.0 <= w["t1"] < 1.0 and 0.15 <= w["t2"] - w["t1"] <= 1.8
            assert _segments_min(w["system"]["coefficients"]["b"]) >= 0.2 - 1e-12


def test_sweep_rows_cover_the_grid_in_row_order():
    doc = inputs.sweep_descriptor(1)
    rows = inputs.sweep_rows(doc)
    assert len(rows) * 21 == inputs.SWEEP_POINTS
    assert [r["coefficients"]["c"][0]["poly"][0] for r in rows] == list(inputs.SWEEP_ROW_VALUES)
    for row in rows:
        row["coefficients"]["c"][0]["poly"][0] = doc["coefficients"]["c"][0]["poly"][0]
        assert row == doc
