"""The host-speed adjustment of the end-to-end metrics."""

import statistics

import pytest

from perfbench import hostspeed, run

R = hostspeed.REFERENCE_S


def test_a_block_is_scaled_by_the_samples_inside_it_less_their_time():
    samples = [(0.5, 2 * R), (1.5, 2 * R), (2.5, 4 * R)]
    # 2 s of wall time, 4 R of it taken by two samples twice as slow as the reference.
    assert hostspeed.reference_seconds((0.0, 2.0), samples) == pytest.approx((2.0 - 4 * R) / 2)
    assert hostspeed.reference_seconds((2.0, 3.0), samples) == pytest.approx((1.0 - 4 * R) / 4)
    median = hostspeed.reference_seconds((0.0, 3.0), samples + [(2.7, 2 * R)], statistics.median)
    assert median == pytest.approx((3.0 - 10 * R) / 2)


def test_a_block_without_samples_takes_the_nearest_one():
    samples = [(0.5, 2 * R), (1.5, 4 * R)]
    assert hostspeed.reference_seconds((1.2, 1.4), samples) == pytest.approx(0.2 / 4)
    assert hostspeed.reference_seconds((0.6, 0.7), samples) == pytest.approx(0.1 / 2)
    assert hostspeed.reference_seconds((9.0, 9.5), samples) == pytest.approx(0.5 / 4)


def test_sampler_takes_samples_until_it_stops():
    with hostspeed.Sampler() as sampler:
        while len(sampler.samples) < 2:
            pass
    count = len(sampler.samples)
    assert all(d > 0.0 for _, d in sampler.samples)
    assert len(sampler.samples) == count


def test_end_to_end_metrics_use_the_mean_pass_and_the_fastest_import():
    unit_s = [[2.0, 1.0, 3.0], [0.5, 0.25, 0.75]]
    metrics = run.end_to_end_metrics(10, unit_s, [0.6, 0.8, 1.0], 51.0)
    assert metrics["items_per_s"] == pytest.approx(10 / 2.5)
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert metrics["peak_rss_mb"] == 51.0
