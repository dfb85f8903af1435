"""Selftest in batched passes: the soundness sweep's chunks of generated systems
(one `monodromies` and one `evaluate_many` call each) and the Lyapunov scan's
one zero scan per system must answer as the per-system loops kept here as
references do."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import (DEFAULT_TOLERANCES, DensePath, RescaledSolution, State, ZeroPair,
                             criteria as crit, find_zero_pair, find_zero_pairs, harness)
from impulse_floquet.criteria import evaluate_all
from impulse_floquet.floquet import classify
from impulse_floquet.harness import MODES, GeneratorSpec, generate, soundness_sweep
from impulse_floquet.lyapunov import (ROOT_TOL, _grid_parts, _impulse_time_flags, _zero_scan,
                                      _zero_sites, bracketed_root)
from impulse_floquet.propagation import monodromy

from helpers import make_system
from test_cli import run

DATA = Path(__file__).parent / "data"


# -- references: the per-system loops the batched passes replaced -------------

def _analyze_one(spec, index, tol):
    system = generate(replace(spec, seed=spec.seed + index))
    reports = evaluate_all(system, tol)
    verdict = classify(monodromy(system, tol))
    conclusions = {r.criterion: r.conclusion for r in reports}
    target = harness._TARGETS.get(spec.mode)
    return harness.SystemRecord(
        index=index, seed=spec.seed + index, trace=verdict.trace, det=verdict.det,
        verdict=verdict.category, conclusions=conclusions,
        certified_any=any(c == crit.CERTIFIED for c in conclusions.values()),
        coverage=harness._coverage_flags(system),
        target_margins=tuple(cond.margin for r in reports if r.criterion == target
                             for cond in r.conditions if cond.margin is not None))


def _per_system_chunk(job):
    spec, indices, tol = job
    return [_analyze_one(spec, i, tol) for i in indices]


def _pruefer_grid(system, w0, w1):
    """The zero scan's grid times from `_grid_parts` (a part of n steps takes the next power
    of two, evenly spaced), each with the w^2 of its step's part: sqrt(max|c| / max|b|) of the
    part, else of the window, else 1 / (max|b| (w1 - w0)); w0 takes its first step's."""
    T = system.period
    parts = [(k, p) for k, chunk in _grid_parts(system, w0, w1) for p in chunk]
    b_max, c_max = (max(p[-1][i] for _, p in parts) for i in (0, 1))
    wide = math.sqrt(c_max / b_max) if b_max > 0.0 < c_max else 1.0 / (b_max * (w1 - w0) or 1.0)
    ts, w2 = [np.array([w0])], []
    for k, (q0, q1, *_, n, _, (b, c)) in parts:
        count = 1 << (n - 1).bit_length()
        ts.append(k * T + (q0 + (q1 - q0) / count * np.arange(1, count + 1)))
        w2.append(np.full(count, math.sqrt(c / b) if b > 0.0 < c else wide))
    ts, w2 = np.concatenate(ts), np.concatenate(w2)
    ts[-1] = w1
    return ts, np.concatenate([w2[:1], w2])


def _zero_pair_reference(system, initial, window, tol=DEFAULT_TOLERANCES):
    """One state, its own dense path sampled on the zero scan's grid, and zero sites read
    with the band |w^2 z| <= 1e-9 |(w^2 z, v)| of the modified Pruefer angle."""
    w0, w1 = window
    T = system.period
    y0 = np.array([initial.x, initial.u])
    if float(np.hypot(*y0)) == 0.0:
        return None
    path = DensePath(system, initial.t, w1, tol)
    if initial.side == "left":
        imp = system.impulse_at(initial.t)
        if imp is not None:
            y0 = imp.matrix @ y0
    sol = RescaledSolution(path, y0)
    ts, w2 = _pruefer_grid(system, w0, w1)
    mats, prods = path.sample_matrices(ts)
    zs, vs = (mats @ y0).T / prods
    runs, changes = _zero_sites(w2 * zs / np.hypot(w2 * zs, vs), 1e-9)
    zeros = [float(ts[i]) for i in np.flatnonzero(runs)]
    zeros += [bracketed_root(sol.z, ts[i], ts[i + 1], ROOT_TOL * max(1.0, T))
              for i in np.flatnonzero(changes)]
    zeros.sort()
    distinct = []
    for z in zeros:
        if not distinct or z - distinct[-1] > 1e-9 * max(1.0, T):
            distinct.append(z)
    if len(distinct) < 2:
        return None
    t1, t2 = distinct[0], distinct[1]
    return ZeroPair(t1, t2, _impulse_time_flags(system, t1), _impulse_time_flags(system, t2),
                    solution=sol)


def _pair_key(pair):
    return None if pair is None else (pair.t1, pair.t2, pair.t1_at_impulse, pair.t2_at_impulse)


# -- soundness sweep -----------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [0, 9, 23])
def test_batched_sweep_equals_per_system_loop(monkeypatch, mode, seed):
    spec = GeneratorSpec(seed=seed, mode=mode, margin=1e-3)
    batched = soundness_sweep(spec, 12)
    monkeypatch.setattr(harness, "_soundness_chunk", _per_system_chunk)
    reference = soundness_sweep(spec, 12)
    assert batched.to_json_text() == reference.to_json_text()
    assert batched.records == reference.records


def test_sweep_longer_than_one_chunk_equals_per_system_loop(monkeypatch):
    spec = GeneratorSpec(seed=4, mode=harness.FORCE_MAIN, margin=1e-3)
    batched = soundness_sweep(spec, 70)  # chunks of 64 and 6
    monkeypatch.setattr(harness, "_soundness_chunk", _per_system_chunk)
    assert batched.to_json_text() == soundness_sweep(spec, 70).to_json_text()


def _failing(monkeypatch, spec, generate_at=(), criteria_at=(), map_at=()):
    """Patch the harness so system `i` fails in the named stage."""
    seeds = {}
    real_generate, real_many, real_maps = generate, harness.evaluate_many, harness.monodromies

    def fake_generate(s):
        index = s.seed - spec.seed
        if index in generate_at:
            raise harness.GenerationError(f"generation failed at {index}")
        system = real_generate(s)
        seeds[id(system)] = index
        return system

    def failing(real, indices, label):
        def patched(systems, tol=None):
            out = real(systems, tol)
            return [ValueError(f"{label} failed at {seeds[id(s)]}")
                    if seeds[id(s)] in indices else entry for s, entry in zip(systems, out)]
        return patched

    monkeypatch.setattr(harness, "generate", fake_generate)
    monkeypatch.setattr(harness, "evaluate_many", failing(real_many, criteria_at, "criteria"))
    monkeypatch.setattr(harness, "monodromies", failing(real_maps, map_at, "period map"))


@pytest.mark.parametrize("stages, message", [
    (dict(criteria_at=(1,), generate_at=(3,)), "criteria failed at 1"),
    (dict(generate_at=(1,), criteria_at=(3,)), "generation failed at 1"),
    (dict(map_at=(2,), criteria_at=(2,)), "criteria failed at 2"),
    (dict(map_at=(2,), generate_at=(2,)), "generation failed at 2"),
    (dict(map_at=(0, 4)), "period map failed at 0"),
])
def test_chunk_raises_the_first_failure_of_the_per_system_loop(monkeypatch, stages, message):
    spec = GeneratorSpec(seed=5, mode=harness.FORCE_MAIN, margin=1e-3)
    _failing(monkeypatch, spec, **stages)
    with pytest.raises(Exception, match=message):
        soundness_sweep(spec, 6)


def test_selftest_workers_2_equals_workers_1(capsys):
    rc1, serial, _ = run(capsys, ["selftest", "--n", "10", "--seed", "3", "--workers", "1"])
    rc2, pooled, _ = run(capsys, ["selftest", "--n", "10", "--seed", "3", "--workers", "2"])
    assert rc1 == rc2 == 0
    assert pooled == serial


def test_selftest_n30_workers_2_equals_workers_1(capsys):
    rc1, serial, _ = run(capsys, ["selftest", "--n", "30", "--seed", "0", "--workers", "1"])
    rc2, pooled, _ = run(capsys, ["selftest", "--n", "30", "--seed", "0", "--workers", "2"])
    assert rc1 == rc2 == 0
    assert pooled == serial


def test_lyapunov_sweep_spreads_its_chunks_over_the_workers(monkeypatch):
    calls, real = [], harness.chunked_map

    def spy(fn, items, workers, make_job):
        calls.append((fn.__name__, len(items), workers))
        return real(fn, items, workers, make_job)

    monkeypatch.setattr(harness, "chunked_map", spy)
    spec = GeneratorSpec(seed=4, mode=harness.FORCE_MAIN, margin=1e-3)
    pooled = harness.lyapunov_sweep(spec, 6, workers=2)
    assert calls == [("_lyapunov_chunk", 6, 2)]
    assert pooled == harness.lyapunov_sweep(spec, 6, workers=1)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_selftest_n30_matches_golden_output(capsys, seed):
    # written by the per-system selftest before the batched passes replaced it
    rc, out, _ = run(capsys, ["selftest", "--n", "30", "--seed", str(seed)])
    assert rc == 0
    assert out == (DATA / f"selftest_n30_seed{seed}.json").read_text(encoding="utf-8")


# -- Lyapunov scan ---------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 10_000), amp=st.sampled_from([1.0, 5.0]),
       directions=st.integers(1, 12), periods=st.sampled_from([1.0, 2.5, 4.0]))
def test_find_zero_pairs_equals_per_direction_loop(mode, seed, amp, directions, periods):
    system = generate(GeneratorSpec(seed=seed, mode=mode, amplitude=amp))
    initials = [State(0.0, math.cos(math.pi * j / directions), math.sin(math.pi * j / directions))
                for j in range(directions)] + [State(0.0, 0.0, 0.0)]
    window = (0.0, periods * system.period)
    pairs = find_zero_pairs(system, initials, window)
    expected = [_zero_pair_reference(system, s, window) for s in initials]
    assert [_pair_key(p) for p in pairs] == [_pair_key(p) for p in expected]
    assert [_pair_key(find_zero_pair(system, s, window)) for s in initials] == \
        [_pair_key(p) for p in expected]
    for pair, ref in zip(pairs, expected):
        if pair is not None:
            ts = np.linspace(pair.t1, pair.t2, 17)
            assert np.array_equal(pair.solution.z_samples(ts), ref.solution.z_samples(ts))


def test_find_zero_pairs_at_an_impulse_time_applies_each_states_side():
    system = make_system(0.2, 1.0, 40.0, impulses=[(0.5, 2.0, 3.0)])
    tau = 0.5
    initials = [State(tau, 0.3, 1.0, "left"), State(tau, 0.3, 1.0, "right"),
                State(tau, -1.0, 0.2, "left")]
    window = (tau, tau + 3.0 * system.period)
    pairs = find_zero_pairs(system, initials, window)
    assert [_pair_key(p) for p in pairs] == \
        [_pair_key(_zero_pair_reference(system, s, window)) for s in initials]
    assert _pair_key(pairs[0]) != _pair_key(pairs[1])


def test_find_zero_pairs_rejects_states_with_different_start_times():
    system = generate(GeneratorSpec(seed=0))
    with pytest.raises(ValueError, match="share a start time"):
        find_zero_pairs(system, [State(0.0, 1.0, 0.0), State(0.1, 1.0, 0.0)], (0.1, 1.0))
    assert find_zero_pairs(system, [], (0.0, 1.0)) == []


def test_lyapunov_sweep_builds_one_dense_path_per_system(monkeypatch):
    # at most one per system, and none where no initial direction has two zero sites
    builds, systems = [], []
    real_init, real_generate = DensePath.__init__, harness.generate

    def counting(self, *args, **kwargs):
        builds.append(args[0])
        real_init(self, *args, **kwargs)

    def recording(spec):
        systems.append(real_generate(spec))
        return systems[-1]

    monkeypatch.setattr(DensePath, "__init__", counting)
    monkeypatch.setattr(harness, "generate", recording)
    summary = harness.lyapunov_sweep(GeneratorSpec(seed=0, mode=harness.FORCE_MAIN), 12)
    assert summary.systems_scanned == 12 and summary.pairs_found > 0
    angles = np.pi * np.arange(8) / 8
    two_sites = []
    for system in systems:
        _, (runs, changes) = _zero_scan(system, 0.0, harness.LYAPUNOV_PERIODS * system.period,
                                        np.array([np.cos(angles), np.sin(angles)]),
                                        DEFAULT_TOLERANCES)
        two_sites.append(int(max(np.count_nonzero(runs, axis=1)
                                 + np.count_nonzero(changes, axis=1)) >= 2))
    assert [sum(b is s for b in builds) for s in systems] == two_sites
    assert 0 < sum(two_sites) < len(systems)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_lyapunov_sweep_equals_per_direction_loop(monkeypatch, seed):
    spec = GeneratorSpec(seed=seed, mode=harness.FORCE_MAIN, margin=1e-3)
    batched = harness.lyapunov_sweep(spec, 8)
    assert batched.pairs_found > 0
    monkeypatch.setattr(harness, "find_zero_pairs", lambda system, initials, window, tol: [
        _zero_pair_reference(system, s, window, tol) for s in initials])
    assert batched.to_json_text() == harness.lyapunov_sweep(spec, 8).to_json_text()
