"""Period maps and criteria of many systems in one call each, and the sweep that
evaluates its grid in chunks through them: every answer must equal the
one-system path."""

import csv
import io
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import (DEFAULT_TOLERANCES, DensePath, IntegrationFailureError,
                             InvalidSystemError, PiecewiseFunction, PolySegment, classify, cli,
                             criteria, descriptors, evaluate_all, evaluate_many, lyapunov,
                             monodromies, monodromy, propagation, system, validate_system)
from impulse_floquet.criteria import CRITERION_ORDER
from impulse_floquet.descriptors import (DescriptorError, set_descriptor_value,
                                         system_from_descriptor, system_to_descriptor)
from impulse_floquet.harness import CHUNK, GeneratorSpec, generate
from impulse_floquet.piecewise import split_period
from perfbench.inputs import SWEEP_ROW_VALUES, sweep_descriptor, sweep_rows, windows_population

from helpers import make_system, poly
from test_magnus import systems


_ODD_SYSTEMS = [
    make_system(0.0, 1.0, 1.0, impulses=[(0.5, 0.0, 0.0)]),  # zero impulse multiplier
    make_system(0.0, 1.0, PiecewiseFunction(1.0, (0.5,), (PolySegment((1.0,)),
                                                          PolySegment((math.inf,))))),
    make_system(0.0, 1.0, poly([1.0, 1.7e308])),  # c overflows past t = 0.057
]


def _single(system, fn=monodromy):
    try:
        return fn(system)
    except Exception as exc:
        return exc


def _assert_same(entry, expected):
    if isinstance(expected, Exception):
        assert type(entry) is type(expected)
        assert str(entry) == str(expected)
        return
    assert np.array_equal(entry.matrix, expected.matrix)
    for name in ("trace", "det", "det_integrated", "error_estimate", "multipliers"):
        assert getattr(entry, name) == getattr(expected, name), name


def test_odd_systems_fail_as_alone():
    kinds = [type(_single(s)) for s in _ODD_SYSTEMS]
    assert kinds == [InvalidSystemError, IntegrationFailureError, IntegrationFailureError]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(systems(), st.sampled_from(_ODD_SYSTEMS)), min_size=1, max_size=5))
def test_each_entry_equals_the_single_system_map(batch):
    entries = monodromies(batch)
    assert len(entries) == len(batch)
    for entry, system in zip(entries, batch):
        _assert_same(entry, _single(system))


def test_budget_failure_in_a_batch_reads_as_alone(monkeypatch):
    monkeypatch.setattr(propagation, "_MAX_STEPS", 8)
    c = PiecewiseFunction(1.0, (0.3, 0.6), (PolySegment((1.0,)), PolySegment((400.0, 100.0)),
                                            PolySegment((2.0, 1.0))))
    batch = [make_system(0.0, 1.0, 2.0), make_system(0.0, 1.0, c), make_system(0.3, 1.0, c),
             make_system(0.1, 1.0, 1.5)]
    entries = monodromies(batch)
    assert str(entries[1]).startswith("no convergence") and "t=0.3)" in str(entries[1])
    for entry, system in zip(entries, batch):
        _assert_same(entry, _single(system))


def _count_maps(monkeypatch, fn):
    calls = []
    maps = propagation._maps

    def counted(*args):
        calls.append(args[-1].shape)
        return maps(*args)

    monkeypatch.setattr(propagation, "_maps", counted)
    fn()
    monkeypatch.setattr(propagation, "_maps", maps)
    return len(calls)


@pytest.mark.parametrize("batch", ["sweep_row", "generated"])
def test_a_batch_makes_as_many_kernel_calls_as_its_deepest_system(monkeypatch, batch):
    if batch == "sweep_row":
        doc = sweep_rows(sweep_descriptor(0))[0]
        systems_ = []
        for beta in np.linspace(-2.0, 2.0, 21):
            point = set_descriptor_value(doc, "impulses[0].beta", float(beta))
            systems_.append(system_from_descriptor(point))
        assert doc == sweep_rows(sweep_descriptor(0))[0]
    else:
        systems_ = [generate(GeneratorSpec(seed=s)) for s in range(12)]
    singles = [_count_maps(monkeypatch, lambda s=s: monodromy(s)) for s in systems_]
    assert _count_maps(monkeypatch, lambda: monodromies(systems_)) == max(singles)
    if batch == "sweep_row":  # every piece converges within the first call's 64 steps
        assert max(singles) == 1


@pytest.mark.parametrize("system, calls", [  # deepest pieces at 32, 64 and 128 steps: the
    (system_from_descriptor(sweep_descriptor(0)), 1), (generate(GeneratorSpec(seed=12)), 1),
    (generate(GeneratorSpec(seed=5, amplitude=4.0)), 2)],  # first call steps 1 to 64
    ids=["sweep_0", "seed_12", "seed_5_amp_4"])
def test_a_dense_paths_head_and_cycle_double_together(monkeypatch, system, calls):
    T = system.period
    cycle = _count_maps(monkeypatch, lambda: monodromy(system))
    head = _count_maps(monkeypatch, lambda: propagation.fundamental_matrix(system, 0.3 * T, T))
    assert _count_maps(monkeypatch, lambda: DensePath(system, 0.3 * T, 3 * T)) == \
        max(cycle, head) == calls



def test_a_large_batch_steps_fewer_levels_in_its_first_call(monkeypatch):
    # 50 generated systems hold too many pieces for 127 steps each within the step budget
    systems_ = [generate(GeneratorSpec(seed=s)) for s in range(50)]
    shapes, maps = [], propagation._maps

    def counted(*args):
        shapes.append(args[-1].shape)
        return maps(*args)

    monkeypatch.setattr(propagation, "_maps", counted)
    monodromies(systems_)
    (pieces, steps), budget = shapes[0], propagation._FIRST_BUDGET
    assert 1 < steps and pieces * steps <= budget < pieces * (2 * propagation._FIRST_STEPS - 1)


def test_the_oracle_steps_a_window_within_64_steps_in_one_kernel_call(monkeypatch):
    # every part of 27 of the 40 seed-0 windows converges within the first call's 64 steps
    one = 0
    for w in windows_population(0):
        system = system_from_descriptor(w["system"])
        s1 = split_period(w["t1"], system.period)[1]
        parts = {(*p[:2], p[-2]): p[:5] for _, chunk in lyapunov._grid_parts(
            system, s1, s1 + w["t2"] - w["t1"]) for p in chunk}
        deepest = max(len(steps) for steps, _ in propagation._magnus_steps(
            list(parts.values()), DEFAULT_TOLERANCES))
        calls = _count_maps(monkeypatch, lambda: lyapunov.disconjugacy_oracle(
            system, w["t1"], w["t2"]))
        assert (calls == 1) == (deepest <= propagation._FIRST_STEPS)
        one += calls == 1
    assert one == 27


def _stepped_pieces(monkeypatch, fn):
    """fn(), and the number of smooth pieces of each `_magnus_steps` call it makes."""
    counts, steps = [], propagation._magnus_steps

    def counted(pieces, tol):
        counts.append(len(pieces))
        return steps(pieces, tol)

    monkeypatch.setattr(propagation, "_magnus_steps", counted)
    out = fn()
    monkeypatch.setattr(propagation, "_magnus_steps", steps)
    return out, counts


@pytest.mark.parametrize("system", [
    system_from_descriptor(sweep_descriptor(0)), generate(GeneratorSpec(seed=12)),
    generate(GeneratorSpec(seed=5, amplitude=4.0))], ids=["sweep_0", "seed_12", "seed_5_amp_4"])
def test_a_dense_paths_head_steps_only_its_first_piece_apart_from_the_cycle(monkeypatch, system):
    T, eps = system.period, propagation.knot_eps(system.period)
    cycle = [p for p in system.pieces() if p[1] - p[0] > eps]
    head = [p for p in system.pieces(0.3 * T, T) if p[1] - p[0] > eps]
    path, counts = _stepped_pieces(monkeypatch, lambda: DensePath(system, 0.3 * T, 3 * T))
    assert len(head) > 1 and counts == [len(cycle) + 1]
    for window, lo in ((path.head, 0.3 * T), (path.cycle, 0.0)):  # the same as stepped alone
        (alone,) = propagation._windows([(system, lo, T, False)], DEFAULT_TOLERANCES)
        assert np.array_equal(window.end, alone.end)
        assert all(np.array_equal(p.steps, q.steps) for p, q in zip(window.pieces, alone.pieces))


def _reference_rows(doc, axes, tol=DEFAULT_TOLERANCES):
    """One point at a time, as the sweep evaluated its grid before chunking."""
    (p0, v0s), (p1, v1s) = axes
    rows = []
    for v0 in v0s:
        for v1 in v1s:
            point = doc
            assignments = [(p0, float(v0)), (p1, float(v1))]
            try:
                for path, value in assignments:
                    point = set_descriptor_value(point, path, value)
                system = system_from_descriptor(point)
                violations = validate_system(system)
                if violations:
                    raise InvalidSystemError(violations)
                m = monodromy(system, tol)
                verdict = classify(m)
                conclusions = {r.criterion: r.conclusion for r in evaluate_all(system, tol)}
                rows.append([*(v for _, v in assignments), m.trace, m.det, verdict.category,
                             *(conclusions[c] for c in CRITERION_ORDER), "ok"])
            except (DescriptorError, InvalidSystemError, IntegrationFailureError) as exc:
                rows.append([*(v for _, v in assignments), "", "", "",
                             *([""] * len(CRITERION_ORDER)), f"error: {exc}"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([p0, p1, *cli.SWEEP_BASE_COLUMNS])
    writer.writerows(rows)
    return buf.getvalue()


def _sweep(tmp_path, axes, workers):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(sweep_descriptor(0)))
    out = tmp_path / f"out{workers}.csv"
    argv = ["sweep", "--input", str(src), "--output", str(out), "--workers", str(workers)]
    for path, lo, hi, steps in axes:
        argv += ["--axes", f"{path}={lo}:{hi}:{steps}"]
    assert cli.main(argv) == 0
    return out.read_bytes().decode("utf-8")


def test_mixed_grid_rows_equal_the_per_point_reference(tmp_path):
    # alpha = 0 is invalid, c near 1e13 has a non-finite step map, the rest are ok
    axes = [("impulses[0].alpha", -1.0, 1.0, 5), ("coefficients.c[0].poly[0]", 1.0, 4e13, 7)]
    text = _sweep(tmp_path, axes, 1)
    statuses = [row[-1] for row in csv.reader(io.StringIO(text))][1:]
    assert statuses.count("ok") == 4
    assert sum(s.startswith("error: impulse 1") for s in statuses) == 7
    assert sum(s.startswith("error: non-finite step map") for s in statuses) == 24
    grid = [(p, np.linspace(lo, hi, n)) for p, lo, hi, n in axes]
    doc = sweep_descriptor(0)
    assert text == _reference_rows(doc, grid)
    assert doc == sweep_descriptor(0)


def test_two_workers_equal_the_serial_sweep(tmp_path):
    axes = [("coefficients.c[0].poly[0]", float(SWEEP_ROW_VALUES[0]), 3.0, 3),
            ("impulses[0].beta", -2.0, 2.0, 50)]
    serial = _sweep(tmp_path, axes, 1)
    assert len(serial.splitlines()) == 151 > CHUNK + 1
    assert _sweep(tmp_path, axes, 2) == serial


# -- criteria of many systems: coefficient quantities shared per coefficient set --

def _assert_same_reports(entry, expected):
    if isinstance(expected, Exception):
        assert type(entry) is type(expected)
        assert str(entry) == str(expected)
        return
    # json text, not dicts: -0.0 == 0.0 would hide a margin's sign
    assert [json.dumps(r.to_json()) for r in entry] == [json.dumps(r.to_json()) for r in expected]


@st.composite
def coefficient_sharing_chunks(draw):
    """Up to eight systems on at most three coefficient sets. Each system draws
    its own impulse numbers, often beta = 0 or alpha = 1, and may move the
    first impulse time, which gives its coefficients another breakpoint."""
    T = draw(st.floats(0.2, 3.0))
    coef = st.floats(-1.5, 1.5)

    def coefficient(first=coef):
        cuts = sorted(draw(st.sets(st.integers(1, 99), max_size=2)))
        segs = [[draw(first), *draw(st.lists(coef, max_size=2))] for _ in range(len(cuts) + 1)]
        return poly(None, T=T, breaks=[T * k / 100 for k in cuts], per_segment=segs)

    bases = [(coefficient(), coefficient(st.floats(0.2, 8.0)), coefficient())
             for _ in range(draw(st.integers(1, 3)))]
    taus = sorted(draw(st.sets(st.integers(2, 98), max_size=3)))
    chunk = []
    for _ in range(draw(st.integers(1, 8))):
        a, b, c = draw(st.sampled_from(bases))
        moved = [k + draw(st.sampled_from([0, 0, 1])) if i == 0 else k for i, k in enumerate(taus)]
        impulses = [(T * k / 100, draw(st.sampled_from([1.0, -1.0, 0.5, 2.0])),
                     draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))) for k in moved]
        if len(set(moved)) == len(moved):
            chunk.append(make_system(a, b, c, T=T, impulses=impulses))
    return chunk


@settings(max_examples=80, deadline=None)
@given(coefficient_sharing_chunks())
def test_each_criteria_entry_equals_evaluate_all(chunk):
    entries = evaluate_many(chunk)
    assert len(entries) == len(chunk)
    for entry, system in zip(entries, chunk):
        _assert_same_reports(entry, _single(system, evaluate_all))


def _integrate_calls(monkeypatch, fn):
    calls = []
    integrate = PiecewiseFunction.integrate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return integrate(self, *args, **kwargs)

    monkeypatch.setattr(PiecewiseFunction, "integrate", counted)
    fn()
    monkeypatch.setattr(PiecewiseFunction, "integrate", integrate)
    return len(calls)


def _beta_row(doc, betas=np.linspace(-2.0, 2.0, 21)):
    return [system_from_descriptor(set_descriptor_value(doc, "impulses[0].beta", float(b)))
            for b in betas]


def test_signed_zero_coefficients_do_not_share(monkeypatch):
    c = [PiecewiseFunction(1.0, (0.5,), (PolySegment((2.0, zero)), PolySegment((1.0,))))
         for zero in (0.0, -0.0, 0.0)]
    chunk = [make_system(0.3, 1.0, ci, impulses=[(0.25, 1.0, 0.4)]) for ci in c]
    assert c[0] == c[1]  # equal as dataclasses, so the key must look at the sign
    entries = evaluate_many(chunk)
    for entry, system in zip(entries, chunk):
        _assert_same_reports(entry, _single(system, evaluate_all))
    one = _integrate_calls(monkeypatch, lambda: evaluate_all(chunk[0]))
    assert _integrate_calls(monkeypatch, lambda: evaluate_many(chunk)) == 2 * one


def test_one_integrate_pass_per_distinct_coefficient_set(monkeypatch):
    rows = sweep_rows(sweep_descriptor(0))
    row = _beta_row(rows[0])
    one = _integrate_calls(monkeypatch, lambda: evaluate_all(row[0]))
    assert _integrate_calls(monkeypatch, lambda: evaluate_many(row)) == one
    three = [s for doc in rows[:3] for s in _beta_row(doc, [-1.0, 0.0, 1.0])]
    assert _integrate_calls(monkeypatch, lambda: evaluate_many(three)) == 3 * one
    job = (rows[0], [[("impulses[0].beta", b)] for b in np.linspace(-2.0, 2.0, 21)],
           DEFAULT_TOLERANCES)
    assert _integrate_calls(monkeypatch, lambda: cli._sweep_chunk(job)) == one


def test_a_beta_row_parses_each_coefficient_and_steps_each_piece_once(monkeypatch):
    doc = sweep_rows(sweep_descriptor(0))[0]
    job = (doc, [[("impulses[0].beta", float(b))] for b in np.linspace(-2.0, 2.0, 21)],
           DEFAULT_TOLERANCES)
    parses, coefficient = [], descriptors._coefficient

    def counted(segments, period, path):
        parses.append(path)
        return coefficient(segments, period, path)

    monkeypatch.setattr(descriptors, "_coefficient", counted)
    rows, counts = _stepped_pieces(monkeypatch, lambda: cli._sweep_chunk(job))
    assert [row[-1] for row in rows] == ["ok"] * 21
    assert counts == [5] and len(parses) == 3


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def test_a_beta_row_builds_what_its_impulses_do_not_change_once(monkeypatch):
    doc = sweep_rows(sweep_descriptor(0))[0]
    job = (doc, [[("impulses[0].beta", float(b))] for b in np.linspace(-2.0, 2.0, 21)],
           DEFAULT_TOLERANCES)
    built, keys, merges, refined = [], [], [], []
    for owner, name, calls in ((criteria, "Condition", built), (criteria, "_coefficient_key", keys),
                               (system, "merge_knots", merges),
                               (PiecewiseFunction, "with_breakpoints", refined)):
        monkeypatch.setattr(owner, name, _counting(calls, getattr(owner, name)))
    descriptors.path_keys.cache_clear()
    rows = cli._sweep_chunk(job)
    parses = descriptors.path_keys.cache_info()
    assert [row[-1] for row in rows] == ["ok"] * 21
    shared = {label for label, build in criteria._CONDITIONS.items()
              if getattr(build, "coefficient_only", False)}
    # every point has impulses, so the impulse-free-only criteria build no hypothesis
    counts = Counter(label for label, *_ in built)
    assert {label for label in counts if label in shared} == {criteria.LBL_B_POS,
                                                              criteria.LBL_RATIO_CONT}
    assert len(counts) - 2 == len(set(criteria._CONDITIONS) - shared) == 6
    assert counts == {label: 1 if label in shared else 21 for label in counts}
    assert len(keys) == 1
    assert (parses.misses, parses.hits) == (1, 20)
    assert len(merges) == 1 and len(refined) == 3  # the first point's knots, a, b and c


_MOVES = {  # the seed-0 sweep descriptor: T = 1, knots 0.3353 and 0.7417, taus 0.4410, 0.7048
    "period": st.sampled_from([1.0, 1.0 + 4e-10, 1.0 - 4e-10, 0.9]),
    "coefficients.c[0].end": st.one_of(st.sampled_from([0.44097762396483986, 0.8, 1.0]),
                                       st.floats(0.05, 0.74)),
    "coefficients.a[2].end": st.sampled_from([1.0, 1.0 + 4e-10, 0.99]),
    "impulses[0].tau": st.one_of(st.sampled_from([0.0, 0.33530360411670945, 0.7048205756643636]),
                                 st.floats(0.0, 1.0)),
    "impulses[1].tau": st.sampled_from([0.44097762396483986, 0.7048205756643636, 0.9]),
    "impulses[0].alpha": st.one_of(st.sampled_from([0.0, -1.0, 2.0]), st.floats(-2.0, 2.0)),
    "coefficients.b[1].poly[1]": st.floats(-2.0, 2.0),
    "impulses[1].beta": st.floats(-2.0, 2.0),
}


@st.composite
def sweep_grids(draw):
    """Two axes of one to three values each, repeats allowed, error points included:
    fields whose moves end a chunk's reuse (the period, a segment end, an impulse
    time), give one coefficient a new list (a polynomial coefficient) or keep it
    (alpha, beta)."""
    paths = draw(st.lists(st.sampled_from(sorted(_MOVES)), min_size=2, max_size=2, unique=True))
    return [(p, draw(st.lists(_MOVES[p], min_size=1, max_size=3))) for p in paths]


@settings(max_examples=60, deadline=None)
@given(sweep_grids())
def test_a_chunk_equals_the_per_point_reference(axes):
    doc = sweep_descriptor(0)
    (p0, v0s), (p1, v1s) = axes
    points = [[(p0, float(v0)), (p1, float(v1))] for v0 in v0s for v1 in v1s]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([p0, p1, *cli.SWEEP_BASE_COLUMNS])
    writer.writerows(cli._sweep_chunk((doc, points, DEFAULT_TOLERANCES)))
    assert buf.getvalue() == _reference_rows(doc, axes)


def test_sweep_points_leave_the_descriptor_unchanged():
    doc = sweep_descriptor(0)
    before = json.dumps(doc)
    job = (doc, [[("impulses[0].beta", 0.5), ("coefficients.c[0].poly[0]", 2.0)]],
           DEFAULT_TOLERANCES)
    assert cli._sweep_chunk(job)[0][-1] == "ok"
    assert json.dumps(doc) == before


# -- probes: inputs that ended in a traceback --

def _generated_descriptor(seed):
    return system_to_descriptor(generate(GeneratorSpec(seed=seed, amplitude=2000.0,
                                                       poly_degree=3)))


def _alternating_a_descriptor(segments):
    """a alternates between +1200 and -1200 on equal segments, b = c = 1, T = 1,
    one impulse: exp(2 int|a|) = exp(2400) is beyond the float range."""
    a = [{"end": (k + 1) / segments, "poly": [1200.0 if k % 2 == 0 else -1200.0]}
         for k in range(segments)]
    tau = (segments // 2 + 0.5) / segments
    return {"period": 1.0, "coefficients": {"a": a, "b": [{"end": 1.0, "poly": [1.0]}],
                                            "c": [{"end": 1.0, "poly": [1.0]}]},
            "impulses": [{"tau": tau, "alpha": 1.0, "beta": 0.3}]}


def _main(tmp_path, capsys, command, doc, *extra):
    src = tmp_path / "probe.json"
    src.write_text(json.dumps(doc))
    rc = cli.main([command, "--input", str(src), *extra])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("seed", [1, 8])
def test_overflowing_period_map_is_an_integration_failure(tmp_path, capsys, seed):
    doc = _generated_descriptor(seed)
    with pytest.raises(IntegrationFailureError, match="non-finite period map"):
        monodromy(system_from_descriptor(doc))
    rc, _, err = _main(tmp_path, capsys, "analyze", doc)
    assert rc == 3 and "non-finite period map" in err
    rc, out, _ = _main(tmp_path, capsys, "sweep", doc, "--axes", "impulses[0].beta=-1:1:2")
    assert rc == 0
    statuses = [row[-1] for row in csv.reader(io.StringIO(out))][1:]
    assert len(statuses) == 2
    assert all(s.startswith("error: non-finite period map") for s in statuses)


def _exp_condition(reports):
    main = next(r for r in reports if r["criterion"] == "main")
    return main["conditions"][-1]


def test_exp_weight_beyond_float_range_is_decided_in_log_space(tmp_path, capsys):
    # 200 segments keep the period map finite; 20 let it overflow
    finite, overflowing = _alternating_a_descriptor(200), _alternating_a_descriptor(20)
    for doc in (finite, overflowing):
        rc, out, _ = _main(tmp_path, capsys, "criteria", doc)
        assert rc == 0
        cond = _exp_condition(json.loads(out)["criteria"])
        assert (cond["status"], cond["margin"]) == ("violated", None)
        assert "log space" in cond["note"]
    rc, out, _ = _main(tmp_path, capsys, "analyze", finite)
    assert rc == 0 and _exp_condition(json.loads(out)["criteria"])["margin"] is None
    rc, _, err = _main(tmp_path, capsys, "analyze", overflowing)
    assert rc == 3 and "non-finite period map" in err
    rc, out, _ = _main(tmp_path, capsys, "sweep", finite, "--axes", "impulses[0].beta=-1:1:3")
    assert rc == 0
    assert [row[-1] for row in csv.reader(io.StringIO(out))][1:] == ["ok"] * 3


def test_exp_weight_in_float_range_keeps_its_margin():
    q = criteria._Quantities(make_system(poly([0.0, 2.0]), 1.0, 0.5), DEFAULT_TOLERANCES)
    cond = criteria._CONDITIONS[criteria.LBL_EXP_PRODUCT](q)
    assert cond.margin == 4.0 - math.exp(2.0 * q.int_abs_a) * q.int_b * q.pos_mass


def test_criteria_exception_becomes_an_error_row(monkeypatch, tmp_path, capsys):
    def fails_for_positive_beta(q):
        if q.system.schedule.impulses[0].beta > 0.0:
            raise OverflowError("math range error")
        return exp_condition(q)

    exp_condition = criteria._CONDITIONS[criteria.LBL_EXP_PRODUCT]
    monkeypatch.setitem(criteria._CONDITIONS, criteria.LBL_EXP_PRODUCT, fails_for_positive_beta)
    rc, out, _ = _main(tmp_path, capsys, "sweep", sweep_descriptor(0),
                       "--axes", "impulses[0].beta=-1:1:3")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[-1] for row in rows] == ["ok", "ok", "error: math range error"]
    assert rows[2][1:-1] == [""] * (len(rows[2]) - 2)
