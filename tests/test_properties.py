"""Invariants from the theory, checked over generated systems: the period map's
trace and the criteria's period integrals do not depend on where the period
starts, and no criterion certifies a system that is not stable."""

from hypothesis import given, settings, strategies as st

from impulse_floquet import STABLE, classify, evaluate_all, monodromy, time_shift
from impulse_floquet.criteria import CERTIFIED, _Quantities
from impulse_floquet.harness import MODES, GeneratorSpec, generate
from impulse_floquet.piecewise import segments_extrema
from impulse_floquet.tolerances import DEFAULT_TOLERANCES

from test_magnus import systems


def _shift(draw, sys_):
    """A shift that puts no impulse or breakpoint at the new t = 0 (both sit
    on hundredths of the period in `systems`)."""
    return sys_.period * (draw(st.integers(0, 99)) + draw(st.floats(0.1, 0.9))) / 100


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_time_shift_keeps_the_trace(data):
    sys_ = data.draw(systems())
    shifted = time_shift(sys_, _shift(data.draw, sys_))
    trace = monodromy(sys_).trace
    assert abs(monodromy(shifted).trace - trace) <= 1e-9 * max(1.0, abs(trace))


def _lift_b(sys_):
    """The same system with b raised to a minimum of 0.5, so a^2/b is defined."""
    b = sys_.coeff_b
    low = segments_extrema(zip(b.knots[:-1], b.knots[1:], b.segments))[0]
    if low >= 0.5:
        return sys_
    return type(sys_)(sys_.coeff_a, b.plus_constant(0.5 - low), sys_.coeff_c, sys_.schedule)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_time_shift_keeps_the_period_integrals(data):
    sys_ = _lift_b(data.draw(systems()))
    shifted = time_shift(sys_, _shift(data.draw, sys_))
    q, r = _Quantities(sys_, DEFAULT_TOLERANCES), _Quantities(shifted, DEFAULT_TOLERANCES)
    # each integral against the integral of its absolute integrand
    for name, scale in (("int_abs_a", q.int_abs_a), ("int_c", q.int_abs_c),
                        ("int_c_plus", q.int_abs_c), ("int_abs_c", q.int_abs_c),
                        ("int_a2_over_b", q.int_a2_over_b)):
        assert abs(getattr(r, name) - getattr(q, name)) <= 1e-10 * max(scale, 1e-3), name


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MODES), st.integers(0, 10 ** 6))
def test_no_certificate_without_stability(mode, seed):
    sys_ = generate(GeneratorSpec(seed=seed, mode=mode))
    verdict = classify(monodromy(sys_)).category
    certified = [r.criterion for r in evaluate_all(sys_) if r.conclusion == CERTIFIED]
    assert verdict == STABLE or not certified, (verdict, certified)
