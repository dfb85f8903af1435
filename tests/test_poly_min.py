"""`poly_min_on` takes a linear derivative's root in closed form; it must give
the same bits as the numpy.polynomial path it replaced."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet.piecewise import poly_min_on


def _numpy_poly_min(coeffs, lo, hi):
    """The former implementation, kept as the reference."""
    cands = [lo, hi]
    der = npoly.polyder(coeffs)
    if len(der) and np.any(np.asarray(der) != 0.0):
        roots = npoly.polyroots(der)
        real = roots[np.abs(roots.imag) < 1e-9].real
        cands.extend(float(r) for r in real if lo < r < hi)
    vals = npoly.polyval(np.asarray(cands), coeffs)
    i = int(np.argmin(vals))
    return float(vals[i]), float(cands[i])


# Zero or at least 1e-6 in magnitude: npoly.polyroots, which both paths call for
# cubics and above, fails once its companion matrix overflows.
_coef = st.one_of(st.integers(-30000, 30000).map(lambda k: k / 1e4),
                  st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-6))


@settings(max_examples=500, deadline=None)
@given(st.lists(_coef, min_size=1, max_size=5), st.floats(-2.0, 1.0),
       st.one_of(st.floats(0.0, 3.0), st.just(1e-9)))
def test_same_bits_as_the_numpy_path(coeffs, lo, width):
    coeffs, hi = tuple(coeffs), lo + width
    assert poly_min_on(coeffs, lo, hi) == _numpy_poly_min(coeffs, lo, hi)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_same_bits_on_random_polynomials(degree):
    # hypothesis favours simple values, where the root's division is exact
    rng = np.random.default_rng(degree)
    for _ in range(3000):
        coeffs = tuple(float(c) for c in rng.uniform(-3.0, 3.0, degree + 1))
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        assert poly_min_on(coeffs, lo, hi) == _numpy_poly_min(coeffs, lo, hi)
