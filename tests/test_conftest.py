"""The test suite's own guard: a warning under the `impulse_floquet` logger fails the
Hypothesis example that logs it, which Hypothesis shrinks and reports."""

import logging

import pytest
from hypothesis import given, settings, strategies as st


def test_a_logged_warning_fails_its_hypothesis_example(_no_package_warnings):
    @settings(max_examples=100, database=None, derandomize=True)
    @given(n=st.integers(0, 1000))
    def logs_from_ten(n):
        if n >= 10:
            logging.getLogger("impulse_floquet").warning("split budget hit at %d", n)

    with pytest.raises(pytest.fail.Exception, match="split budget hit at 10") as info:
        logs_from_ten()
    assert "Falsifying example: logs_from_ten(\n    n=10,\n)" in "\n".join(info.value.__notes__)
    _no_package_warnings.records.clear()  # read here, not a failure of this test
