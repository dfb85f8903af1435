import logging

import pytest

_CALL_FAILED = pytest.StashKey[bool]()


class _Records(logging.Handler):
    """Keeps each record and fails at the log call itself, so that the failure lands
    inside the example that logged it: Hypothesis then shrinks and reports it."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)
        pytest.fail(f"logged under impulse_floquet: {record.getMessage()}")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call":
        item.stash[_CALL_FAILED] = report.failed
    return report


@pytest.fixture(autouse=True)
def _no_package_warnings(request):
    """Fail a test that logs a warning under the `impulse_floquet` logger, as the
    filterwarnings setting does for a RuntimeWarning: a quadrature that hits its
    split budget says so only there. The log call raises; a test that passed all the
    same, its failure caught on the way, fails at teardown. A test that requests
    caplog reads the records itself."""
    if "caplog" in request.fixturenames:
        yield
        return
    handler = _Records()
    logger = logging.getLogger("impulse_floquet")
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
    if handler.records and not request.node.stash.get(_CALL_FAILED, False):
        pytest.fail("logged under impulse_floquet: "
                    + "; ".join(r.getMessage() for r in handler.records), pytrace=False)
