import logging

import pytest


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def _no_package_warnings(request):
    """Fail a test that logs a warning under the `impulse_floquet` logger, as the
    filterwarnings setting does for a RuntimeWarning: a quadrature that hits its
    split budget says so only there. A test that requests caplog reads the
    records itself."""
    if "caplog" in request.fixturenames:
        yield
        return
    handler = _Records()
    logger = logging.getLogger("impulse_floquet")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail("logged under impulse_floquet: "
                    + "; ".join(r.getMessage() for r in handler.records), pytrace=False)
