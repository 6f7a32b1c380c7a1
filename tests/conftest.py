"""A per-test time limit for the suite.

Every test runs under a real-time alarm of TEST_SECONDS, so a test that
hangs (a loop that never ends) fails instead of holding the run until
the CI job's own timeout.  The slowest test takes a few seconds.

The limit is one ITIMER_REAL alarm.  A test that arms the same timer
for itself, as test_input_fuzz.py does per run, must keep this one in
force: fire no later than it, and re-arm what is left of it.
"""

import signal

import pytest

TEST_SECONDS = 120


class TestTimeLimit(BaseException):
    """Raised by the alarm.  Not an Exception, so no handler in the
    program under test can swallow it, and not pytest's own failure, so
    hypothesis does not retry the example it cut off."""

    __test__ = False  # a class, not a test, despite its name


def _expired(signum, frame):
    raise TestTimeLimit("the test ran past its %d s limit" % TEST_SECONDS)


@pytest.fixture(autouse=True)
def _time_limit():
    old = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
