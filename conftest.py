"""Anchors pytest at the repo root so tests can import helpers from tests.*,
and fails a test whose call phase runs past TEST_TIME_LIMIT seconds.

A kernel fault that makes symbolic expressions blow up would otherwise stall
the suite instead of failing it; the slowest test takes a few seconds.  The
limit is a real-time timer (SIGALRM), so it does nothing where the platform
has no SIGALRM.
"""

import signal

import pytest

TEST_TIME_LIMIT = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past the limit, and again every second
    until the test ends.  Not an Exception, so the code under test does not
    catch it; hypothesis records it as a failure and may go on replaying
    examples, which the repeats cut short."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran past the {TEST_TIME_LIMIT} s limit "
                            "of conftest.TEST_TIME_LIMIT")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
