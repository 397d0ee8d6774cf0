import signal

import pytest
from hypothesis import settings

# derandomised: every run draws the same examples, so tier-1 stays
# reproducible; no example database is written
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=30)
settings.load_profile("tier1")

# seconds any one test may run; the slowest takes well under one
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """A test ran past its time limit. Not an Exception, so Hypothesis does not
    catch it and replay the example that hung: pytest reports the test failed."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of letting it hang the
    suite; no limit where the platform has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
