import contextlib
import signal

import pytest
from hypothesis import settings

from zedsim.traces import GeneratorSpec, generate_trace

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


@contextlib.contextmanager
def time_limited():
    """Raise TimeLimitExceeded in what runs past TEST_TIME_LIMIT_S instead of letting
    it hang the suite; no limit where the platform has no SIGALRM. A fixture wider
    than one test runs before the test's limit is armed, so it takes its own."""
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


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S."""
    with time_limited():
        yield


@pytest.fixture(scope="session")
def calibrated_trace():
    """The seed-7 trace of 5000 instances, calibrated to the paper's exit accuracies
    at the balanced threshold and its share of persons; no test mutates it."""
    return generate_trace(GeneratorSpec(5000, 0.7265, 0.8309, 0.5386, 7))
