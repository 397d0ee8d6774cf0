"""The per-test time limit of ``conftest.py`` turns a hang into a failure."""

import signal

import pytest

from conftest import TEST_TIME_LIMIT_S, TimeLimitExceeded


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the limit needs SIGALRM")
def test_a_test_past_its_limit_is_interrupted():
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
    signal.setitimer(signal.ITIMER_REAL, 0.01)  # expire now, as if the test had hung
    with pytest.raises(TimeLimitExceeded, match=f"longer than {TEST_TIME_LIMIT_S} s"):
        while True:
            pass
