import contextlib
import signal

import pytest


class TimeLimitExceeded(Exception):
    """Raised by the time_limit guard.  It is neither an OSError nor a
    ValueError, so cli.main lets it escape instead of reporting exit 1."""


@contextlib.contextmanager
def _time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """``with time_limit(s):`` fails the test if the block runs past s seconds,
    so an unbounded computation fails instead of hanging the suite."""
    return _time_limit
