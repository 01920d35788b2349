"""A per-test time limit, so that a hang fails one test instead of the run."""

from __future__ import annotations

import signal

import pytest

TEST_SECONDS = 300


@pytest.fixture(autouse=True)
def _time_limit(request):
    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
