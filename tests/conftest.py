import os
import signal
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# keep the shared checks in helpers.py live under ``python -O`` too
pytest.register_assert_rewrite("helpers")

#: seconds a test may run before it fails: above every fresh-process pin's
#: own timeout (60 s at most) and far above the slowest in-process test
#: (about 2 s), so it turns a hang into a failure and tightens no bound
DEADLINE_S = 120


@pytest.fixture(autouse=True)
def _deadline(request):
    """Fail the test once it has run ``DEADLINE_S`` seconds, through
    ``SIGALRM``; the handler and timer in place before are restored after.
    Where ``setitimer`` is missing, or off the main thread, no deadline
    applies."""
    main = threading.current_thread() is threading.main_thread()
    if not hasattr(signal, "setitimer") or not main:
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past its {DEADLINE_S} s deadline")

    handler = signal.signal(signal.SIGALRM, expire)
    delay, interval = signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if delay:  # an earlier timer resumes with what it had left
            left = max(delay - (time.monotonic() - started), 1e-6)
            signal.setitimer(signal.ITIMER_REAL, left, interval)
