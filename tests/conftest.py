import faulthandler
import os
import sys

import pytest

# No test takes more than a few seconds (criterion 12, the slowest, about
# 3 s); a test still running after this long has stopped advancing.
TEST_TIME_LIMIT_S = 60

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended here.  While a test runs, descriptor 2
    # goes to a capture file that a faulthandler exit would discard.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Ends the run with every thread's traceback when a test passes the
    limit.  An exception raised from a signal handler could be caught, or
    lost in a Hypothesis test that is shrinking; this exit cannot."""
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
