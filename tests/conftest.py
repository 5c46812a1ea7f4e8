import os
import time

import pytest
from hypothesis import settings

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

_CACHE = {}


@pytest.fixture(scope="session")
def preset_results():
    """Memoized preset runner: returns (result, elapsed_seconds)."""
    import nhlattice as nh

    def get(name):
        if name not in _CACHE:
            t0 = time.perf_counter()
            result = nh.run_preset(name)
            _CACHE[name] = (result, time.perf_counter() - t0)
        return _CACHE[name]

    return get


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped (a CLI run in a child, say)."""
    yield
    if hasattr(os, "fork"):
        try:
            left = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        pytest.fail(f"the test left a child process behind (waitpid: {left})")
