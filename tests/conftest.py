import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def leaves_no_child_process():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    reaped = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            pytest.fail("the test left a child process running")
        reaped.append(pid)
    if reaped:
        pytest.fail(f"the test left child processes {reaped} unreaped")
