import os
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from pbcurl import network

REPLAY = pathlib.Path(__file__).resolve().parents[1] / "tools" / "replay.py"


def run_replay(*args):
    """Run tools/replay.py in a child process with one BLAS thread."""
    # one BLAS thread: trained weights differ by an ulp between one and two
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(REPLAY), *args], env=env,
                          capture_output=True, text=True, timeout=900)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pin_workers(monkeypatch):
    """Fix network.worker_count's ceiling, whatever the machine: pin(n) gives
    min(#jobs, n) workers to the Monte Carlo pass, the CSV writer and the trainer."""
    def pin(n):
        monkeypatch.setattr(network, "worker_count", lambda n_jobs: min(n_jobs, n))
    return pin


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


@pytest.fixture(scope="session")
def replay_tree(tmp_path_factory):
    """The replay run once per session: the byte gate checks its digests and
    the oracle acceptance test reads its verify call's report, so tier-1 runs
    the verify suite once."""
    out = tmp_path_factory.mktemp("replay") / "replay"
    t0 = time.monotonic()
    proc = run_replay("--out", str(out))
    return SimpleNamespace(proc=proc, out=out, elapsed=time.monotonic() - t0)
