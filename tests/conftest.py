import os
import pathlib
import signal
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


@pytest.fixture
def one_job_each(monkeypatch, tmp_path):
    """Patch network.run_jobs so that every worker holds its first job until
    each worker of the pass has claimed one.

    A worker claims no second job before it lets its first go, so with at
    least as many jobs as workers every worker runs one or more, however
    late a forked worker starts. Each worker appends its pid to a file that
    every pass starts empty, and waits until the file names them all.
    """
    run_jobs, path = network.run_jobs, tmp_path / "one_job_each"

    def held(jobs):
        workers = network.worker_count(len(jobs))
        path.write_text("")
        started = []                        # this process's first job has begun

        def hold(job):
            def run():
                if not started:
                    started.append(True)
                    with open(path, "a") as fh:
                        fh.write(f"{os.getpid()}\n")
                    stop = time.monotonic() + 60
                    while len(path.read_text().split()) < workers:
                        if time.monotonic() > stop:
                            raise TimeoutError("the workers did not each claim a job in 60 s")
                        time.sleep(0.001)
                job()
            return run

        run_jobs([hold(job) for job in jobs])

    monkeypatch.setattr(network, "run_jobs", held)


@pytest.fixture
def children_run_every_job(monkeypatch):
    """Patch network.on_workers so that worker 0 starts only once every forked
    worker has been reaped: in a run_jobs pass the children claim every job,
    and worker 0 finds none left."""
    on_workers = network.on_workers

    def late(n, work):
        def children_only(i):
            if i:
                work(i)

        on_workers(n, children_only)
        work(0)

    monkeypatch.setattr(network, "on_workers", late)


@pytest.fixture
def deadline():
    """Fail a call that waits on a worker for more than a minute, rather than hang."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its one-minute deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def record_calls(monkeypatch, path, owner, name, size):
    """Patch owner.name to append "<pid> <size(args)>" to path on every call.

    Forked workers inherit the patch; the file collects the calls of every
    process. Returns a function that reads the (pid, size) pairs so far.
    """
    fn = getattr(owner, name)

    def recorded(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {size(args)}\n")
        return fn(*args)

    monkeypatch.setattr(owner, name, recorded)

    def read():
        if not path.exists():
            return []
        return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    return read


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
