"""Benchmark worker: imports pbcurl once, then runs each unit in a forked child.

Usage: ``python3 worker.py``, then one ``SPEC.json`` path per line on standard
input; for each, the worker forks a child that runs the unit and writes one
line with the child's exit code to standard output. The worker exits at the
end of its input. The parent sets the thread environment before this process
starts, so numpy's BLAS is pinned to one thread from its first import.

A spec names the directory to run in, the calls (``{"id", "argv",
"trace"}``), where to write the result and, for a traced unit, where to write
the spans. Each unit is a fresh process (its own peak RSS, no state left by
an earlier unit) that does not pay the second it takes to import the package.

A call that exits non-zero or raises is recorded with its message and the
child goes on with the next call.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Reference:
    """A fixed kernel of about 0.05 s on numpy and the interpreter, independent
    of pbcurl.

    Timed before and after every CLI call, it tells how fast the host runs at
    that moment, so the parent can scale call times to a nominal host speed.
    Its four parts take about the same time and cover what the CLI spends
    its time on: streaming a 6 MB matrix, many small array
    operations, an interpreter loop, and parsing CSV text.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((40000, 20))
        self.w = rng.standard_normal((20, 32)) / 4.0
        self.idx = rng.integers(0, len(self.x), 2750)
        self.lines = [",".join(f"{v:.6f}" for v in row) + ",3" for row in self.x[:3000]]

    def run(self):
        total = float(np.tanh(self.x @ self.w).sum())
        for _ in range(20):
            h = np.tanh(self.x[self.idx] @ self.w)
            total += float((h.T @ h).trace())
        acc = 0
        for i in range(150000):
            acc += i * i % 7
        rows = [[float(c) for c in line.strip().split(",")[:-1]] for line in self.lines]
        return total + acc + len(rows)

    def time(self):
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def run_call(cli, tracer, call_id, argv, traced):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if traced:
                rc = tracer.cli_call(call_id, argv)
            else:
                rc = cli.main(argv)
    except SystemExit as exc:          # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:           # an escaped error is a failed call, not a crash
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[-500:]}"
    return {"id": call_id, "wall_s": wall, "error": error}


def run_unit(cli, reference, spec_path):
    """The body of a forked child: run one unit's calls and write its result."""
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.makedirs(spec["cwd"], exist_ok=True)
    os.chdir(spec["cwd"])

    tracer = None
    if any(call["trace"] for call in spec["calls"]):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reference.run()                    # first touch in this process, untimed
    # ref_s[i] and ref_s[i + 1] bracket call i
    result = {"provenance": provenance(), "calls": [], "ref_s": [reference.time()]}
    for call in spec["calls"]:
        result["calls"].append(run_call(cli, tracer, call["id"], call["argv"], call["trace"]))
        result["ref_s"].append(reference.time())
    result["wall_s"] = sum(rec["wall_s"] for rec in result["calls"])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        traced = {call["id"] for call in spec["calls"] if call["trace"]}
        self_s = tracer.self_times()
        result["layers"] = tracer.summary(traced, self_s)
        sums = tracer.call_self_sums(self_s)
        for rec in result["calls"]:
            if rec["id"] in traced:
                rec["self_sum_s"] = sums.get(rec["id"], 0.0)
        tracer.write(spec["spans_out"])

    with open(spec["result_out"], "w") as fh:
        json.dump(result, fh)


def main():
    from pbcurl import cli
    import tracer  # noqa: F401  (imported once here, installed per traced unit)

    reference = Reference()
    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                run_unit(cli, reference, line.strip())
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)


if __name__ == "__main__":
    main()
