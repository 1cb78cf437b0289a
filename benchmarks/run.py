"""pbcurl benchmark: drives the public CLI on one workload and reports metrics.

Usage::

    python3 benchmarks/run.py --workload iid-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. Every CLI call runs in-process through
``pbcurl.cli.main``. A worker process, pinned to one BLAS thread, imports the
package once and forks a fresh child for each set-up repeat and each pass.
The set-up runs ``SETUP_REPEATS`` times, each in a fresh directory, and
``setup_s`` is their median. Passes of the timed phase then run, each in its
own child and its own fresh directory (``train`` appends to ``runs.jsonl``),
until ``--seconds`` of pass time are measured and at least two passes ran.
A child also times a fixed reference kernel before and after every call, and
each call's time is scaled by it to a nominal host speed (see ``REF_S``). A
metric is the median of its samples in the run.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
set-up plus traced passes, alternated with untraced passes so that the
tracing overhead is measured on the same inputs. The line before it holds the
details: provenance, every sample, certificate values, certificate and
checkpoint fingerprints, and every failure with its message. The same
details go to ``.bench_out/``.

A CLI call counts as failed when it exits non-zero, raises, fails an output
check, or writes a certificate or checkpoint whose sha256 differs from the
first repeat's. ``failed / attempted`` is the error rate.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 2
BUDGET_S = 170.0   # the whole invocation must end within 180 s
# Nominal time of the reference kernel in worker.py. A shared host runs the
# same code 20-60% slower for seconds to minutes at a time, and the kernel
# slows with it, so a call's time is reported as its wall time * REF_S / the
# mean of the kernel times just before and after it: the seconds the call
# takes when the host runs the kernel in REF_S. Raw wall times and kernel
# times are kept in the detail line.
REF_S = 0.05

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_s": "s",
    "train_tuples_per_s": "tuple-epochs/s",
    "bound_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

STAT_UNITS = {
    "calls": "count", "self_s": "s", "rows": "rows", "bytes": "B", "draws": "count",
    "inf_calls": "count", "accept_ratio": "ratio",
}

# the span stats reported per layer; see tracer.TRACED for every span recorded
LAYER_STATS = [
    ("data.gather", ("calls", "self_s", "rows")),
    ("data.load_contrastive", ("self_s", "bytes")),
    ("data.dataset_hash", ("self_s",)),
    ("data.save_contrastive", ("self_s",)),
    ("data.sample_contrastive_iid", ("self_s",)),
    ("data.gen_sequences", ("self_s",)),
    ("data.build_noniid_from_sequences", ("self_s",)),
    ("data.load_feature_csv", ("self_s",)),
    ("data.save_labeled_csv", ("self_s",)),
    ("network.forward_cached", ("calls", "self_s", "rows")),
    ("network.backprop", ("calls", "self_s")),
    ("network.feature_bound", ("calls", "self_s")),
    ("network.load_checkpoint", ("self_s",)),
    ("losses.contrastive_margins", ("self_s",)),
    ("losses.loss_value", ("self_s",)),
    ("losses.loss_margin_grad", ("self_s",)),
    ("losses.zero_one_risk", ("self_s",)),
    ("divergences.kl_gaussian", ("calls", "self_s")),
    ("divergences.kl_gaussian_grads", ("calls", "self_s")),
    ("divergences.chi2_log1p_grads", ("calls", "self_s")),
    ("divergences.chi2_gaussian", ("calls", "self_s")),
    ("training.contrastive_loss_and_wgrad", ("self_s",)),
    ("training.Adam.update", ("calls", "self_s")),
    ("training.train", ("self_s",)),
    ("training.iid_objective", ("calls",)),
    ("training.noniid_objective", ("calls", "inf_calls", "accept_ratio")),
    ("evaluation.mc_posterior_risk", ("calls", "self_s", "draws")),
    ("evaluation.evaluate_representation", ("self_s",)),
    ("bounds.selection_bound_iid", ("self_s",)),
    ("bounds.selection_bound_noniid", ("self_s",)),
    ("cli.main.gen-data", ("self_s",)),
    ("cli.main.train", ("self_s",)),
    ("cli.main.bound", ("self_s",)),
    ("cli.main.eval", ("self_s",)),
]

PER_LAYER = {f"{name}.{stat}": STAT_UNITS[stat] for name, stats in LAYER_STATS for stat in stats}
PER_LAYER["trace.overhead_s"] = "s"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_head():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Bench:
    def __init__(self, workload, work, out):
        self.wl = workload
        self.work = work
        self.out = out
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failures = []
        self.fingerprints = {}    # unit kind -> {output key: sha256} of its first writer
        self.certificates = {}
        self.provenance = None
        self.env = {k: v for k, v in os.environ.items() if k != "PBCURL_SEED"}
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.worker = None

    # -- processes ---------------------------------------------------------

    def start_worker(self):
        """Start the worker that imports pbcurl once and forks a child per unit."""
        self.worker_err = open(self.out / "worker.stderr", "w")
        self.worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.worker_err,
            start_new_session=True)

    def stop_worker(self):
        """End the worker and its child, if any, and wait for both."""
        if self.worker is None:
            return
        try:
            self.worker.stdin.close()
            self.worker.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.worker.poll() is None:
            os.killpg(self.worker.pid, signal.SIGKILL)
        # a child that outlived the worker is in its process group
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.worker.pid, signal.SIGKILL)
        self.worker.wait()
        self.worker_err.close()
        self.worker = None

    def run_worker(self, unit, cwd, calls, traced):
        """Run calls in one forked child of the worker in cwd; return its result."""
        spec = {
            "cwd": str(cwd),
            "calls": [{"id": c.id, "argv": c.argv, "trace": traced(c)} for c in calls],
            "result_out": str(self.out / f"{unit}.result.json"),
            "spans_out": str(self.out / f"{unit}.spans.jsonl"),
        }
        spec_path = self.out / f"{unit}.spec.json"
        write_json(spec_path, spec)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"out of time before {unit}")
        try:
            self.worker.stdin.write(f"{spec_path}\n")
            self.worker.stdin.flush()
        except OSError as exc:
            raise HarnessError(f"the worker is gone before {unit}: {exc}") from None
        ready, _, _ = select.select([self.worker.stdout], [], [], timeout)
        if not ready:
            raise HarnessError(f"{unit} did not finish within the time budget")
        line = self.worker.stdout.readline().strip()
        if line != "0":
            raise HarnessError(f"{unit} exited {line or 'with the worker'}; "
                               f"see {self.out / 'worker.stderr'}")
        result = read_json(spec["result_out"])
        if self.provenance is None:
            self.provenance = result["provenance"]
        return result

    def run_unit(self, kind, index, files, calls, traced):
        """One set-up repeat or one pass, in a fresh directory; checked."""
        cwd = self.work / ("setup" if kind == "setup" else f"pass-{index}")
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        for name, doc in files.items():
            write_json(cwd / name, doc)
        result = self.run_worker(f"{kind}-{index}", cwd, calls, traced)
        self.check(kind, index, cwd, calls, result)
        return result

    # -- checks ------------------------------------------------------------

    def check(self, kind, index, cwd, calls, result):
        errors = {rec["id"]: rec["error"] for rec in result["calls"]}
        values = {}
        digests = {}
        for call in calls:
            if errors[call.id] is not None:
                continue
            try:
                values[call.id], digests[call.id] = self.check_call(cwd, call)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors[call.id] = f"output check: {type(exc).__name__}: {exc}"
        for cert_id, heldout_id in self.wl.covers:
            if cert_id not in values or heldout_id not in values:
                continue
            cert = values[cert_id]["bound_value"]
            heldout = values[heldout_id]["empirical_risk"]
            if not (heldout <= cert < 1.0):
                errors[cert_id] = (f"output check: iid certificate {cert!r} is not in "
                                   f"[held-out risk {heldout!r}, 1)")
        first = self.fingerprints.setdefault(kind, {})
        for call in calls:
            digest = digests.get(call.id)
            if digest is not None and first.setdefault(call.key, digest) != digest:
                errors[call.id] = f"output differs from the first {call.key!r} of a {kind}"
        if index == 0:
            self.certificates[kind] = {c.key: values[c.id] for c in calls if c.id in values}
        for call in calls:
            self.attempted += 1
            if errors[call.id] is not None:
                self.failures.append({"unit": f"{kind}-{index}", "call": call.id,
                                      "argv": call.argv, "error": errors[call.id]})

    def check_call(self, cwd, call):
        """Return (recorded values, sha256 of the certificate or checkpoint
        written, if any) or raise on a bad output."""
        if call.best is not None:
            pb = read_json(cwd / call.best)["pb"]
            value = float(pb["metric"])
            if math.isnan(value):
                raise ValueError(f"selection certificate is NaN in {call.best}")
            ckpt = pb["checkpoint"]
            return {"bound_value": value}, sha256(cwd / ckpt)
        if call.bound is not None:
            doc = read_json(cwd / call.bound)
            value, risk = float(doc["bound_value"]), float(doc["empirical_risk"])
            # a chi-square certificate may be Infinity; it must be reported
            if math.isnan(value) or not 0.0 <= risk < math.inf:
                raise ValueError(f"bad certificate {value!r} / risk {risk!r} in {call.bound}")
            recorded = {"bound_value": value, "empirical_risk": risk}
            return recorded, sha256(cwd / call.bound)
        if call.metrics is not None:
            recorded = {}
            for ckpt, metrics in read_json(cwd / call.metrics).items():
                for name, value in metrics.items():
                    if not 0.0 <= value <= 1.0:
                        raise ValueError(f"eval metric {name} = {value!r} outside [0, 1]")
                recorded[ckpt] = {"avg2": metrics["avg2"], "top1": metrics["top1"]}
            return recorded, None
        return {}, None

    # -- phases ------------------------------------------------------------

    def setups(self, repeats, traced):
        return [self.run_unit("setup", i, self.wl.setup_files, self.wl.setup, traced)
                for i in range(repeats)]

    def passes(self, seconds, trace):
        """Passes until `seconds` of pass time are measured and MIN_PASSES ran.

        With trace, odd passes are traced, so untraced and traced passes
        alternate on the same inputs and come in pairs.
        """
        untraced, traced = [], []
        measured = 0.0
        while True:
            i = len(untraced) + len(traced)
            is_traced = trace and i % 2 == 1
            t0 = time.monotonic()
            res = self.run_unit("pass", i, self.wl.pass_files, self.wl.calls,
                                lambda c: is_traced)
            (traced if is_traced else untraced).append(res)
            measured += res["wall_s"]
            done = measured >= seconds and i + 1 >= MIN_PASSES and not (trace and i % 2 == 0)
            # stop rather than overrun the budget with one more pass
            now = time.monotonic()
            late = now + (now - t0) > self.deadline - 5.0
            if done or late:
                if trace and not traced:
                    raise HarnessError("no time left for a traced pass")
                return untraced, traced


# -- metrics -----------------------------------------------------------------


def scaled_calls(res):
    """{call id: its wall time scaled to the nominal host speed by the
    reference kernel timed just before and just after it}."""
    ref = res["ref_s"]
    return {rec["id"]: rec["wall_s"] * REF_S / ((ref[i] + ref[i + 1]) / 2.0)
            for i, rec in enumerate(res["calls"])}


def scaled_wall(res):
    """A unit's time, scaled: the sum of its scaled call times."""
    return sum(scaled_calls(res).values())


def call_times(units, calls, command):
    """{call key: scaled time of every call of `command` with that key}."""
    keys = {c.id: c.key for c in calls if c.argv[0] == command}
    times = defaultdict(list)
    for res in units:
        for call_id, wall in scaled_calls(res).items():
            if call_id in keys:
                times[keys[call_id]].append(wall)
    return dict(times)


def end_to_end(wl, setups, passes):
    """Metric values and the samples they come from.

    Every time is scaled to the nominal host speed by the reference kernel
    timed in the same worker (see ``REF_S``), and a metric is the median of
    its samples in the run. On ``certify`` the mean over its distinct calls
    is reported.
    """
    samples = {
        "setup_s": [scaled_wall(r) for r in setups],
        "run_s": [scaled_wall(r) for r in passes],
        "peak_rss_mb": [r["maxrss_mb"] for r in passes],
        "raw_setup_s": [r["wall_s"] for r in setups],
        "raw_run_s": [r["wall_s"] for r in passes],
        "ref_s": [r["ref_s"] for r in setups + passes],
    }
    values = {name: statistics.median(samples[name])
              for name in ("setup_s", "run_s", "peak_rss_mb")}
    for command, metric in (("train", "train_s"), ("bound", "bound_s"), ("eval", "eval_s")):
        # taken from the passes; certify trains only in its set-up
        units, calls = passes, wl.calls
        if not any(c.argv[0] == command for c in calls):
            units, calls = setups, wl.setup
        samples[metric] = call_times(units, calls, command)
        typical = {key: statistics.median(times) for key, times in samples[metric].items()}
        values[metric] = statistics.fmean(typical.values())
        if command == "train":
            tuples = {c.key: c.train_tuples for c in calls}
            values["train_tuples_per_s"] = (sum(tuples[k] for k in typical)
                                            / sum(typical.values()))
    return values, samples


def per_layer(setup, untraced, traced):
    """Stats of the traced set-up's gen-data calls plus one traced pass,
    the median over traced passes."""
    def value(name, stat, res):
        def total(key):
            return sum(r["layers"].get(name, {}).get(key, 0.0) for r in (setup, res))

        if stat == "accept_ratio":
            # accepted over attempted objective evaluations; 1 when none ran
            calls = total("calls")
            return (calls - total("inf_calls")) / calls if calls else 1.0
        return total(stat)

    samples = {f"{name}.{stat}": [value(name, stat, r) for r in traced]
               for name, stats in LAYER_STATS for stat in stats}
    values = {name: statistics.median(v) for name, v in samples.items()}
    # the same estimator as run_s, on the same inputs
    samples["trace.run_s"] = {"untraced": [scaled_wall(r) for r in untraced],
                              "traced": [scaled_wall(r) for r in traced]}
    values["trace.overhead_s"] = (statistics.median(samples["trace.run_s"]["traced"])
                                  - statistics.median(samples["trace.run_s"]["untraced"]))
    return values, samples


def self_time_check(results):
    """Per traced call: wall time outside the root span and the self-time sum."""
    rows = []
    for res in results:
        for rec in res["calls"]:
            if "self_sum_s" in rec:
                rows.append({"call": rec["id"], "wall_s": rec["wall_s"],
                             "self_sum_s": rec["self_sum_s"]})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="'tiny' is for the self-test only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pbcurl" / "cli.py").is_file():
        print(f"error: no pbcurl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed, args.scale)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = ROOT / ".bench_work" / tag
    out = ROOT / ".bench_out" / tag
    for d in (work, out):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    bench = Bench(wl, work, out)
    try:
        bench.start_worker()
        if args.trace:
            setups = bench.setups(1, lambda c: c.argv[0] == "gen-data")
            untraced, traced = bench.passes(args.seconds, trace=True)
            values, samples = per_layer(setups[0], untraced, traced)
            units = PER_LAYER
        else:
            setups = bench.setups(SETUP_REPEATS, lambda c: False)
            untraced, traced = bench.passes(args.seconds, trace=False)
            values, samples = end_to_end(wl, setups, untraced)
            units = END_TO_END
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        bench.stop_worker()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = len(bench.failures)
    detail = {
        "workload": args.workload,
        "scale": args.scale,
        "trace": args.trace,
        "provenance": {
            "git_head": git_head(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            **bench.provenance,
        },
        "error_rate": {"value": failed / bench.attempted, "unit": "failed/attempted"},
        "failures": bench.failures,
        "samples": samples,
        "certificates": bench.certificates,
        "fingerprints": bench.fingerprints,
        "self_time_check": self_time_check(setups + traced),
    }
    write_json(out / "detail.json", detail)
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
