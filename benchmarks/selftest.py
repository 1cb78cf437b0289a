"""Fast self-test of the benchmark at tiny scale.

Usage: ``python3 benchmarks/selftest.py`` from the root of a checkout; it
takes about half a minute. For every workload, untraced and traced, it checks
that the run succeeds with no failed call, that the result line carries
exactly the metrics ``BENCHMARK.json`` names with their units, that the
per-layer counts the workloads promise hold (no backprop or optimizer step on
``certify``, no chi-square gradient on ``iid-train``), and that the self
times of each traced call add up to its wall time within the tracing
overhead. Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# wall time a traced call spends outside its root span: entering the tracer,
# redirecting output and reading the clock
OUTSIDE_ROOT_SPAN_S = 0.005


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


def run(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, declared, where):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(result["correct"] and result["failed"] == 0, (where, result))
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, where)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, (where, sorted(set(got) ^ set(want))))
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), (where, name))


def check_self_times(detail, where):
    rows = detail["self_time_check"]
    expect(rows, where)
    for row in rows:
        outside = row["wall_s"] - row["self_sum_s"]
        expect(-1e-9 <= outside <= OUTSIDE_ROOT_SPAN_S, (where, row))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        detail, result = run(workload, 0)
        check_metrics(result, spec["end_to_end"], f"{workload} end-to-end")
        expect(detail["error_rate"]["value"] == 0.0, workload)
        expect(detail["fingerprints"]["pass"], workload)

        detail, result = run(workload, 1)
        check_metrics(result, spec["per_layer"], f"{workload} per-layer")
        check_self_times(detail, workload)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "certify":
            expect(values["network.backprop.calls"] == 0, values)
            expect(values["training.Adam.update.calls"] == 0, values)
            expect(values["evaluation.mc_posterior_risk.calls"] > 0, values)
        else:
            expect(values["network.backprop.calls"] > 0, values)
            expect(values["data.gather.rows"] > 0, values)
        if workload == "iid-train":
            expect(values["divergences.chi2_log1p_grads.calls"] == 0, values)
            expect(values["training.iid_objective.calls"] > 0, values)
        if workload == "seq-train":
            expect(values["divergences.kl_gaussian_grads.calls"] == 0, values)
            expect(values["training.noniid_objective.calls"] > 0, values)
        print(f"ok {workload}")
    print("selftest passed")


if __name__ == "__main__":
    main()
