"""Smoke test of the demo scripts: each runs to the end and prints something.

The demos call public names (selection_certificate, tuple_risks,
network.forward) end to end, the way a reader of the README would.
verify_suite.py is left out: test_oracle runs the same suite.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# lines a demo must print: check_collision_transfer's left side is the
# supervised mean-classifier loss, including on collapsed features
EXPECTED_LINES = {
    "collision_floor": [
        "logistic: supervised mean-classifier loss ",
        "hinge: supervised mean-classifier loss ",
        "collapsed features: supervised mean-classifier loss = bound = 1.0000",
    ],
}


@pytest.mark.parametrize("demo", ["collision_floor", "divergences_vs_monte_carlo",
                                  "iid_certificate_pipeline", "sequence_pipeline"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    lines = out.stdout.splitlines()
    for start in EXPECTED_LINES.get(demo, []):
        assert any(line.startswith(start) for line in lines), start
    assert "unsup loss" not in out.stdout
