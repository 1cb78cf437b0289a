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


@pytest.mark.parametrize("demo", ["collision_floor", "divergences_vs_monte_carlo",
                                  "iid_certificate_pipeline", "sequence_pipeline"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
