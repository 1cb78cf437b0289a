"""The byte gate: tools/replay.py's fixed script of CLI calls must write the
bytes, exit codes and errors pinned in replay_digests.json."""

import json
import os
import pathlib
import subprocess
import sys

REPLAY = pathlib.Path(__file__).resolve().parents[1] / "tools" / "replay.py"
DIGESTS = pathlib.Path(__file__).resolve().parent / "replay_digests.json"


def run_replay(*args):
    # one BLAS thread: trained weights differ by an ulp between one and two
    env = {key: value for key, value in os.environ.items() if key != "PBCURL_SEED"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(REPLAY), *args], env=env,
                          capture_output=True, text=True, timeout=900)


def test_replay_writes_the_pinned_bytes(tmp_path):
    # about 320 calls in one process; a change of bits on purpose regenerates
    # the digests with tools/replay.py --write-digests
    proc = run_replay("--out", str(tmp_path / "replay"))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.startswith("0 differences")


def test_replay_names_a_different_environment(tmp_path):
    doc = json.loads(DIGESTS.read_text())
    doc["environment"]["numpy"] = "0.0"
    doc["environment"]["threads"]["OMP_NUM_THREADS"] = "2"
    other = tmp_path / "digests.json"
    other.write_text(json.dumps(doc))
    proc = run_replay("--digests", str(other), "--out", str(tmp_path / "replay"))
    assert proc.returncode == 1
    assert "environment numpy: '0.0' pinned" in proc.stdout
    assert "environment threads:" in proc.stdout and "'OMP_NUM_THREADS': '2'" in proc.stdout
    assert not (tmp_path / "replay").exists()      # it fails before the replay
