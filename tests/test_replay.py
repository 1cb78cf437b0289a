"""The byte gate: tools/replay.py's fixed script of CLI calls must write the
bytes, exit codes and errors pinned in replay_digests.json. Its verify call is
also tier-1's one run of the oracle suite (tests/test_acceptance.py)."""

import json
import pathlib

from conftest import run_replay

DIGESTS = pathlib.Path(__file__).resolve().parent / "replay_digests.json"


def test_replay_writes_the_pinned_bytes(replay_tree):
    # about 300 calls in one process; a change of bits on purpose regenerates
    # the digests with tools/replay.py --write-digests
    proc = replay_tree.proc
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
