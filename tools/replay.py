"""Byte replay of the CLI: one fixed script of pbcurl commands, run in one
process through cli.main, and the sha256 of every file it writes.

    python3 tools/replay.py [--src <checkout>/src] [--out <dir>]
    python3 tools/replay.py --write-digests

The script writes its own inputs (a labeled CSV pair and a corpus of sequence
CSVs, from a fixed numpy seed), then runs, with the output directory as
working directory (so every recorded path is relative):

- gen-data of the four generative kinds, sequence-manifest both windowed and
  iid, each with a validation split;
- train for every objective x optimizer x loss under every criterion, plus
  one run on each of the files and sequence-manifest datasets;
- bound, zero-one and loss, on the train and (where there is one) test split
  of every checkpoint, and zero-one on the pb run's ranking data (train +
  valid, with train's draw count), which reproduces the certificate train
  ranked it by;
- eval of each dataset's checkpoints, with and without its norm stats;
- verify.

Each call's argv, exit code and last stderr line, and the sha256 of every
written file, are compared with the digest file (default
tests/replay_digests.json); timing fields (wall_time and each epoch's time in
runs.jsonl and best.json) are left out of the hashes. The digest file also
records the numeric environment the bytes depend on (network.environment: the
numpy version, the BLAS library and the BLAS thread variables), which every
certificate's provenance records too. Run the replay with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1. It prints
every difference and exits 1 if there is one; a different environment fails
before the replay, naming what differs. --write-digests writes the digest
file instead. --src replays another source tree (default: this checkout's).
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "replay_digests.json")

OBJECTIVES = ("iid", "noniid", "erm")
OPTIMIZERS = ("sgd", "rmsprop", "adam")
LOSSES = ("logistic", "hinge")
TIMED_FILES = ("runs.jsonl", "best.json")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path, x, y=None):
    with open(path, "w") as fh:
        for i, row in enumerate(x.tolist()):
            cells = [repr(v) for v in row] + ([str(int(y[i]))] if y is not None else [])
            fh.write(",".join(cells) + "\n")


def _write_inputs(out):
    """Labeled CSVs and a sequence corpus, drawn from the replay's own seed."""
    rng = np.random.default_rng(20261019)
    os.makedirs(os.path.join(out, "inputs", "corpus"))
    means = 3.0 * rng.standard_normal((3, 3))
    for name, n in (("src_train", 120), ("src_test", 60)):
        y = rng.integers(0, 3, n)
        _write_csv(os.path.join(out, "inputs", f"{name}.csv"),
                   means[y] + rng.standard_normal((n, 3)), y)
    manifest = {}
    for c in range(3):
        manifest[str(c)] = []
        for i in range(6):
            path = os.path.join("inputs", "corpus", f"c{c}_{i}.csv")
            _write_csv(os.path.join(out, path), means[c] + rng.standard_normal((12 + i, 3)))
            manifest[str(c)].append(path)
    _write_json(os.path.join(out, "inputs", "corpus.json"), manifest)


def _datasets():
    """gen-data dataset specs by output directory."""
    shape = {"k": 2, "block_size": 2}
    return {
        "ds-iid": {"kind": "synthetic-iid", "n_classes": 3, "dim": 3, "m_train": 200,
                   "m_valid": 80, "m_test": 80, "n_labeled_train": 90, "n_labeled_test": 60,
                   "separation": 3.0, "std": 1.0, **shape},
        "ds-seq": {"kind": "synthetic-sequences", "n_classes": 3, "dim": 3, "length": 10,
                   "n_train_seq_per_class": 3, "n_valid_seq_per_class": 1,
                   "n_test_seq_per_class": 1, "separation": 3.0, "ar_coeff": 0.6, **shape},
        "ds-files": {"kind": "files", "train_csv": "inputs/src_train.csv",
                     "test_csv": "inputs/src_test.csv", "m_train": 150, "m_valid": 60, **shape},
        "ds-manifest-windowed": {"kind": "sequence-manifest", "manifest": "inputs/corpus.json",
                                 "first_steps": 11, "train_per_class": 4,
                                 "valid_per_class": 1, "tuples": "windowed", **shape},
        "ds-manifest-iid": {"kind": "sequence-manifest", "manifest": "inputs/corpus.json",
                            "first_steps": 11, "train_per_class": 4, "valid_per_class": 1,
                            "tuples": "iid", "m_train": 150, "m_valid": 50, **shape},
    }


def _trainings():
    """(run directory, dataset directory, grid entry) of every train call."""
    runs = []
    for objective in OBJECTIVES:
        ds = "ds-seq" if objective == "noniid" else "ds-iid"
        for optimizer in OPTIMIZERS:
            for loss in LOSSES:
                runs.append((f"runs-{objective}-{optimizer}-{loss}", ds,
                             {"objective": objective, "optimizer": optimizer,
                              "loss_kind": loss}))
    runs += [("runs-files", "ds-files", {"objective": "iid"}),
             ("runs-manifest-iid", "ds-manifest-iid", {"objective": "iid"}),
             ("runs-manifest-windowed", "ds-manifest-windowed", {"objective": "noniid"})]
    return runs


class Replay:
    """Runs CLI calls in this process, in the output directory, and logs them."""

    def __init__(self, cli):
        self.cli, self.calls = cli, []

    def run(self, *argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("default")    # each call warns as a fresh process would
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:           # argparse
                code = exc.code
            except Exception as exc:            # a traceback: outside the CLI's exit codes
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        # the last stderr line is the error
        self.calls.append({"argv": list(argv), "exit": code,
                           "error": err.getvalue().strip().splitlines()[-1:]})
        return code


def replay(cli, out):
    """Run the script in the empty directory out; returns the calls' log."""
    _write_inputs(out)
    r = Replay(cli)
    os.makedirs(os.path.join(out, "configs"))
    for name, spec in _datasets().items():
        cfg = os.path.join("configs", f"gen-{name}.json")
        _write_json(os.path.join(out, cfg), {"dataset": spec, "seed": 7})
        r.run("gen-data", "--config", cfg, "--out", name)

    for run_dir, ds, entry in _trainings():
        cfg = os.path.join("configs", f"train-{run_dir}.json")
        _write_json(os.path.join(out, cfg), {
            "dataset": {"kind": "manifests", "train": f"{ds}/train.json",
                        "valid": f"{ds}/valid.json"},
            "grid": [{"layer_sizes": [3, 6, 4], "k": 2, "block_size": 2, "epochs": 3,
                      "batch_size": 50, "lr": 0.001, **entry}],
            "cert_samples": 3, "seed": 11,
        })
        r.run("train", "--config", cfg, "--out", run_dir)
        ckpts = sorted(glob.glob(os.path.join(out, run_dir, "*.ckpt.json")))
        ckpts = [os.path.relpath(path, out) for path in ckpts]
        form = {"zero-one": ["--noniid"], "loss": ["--noniid"]}
        if entry["objective"] != "noniid":
            form = {"zero-one": ["--iid"], "loss": ["--iid", "--lam", "1.5"]}
        for ckpt in ckpts:
            stem = os.path.basename(ckpt)[: -len(".ckpt.json")]
            for split in ("train", "test"):
                if not os.path.exists(os.path.join(out, ds, f"{split}.json")):
                    continue
                for risk, flags in form.items():
                    r.run("bound", "--checkpoint", ckpt, "--data", f"{ds}/{split}.json",
                          "--out", f"bounds/{run_dir}", "--id", f"{stem}-{split}-{risk}",
                          "--risk", risk, "--samples", "3", "--deterministic", *flags)
        ranked = os.path.join(run_dir, "c000-pb.ckpt.json")
        if os.path.exists(os.path.join(out, ranked)):
            r.run("bound", "--checkpoint", ranked, "--data", f"{ds}/train.json",
                  f"{ds}/valid.json", "--out", f"bounds/{run_dir}", "--id", "c000-pb-ranking",
                  "--samples", "3", "--deterministic", *form["zero-one"])
        if ckpts:
            for tag, extra in (("stats", ["--norm-stats", f"{ds}/norm_stats.json"]),
                               ("own", [])):
                r.run("eval", "--checkpoint", *ckpts, "--train-csv", f"{ds}/labeled_train.csv",
                      "--test-csv", f"{ds}/labeled_test.csv", "--out",
                      f"eval/{run_dir}-{tag}", "--samples-per-class", "3", "--variants", "2",
                      "--seed", "5", *extra)
    r.run("verify", "--out", "verify")
    return r.calls


def _untimed(path, text):
    """The records of a runs.jsonl or best.json without their timing fields."""
    docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    for doc in docs:
        for rec in ([doc] if os.path.basename(path) == "runs.jsonl" else doc.values()):
            if isinstance(rec, dict):
                rec.pop("wall_time", None)
                for epoch in rec.get("epochs") or ():
                    epoch.pop("time", None)
    return docs


def file_digests(root):
    """{relative path: sha256} of every file under root, timing fields left out."""
    digests = {}
    for d, _, names in os.walk(root):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                raw = fh.read()
            if name in TIMED_FILES:
                raw = json.dumps(_untimed(path, raw.decode()), sort_keys=True).encode()
            digests[os.path.relpath(path, root)] = hashlib.sha256(raw).hexdigest()
    return dict(sorted(digests.items()))


def differences(want, got):
    """One line per environment entry, call or file digest that differs."""
    lines = [f"environment {key}: {want['environment'].get(key)!r} pinned, {value!r} here"
             for key, value in got["environment"].items()
             if want["environment"].get(key) != value]
    if lines:
        return lines
    for i in range(max(len(want["calls"]), len(got["calls"]))):
        a, b = (c[i] if i < len(c) else None for c in (want["calls"], got["calls"]))
        if a != b:
            lines.append(f"call {i}: {a} pinned, {b} here")
    for rel in sorted(set(want["files"]) | set(got["files"])):
        a, b = want["files"].get(rel), got["files"].get(rel)
        if a != b:
            lines.append(f"file {rel}: " + ("missing here" if b is None else
                                             "not pinned" if a is None else "differs"))
    return lines


def _dump(doc):
    """The digest document as JSON with one call or file per line, for a readable diff."""
    calls = ",\n  ".join(json.dumps(call, sort_keys=True) for call in doc["calls"])
    files = ",\n  ".join(f"{json.dumps(rel)}: {json.dumps(h)}" for rel, h in doc["files"].items())
    return (f'{{"environment": {json.dumps(doc["environment"], sort_keys=True)},\n'
            f' "calls": [\n  {calls}\n ],\n "files": {{\n  {files}\n }}\n}}\n')


def package_cli(src):
    """The pbcurl.cli module of the source tree src (the directory holding pbcurl/)."""
    sys.path.insert(0, os.path.abspath(src))
    from pbcurl import cli

    return cli


def run(cli, out):
    """Replay through cli in the empty directory out; the digest document."""
    here = os.getcwd()
    os.makedirs(out)
    os.chdir(out)
    try:
        calls = replay(cli, ".")
    finally:
        os.chdir(here)
    return {"environment": cli.network.environment(), "calls": calls,
            "files": file_digests(out)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to replay (the directory holding pbcurl/)")
    parser.add_argument("--out", help="a directory that does not exist yet, kept afterwards "
                                      "(default: a temporary one)")
    parser.add_argument("--digests", default=DIGESTS, help="the digest file")
    parser.add_argument("--write-digests", action="store_true",
                        help="write the digest file instead of comparing with it")
    args = parser.parse_args(argv)
    cli = package_cli(args.src)
    pinned = None
    if not args.write_digests:
        with open(args.digests) as fh:
            pinned = json.load(fh)
        lines = differences(pinned, {**pinned, "environment": cli.network.environment()})
        if lines:
            print("\n".join(lines))
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        got = run(cli, args.out or os.path.join(tmp, "replay"))
    if args.write_digests:
        with open(args.digests, "w") as fh:
            fh.write(_dump(got))
        print(f"{len(got['calls'])} calls, {len(got['files'])} files: wrote {args.digests}")
        return 0
    lines = differences(pinned, got)
    print("\n".join(lines + [f"{len(lines)} differences in {len(got['calls'])} calls and "
                             f"{len(got['files'])} files"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
