"""Byte replay of the CLI: one fixed script of pbcurl commands, run against a
source tree, and a comparison of the files two replays wrote.

    python3 tools/replay.py --src <checkout>/src --out <dir>
    python3 tools/replay.py --compare <dir-a> <dir-b>

The script writes its own inputs (a labeled CSV pair and a corpus of sequence
CSVs, from a fixed numpy seed), then runs, each as a subprocess with
PYTHONPATH=<src>, one BLAS thread and the output directory as working
directory (so every recorded path is relative):

- gen-data of the four generative kinds, sequence-manifest both windowed and
  iid, each with a validation split;
- train for every objective x optimizer x loss under every criterion, plus
  one run on each of the files and sequence-manifest datasets;
- bound, zero-one and loss, on the train and (where there is one) test split
  of every checkpoint;
- eval of each dataset's checkpoints, with and without its norm stats;
- select of every run file, once more with the stored certificates removed;
- verify.

Each call's argv, exit code and last stderr line go to calls.jsonl. --compare lists
every file that is missing on one side or differs, and exits 1 if any does.
It ignores only wall_time and each epoch's time in runs.jsonl and best.json.
The replay takes about two minutes on one core.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

import numpy as np

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
    def __init__(self, src, out):
        self.out = out
        self.env = {key: value for key, value in os.environ.items() if key != "PBCURL_SEED"}
        self.env.update(PYTHONPATH=os.path.abspath(src), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.log = open(os.path.join(out, "calls.jsonl"), "w")

    def run(self, *argv):
        proc = subprocess.run([sys.executable, "-m", "pbcurl.cli", *argv], cwd=self.out,
                              env=self.env, capture_output=True, text=True)
        # the last stderr line is the error; warnings above it name the source path
        error = proc.stderr.strip().splitlines()[-1:]
        self.log.write(json.dumps({"argv": list(argv), "exit": proc.returncode,
                                   "error": error}, sort_keys=True) + "\n")
        return proc.returncode


def replay(src, out):
    os.makedirs(out)
    _write_inputs(out)
    r = Replay(src, out)
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
        if ckpts:
            for tag, extra in (("stats", ["--norm-stats", f"{ds}/norm_stats.json"]),
                               ("own", [])):
                r.run("eval", "--checkpoint", *ckpts, "--train-csv", f"{ds}/labeled_train.csv",
                      "--test-csv", f"{ds}/labeled_test.csv", "--out",
                      f"eval/{run_dir}-{tag}", "--samples-per-class", "3", "--variants", "2",
                      "--seed", "5", *extra)
        runs = os.path.join(out, run_dir, "runs.jsonl")
        if os.path.exists(runs):
            r.run("select", "--runs", f"{run_dir}/runs.jsonl", "--out", f"select/{run_dir}")
            with open(runs) as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            bare = os.path.join("bare", run_dir, "runs.jsonl")
            os.makedirs(os.path.join(out, os.path.dirname(bare)))
            with open(os.path.join(out, bare), "w") as fh:
                for rec in records:
                    rec.pop("selection", None)
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            r.run("select", "--runs", bare, "--out", f"select/{run_dir}-recomputed",
                  "--criteria", "pb", "--data", f"{ds}/train.json", f"{ds}/valid.json",
                  "--samples", "3")
    r.run("verify", "--out", "verify")
    r.log.close()


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


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare(a, b):
    """Relative paths of the files that differ between two replays."""
    differ = []
    for rel in sorted(_files(a) | _files(b)):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            differ.append(rel)
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            ba, bb = fa.read(), fb.read()
        if ba == bb:
            continue
        if os.path.basename(rel) in TIMED_FILES and (
                _untimed(rel, ba.decode()) == _untimed(rel, bb.decode())):
            continue
        differ.append(rel)
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="the source tree to replay (the directory holding pbcurl/)")
    parser.add_argument("--out", help="a directory that does not exist yet")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two replay directories to compare")
    args = parser.parse_args(argv)
    if args.compare:
        differ = compare(*args.compare)
        total = len(_files(args.compare[0]) | _files(args.compare[1]))
        for rel in differ:
            print(f"differs: {rel}")
        print(f"{len(differ)} of {total} files differ")
        return 1 if differ else 0
    if not (args.src and args.out):
        parser.error("give --src and --out, or --compare A B")
    replay(args.src, args.out)
    print(f"replay written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
