"""The benchmark workloads, generated from the workload seed.

A workload is a set-up (CLI calls whose outputs the timed phase reads) and a
pass (the CLI calls a user waits on for a certificate, run in a fresh
directory). Every path is relative to the directory the call runs in: the
set-up runs in ``<work>/setup`` and a pass in ``<work>/pass-<i>``. So a
certificate file carries the same provenance strings in every pass and on
every commit, and its sha256 can be compared byte for byte.

Why these three:

* ``iid-train`` trains the Catoni/KL objective on the acceptance-scale data
  of the test suite: 20k tuples with k=4 and blocks of 2. Its per-tuple feature matrix of 220k
  rows (35 MB) is larger than the cache, so the training step (gather,
  forward, margins, backprop) dominates.
* ``seq-train`` trains the chi-square objective on windowed sequence tuples
  (17,200 tuples over 18k shared frames, 2.9 MB, which fits in cache). The
  step has the same shape, plus chi-square gradients every step,
  ``feature_bound`` every epoch and the reject/retry path. A change to the
  KL path must not move it, and a change to the chi-square path must not
  move ``iid-train``.
* ``certify`` is inference only: ``bound`` (zero-one and loss, train and
  held-out, iid and sequence checkpoints) and ``eval`` on checkpoints the
  set-up trained. Big-batch forward, Monte Carlo draws and manifest parsing,
  with no backprop and no optimizer step, so a change to the training step
  should not move it.
"""

from dataclasses import dataclass, field

ARCH = [20, 32, 16]
BATCH = 250

SCALES = {
    # acceptance scale of the test suite
    "full": {
        "iid": {"n_classes": 10, "m_train": 20000, "m_test": 5000, "n_labeled": 2000},
        "seq": {"n_classes": 20, "n_seq": 20, "length": 45, "n_test_seq": 5},
        "train_epochs": 5,
        "certify_epochs": 1,
    },
    # for the self-test: every code path, a few seconds in all
    "tiny": {
        "iid": {"n_classes": 10, "m_train": 500, "m_test": 200, "n_labeled": 200},
        "seq": {"n_classes": 5, "n_seq": 3, "length": 12, "n_test_seq": 2},
        "train_epochs": 2,
        "certify_epochs": 1,
    },
}

# Short calls repeat within a pass, so that these sub-second calls have
# several samples per run.
BOUND_REPEATS = 2
EVAL_REPEATS = 3
# posterior draws of the selection certificate `train` computes: the CLI
# default for the train workloads; certify's set-up only needs checkpoints,
# and the certificates it measures are the ones its timed bound calls compute
TRAIN_CERT_SAMPLES = 10
CERTIFY_CERT_SAMPLES = 2


@dataclass
class Call:
    """One CLI call and the files a check reads after it."""

    id: str
    argv: list
    # repeats of one call share a key: their outputs must be byte-identical,
    # and the median of them is the call's time
    key: str
    train_tuples: int = 0       # m * epochs of a train call
    best: str | None = None     # best.json of a train call
    bound: str | None = None    # bound_<id>.json of a bound call
    metrics: str | None = None  # metrics.json of an eval call


@dataclass
class Workload:
    setup_files: dict = field(default_factory=dict)   # relative path -> JSON doc
    setup: list = field(default_factory=list)         # Calls, run in <work>/setup
    pass_files: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)         # Calls of one pass
    # (certificate call, held-out bound call): the iid zero-one certificate
    # must be < 1 and cover the held-out empirical risk
    covers: list = field(default_factory=list)


def _gen_config(kind, sizes, seed):
    if kind == "iid":
        dataset = {
            "kind": "synthetic-iid", "n_classes": sizes["n_classes"], "dim": ARCH[0],
            "m_train": sizes["m_train"], "m_test": sizes["m_test"],
            "n_labeled_train": sizes["n_labeled"], "n_labeled_test": sizes["n_labeled"],
        }
    else:
        dataset = {
            "kind": "synthetic-sequences", "n_classes": sizes["n_classes"], "dim": ARCH[0],
            "length": sizes["length"], "n_train_seq_per_class": sizes["n_seq"],
            "n_test_seq_per_class": sizes["n_test_seq"],
        }
    dataset.update({"k": 4, "block_size": 2, "separation": 3.0, "std": 1.0})
    return {"dataset": dataset, "seed": seed}


def _train_config(manifest, objective, epochs, seed, cert_samples):
    return {
        "dataset": {"kind": "manifests", "train": manifest},
        "grid": [{
            "layer_sizes": ARCH, "objective": objective, "k": 4, "block_size": 2,
            "epochs": epochs, "batch_size": BATCH, "lr": 1e-3, "lam": 0.5,
        }],
        "criteria": ["pb"],
        "cert_samples": cert_samples,
        "seed": seed,
    }


def _m_train(kind, sizes):
    if kind == "iid":
        return sizes["m_train"]
    return sizes["n_classes"] * sizes["n_seq"] * (sizes["length"] - 2)


def _gen_call(kind):
    call_id = f"gen-data-{kind}"
    return Call(call_id, ["gen-data", "--config", f"gen-{kind}.json", "--out", f"data-{kind}"],
                call_id)


def _train_call(call_id, config, out, tuples):
    return Call(call_id, ["train", "--config", config, "--out", out], call_id,
                train_tuples=tuples, best=f"{out}/best.json")


def _bound_call(call_id, checkpoint, manifest, iid, seed, risk="zero-one", key=None):
    argv = ["bound", "--checkpoint", checkpoint, "--data", manifest, "--out", "bounds",
            "--iid" if iid else "--noniid", "--risk", risk, "--seed", str(seed),
            "--deterministic", "--id", call_id]
    if risk == "loss" and iid:
        argv += ["--lam", "1.0"]
    return Call(call_id, argv, key or call_id, bound=f"bounds/bound_{call_id}.json")


def _eval_call(call_id, checkpoints, data_dir, seed, key=None):
    argv = ["eval", "--checkpoint", *checkpoints,
            "--train-csv", f"{data_dir}/labeled_train.csv",
            "--test-csv", f"{data_dir}/labeled_test.csv",
            "--norm-stats", f"{data_dir}/norm_stats.json",
            "--out", f"eval-{call_id}", "--seed", str(seed)]
    return Call(call_id, argv, key or call_id, metrics=f"eval-{call_id}/metrics.json")


def _train_workload(kind, scale, seed):
    sizes = SCALES[scale][kind]
    epochs = SCALES[scale]["train_epochs"]
    iid = kind == "iid"
    data = f"../setup/data-{kind}"
    wl = Workload()
    wl.setup_files[f"gen-{kind}.json"] = _gen_config(kind, sizes, seed)
    wl.setup.append(_gen_call(kind))
    wl.pass_files["train.json"] = _train_config(
        f"{data}/train.json", "iid" if iid else "noniid", epochs, seed + 1, TRAIN_CERT_SAMPLES)
    checkpoint = "runs/c000-pb.ckpt.json"
    wl.calls = [_train_call("train", "train.json", "runs", _m_train(kind, sizes) * epochs)]
    wl.calls += [_bound_call(f"heldout-{r}", checkpoint, f"{data}/test.json", iid, seed + 2,
                             key="heldout") for r in range(BOUND_REPEATS)]
    wl.calls += [_eval_call(f"eval-{r}", [checkpoint], data, seed + 3, key="eval")
                 for r in range(EVAL_REPEATS)]
    if iid:
        wl.covers.append(("train", "heldout-0"))
    return wl


def _certify_workload(scale, seed):
    epochs = SCALES[scale]["certify_epochs"]
    wl = Workload()
    checkpoints = {}
    for kind in ("iid", "seq"):
        sizes = SCALES[scale][kind]
        iid = kind == "iid"
        wl.setup_files[f"gen-{kind}.json"] = _gen_config(kind, sizes, seed)
        wl.setup_files[f"train-{kind}.json"] = _train_config(
            f"data-{kind}/train.json", "iid" if iid else "noniid", epochs, seed + 1,
            CERTIFY_CERT_SAMPLES)
        wl.setup.append(_gen_call(kind))
        wl.setup.append(_train_call(f"train-{kind}", f"train-{kind}.json", f"ckpt-{kind}",
                                    _m_train(kind, sizes) * epochs))
        checkpoints[kind] = f"../setup/ckpt-{kind}/c000-pb.ckpt.json"
        for split in ("train", "test"):
            for risk in ("zero-one", "loss"):
                call_id = f"{kind}-{split}" + ("-loss" if risk == "loss" else "")
                wl.calls.append(_bound_call(
                    call_id, checkpoints[kind], f"../setup/data-{kind}/{split}.json",
                    iid, seed + 2, risk))
    for kind in ("iid", "seq"):
        wl.calls += [_eval_call(f"eval-{kind}-{r}", [checkpoints[kind]], f"../setup/data-{kind}",
                                seed + 3, key=f"eval-{kind}") for r in range(EVAL_REPEATS)]
    wl.covers.append(("iid-train", "iid-test"))
    return wl


NAMES = ("iid-train", "seq-train", "certify")


def make(name, seed, scale="full"):
    if name == "iid-train":
        return _train_workload("iid", scale, seed)
    if name == "seq-train":
        return _train_workload("seq", scale, seed)
    if name == "certify":
        return _certify_workload(scale, seed)
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
