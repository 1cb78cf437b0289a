"""Desk-scale acceptance checks, driven through the public CLI and oracle.

Each test pins a quantitative target the package commits to:

 * the oracle suite passes in full (exact enumeration against closed forms,
   divergence Monte Carlo within 3 sigma, finite-difference gradients,
   bound coverage), in under five minutes;
 * the fixed-lambda Catoni bound covers the true risk in at least 91% of
   200 simulated trials at delta = 0.05;
 * training the iid objective on a separable 10-class Gaussian task earns a
   zero-one risk certificate below 1.0 that also covers a held-out risk
   estimate, in under fifteen minutes on one core;
 * the selected representation carries a learning signal (avg-2 >= 0.85,
   top-1 at least three times chance) and the train/held-out risk gap stays
   within 0.05;
 * the dependent-data pipeline trains its objective, reports a chi-square
   certificate, and keeps the risk gap within 0.06 (the certificate itself
   is allowed to be vacuous at this scale);
 * certificate files are byte-identical across reruns in deterministic mode;
 * opt-in: the published 95-class sign-language corpus lands in the
   certificate range and avg-2 band reported for it.

The oracle suite runs once per session, as the verify call of the byte gate's
replay (the replay_tree fixture in conftest.py); its test reads that call's
verify.json. The pipeline fixtures run the real CLI on ~20k-tuple datasets;
the whole module takes about a minute of CPU.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from pbcurl.cli import main
from pbcurl.oracle import coverage_sim

IID_DATASET = {
    "dataset": {
        "kind": "synthetic-iid",
        "n_classes": 10,
        "dim": 20,
        "m_train": 20000,
        "m_test": 5000,
        "n_labeled_train": 2000,
        "n_labeled_test": 2000,
        "k": 4,
        "block_size": 2,
        "separation": 3.0,
        "std": 1.0,
    },
    "seed": 20260817,
}

SEQ_DATASET = {
    "dataset": {
        "kind": "synthetic-sequences",
        "n_classes": 20,
        "dim": 20,
        "length": 45,
        "n_train_seq_per_class": 20,
        "n_test_seq_per_class": 5,
        "k": 4,
        "block_size": 2,
        "separation": 3.0,
        "std": 1.0,
    },
    "seed": 20260817,
}


def train_config(train_manifest, objective, lams):
    return {
        "dataset": {"kind": "manifests", "train": train_manifest},
        "grid": [
            {
                "layer_sizes": [20, 32, 16],
                "objective": objective,
                "k": 4,
                "block_size": 2,
                "epochs": 100,
                "batch_size": 250,
                "lr": 1e-3,
                "lam": lam,
            }
            for lam in lams
        ],
        "criteria": ["pb"],
        "seed": 7,
    }


def run_pipeline(root, dataset_cfg, objective, lams, bound_flag):
    """gen-data, train with the bound criterion, certify train and test."""
    t0 = time.monotonic()
    (root / "gen.json").write_text(json.dumps(dataset_cfg))
    assert main(["gen-data", "--config", str(root / "gen.json"),
                 "--out", str(root / "ds")]) == 0

    cfg = train_config(str(root / "ds" / "train.json"), objective, lams)
    (root / "train.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(root / "train.json"),
                 "--out", str(root / "runs")]) == 0

    best = json.loads((root / "runs" / "best.json").read_text())
    ckpt = best["pb"]["checkpoint"]
    for tag, split in (("train", "train"), ("heldout", "test")):
        assert main([
            "bound", "--checkpoint", ckpt,
            "--data", str(root / "ds" / f"{split}.json"),
            "--out", str(root / "bounds"), bound_flag,
            "--seed", "99", "--deterministic", "--id", tag,
        ]) == 0
    return {
        "root": root,
        "checkpoint": ckpt,
        "runs": [json.loads(l) for l in open(root / "runs" / "runs.jsonl")],
        "cert": json.loads((root / "bounds" / "bound_train.json").read_text()),
        "heldout": json.loads((root / "bounds" / "bound_heldout.json").read_text()),
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def iid_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-iid")
    return run_pipeline(root, IID_DATASET, "iid", (0.1, 0.5), "--iid")


@pytest.fixture(scope="module")
def seq_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-seq")
    return run_pipeline(root, SEQ_DATASET, "noniid", (0.1,), "--noniid")


def test_oracle_suite_all_checks_pass(replay_tree):
    report = json.loads((replay_tree.out / "verify" / "verify.json").read_text())
    assert report["all_passed"]
    ct = report["collision_transfer"]
    assert ct["instances"] == 500 and ct["violations"] == 0
    assert report["collision_stats"]["passed"]
    dv = report["divergence_mc"]
    assert dv["instances"] == 50 and dv["worst_z"] <= 3.0
    gr = report["gradients"]
    assert max(gr["iid_max_rel_err"], gr["noniid_max_rel_err"]) < 1e-4
    # the whole replay, verify call included, within five minutes
    assert replay_tree.elapsed < 300.0


def test_fixed_lambda_bound_coverage():
    t0 = time.monotonic()
    coverage, true_risk = coverage_sim(np.random.default_rng(20250817),
                                       n_trials=200, delta=0.05)
    assert coverage >= 0.91
    assert 0.0 < true_risk < 1.0
    assert time.monotonic() - t0 < 300.0


def test_certificate_below_one_and_covers_heldout_risk(iid_pipeline):
    cert = iid_pipeline["cert"]
    assert cert["bound_kind"] == "iid-selection"
    assert cert["risk_kind"] == "zero-one"
    assert cert["m"] == 20000
    assert cert["bound_value"] < 1.0

    heldout_risk = iid_pipeline["heldout"]["empirical_risk"]
    assert heldout_risk <= cert["bound_value"]
    assert iid_pipeline["elapsed"] < 900.0


def test_representation_learning_signal(iid_pipeline):
    root, ckpt = iid_pipeline["root"], iid_pipeline["checkpoint"]
    assert main([
        "eval", "--checkpoint", ckpt,
        "--train-csv", str(root / "ds" / "labeled_train.csv"),
        "--test-csv", str(root / "ds" / "labeled_test.csv"),
        "--norm-stats", str(root / "ds" / "norm_stats.json"),
        "--out", str(root / "metrics"), "--seed", "5",
    ]) == 0
    metrics = json.loads((root / "metrics" / "metrics.json").read_text())[ckpt]
    assert metrics["avg2"] >= 0.85
    assert metrics["top1"] >= 0.3          # 3x chance on 10 classes


def test_train_heldout_risk_gap_small(iid_pipeline):
    gap = abs(iid_pipeline["cert"]["empirical_risk"]
              - iid_pipeline["heldout"]["empirical_risk"])
    assert gap <= 0.05


def test_dependent_data_certificate_and_gap(seq_pipeline):
    assert all(not r["aborted"] for r in seq_pipeline["runs"])
    cert = seq_pipeline["cert"]
    assert cert["bound_kind"] == "noniid-selection"
    assert cert["divergence_kind"] == "chi2"
    assert cert["dependency_t"] == 2
    assert cert["m"] == 20 * 20 * (45 - 2)
    # the certificate must be reported; at this scale it may exceed 1
    assert math.isfinite(cert["bound_value"]) and cert["bound_value"] > 0.0

    gap = abs(cert["empirical_risk"] - seq_pipeline["heldout"]["empirical_risk"])
    assert gap <= 0.06
    assert seq_pipeline["elapsed"] < 900.0


def test_certificate_files_byte_reproducible(iid_pipeline, tmp_path):
    root, ckpt = iid_pipeline["root"], iid_pipeline["checkpoint"]
    args = [
        "bound", "--checkpoint", ckpt,
        "--data", str(root / "ds" / "train.json"),
        "--iid", "--seed", "99", "--deterministic", "--id", "train",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    rerun_a = (tmp_path / "a" / "bound_train.json").read_bytes()
    rerun_b = (tmp_path / "b" / "bound_train.json").read_bytes()
    assert rerun_a == rerun_b
    assert rerun_a == (root / "bounds" / "bound_train.json").read_bytes()


AUSLAN_ENV = "PBCURL_AUSLAN_MANIFEST"


@pytest.mark.skipif(AUSLAN_ENV not in os.environ, reason=(
    f"set {AUSLAN_ENV} to a JSON manifest mapping each of the 95 class ids "
    "to its 27 per-sequence CSV paths (22 numeric columns, >= 45 frames) "
    "to run the sign-language reproduction; takes roughly an hour"
))
def test_sign_language_corpus_reproduction(tmp_path):
    """Full pipeline on the real 95-class sign-language corpus.

    Splits 27 sequences per class into 21 train / 3 validation / 3 test,
    truncates to the first 45 frames, builds 89 775 training tuples with
    k = 4 and positive blocks of 2, trains a 22-50-50 network over the
    published lambda grid, and checks the selected certificate and avg-2
    accuracy against the reported operating point.
    """
    m_train = 95 * 21 * 45
    gen = {
        "dataset": {
            "kind": "sequence-manifest",
            "manifest": os.environ[AUSLAN_ENV],
            "first_steps": 45,
            "train_per_class": 24,
            "valid_per_class": 3,
            "tuples": "iid",
            "m_train": m_train,
            "k": 4,
            "block_size": 2,
        },
        "seed": 20260817,
    }
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    assert main(["gen-data", "--config", str(tmp_path / "gen.json"),
                 "--out", str(tmp_path / "ds")]) == 0

    cfg = {
        "dataset": {
            "kind": "manifests",
            "train": str(tmp_path / "ds" / "train.json"),
            "valid": str(tmp_path / "ds" / "valid.json"),
        },
        "grid": [
            {
                "layer_sizes": [22, 50, 50],
                "objective": "iid",
                "k": 4,
                "block_size": 2,
                "epochs": 500,
                "batch_size": m_train // 100,
                "lr": 1e-3,
                "lam": 10.0 ** a / m_train,
            }
            for a in range(6)
        ],
        "criteria": ["pb"],
        "seed": 7,
    }
    (tmp_path / "train.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "train.json"),
                 "--out", str(tmp_path / "runs")]) == 0

    best = json.loads((tmp_path / "runs" / "best.json").read_text())
    ckpt = best["pb"]["checkpoint"]
    assert main([
        "bound", "--checkpoint", ckpt,
        "--data", str(tmp_path / "ds" / "train.json"),
        "--out", str(tmp_path / "bounds"), "--iid",
        "--seed", "99", "--deterministic", "--id", "auslan",
    ]) == 0
    cert = json.loads((tmp_path / "bounds" / "bound_auslan.json").read_text())
    assert 0.25 <= cert["bound_value"] <= 0.50

    assert main([
        "eval", "--checkpoint", ckpt,
        "--train-csv", str(tmp_path / "ds" / "labeled_train.csv"),
        "--test-csv", str(tmp_path / "ds" / "labeled_test.csv"),
        "--norm-stats", str(tmp_path / "ds" / "norm_stats.json"),
        "--out", str(tmp_path / "metrics"), "--seed", "5",
    ]) == 0
    metrics = json.loads((tmp_path / "metrics" / "metrics.json").read_text())[ckpt]
    assert 0.776 <= metrics["avg2"] <= 0.876
