import json
import math
import os

import numpy as np
import pytest

from pbcurl import data, network
from pbcurl.cli import main


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("PBCURL_SEED", raising=False)


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def iid_config(out_dir=None):
    doc = {
        "dataset": {
            "kind": "synthetic-iid",
            "n_classes": 3,
            "dim": 3,
            "m_train": 120,
            "m_valid": 60,
            "m_test": 60,
            "n_labeled_train": 90,
            "n_labeled_test": 60,
            "k": 2,
            "block_size": 2,
            "separation": 5.0,
            "std": 0.4,
        },
        "seed": 3,
    }
    if out_dir is not None:
        doc["out_dir"] = str(out_dir)
    return doc


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    cfg = write_json(root / "gen.json", iid_config())
    assert main(["gen-data", "--config", cfg, "--out", str(root / "ds")]) == 0
    return root / "ds"


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, data_dir):
    root = tmp_path_factory.mktemp("cli-train")
    cfg = write_json(
        root / "train.json",
        {
            "dataset": {
                "kind": "manifests",
                "train": str(data_dir / "train.json"),
                "valid": str(data_dir / "valid.json"),
            },
            "grid": [
                {
                    "layer_sizes": [3, 5, 2],
                    "objective": "iid",
                    "k": 2,
                    "block_size": 2,
                    "epochs": 3,
                    "batch_size": 40,
                    "lr": 2e-3,
                }
            ],
            "seed": 11,
        },
    )
    out = root / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_artifacts(data_dir):
    names = [
        "train.json", "train.bin", "valid.json", "test.json",
        "labeled_train.csv", "labeled_test.csv", "norm_stats.json", "dataset.json",
    ]
    for name in names:
        assert (data_dir / name).exists(), name
    summary = json.loads((data_dir / "dataset.json").read_text())
    assert summary["format"] == "pbcurl-dataset-v1"
    for split in ("train", "valid", "test"):
        ds = data.load_contrastive(str(data_dir / f"{split}.json"))
        assert summary["hashes"][split] == data.dataset_hash(ds)
    train = data.load_contrastive(str(data_dir / "train.json"))
    assert len(train) == 120 and train.k == 2 and train.block_size == 2
    # training features are normalised by their own statistics
    assert np.max(np.abs(train.features.mean(axis=0))) < 1e-9


def test_gen_data_deterministic(tmp_path):
    cfg = write_json(tmp_path / "g.json", iid_config())
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "9"]) == 0
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "9"]) == 0
    for name in ("train.json", "train.bin", "labeled_train.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "10"]) == 0
    assert (tmp_path / "a" / "train.bin").read_bytes() != (tmp_path / "c" / "train.bin").read_bytes()


def test_gen_data_seed_env_matches_flag(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "g.json", iid_config())
    monkeypatch.setenv("PBCURL_SEED", "21")
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "env")]) == 0
    monkeypatch.delenv("PBCURL_SEED")
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "flag"), "--seed", "21"]) == 0
    assert (tmp_path / "env" / "train.bin").read_bytes() == (
        tmp_path / "flag" / "train.bin"
    ).read_bytes()
    # an explicit flag beats the environment
    monkeypatch.setenv("PBCURL_SEED", "999")
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "both"), "--seed", "21"]) == 0
    assert (tmp_path / "both" / "train.bin").read_bytes() == (
        tmp_path / "flag" / "train.bin"
    ).read_bytes()


def test_gen_data_bad_seed_env(tmp_path, monkeypatch, capsys):
    cfg = write_json(tmp_path / "g.json", iid_config())
    monkeypatch.setenv("PBCURL_SEED", "not-a-number")
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "PBCURL_SEED" in capsys.readouterr().err


def test_gen_data_missing_key(tmp_path, capsys):
    doc = iid_config()
    del doc["dataset"]["k"]
    cfg = write_json(tmp_path / "g.json", doc)
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "dataset.k is required" in capsys.readouterr().err


def test_gen_data_unknown_kind(tmp_path, capsys):
    doc = iid_config()
    doc["dataset"]["kind"] = "parquet"
    cfg = write_json(tmp_path / "g.json", doc)
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "dataset.kind" in capsys.readouterr().err


def test_gen_data_rejects_manifests_kind(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "g.json", {"dataset": {"kind": "manifests", "train": "t.json"}}
    )
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "generative" in capsys.readouterr().err


def test_gen_data_config_not_found(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_files_kind_saves_raw_rows(tmp_path, rng):
    # raw rows far from standard scale: normalising twice would show
    model = data.random_gaussian_model(3, 3, 4.0, 1.0, rng)
    for name, n in (("src_train", 90), ("src_test", 60)):
        pts = data.sample_labeled(model, n, rng)
        data.save_labeled_csv(data.LabeledDataset(x=10.0 * pts.x + 50.0, y=pts.y),
                              str(tmp_path / f"{name}.csv"))
    cfg = write_json(tmp_path / "g.json", {"dataset": {
        "kind": "files", "train_csv": str(tmp_path / "src_train.csv"),
        "test_csv": str(tmp_path / "src_test.csv"), "m_train": 50, "m_valid": 20,
        "k": 2, "block_size": 2,
    }})
    out = tmp_path / "ds"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    for name in ("train", "test"):
        assert (out / f"labeled_{name}.csv").read_bytes() == (
            tmp_path / f"src_{name}.csv"
        ).read_bytes()
    train = data.load_contrastive(str(out / "train.json"))
    assert np.max(np.abs(train.features.mean(axis=0))) < 1e-9

    post, prior = network.init_network((3, 4), 1e-3, rng)
    ckpt = str(tmp_path / "net.ckpt.json")
    network.save_checkpoint(ckpt, network.Checkpoint(
        layer_sizes=[3, 4], posterior=post, prior=prior, seed=0, epoch=0, config={},
    ))
    metrics = []
    for tag, extra in (("own", []), ("saved", ["--norm-stats", str(out / "norm_stats.json")])):
        assert main([
            "eval", "--checkpoint", ckpt, "--train-csv", str(out / "labeled_train.csv"),
            "--test-csv", str(out / "labeled_test.csv"), "--out", str(tmp_path / tag),
            "--seed", "2", *extra,
        ]) == 0
        metrics.append((tmp_path / tag / "metrics.json").read_text())
    assert metrics[0] == metrics[1]


def test_gen_data_sequences(tmp_path):
    cfg = write_json(
        tmp_path / "g.json",
        {
            "dataset": {
                "kind": "synthetic-sequences",
                "n_classes": 3,
                "dim": 2,
                "length": 8,
                "n_train_seq_per_class": 2,
                "n_test_seq_per_class": 1,
                "k": 2,
                "block_size": 2,
                "separation": 4.0,
                "std": 0.5,
            }
        },
    )
    out = tmp_path / "seq"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    train = data.load_contrastive(str(out / "train.json"))
    assert train.dependency_t == 2
    assert len(train) == 3 * 2 * (8 - 2)


# ---------------------------------------------------------------------------
# train


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_sgd_prior_variance_underflow_is_rejected_not_a_traceback(tmp_path):
    # one SGD step sends log sigma2_p from -4.7 to about -2600, where
    # sigma2_p is 0.0: the chi-square must read as +inf and the step be
    # rejected, not raise ZeroDivisionError
    gen = write_json(tmp_path / "gen.json", {
        "dataset": {"kind": "synthetic-sequences", "n_classes": 4, "dim": 6, "length": 40,
                    "n_train_seq_per_class": 5, "k": 3, "block_size": 2},
        "seed": 3,
    })
    assert main(["gen-data", "--config", gen, "--out", str(tmp_path / "ds")]) == 0
    cfg = write_json(tmp_path / "train.json", {
        "dataset": {"kind": "manifests", "train": str(tmp_path / "ds" / "train.json")},
        "grid": [{"layer_sizes": [6, 12, 4], "objective": "noniid", "optimizer": "sgd",
                  "lr": 1e-3, "k": 3, "block_size": 2, "epochs": 1}],
        "seed": 3,
    })
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) in (0, 3)


def test_train_artifacts(train_dir):
    runs = [json.loads(l) for l in open(train_dir / "runs.jsonl")]
    assert len(runs) == 3
    assert {r["mode"] for r in runs} == {"valid-mc", "valid-map", "pb"}
    assert all(not r["aborted"] for r in runs)

    best = json.loads((train_dir / "best.json").read_text())
    assert set(best) == {"s-valid", "det-valid", "pb"}
    for entry in best.values():
        assert os.path.exists(entry["checkpoint"])
        assert math.isfinite(entry["metric"])

    header = open(train_dir / "leaderboard.csv").readline().strip()
    assert header == "criterion,rank,run_id,metric,checkpoint"


def test_train_rewrites_runs_file(tmp_path, data_dir):
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json"),
                        "valid": str(data_dir / "valid.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 2}],
        },
    )
    out = tmp_path / "o"
    for seed in ("1", "2"):
        assert main(["train", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
    runs = [json.loads(l) for l in open(out / "runs.jsonl")]
    assert sorted(r["run_id"] for r in runs) == ["c000-det-valid", "c000-pb", "c000-s-valid"]
    assert {r["config"]["seed"] for r in runs} == {2}
    assert main(["select", "--runs", str(out / "runs.jsonl"), "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "best.json").read_bytes() == (out / "best.json").read_bytes()


def test_train_reports_best_on_stdout(tmp_path, data_dir, capsys):
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"pb"}          # no validation split: pb only


def test_train_k_mismatch(tmp_path, data_dir, capsys):
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 5, "block_size": 2, "epochs": 1}],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "does not match dataset k" in capsys.readouterr().err


def test_train_bad_grid_entry(tmp_path, data_dir, capsys):
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "momentum": 0.9}],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config.grid[0]" in capsys.readouterr().err


def test_train_rejects_supervised_grid_entry(tmp_path, data_dir, capsys):
    # "supervised" is an unknown objective like any other name
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "objective": "supervised",
                      "k": 2, "block_size": 2, "epochs": 1}],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config.grid[0]" in err and "'supervised'" in err
    assert all(repr(name) in err for name in ("iid", "noniid", "erm"))
    assert not (tmp_path / "o" / "runs.jsonl").exists()


def test_train_validation_criterion_needs_split(tmp_path, data_dir, capsys):
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}],
            "criteria": ["s-valid"],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "needs a validation split" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_all_aborted_exits_three(tmp_path, rng, capsys):
    model = data.random_gaussian_model(2, 3, 4.0, 0.5, rng)
    ds = data.sample_contrastive_iid(model, 30, 2, 2, rng)
    ds.features[0, 0] = math.nan
    data.save_contrastive(ds, str(tmp_path / "poisoned.json"))
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(tmp_path / "poisoned.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numeric abort" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bound


def best_pb_checkpoint(train_dir):
    best = json.loads((train_dir / "best.json").read_text())
    return best["pb"]["checkpoint"]


def test_bound_iid_report(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    out = tmp_path / "bounds"
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(out), "--iid", "--seed", "2", "--deterministic",
    ]) == 0
    stem = os.path.basename(ckpt)[: -len(".ckpt.json")]
    path = out / f"bound_{stem}.json"
    doc = json.loads(path.read_text())
    assert doc["format"] == "pbcurl-bound-v1"
    assert doc["bound_kind"] == "iid-selection"
    assert 0.0 <= doc["empirical_risk"] <= 1.0
    assert doc["bound_value"] > doc["empirical_risk"]
    assert doc["lambda"] > 0.0
    assert doc["m"] == 60
    ds = data.load_contrastive(str(data_dir / "test.json"))
    assert doc["provenance"]["dataset_hash"] == data.dataset_hash(ds)
    assert "timestamp" not in doc["provenance"]


def test_bound_deterministic_is_byte_identical(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    args = [
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--iid", "--seed", "7", "--deterministic",
    ]
    assert main(args + ["--out", str(tmp_path / "a"), "--id", "rep"]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--id", "rep"]) == 0
    assert (tmp_path / "a" / "bound_rep.json").read_bytes() == (
        tmp_path / "b" / "bound_rep.json"
    ).read_bytes()


def test_bound_without_deterministic_has_timestamp(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--id", "ts",
    ]) == 0
    doc = json.loads((tmp_path / "bound_ts.json").read_text())
    assert "timestamp" in doc["provenance"]


def test_bound_untrained_checkpoint_zero_divergence(tmp_path, data_dir, rng):
    post, prior = network.init_network((3, 5, 2), math.exp(-8.0), rng)
    path = tmp_path / "fresh.ckpt.json"
    network.save_checkpoint(
        str(path),
        network.Checkpoint(
            layer_sizes=[3, 5, 2], posterior=post, prior=prior,
            seed=0, epoch=0, config={},
        ),
    )
    assert main([
        "bound", "--checkpoint", str(path), "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--deterministic",
    ]) == 0
    doc = json.loads((tmp_path / "bound_fresh.json").read_text())
    assert doc["divergence_value"] == 0.0


def test_bound_loss_risk_needs_lam(tmp_path, data_dir, train_dir, capsys):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--risk", "loss",
    ]) == 2
    assert "--lam" in capsys.readouterr().err


def test_bound_loss_risk_report(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--risk", "loss", "--lam", "1.5",
        "--tau", "0.4", "--deterministic", "--id", "loss",
    ]) == 0
    doc = json.loads((tmp_path / "bound_loss.json").read_text())
    assert doc["bound_kind"] == "iid-loss"
    assert doc["lambda"] == 1.5
    assert doc["tau"] == 0.4                 # the override wins over provenance
    assert doc["loss_sup"] > 1.0
    assert doc["feature_bound"] > 0.0


def test_bound_noniid_with_dependency_override(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path), "--noniid", "--T", "2", "--deterministic",
        "--id", "dep",
    ]) == 0
    doc = json.loads((tmp_path / "bound_dep.json").read_text())
    assert doc["bound_kind"] == "noniid-selection"
    assert doc["dependency_t"] == 2
    assert doc["divergence_kind"] == "chi2"
    # the provenance hash pins the T the certificate used, not the file's T = 0
    ds = data.load_contrastive(str(data_dir / "test.json"))
    file_hash = data.dataset_hash(ds)
    ds.dependency_t = 2
    assert doc["provenance"]["dataset_hash"] == data.dataset_hash(ds) != file_hash


def test_bound_concatenates_data(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt,
        "--data", str(data_dir / "valid.json"), str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--deterministic", "--id", "cat",
    ]) == 0
    doc = json.loads((tmp_path / "bound_cat.json").read_text())
    assert doc["m"] == 120


def test_bound_missing_checkpoint(tmp_path, data_dir, capsys):
    assert main([
        "bound", "--checkpoint", str(tmp_path / "no.ckpt.json"),
        "--data", str(data_dir / "test.json"), "--out", str(tmp_path), "--iid",
    ]) == 2
    assert "not found" in capsys.readouterr().err


def test_bound_and_eval_reject_supervised_head_checkpoint(tmp_path, data_dir, train_dir, capsys):
    doc = json.loads(open(best_pb_checkpoint(train_dir)).read())
    doc["feature_layers"] = 1
    ckpt = write_json(tmp_path / "head.ckpt.json", doc)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid",
    ]) == 2
    assert "supervised class head" in capsys.readouterr().err
    assert main([
        "eval", "--checkpoint", ckpt,
        "--train-csv", str(data_dir / "labeled_train.csv"),
        "--test-csv", str(data_dir / "labeled_test.csv"), "--out", str(tmp_path),
    ]) == 2
    assert "supervised class head" in capsys.readouterr().err
    assert not list(tmp_path.glob("bound_*.json")) and not (tmp_path / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_metrics(tmp_path, data_dir, train_dir, capsys):
    ckpt = best_pb_checkpoint(train_dir)
    out = tmp_path / "metrics"
    assert main([
        "eval", "--checkpoint", ckpt,
        "--train-csv", str(data_dir / "labeled_train.csv"),
        "--test-csv", str(data_dir / "labeled_test.csv"),
        "--norm-stats", str(data_dir / "norm_stats.json"),
        "--out", str(out), "--seed", "5",
    ]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    metrics = doc[ckpt]
    assert set(metrics) == {"avg2", "top1", "top5", "mu5_avg2", "mu5_top1", "mu5_top5"}
    rows = list(open(out / "metrics.csv"))
    assert rows[0].strip() == "checkpoint,metric,value"
    assert len(rows) == 7
    for line in rows[1:]:
        _, name, value = line.strip().split(",")
        assert float(value) == metrics[name]


def test_eval_dim_mismatch(tmp_path, data_dir, rng, capsys):
    post, prior = network.init_network((7, 3), 1e-3, rng)
    path = tmp_path / "wide.ckpt.json"
    network.save_checkpoint(
        str(path),
        network.Checkpoint(
            layer_sizes=[7, 3], posterior=post, prior=prior, seed=0, epoch=0, config={},
        ),
    )
    assert main([
        "eval", "--checkpoint", str(path),
        "--train-csv", str(data_dir / "labeled_train.csv"),
        "--test-csv", str(data_dir / "labeled_test.csv"),
        "--out", str(tmp_path / "m"),
    ]) == 2
    assert "does not match" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# select


def test_select_reranks_runs(tmp_path, train_dir, capsys):
    out = tmp_path / "sel"
    assert main([
        "select", "--runs", str(train_dir / "runs.jsonl"), "--out", str(out),
    ]) == 0
    best = json.loads((out / "best.json").read_text())
    assert set(best) == {"s-valid", "det-valid", "pb"}
    ours = json.loads((train_dir / "best.json").read_text())
    for crit, entry in best.items():
        assert entry["run_id"] == ours[crit]["run_id"]
        assert entry["metric"] == pytest.approx(ours[crit]["metric"])


def test_select_reproduces_train_ranking(tmp_path, train_dir):
    # one ranker: select on a fresh runs.jsonl rewrites train's files exactly
    out = tmp_path / "sel"
    assert main(["select", "--runs", str(train_dir / "runs.jsonl"), "--out", str(out)]) == 0
    for name in ("leaderboard.csv", "best.json"):
        assert (out / name).read_bytes() == (train_dir / name).read_bytes()


def test_select_subset_of_criteria(tmp_path, train_dir):
    out = tmp_path / "sel"
    assert main([
        "select", "--runs", str(train_dir / "runs.jsonl"), "--out", str(out),
        "--criteria", "pb",
    ]) == 0
    best = json.loads((out / "best.json").read_text())
    assert set(best) == {"pb"}
    lines = open(out / "leaderboard.csv").read().splitlines()
    assert all(l.startswith("pb,") for l in lines[1:])


def test_select_recomputes_missing_certificate(tmp_path, data_dir, train_dir):
    stripped = tmp_path / "runs.jsonl"
    with open(train_dir / "runs.jsonl") as fh, open(stripped, "w") as out_fh:
        for line in fh:
            rec = json.loads(line)
            rec["selection"] = None
            out_fh.write(json.dumps(rec) + "\n")
    out = tmp_path / "sel"
    assert main([
        "select", "--runs", str(stripped), "--out", str(out), "--criteria", "pb",
        "--data", str(data_dir / "train.json"), str(data_dir / "valid.json"),
        "--seed", "11",
    ]) == 0
    best = json.loads((out / "best.json").read_text())
    ours = json.loads((train_dir / "best.json").read_text())
    assert best["pb"]["metric"] == pytest.approx(ours["pb"]["metric"])


def test_select_missing_certificate_without_data(tmp_path, train_dir, capsys):
    stripped = tmp_path / "runs.jsonl"
    with open(train_dir / "runs.jsonl") as fh, open(stripped, "w") as out_fh:
        for line in fh:
            rec = json.loads(line)
            rec["selection"] = None
            out_fh.write(json.dumps(rec) + "\n")
    assert main([
        "select", "--runs", str(stripped), "--out", str(tmp_path / "s"),
        "--criteria", "pb",
    ]) == 2
    assert "--data" in capsys.readouterr().err


def test_select_bad_inputs(tmp_path, train_dir, capsys):
    assert main([
        "select", "--runs", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "s"),
    ]) == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n")
    assert main(["select", "--runs", str(bad), "--out", str(tmp_path / "s")]) == 2
    assert ":1:" in capsys.readouterr().err

    assert main([
        "select", "--runs", str(train_dir / "runs.jsonl"), "--out", str(tmp_path / "s"),
        "--criteria", "best-of-n",
    ]) == 2
    assert "--criteria" in capsys.readouterr().err


def test_select_rejects_record_without_run_id(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    runs.write_text('{"run_id": "a", "mode": "valid-map", "metric": 0.4}\n'
                    '{"mode": "valid-map", "metric": 0.5}\n')
    assert main(["select", "--runs", str(runs), "--out", str(tmp_path / "s")]) == 2
    assert f"{runs}:2: run record without run_id" in capsys.readouterr().err
