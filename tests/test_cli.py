import errno
import json
import math
import os
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from pbcurl import bounds, cli, data, network, training
from pbcurl.cli import main


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
        "labeled_train.csv", "labeled_test.csv", "labeled_train.bin", "labeled_test.bin",
        "norm_stats.json", "dataset.json",
    ]
    for name in names:
        assert (data_dir / name).exists(), name
    summary = json.loads((data_dir / "dataset.json").read_text())
    assert summary["format"] == "pbcurl-dataset-v1"
    for split in ("labeled_train", "labeled_test"):
        twin = summary["artifacts"][f"{split}_twin"]
        assert twin == data.labeled_twin_path(summary["artifacts"][split])
        assert twin.endswith(f"{split}.bin")
        assert (data_dir / f"{split}.bin").read_bytes()[:8] == b"PBCURLL1"
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
    for name in ("train.json", "train.bin", "labeled_train.csv", "labeled_train.bin",
                 "labeled_test.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "10"]) == 0
    for name in ("train.bin", "labeled_train.bin"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


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


def sequence_config(tmp_path):
    return write_json(
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


def test_gen_data_sequences(tmp_path):
    cfg = sequence_config(tmp_path)
    out = tmp_path / "seq"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    train = data.load_contrastive(str(out / "train.json"))
    assert train.dependency_t == 2
    assert len(train) == 3 * 2 * (8 - 2)


@pytest.mark.parametrize("phi", [1.5, -1.01, math.nan, math.inf])
def test_gen_data_sequences_rejects_ar_coeff_outside_unit_interval(tmp_path, capsys, phi):
    # |phi| > 1 makes sqrt(1 - phi^2) NaN, and every frame after the first with it
    with open(sequence_config(tmp_path)) as fh:
        doc = json.load(fh)
    doc["dataset"]["ar_coeff"] = phi
    cfg = write_json(tmp_path / "g.json", doc)
    out = tmp_path / "seq"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "4"]) == 2
    assert "ar_coeff" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("phi", [-1.0, 0.0, 1.0])
def test_gen_data_sequences_accepts_ar_coeff_on_the_unit_interval(tmp_path, phi):
    with open(sequence_config(tmp_path)) as fh:
        doc = json.load(fh)
    doc["dataset"]["ar_coeff"] = phi
    cfg = write_json(tmp_path / "g.json", doc)
    out = tmp_path / "seq"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    assert np.all(np.isfinite(data.load_contrastive(str(out / "train.json")).features))


@pytest.mark.parametrize("kind", ["synthetic-iid", "synthetic-sequences"])
@pytest.mark.parametrize("key, value, message", [
    ("separation", "nan", "dataset.separation must be finite and >= 0, got nan"),
    ("separation", -1.0, "dataset.separation must be finite and >= 0, got -1.0"),
    ("separation", math.inf, "dataset.separation must be finite and >= 0, got inf"),
    ("std", "nan", "dataset.std must be finite and > 0, got nan"),
    ("std", 0.0, "dataset.std must be finite and > 0, got 0.0"),
    ("std", -1.0, "dataset.std must be finite and > 0, got -1.0"),
    ("std", math.inf, "dataset.std must be finite and > 0, got inf"),
])
def test_gen_data_rejects_a_bad_class_model(tmp_path, capsys, kind, key, value, message):
    # "separation": "nan" wrote NaN features and norm_stats.json with exit 0
    if kind == "synthetic-iid":
        doc = iid_config()
    else:
        with open(sequence_config(tmp_path)) as fh:
            doc = json.load(fh)
    doc["dataset"][key] = value
    cfg = write_json(tmp_path / "g.json", doc)
    out = tmp_path / "x"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, key", [
    ("synthetic-iid", "m_train"), ("synthetic-iid", "m_valid"), ("synthetic-iid", "m_test"),
    ("synthetic-iid", "n_labeled_train"), ("synthetic-iid", "n_labeled_test"),
    ("synthetic-sequences", "length"), ("synthetic-sequences", "n_train_seq_per_class"),
    ("synthetic-sequences", "n_valid_seq_per_class"),
    ("synthetic-sequences", "n_test_seq_per_class"),
    ("files", "m_train"), ("files", "m_valid"),
    ("sequence-manifest", "m_train"), ("sequence-manifest", "m_valid"),
])
def test_gen_data_rejects_a_negative_count_by_name(tmp_path, rng, capsys, kind, key):
    # numpy's "negative dimensions are not allowed" named no key
    if kind == "sequence-manifest":
        spec = {"kind": kind, "manifest": write_sequence_corpus(tmp_path, rng), "first_steps": 5,
                "train_per_class": 3, "valid_per_class": 1, "tuples": "iid", "m_train": 30,
                "k": 2, "block_size": 2}
    else:
        spec = generative_spec(kind, tmp_path, rng)
    spec[key] = -1
    cfg = write_json(tmp_path / "g.json", {"dataset": spec})
    out = tmp_path / "x"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: dataset.{key} must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def generative_spec(kind, tmp_path, rng):
    if kind == "synthetic-iid":
        return iid_config()["dataset"]
    if kind == "synthetic-sequences":
        return {"kind": kind, "n_classes": 3, "dim": 2, "length": 8, "n_train_seq_per_class": 2,
                "n_test_seq_per_class": 1, "k": 2, "block_size": 2}
    model = data.random_gaussian_model(3, 3, 4.0, 1.0, rng)
    for name, n in (("src_train", 90), ("src_test", 60)):
        data.save_labeled_csv(data.sample_labeled(model, n, rng), str(tmp_path / f"{name}.csv"))
    return {"kind": "files", "train_csv": str(tmp_path / "src_train.csv"),
            "test_csv": str(tmp_path / "src_test.csv"), "m_train": 50, "m_valid": 20,
            "k": 2, "block_size": 2}


@pytest.mark.parametrize("kind", ["synthetic-iid", "synthetic-sequences", "files"])
def test_gen_data_labeled_twins_hold_the_parsed_rows(tmp_path, rng, kind):
    spec = generative_spec(kind, tmp_path, rng)
    cfg = write_json(tmp_path / "g.json", {"dataset": spec})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "ds"), "--seed", "6"]) == 0
    for split in ("labeled_train", "labeled_test"):
        path = str(tmp_path / "ds" / f"{split}.csv")
        twin = data._read_labeled_twin(path)
        x, y = data._read_csv(path, labeled=True)
        assert twin is not None
        assert twin.x.dtype == x.dtype and twin.y.dtype == y.dtype
        assert twin.x.tobytes() == x.tobytes() and twin.y.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ["synthetic-iid", "synthetic-sequences", "files"])
def test_gen_data_round_trips_the_tuples(tmp_path, rng, kind):
    spec = generative_spec(kind, tmp_path, rng)
    cfg = write_json(tmp_path / "g.json", {"dataset": spec})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "ds"), "--seed", "6"]) == 0
    summary = json.loads((tmp_path / "ds" / "dataset.json").read_text())
    built = cli._build_dataset(spec, 6)
    assert set(summary["hashes"]) == {"train", "valid", "test"} & set(built)
    for split, recorded in summary["hashes"].items():
        back = data.load_contrastive(summary["artifacts"][split])
        assert data.dataset_hash(back) == recorded == data.dataset_hash(built[split])
        for name in ("anchors", "positives", "negatives"):
            loaded = getattr(back, name)
            assert loaded.dtype == np.int64
            assert np.array_equal(loaded, getattr(built[split], name))


@pytest.mark.parametrize("kind", ["synthetic-iid", "synthetic-sequences", "files"])
def test_build_dataset_normalises_each_split_once(tmp_path, rng, kind):
    # splits that own their matrix are normalised in place; the files kind's
    # tuple sets share the labeled pool, which must stay raw
    spec = generative_spec(kind, tmp_path, rng)
    if kind == "synthetic-iid":
        spec = {**spec, "m_valid": 20, "m_test": 30}
    raw = cli._DATASET_BUILDERS[kind](spec, 6)
    built = cli._build_dataset(spec, 6)
    stats = data.NormStats.from_data(raw["train"].features)
    for name, ds in raw.items():
        if name.startswith("labeled"):
            assert np.array_equal(built[name].x, ds.x)
        else:
            want = (ds.features - stats.mean) / stats.std
            assert np.array_equal(built[name].features.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("key, value", [("early_stop", False), ("valid_metric", "map")])
def test_train_rejects_deleted_run_policy_keys(tmp_path, data_dir, capsys, key, value):
    # the criteria decide how a run stops; a grid entry cannot
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1,
                      key: value}],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config.grid[0]" in err and "unknown config fields" in err and repr(key) in err


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


@pytest.mark.parametrize("cert_samples", [0, -3])
def test_train_rejects_cert_samples_below_one(tmp_path, data_dir, capsys, cert_samples):
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}],
            "cert_samples": cert_samples,
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config.cert_samples must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()          # rejected before training


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


def test_train_empty_criteria_exits_two(tmp_path, data_dir, capsys):
    cfg = write_json(
        tmp_path / "t.json",
        {
            "dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}],
            "criteria": [],
        },
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "criteria must name at least one" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()          # rejected before training


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
    # posterior and prior both at the grid's first point, j = 1, where the
    # zero-one certificate takes its KL
    post, prior = network.init_network((3, 5, 2), math.exp(-8.0), rng)
    post.log_sigma2[:] = prior.log_sigma2 = math.log(0.1) - 1.0 / 100.0
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
    assert doc["divergence_value"] == 0.0 and doc["j"] == 1
    # a config without the settings certifies at TrainConfig's defaults
    assert (doc["grid_b"], doc["grid_c"], doc["delta"]) == (100.0, 0.1, 0.05)


def test_bound_loss_risk_needs_lam(tmp_path, data_dir, train_dir, capsys):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--risk", "loss",
    ]) == 2
    assert "--lam" in capsys.readouterr().err


def test_bound_loss_risk_report(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    ds = data.load_contrastive(str(data_dir / "test.json"))
    ds.provenance = {**ds.provenance, "tau": 0.4}
    data.save_contrastive(ds, str(tmp_path / "tau.json"))
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(tmp_path / "tau.json"),
        "--out", str(tmp_path), "--iid", "--risk", "loss", "--lam", "1.5",
        "--deterministic", "--id", "loss",
    ]) == 0
    doc = json.loads((tmp_path / "bound_loss.json").read_text())
    assert doc["bound_kind"] == "iid-loss"
    assert doc["lambda"] == 1.5
    assert doc["tau"] == 0.4                 # the manifest's provenance tau
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


def test_bound_T_raises_the_data_T_but_does_not_lower_it(tmp_path, data_dir, train_dir, capsys):
    # a certificate at T = 1 on tuples built with T = 2 would not hold
    ckpt = best_pb_checkpoint(train_dir)
    ds = data.load_contrastive(str(data_dir / "test.json"))
    ds.dependency_t = 2
    data.save_contrastive(ds, str(tmp_path / "dep.json"))
    args = ["bound", "--checkpoint", ckpt, "--data", str(tmp_path / "dep.json"), "--noniid",
            "--deterministic"]
    for t in ("1", "0"):
        assert main([*args, "--out", str(tmp_path / "low"), "--T", t]) == 2
        assert (f"error: --T {t} is below the data's dependency_t = 2"
                in capsys.readouterr().err)
    assert not (tmp_path / "low").exists()
    for t in ("2", "3"):
        assert main([*args, "--out", str(tmp_path / "ok"), "--T", t, "--id", t]) == 0
        doc = json.loads((tmp_path / "ok" / f"bound_{t}.json").read_text())
        assert doc["dependency_t"] == int(t)


def windowed_manifest(tmp_path):
    """The train split of a synthetic-sequences set (dependency_t 2) the fixtures' nets read."""
    with open(sequence_config(tmp_path)) as fh:
        doc = json.load(fh)
    doc["dataset"]["dim"] = 3
    cfg = write_json(tmp_path / "g.json", doc)
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "seq")]) == 0
    return str(tmp_path / "seq" / "train.json")


@pytest.mark.parametrize("risk", ["zero-one", "loss"])
def test_bound_refuses_the_kl_form_on_dependent_tuples(tmp_path, train_dir, capsys, risk):
    # the KL bounds assume independent tuples; windowed ones need the chi-square form
    windowed = windowed_manifest(tmp_path)
    args = ["bound", "--checkpoint", best_pb_checkpoint(train_dir), "--data", windowed,
            "--risk", risk, "--deterministic"]
    assert main([*args, "--out", str(tmp_path / "b"), "--iid", "--lam", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "KL form, which needs independent tuples; the data has dependency_t = 2" in err
    assert not (tmp_path / "b").exists()
    assert main([*args, "--out", str(tmp_path / "ok"), "--noniid", "--id", "chi2"]) == 0
    assert json.loads((tmp_path / "ok" / "bound_chi2.json").read_text())["dependency_t"] == 2


def test_bound_iid_refuses_a_raised_T(tmp_path, data_dir, train_dir, capsys):
    assert main([
        "bound", "--checkpoint", best_pb_checkpoint(train_dir),
        "--data", str(data_dir / "test.json"), "--out", str(tmp_path / "b"),
        "--iid", "--T", "2",
    ]) == 2
    assert "dependency_t = 2" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("objective", ["iid", "erm"])
def test_train_refuses_a_kl_ranked_pb_run_on_dependent_tuples(tmp_path, train_dir, capsys,
                                                              objective):
    cfg = write_json(tmp_path / "t.json", {
        "dataset": {"kind": "manifests", "train": windowed_manifest(tmp_path)},
        "grid": [{"layer_sizes": [3, 4, 2], "objective": "noniid", "k": 2, "block_size": 2,
                  "epochs": 1},
                 {"layer_sizes": [3, 4, 2], "objective": objective, "k": 2, "block_size": 2,
                  "epochs": 1}],
        "criteria": ["pb"],
    })
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert (f"objective {objective!r} is certified in the KL form, which needs independent "
            "tuples; the data has dependency_t = 2") in err
    assert not (tmp_path / "o").exists()     # refused before the first run


def test_bound_takes_its_settings_from_the_checkpoint(tmp_path, data_dir, train_dir):
    path = best_pb_checkpoint(train_dir)
    ckpt = network.load_checkpoint(path)
    ckpt.config = {**ckpt.config, "grid_b": 50.0, "grid_c": 0.2, "delta": 0.1}
    network.save_checkpoint(str(tmp_path / "own.ckpt.json"), ckpt)
    for ckpt_path in (path, str(tmp_path / "own.ckpt.json")):
        assert main([
            "bound", "--checkpoint", ckpt_path, "--data", str(data_dir / "test.json"),
            "--out", str(tmp_path / "b"), "--iid", "--deterministic", "--id", "cert",
        ]) == 0
        doc = json.loads((tmp_path / "b" / "bound_cert.json").read_text())
        config = network.load_checkpoint(ckpt_path).config
        assert (doc["grid_b"], doc["grid_c"], doc["delta"]) == (
            config["grid_b"], config["grid_c"], config["delta"])
        j = bounds.j_index(config["grid_b"], config["grid_c"], ckpt.prior.log_sigma2)
        assert doc["j"] in (math.floor(j), math.ceil(j))    # the grid point certified
        assert doc["dependency_t"] == 0          # KL: independent tuples
        assert doc["provenance"]["environment"] == network.environment()


@pytest.mark.parametrize("flag, value", [
    ("--grid-b", "10"), ("--grid-c", "1.0"), ("--delta", "0.5"), ("--tau", "0.0"),
])
def test_bound_has_no_setting_overrides(tmp_path, data_dir, train_dir, capsys, flag, value):
    # the grid, delta and tau are fixed before the data: by the run and the manifest
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--checkpoint", best_pb_checkpoint(train_dir),
              "--data", str(data_dir / "test.json"), "--out", str(tmp_path / "b"), "--iid",
              flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bound_iid_loss_needs_the_manifests_tau(tmp_path, data_dir, train_dir, capsys):
    ds = data.load_contrastive(str(data_dir / "test.json"))
    ds.provenance = {key: v for key, v in ds.provenance.items() if key != "tau"}
    data.save_contrastive(ds, str(tmp_path / "bare.json"))
    assert main([
        "bound", "--checkpoint", best_pb_checkpoint(train_dir),
        "--data", str(tmp_path / "bare.json"), "--out", str(tmp_path / "b"),
        "--iid", "--risk", "loss", "--lam", "1.0",
    ]) == 2
    assert "needs tau (class collision probability) in the dataset's provenance" in (
        capsys.readouterr().err)
    assert not (tmp_path / "b").exists()


def test_bound_concatenates_data(tmp_path, data_dir, train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt,
        "--data", str(data_dir / "valid.json"), str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--deterministic", "--id", "cat",
    ]) == 0
    doc = json.loads((tmp_path / "bound_cat.json").read_text())
    assert doc["m"] == 120


def test_bound_reproduces_the_pb_ranking_certificate(tmp_path, data_dir, train_dir):
    # train ranks a pb run by its certificate on train + valid; bound on the
    # same tuples, with train's draw count and no --seed, is the same certificate
    rec = next(json.loads(line) for line in open(train_dir / "runs.jsonl")
               if json.loads(line)["mode"] == "pb")
    assert main([
        "bound", "--checkpoint", rec["checkpoint_path"],
        "--data", str(data_dir / "train.json"), str(data_dir / "valid.json"),
        "--samples", str(training.CERT_SAMPLES), "--out", str(tmp_path / "b"), "--iid",
        "--deterministic", "--id", "ranking",
    ]) == 0
    doc = json.loads((tmp_path / "b" / "bound_ranking.json").read_text())
    selection = rec["selection"]
    for key in ("bound_value", "empirical_risk", "divergence_value", "j"):
        assert doc[key] == selection[key], key
    assert doc["provenance"]["dataset_hash"] == selection["provenance"]["dataset_hash"]
    assert selection["provenance"]["seed"] == rec["config"]["seed"] == doc["provenance"]["seed"]
    assert selection["provenance"]["environment"] == network.environment()
    assert rec["metric"] == selection["bound_value"]


def test_bound_iid_loss_reads_the_tau_concatenated_manifests_share(tmp_path, data_dir,
                                                                   train_dir):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt,
        "--data", str(data_dir / "valid.json"), str(data_dir / "test.json"),
        "--out", str(tmp_path), "--iid", "--risk", "loss", "--lam", "1.0",
        "--deterministic", "--id", "cat-loss",
    ]) == 0
    doc = json.loads((tmp_path / "bound_cat-loss.json").read_text())
    tau = data.load_contrastive(str(data_dir / "test.json")).provenance["tau"]
    assert doc["tau"] == tau
    assert doc["m"] == 120


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize("risk", ["zero-one", "loss"])
def test_bound_rejects_a_sample_count_below_one(tmp_path, data_dir, train_dir, capsys,
                                                samples, risk):
    ckpt = best_pb_checkpoint(train_dir)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path / "b"), "--iid", "--risk", risk, "--lam", "1.0",
        "--samples", samples,
    ]) == 2
    assert "error: n_samples must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("flags, config, message", [
    ([], {"delta": 1.5}, "delta must lie in (0, 1), got 1.5"),
    ([], {"delta": 0}, "delta must lie in (0, 1), got 0.0"),
    (["--risk", "loss", "--lam", "-1"], {}, "lambda must be > 0, got -1.0"),
    (["--noniid", "--T", "-1"], {}, "--T must be >= 0, got -1"),
], ids=["delta-above-one", "delta-zero", "negative-lambda", "negative-T"])
def test_bound_rejects_an_out_of_range_parameter(tmp_path, data_dir, train_dir, capsys,
                                                 flags, config, message):
    ckpt = best_pb_checkpoint(train_dir)
    if config:      # delta comes from the checkpoint's config
        doc = network.load_checkpoint(ckpt)
        doc.config = {**doc.config, **config}
        ckpt = str(tmp_path / "c.ckpt.json")
        network.save_checkpoint(ckpt, doc)
    forms = [] if "--noniid" in flags else ["--iid"]
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path / "b"), *forms, *flags,
    ]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("key, value, message", [
    ("grid_b", None, "grid_b must be a positive finite number, got None"),
    ("grid_b", [100.0], "grid_b must be a positive finite number, got [100.0]"),
    ("grid_b", math.nan, "grid_b must be a positive finite number, got nan"),
    ("grid_c", "0.1", "grid_c must be a positive finite number, got '0.1'"),
    ("grid_c", -0.1, "grid_c must be a positive finite number, got -0.1"),
    ("delta", True, "delta must lie in (0, 1), got True"),
    ("loss_kind", "foo", "loss_kind must be one of ('logistic', 'hinge'), got 'foo'"),
], ids=["grid_b-null", "grid_b-list", "grid_b-nan", "grid_c-string", "grid_c-negative",
        "delta-bool", "loss_kind-unknown"])
def test_bound_checks_the_settings_in_the_checkpoint_config(tmp_path, data_dir, train_dir,
                                                            capsys, key, value, message):
    doc = network.load_checkpoint(best_pb_checkpoint(train_dir))
    doc.config = {**doc.config, key: value}
    ckpt = str(tmp_path / "c.ckpt.json")
    network.save_checkpoint(ckpt, doc)
    assert main([
        "bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
        "--out", str(tmp_path / "b"), "--iid",
    ]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}, in the config of checkpoint {ckpt}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "b").exists()


def test_bound_missing_checkpoint(tmp_path, data_dir, capsys):
    assert main([
        "bound", "--checkpoint", str(tmp_path / "no.ckpt.json"),
        "--data", str(data_dir / "test.json"), "--out", str(tmp_path), "--iid",
    ]) == 2
    assert "not found" in capsys.readouterr().err


def write_v1_manifest(tmp_path, rng):
    # format v1 kept the tuple indices as JSON lists; its .bin held the matrix only
    x = rng.standard_normal((12, 3))
    (tmp_path / "old.bin").write_bytes(b"PBCURLF1" + struct.pack("<II", 12, 3) + x.tobytes())
    return write_json(tmp_path / "old.json", {
        "format": "pbcurl-contrastive-v1", "features_file": "old.bin", "k": 2,
        "block_size": 2, "dependency_t": 0, "n_tuples": 1, "provenance": {},
        "anchors": [0], "positives": [[1, 2]], "negatives": [[[3, 4], [5, 6]]],
    })


def test_v1_manifest_exits_two_and_names_gen_data(tmp_path, data_dir, train_dir, capsys):
    old = write_v1_manifest(tmp_path, np.random.default_rng(0))
    assert main([
        "bound", "--checkpoint", best_pb_checkpoint(train_dir), "--data", old,
        "--out", str(tmp_path / "b"), "--iid",
    ]) == 2
    err = capsys.readouterr().err
    assert "gen-data" in err and "v1" in err and "Traceback" not in err
    cfg = write_json(tmp_path / "t.json", {
        "dataset": {"kind": "manifests", "train": old},
        "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}],
    })
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert "gen-data" in err and "v1" in err and "Traceback" not in err
    assert not (tmp_path / "b").exists() and not (tmp_path / "t").exists()


@pytest.mark.parametrize("key", ["data_file", "shapes", "k", "block_size", "dependency_t"])
def test_manifest_missing_key_exits_two_and_names_it(tmp_path, data_dir, train_dir, capsys, key):
    doc = json.loads((data_dir / "test.json").read_text())
    del doc[key]
    (tmp_path / doc.get("data_file", "test.bin")).write_bytes((data_dir / "test.bin").read_bytes())
    manifest = write_json(tmp_path / "test.json", doc)
    assert main([
        "bound", "--checkpoint", best_pb_checkpoint(train_dir), "--data", manifest,
        "--out", str(tmp_path / "b"), "--iid",
    ]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err
    assert not (tmp_path / "b").exists()


# a manifest entry of another JSON type, made from the entry it replaces
# (None: the whole manifest, a text when it is not JSON). int() would read
# 2.0, "2" and 0.9 as 2, 2 and 0
BAD_MANIFEST_VALUES = {
    "float-shape": ("shapes.anchors", lambda shape: [float(n) for n in shape]),
    "string-shape": ("shapes.anchors", lambda shape: str(shape[0])),
    "negative-shape": ("shapes.positives", lambda shape: [-n for n in shape]),
    "null-provenance": ("provenance", lambda _: None),
    "fractional-dependency": ("dependency_t", lambda _: 0.9),
    "float-k": ("k", float),
    "string-block-size": ("block_size", str),
    "null-data-file": ("data_file", lambda _: None),
    "list-shapes": ("shapes", lambda shapes: list(shapes.values())),
    "list-manifest": (None, lambda doc: [doc]),
    "truncated-manifest": (None, lambda doc: json.dumps(doc)[:-1]),
}


@pytest.mark.parametrize("key, bad", BAD_MANIFEST_VALUES.values(), ids=BAD_MANIFEST_VALUES.keys())
def test_manifest_value_of_another_type_exits_two_and_names_it(tmp_path, data_dir, train_dir,
                                                               capsys, key, bad):
    doc = json.loads((data_dir / "test.json").read_text())
    (tmp_path / "test.bin").write_bytes((data_dir / "test.bin").read_bytes())
    if key is None:
        doc = bad(doc)
    else:
        *outer, name = key.split(".")
        entries = doc[outer[0]] if outer else doc
        entries[name] = bad(entries[name])
    manifest = tmp_path / "test.json"
    manifest.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([
        "bound", "--checkpoint", best_pb_checkpoint(train_dir), "--data", str(manifest),
        "--out", str(tmp_path / "b"), "--iid",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and "Traceback" not in err
    assert (f"{key!r} must be" if key else "JSON") in err
    assert not (tmp_path / "b").exists()


def test_a_directory_given_for_a_file_exits_two(tmp_path, data_dir, capsys):
    # open() on a directory raises IsADirectoryError, an OSError
    assert main(["gen-data", "--config", str(tmp_path), "--out", str(tmp_path / "g")]) == 2
    assert main(["bound", "--checkpoint", str(tmp_path), "--data", str(data_dir / "test.json"),
                 "--out", str(tmp_path / "b"), "--iid"]) == 2
    raised = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))
    assert capsys.readouterr().err.splitlines() == [f"error: {raised}"] * 2
    assert not (tmp_path / "g").exists() and not (tmp_path / "b").exists()


def write_zero_tuple_manifest(tmp_path, rng):
    # a ContrastiveDataset refuses to hold no tuples, so a one-tuple set's
    # files are cut down to none: the manifest's shapes and the index bytes
    one = data.ContrastiveDataset(
        features=rng.standard_normal((12, 3)), anchors=np.zeros(1, np.int64),
        positives=np.zeros((1, 2), np.int64), negatives=np.zeros((1, 2, 2), np.int64),
        k=2, block_size=2,
    )
    path = tmp_path / "empty.json"
    data.save_contrastive(one, str(path))
    doc = json.loads(path.read_text())
    doc["n_tuples"] = 0
    doc["shapes"] = {name: [0, *shape[1:]] for name, shape in doc["shapes"].items()}
    path.write_text(json.dumps(doc))
    bin_path = tmp_path / "empty.bin"
    bin_path.write_bytes(bin_path.read_bytes()[: 16 + 8 * 12 * 3])
    return str(path)


def test_zero_tuple_manifest_exits_two_before_any_work(tmp_path, train_dir, capsys):
    empty = write_zero_tuple_manifest(tmp_path, np.random.default_rng(0))
    assert main([
        "bound", "--checkpoint", best_pb_checkpoint(train_dir), "--data", empty,
        "--out", str(tmp_path / "b"), "--iid",
    ]) == 2
    err = capsys.readouterr().err
    assert f"{empty}: the manifest holds no tuples" in err and "Traceback" not in err
    cfg = write_json(tmp_path / "t.json", {
        "dataset": {"kind": "manifests", "train": empty},
        "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}],
    })
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert f"{empty}: the manifest holds no tuples" in err and "Traceback" not in err
    assert not (tmp_path / "b").exists() and not (tmp_path / "t").exists()


def write_wide_checkpoint(tmp_path, rng, width=20):
    post, prior = network.init_network((width, 3), 1e-3, rng)
    path = tmp_path / "wide.ckpt.json"
    network.save_checkpoint(
        str(path),
        network.Checkpoint(
            layer_sizes=[width, 3], posterior=post, prior=prior, seed=0, epoch=0, config={},
        ),
    )
    return str(path)


@pytest.mark.parametrize("manifest", ["iid", "sequence"])
def test_bound_rejects_a_checkpoint_of_another_input_width(tmp_path, data_dir, rng, capsys,
                                                           manifest):
    wide = write_wide_checkpoint(tmp_path, rng)
    if manifest == "iid":
        path, dim, flag = str(data_dir / "test.json"), 3, "--iid"
    else:
        seq = tmp_path / "seq"
        assert main(["gen-data", "--config", sequence_config(tmp_path), "--out", str(seq),
                     "--seed", "4"]) == 0
        path, dim, flag = str(seq / "train.json"), 2, "--noniid"
    capsys.readouterr()
    assert main(["bound", "--checkpoint", wide, "--data", path, "--out", str(tmp_path / "b"),
                 flag]) == 2
    err = capsys.readouterr().err
    assert f"{wide}: network input width 20 does not match feature dim {dim}" in err
    assert "Traceback" not in err and not (tmp_path / "b").exists()


def test_cli_import_leaves_scipy_out():
    # the runtime needs numpy only; scipy is a test oracle
    code = "import sys, pbcurl.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_gen_data_and_eval_leave_numpy_ma_out(tmp_path, rng):
    # plain np.unique imports numpy.ma, 12-21 ms of a gen-data call
    post, prior = network.init_network([2, 3], 0.01, rng)
    ckpt = tmp_path / "c.ckpt.json"
    network.save_checkpoint(ckpt, network.Checkpoint([2, 3], post, prior, seed=0, epoch=0))
    seq = tmp_path / "seq"
    code = "\n".join([
        "import sys",
        "from pbcurl.cli import main",
        f"assert main(['gen-data', '--config', {sequence_config(tmp_path)!r}, "
        f"'--out', {str(seq)!r}, '--seed', '4']) == 0",
        f"assert main(['eval', '--checkpoint', {str(ckpt)!r}, "
        f"'--train-csv', {str(seq / 'labeled_train.csv')!r}, "
        f"'--test-csv', {str(seq / 'labeled_test.csv')!r}, "
        f"'--out', {str(tmp_path / 'm')!r}]) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"


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


def test_eval_applies_the_network_once_per_split(tmp_path, data_dir, train_dir, monkeypatch):
    best = json.loads((train_dir / "best.json").read_text())
    ckpts = sorted({entry["checkpoint"] for entry in best.values()})
    forwards, forward = [], network.forward
    monkeypatch.setattr(network, "forward",
                        lambda *args, **kw: forwards.append(kw["ws"]) or forward(*args, **kw))
    assert main([
        "eval", "--checkpoint", *ckpts,
        "--train-csv", str(data_dir / "labeled_train.csv"),
        "--test-csv", str(data_dir / "labeled_test.csv"),
        "--out", str(tmp_path / "m"),
    ]) == 0
    assert len(forwards) == 2 * len(ckpts)
    # both splits of a checkpoint go through one workspace
    assert all(train is test for train, test in zip(forwards[::2], forwards[1::2]))


@pytest.mark.parametrize("flag, value", [
    ("--samples-per-class", "0"), ("--samples-per-class", "-1"),
    ("--variants", "0"), ("--variants", "-1"),
])
def test_eval_rejects_an_empty_few_shot_setting(tmp_path, data_dir, train_dir, monkeypatch,
                                                capsys, flag, value):
    # no samples per class scored every few-shot metric a perfect 1.0, and no
    # variants gave NaN means; the check comes before any file is read
    read, load_feature_csv = [], data.load_feature_csv
    monkeypatch.setattr(data, "load_feature_csv",
                        lambda *args, **kw: read.append(args[0]) or load_feature_csv(*args, **kw))
    assert main([
        "eval", "--checkpoint", best_pb_checkpoint(train_dir),
        "--train-csv", str(data_dir / "labeled_train.csv"),
        "--test-csv", str(data_dir / "labeled_test.csv"),
        "--out", str(tmp_path / "m"), flag, value,
    ]) == 2
    assert f"error: {flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not read
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("relabel, message", [
    (lambda train, test: (np.full_like(train, 3), test),
     "error: avg2 needs two training classes, got [3]"),
    (lambda train, test: (train, test + 1000),
     "error: avg2 has no pair to score: no test label is a training class"),
], ids=["one-class", "no-known-test-label"])
def test_eval_refuses_an_undefined_avg2(tmp_path, data_dir, train_dir, capsys, relabel, message):
    # avg2 averages over pairs of classes with a test point: with none it
    # was NaN, written as invalid JSON, and eval exited 0
    splits = [data.read_labeled_csv(data_dir / f"labeled_{s}.csv") for s in ("train", "test")]
    for split, y, name in zip(splits, relabel(splits[0].y, splits[1].y), ("train", "test")):
        data.save_labeled_csv(data.LabeledDataset(split.x, y), tmp_path / f"{name}.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "eval", "--checkpoint", best_pb_checkpoint(train_dir),
            "--train-csv", str(tmp_path / "train.csv"), "--test-csv", str(tmp_path / "test.csv"),
            "--out", str(tmp_path / "m"),
        ]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_eval_refuses_a_repeated_checkpoint(tmp_path, data_dir, train_dir, capsys):
    # results are keyed by path: the second entry overwrote the first, seeded
    # from its own position, and the file held one result
    best = json.loads((train_dir / "best.json").read_text())
    ckpt, other = sorted({entry["checkpoint"] for entry in best.values()})[:2]
    assert main([
        "eval", "--checkpoint", ckpt, other, ckpt,
        "--train-csv", str(data_dir / "labeled_train.csv"),
        "--test-csv", str(data_dir / "labeled_test.csv"), "--out", str(tmp_path / "m"),
    ]) == 2
    assert f"error: --checkpoint {ckpt} is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


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


def test_eval_refuses_a_non_finite_representation(tmp_path, data_dir, rng, capsys):
    # weights of 1e300 in two layers overflow the mean network's outputs: NaN scores
    # compared false and ranked every point's class first
    d = data.read_labeled_csv(data_dir / "labeled_train.csv").dim
    post, prior = network.init_network((d, 4, 3), 1e-3, rng)
    post.mu[:] = 1e300
    path = tmp_path / "huge.ckpt.json"
    network.save_checkpoint(str(path), network.Checkpoint(
        layer_sizes=[d, 4, 3], posterior=post, prior=prior, seed=0, epoch=0, config={},
    ))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([
            "eval", "--checkpoint", str(path),
            "--train-csv", str(data_dir / "labeled_train.csv"),
            "--test-csv", str(data_dir / "labeled_test.csv"),
            "--out", str(tmp_path / "m"),
        ]) == 2
    assert (f"error: {path}: the mean network's representation is not finite"
            in capsys.readouterr().err)
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("stats", [False, True], ids=["own-stats", "norm-stats"])
def test_eval_metrics_bytes_do_not_depend_on_the_twin(tmp_path, data_dir, train_dir, stats):
    bare = tmp_path / "bare"
    bare.mkdir()
    for split in ("labeled_train", "labeled_test"):
        (bare / f"{split}.csv").write_bytes((data_dir / f"{split}.csv").read_bytes())
    extra = ["--norm-stats", str(data_dir / "norm_stats.json")] if stats else []
    metrics = []
    for tag, src in (("twin", data_dir), ("parsed", bare)):
        assert main([
            "eval", "--checkpoint", best_pb_checkpoint(train_dir),
            "--train-csv", str(src / "labeled_train.csv"),
            "--test-csv", str(src / "labeled_test.csv"),
            "--out", str(tmp_path / tag), "--seed", "3", *extra,
        ]) == 0
        metrics.append((tmp_path / tag / "metrics.json").read_bytes())
    assert not (bare / "labeled_train.bin").exists()
    assert metrics[0] == metrics[1]


def test_eval_rejects_an_edited_csv_beside_its_twin(tmp_path, data_dir, train_dir, capsys):
    bad = corrupt_csv(data_dir / "labeled_train.csv", tmp_path / "labeled_train.csv", 7, 1, "nan")
    (tmp_path / "labeled_train.bin").write_bytes((data_dir / "labeled_train.bin").read_bytes())
    assert main([
        "eval", "--checkpoint", best_pb_checkpoint(train_dir),
        "--train-csv", bad, "--test-csv", str(data_dir / "labeled_test.csv"),
        "--out", str(tmp_path / "m"),
    ]) == 2
    assert f"{bad}:7: non-finite feature cell" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def eval_argv(train_csv, test_csv, out, *extra):
    return ["eval", "--checkpoint", *extra, "--train-csv", str(train_csv),
            "--test-csv", str(test_csv), "--out", str(out), "--seed", "3"]


def test_eval_hashes_the_csvs_beside_the_scoring(tmp_path, data_dir, train_dir, monkeypatch):
    # the CSVs are hashed once, on a thread of their own, and never parsed
    hashed, sha256s = [], data._sha256s
    monkeypatch.setattr(data, "_sha256s", lambda paths: hashed.append(
        (paths, threading.current_thread() is threading.main_thread())) or sha256s(paths))
    parses, parse = [], data._read_csv
    monkeypatch.setattr(data, "_read_csv", lambda *a, **kw: parses.append(a) or parse(*a, **kw))
    train, test = data_dir / "labeled_train.csv", data_dir / "labeled_test.csv"
    assert main(eval_argv(train, test, tmp_path / "m", best_pb_checkpoint(train_dir))) == 0
    assert hashed == [([str(train), str(test)], False)]
    assert parses == []


@pytest.mark.parametrize("split", ["train", "test"])
def test_eval_with_a_stale_twin_writes_the_parsed_bytes(tmp_path, data_dir, train_dir, split):
    # a row relabelled to a new class: the twin no longer pins the CSV, so
    # its rows are scored, then dropped, and the parse path writes what it
    # writes with no twin at all
    ckpt = best_pb_checkpoint(train_dir)
    csvs = {s: data_dir / f"labeled_{s}.csv" for s in ("train", "test")}
    for tag in ("stale", "bare"):
        (tmp_path / tag).mkdir()
        corrupt_csv(csvs[split], tmp_path / tag / f"labeled_{split}.csv", 4, -1, "99")
    stale = tmp_path / "stale" / f"labeled_{split}.bin"
    stale.write_bytes((data_dir / f"labeled_{split}.bin").read_bytes())
    written = []
    for tag in ("stale", "bare"):
        paths = {**csvs, split: tmp_path / tag / f"labeled_{split}.csv"}
        assert main(eval_argv(paths["train"], paths["test"], tmp_path / f"m-{tag}", ckpt)) == 0
        written.append([(tmp_path / f"m-{tag}" / name).read_bytes()
                        for name in ("metrics.json", "metrics.csv")])
    assert written[0] == written[1]


def test_eval_with_a_stale_twin_reports_the_csv_before_the_checkpoint(tmp_path, data_dir, capsys):
    # scored on the stale twin's rows, the missing checkpoint fails first;
    # that error is dropped with the rows, and the parse names the bad cell
    bad = corrupt_csv(data_dir / "labeled_train.csv", tmp_path / "labeled_train.csv", 7, 1, "nan")
    (tmp_path / "labeled_train.bin").write_bytes((data_dir / "labeled_train.bin").read_bytes())
    missing = str(tmp_path / "missing.ckpt.json")
    assert main(eval_argv(bad, data_dir / "labeled_test.csv", tmp_path / "m", missing)) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}:7: non-finite feature cell" in err and "missing" not in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("damage", ["missing", "directory"])
def test_eval_exits_2_on_an_unreadable_csv_beside_its_twin(tmp_path, data_dir, train_dir, capsys,
                                                           damage):
    csv = tmp_path / "labeled_train.csv"
    (tmp_path / "labeled_train.bin").write_bytes((data_dir / "labeled_train.bin").read_bytes())
    if damage == "directory":
        csv.mkdir()
    argv = eval_argv(csv, data_dir / "labeled_test.csv", tmp_path / "m",
                     best_pb_checkpoint(train_dir))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"error: file not found: {csv}" in err if damage == "missing"
            else f"Is a directory: '{csv}'" in err)
    assert not (tmp_path / "m").exists()


def test_eval_leaves_no_thread_behind(tmp_path, data_dir, train_dir):
    train, test = data_dir / "labeled_train.csv", data_dir / "labeled_test.csv"
    before = threading.active_count()
    assert main(eval_argv(train, test, tmp_path / "ok", best_pb_checkpoint(train_dir))) == 0
    assert threading.active_count() == before
    assert main(eval_argv(train, test, tmp_path / "bad", str(tmp_path / "none.json"))) == 2
    assert threading.active_count() == before


def corrupt_csv(src, dst, line, cell, value):
    rows = [r.split(",") for r in src.read_text().splitlines()]
    rows[line - 1][cell] = value
    dst.write_text("".join(",".join(r) + "\n" for r in rows))
    return str(dst)


@pytest.mark.parametrize("cell,value,fragment", [
    (1, "nan", ":7: non-finite feature cell"),
    (0, "1e400", ":7: non-finite feature cell"),
    (-1, "99999999999999999999", ":7: label outside the int64 range"),
])
def test_eval_rejects_bad_cells_with_their_line(tmp_path, data_dir, train_dir, capsys,
                                                cell, value, fragment):
    # a nan cell read without --norm-stats makes every score nan, which
    # avg2 counts as correct
    bad = corrupt_csv(data_dir / "labeled_train.csv", tmp_path / "bad.csv", 7, cell, value)
    assert main([
        "eval", "--checkpoint", best_pb_checkpoint(train_dir),
        "--train-csv", bad, "--test-csv", str(data_dir / "labeled_test.csv"),
        "--out", str(tmp_path / "m"),
    ]) == 2
    assert f"{bad}{fragment}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("which", ["train_csv", "test_csv"])
def test_files_kind_rejects_non_finite_cells(tmp_path, rng, capsys, which):
    spec = generative_spec("files", tmp_path, rng)
    spec[which] = corrupt_csv(
        tmp_path / f"src_{which[:-4]}.csv", tmp_path / "bad.csv", 3, 0, "-inf"
    )
    cfg = write_json(tmp_path / "g.json", {"dataset": spec})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "ds")]) == 2
    assert "bad.csv:3: non-finite feature cell" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dataset specs: unknown keys, wrong types, empty shapes


def write_sequence_corpus(tmp_path, rng, n_files=4, frames=6):
    manifest = {}
    for label in ("0", "1"):
        manifest[label] = []
        for i in range(n_files):
            path = tmp_path / f"c{label}_{i}.csv"
            path.write_text("".join(",".join(map(repr, row)) + "\n"
                                    for row in rng.normal(size=(frames, 2)).tolist()))
            manifest[label].append(str(path))
    return write_json(tmp_path / "corpus.json", manifest)


def test_gen_data_rejects_the_removed_same_class_negative_switch(tmp_path, capsys):
    with open(sequence_config(tmp_path)) as fh:
        doc = json.load(fh)
    doc["dataset"]["allow_same_class_negatives"] = False
    cfg = write_json(tmp_path / "g.json", doc)
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "seq")]) == 2
    err = capsys.readouterr().err
    assert "allow_same_class_negatives" in err and "synthetic-sequences" in err
    assert not (tmp_path / "seq").exists()


@pytest.mark.parametrize("kind", ["synthetic-iid", "synthetic-sequences", "files",
                                  "sequence-manifest", "manifests"])
def test_dataset_spec_rejects_a_key_its_kind_does_not_read(tmp_path, data_dir, rng, capsys,
                                                           kind):
    if kind == "sequence-manifest":
        spec = {"kind": kind, "manifest": write_sequence_corpus(tmp_path, rng),
                "first_steps": 5, "train_per_class": 3, "k": 2, "block_size": 2}
    elif kind == "manifests":
        spec = {"kind": kind, "train": str(data_dir / "train.json")}
    else:
        spec = generative_spec(kind, tmp_path, rng)
    assert cli._build_dataset(spec, 1)["train"]        # the spec as given builds
    misspelled = "m_tset" if kind == "synthetic-iid" else "n_valid_seqs"
    doc = {"dataset": {**spec, misspelled: 100},
           "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}]}
    cfg = write_json(tmp_path / "c.json", doc)
    command = "train" if kind == "manifests" else "gen-data"
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert misspelled in err and repr(kind) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sequence_manifest_rejects_a_negative_valid_count(tmp_path, rng, capsys):
    spec = {"kind": "sequence-manifest", "manifest": write_sequence_corpus(tmp_path, rng),
            "first_steps": 5, "train_per_class": 3, "valid_per_class": -1, "k": 2,
            "block_size": 2}
    cfg = write_json(tmp_path / "g.json", {"dataset": spec})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "valid_per_class" in err and "Traceback" not in err


def test_sequence_manifest_valid_split_holds_the_last_training_files(tmp_path, rng):
    spec = {"kind": "sequence-manifest", "manifest": write_sequence_corpus(tmp_path, rng),
            "first_steps": 5, "train_per_class": 3, "valid_per_class": 1, "k": 2,
            "block_size": 2}
    built = cli._DATASET_BUILDERS["sequence-manifest"](spec, 1)
    # per class two training files, one validation file and one test file of
    # five frames, each making 5 - 2 tuples; the labeled rows leave out valid
    assert (len(built["train"]), len(built["valid"])) == (2 * 2 * 3, 2 * 1 * 3)
    assert len(built["labeled_train"]) == 2 * 2 * 5 and len(built["labeled_test"]) == 2 * 5


@pytest.mark.parametrize("key, value, fragment", [
    ("k", 0, "k and block_size must be >= 1"),
    ("block_size", 0, "k and block_size must be >= 1"),
    ("m_train", 0, "holds no tuples"),
    ("m_train", None, "dataset.m_train"),
    ("separation", [1], "dataset.separation"),
    ("n_classes", 0, "dataset.n_classes"),
    ("dim", 0, "dataset.dim"),
])
def test_gen_data_rejects_an_unusable_dataset_value(tmp_path, capsys, key, value, fragment):
    doc = iid_config()
    doc["dataset"][key] = value
    cfg = write_json(tmp_path / "g.json", doc)
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# train configs of the wrong shape


def train_doc(data_dir):
    return {"dataset": {"kind": "manifests", "train": str(data_dir / "train.json")},
            "grid": [{"layer_sizes": [3, 4, 2], "k": 2, "block_size": 2, "epochs": 1}]}


@pytest.mark.parametrize("edit, fragment", [
    (lambda doc: [doc], "config must be a JSON object"),
    (lambda doc: {**doc, "grid": [5]}, "config.grid[0] must be a JSON object"),
    (lambda doc: {**doc, "cert_samples": None}, "config.cert_samples"),
    (lambda doc: {**doc, "grid": [{**doc["grid"][0], "layer_sizes": [3, 0, 2]}]},
     "layer_sizes must all be >= 1"),
])
def test_train_rejects_a_config_of_the_wrong_shape(tmp_path, data_dir, capsys, edit, fragment):
    cfg = write_json(tmp_path / "t.json", edit(train_doc(data_dir)))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key, value", [("gen-data", "sed", 3),
                                                 ("train", "critera", ["pb"])])
def test_a_config_key_no_command_reads_exits_two(tmp_path, data_dir, capsys, command, key, value):
    # a misspelt seed or criteria key would otherwise run with the default
    doc = iid_config() if command == "gen-data" else train_doc(data_dir)
    cfg = write_json(tmp_path / "c.json", {**doc, key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"neither gen-data nor train reads config key {key}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, where, key, value", [
    ("gen-data", "config", "seed", True),
    ("gen-data", "config", "seed", 3.7),
    ("gen-data", "config", "seed", "5"),
    ("gen-data", "dataset", "m_train", 10.9),
    ("gen-data", "dataset", "k", 2.0),
    ("train", "config", "seed", False),
    ("train", "config", "cert_samples", 2.9),
])
def test_a_config_value_that_is_not_a_json_integer_exits_two(tmp_path, data_dir, capsys,
                                                             command, where, key, value):
    # int() read these as seed 1, 3, 5 and 0, 10 tuples, k = 2 and 2 draws,
    # each with exit 0
    doc = iid_config() if command == "gen-data" else train_doc(data_dir)
    (doc if where == "config" else doc[where])[key] = value
    cfg = write_json(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{where}.{key} must be an integer, got {value!r}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("epochs", 1.5), ("batch_size", "10"), ("k", 2.0),
                                        ("seed", True)])
def test_a_grid_entry_value_that_is_not_a_json_integer_exits_two(tmp_path, data_dir, capsys,
                                                                 key, value):
    # epochs 1.5 and batch_size "10" ended in a traceback, k 2.0 trained, and
    # seed true trained and wrote a checkpoint before bound refused its seed
    doc = train_doc(data_dir)
    doc["grid"][0][key] = value
    cfg = write_json(tmp_path / "t.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config.grid[0]: {key} must be an integer, got {value!r}" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_select_is_not_a_command(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--runs", str(tmp_path / "runs.jsonl"), "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert "invalid choice: 'select'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed checkpoints and norm stats


@pytest.mark.parametrize("edit, fragment", [
    (lambda doc: {k: v for k, v in doc.items() if k != "mu_q"}, "checkpoint has no mu_q"),
    (lambda doc: {**doc, "mu_q": doc["mu_q"][:-3]}, "mu_q must be finite numbers of shape"),
    (lambda doc: {**doc, "layer_sizes": [3, 5, 3]}, "mu_q must be finite numbers of shape"),
    (lambda doc: {**doc, "log_sigma2_p": None}, "log_sigma2_p must be finite"),
    (lambda doc: {**doc, "seed": None}, "seed and epoch must be integers"),
    (lambda doc: [doc], "not a checkpoint file"),
    (lambda doc: {**doc, "config": [doc["config"]]}, "config must be a JSON object"),
])
def test_bound_and_eval_reject_a_malformed_checkpoint(tmp_path, data_dir, train_dir, capsys,
                                                      edit, fragment):
    doc = edit(json.loads(open(best_pb_checkpoint(train_dir)).read()))
    ckpt = write_json(tmp_path / "bad.ckpt.json", doc)
    assert main(["bound", "--checkpoint", ckpt, "--data", str(data_dir / "test.json"),
                 "--out", str(tmp_path / "b"), "--iid"]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: {fragment}" in err and "Traceback" not in err
    assert main(["eval", "--checkpoint", ckpt, "--train-csv", str(data_dir / "labeled_train.csv"),
                 "--test-csv", str(data_dir / "labeled_test.csv"),
                 "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: {fragment}" in err and "Traceback" not in err
    assert not (tmp_path / "b").exists() and not (tmp_path / "e").exists()


@pytest.mark.parametrize("stats, fragment", [
    ({"mean": [0.0, 0.0, 0.0]}, "norm stats need mean and std"),
    ({"mean": [0.0, 0.0, 0.0], "std": [1.0, 0.0, 1.0]}, "std > 0"),
    ({"mean": [0.0, 0.0], "std": [1.0, 1.0, 1.0]}, "of one length"),
    ({"mean": [0.0, 0.0], "std": [1.0, 1.0]}, "3 feature columns, norm stats for 2"),
])
def test_eval_rejects_unusable_norm_stats(tmp_path, data_dir, train_dir, capsys, stats,
                                          fragment):
    path = write_json(tmp_path / "stats.json", stats)
    assert main(["eval", "--checkpoint", best_pb_checkpoint(train_dir),
                 "--train-csv", str(data_dir / "labeled_train.csv"),
                 "--test-csv", str(data_dir / "labeled_test.csv"), "--norm-stats", path,
                 "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not (tmp_path / "e").exists()

