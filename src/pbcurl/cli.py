"""Command line entry point.

Subcommands cover the full pipeline: gen-data builds dataset artifacts,
train runs the hyperparameter grid under the selection criteria, bound
certifies a checkpoint on a dataset, eval scores representations with mean
classifiers, and verify runs the oracle suite. Exit codes: 0 success, 2
validation error or a file that cannot be read or written, 3 numeric abort.
"""

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import time

import numpy as np
import numpy.random  # numpy 2 loads it on first use; every command seeds from it

from . import data, evaluation, network, oracle, training


class ConfigError(ValueError):
    """Bad configuration or arguments; maps to exit code 2."""


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _load_json(path, what):
    """The JSON object in path; any other document is a ConfigError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return doc


# every top-level key gen-data or train reads; any other key exits 2
_CONFIG_KEYS = {"dataset", "seed", "out_dir", "grid", "criteria", "cert_samples"}


def _load_config(path):
    """The experiment config in path, which gen-data and train share."""
    cfg = _load_json(path, "config")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"neither gen-data nor train reads config key {', '.join(unknown)}")
    return cfg


def _require(doc, key, where):
    if key not in doc:
        raise ConfigError(f"{where}.{key} is required")
    return doc[key]


def _read(doc, key, cast, default=None, where="dataset"):
    """where.key as cast: default when absent, required when that is None.

    cast int takes a JSON integer and nothing else: not 3.7, "5" or true,
    which int() would turn into 3, 5 and 1. cast float takes what float() does.
    """
    raw = _require(doc, key, where) if default is None else doc.get(key, default)
    if cast is int:
        if type(raw) is not int:
            raise ConfigError(f"{where}.{key} must be an integer, got {raw!r}")
        return raw
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key} must be a number, got {raw!r}") from None


def _count(spec, key, default=None):
    """dataset.key as a count >= 0, read as _read does."""
    value = _read(spec, key, int, default)
    if value < 0:
        raise ConfigError(f"dataset.{key} must be >= 0, got {value}")
    return value


def _resolve_seed(explicit, cfg):
    """The --seed flag, else the config's seed, an integer (0 when absent)."""
    return _read(cfg, "seed", int, 0, "config") if explicit is None else explicit


def _spawn_rngs(seed, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# dataset construction shared by gen-data and train
#
# A builder returns raw splits: "train" and optionally "valid" and "test"
# tuple sets, plus "labeled_train"/"labeled_test" rows. _build_dataset then
# standardises every tuple set by the train split's feature statistics.


def _gaussian_model(spec, r_model):
    n_classes, dim = _read(spec, "n_classes", int), _read(spec, "dim", int)
    for key, value in (("n_classes", n_classes), ("dim", dim)):
        if value < 1:
            raise ConfigError(f"dataset.{key} must be >= 1, got {value}")
    separation, std = _read(spec, "separation", float, 1.0), _read(spec, "std", float, 1.0)
    if not 0.0 <= separation < math.inf:      # NaN fails too
        raise ConfigError(f"dataset.separation must be finite and >= 0, got {separation}")
    if not 0.0 < std < math.inf:
        raise ConfigError(f"dataset.std must be finite and > 0, got {std}")
    return data.random_gaussian_model(n_classes, dim, separation, std, r_model)


def _build_synthetic_iid(spec, seed):
    sizes = {
        "train": _count(spec, "m_train"),
        "valid": _count(spec, "m_valid", 0),
        "test": _count(spec, "m_test", 0),
        "labeled_train": _count(spec, "n_labeled_train", 0),
        "labeled_test": _count(spec, "n_labeled_test", 0),
    }
    k, block = _read(spec, "k", int), _read(spec, "block_size", int, 1)

    r_model, *rngs = _spawn_rngs(seed, 6)
    model = _gaussian_model(spec, r_model)
    out = {}
    for (name, n), rng in zip(sizes.items(), rngs):
        if not n and name != "train":
            continue
        if name.startswith("labeled"):
            out[name] = data.sample_labeled(model, n, rng)
        else:
            out[name] = data.sample_contrastive_iid(model, n, k, block, rng)
    return out


def _build_synthetic_sequences(spec, seed):
    length = _count(spec, "length")
    counts = {
        "train": _count(spec, "n_train_seq_per_class"),
        "valid": _count(spec, "n_valid_seq_per_class", 0),
        "test": _count(spec, "n_test_seq_per_class", 0),
    }
    k, block = _read(spec, "k", int), _read(spec, "block_size", int, 1)
    phi = _read(spec, "ar_coeff", float, 0.7)
    if not -1.0 <= phi <= 1.0:      # NaN fails too
        raise ConfigError(f"dataset.ar_coeff must lie in [-1, 1], got {phi}")

    r_model, *rngs = _spawn_rngs(seed, 7)
    model = _gaussian_model(spec, r_model)
    out = {}
    for (name, n), r_seq, r_tuples in zip(counts.items(), rngs[:3], rngs[3:]):
        if not n and name != "train":
            continue
        seqs, labels = data.gen_sequences(model, n, length, phi, r_seq)
        out[name] = data.build_noniid_from_sequences(seqs, labels, k, block, r_tuples)
        if name != "valid":
            out["labeled_" + name] = data.frames_as_labeled(seqs, labels)
    return out


def _build_from_files(spec, seed):
    train_csv = _require(spec, "train_csv", "dataset")
    sizes = {"train": _count(spec, "m_train"), "valid": _count(spec, "m_valid", 0)}
    k, block = _read(spec, "k", int), _read(spec, "block_size", int, 1)

    out = {"labeled_train": data.read_labeled_csv(train_csv)}
    for (name, m), rng in zip(sizes.items(), _spawn_rngs(seed, 2)):
        if m or name == "train":
            out[name] = data.build_iid_from_labeled(out["labeled_train"], m, k, block, rng)
    if "test_csv" in spec:
        out["labeled_test"] = data.read_labeled_csv(spec["test_csv"])
    return out


def _build_from_sequence_manifest(spec, seed):
    manifest = _require(spec, "manifest", "dataset")
    first_steps = _read(spec, "first_steps", int)
    train_per_class = _read(spec, "train_per_class", int)
    k, block = _read(spec, "k", int), _read(spec, "block_size", int, 1)
    tuples = spec.get("tuples", "windowed")
    if tuples not in ("windowed", "iid"):
        raise ConfigError("dataset.tuples must be 'windowed' or 'iid'")
    if isinstance(manifest, str):
        manifest = _load_json(manifest, "sequence manifest")
    splits = data.prep_sequence_corpus(manifest, first_steps, train_per_class,
                                       _read(spec, "valid_per_class", int, 0))

    out = {"labeled_train": data.frames_as_labeled(*splits["train"])}
    if splits["test"][0]:
        out["labeled_test"] = data.frames_as_labeled(*splits["test"])
    for name, rng in zip(("train", "valid"), _spawn_rngs(seed, 2)):
        seqs, labels = splits[name]
        if not seqs:
            continue
        if tuples == "windowed":
            out[name] = data.build_noniid_from_sequences(seqs, labels, k, block, rng)
        else:
            m_train = _count(spec, "m_train")
            m = m_train if name == "train" else _count(spec, "m_valid", max(1, m_train // 10))
            out[name] = data.build_iid_from_labeled(
                data.frames_as_labeled(seqs, labels), m, k, block, rng
            )
    return out


_DATASET_BUILDERS = {
    "synthetic-iid": _build_synthetic_iid,
    "synthetic-sequences": _build_synthetic_sequences,
    "files": _build_from_files,
    "sequence-manifest": _build_from_sequence_manifest,
}
# every key some setting of a kind reads; any other key exits 2
_DATASET_KEYS = {kind: {"kind", *keys.split()} for kind, keys in {
    "synthetic-iid": "k block_size n_classes dim separation std m_train m_valid m_test "
                     "n_labeled_train n_labeled_test",
    "synthetic-sequences": "k block_size n_classes dim separation std length ar_coeff "
                           "n_train_seq_per_class n_valid_seq_per_class n_test_seq_per_class",
    "files": "k block_size train_csv test_csv m_train m_valid",
    "sequence-manifest": "k block_size manifest first_steps train_per_class valid_per_class "
                         "tuples m_train m_valid",
    "manifests": "train valid",
}.items()}


def _build_dataset(spec, seed):
    if not isinstance(spec, dict):
        raise ConfigError("dataset must be a JSON object")
    kind = _require(spec, "kind", "dataset")
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}, got {kind!r}")
    unknown = sorted(set(spec) - _DATASET_KEYS[kind])
    if unknown:
        raise ConfigError(f"dataset kind {kind!r} reads no key {', '.join(unknown)}")
    if kind == "manifests":
        out = {"train": data.load_contrastive(_require(spec, "train", "dataset"))}
        if "valid" in spec:
            out["valid"] = data.load_contrastive(spec["valid"])
        return out
    out = _DATASET_BUILDERS[kind](spec, seed)
    stats = data.NormStats.from_data(out["train"].features)
    for name in ("train", "valid", "test"):
        if name in out:
            x = out[name].features
            # a split that owns its matrix is normalised in place; the files
            # kind's tuple sets share the labeled pool's, which stays raw
            others = [v.x if isinstance(v, data.LabeledDataset) else v.features
                      for key, v in out.items() if key != name]
            if x.flags.owndata and not any(np.may_share_memory(x, o) for o in others):
                x -= stats.mean
                x /= stats.std
            else:
                out[name].features = stats.apply(x)
    out["stats"] = stats
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args):
    cfg = _load_config(args.config)
    spec = _require(cfg, "dataset", "config")
    seed = _resolve_seed(args.seed, cfg)
    out_dir = args.out or cfg.get("out_dir")
    if not out_dir:
        raise ConfigError("--out (or config out_dir) is required")
    kind = _require(spec, "kind", "dataset")
    if kind == "manifests":
        raise ConfigError("gen-data needs a generative dataset.kind, not 'manifests'")

    built = _build_dataset(spec, seed)
    os.makedirs(out_dir, exist_ok=True)

    artifacts, hashes = {}, {}
    for name in ("train", "valid", "test"):
        if name in built:
            path = os.path.join(out_dir, f"{name}.json")
            data.save_contrastive(built[name], path)
            artifacts[name] = path
            hashes[name] = data.dataset_hash(built[name])
    for name in ("labeled_train", "labeled_test"):
        if name in built:
            path = os.path.join(out_dir, f"{name}.csv")
            data.save_labeled_csv(built[name], path)
            artifacts[name] = path
            artifacts[name + "_twin"] = data.labeled_twin_path(path)
    if "stats" in built:
        path = os.path.join(out_dir, "norm_stats.json")
        _write_json(path, built["stats"].to_dict())
        artifacts["norm_stats"] = path

    summary = {
        "format": "pbcurl-dataset-v1",
        "kind": kind,
        "seed": seed,
        "artifacts": artifacts,
        "hashes": hashes,
        "spec": spec,
    }
    _write_json(os.path.join(out_dir, "dataset.json"), summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _check_grid_against_data(cfg, ds):
    if cfg.layer_sizes[0] != ds.dim:
        raise ConfigError(
            f"layer_sizes[0] = {cfg.layer_sizes[0]} does not match dataset dim {ds.dim}"
        )
    if cfg.k != ds.k:
        raise ConfigError(f"config k = {cfg.k} does not match dataset k = {ds.k}")
    if cfg.block_size != ds.block_size:
        raise ConfigError(
            f"config block_size = {cfg.block_size} does not match "
            f"dataset block_size = {ds.block_size}"
        )


def _cmd_train(args):
    cfg = _load_config(args.config)
    seed = _resolve_seed(args.seed, cfg)
    out_dir = args.out or cfg.get("out_dir")
    if not out_dir:
        raise ConfigError("--out (or config out_dir) is required")
    cert_samples = _read(cfg, "cert_samples", int, training.CERT_SAMPLES, "config")
    if cert_samples < 1:
        raise ConfigError("config.cert_samples must be >= 1")

    built = _build_dataset(_require(cfg, "dataset", "config"), seed)
    train_ds = built["train"]
    valid_ds = built.get("valid")

    grid_doc = _require(cfg, "grid", "config")
    if not isinstance(grid_doc, list) or not grid_doc:
        raise ConfigError("config.grid must be a non-empty list of training configs")
    configs = []
    for i, entry in enumerate(grid_doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"config.grid[{i}] must be a JSON object, got {entry!r}")
        entry = {"seed": seed, **entry}
        try:
            tc = training.TrainConfig.from_dict(entry)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config.grid[{i}]: {exc}") from None
        _check_grid_against_data(tc, train_ds)
        configs.append(tc)

    criteria = cfg.get("criteria")
    if criteria is None:
        criteria = list(training.CRITERIA) if valid_ds is not None else ["pb"]
    training.grid_search(configs, criteria, train_ds, valid_ds, out_dir, cert_samples=cert_samples)
    with open(os.path.join(out_dir, "best.json")) as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_bound(args):
    ds = functools.reduce(data.concat_contrastive, [data.load_contrastive(p) for p in args.data])
    if args.T is not None:
        if args.T < 0:
            raise ConfigError(f"--T must be >= 0, got {args.T}")
        if args.T < ds.dependency_t:
            # a certificate at a smaller T than the tuples have would not hold
            raise ConfigError(f"--T {args.T} is below the data's dependency_t = "
                              f"{ds.dependency_t}: --T may raise T, not lower it")
        ds.dependency_t = int(args.T)
    if args.risk == "loss" and args.iid and args.lam is None:
        raise ConfigError("--risk loss with --iid needs --lam")
    report = training.certify_checkpoint(
        args.checkpoint, ds, objective="noniid" if args.noniid else "iid",
        n_samples=args.samples, risk=args.risk, seed=args.seed, lam=args.lam,
    )
    report.provenance["dataset"] = list(args.data)
    if not args.deterministic:
        report.provenance["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    bound_id = args.id      # default: the checkpoint's file name less .ckpt.json or .json
    if bound_id is None:
        bound_id = re.sub(r"(\.ckpt)?\.json$", "", os.path.basename(args.checkpoint))
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, f"bound_{bound_id}.json"), report.to_dict())
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _eval_results(args, stats, pins):
    """{checkpoint: metrics} of eval, its labeled CSVs read with pins (data.read_labeled_csv)."""
    labeled_train, stats = data.load_feature_csv(args.train_csv, stats=stats, pins=pins)
    labeled_test, _ = data.load_feature_csv(args.test_csv, stats=stats, pins=pins)

    results = {}
    for i, ckpt_path in enumerate(args.checkpoint):
        ckpt = network.load_checkpoint(ckpt_path)
        network.check_input_width(ckpt_path, ckpt, labeled_train.dim)
        layer_sizes = tuple(ckpt.layer_sizes)
        ws = network.chunk_workspace(layer_sizes, len(labeled_train), len(labeled_test))
        reps_train, reps_test = (      # the MAP network: the posterior mean
            data.LabeledDataset(network.forward(layer_sizes, ckpt.posterior.mu, split.x, ws=ws),
                                split.y)
            for split in (labeled_train, labeled_test)
        )
        # a NaN score compares false, so it would rank as correct
        if not (np.isfinite(reps_train.x).all() and np.isfinite(reps_test.x).all()):
            raise ValueError(f"{ckpt_path}: the mean network's representation is not finite")
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
        results[ckpt_path] = evaluation.evaluate_representation(
            reps_train, reps_test, rng,
            samples_per_class=args.samples_per_class, n_variants=args.variants,
        )
    return results


def _cmd_eval(args):
    for flag, value in (("--samples-per-class", args.samples_per_class),
                        ("--variants", args.variants)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    repeated = [path for k, path in enumerate(args.checkpoint) if path in args.checkpoint[:k]]
    if repeated:     # results are keyed by path: a repeat would overwrite the first
        raise ConfigError(f"--checkpoint {repeated[0]} is given more than once")
    stats = None
    if args.norm_stats:
        stats = data.NormStats.from_dict(_load_json(args.norm_stats, "norm stats"))
    # the CSVs' pins are checked on a thread while the checkpoints are scored
    results = data.with_pinned_twins([args.train_csv, args.test_csv],
                                     functools.partial(_eval_results, args, stats))

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "metrics.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "metric", "value"])
        for ckpt_path, metrics in results.items():
            for name in sorted(metrics):
                writer.writerow([ckpt_path, name, repr(float(metrics[name]))])
    _write_json(os.path.join(args.out, "metrics.json"), results)
    print(json.dumps(results, sort_keys=True))
    return 0


def _cmd_verify(args):
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = int(args.seed)
    verdict = oracle.run_verify_suite(**kwargs)
    text = json.dumps(verdict, indent=2, sort_keys=True)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "verify.json"), verdict)
    return 0 if verdict["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pbcurl",
        description="PAC-Bayes bound training and certification for contrastive "
        "representation learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate dataset artifacts")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run the config grid under selection criteria")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bound", help="certify a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, nargs="+",
                   help="contrastive manifest(s); several are concatenated")
    p.add_argument("--out", required=True)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--iid", action="store_true", help="KL-based certificates")
    kind.add_argument("--noniid", action="store_true", help="chi-square certificates")
    p.add_argument("--T", type=int,
                   help="dependency range (non-iid): raises the data's T, never lowers it")
    p.add_argument("--risk", choices=("zero-one", "loss"), default="zero-one")
    p.add_argument("--lam", type=float, help="lambda for the iid loss certificate")
    p.add_argument("--samples", type=int, default=training.CERT_SAMPLES,
                   help="posterior draws for the risk")
    p.add_argument("--id", help="report id (bound_<id>.json); default: checkpoint stem")
    p.add_argument("--seed", type=int, help="override the risk-estimate seed")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamps so identical runs are byte-identical")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("eval", help="mean-classifier metrics for checkpoints")
    p.add_argument("--checkpoint", required=True, nargs="+")
    p.add_argument("--train-csv", required=True, dest="train_csv")
    p.add_argument("--test-csv", required=True, dest="test_csv")
    p.add_argument("--norm-stats", dest="norm_stats",
                   help="stats JSON from gen-data; default: compute from train CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--samples-per-class", type=int, default=5, dest="samples_per_class")
    p.add_argument("--variants", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run the oracle check suite")
    p.add_argument("--out", help="directory for verify.json")
    p.add_argument("--seed", type=int, help="override the frozen suite seed")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except training.NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
