"""Downstream evaluation: mean classifiers on frozen representations.

The classifier for class c is the average representation of its training
points; prediction is the inner product argmax. The classifier functions take
LabeledDatasets of representations, the network applied once to each split.
Deterministic metrics use the posterior mean network; posterior risks are
Monte Carlo averages over weight draws.
"""

from dataclasses import dataclass

import numpy as np

from . import data, losses, network


@dataclass
class MeanClassifier:
    classes: np.ndarray    # (C,) label values, ascending
    means: np.ndarray      # (C, rep_dim)


def build_mean_classifier(reps, samples_per_class=None, rng=None):
    """Average the representations of each class's training points.

    With samples_per_class set, a random subset of that size per class is
    used (all points when a class has fewer).
    """
    classes = reps.classes
    means = np.empty((classes.size, reps.dim))
    for i, c in enumerate(classes):
        idx = np.nonzero(reps.y == c)[0]
        if samples_per_class is not None and idx.size > samples_per_class:
            idx = rng.choice(idx, size=samples_per_class, replace=False)
        means[i] = reps.x[idx].mean(axis=0)
    return MeanClassifier(classes=classes, means=means)


def avg2_accuracy(mc, reps):
    """One minus the mean binary risk over unordered class pairs.

    For a pair (c+, c-) the classifier is sign((mu_c+ - mu_c-) . f(x)); a
    zero score counts as correct.
    """
    scores = reps.x @ mc.means.T                     # (n, C)
    risks = []
    pos = {c: np.nonzero(reps.y == c)[0] for c in mc.classes}
    for i in range(mc.classes.size):
        for jj in range(i + 1, mc.classes.size):
            idx_i, idx_j = pos[mc.classes[i]], pos[mc.classes[jj]]
            if idx_i.size == 0 and idx_j.size == 0:
                continue
            g_i = scores[idx_i, i] - scores[idx_i, jj]   # should be > 0
            g_j = scores[idx_j, i] - scores[idx_j, jj]   # should be < 0
            errs = int(np.sum(g_i < 0.0)) + int(np.sum(g_j > 0.0))
            risks.append(errs / (idx_i.size + idx_j.size))
    return 1.0 - float(np.mean(risks))


def topk_accuracy(mc, reps, top_k):
    """Fraction of points whose label is among the top_k scoring classes.

    Score ties resolve toward the lower class index (stable ordering).
    """
    scores = reps.x @ mc.means.T
    top_k = min(top_k, mc.classes.size)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :top_k]
    top_labels = mc.classes[order]
    hits = np.any(top_labels == reps.y[:, None], axis=1)
    return float(np.mean(hits))


def evaluate_representation(reps_train, reps_test, rng, samples_per_class=5, n_variants=5):
    """Mean-classifier metric table for one frozen representation.

    Emits the full-train classifier metrics (avg2, top1, top5) and the
    few-shot variant: samples_per_class training points per class, metrics
    averaged over n_variants independent draws.
    """
    mc = build_mean_classifier(reps_train)
    out = {
        "avg2": avg2_accuracy(mc, reps_test),
        "top1": topk_accuracy(mc, reps_test, 1),
        "top5": topk_accuracy(mc, reps_test, 5),
    }
    few = {"avg2": [], "top1": [], "top5": []}
    for _ in range(n_variants):
        mc_f = build_mean_classifier(reps_train, samples_per_class=samples_per_class, rng=rng)
        few["avg2"].append(avg2_accuracy(mc_f, reps_test))
        few["top1"].append(topk_accuracy(mc_f, reps_test, 1))
        few["top5"].append(topk_accuracy(mc_f, reps_test, 5))
    tag = f"mu{samples_per_class}"
    for key, vals in few.items():
        out[f"{tag}_{key}"] = float(np.mean(vals))
    return out


def tuple_risks(out, ds, kind, loss_kind):
    """Per-tuple risk of ds, given out = the network applied to ds.features.

    Computed in chunks of tuples that span about network.CHUNK_ROWS rows: each
    chunk's output rows are stacked in one reused buffer and its margins
    computed in another, into one (m,) array. Callers average it in one
    np.mean: averaging chunk means would round differently.
    """
    per_tuple = 1 + ds.block_size * (1 + ds.k)
    chunks = network.row_chunks(len(ds), max(1, network.CHUNK_ROWS // per_tuple))
    tallest = chunks[-1][1] - chunks[-1][0]
    rows = np.empty((tallest * per_tuple, out.shape[1]))
    diff = np.empty((tallest, ds.k, out.shape[1]))
    risks = np.empty(len(ds))
    for lo, hi in chunks:
        batch = data.take_tuples(
            out, ds.anchors[lo:hi], ds.positives[lo:hi], ds.negatives[lo:hi], rows
        )
        margins = losses.contrastive_margins(*batch, diff[: hi - lo])
        risks[lo:hi] = (losses.loss_value(margins, loss_kind) if kind == "loss"
                        else losses.zero_one_risk(margins))
    return risks


def mc_posterior_risk(layer_sizes, post, ds, n_samples, kind, loss_kind, rng):
    """Posterior-expected dataset risk, Monte Carlo over weight draws.

    kind "loss" evaluates the configured tuple loss, "zero-one" the ranking
    error with ties counted correct. The feature matrix is pushed through the
    network once per draw, in row chunks into one output buffer. Returns
    (mean, per-draw array).
    """
    if kind not in ("loss", "zero-one"):
        raise ValueError(f"unknown risk kind: {kind!r}")
    vals = np.empty(n_samples)
    out = np.empty((len(ds.features), layer_sizes[-1]))
    for s in range(n_samples):
        eps = network.sample_eps(post.n_params, rng)
        w = network.sample_weights(post, eps)
        network.forward(layer_sizes, w, ds.features, out=out)
        vals[s] = np.mean(tuple_risks(out, ds, kind, loss_kind))
    return float(np.mean(vals)), vals
