"""Downstream evaluation: mean classifiers on frozen representations.

The classifier for class c is the average representation of its training
points; prediction is the inner product argmax. The classifier functions take
LabeledDatasets of representations, the network applied once to each split.
Deterministic metrics use the posterior mean network; posterior risks are
Monte Carlo averages over weight draws.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import data, losses, network


@dataclass
class MeanClassifier:
    classes: np.ndarray    # (C,) label values, ascending
    means: np.ndarray      # (C, rep_dim)


def _groups(y):
    """The label values of y, ascending, and the positions in y of each,
    ascending: np.nonzero(y == c)[0] for every c, from one np.unique and one
    stable argsort of the class indices (a radix sort in their smallest type).
    """
    classes, cls, counts = np.unique(y, return_inverse=True, return_counts=True)
    order = np.argsort(cls.astype(np.min_scalar_type(classes.size)), kind="stable")
    return classes, np.split(order, np.cumsum(counts)[:-1])


def _classifier(reps, classes, groups, samples_per_class=None, rng=None):
    means = np.empty((classes.size, reps.dim))
    for i, idx in enumerate(groups):
        if samples_per_class is not None and idx.size > samples_per_class:
            idx = rng.choice(idx, size=samples_per_class, replace=False)
        means[i] = reps.x[idx].mean(axis=0)
    return MeanClassifier(classes=classes, means=means)


def build_mean_classifier(reps, samples_per_class=None, rng=None):
    """Average the representations of each class's training points.

    With samples_per_class set, a random subset of that size per class is
    used (all points when a class has fewer).
    """
    return _classifier(reps, *_groups(reps.y), samples_per_class, rng)


def _scorer(classes, reps):
    """score(mc) of any classifier over classes on reps: its avg2 and, per
    point, the rank of its class (inf for a label not among classes).

    What depends on reps alone is made once: each point's class index, whether
    its class is known, the classes that precede it and its row of (C, C)
    cells. Score ties rank the lower class index first: the rank of class c is
    #(s_o > s_c) + #(s_o == s_c and o < c). A classifier costs one (n, C)
    comparison s_o > s_c, which feeds the rank and avg2: a point of class c
    errs against class o iff s_c - s_o < 0, the same predicate, so a bincount
    of its cells sums each class's errors into one (C, C) count.
    """
    n_cls = classes.size
    cls = np.minimum(np.searchsorted(classes, reps.y), n_cls - 1)
    known = classes[cls] == reps.y
    if n_cls < 2 or not known.any():
        raise ValueError(f"avg2 needs two training classes, got {classes.tolist()}" if n_cls < 2
                         else "avg2 has no pair to score: no test label is a training class")
    lower = np.arange(n_cls) < cls[:, None]
    cells = np.where(known, cls, n_cls)[:, None] * n_cls + np.arange(n_cls)  # unknown: row C
    count = np.bincount(cls[known], minlength=n_cls)
    i, j = np.triu_indices(n_cls, 1)      # i < j, row-major: np.mean's rounding depends on it
    size = count[i] + count[j]
    seen = size > 0

    def score(mc):
        scores = reps.x @ mc.means.T
        own = scores[np.arange(len(cls)), cls][:, None]
        beats = scores > own
        err = np.bincount(cells[beats], minlength=(n_cls + 1) * n_cls).reshape(-1, n_cls)
        beats |= (scores == own) & lower
        rank = beats @ np.ones(n_cls)
        rank[~known] = np.inf
        return 1.0 - float(np.mean((err[i, j] + err[j, i])[seen] / size[seen])), rank

    return score


def _topk(rank, top_k):
    return float(np.mean(rank < top_k))


def avg2_accuracy(mc, reps):
    """One minus the mean binary risk over unordered class pairs.

    For a pair (c+, c-) the classifier is sign((mu_c+ - mu_c-) . f(x)); a
    zero score counts as correct. A pair with no test point is left out.
    """
    return _scorer(mc.classes, reps)(mc)[0]


def topk_accuracy(mc, reps, top_k):
    """Fraction of points whose label is among the top_k scoring classes,
    score ties resolved toward the lower class index (stable ordering)."""
    return _topk(_scorer(mc.classes, reps)(mc)[1], top_k)


def evaluate_representation(reps_train, reps_test, rng, samples_per_class=5, n_variants=5):
    """Mean-classifier metric table for one frozen representation.

    Emits the full-train classifier metrics (avg2, top1, top5) and the
    few-shot variant: samples_per_class training points per class, metrics
    averaged over n_variants independent draws. The training labels are
    grouped and the test split's arrays made once, for all 1 + n_variants
    classifiers. Raises ValueError when avg2 is undefined: fewer than two
    training classes, or no test label among them.
    """
    classes, groups = _groups(reps_train.y)
    score = _scorer(classes, reps_test)

    def metrics(**few_shot):
        avg2, rank = score(_classifier(reps_train, classes, groups, **few_shot))
        return {"avg2": avg2, "top1": _topk(rank, 1), "top5": _topk(rank, 5)}

    out = metrics()
    few = [metrics(samples_per_class=samples_per_class, rng=rng) for _ in range(n_variants)]
    for key in list(out):
        out[f"mu{samples_per_class}_{key}"] = float(np.mean([f[key] for f in few]))
    return out


def _streams(ds):
    """Whether draw_risks forwards each chunk's gathered input rows.

    Its tuples must reference no more rows than the matrix has, so that
    forwarding the gathered rows costs no more than forwarding the matrix:
    tuples that share rows (sequence windows) take the whole-matrix path.
    Either way the path, and so the bits, depend on the data alone.
    """
    refs = len(ds) * data.TupleBatch.rows_per_tuple(ds.k, ds.block_size)
    return refs <= len(ds.features)


def tuple_risks(layer_sizes, w, ds, kind, loss_kind):
    """(m,) per-tuple risks of ds under flat weights w: draw_risks for one w."""
    return draw_risks(layer_sizes, [w], ds, kind, loss_kind)[0]


# posterior draws a streamed chunk scores together: one margin and one risk
# pass per block, not per draw
DRAW_BLOCK = 5
# rows a whole-matrix chunk of tuples stacks. It gathers output rows, not
# inputs, and each chunk costs a fixed amount of work: 10 draws over 4.3k
# tuples of 4.5k rows took 30 % longer in chunks of 1,024 rows
SCORE_ROWS = 2048


def draw_risks(layer_sizes, weights, ds, kind, loss_kind, jobs=()):
    """(len(weights), m) per-tuple risks of ds, one row per flat weight vector.

    Computed in chunks of tuples that span about network.CHUNK_ROWS rows when
    streamed, SCORE_ROWS otherwise; callers average a row in one np.mean, as
    averaging chunk means would round differently. Each weight vector is
    packed once. When _streams(ds), a job takes one chunk: it gathers the
    chunk's input rows once into a reused buffer and loads them into a
    forward-only workspace. Then every block of DRAW_BLOCK weight vectors
    forwards them while they are in cache, into one (draws, rows, d_out)
    buffer, and one margin and one risk pass cover the block. Otherwise a job
    takes one draw: it forwards ds.features once into a reused buffer,
    through one forward-only workspace, and scores each chunk's stacked
    output rows. jobs, callables that write their own results, run in the
    same pass ahead of these. network.run_jobs hands each job to the first
    free worker, this process or a forked one; a worker makes its buffers on
    its first Monte Carlo job, and the jobs write disjoint slices of one risk
    matrix in shared memory. Each draw runs the same operations on the same
    rows on either path, in any block and on any worker, so all give the
    same bits.
    """
    per_tuple = data.TupleBatch.rows_per_tuple(ds.k, ds.block_size)
    streams = _streams(ds)
    chunk_rows = network.CHUNK_ROWS if streams else SCORE_ROWS
    chunks = network.row_chunks(len(ds), max(1, chunk_rows // per_tuple))
    tallest = chunks[-1][1] - chunks[-1][0]
    d_out = layer_sizes[-1]
    block = min(DRAW_BLOCK, len(weights)) if streams else 1
    risks = network.shared_array(len(weights) * len(ds)).reshape(len(weights), len(ds))
    mats = [network.pack(layer_sizes, w) for w in weights]

    @functools.cache
    def buffers():
        """This process's row, margin and output buffers and its workspace."""
        rows = np.empty((tallest * per_tuple, ds.dim if streams else d_out))
        diff = np.empty(block * tallest * ds.k * d_out)
        if streams:
            return rows, diff, np.empty(block * len(rows) * d_out), network.Workspace(
                layer_sizes, len(rows), forward_only=True)
        return rows, diff, np.empty((len(ds.features), d_out)), network.chunk_workspace(
            layer_sizes, len(ds.features))

    def take(source, lo, hi, rows):
        return data.take_tuples(
            source, ds.anchors[lo:hi], ds.positives[lo:hi], ds.negatives[lo:hi], rows
        )

    def score(s, batch, lo, hi, diff):
        """Risks of tuples lo:hi under draws s, s + 1, ...: batch is the TupleBatch
        of their outputs, with a leading draw axis unless it holds one draw."""
        shape = batch[0].shape[:-1] + (ds.k, d_out)         # ([draws,] n, k, d_out)
        margins = losses.contrastive_margins(*batch, diff[: math.prod(shape)].reshape(shape))
        risk = (losses.loss_value(margins, loss_kind) if kind == "loss"
                else losses.zero_one_risk(margins)).reshape(-1, hi - lo)
        risks[s : s + len(risk), lo:hi] = risk

    def chunk(lo, hi):
        rows, diff, outs, ws = buffers()
        x = ws.load(take(ds.features, lo, hi, rows).rows)
        for s in range(0, len(mats), DRAW_BLOCK):
            draws = mats[s : s + DRAW_BLOCK]
            out = outs[: len(draws) * len(x) * d_out].reshape(len(draws), len(x), d_out)
            for j, w in enumerate(draws):
                network.forward_cached(layer_sizes, w, x, ws, out[j])
            score(s, data.TupleBatch(out, hi - lo, ds.k, ds.block_size), lo, hi, diff)

    def draw(s):
        rows, diff, out, ws = buffers()
        source = network.forward(layer_sizes, mats[s], ds.features, out, ws)
        for lo, hi in chunks:
            score(s, take(source, lo, hi, rows), lo, hi, diff)

    network.run_jobs([*jobs, *(
        [functools.partial(chunk, lo, hi) for lo, hi in chunks] if streams
        else [functools.partial(draw, s) for s in range(len(mats))])])
    return risks


def mc_posterior_risk(layer_sizes, post, ds, n_samples, kind, loss_kind, rng, jobs=()):
    """Posterior-expected dataset risk, Monte Carlo over weight draws.

    kind "loss" evaluates the configured tuple loss, "zero-one" the ranking
    error with ties counted correct. Every draw is made first, in the calling
    thread, and one draw_risks pass scores them all, after jobs. Returns
    (mean, per-draw array).
    """
    if kind not in ("loss", "zero-one"):
        raise ValueError(f"unknown risk kind: {kind!r}")
    weights = [network.sample_weights(post, network.sample_eps(post.n_params, rng))
               for _ in range(n_samples)]
    risks = draw_risks(layer_sizes, weights, ds, kind, loss_kind, jobs)
    vals = np.array([np.mean(r) for r in risks])
    return float(np.mean(vals)), vals
