import json
import math
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import record_calls
from pbcurl import data, evaluation, losses, network, training
from test_network import (
    ACCEPTANCE_SIZES, alloc_forward_cached, mean_formula_margins, random_tuples,
)


def separated_labeled(rng, n_classes=3, n_per_class=30, spread=0.05):
    means = 10.0 * np.eye(n_classes)
    y = np.repeat(np.arange(n_classes), n_per_class)
    x = means[y] + spread * rng.standard_normal((y.size, n_classes))
    return data.LabeledDataset(x=x, y=y)


def test_build_mean_classifier_single_point_classes(rng):
    ds = data.LabeledDataset(
        x=np.array([[1.0, 2.0], [5.0, -1.0]]), y=np.array([3, 7])
    )
    mc = evaluation.build_mean_classifier(ds)
    assert np.array_equal(mc.classes, [3, 7])
    assert np.array_equal(mc.means, ds.x)


def test_build_mean_classifier_subsample_equals_full_when_duplicated(rng):
    base = separated_labeled(rng, n_classes=2, n_per_class=4)
    dup = data.LabeledDataset(
        x=np.tile(base.x[: 1], (6, 1)), y=np.zeros(6, dtype=np.int64)
    )
    full = evaluation.build_mean_classifier(dup)
    sub = evaluation.build_mean_classifier(dup, samples_per_class=3, rng=rng)
    assert np.allclose(full.means, sub.means)


def test_build_mean_classifier_small_class_uses_all(rng):
    ds = separated_labeled(rng, n_classes=2, n_per_class=2)
    mc = evaluation.build_mean_classifier(ds, samples_per_class=10, rng=rng)
    full = evaluation.build_mean_classifier(ds)
    assert np.array_equal(mc.means, full.means)


def test_avg2_perfect_on_separated_classes(rng):
    train = separated_labeled(rng)
    test = separated_labeled(rng)
    mc = evaluation.build_mean_classifier(train)
    assert evaluation.avg2_accuracy(mc, test) == 1.0


def test_avg2_negated_features_invert_accuracy(rng):
    train = separated_labeled(rng)
    test = separated_labeled(rng)
    mc = evaluation.build_mean_classifier(train)
    acc = evaluation.avg2_accuracy(mc, test)
    flipped = evaluation.avg2_accuracy(
        evaluation.MeanClassifier(mc.classes, -mc.means), test
    )
    # zero scores count correct on both sides, none occur here
    assert flipped == pytest.approx(1.0 - acc, abs=1e-12)


def test_avg2_zero_scores_count_correct():
    ds = data.LabeledDataset(x=np.zeros((4, 2)), y=np.array([0, 0, 1, 1]))
    mc = evaluation.build_mean_classifier(ds)
    assert evaluation.avg2_accuracy(mc, ds) == 1.0


def test_avg2_two_class_equals_binary_accuracy(rng):
    # with exactly two classes the pair average is plain 0/1 accuracy
    train = separated_labeled(rng, n_classes=2)
    x = rng.normal(size=(100, 2))
    y = rng.integers(0, 2, size=100).astype(np.int64)
    test = data.LabeledDataset(x=x, y=y)
    mc = evaluation.build_mean_classifier(train)
    scores = x @ mc.means.T
    pred = np.where(scores[:, 0] - scores[:, 1] >= 0.0, 0, 1)
    assert evaluation.avg2_accuracy(mc, test) == pytest.approx(
        np.mean(pred == y), abs=1e-12
    )


def test_avg2_random_features_near_half(rng):
    train = data.LabeledDataset(
        x=rng.standard_normal((400, 8)), y=rng.integers(0, 2, 400).astype(np.int64)
    )
    test = data.LabeledDataset(
        x=rng.standard_normal((2000, 8)), y=rng.integers(0, 2, 2000).astype(np.int64)
    )
    mc = evaluation.build_mean_classifier(train)
    acc = evaluation.avg2_accuracy(mc, test)
    assert abs(acc - 0.5) < 3.5 * np.sqrt(0.25 / 2000)


def test_topk_full_k_is_one(rng):
    test = separated_labeled(rng)
    mc = evaluation.build_mean_classifier(test)
    assert evaluation.topk_accuracy(mc, test, 3) == 1.0
    assert evaluation.topk_accuracy(mc, test, 99) == 1.0


def test_topk_monotone_in_k(rng):
    train = data.LabeledDataset(
        x=rng.standard_normal((200, 4)), y=rng.integers(0, 6, 200).astype(np.int64)
    )
    test = data.LabeledDataset(
        x=rng.standard_normal((300, 4)), y=rng.integers(0, 6, 300).astype(np.int64)
    )
    mc = evaluation.build_mean_classifier(train)
    accs = [evaluation.topk_accuracy(mc, test, k) for k in range(1, 7)]
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0


def test_topk_ties_prefer_lower_class_index():
    # all scores equal: stable order keeps class 0 first
    ds = data.LabeledDataset(x=np.zeros((2, 2)), y=np.array([0, 1]))
    mc = evaluation.MeanClassifier(classes=np.array([0, 1]), means=np.zeros((2, 2)))
    assert evaluation.topk_accuracy(mc, ds, 1) == 0.5


def test_evaluate_representation_keys_and_ranges(rng):
    train = separated_labeled(rng, n_classes=4, n_per_class=12)
    test = separated_labeled(rng, n_classes=4, n_per_class=8)
    out = evaluation.evaluate_representation(
        train, test, rng, samples_per_class=5, n_variants=3
    )
    assert set(out) == {"avg2", "top1", "top5", "mu5_avg2", "mu5_top1", "mu5_top5"}
    for v in out.values():
        assert 0.0 <= v <= 1.0
    assert out["avg2"] == 1.0 and out["top1"] == 1.0


# ---------------------------------------------------------------------------
# the one-pass metrics against the pairwise loop and the stable argsort they
# replaced, bit for bit


def loop_avg2_accuracy(mc, reps):
    scores = reps.x @ mc.means.T
    risks = []
    pos = {c: np.nonzero(reps.y == c)[0] for c in mc.classes}
    for i in range(mc.classes.size):
        for jj in range(i + 1, mc.classes.size):
            idx_i, idx_j = pos[mc.classes[i]], pos[mc.classes[jj]]
            if idx_i.size == 0 and idx_j.size == 0:
                continue
            g_i = scores[idx_i, i] - scores[idx_i, jj]
            g_j = scores[idx_j, i] - scores[idx_j, jj]
            errs = int(np.sum(g_i < 0.0)) + int(np.sum(g_j > 0.0))
            risks.append(errs / (idx_i.size + idx_j.size))
    return 1.0 - float(np.mean(risks))


def argsort_topk_accuracy(mc, reps, top_k):
    scores = reps.x @ mc.means.T
    order = np.argsort(-scores, axis=1, kind="stable")[:, :min(top_k, mc.classes.size)]
    return float(np.mean(np.any(mc.classes[order] == reps.y[:, None], axis=1)))


def assert_metrics_match_reference(mc, reps):
    assert evaluation.avg2_accuracy(mc, reps).hex() == loop_avg2_accuracy(mc, reps).hex()
    for k in (1, 2, 5, mc.classes.size, mc.classes.size + 3):
        got = evaluation.topk_accuracy(mc, reps, k)
        assert got.hex() == argsort_topk_accuracy(mc, reps, k).hex()


def labeled(x, labels, rng):
    return data.LabeledDataset(x=x, y=rng.choice(labels, size=len(x)).astype(np.int64))


@pytest.mark.parametrize("seed", range(4))
def test_metrics_match_reference_on_random_representations(seed):
    rng = np.random.default_rng(seed)
    labels = np.array([-4, 0, 3, 7, 8, 11, 20, 100, 101, 250])
    train = labeled(rng.standard_normal((400, 6)), labels, rng)
    test = labeled(rng.standard_normal((700, 6)), labels, rng)
    assert_metrics_match_reference(evaluation.build_mean_classifier(train), test)
    for _ in range(5):   # few-shot classifiers
        mc = evaluation.build_mean_classifier(train, samples_per_class=5, rng=rng)
        assert_metrics_match_reference(mc, test)


def test_metrics_match_reference_on_tied_scores(rng):
    # small integers make many exact ties
    means = rng.integers(-1, 2, size=(8, 3)).astype(float)
    mc = evaluation.MeanClassifier(classes=np.arange(8) * 3, means=means)
    reps = labeled(rng.integers(-2, 3, size=(600, 3)).astype(float), mc.classes, rng)
    scores = reps.x @ mc.means.T
    assert np.mean(scores[:, :, None] == scores[:, None, :]) > 0.2
    assert_metrics_match_reference(mc, reps)


class GivenScores(np.ndarray):
    """Representation rows whose product with any classifier is self.scores."""

    def __matmul__(self, other):
        return self.scores


def test_metrics_match_reference_on_signed_zero_scores(rng):
    # a matrix product never yields -0.0, so the scores are given directly:
    # +0.0 and -0.0 compare equal, and s_c - s_o is +0.0 for either order
    scores = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(500, 6))
    x = np.zeros((500, 1)).view(GivenScores)
    x.scores = scores
    mc = evaluation.MeanClassifier(classes=np.arange(6), means=np.zeros((6, 1)))
    assert_metrics_match_reference(mc, labeled(x, mc.classes, rng))


def test_metrics_match_reference_with_absent_and_unknown_classes(rng):
    train = labeled(rng.standard_normal((300, 4)), np.arange(6), rng)
    mc = evaluation.build_mean_classifier(train)
    # class 2 has no test points; label 9 is not a class of the classifier,
    # and -1 sorts below every class
    test = labeled(rng.standard_normal((500, 4)), np.array([0, 1, 3, 4, 5, 9, -1]), rng)
    assert_metrics_match_reference(mc, test)
    # two classes, neither with a test point: that pair is left out of avg2
    only = data.LabeledDataset(x=test.x, y=np.where(np.isin(test.y, [4, 5]), 0, test.y))
    assert_metrics_match_reference(mc, only)


def test_evaluate_representation_matches_reference(rng):
    labels = np.arange(20)
    train = labeled(rng.standard_normal((900, 8)), labels, rng)
    test = labeled(rng.standard_normal((400, 8)), labels, rng)
    out = evaluation.evaluate_representation(train, test, np.random.default_rng(3))
    draws = np.random.default_rng(3)
    mcs = [evaluation.build_mean_classifier(train)] + [
        evaluation.build_mean_classifier(train, samples_per_class=5, rng=draws)
        for _ in range(5)
    ]
    ref = [(loop_avg2_accuracy(mc, test), argsort_topk_accuracy(mc, test, 1),
            argsort_topk_accuracy(mc, test, 5)) for mc in mcs]
    assert (out["avg2"], out["top1"], out["top5"]) == ref[0]
    few = np.mean(ref[1:], axis=0)
    assert (out["mu5_avg2"], out["mu5_top1"], out["mu5_top5"]) == tuple(few)


def test_mc_posterior_risk_zero_variance_equals_map(rng):
    layer_sizes = (3, 5, 2)
    post, _ = network.init_network(layer_sizes, 1e-2, rng)
    post.mu = rng.normal(scale=0.5, size=post.n_params)
    post.log_sigma2 = np.full(post.n_params, -60.0)   # effectively deterministic
    model = data.random_gaussian_model(3, 3, 6.0, 0.3, rng)
    ds = data.sample_contrastive_iid(model, 40, 2, 2, rng)

    mean, draws = evaluation.mc_posterior_risk(
        layer_sizes, post, ds, 6, "zero-one", "logistic", rng
    )
    out = network.forward(layer_sizes, post.mu, ds.features)
    margins = losses.contrastive_margins(
        out[ds.anchors], out[ds.positives], out[ds.negatives]
    )
    map_risk = float(np.mean(losses.zero_one_risk(margins)))
    assert draws.shape == (6,)
    assert mean == pytest.approx(map_risk, abs=1e-9)
    assert np.allclose(draws, map_risk, atol=1e-9)


def test_mc_posterior_risk_deterministic_given_seed(rng):
    layer_sizes = (3, 4, 2)
    post, _ = network.init_network(layer_sizes, 1e-2, rng)
    model = data.random_gaussian_model(2, 3, 5.0, 0.5, rng)
    ds = data.sample_contrastive_iid(model, 30, 2, 1, rng)
    m1, d1 = evaluation.mc_posterior_risk(
        layer_sizes, post, ds, 5, "loss", "hinge", np.random.default_rng(11)
    )
    m2, d2 = evaluation.mc_posterior_risk(
        layer_sizes, post, ds, 5, "loss", "hinge", np.random.default_rng(11)
    )
    assert m1 == m2 and np.array_equal(d1, d2)


def test_mc_posterior_risk_unknown_kind(rng):
    layer_sizes = (2, 2)
    post, _ = network.init_network(layer_sizes, 1e-2, rng)
    model = data.random_gaussian_model(2, 2, 5.0, 0.5, rng)
    ds = data.sample_contrastive_iid(model, 5, 1, 1, rng)
    with pytest.raises(ValueError):
        evaluation.mc_posterior_risk(layer_sizes, post, ds, 2, "nope", "hinge", rng)


def test_mc_posterior_risk_se_shrinks_with_draws(rng):
    # standard error of the posterior mean falls roughly like 1/sqrt(n)
    layer_sizes = (3, 6, 2)
    post, _ = network.init_network(layer_sizes, 1e-2, rng)
    post.log_sigma2 = np.full(post.n_params, -2.0)
    model = data.random_gaussian_model(3, 3, 4.0, 0.5, rng)
    ds = data.sample_contrastive_iid(model, 60, 2, 1, rng)
    spreads = []
    for n in (10, 40, 160):
        means = [
            evaluation.mc_posterior_risk(
                layer_sizes, post, ds, n, "loss", "logistic",
                np.random.default_rng(1000 + rep),
            )[0]
            for rep in range(8)
        ]
        spreads.append(np.std(means))
    assert spreads[2] < spreads[0]


def test_mc_posterior_risk_checks_kind_before_drawing(rng):
    layer_sizes = (2, 2)
    post, _ = network.init_network(layer_sizes, 1e-2, rng)
    model = data.random_gaussian_model(2, 2, 5.0, 0.5, rng)
    ds = data.sample_contrastive_iid(model, 5, 1, 1, rng)
    draws = np.random.default_rng(3)
    with pytest.raises(ValueError, match="unknown risk kind"):
        evaluation.mc_posterior_risk(layer_sizes, post, ds, 2, "nope", "hinge", draws)
    # no weight was drawn: the stream is where a fresh one starts
    assert draws.standard_normal() == np.random.default_rng(3).standard_normal()


# ---------------------------------------------------------------------------
# chunked whole-matrix paths against one whole-matrix forward, bit for bit.
# A remainder chunk of 1 or 75 rows would round differently from the whole
# matrix, so these row counts (1 or 3 chunks) fail unless the remainder folds
# into the last chunk


@pytest.mark.parametrize("extra", [1, 2 * network.CHUNK_ROWS + 75])
def test_chunked_paths_match_whole_matrix(rng, extra):
    rows = network.CHUNK_ROWS + extra
    ds = random_tuples(rng, rows, rows)
    post, _ = network.init_network(ACCEPTANCE_SIZES, 1e-2, rng)
    post.mu = rng.normal(scale=0.3, size=post.n_params)

    def whole(w):
        out, _ = alloc_forward_cached(ACCEPTANCE_SIZES, w, ds.features)
        return out, mean_formula_margins(
            out[ds.anchors], out[ds.positives], out[ds.negatives]
        )[0]

    out, margins = whole(post.mu)
    assert np.array_equal(network.forward(ACCEPTANCE_SIZES, post.mu, ds.features), out)
    assert network.feature_bound(ACCEPTANCE_SIZES, post.mu, ds.features) == float(
        np.sqrt(np.max(np.sum(out * out, axis=1)))
    )
    assert training.map_dataset_loss(ACCEPTANCE_SIZES, post.mu, ds, "logistic") == float(
        np.mean(losses.loss_value(margins, "logistic"))
    )

    for kind in ("zero-one", "loss"):
        _, vals = evaluation.mc_posterior_risk(
            ACCEPTANCE_SIZES, post, ds, 3, kind, "logistic", np.random.default_rng(5)
        )
        draws = np.random.default_rng(5)
        ref = []
        for _ in range(3):
            w = network.sample_weights(post, draws.standard_normal(post.n_params))
            m = whole(w)[1]
            risk = losses.loss_value(m, "logistic") if kind == "loss" else losses.zero_one_risk(m)
            ref.append(np.mean(risk))
        assert np.array_equal(vals, ref)


def whole_matrix_risks(layer_sizes, w, ds, kind, loss_kind):
    """The reference: one forward of the whole matrix, margins by np.mean."""
    out, _ = alloc_forward_cached(layer_sizes, w, ds.features)
    margins = mean_formula_margins(out[ds.anchors], out[ds.positives], out[ds.negatives])[0]
    return losses.loss_value(margins, loss_kind) if kind == "loss" else losses.zero_one_risk(margins)


def assert_risks_bitwise(layer_sizes, w, ds, loss_kind, kinds=("zero-one", "loss")):
    for kind in kinds:
        risks = evaluation.tuple_risks(layer_sizes, w, ds, kind, loss_kind)
        ref = whole_matrix_risks(layer_sizes, w, ds, kind, loss_kind)
        assert np.array_equal(risks.view(np.int64), ref.view(np.int64))
        assert float(np.mean(risks)).hex() == float(np.mean(ref)).hex()


@pytest.mark.parametrize("kind", ["zero-one", "loss"])
def test_tuple_risks_blocks_of_three(rng, kind):
    # blocks of 3 and k=2 give 10 rows per tuple. The 7,000 references share
    # 900 rows (whole-matrix path: 700 tuples fold into chunks of 204, 204 and
    # 292) or stream from 7,000 (five chunks of 102 tuples and one of 190)
    sizes = (5, 8, 4)
    for rows, streams in ((900, False), (7000, True)):
        ds = random_tuples(rng, rows, 700, dim=5, k=2, block_size=3)
        ds.features[rng.random(ds.features.shape) < 0.1] = 0.0
        assert evaluation._streams(ds) == streams
        w = rng.normal(scale=0.5, size=network.param_count(sizes))
        assert_risks_bitwise(sizes, w, ds, "hinge", kinds=[kind])


@pytest.mark.parametrize("m, k, block_size, streams", [
    (15, 3, 1, True),      # 15 tuples of 5 rows: 75 references, one 75-row chunk
    (19, 2, 1, True),      # 19 tuples of 4 rows: 76, one 76-row chunk
    (1000, 4, 2, True),    # chunks of 93 tuples; the last folds in 70 more
])
def test_streamed_tuple_risks_match_whole_matrix(rng, m, k, block_size, streams):
    # 3,000 rows, so the reference forwards a taller matrix than any chunk
    rows = max(3000, m * (1 + block_size * (1 + k)))
    ds = random_tuples(rng, rows, m, k=k, block_size=block_size)
    assert evaluation._streams(ds) == streams
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    for loss_kind in ("logistic", "hinge"):
        assert_risks_bitwise(ACCEPTANCE_SIZES, w, ds, loss_kind)


def test_concatenated_iid_sets_stream_bitwise(rng):
    # train + valid as the pb criterion certifies them: the second set's
    # indices are offset, so the gathered rows are not the matrix in order
    model = data.random_gaussian_model(5, 20, 3.0, 1.0, rng)
    ds = data.concat_contrastive(data.sample_contrastive_iid(model, 700, 4, 2, rng),
                                 data.sample_contrastive_iid(model, 300, 4, 2, rng))
    assert evaluation._streams(ds)
    gathered = np.concatenate([ds.anchors, ds.positives.ravel(), ds.negatives.ravel()])
    assert not np.array_equal(gathered, np.arange(len(ds.features)))
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    assert_risks_bitwise(ACCEPTANCE_SIZES, w, ds, "logistic")


def record_forwards(monkeypatch, path):
    """The (pid, rows) of every network.forward_cached call."""
    return record_calls(monkeypatch, path, network, "forward_cached", lambda args: len(args[2]))


def test_tuples_sharing_rows_keep_the_whole_matrix_path(rng, monkeypatch, tmp_path):
    log = tmp_path / "forwards"
    forwarded = record_forwards(monkeypatch, log)      # by every worker process
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    # 2,200 references: to 500 shared rows the matrix goes through once; of
    # 3,000 rows only the 2,200 referenced ones go through
    for rows, expect in ((500, 500), (3000, 2200)):
        log.unlink(missing_ok=True)
        ds = random_tuples(rng, rows, 200)
        evaluation.tuple_risks(ACCEPTANCE_SIZES, w, ds, "zero-one", "logistic")
        assert sum(size for _, size in forwarded()) == expect


@pytest.mark.parametrize("workers, draws", [(1, 1), (2, 1), (3, 1), (1, 10), (2, 10), (3, 10)],
                         ids=["1", "2", "3", "1-10-draws", "2-10-draws", "3-10-draws"])
def test_mc_draw_over_a_large_matrix_allocates_little(rng, pin_workers, workers, draws):
    # acceptance scale: 20k tuples over a 220k-row matrix, which they stream.
    # The (rows, 16) output would be 28 MB; the whole-matrix forward once also
    # held every layer (170 MB). Each worker holds its own chunk buffers, and
    # the pass one (draws, m) array of risks
    pin_workers(workers)
    ds = random_tuples(rng, 220_000, 20_000)
    post, _ = network.init_network(ACCEPTANCE_SIZES, 1e-2, rng)
    tracemalloc.start()
    try:
        evaluation.mc_posterior_risk(ACCEPTANCE_SIZES, post, ds, draws, "zero-one", "logistic",
                                     rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6 + draws * len(ds) * 8


def test_feature_bound_over_a_large_matrix_allocates_little(rng):
    # the (rows, 16) output and its square would be 28 MB each
    x = rng.standard_normal((220_000, 20))
    post, _ = network.init_network(ACCEPTANCE_SIZES, 1e-2, rng)
    tracemalloc.start()
    try:
        network.feature_bound(ACCEPTANCE_SIZES, post.mu, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("bad_row", [0, 2047, 2048, 4999, 10 * network.CHUNK_ROWS + 99])
def test_feature_bound_passes_a_non_finite_row_through(rng, bad_row):
    # of 10 chunks: the first row of the first, the last of the second, the
    # first of the third, a row inside the fifth and the last row of the
    # folded tenth; max(0.0, nan) would drop it
    assert network.CHUNK_ROWS == 1024
    x = rng.standard_normal((10 * network.CHUNK_ROWS + 100, 20))
    x[bad_row, 3] = np.nan
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    assert math.isnan(network.feature_bound(ACCEPTANCE_SIZES, w, x))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("bad_row", [2 * network.CHUNK_ROWS + 7, 10 * network.CHUNK_ROWS + 50])
def test_feature_bound_passes_a_worker_s_non_finite_row_through(rng, pin_workers, workers,
                                                               children_run_every_job, bad_row):
    # the third chunk and the folded last one (the tenth) of 10 chunks, with
    # feature_bound the first job of a pass whose forked workers run every
    # job (children_run_every_job), as a loss certificate's pass runs it;
    # the other jobs make the pass start every worker
    pin_workers(workers)
    x = rng.standard_normal((10 * network.CHUNK_ROWS + 100, 20))
    x[bad_row, 3] = np.nan
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    bound, ran_in = network.shared_array(1), network.shared_array(1, np.int64)

    def job():
        bound[0] = network.feature_bound(ACCEPTANCE_SIZES, w, x)
        ran_in[0] = os.getpid()

    network.run_jobs([job] + [lambda: None] * (workers - 1))
    assert ran_in[0] not in (0, os.getpid())
    assert math.isnan(bound[0])


def test_results_do_not_depend_on_the_worker_count(rng, monkeypatch, pin_workers, tmp_path,
                                                   one_job_each):
    # 1,000 tuples of 11 rows: 10 chunks of 93 tuples, the last folding in 70
    # more; the concatenated set's second half has offset indices. The last
    # set's 11,000 references share 2,000 rows, so it takes the whole-matrix
    # path. Every worker claims a job (one_job_each), so each process count is
    # that of the workers the pass starts
    model = data.random_gaussian_model(5, 20, 3.0, 1.0, rng)
    sets = [random_tuples(rng, 11_000, 1000),
            data.concat_contrastive(data.sample_contrastive_iid(model, 700, 4, 2, rng),
                                    data.sample_contrastive_iid(model, 300, 4, 2, rng)),
            random_tuples(rng, 2000, 1000)]
    assert [evaluation._streams(ds) for ds in sets] == [True, True, False]
    post, _ = network.init_network(ACCEPTANCE_SIZES, 1e-2, rng)
    post.mu = rng.normal(scale=0.3, size=post.n_params)
    redraw = np.random.default_rng(5)
    weights = [network.sample_weights(post, network.sample_eps(post.n_params, redraw))
               for _ in range(3)]
    x = rng.standard_normal((5 * network.CHUNK_ROWS + 100, 20))
    log = tmp_path / "forwards"
    forwards = record_forwards(monkeypatch, log)
    results = {}
    for workers in (1, 2, 3):
        pin_workers(workers)

        def on_workers(fn, *args, fewest, most):
            log.unlink(missing_ok=True)
            value = fn(*args)
            processes = {pid for pid, _ in forwards()}
            # the caller runs worker 0, each other worker is a child process
            assert os.getpid() in processes
            assert fewest <= len(processes) <= most
            return value

        got = [on_workers(network.feature_bound, ACCEPTANCE_SIZES, post.mu, x,
                          fewest=1, most=1).hex()]     # feature_bound runs in the caller
        for ds in sets:
            # the streamed path splits 10 chunks, the whole-matrix path 3 draws
            # and one map network
            span = ((min(workers, 2), workers) if evaluation._streams(ds)
                    else (min(workers, 3), min(workers, 3)))
            for kind in ("zero-one", "loss"):
                mean, vals = on_workers(evaluation.mc_posterior_risk, ACCEPTANCE_SIZES, post,
                                        ds, 3, kind, "logistic", np.random.default_rng(5),
                                        fewest=span[0], most=span[1])
                # each draw as its own one-weight pass over the same weights
                assert [v.hex() for v in vals] == [
                    float(np.mean(evaluation.tuple_risks(ACCEPTANCE_SIZES, w, ds, kind,
                                                         "logistic"))).hex()
                    for w in weights]
                got += [mean.hex()] + [v.hex() for v in vals]
            one = span if evaluation._streams(ds) else (1, 1)
            got.append(on_workers(training.map_dataset_loss, ACCEPTANCE_SIZES, post.mu, ds,
                                  "hinge", fewest=one[0], most=one[1]).hex())
        results[workers] = got
    assert results[1] == results[2] == results[3]


def assert_draws_do_not_depend_on_the_worker_count(rng, pin_workers, ds, draw_counts):
    """Each row of draw_risks is that draw's risks scored alone, on 1, 2 and 3 workers."""
    weights = [rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
               for _ in range(max(draw_counts))]
    pin_workers(1)
    alone = {kind: [evaluation.tuple_risks(ACCEPTANCE_SIZES, w, ds, kind, "logistic")
                    for w in weights] for kind in ("zero-one", "loss")}
    for workers in (1, 2, 3):
        pin_workers(workers)
        for draws in draw_counts:
            for kind, want in alone.items():
                got = evaluation.draw_risks(ACCEPTANCE_SIZES, weights[:draws], ds, kind,
                                            "logistic")
                assert np.array_equal(got.view(np.int64),
                                      np.stack(want[:draws]).view(np.int64)), (workers, draws)


def test_draw_blocks_give_each_draw_its_own_bits(rng, pin_workers):
    # 1, 2, 5, 7 and 10 draws: one block, a part block, one full block, a full
    # and a part block, two full blocks
    ds = random_tuples(rng, 11_000, 1000)
    assert evaluation._streams(ds)
    assert_draws_do_not_depend_on_the_worker_count(rng, pin_workers, ds, (1, 2, 5, 7, 10))


def test_whole_matrix_draws_do_not_depend_on_the_worker_count(rng, pin_workers):
    # 1,000 tuples over 2,000 shared rows: worker i scores draws i, i + n, ...,
    # so 1 and 2 draws leave workers idle, 3 fill them and 10 deal unevenly
    ds = random_tuples(rng, 2000, 1000)
    assert not evaluation._streams(ds)
    assert_draws_do_not_depend_on_the_worker_count(rng, pin_workers, ds, (1, 2, 3, 10))


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_draws_gather_each_streamed_chunk_once(rng, monkeypatch, pin_workers, workers,
                                                  tmp_path, one_job_each):
    # 1,000 tuples of 11 rows stream in 10 chunks (93 tuples each, the last
    # 163): 10 draws gather each chunk once and forward it 10 times, and
    # every worker claims a chunk (one_job_each)
    pin_workers(workers)
    ds = random_tuples(rng, 11_000, 1000)
    assert evaluation._streams(ds)
    taken = record_calls(monkeypatch, tmp_path / "taken", data, "take_tuples",
                         lambda args: len(args[1]))
    forwarded = record_forwards(monkeypatch, tmp_path / "forwarded")
    post, _ = network.init_network(ACCEPTANCE_SIZES, 1e-2, rng)
    _, vals = evaluation.mc_posterior_risk(ACCEPTANCE_SIZES, post, ds, 10, "zero-one",
                                           "logistic", rng)
    assert len(vals) == 10
    assert sorted(size for _, size in taken()) == [93] * 9 + [163]
    assert sorted(size for _, size in forwarded()) == [93 * 11] * 90 + [163 * 11] * 10
    assert len({pid for pid, _ in taken()}) == workers


def test_more_worker_processes_than_cores(rng, pin_workers):
    # the workers write disjoint slices of one shared risks array and share
    # nothing else; more processes than cores interleave their writes
    workers = max(4, (os.cpu_count() or 1) + 1)
    ds = random_tuples(rng, 2 * workers * 186 * 11, 2 * workers * 186)
    weights = [rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
               for _ in range(2)]
    want = np.stack([evaluation.tuple_risks(ACCEPTANCE_SIZES, w, ds, "loss", "logistic")
                     for w in weights])
    pin_workers(workers)
    for _ in range(3):
        got = evaluation.draw_risks(ACCEPTANCE_SIZES, weights, ds, "loss", "logistic")
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_worker_1(monkeypatch, fail):
    """Patch losses.zero_one_risk to call fail() in any process but this one.

    The tests that call it take one_job_each, so that worker 1 claims a job.
    """
    caller, zero_one_risk = os.getpid(), losses.zero_one_risk

    def failing(margins):
        if os.getpid() != caller:                   # worker 1
            fail()
        return zero_one_risk(margins)

    monkeypatch.setattr(losses, "zero_one_risk", failing)


# 1,000 tuples streamed in 10 chunks, or over 2,000 shared rows by draw
WORKER_SETS = {"streamed": 11_000, "whole-matrix": 2000}


def test_a_worker_s_exception_reaches_the_caller(rng, monkeypatch, pin_workers, one_job_each):
    pin_workers(2)
    ds = random_tuples(rng, 11_000, 1000)
    post, _ = network.init_network(ACCEPTANCE_SIZES, 1e-2, rng)

    def fail():
        raise RuntimeError("worker failed")

    fail_in_worker_1(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        evaluation.mc_posterior_risk(ACCEPTANCE_SIZES, post, ds, 2, "zero-one", "logistic", rng)
    assert threading.active_count() == before


@pytest.mark.parametrize("rows", WORKER_SETS.values(), ids=WORKER_SETS.keys())
def test_a_worker_s_value_error_keeps_its_type_and_message(rng, monkeypatch, pin_workers,
                                                           rows, one_job_each):
    pin_workers(2)
    ds = random_tuples(rng, rows, 1000)
    weights = [rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
               for _ in range(2)]

    def fail():
        raise ValueError("bad margins in worker 1")

    fail_in_worker_1(monkeypatch, fail)
    with pytest.raises(ValueError, match="^bad margins in worker 1$"):
        evaluation.draw_risks(ACCEPTANCE_SIZES, weights, ds, "zero-one", "logistic")
    assert_no_child_left()


def test_an_unpicklable_exception_names_the_worker(rng, monkeypatch, pin_workers, one_job_each):
    pin_workers(2)
    ds = random_tuples(rng, 11_000, 1000)
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))

    class Local(Exception):                         # pickle cannot find a local class
        pass

    def fail():
        raise Local("unreadable")

    fail_in_worker_1(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="worker 1 raised Local: unreadable"):
        evaluation.draw_risks(ACCEPTANCE_SIZES, [w], ds, "zero-one", "logistic")
    assert_no_child_left()


@pytest.mark.parametrize("rows", WORKER_SETS.values(), ids=WORKER_SETS.keys())
def test_a_killed_worker_names_itself_and_the_signal(rng, monkeypatch, pin_workers, rows,
                                                     one_job_each):
    pin_workers(2)
    ds = random_tuples(rng, rows, 1000)
    weights = [rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
               for _ in range(2)]
    fail_in_worker_1(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match="worker 1 was killed by SIGKILL"):
        evaluation.draw_risks(ACCEPTANCE_SIZES, weights, ds, "zero-one", "logistic")
    assert_no_child_left()


def test_a_failing_worker_0_reaps_the_children(rng, monkeypatch, pin_workers, one_job_each):
    # one_job_each: worker 0 claims a job, however fast the children run theirs
    pin_workers(3)
    ds = random_tuples(rng, 11_000, 1000)
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    caller, zero_one_risk = os.getpid(), losses.zero_one_risk

    def failing(margins):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return zero_one_risk(margins)

    monkeypatch.setattr(losses, "zero_one_risk", failing)
    with pytest.raises(KeyboardInterrupt):
        evaluation.draw_risks(ACCEPTANCE_SIZES, [w], ds, "zero-one", "logistic")
    assert_no_child_left()


@pytest.mark.parametrize("rows", WORKER_SETS.values(), ids=WORKER_SETS.keys())
def test_a_certificate_s_pass_run_by_the_children_gives_the_one_worker_bits(
        rng, tmp_path, monkeypatch, pin_workers, children_run_every_job, rows):
    # one pass runs the dataset hash, the feature bound (a loss certificate's
    # one network.feature_bound call) and the Monte Carlo chunks or draws.
    # With worker 0 held back until the forked workers have run every job
    # (children_run_every_job; one worker runs no fork), each result they
    # write to shared memory is the one-worker result bit for bit
    ds = random_tuples(rng, rows, 1000)
    post, prior = network.init_network(ACCEPTANCE_SIZES, 1e-2, rng)
    post.mu = rng.normal(scale=0.3, size=post.n_params)
    path = str(tmp_path / "c.ckpt.json")
    network.save_checkpoint(path, network.Checkpoint(list(ACCEPTANCE_SIZES), post, prior,
                                                     seed=3, epoch=1))
    weights = [rng.normal(scale=0.3, size=post.n_params) for _ in range(3)]

    def results():
        reports = [training.certify_checkpoint(path, ds, objective=objective, n_samples=3,
                                               risk=risk).to_dict()
                   for objective, risk in (("iid", "zero-one"), ("noniid", "loss"))]
        risks = evaluation.draw_risks(ACCEPTANCE_SIZES, weights, ds, "loss", "logistic")
        return json.dumps(reports, sort_keys=True), risks.tobytes()

    pin_workers(1)
    want = results()
    report = json.loads(want[0])[1]
    assert report["feature_bound"] == network.feature_bound(ACCEPTANCE_SIZES, post.mu,
                                                            ds.features)
    assert report["provenance"]["dataset_hash"] == data.dataset_hash(ds)
    hashed = record_calls(monkeypatch, tmp_path / "hashed", data, "dataset_hash",
                          lambda args: len(args[0]))
    bounded = record_calls(monkeypatch, tmp_path / "bounded", network, "feature_bound",
                           lambda args: len(args[2]))
    for workers in (2, 3):
        pin_workers(workers)
        assert results() == want
    assert len(hashed()) == 4 and os.getpid() not in {pid for pid, _ in hashed()}
    # one loss certificate per worker count, its bound run by a child
    assert [size for _, size in bounded()] == [rows] * 2
    assert os.getpid() not in {pid for pid, _ in bounded()}


@pytest.mark.parametrize("rows", WORKER_SETS.values(), ids=WORKER_SETS.keys())
def test_a_failed_fork_gives_the_one_worker_bits(rng, monkeypatch, pin_workers, rows):
    ds = random_tuples(rng, rows, 1000)
    weights = [rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
               for _ in range(3)]
    pin_workers(1)
    want = evaluation.draw_risks(ACCEPTANCE_SIZES, weights, ds, "loss", "logistic")

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    pin_workers(3)
    got = evaluation.draw_risks(ACCEPTANCE_SIZES, weights, ds, "loss", "logistic")
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert_no_child_left()


@pytest.mark.parametrize("env, cpus, n_chunks, expect", [
    ({}, 2, 10, 1),                                   # BLAS unpinned uses every CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 10, 2),
    ({"OMP_NUM_THREADS": "2"}, 2, 10, 1),
    ({"OMP_NUM_THREADS": "4"}, 2, 10, 1),            # more BLAS threads than CPUs
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),        # no more workers than chunks
    # the first positive value in OpenBLAS's order wins
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 10, 4),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 3, 10, 3),
])
@pytest.mark.parametrize("affinity", [True, False])
def test_worker_count_rule(monkeypatch, env, cpus, n_chunks, expect, affinity):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert network.worker_count(n_chunks) == expect


def test_worker_count_is_one_without_fork(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert network.worker_count(10) == 8
    monkeypatch.delattr(os, "fork")
    assert network.worker_count(10) == 1
