import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from pbcurl import data, losses, network, training

# hand-evaluated 1-2-1 forward pass:
# W1=[[1],[-0.5]] b1=[0.1,0.2] W2=[[2,3]] b2=[-0.25], x=0.7
# z = (0.8, -0.15) -> relu (0.8, 0) -> 2*0.8 - 0.25 = 1.35
HAND_121_W = np.array([1.0, -0.5, 0.1, 0.2, 2.0, 3.0, -0.25])
HAND_121_OUT = 1.35


def test_param_count():
    assert network.param_count((22, 50, 50)) == 3700
    assert network.param_count((1, 2, 1)) == 7
    assert network.param_count((20, 32, 16)) == 20 * 32 + 32 + 32 * 16 + 16


def test_layer_slices_partition_the_vector():
    sizes = (5, 7, 3)
    slices = network._layer_slices(sizes)
    covered = []
    for w_sl, b_sl in slices:
        covered.extend(range(w_sl.start, w_sl.stop))
        covered.extend(range(b_sl.start, b_sl.stop))
    assert covered == list(range(network.param_count(sizes)))


def test_forward_hand_case():
    out = network.forward((1, 2, 1), HAND_121_W, np.array([[0.7]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(HAND_121_OUT, rel=1e-12)


def test_forward_zero_weights():
    w = np.zeros(network.param_count((3, 4, 2)))
    out = network.forward((3, 4, 2), w, np.ones((5, 3)))
    assert np.all(out == 0.0)


def test_forward_identity_single_layer():
    # one linear layer, W=I, b=0: no activation on the final layer
    d = 4
    w = np.concatenate([np.eye(d).ravel(), np.zeros(d)])
    x = np.random.default_rng(0).normal(size=(6, d))
    assert np.array_equal(network.forward((d, d), w, x), x)


def test_forward_n_layers_strips_head(rng):
    sizes = (3, 5, 4, 2)
    w = rng.normal(size=network.param_count(sizes))
    x = rng.normal(size=(4, 3))
    feats = network.forward(sizes, w, x, n_layers=2)
    assert feats.shape == (4, 4)
    # the truncated output is the penultimate layer pre-activation (no relu)
    full, cache = network.forward_cached(sizes, w, x)
    assert np.array_equal(np.maximum(feats, 0.0), cache[2])


def test_backprop_matches_finite_differences(rng):
    sizes = (4, 6, 3)
    w = rng.normal(scale=0.7, size=network.param_count(sizes))
    x = rng.normal(size=(8, 4))
    d_out = rng.normal(size=(8, 3))

    def scalar(wv):
        return float(np.sum(network.forward(sizes, wv, x) * d_out))

    _, cache = network.forward_cached(sizes, w, x)
    g = network.backprop(sizes, w, cache, d_out)
    h = 1e-6
    for i in rng.choice(w.size, size=25, replace=False):
        up, dn = w.copy(), w.copy()
        up[i] += h
        dn[i] -= h
        fd = (scalar(up) - scalar(dn)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_truncated_normal_respects_bound(rng):
    std = 0.3
    x = network.truncated_normal(20000, std, rng)
    assert np.max(np.abs(x)) <= 2.0 * std
    # not degenerate: the spread stays near the untruncated scale
    assert 0.5 * std < np.std(x) < std


def test_init_network_layer_stds(rng):
    sizes = (22, 50, 50)
    post, prior = network.init_network(sizes, math.exp(-8.0), rng)
    slices = network._layer_slices(sizes)
    for (w_sl, b_sl), fan_in in zip(slices, sizes[:-1]):
        w = post.mu[w_sl]
        expect = 2.0 / fan_in
        assert np.max(np.abs(w)) <= 2.0 * expect
        assert np.std(w) == pytest.approx(expect, rel=0.25)
        assert np.all(post.mu[b_sl] == 0.0)
    # prior is centred on the initial posterior mean with matching variance
    assert np.array_equal(prior.mu, post.mu)
    assert np.all(post.log_sigma2 == prior.log_sigma2)


def test_reparameterization_identity(rng):
    post, _ = network.init_network((5, 4, 2), 1e-3, rng)
    eps = network.sample_eps(post.n_params, rng)
    w = network.sample_weights(post, eps)
    rebuilt = post.mu + np.exp(0.5 * post.log_sigma2) * eps
    assert np.array_equal(w, rebuilt)
    # zero noise gives the MAP network
    assert np.array_equal(network.sample_weights(post, np.zeros_like(eps)), post.mu)
    assert np.array_equal(network.map_weights(post), post.mu)


def test_feature_bound_is_max_row_norm(rng):
    sizes = (3, 4)
    w = rng.normal(size=network.param_count(sizes))
    x = rng.normal(size=(10, 3))
    out = network.forward(sizes, w, x)
    assert network.feature_bound(sizes, w, x) == pytest.approx(
        float(np.max(np.linalg.norm(out, axis=1))), rel=1e-12
    )


def test_checkpoint_round_trip(tmp_path, rng):
    post, prior = network.init_network((4, 3, 2), math.exp(-5.0), rng)
    post.mu = post.mu + rng.normal(scale=0.01, size=post.n_params)
    post.log_sigma2 = post.log_sigma2 + rng.normal(scale=0.1, size=post.n_params)
    ckpt = network.Checkpoint(
        layer_sizes=[4, 3, 2], posterior=post, prior=prior, seed=7, epoch=12,
        config={"lr": 0.001},
    )
    path = os.path.join(tmp_path, "model.ckpt.json")
    network.save_checkpoint(path, ckpt)
    back = network.load_checkpoint(path)
    assert back.layer_sizes == [4, 3, 2]
    assert np.array_equal(back.posterior.mu, post.mu)
    assert np.array_equal(back.posterior.log_sigma2, post.log_sigma2)
    assert np.array_equal(back.prior.mu, prior.mu)
    assert back.prior.log_sigma2 == prior.log_sigma2
    assert back.seed == 7 and back.epoch == 12
    assert back.config == {"lr": 0.001}


def test_checkpoint_rejects_other_files(tmp_path):
    path = os.path.join(tmp_path, "other.json")
    with open(path, "w") as fh:
        fh.write('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        network.load_checkpoint(path)


def test_checkpoint_rejects_supervised_head(tmp_path, rng):
    # older versions stored the feature map's depth under a class head here
    post, prior = network.init_network((4, 3, 2), math.exp(-5.0), rng)
    path = os.path.join(tmp_path, "model.ckpt.json")
    network.save_checkpoint(path, network.Checkpoint([4, 3, 2], post, prior, seed=0, epoch=1))
    with open(path) as fh:
        doc = json.load(fh)
    assert "feature_layers" not in doc
    doc["feature_layers"] = None
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert network.load_checkpoint(path).layer_sizes == [4, 3, 2]
    doc["feature_layers"] = 1
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="supervised class head"):
        network.load_checkpoint(path)


def test_forward_dimension_mismatch_raises(rng):
    w = rng.normal(size=network.param_count((3, 2)))
    with pytest.raises(ValueError):
        network.forward((3, 2), w, np.ones((4, 5)))


# ---------------------------------------------------------------------------
# the workspace paths against the allocating math they replaced, bit for bit

ACCEPTANCE_SIZES = (20, 32, 16)


def alloc_forward_cached(layer_sizes, w, x):
    """Whole-matrix forward with fresh arrays per layer: the reference."""
    slices = network._layer_slices(layer_sizes)
    a = np.asarray(x, dtype=np.float64)
    cache = [a]
    for li, (w_sl, b_sl) in enumerate(slices):
        wm = w[w_sl].reshape(layer_sizes[li + 1], layer_sizes[li])
        z = a @ wm.T + w[b_sl]
        a = np.maximum(z, 0.0) if li < len(slices) - 1 else z
        cache.append(a)
    return a, cache


def alloc_backprop(layer_sizes, w, cache, d_out):
    slices = network._layer_slices(layer_sizes)
    grad = np.zeros_like(w)
    delta = np.asarray(d_out, dtype=np.float64)
    for li in range(len(slices) - 1, -1, -1):
        w_sl, b_sl = slices[li]
        if li < len(slices) - 1:
            delta = delta * (cache[li + 1] > 0.0)
        grad[w_sl] = (delta.T @ cache[li]).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if li > 0:
            delta = delta @ w[w_sl].reshape(layer_sizes[li + 1], layer_sizes[li])
    return grad


def mean_formula_margins(a_out, p_out, g_out):
    """Margins and block mean differences by np.mean over the block axes."""
    diff = np.mean(p_out, axis=1)[:, None, :] - np.mean(g_out, axis=2)
    return np.einsum("nd,nkd->nk", a_out, diff), diff


def alloc_contrastive_loss_and_wgrad(layer_sizes, w, anchor, pos, neg, loss_kind):
    n, b, d0 = pos.shape
    k = neg.shape[1]
    x = np.concatenate([anchor, pos.reshape(n * b, d0), neg.reshape(n * k * b, d0)])
    out, cache = alloc_forward_cached(layer_sizes, w, x)
    d = out.shape[1]
    a_out = out[:n]
    p_out = out[n : n + n * b].reshape(n, b, d)
    g_out = out[n + n * b :].reshape(n, k, b, d)
    margins, diff = mean_formula_margins(a_out, p_out, g_out)
    loss = float(np.mean(losses.loss_value(margins, loss_kind)))
    dv = losses.loss_margin_grad(margins, loss_kind) * (1.0 / n)
    d_anchor = np.einsum("nk,nkd->nd", dv, diff)
    d_pos = (np.sum(dv, axis=1)[:, None] * a_out / b)[:, None, :].repeat(b, axis=1)
    d_neg = (-dv[:, :, None] * a_out[:, None, :] / b)[:, :, None, :].repeat(b, axis=2)
    d_out = np.concatenate([d_anchor, d_pos.reshape(n * b, d), d_neg.reshape(n * k * b, d)])
    return loss, alloc_backprop(layer_sizes, w, cache, d_out), margins


def random_tuples(rng, rows, m, dim=20, k=4, block_size=2):
    return data.ContrastiveDataset(
        features=rng.standard_normal((rows, dim)),
        anchors=rng.integers(0, rows, m),
        positives=rng.integers(0, rows, (m, block_size)),
        negatives=rng.integers(0, rows, (m, k, block_size)),
        k=k, block_size=block_size,
    )


@pytest.mark.parametrize("loss_kind", ["logistic", "hinge"])
def test_workspace_step_matches_allocating_math(rng, loss_kind):
    # a full batch of 250 tuples, then a partial last batch of 200 (17,200 % 250)
    # through the same workspace and row buffer, as train() runs them
    ds = random_tuples(rng, 3000, 600)
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    rows = 250 * (1 + 2 * (1 + 4))
    ws = network.Workspace(ACCEPTANCE_SIZES, rows)
    batch_rows = np.empty((rows, 20))
    for n in (250, 200):
        idx = rng.choice(len(ds), size=n, replace=False)
        batch = ds.gather(idx, out=batch_rows)
        loss, grad, margins = training.contrastive_loss_and_wgrad(
            ACCEPTANCE_SIZES, w, batch, loss_kind, 1.0, ws
        )
        ref_loss, ref_grad, ref_margins = alloc_contrastive_loss_and_wgrad(
            ACCEPTANCE_SIZES, w, ds.features[ds.anchors[idx]],
            ds.features[ds.positives[idx]], ds.features[ds.negatives[idx]], loss_kind,
        )
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(margins, ref_margins)


def test_forward_without_workspace_matches_allocating_math(rng):
    x = rng.standard_normal((300, 20))
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    d_out = rng.standard_normal((300, 16))
    out, cache = network.forward_cached(ACCEPTANCE_SIZES, w, x)
    ref_out, ref_cache = alloc_forward_cached(ACCEPTANCE_SIZES, w, x)
    assert all(np.array_equal(a, b) for a, b in zip(cache, ref_cache))
    assert np.array_equal(network.backprop(ACCEPTANCE_SIZES, w, cache, d_out),
                          alloc_backprop(ACCEPTANCE_SIZES, w, ref_cache, d_out))


def test_row_chunks_fold_the_remainder():
    c = network.CHUNK_ROWS
    assert network.row_chunks(0) == [(0, 0)]
    assert network.row_chunks(c - 1) == [(0, c - 1)]
    assert network.row_chunks(2 * c + 75) == [(0, c), (c, 2 * c + 75)]
    assert network.row_chunks(3 * c) == [(0, c), (c, 2 * c), (2 * c, 3 * c)]


def test_warm_training_step_allocates_little(rng):
    # acceptance shapes: 20-32-16, batch 250, k=4, blocks of 2; theta, the
    # workspace, row buffer, optimizer state and step buffer are train()'s, so
    # a warmed step only makes small arrays
    ds = random_tuples(rng, 3000, 600)
    cfg = training.TrainConfig(layer_sizes=ACCEPTANCE_SIZES, k=4, block_size=2, batch_size=250)
    theta, post, prior = training.as_theta(
        *network.init_network(ACCEPTANCE_SIZES, cfg.sigma2_p_init, rng)
    )
    rows = 250 * (1 + 2 * (1 + 4))
    batch_rows = np.empty((rows, 20))
    objective, _ = training._step_objective(
        cfg, ACCEPTANCE_SIZES, post, prior, ds, network.Workspace(ACCEPTANCE_SIZES, rows)
    )
    idx = np.arange(250)
    step = np.empty(theta.size)

    def loss_step():
        return objective(ds.gather(idx, out=batch_rows), network.sample_eps(post.n_params, rng))[1]

    def update(opt, grad):
        assert np.all(np.isfinite(grad))
        opt.update(grad, 1e-3, out=step)
        np.add(theta, step, out=theta)

    for kind in training.OPTIMIZERS:
        opt = training.make_optimizer(kind, theta.size)
        update(opt, loss_step())
        tracemalloc.start()
        try:
            grad = loss_step()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            update(opt, grad)
            update_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # the gather's buffered np.take peaks at 0.34 MB; (n, k, d) temporaries
        # for the margins or d_out (128 KB each) push the step past 0.45 MB
        assert peak < 0.4 * (1 << 20), kind
        # no state, step or gradient array of n entries (theta has 2n + 1)
        assert update_peak < 8 * post.n_params, kind
