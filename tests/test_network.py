import functools
import itertools
import json
import math
import mmap
import os
import signal
import time
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
        grad[b_sl] = np.ones(len(delta)) @ delta       # backprop's GEMV column sums
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
    # train()'s step through one workspace, row buffer and index buffer: a full
    # batch of 250 tuples, a partial last one (200 = 17,200 % 250), then a full
    # one again. At the acceptance shapes, at three layers (backprop writes each
    # hidden delta over that layer's input buffer) and at k = 1 with blocks of 1
    for sizes, k, b, last in ((ACCEPTANCE_SIZES, 4, 2, 200), ((20, 32, 24, 16), 4, 2, 200),
                              (ACCEPTANCE_SIZES, 1, 1, 37)):
        ds = random_tuples(rng, 3000, 600, k=k, block_size=b)
        w = rng.normal(scale=0.3, size=network.param_count(sizes))
        rows = 250 * data.TupleBatch.rows_per_tuple(k, b)
        ws = network.Workspace(sizes, rows)
        batch_rows = np.empty((rows, 20))
        index = ds.index_buffers(250)
        for n in (250, last, 250):
            idx = rng.choice(len(ds), size=n, replace=False)
            batch = ds.gather(idx, out=batch_rows, index_out=index)
            loss, grad, margins = training.contrastive_loss_and_wgrad(
                sizes, w, batch, loss_kind, ws
            )
            ref_loss, ref_grad, ref_margins = alloc_contrastive_loss_and_wgrad(
                sizes, w, ds.features[ds.anchors[idx]],
                ds.features[ds.positives[idx]], ds.features[ds.negatives[idx]], loss_kind,
            )
            assert loss == ref_loss, (sizes, k, n)
            assert np.array_equal(grad, ref_grad), (sizes, k, n)
            assert np.array_equal(margins, ref_margins), (sizes, k, n)


def test_sharded_loss_matches_the_whole_batch_reference(rng):
    # each shard scales its margin gradient by 1 / n of the whole batch: a
    # shard scaled by its own count would still train, at twice the step. The
    # two shards give the same bits on one worker and on two
    ds = random_tuples(rng, 3000, 600)
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    batches = [rng.choice(len(ds), size=n, replace=False) for n in (250, 200, 3, 2, 1, 250)]
    got = {}
    for loss_kind, workers in itertools.product(("logistic", "hinge"), (1, 2)):
        shards = training.ShardedLoss(ACCEPTANCE_SIZES, ds, 250, loss_kind, workers)
        got[loss_kind, workers] = results = []

        def work(i):
            if i:
                return shards.serve()
            shards.start()
            try:
                for idx in batches:
                    shards.gather(idx)
                    loss, grad = shards(w)
                    results.append((loss, grad.tobytes()))
                    ref_loss, ref_grad, _ = alloc_contrastive_loss_and_wgrad(
                        ACCEPTANCE_SIZES, w, ds.features[ds.anchors[idx]],
                        ds.features[ds.positives[idx]], ds.features[ds.negatives[idx]],
                        loss_kind,
                    )
                    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss), (loss_kind, len(idx))
                    assert (np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))), (
                        loss_kind, len(idx))
            finally:
                shards.close()

        network.on_workers(workers, work)
        assert shards.workers == workers
    for loss_kind in ("logistic", "hinge"):
        assert got[loss_kind, 1] == got[loss_kind, 2]


def test_a_raise_while_reaping_kills_and_reaps_the_children():
    # worker 1 blocks; a SIGALRM handler raises while this process waits on
    # its pipe. on_workers kills and reaps the child, then lets the exception
    # through
    child = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)     # worker 1's pid

    def work(i):
        if i:
            child[0] = os.getpid()
            time.sleep(30)
            return
        deadline = time.monotonic() + 10
        while not child[0] and time.monotonic() < deadline:
            time.sleep(0.001)
        signal.setitimer(signal.ITIMER_REAL, 0.1)

    def alarm(signum, frame):
        raise TimeoutError("alarm during the reap")

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        with pytest.raises(TimeoutError, match="alarm during the reap"):
            network.on_workers(2, work)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pid = int(child[0])
    assert pid
    try:
        running = os.waitpid(pid, os.WNOHANG)[0] == 0
    except ChildProcessError:                   # on_workers reaped it
        return
    if running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pytest.fail(f"on_workers left worker 1 ({pid}) {'running' if running else 'unreaped'}")


def test_a_pass_of_more_jobs_than_a_pipe_holds_runs_each_once(pin_workers, deadline):
    # 20,000 jobs: their indices, 4 bytes each, would overfill a 64 KB pipe
    # buffer (16,384 of them), and a writer that pre-filled one would block.
    # More workers than cores contend for the claim lock; a lost update to
    # the count of claimed jobs would run a job twice or skip one
    pin_workers(max(4, (os.cpu_count() or 1) + 1))
    runs = network.shared_array(20_000, np.int64)

    def job(j):
        runs[j] += 1

    network.run_jobs([functools.partial(job, j) for j in range(len(runs))])
    assert np.array_equal(runs, np.ones(len(runs), np.int64))


def test_a_worker_killed_while_it_holds_the_claim_lock_stops_no_other(pin_workers, monkeypatch,
                                                                     deadline):
    # worker 1 dies the first time it takes the lock, before it claims a job.
    # The kernel releases the lock, so worker 0 runs every job, and the pass
    # raises worker 1's death; a lock its holder kept would hang worker 0
    # until the deadline
    pin_workers(2)
    caller, lockf = os.getpid(), os.lockf

    def dying(fd, cmd, length):
        lockf(fd, cmd, length)
        if cmd == os.F_LOCK and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(os, "lockf", dying)
    runs = network.shared_array(500, np.int64)

    def job(j):
        runs[j] += 1
        time.sleep(0.0001)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="^worker 1 was killed by SIGKILL$"):
        network.run_jobs([functools.partial(job, j) for j in range(len(runs))])
    assert time.monotonic() - t0 < 30
    assert np.array_equal(runs, np.ones(len(runs), np.int64))


def test_workers_killed_mid_pass_give_their_error_and_leave_no_child(pin_workers, deadline,
                                                                    one_job_each):
    # every worker claims a job (one_job_each), and each child dies in its
    # second: worker 0 runs on alone, then reaps both and raises the first
    # one's death
    pin_workers(3)
    caller, done = os.getpid(), []

    def job():
        done.append(1)
        if os.getpid() != caller and len(done) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.001)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="^worker 1 was killed by SIGKILL$"):
        network.run_jobs([job] * 200)
    assert time.monotonic() - t0 < 30
    assert len(done) == 196                 # each child claimed 2 of the 200 jobs
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_backprop_leaves_the_ones_columns_for_the_next_step(rng):
    # backprop writes each hidden delta over that layer's ones-extended input;
    # the ones column must come out 1, so a second step through the workspace
    # gets the bits of a fresh one
    sizes = (20, 32, 24, 16)
    ds = random_tuples(rng, 3000, 600)
    w1, w2 = rng.normal(scale=0.3, size=(2, network.param_count(sizes)))
    ws = network.Workspace(sizes, 250 * 11)
    first = ds.gather(rng.choice(len(ds), size=250, replace=False))
    second = ds.gather(rng.choice(len(ds), size=250, replace=False))
    training.contrastive_loss_and_wgrad(sizes, w1, first, "logistic", ws)
    assert all(np.all(buf[:, -1] == 1.0) for buf in ws.ins)
    loss, grad, _ = training.contrastive_loss_and_wgrad(sizes, w2, second, "logistic", ws)
    fresh = network.Workspace(sizes, 250 * 11)
    ref_loss, ref_grad, _ = training.contrastive_loss_and_wgrad(sizes, w2, second, "logistic",
                                                                fresh)
    assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()


def test_pack_lays_out_each_layer_as_weights_then_bias(rng):
    sizes = (5, 4, 3, 2)
    w = rng.standard_normal(network.param_count(sizes))
    mats = network.pack(sizes, w)
    for (w_sl, b_sl), m, fan_in, fan_out in zip(network._layer_slices(sizes), mats, sizes,
                                                sizes[1:]):
        # [W^T; b]: a C-contiguous (fan_in + 1, fan_out) matrix, the bias its last row
        want = np.vstack((w[w_sl].reshape(fan_out, fan_in).T, w[b_sl]))
        assert m.shape == want.shape and np.array_equal(m, want) and m.flags.c_contiguous
    assert network.pack(sizes, mats) is mats
    # the workspace packs the same vector into its own buffer
    ws = network.Workspace(sizes, 4, forward_only=True)
    network.forward_cached(sizes, w, rng.standard_normal((4, 5)), ws, np.empty((4, 2)))
    assert all(np.array_equal(a, b) for a, b in zip(ws.mats, mats))


def test_forward_without_workspace_matches_allocating_math(rng):
    x = rng.standard_normal((300, 20))
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    d_out = rng.standard_normal((300, 16))
    out, cache = network.forward_cached(ACCEPTANCE_SIZES, w, x)
    ref_out, ref_cache = alloc_forward_cached(ACCEPTANCE_SIZES, w, x)
    # each layer input carries a column of ones, the output none
    assert all(np.array_equal(a[:, :-1], b) and np.all(a[:, -1] == 1.0)
               for a, b in zip(cache[:-1], ref_cache[:-1]))
    assert np.array_equal(cache[-1], ref_cache[-1])
    assert np.array_equal(network.backprop(ACCEPTANCE_SIZES, w, cache, d_out),
                          alloc_backprop(ACCEPTANCE_SIZES, w, ref_cache, d_out))


@pytest.mark.parametrize("rows", [76, 77, 1000, 1023, network.CHUNK_ROWS,
                                  1375, 2047, 2750])
def test_folded_forward_matches_the_bias_add_math(rng, rows):
    # each acceptance layer, 20 -> 32 with ReLU and 32 -> 16, against x @ W.T
    # + b on the same layer input, bit for bit, at the heights the package
    # runs: Monte Carlo and forward chunks (1,023 to 2,047 rows, as the last
    # chunk takes the remainder), training shards (1,375) and a whole batch
    # (2,750). The workspace is a batch high, so every height but the last is
    # a partial buffer
    ws = network.Workspace(ACCEPTANCE_SIZES, 2750, forward_only=True)
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    x = rng.standard_normal((rows, 20))
    out, cache = network.forward_cached(ACCEPTANCE_SIZES, w, x, ws, np.empty((rows, 16)))
    for li, (w_sl, b_sl) in enumerate(ws.slices):
        fan_in, fan_out = ACCEPTANCE_SIZES[li], ACCEPTANCE_SIZES[li + 1]
        z = cache[li][:, :-1] @ w[w_sl].reshape(fan_out, fan_in).T + w[b_sl]
        want = np.maximum(z, 0.0) if li == 0 else z
        got = cache[li + 1][:, :-1] if li == 0 else out
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), li
    assert np.array_equal(cache[0][:, :-1], x) and np.all(cache[0][:, -1] == 1.0)
    # rows already loaded into the workspace skip the copy and keep the bits
    again = network.forward_cached(ACCEPTANCE_SIZES, network.pack(ACCEPTANCE_SIZES, w),
                                   ws.load(x), ws, np.empty((rows, 16)))[0]
    assert np.array_equal(again.view(np.int64), out.view(np.int64))


def test_forward_reuses_a_given_workspace_with_the_same_bits(rng):
    # 2,500 rows: chunks of 1,024 and 1,476, so the workspace is 1,476 high
    x = rng.standard_normal((2500, 20))
    ws = network.Workspace(ACCEPTANCE_SIZES, 1476, forward_only=True)
    for _ in range(2):
        w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
        want = network.forward(ACCEPTANCE_SIZES, w, x)
        got = network.forward(ACCEPTANCE_SIZES, w, x, ws=ws)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gemv_bias_grads_match_row_sums(rng):
    # both widths (32 hidden, 16 out), a full batch of 250 tuples and a partial
    # last one of 200 through one workspace; the weight gradients do not read
    # the bias gradients, so they keep the bits of the summing backprop
    ws = network.Workspace(ACCEPTANCE_SIZES, 2750)
    w = rng.normal(scale=0.3, size=network.param_count(ACCEPTANCE_SIZES))
    for rows in (2750, 2200):
        x = rng.standard_normal((rows, 20))
        d_out = rng.standard_normal((rows, 16))
        _, cache = network.forward_cached(ACCEPTANCE_SIZES, w, x, ws)
        inputs = [a.copy() for a in cache[:-1]]     # backprop writes deltas over them
        grad = network.backprop(ACCEPTANCE_SIZES, w, cache, d_out, ws)
        cache = inputs
        ref = np.zeros_like(w)
        scale = np.zeros_like(w)
        delta = d_out
        for li in (1, 0):
            w_sl, b_sl = ws.slices[li]
            if li == 0:
                delta = (delta @ w[ws.slices[1][0]].reshape(16, 32)) * (cache[1][:, :-1] > 0.0)
            ref[w_sl] = (delta.T @ cache[li][:, :-1]).ravel()
            ref[b_sl] = np.sum(delta, axis=0)
            scale[b_sl] = np.sum(np.abs(delta), axis=0)
        for w_sl, b_sl in ws.slices:
            assert np.array_equal(grad[w_sl], ref[w_sl])
            # 1e-12 relative to the column's absolute sum, which bounds both roundings
            assert np.all(np.abs(grad[b_sl] - ref[b_sl]) <= 1e-12 * scale[b_sl])


def test_gather_into_index_buffers_matches_fancy_indexing(rng):
    # a full batch then a partial one through the same buffers, as train() runs them
    ds = random_tuples(rng, 3000, 600)
    index_out = ds.index_buffers(250)
    rows = np.empty((250 * 11, 20))
    for n in (250, 200):
        idx = rng.permutation(len(ds))[:n]
        ref = [ds.features[part[idx]] for part in (ds.anchors, ds.positives, ds.negatives)]
        tracemalloc.start()
        try:
            batch = ds.gather(idx, out=rows, index_out=index_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for buf, part in zip(index_out, (ds.anchors, ds.positives, ds.negatives)):
            assert buf[:n].tobytes() == part[idx].tobytes()
        for got, want in zip(batch, ref):
            assert got.tobytes() == want.tobytes()
        # the three fancy-indexed copies take 22 KB at n = 250
        assert peak < 4096
    for bad in ([len(ds)], [-1]):
        with pytest.raises(IndexError):
            ds.gather(np.array(bad), out=rows, index_out=index_out)


def test_row_chunks_fold_the_remainder():
    c = network.CHUNK_ROWS
    assert network.row_chunks(0) == [(0, 0)]
    assert network.row_chunks(c - 1) == [(0, c - 1)]
    assert network.row_chunks(2 * c + 75) == [(0, c), (c, 2 * c + 75)]
    assert network.row_chunks(3 * c) == [(0, c), (c, 2 * c), (2 * c, 3 * c)]


def test_warm_training_step_allocates_little(rng):
    # acceptance shapes: 20-32-16, batch 250, k=4, blocks of 2; theta, the
    # shards' workspaces and row buffers, optimizer state and step buffer are
    # train()'s, so a warmed step only makes small arrays
    ds = random_tuples(rng, 3000, 600)
    cfg = training.TrainConfig(layer_sizes=ACCEPTANCE_SIZES, k=4, block_size=2, batch_size=250)
    theta, post, prior = training.as_theta(
        *network.init_network(ACCEPTANCE_SIZES, cfg.sigma2_p_init, rng)
    )
    shards = training.ShardedLoss(ACCEPTANCE_SIZES, ds, 250, cfg.loss_kind, 1)
    objective, _ = training._step_objective(cfg, ACCEPTANCE_SIZES, post, prior, ds, shards)
    idx = np.arange(250)
    step = np.empty(theta.size)
    eps = np.empty(post.n_params)

    def loss_step():
        shards.gather(idx)
        return objective(rng.standard_normal(out=eps))[1]

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
        # the loss step alone peaks near 0.163 MB; a fresh eps per step (9.6
        # KB), a buffered np.take in the gather (0.34 MB) or (n, k, d)
        # temporaries for the margins or d_out (128 KB each) push it past 0.17 MB
        assert peak < 0.17 * (1 << 20), kind
        # no state, step or gradient array of n entries (theta has 2n + 1)
        assert update_peak < 8 * post.n_params, kind
