import dataclasses
import json
import math
import os

import numpy as np
import pytest

from pbcurl import bounds, data, divergences, losses, network, training

ADAM_UNIT_STEP = -0.09999999900000002    # g=1, lr=0.1, first step
RMSPROP_UNIT_STEP = -0.09999999000000095   # g=1, lr=0.01, first step


def make_iid_dataset(rng, m=60, n_classes=3, dim=3, k=2, block_size=2,
                     separation=5.0, std=0.3):
    model = data.random_gaussian_model(n_classes, dim, separation, std, rng)
    return data.sample_contrastive_iid(model, m, k, block_size, rng)


def make_noniid_dataset(rng, n_classes=3, dim=3, k=2, block_size=2, length=10,
                        n_per_class=3):
    model = data.random_gaussian_model(n_classes, dim, 5.0, 0.3, rng)
    seqs, labels = data.gen_sequences(model, n_per_class, length, 0.7, rng)
    return data.build_noniid_from_sequences(seqs, labels, k, block_size, rng)


def base_config(**over):
    kw = dict(
        layer_sizes=(3, 5, 2),
        objective="iid",
        k=2,
        block_size=2,
        epochs=3,
        batch_size=30,
        seed=5,
        lr=1e-3,
    )
    kw.update(over)
    return training.TrainConfig(**kw)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_depend_on_objective(rng):
    iid = base_config()
    assert iid.sigma2_p_init == pytest.approx(math.exp(-8.0), rel=0)
    dep = base_config(objective="noniid")
    assert dep.sigma2_p_init == pytest.approx(math.exp(-5.0), rel=0)


@pytest.mark.parametrize(
    "over",
    [
        {"layer_sizes": (4,)},
        {"objective": "nope"},
        {"optimizer": "adagrad"},
        {"loss_kind": "square"},
        {"valid_metric": "auc"},
        {"objective": "supervised"},
        {"lam": 0.0},
        {"lr": -1.0},
        {"loss_scale": 0.0},
        {"delta": 0.0},
        {"delta": 1.0},
        {"grid_c": -0.1},
        {"k": 0},
        {"epochs": 0},
        {"patience": 0},
        {"sigma2_p_init": 0.2},               # above grid_c
        {"sigma2_p_init": 0.1},               # grid top has j = 0 < 1
    ],
)
def test_config_rejects_bad_values(over):
    with pytest.raises(ValueError):
        base_config(**over)


def test_config_sigma2_window_edges():
    cap = 0.1 * math.exp(-1.0 / 100.0)
    base_config(sigma2_p_init=cap * 0.999)     # just inside
    with pytest.raises(ValueError):
        base_config(sigma2_p_init=cap)         # j = 1 boundary excluded
    with pytest.raises(ValueError):
        base_config(sigma2_p_init=0.0)


def test_config_dict_round_trip():
    cfg = base_config(optimizer="rmsprop", lam=2.5)
    back = training.TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


def test_config_from_dict_rejects_unknown_and_missing():
    with pytest.raises(ValueError) as exc:
        training.TrainConfig.from_dict({"layer_sizes": [3, 2], "learning_rate": 0.1})
    assert "unknown config fields" in str(exc.value)
    with pytest.raises(ValueError):
        training.TrainConfig.from_dict({"objective": "iid"})


# ---------------------------------------------------------------------------
# optimizers


def one_step(opt, g, lr):
    out = np.empty(len(g))
    opt.update(np.asarray(g, dtype=float), lr, out=out)
    return out


def test_adam_first_step_frozen():
    assert one_step(training.Adam(1), [1.0], 0.1)[0] == ADAM_UNIT_STEP


def test_rmsprop_first_step_frozen():
    assert one_step(training.RMSProp(1), [1.0], 0.01)[0] == RMSPROP_UNIT_STEP


def test_momentum_accumulates():
    opt = training.SGDMomentum(1)
    lr = 0.3
    d1 = one_step(opt, [1.0], lr)[0]
    d2 = one_step(opt, [1.0], lr)[0]
    assert d1 == pytest.approx(-lr, rel=0)
    assert d2 == pytest.approx(-1.9 * lr, rel=1e-15)
    assert d1 + d2 == pytest.approx(-2.9 * lr, rel=1e-15)


def test_zero_gradients_give_zero_steps():
    for kind in training.OPTIMIZERS:
        assert np.all(one_step(training.make_optimizer(kind, 3), np.zeros(3), 0.5) == 0.0)


def test_make_optimizer_unknown():
    with pytest.raises(ValueError):
        training.make_optimizer("lbfgs", 3)


class DictSGDMomentum:
    """Reference: the per-key update rules the flat optimizers replaced."""

    def __init__(self, beta=0.9):
        self.beta = beta
        self.v = {}

    def update(self, grads, lr):
        deltas = {}
        for key, g in grads.items():
            v = self.v.get(key, 0.0)
            v = self.beta * v + g
            self.v[key] = v
            deltas[key] = -lr * v
        return deltas


class DictRMSProp:
    def __init__(self, decay=0.99, eps=1e-8):
        self.decay = decay
        self.eps = eps
        self.s = {}

    def update(self, grads, lr):
        deltas = {}
        for key, g in grads.items():
            s = self.s.get(key, 0.0)
            s = self.decay * s + (1.0 - self.decay) * g * g
            self.s[key] = s
            deltas[key] = -lr * g / (np.sqrt(s) + self.eps)
        return deltas


class DictAdam:
    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, {}

    def update(self, grads, lr):
        deltas = {}
        for key, g in grads.items():
            t = self.t.get(key, 0) + 1
            m = self.beta1 * self.m.get(key, 0.0) + (1.0 - self.beta1) * g
            v = self.beta2 * self.v.get(key, 0.0) + (1.0 - self.beta2) * g * g
            self.t[key], self.m[key], self.v[key] = t, m, v
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            deltas[key] = -lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return deltas


DICT_OPTIMIZERS = {"sgd": DictSGDMomentum, "rmsprop": DictRMSProp, "adam": DictAdam}


@pytest.mark.parametrize("kind", training.OPTIMIZERS)
def test_flat_optimizer_bitwise_equal_to_per_key_rules(kind, rng):
    # theta's three groups as the reference saw them: 7 means, 7 log
    # variances, one prior entry; gradients with zeros, -0.0 and ~1e150
    sizes = (7, 7, 1)
    n = sum(sizes)
    flat, ref = training.make_optimizer(kind, n), DICT_OPTIMIZERS[kind]()
    out = np.empty(n)
    for t in range(50):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, size=n)
        g[rng.random(n) < 0.2] = 0.0
        g[rng.random(n) < 0.1] = -0.0
        huge = rng.random(n) < 0.1
        g[huge] = rng.uniform(0.5, 2.0, size=int(huge.sum())) * 1e150
        lr = 1e-3 if t < 30 else 1e-4
        flat.update(g, lr, out=out)
        parts = np.split(g, np.cumsum(sizes)[:-1])
        want = ref.update(dict(zip(("mu_q", "log_s2_q", "log_s2_p"), parts)), lr)
        expect = np.concatenate(list(want.values()))
        assert np.array_equal(out.view(np.int64), expect.view(np.int64)), t


# ---------------------------------------------------------------------------
# objectives


def test_iid_objective_assembly(rng):
    ds = make_iid_dataset(rng)
    layer_sizes = (3, 5, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0), rng)
    post.mu = post.mu + 0.1 * rng.standard_normal(post.n_params)
    eps = network.sample_eps(post.n_params, rng)
    batch = ds.gather(np.arange(20))
    lam, m = 1.5, 500
    value, grads, stats = training.iid_objective(
        layer_sizes, post, prior, batch, eps,
        lam=lam, m=m, grid_b=100.0, grid_c=0.1, loss_kind="logistic",
    )
    kl = divergences.kl_gaussian(post.mu, post.log_sigma2, prior.mu, prior.log_sigma2)
    j = bounds.j_index(100.0, 0.1, prior.log_sigma2)
    assert stats["kl"] == pytest.approx(kl, rel=1e-14)
    assert value == pytest.approx(lam * m * stats["loss"] + kl + 2.0 * math.log(j), rel=1e-14)
    assert grads.shape == (2 * post.n_params + 1,)
    kl_ls_p = divergences.kl_gaussian_grads(
        post.mu, post.log_sigma2, prior.mu, prior.log_sigma2
    )[2]
    assert grads[-1] == kl_ls_p - 2.0 / (math.log(0.1) - prior.log_sigma2)


def test_iid_objective_at_initialisation(rng):
    # posterior equals prior: no divergence, only the scaled loss and 2 log j
    ds = make_iid_dataset(rng)
    layer_sizes = (3, 4, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0), rng)
    eps = np.zeros(post.n_params)
    batch = ds.gather(np.arange(len(ds)))
    value, _, stats = training.iid_objective(
        layer_sizes, post, prior, batch, eps,
        lam=1.0, m=len(ds), grid_b=100.0, grid_c=0.1, loss_kind="logistic",
    )
    assert stats["kl"] == pytest.approx(0.0, abs=1e-12)
    j0 = 100.0 * (math.log(0.1) + 8.0)
    assert value == pytest.approx(len(ds) * stats["loss"] + 2.0 * math.log(j0), rel=1e-12)
    # eps = 0 evaluates the mean network
    loss_map = training.map_dataset_loss(layer_sizes, post.mu, ds, "logistic")
    assert stats["loss"] == pytest.approx(loss_map, rel=1e-12)


def test_noniid_objective_assembly(rng):
    ds = make_noniid_dataset(rng)
    layer_sizes = (3, 4, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-5.0), rng)
    eps = np.zeros(post.n_params)
    batch = ds.gather(np.arange(len(ds)))
    m, delta, loss_sup = len(ds), 0.05, 4.0
    value, grads, stats = training.noniid_objective(
        layer_sizes, post, prior, batch, eps,
        m=m, delta=delta, dependency_t=ds.dependency_t, loss_sup=loss_sup,
        grid_b=100.0, grid_c=0.1, loss_kind="logistic",
    )
    # posterior equals prior: the chi-square vanishes and the penalty is exact
    j = 100.0 * (math.log(0.1) + 5.0)
    pen = math.pi * j * math.sqrt(
        loss_sup**2 * (1 + 8 * ds.dependency_t) / (24 * m * delta)
    )
    assert stats["chi2_log1p"] == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(stats["loss"] + pen, rel=1e-10)
    assert grads.shape == (2 * post.n_params + 1,)


def test_noniid_objective_overflow_returns_inf(rng):
    ds = make_noniid_dataset(rng)
    layer_sizes = (3, 4, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-5.0), rng)
    post.mu = post.mu + 60.0      # enormous divergence from the prior
    eps = np.zeros(post.n_params)
    batch = ds.gather(np.arange(10))
    value, grads, stats = training.noniid_objective(
        layer_sizes, post, prior, batch, eps,
        m=len(ds), delta=0.05, dependency_t=ds.dependency_t, loss_sup=4.0,
        grid_b=100.0, grid_c=0.1, loss_kind="logistic",
    )
    assert value == math.inf
    assert grads is None
    assert stats["chi2_log1p"] > 700.0


# ---------------------------------------------------------------------------
# the training loop


def test_train_objective_decreases(rng):
    ds = make_iid_dataset(rng, m=120, separation=6.0)
    cfg = base_config(epochs=15, batch_size=40, lr=5e-3)
    rec = training.train(cfg, ds)
    assert not rec.aborted
    curve = [e["train_objective"] for e in rec.epochs]
    assert min(curve) < curve[0]
    assert rec.stopped_epoch == 15 and rec.best_epoch == 15


def test_train_is_deterministic(rng):
    ds = make_iid_dataset(rng, m=50)
    cfg = base_config(epochs=4)
    r1 = training.train(cfg, ds)
    r2 = training.train(cfg, ds)
    assert np.array_equal(r1.final_posterior.mu, r2.final_posterior.mu)
    assert np.array_equal(r1.final_posterior.log_sigma2, r2.final_posterior.log_sigma2)
    assert [e["train_objective"] for e in r1.epochs] == [
        e["train_objective"] for e in r2.epochs
    ]


def test_train_lambda_and_loss_scale_commute_bitwise(rng):
    # lam * (m * loss) and m * (lam * loss) round identically when the scale
    # is a power of two, so the two runs must coincide to the last bit
    ds = make_iid_dataset(rng, m=50)
    cfg_a = base_config(epochs=3, lam=2.0, loss_scale=1.0)
    cfg_b = base_config(epochs=3, lam=1.0, loss_scale=2.0)
    ra = training.train(cfg_a, ds)
    rb = training.train(cfg_b, ds)
    assert not ra.aborted and not rb.aborted
    assert np.array_equal(ra.final_posterior.mu, rb.final_posterior.mu)
    assert np.array_equal(ra.final_posterior.log_sigma2, rb.final_posterior.log_sigma2)
    assert ra.final_prior.log_sigma2 == rb.final_prior.log_sigma2
    assert [e["train_objective"] for e in ra.epochs] == [
        e["train_objective"] for e in rb.epochs
    ]


def test_train_learning_rate_drop(rng):
    ds = make_iid_dataset(rng, m=30)
    cfg = base_config(epochs=4, lr=2e-3, lr_drop_frac=0.75)
    rec = training.train(cfg, ds)
    lrs = [e["lr"] for e in rec.epochs]
    assert lrs == [2e-3, 2e-3, 2e-4, 2e-4]   # drop at ceil(0.75 * 4) = 3


def test_train_early_stopping_keeps_best_epoch(rng, tmp_path):
    ds = make_iid_dataset(rng, m=100, separation=6.0)
    valid = make_iid_dataset(rng, m=60, separation=6.0)
    cfg = base_config(epochs=40, patience=2, lr=5e-3, n_valid_samples=1,
                      valid_metric="mc")
    rec = training.train(cfg, ds, valid, run_dir=str(tmp_path), run_id="es")
    assert not rec.aborted
    assert rec.mode == "valid-mc"
    metrics = [e["valid_mc"] for e in rec.epochs]
    assert rec.stopped_epoch < 40                       # noisy metric stalls early
    assert rec.best_epoch == int(np.argmin(metrics)) + 1
    assert rec.metric == min(metrics)
    # the checkpoint stores the best epoch's posterior, not the last one
    ckpt = network.load_checkpoint(os.path.join(str(tmp_path), "es.ckpt.json"))
    assert ckpt.epoch == rec.best_epoch
    assert np.array_equal(ckpt.posterior.mu, rec.final_posterior.mu)


def test_train_without_valid_uses_final_epoch(rng, tmp_path):
    ds = make_iid_dataset(rng, m=40)
    cfg = base_config(epochs=2)
    rec = training.train(cfg, ds, run_dir=str(tmp_path), run_id="final")
    assert rec.mode == "pb"
    assert rec.best_epoch == rec.stopped_epoch == 2
    assert rec.metric is None
    assert rec.checkpoint_path.endswith("final.ckpt.json")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nan_without_checkpoint(rng, tmp_path):
    ds = make_iid_dataset(rng, m=20)
    ds.features[0, 0] = math.nan
    cfg = base_config(epochs=2)
    rec = training.train(cfg, ds, run_dir=str(tmp_path), run_id="bad")
    assert rec.aborted
    assert "NaN" in rec.abort_reason
    assert rec.checkpoint_path is None
    assert not os.path.exists(os.path.join(str(tmp_path), "bad.ckpt.json"))


def test_train_clamps_prior_to_grid_interior(rng, tmp_path):
    ds = make_iid_dataset(rng, m=30)
    cap = 0.1 * math.exp(-1.0 / 100.0)
    cfg = base_config(epochs=3, sigma2_p_init=cap * 0.999, lr=0.05)
    rec = training.train(cfg, ds)
    assert not rec.aborted
    assert rec.extras["clamp_count"] >= 1
    assert rec.final_prior.sigma2 <= cap * (1.0 + 1e-9)
    assert bounds.j_index(100.0, 0.1, rec.final_prior.log_sigma2) >= 1.0 - 1e-9
    # the counter reaches runs.jsonl; the posterior and prior arrays do not
    training.grid_search([cfg], ["pb"], ds, None, str(tmp_path))
    (doc,) = [json.loads(l) for l in open(tmp_path / "runs.jsonl")]
    assert doc["extras"]["clamp_count"] == rec.extras["clamp_count"]
    assert "final_posterior" not in doc and "final_prior" not in doc


def test_train_erm_keeps_variances_fixed(rng):
    ds = make_iid_dataset(rng, m=40)
    cfg = base_config(objective="erm", epochs=3)
    rec = training.train(cfg, ds)
    assert not rec.aborted
    assert np.all(rec.final_posterior.log_sigma2 == math.log(cfg.sigma2_p_init))


@pytest.mark.parametrize("objective, terms", [
    ("iid", {"loss", "kl"}),
    ("noniid", {"loss", "chi2_log1p", "penalty", "loss_sup"}),
    ("erm", {"loss"}),
])
def test_epoch_log_splits_the_objective(rng, objective, terms):
    ds = make_noniid_dataset(rng) if objective == "noniid" else make_iid_dataset(rng, m=60)
    cfg = base_config(objective=objective, epochs=3, batch_size=20)
    rec = training.train(cfg, ds)
    assert not rec.aborted
    base = {"epoch", "lr", "train_objective", "rejections", "log_sigma2_p"}
    for entry in rec.epochs:
        assert set(entry) == base | terms
        assert all(isinstance(entry[key], float) for key in terms | {"log_sigma2_p"})
    assert rec.epochs[-1]["log_sigma2_p"] == rec.final_prior.log_sigma2
    assert type(rec.final_prior.log_sigma2) is float
    if objective == "erm":
        # value and loss coincide, so their epoch means must too
        assert [e["loss"] for e in rec.epochs] == [e["train_objective"] for e in rec.epochs]
        assert rec.epochs[-1]["log_sigma2_p"] == math.log(cfg.sigma2_p_init)
    else:
        assert rec.epochs[-1]["log_sigma2_p"] != math.log(cfg.sigma2_p_init)


# ---------------------------------------------------------------------------
# certificates


def test_selection_certificate_untrained_iid(rng):
    ds = make_iid_dataset(rng, m=80)
    layer_sizes = (3, 5, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0), rng)
    rep = training.selection_certificate(
        layer_sizes, post, prior, ds,
        grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind="logistic",
        objective="iid", n_samples=4, rng=rng,
    )
    assert rep.bound_kind == "iid-selection"
    assert rep.divergence_value == 0.0    # posterior equals prior at init
    assert rep.empirical_risk == pytest.approx(
        np.mean(rep.extras["risk_per_draw"]), rel=1e-12
    )
    expect, lam = bounds.selection_bound_iid(
        rep.empirical_risk, 0.0, rep.j, len(ds), 0.05
    )
    assert rep.bound_value == pytest.approx(expect, rel=1e-12)
    assert rep.lam == pytest.approx(lam, rel=1e-9)
    assert len(rep.extras["risk_per_draw"]) == 4


def test_selection_certificate_noniid(rng):
    ds = make_noniid_dataset(rng)
    layer_sizes = (3, 4, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-5.0), rng)
    post.mu = post.mu + 0.01 * rng.standard_normal(post.n_params)
    rep = training.selection_certificate(
        layer_sizes, post, prior, ds,
        grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind="logistic",
        objective="noniid", n_samples=3, rng=rng,
    )
    assert rep.bound_kind == "noniid-selection"
    assert rep.dependency_t == ds.dependency_t == 2
    expect = bounds.selection_bound_noniid(
        rep.empirical_risk, rep.j, rep.extras["chi2_log1p"], len(ds), 0.05, 2
    )
    assert rep.bound_value == pytest.approx(expect, rel=1e-12)


def test_loss_certificate_iid_requires_lambda_and_tau(rng):
    ds = make_iid_dataset(rng, m=40)
    layer_sizes = (3, 5, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0), rng)
    with pytest.raises(ValueError) as exc:
        training.loss_certificate(
            layer_sizes, post, prior, ds,
            grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind="logistic",
            objective="iid", n_samples=2, rng=rng,
        )
    assert "lambda" in str(exc.value)

    bare = dataclasses.replace(ds, provenance={})
    with pytest.raises(ValueError) as exc:
        training.loss_certificate(
            layer_sizes, post, prior, bare,
            grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind="logistic",
            objective="iid", n_samples=2, rng=rng, lam=1.0,
        )
    assert "tau" in str(exc.value)


def test_loss_certificate_iid_consistent(rng):
    ds = make_iid_dataset(rng, m=60)
    layer_sizes = (3, 5, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0), rng)
    rep = training.loss_certificate(
        layer_sizes, post, prior, ds,
        grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind="logistic",
        objective="iid", n_samples=3, rng=rng, lam=2.0,
    )
    assert rep.tau == ds.provenance["tau"]
    assert rep.loss_sup == losses.loss_range("logistic", rep.feature_bound, ds.k)
    expect = bounds.iid_supervised_bound(
        rep.empirical_risk, rep.divergence_value, len(ds), 2.0, 0.05, rep.tau,
        rep.loss_sup,
    )
    assert rep.bound_value == pytest.approx(expect, rel=1e-12)


def test_loss_certificate_noniid_consistent(rng):
    ds = make_noniid_dataset(rng)
    layer_sizes = (3, 4, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-5.0), rng)
    rep = training.loss_certificate(
        layer_sizes, post, prior, ds,
        grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind="hinge",
        objective="noniid", n_samples=3, rng=rng,
    )
    assert rep.bound_kind == "noniid-loss"
    expect = bounds.noniid_bound(
        rep.empirical_risk, rep.j, rep.extras["chi2_log1p"], len(ds), 0.05,
        ds.dependency_t, rep.loss_sup,
    )
    assert rep.bound_value == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_artifacts(rng, tmp_path):
    ds = make_iid_dataset(rng, m=80, separation=6.0)
    valid = make_iid_dataset(rng, m=40, separation=6.0)
    configs = [
        base_config(epochs=2, lr=2e-3, seed=1),
        base_config(epochs=2, lr=1e-3, seed=2),
    ]
    out = str(tmp_path / "grid")
    best = training.grid_search(configs, list(training.CRITERIA), ds, valid, out)
    assert set(best) == set(training.CRITERIA)

    lines = [json.loads(l) for l in open(os.path.join(out, "runs.jsonl"))]
    assert len(lines) == 6
    modes = {rec["mode"] for rec in lines}
    assert modes == {"valid-mc", "valid-map", "pb"}
    for rec in lines:
        assert not rec["aborted"]
        assert rec["metric"] is not None

    pb_best = best["pb"]
    assert pb_best.selection is not None
    assert pb_best.metric == pb_best.selection["bound_value"]
    # pb training folds the validation split into the certificate sample
    assert pb_best.selection["m"] == len(ds) + len(valid)

    header, *rows = open(os.path.join(out, "leaderboard.csv")).read().splitlines()
    assert header == "criterion,rank,run_id,metric,checkpoint"
    assert len(rows) == 6
    for crit in training.CRITERIA:
        ranked = [r for r in rows if r.startswith(crit + ",")]
        metrics = [float(r.split(",")[3].strip("'")) for r in ranked]
        assert metrics == sorted(metrics)
        ckpt = ranked[0].split(",")[4]
        assert os.path.exists(ckpt)


def test_grid_search_restricted_criteria(rng, tmp_path):
    ds = make_iid_dataset(rng, m=40)
    best = training.grid_search(
        [base_config(epochs=1)], ["pb"], ds, None, str(tmp_path / "g2")
    )
    assert set(best) == {"pb"}
    with pytest.raises(ValueError):
        training.grid_search([base_config()], ["holdout"], ds, None, str(tmp_path / "g3"))
