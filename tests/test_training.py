import dataclasses
import json
import math
import os
import pathlib
import signal

import numpy as np
import pytest

from conftest import record_calls
from pbcurl import bounds, data, divergences, evaluation, losses, network, training
from test_network import random_tuples

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
        {"n_valid_samples": 0},
        {"objective": "supervised"},
        {"lam": 0.0},
        {"lr": -1.0},
        {"grid_b": 0.0},
        {"delta": 0.0},
        {"delta": 1.0},
        {"grid_c": -0.1},
        {"k": 0},
        {"epochs": 0},
        {"patience": 0},
        {"sigma2_p_init": 0.2},               # above grid_c
        {"sigma2_p_init": 0.1},               # grid top has j = 0 < 1
        {"grid_b": None},                     # the certificate settings are numbers
        {"grid_c": math.inf},
        {"delta": "0.05"},
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


def batch_loss(layer_sizes, batch):
    """An objective's loss_and_wgrad: the logistic loss of one gathered batch, in one piece."""
    return lambda w: training.contrastive_loss_and_wgrad(layer_sizes, w, batch, "logistic")[:2]


def test_iid_objective_assembly(rng):
    ds = make_iid_dataset(rng)
    layer_sizes = (3, 5, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0), rng)
    post.mu = post.mu + 0.1 * rng.standard_normal(post.n_params)
    eps = network.sample_eps(post.n_params, rng)
    batch = ds.gather(np.arange(20))
    lam, m = 1.5, 500
    value, grads, stats = training.iid_objective(
        layer_sizes, post, prior, batch_loss(layer_sizes, batch), eps,
        lam=lam, m=m, grid_b=100.0, grid_c=0.1,
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
        layer_sizes, post, prior, batch_loss(layer_sizes, batch), eps,
        lam=1.0, m=len(ds), grid_b=100.0, grid_c=0.1,
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
        layer_sizes, post, prior, batch_loss(layer_sizes, batch), eps,
        m=m, delta=delta, dependency_t=ds.dependency_t, loss_sup=loss_sup,
        grid_b=100.0, grid_c=0.1,
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
        layer_sizes, post, prior, batch_loss(layer_sizes, batch), eps,
        m=len(ds), delta=0.05, dependency_t=ds.dependency_t, loss_sup=4.0,
        grid_b=100.0, grid_c=0.1,
    )
    assert value == math.inf
    assert grads is None
    assert stats["chi2_log1p"] > 700.0


# ---------------------------------------------------------------------------
# the training loop


def test_train_objective_decreases(rng):
    ds = make_iid_dataset(rng, m=120, separation=6.0)
    cfg = base_config(epochs=15, batch_size=40, lr=5e-3)
    rec = training.train(cfg, ds)["pb"]
    assert not rec.aborted
    curve = [e["train_objective"] for e in rec.epochs]
    assert min(curve) < curve[0]
    assert rec.stopped_epoch == 15 and rec.best_epoch == 15


def test_train_is_deterministic(rng):
    ds = make_iid_dataset(rng, m=50)
    cfg = base_config(epochs=4)
    r1 = training.train(cfg, ds)["pb"]
    r2 = training.train(cfg, ds)["pb"]
    assert np.array_equal(r1.final_posterior.mu, r2.final_posterior.mu)
    assert np.array_equal(r1.final_posterior.log_sigma2, r2.final_posterior.log_sigma2)
    assert [e["train_objective"] for e in r1.epochs] == [
        e["train_objective"] for e in r2.epochs
    ]


def test_train_learning_rate_drop(rng):
    ds = make_iid_dataset(rng, m=30)
    cfg = base_config(epochs=4, lr=2e-3, lr_drop_frac=0.75)
    rec = training.train(cfg, ds)["pb"]
    lrs = [e["lr"] for e in rec.epochs]
    assert lrs == [2e-3, 2e-3, 2e-4, 2e-4]   # drop at ceil(0.75 * 4) = 3


def test_train_early_stopping_keeps_best_epoch(rng, tmp_path):
    ds = make_iid_dataset(rng, m=100, separation=6.0)
    valid = make_iid_dataset(rng, m=60, separation=6.0)
    cfg = base_config(epochs=40, patience=2, lr=5e-3, n_valid_samples=1)
    rec = training.train(
        cfg, ds, valid, ["s-valid"], run_dir=str(tmp_path), run_id="es"
    )["s-valid"]
    assert not rec.aborted
    assert rec.mode == "valid-mc"
    metrics = [e["valid_mc"] for e in rec.epochs]
    assert rec.stopped_epoch < 40                       # noisy metric stalls early
    assert rec.best_epoch == int(np.argmin(metrics)) + 1
    assert rec.metric == min(metrics)
    # the checkpoint stores the best epoch's posterior, not the last one
    ckpt = network.load_checkpoint(os.path.join(str(tmp_path), "es-s-valid.ckpt.json"))
    assert ckpt.epoch == rec.best_epoch
    assert np.array_equal(ckpt.posterior.mu, rec.final_posterior.mu)


def stopping_problem():
    """A config and splits where s-valid stops at epoch 4 and det-valid at 8."""
    rng = np.random.default_rng(3)
    ds = make_iid_dataset(rng, m=100, separation=6.0)
    valid = make_iid_dataset(rng, m=60, separation=6.0)
    return base_config(epochs=40, patience=2, lr=5e-3, n_valid_samples=1), ds, valid


def without_times(epochs):
    return [{key: val for key, val in e.items() if key != "time"} for e in epochs]


def test_train_shared_run_matches_single_criterion_runs(tmp_path):
    cfg, ds, valid = stopping_problem()
    shared = training.train(cfg, ds, valid, training.VALID_CRITERIA,
                            run_dir=str(tmp_path / "both"), run_id="r")
    assert list(shared) == ["s-valid", "det-valid"]
    assert (shared["s-valid"].stopped_epoch, shared["det-valid"].stopped_epoch) == (4, 8)
    for criterion, both in shared.items():
        alone = training.train(cfg, ds, valid, [criterion],
                               run_dir=str(tmp_path / criterion), run_id="r")[criterion]
        assert both.run_id == alone.run_id == f"r-{criterion}"
        if criterion == "det-valid":    # a det-valid run alone draws no valid_mc
            assert all(e["valid_mc"] is None for e in alone.epochs)
            for e in both.epochs:
                e["valid_mc"] = None
        assert without_times(both.epochs) == without_times(alone.epochs)
        assert (both.stopped_epoch, both.best_epoch, both.metric, both.extras) == (
            alone.stopped_epoch, alone.best_epoch, alone.metric, alone.extras)
        with open(both.checkpoint_path, "rb") as fa, open(alone.checkpoint_path, "rb") as fb:
            assert fa.read() == fb.read()


def test_det_valid_alone_draws_no_posterior_risk(tmp_path, monkeypatch):
    cfg, ds, valid = stopping_problem()
    shared = training.train(cfg, ds, valid, training.VALID_CRITERIA,
                            run_dir=str(tmp_path / "both"), run_id="r")["det-valid"]
    draws, mc_posterior_risk = [], evaluation.mc_posterior_risk
    monkeypatch.setattr(evaluation, "mc_posterior_risk",
                        lambda *args: draws.append(1) or mc_posterior_risk(*args))
    alone = training.train(cfg, ds, valid, ["det-valid"],
                           run_dir=str(tmp_path / "alone"), run_id="r")["det-valid"]
    assert draws == []
    assert [e["valid_mc"] for e in alone.epochs] == [None] * alone.stopped_epoch
    # the shared run draws valid_mc, as every det-valid run once did: the
    # skipped draws change no checkpoint byte
    with open(shared.checkpoint_path, "rb") as fa, open(alone.checkpoint_path, "rb") as fb:
        assert fa.read() == fb.read()


def test_train_stops_when_its_criteria_have_closed(monkeypatch):
    cfg, ds, valid = stopping_problem()
    passes = []
    map_loss = training.map_dataset_loss
    monkeypatch.setattr(training, "map_dataset_loss",
                        lambda *args: passes.append(1) or map_loss(*args))
    rec = training.train(cfg, ds, valid, ["s-valid"])["s-valid"]
    assert rec.stopped_epoch == len(rec.epochs) == len(passes) == 4
    passes.clear()
    training.train(cfg, ds, valid, training.VALID_CRITERIA)
    assert len(passes) == 8


def test_train_abort_spares_a_criterion_that_already_stopped(monkeypatch, tmp_path):
    cfg, ds, valid = stopping_problem()
    clean = training.train(cfg, ds, valid, training.VALID_CRITERIA)["s-valid"]
    steps_per_epoch = math.ceil(len(ds) / cfg.batch_size)
    objective, calls = training.iid_objective, []

    def nan_after_epoch_4(*args, **kwargs):
        value, grad, stats = objective(*args, **kwargs)
        calls.append(1)
        return (math.nan if len(calls) > 4 * steps_per_epoch else value), grad, stats

    monkeypatch.setattr(training, "iid_objective", nan_after_epoch_4)
    recs = training.train(cfg, ds, valid, training.VALID_CRITERIA,
                          run_dir=str(tmp_path), run_id="r")
    s_valid, det_valid = recs["s-valid"], recs["det-valid"]
    assert not s_valid.aborted
    assert (s_valid.stopped_epoch, s_valid.best_epoch, s_valid.metric) == (
        clean.stopped_epoch, clean.best_epoch, clean.metric)
    assert network.load_checkpoint(s_valid.checkpoint_path).epoch == clean.best_epoch
    assert det_valid.aborted
    assert det_valid.abort_reason == "objective is NaN at epoch 5 step 0"
    assert det_valid.stopped_epoch == 4
    assert det_valid.checkpoint_path is None
    assert not (tmp_path / "r-det-valid.ckpt.json").exists()


def test_train_criteria_must_match_the_splits(rng):
    ds = make_iid_dataset(rng, m=20)
    cfg = base_config(epochs=1)
    for valid, criteria in ((None, ["s-valid"]), (ds, ["pb"]), (ds, [])):
        with pytest.raises(ValueError, match="validation split"):
            training.train(cfg, ds, valid, criteria)


# ---------------------------------------------------------------------------
# the step's two shards, the second on a forked helper when two workers fit


def sharded_config(objective="iid", optimizer="adam", lr=1e-3, epochs=2):
    return training.TrainConfig(layer_sizes=(20, 32, 16), objective=objective,
                                optimizer=optimizer, lr=lr, epochs=epochs, batch_size=250)


def untimed_runs(path):
    """runs.jsonl's records without their timing fields."""
    docs = [json.loads(line) for line in open(path)]
    for doc in docs:
        del doc["wall_time"]
        for epoch in doc["epochs"]:
            del epoch["time"]
    return docs


# (objective, tuples, optimizer, lr): 17,200 tuples are 68 batches of 250 and
# one of 200; at lr 1 Adam overflows the chi-square penalty, so steps are
# rejected and retried; 251 tuples end on a batch of one, and a run of one
# tuple has no shard 1 at all
SHARDED_RUNS = {
    "iid-full-and-partial-batches": ("iid", 17_200, "adam", 1e-3),
    "noniid-rejected-steps": ("noniid", 600, "adam", 1.0),
    "erm": ("erm", 600, "adam", 1e-3),
    "one-tuple-last-batch": ("iid", 251, "sgd", 1e-3),
    "one-tuple-batches": ("iid", 1, "adam", 1e-3),
}


@pytest.mark.parametrize("run", SHARDED_RUNS.values(), ids=SHARDED_RUNS.keys())
def test_training_bytes_do_not_depend_on_the_worker_count(rng, pin_workers, monkeypatch, deadline,
                                                          tmp_path, run):
    objective, m, optimizer, lr = run
    ds = dataclasses.replace(random_tuples(rng, 20_000, m),
                             dependency_t=2 if objective == "noniid" else 0)
    cfg = sharded_config(objective, optimizer, lr)
    written = []
    for workers in (1, 2):
        pin_workers(workers)
        (tmp_path / str(workers)).mkdir()
        monkeypatch.chdir(tmp_path / str(workers))     # the same relative paths in both
        out = pathlib.Path("out")
        rec = training.grid_search([cfg], ["pb"], ds, None, str(out))["pb"]
        assert not rec.aborted
        assert [e["time"]["step_workers"] for e in rec.epochs] == [1 if m == 1 else workers] * 2
        written.append([untimed_runs(out / "runs.jsonl")] + [
            (out / name).read_bytes() for name in ("c000-pb.ckpt.json", "leaderboard.csv")])
    if objective == "noniid":
        assert sum(e["rejections"] for e in rec.epochs) > 0
    assert written[0] == written[1]


def test_an_aborted_run_stops_and_reaps_its_helper(rng, pin_workers, deadline):
    # SGD at lr 0.03 overflows the chi-square penalty until the retries run
    # out; the autouse fixture fails the test if the helper is left behind
    ds = dataclasses.replace(random_tuples(rng, 3000, 600), dependency_t=2)
    cfg = sharded_config("noniid", "sgd", 0.03, epochs=3)
    recs = []
    for workers in (1, 2):
        pin_workers(workers)
        recs.append(training.train(cfg, ds)["pb"])
    assert recs[1].aborted and recs[1].abort_reason.startswith("step rejected 40 times")
    assert recs[0].abort_reason == recs[1].abort_reason
    assert without_times(recs[0].epochs) == without_times(recs[1].epochs)


def fail_in_the_helper(monkeypatch, fail, call=3):
    """Patch contrastive_loss_and_wgrad to call fail() on its call-th call in
    any process but this one: the helper."""
    trainer, loss_and_wgrad, calls = os.getpid(), training.contrastive_loss_and_wgrad, []

    def failing(*args, **kwargs):
        if os.getpid() != trainer:
            calls.append(1)
            if len(calls) == call:
                fail()
        return loss_and_wgrad(*args, **kwargs)

    monkeypatch.setattr(training, "contrastive_loss_and_wgrad", failing)


def kill_myself():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_value_error():
    raise ValueError("bad shard")


@pytest.mark.parametrize("fail, message", [
    (kill_myself, "^worker 1 was killed by SIGKILL$"),
    (raise_value_error, "^worker 1 raised ValueError: bad shard$"),
], ids=["killed", "raises"])
def test_a_failed_helper_ends_the_run_with_an_error_naming_it(rng, pin_workers, monkeypatch,
                                                              deadline, tmp_path, fail, message):
    pin_workers(2)
    fail_in_the_helper(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=message):
        training.train(sharded_config(), random_tuples(rng, 3000, 600),
                       run_dir=str(tmp_path), run_id="r")
    assert list(tmp_path.iterdir()) == []       # no checkpoint of a broken run


def test_a_failed_fork_runs_both_shards_in_the_trainer(rng, pin_workers, monkeypatch, deadline):
    pin_workers(2)
    ds, cfg = random_tuples(rng, 3000, 600), sharded_config()
    forked = training.train(cfg, ds)["pb"]

    def no_fork():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", no_fork)
    here = training.train(cfg, ds)["pb"]
    assert [e["time"]["step_workers"] for e in (*forked.epochs, *here.epochs)] == [2, 2, 1, 1]
    assert without_times(forked.epochs) == without_times(here.epochs)
    assert forked.final_posterior.mu.tobytes() == here.final_posterior.mu.tobytes()
    assert (forked.final_posterior.log_sigma2.tobytes()
            == here.final_posterior.log_sigma2.tobytes())


def test_train_without_valid_uses_final_epoch(rng, tmp_path):
    ds = make_iid_dataset(rng, m=40)
    cfg = base_config(epochs=2)
    rec = training.train(cfg, ds, run_dir=str(tmp_path), run_id="final")["pb"]
    assert rec.mode == "pb"
    assert rec.best_epoch == rec.stopped_epoch == 2
    assert rec.metric is None
    assert rec.checkpoint_path.endswith("final-pb.ckpt.json")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nan_without_checkpoint(rng, tmp_path):
    ds = make_iid_dataset(rng, m=20)
    ds.features[0, 0] = math.nan
    cfg = base_config(epochs=2)
    rec = training.train(cfg, ds, run_dir=str(tmp_path), run_id="bad")["pb"]
    assert rec.aborted
    assert "NaN" in rec.abort_reason
    assert rec.checkpoint_path is None
    assert not os.path.exists(os.path.join(str(tmp_path), "bad-pb.ckpt.json"))


def test_train_clamps_prior_to_grid_interior(rng, tmp_path):
    ds = make_iid_dataset(rng, m=30)
    cap = 0.1 * math.exp(-1.0 / 100.0)
    cfg = base_config(epochs=3, sigma2_p_init=cap * 0.999, lr=0.05)
    rec = training.train(cfg, ds)["pb"]
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
    rec = training.train(cfg, ds)["pb"]
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
    rec = training.train(cfg, ds)["pb"]
    assert not rec.aborted
    base = {"epoch", "lr", "train_objective", "rejections", "log_sigma2_p", "time"}
    for entry in rec.epochs:
        assert set(entry) == base | terms
        assert all(isinstance(entry[key], float) for key in terms | {"log_sigma2_p"})
        phases = dict(entry["time"])
        # the processes the step ran on: the trainer, and a helper when two fit
        assert phases.pop("step_workers") == network.worker_count(2)
        assert set(phases) == {"gather_s", "objective_s", "update_s", "validation_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())
        assert phases["objective_s"] > 0.0
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


REPORT_KEYS = {
    "format", "bound_kind", "bound_value", "empirical_risk", "risk_kind", "loss_kind",
    "divergence_kind", "divergence_value", "j", "grid_b", "grid_c", "m", "delta",
    "n_risk_samples", "lambda", "tau", "loss_sup", "feature_bound", "dependency_t", "extras",
    "provenance",
}


@pytest.mark.parametrize("objective, risk", [
    ("iid", "zero-one"), ("iid", "loss"), ("noniid", "zero-one"), ("noniid", "loss"),
])
def test_certificate_recomputes_through_its_bound(rng, objective, risk):
    iid, loss = objective == "iid", risk == "loss"
    ds = make_iid_dataset(rng, m=80) if iid else make_noniid_dataset(rng)
    layer_sizes = (3, 5, 2) if iid else (3, 4, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0 if iid else -5.0), rng)
    if not iid:
        post.mu = post.mu + 0.01 * rng.standard_normal(post.n_params)
    loss_kind = "logistic" if iid else "hinge"
    # the chi-square loss certificate ignores lam
    certify, extra = ((training.loss_certificate, {"lam": 2.0}) if loss
                      else (training.selection_certificate, {}))
    rep = certify(
        layer_sizes, post, prior, ds,
        grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind=loss_kind,
        objective=objective, n_samples=4, rng=rng, **extra,
    )
    assert rep.bound_kind == f"{objective}-{'loss' if loss else 'selection'}"
    assert rep.risk_kind == risk and rep.m == len(ds) and rep.n_risk_samples == 4
    assert len(rep.extras["risk_per_draw"]) == 4
    assert rep.empirical_risk == pytest.approx(
        np.mean(rep.extras["risk_per_draw"]), rel=1e-12
    )
    j = bounds.j_index(100.0, 0.1, prior.log_sigma2)
    if iid and loss:
        assert rep.j == j                     # no union over j: the trained prior
    else:
        assert rep.j in (math.floor(j), math.ceil(j)) and type(rep.j) is int
    assert (rep.grid_b, rep.grid_c) == (100.0, 0.1)     # the grid j indexes
    if iid:
        assert rep.divergence_kind == "kl"
        if loss:
            assert rep.divergence_value == 0.0    # posterior equals prior at init
        else:                                     # against the grid prior at rep.j
            assert rep.divergence_value == divergences.kl_gaussian(
                post.mu, post.log_sigma2, prior.mu, math.log(0.1) - rep.j / 100.0)
        assert rep.dependency_t == 0          # the KL form's tuples are independent
        assert set(rep.extras) == {"risk_per_draw"}
    else:
        assert rep.divergence_kind == "chi2" and rep.divergence_value > 0.0
        assert rep.dependency_t == ds.dependency_t == 2
        assert set(rep.extras) == {"risk_per_draw", "chi2_log1p", "chi2_overflowed",
                                   "chi2_n_guarded"}
    if loss:
        assert rep.feature_bound > 0.0
        assert rep.loss_sup == losses.loss_range(loss_kind, rep.feature_bound, ds.k)
    else:
        assert rep.feature_bound is None and rep.loss_sup is None
    assert rep.tau == (ds.provenance["tau"] if iid and loss else None)

    if (objective, risk) == ("iid", "zero-one"):
        expect = bounds.selection_bound_iid(rep.empirical_risk, rep.divergence_value, rep.j,
                                            len(ds), 0.05)
    elif (objective, risk) == ("iid", "loss"):
        expect = bounds.iid_supervised_bound(
            rep.empirical_risk, rep.divergence_value, len(ds), 2.0, 0.05, rep.tau,
            rep.loss_sup,
        ), 2.0
    elif (objective, risk) == ("noniid", "zero-one"):
        expect = bounds.selection_bound_noniid(
            rep.empirical_risk, rep.j, rep.extras["chi2_log1p"], len(ds), 0.05, 2
        ), None
    else:
        expect = bounds.noniid_bound(
            rep.empirical_risk, rep.j, rep.extras["chi2_log1p"], len(ds), 0.05,
            ds.dependency_t, rep.loss_sup,
        ), None
    assert (rep.bound_value, rep.lam) == expect

    doc = rep.to_dict()
    assert set(doc) == REPORT_KEYS
    assert doc["format"] == "pbcurl-bound-v1" and doc["lambda"] == rep.lam


def grid_neighbour_bounds(form, risk, post, prior, ds, rep, grid_b=100.0, grid_c=0.1):
    """{j: bound} at the trained prior's integer neighbours on the grid, each
    with its divergence against that grid prior, from the bounds module alone."""
    j = bounds.j_index(grid_b, grid_c, prior.log_sigma2)
    out = {}
    for i in {max(1, math.floor(j)), max(1, math.ceil(j))}:
        log_s2 = math.log(grid_c) - i / grid_b
        if form == "iid":
            kl = divergences.kl_gaussian(post.mu, post.log_sigma2, prior.mu, log_s2)
            out[i] = bounds.selection_bound_iid(rep.empirical_risk, kl, i, rep.m, rep.delta)[0]
        else:
            log1p = divergences.chi2_gaussian(post.mu, post.log_sigma2, prior.mu, log_s2).log1p
            out[i] = bounds.noniid_bound(rep.empirical_risk, i, log1p, rep.m, rep.delta,
                                         ds.dependency_t, rep.loss_sup if risk == "loss" else 1.0)
    return out


@pytest.mark.parametrize("form, risk", [("iid", "zero-one"), ("noniid", "zero-one"),
                                        ("noniid", "loss")])
def test_union_certificates_take_the_better_integer_grid_neighbour(rng, form, risk):
    # the union over j covers j = 1, 2, ... only; a trained prior between two
    # grid points is certified at each, against that grid prior, and the
    # smaller bound is reported with its integer j
    ds = make_iid_dataset(rng, m=80) if form == "iid" else make_noniid_dataset(rng)
    layer_sizes = (3, 5, 2) if form == "iid" else (3, 4, 2)
    # j = 3.4, between 3 and 4; the posterior starts at the prior's variance
    post, prior = network.init_network(layer_sizes, 0.1 * math.exp(-3.4 / 100.0), rng)
    post.mu = post.mu + 0.05 * rng.standard_normal(post.n_params)
    assert bounds.j_index(100.0, 0.1, prior.log_sigma2) == pytest.approx(3.4)
    certify = training.selection_certificate if risk == "zero-one" else training.loss_certificate
    rep = certify(layer_sizes, post, prior, ds, grid_b=100.0, grid_c=0.1, delta=0.05,
                  loss_kind="logistic", objective=form, n_samples=3, rng=rng)
    by_j = grid_neighbour_bounds(form, risk, post, prior, ds, rep)
    assert sorted(by_j) == [3, 4] and by_j[3] != by_j[4]
    assert rep.j == min(by_j, key=by_j.get) and type(rep.j) is int
    assert rep.bound_value == by_j[rep.j]


@pytest.mark.parametrize("risk", ["zero-one", "loss"])
def test_noniid_certificate_at_the_clamp_cap_takes_j_one(rng, risk):
    # _clamp_prior's cap log c - 1/b gives j_index 1 - 2.1e-14, whose floor is
    # 0, outside the grid; both neighbours clip to j = 1, the cap's own prior
    ds = make_noniid_dataset(rng)
    post, prior = network.init_network((3, 4, 2), math.exp(-5.0), rng)
    post.mu = post.mu + 0.05 * rng.standard_normal(post.n_params)
    post.log_sigma2[:] = prior.log_sigma2 = math.log(0.1) - 1.0 / 100.0
    assert bounds.j_index(100.0, 0.1, prior.log_sigma2) < 1.0
    certify = training.selection_certificate if risk == "zero-one" else training.loss_certificate
    rep = certify((3, 4, 2), post, prior, ds, grid_b=100.0, grid_c=0.1, delta=0.05,
                  loss_kind="logistic", objective="noniid", n_samples=3, rng=rng)
    assert rep.j == 1 and type(rep.j) is int
    chi2 = divergences.chi2_gaussian(post.mu, post.log_sigma2, prior.mu, prior.log_sigma2)
    assert rep.extras["chi2_log1p"] == chi2.log1p         # the cap is the j = 1 grid prior
    assert rep.bound_value == grid_neighbour_bounds("noniid", risk, post, prior, ds, rep)[1]


@pytest.mark.parametrize("certify, over, message", [
    ("loss_certificate", {}, "needs lambda"),
    ("loss_certificate", {"lam": 1.0, "provenance": {}}, "needs tau"),
    ("loss_certificate", {"lam": 1.0, "n_samples": 0}, "n_samples must be >= 1"),
    ("selection_certificate", {"n_samples": 0}, "n_samples must be >= 1"),
    ("selection_certificate", {"n_samples": -1, "objective": "noniid"}, "n_samples must be >= 1"),
    ("selection_certificate", {"delta": 1.5}, r"delta must lie in \(0, 1\), got 1.5"),
    ("selection_certificate", {"delta": 0.0}, r"delta must lie in \(0, 1\), got 0.0"),
    ("loss_certificate", {"delta": 1.0, "objective": "noniid"}, r"delta must lie in \(0, 1\)"),
    ("selection_certificate", {"delta": math.nan}, r"delta must lie in \(0, 1\), got nan"),
    ("loss_certificate", {"lam": -1.0}, r"lambda must be > 0, got -1.0"),
    ("loss_certificate", {"lam": 0.0}, r"lambda must be > 0, got 0.0"),
    ("selection_certificate", {"dependency_t": 2}, "independent tuples.*dependency_t = 2"),
    ("loss_certificate", {"lam": 1.0, "objective": "erm", "dependency_t": 1},
     "independent tuples.*dependency_t = 1"),
], ids=["no-lambda", "no-tau", "loss-zero-samples", "zero-samples", "negative-samples",
        "delta-above-one", "delta-zero", "noniid-delta-one", "delta-nan", "negative-lambda",
        "zero-lambda", "kl-on-dependent-tuples", "erm-kl-loss-on-dependent-tuples"])
def test_certificate_checks_its_inputs_before_drawing(rng, monkeypatch, certify, over, message):
    def never(*args, **kwargs):
        raise AssertionError("the certificate did its work before checking its inputs")

    monkeypatch.setattr(evaluation, "mc_posterior_risk", never)
    monkeypatch.setattr(network, "feature_bound", never)
    ds = make_iid_dataset(rng, m=40)
    layer_sizes = (3, 5, 2)
    post, prior = network.init_network(layer_sizes, math.exp(-8.0), rng)
    kw = dict(grid_b=100.0, grid_c=0.1, delta=0.05, loss_kind="logistic", objective="iid",
              n_samples=2, rng=rng)
    kw.update(over)
    ds = dataclasses.replace(ds, provenance=kw.pop("provenance", ds.provenance),
                             dependency_t=kw.pop("dependency_t", ds.dependency_t))
    with pytest.raises(ValueError, match=message):
        getattr(training, certify)(layer_sizes, post, prior, ds, **kw)


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


def test_grid_search_trains_once_per_config_for_validation_criteria(rng, tmp_path,
                                                                   monkeypatch):
    ds = make_iid_dataset(rng, m=40)
    valid = make_iid_dataset(rng, m=20)
    configs = [base_config(epochs=2, seed=1), base_config(epochs=2, seed=2)]
    calls, train = [], training.train
    monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(1) or train(*a, **kw))
    training.grid_search(configs, ["s-valid", "det-valid"], ds, valid, str(tmp_path / "v"))
    assert len(calls) == 2
    calls.clear()
    out = tmp_path / "all"
    training.grid_search(configs, list(training.CRITERIA), ds, valid, str(out))
    assert len(calls) == 4
    # records come config by config
    run_ids = [json.loads(line)["run_id"] for line in open(out / "runs.jsonl")]
    assert run_ids == [f"c{gi:03d}-{c}" for gi in range(2) for c in training.CRITERIA]


@pytest.mark.parametrize("criteria", [["s-valid"], ["pb", "det-valid"]])
def test_grid_search_rejects_a_validation_criterion_without_a_split(rng, tmp_path, criteria):
    ds = make_iid_dataset(rng, m=40)
    out = tmp_path / "g"
    with pytest.raises(ValueError, match="needs a validation split in the dataset"):
        training.grid_search([base_config(epochs=1)], criteria, ds, None, str(out))
    assert not out.exists()         # no out_dir, no runs.jsonl


def test_grid_search_rejects_an_empty_criteria_list(rng, tmp_path):
    ds = make_iid_dataset(rng, m=40)
    out = tmp_path / "g"
    with pytest.raises(ValueError, match="criteria must name at least one"):
        training.grid_search([base_config(epochs=1)], [], ds, None, str(out))
    assert not out.exists()


def test_grid_search_restricted_criteria(rng, tmp_path):
    ds = make_iid_dataset(rng, m=40)
    best = training.grid_search(
        [base_config(epochs=1)], ["pb"], ds, None, str(tmp_path / "g2")
    )
    assert set(best) == {"pb"}
    with pytest.raises(ValueError):
        training.grid_search([base_config()], ["holdout"], ds, None, str(tmp_path / "g3"))


def test_grid_search_hashes_the_pb_data_once(rng, tmp_path, monkeypatch, pin_workers):
    # every pb run is certified on the same train + valid tuples, so one hash
    # serves the grid, and each selection block is still the one bound writes.
    # The hash is a job of the Monte Carlo pass, which either worker may take:
    # hashed counts the calls of every process
    pin_workers(2)
    ds, valid = make_iid_dataset(rng, m=40), make_iid_dataset(rng, m=20)
    configs = [base_config(epochs=1, seed=s) for s in (1, 2, 3)]
    hashed = record_calls(monkeypatch, tmp_path / "hashed", data, "dataset_hash",
                          lambda args: len(args[0]))
    training.grid_search(configs, ["pb"], ds, valid, str(tmp_path / "runs"))
    assert [tuples for _, tuples in hashed()] == [60]
    monkeypatch.undo()
    pb_data = data.concat_contrastive(ds, valid)
    records = [json.loads(line) for line in open(tmp_path / "runs" / "runs.jsonl")]
    assert len(records) == 3
    for cfg, rec in zip(configs, records):
        report = training.certify_checkpoint(rec["checkpoint_path"], pb_data, objective="iid",
                                             n_samples=training.CERT_SAMPLES, seed=cfg.seed)
        assert rec["selection"] == json.loads(json.dumps(report.to_dict()))


def ranked_record(run_id, mode, metric, aborted=False):
    return training.RunRecord(run_id=run_id, mode=mode, config={}, metric=metric,
                              aborted=aborted, checkpoint_path=f"{run_id}.ckpt.json")


def test_rank_runs_skips_aborted_and_unscored_runs_and_the_earlier_record_wins_a_tie(tmp_path):
    records = [
        ranked_record("c000-pb", "pb", 0.3),
        ranked_record("c001-pb", "pb", 0.1, aborted=True),
        ranked_record("c002-pb", "pb", None),
        ranked_record("c004-pb", "pb", 0.2),
        ranked_record("c003-pb", "pb", 0.2),      # ties the record before it
        ranked_record("c000-det-valid", "valid-map", 0.5),
        ranked_record("c000-s-valid", "valid-mc", 0.05),
    ]
    best = training.rank_runs(records, ["pb", "det-valid"], str(tmp_path))
    assert best == {"pb": records[3], "det-valid": records[5]}
    assert (tmp_path / "leaderboard.csv").read_text() == (
        "criterion,rank,run_id,metric,checkpoint\n"
        "pb,1,c004-pb,0.2,c004-pb.ckpt.json\n"
        "pb,2,c003-pb,0.2,c003-pb.ckpt.json\n"
        "pb,3,c000-pb,0.3,c000-pb.ckpt.json\n"
        "det-valid,1,c000-det-valid,0.5,c000-det-valid.ckpt.json\n"
    )
    assert (tmp_path / "best.json").read_text() == (
        '{"det-valid": {"checkpoint": "c000-det-valid.ckpt.json", "metric": 0.5, '
        '"run_id": "c000-det-valid"}, '
        '"pb": {"checkpoint": "c004-pb.ckpt.json", "metric": 0.2, "run_id": "c004-pb"}}\n'
    )


def test_rank_runs_without_a_ranked_run_writes_no_best_json(tmp_path):
    records = [ranked_record("c000-pb", "pb", 0.1, aborted=True),
               ranked_record("c000-s-valid", "valid-mc", None)]
    with pytest.raises(training.NumericAbort, match="every grid run aborted"):
        training.rank_runs(records, ["pb", "s-valid"], str(tmp_path))
    assert (tmp_path / "leaderboard.csv").read_text() == "criterion,rank,run_id,metric,checkpoint\n"
    assert not (tmp_path / "best.json").exists()


@pytest.mark.parametrize("objective", ["iid", "noniid"])
def test_grid_search_certifies_each_pb_run_at_delta_over_the_grid_size(rng, tmp_path,
                                                                       monkeypatch, objective):
    # the pb criterion reports the best of G certificates, which holds with
    # probability 1 - delta only if each is taken at delta / G; the validation
    # criteria pick by validation loss and keep delta
    ds, valid = ((make_iid_dataset(rng, m=40), make_iid_dataset(rng, m=20))
                 if objective == "iid" else (make_noniid_dataset(rng), make_noniid_dataset(rng)))
    layers = (3, 5, 2) if objective == "iid" else (3, 4, 2)
    configs = [base_config(layer_sizes=layers, objective=objective, epochs=1, seed=s,
                           delta=0.06) for s in (1, 2, 3)]
    trained, train = [], training.train
    monkeypatch.setattr(training, "train",
                        lambda cfg, *a, **kw: trained.append(cfg.delta) or train(cfg, *a, **kw))
    criteria = ["pb"] if objective == "noniid" else list(training.CRITERIA)
    training.grid_search(configs, criteria, ds, None if objective == "noniid" else valid,
                         str(tmp_path))
    assert sorted(trained) == sorted(
        [0.06 / 3] * 3 + ([0.06] * 3 if objective == "iid" else []))
    records = [json.loads(line) for line in open(tmp_path / "runs.jsonl")]
    for rec in records:
        want = 0.06 / 3 if rec["mode"] == "pb" else 0.06
        assert rec["config"]["delta"] == want
        assert network.load_checkpoint(rec["checkpoint_path"]).config["delta"] == want
        if rec["mode"] == "pb":
            assert rec["selection"]["delta"] == want
