"""Bound-minimising training loops, optimizers, and the hyperparameter grid.

Two certificate objectives are trainable, both over the posterior means, the
posterior log variances, and the scalar prior log variance:

  iid      lam * m * L_hat(Q) + KL(Q||P) + 2 log(grid_b * log(grid_c / sigma2_p))
  noniid   L_hat(Q) + pi * j * sqrt( B_l^2 (1 + 8T) (chi2 + 1) / (24 m delta) )

plus one deterministic baseline: plain empirical risk minimisation of the
contrastive loss by the mean network. Gradients are analytic throughout; one
fresh weight sample per minibatch step.

train() owns theta = [mu_q | log sigma2_q | log sigma2_p], one float64 vector
the posterior and prior read as views. The optimizers keep flat state and
write each step into a reused buffer; they step theta[:n_train]: n entries for
erm, 2n with a frozen prior, 2n + 1 otherwise.
"""

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds, divergences, evaluation, losses, network
from .data import TupleBatch, concat_contrastive

_REJECT_LIMIT = 40


class NumericAbort(RuntimeError):
    """Objective or gradient became NaN, or rejection retries ran out."""


OBJECTIVES = ("iid", "noniid", "erm")
OPTIMIZERS = ("sgd", "rmsprop", "adam")
LOSS_KINDS = ("logistic", "hinge")
VALID_METRICS = ("mc", "map")


@dataclass
class TrainConfig:
    layer_sizes: tuple
    objective: str = "iid"
    loss_kind: str = "logistic"
    k: int = 4
    block_size: int = 2
    lam: float = 1.0
    grid_b: float = 100.0
    grid_c: float = 0.1
    delta: float = 0.05
    sigma2_p_init: float | None = None   # default: exp(-8) iid, exp(-5) noniid
    optimizer: str = "adam"
    lr: float = 1e-3
    epochs: int = 500
    batch_size: int = 100
    lr_drop_frac: float = 0.75
    patience: int = 20
    early_stop: bool = True
    valid_metric: str = "mc"
    n_valid_samples: int = 10
    optimize_prior: bool = True
    loss_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output width")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.valid_metric not in VALID_METRICS:
            raise ValueError(f"valid_metric must be one of {VALID_METRICS}")
        for name in ("lam", "grid_b", "lr", "loss_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.grid_c <= 0:
            raise ValueError("grid_c must be positive")
        for name in ("k", "block_size", "epochs", "batch_size", "patience", "n_valid_samples"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.sigma2_p_init is None:
            self.sigma2_p_init = math.exp(-8.0) if self.objective != "noniid" else math.exp(-5.0)
        if not 0.0 < self.sigma2_p_init < self.grid_c * math.exp(-1.0 / self.grid_b):
            raise ValueError("sigma2_p_init must lie in (0, grid_c * exp(-1/grid_b))")

    def to_dict(self):
        doc = dataclasses.asdict(self)
        doc["layer_sizes"] = list(self.layer_sizes)
        return doc

    @classmethod
    def from_dict(cls, doc):
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "layer_sizes" not in doc:
            raise ValueError("config requires layer_sizes")
        return cls(**doc)


# ---------------------------------------------------------------------------
# optimizers: first-published rules on flat state sized at construction;
# update(g, lr, out) writes the step into out in the order each comment gives


class SGDMomentum:
    def __init__(self, n, beta=0.9):
        self.beta, self.v = beta, np.zeros(n)

    def update(self, g, lr, out):
        # v = beta * v + g;  step = -lr * v
        self.v *= self.beta
        self.v += g
        return np.multiply(self.v, -lr, out=out)


class RMSProp:
    def __init__(self, n, decay=0.99, eps=1e-8):
        self.decay, self.eps = decay, eps
        self.s, self._tmp = np.zeros(n), np.empty(n)

    def update(self, g, lr, out):
        # s = decay * s + (1 - decay) * g * g;  step = -lr * g / (sqrt(s) + eps)
        tmp = self._tmp
        self.s *= self.decay
        np.multiply(g, 1.0 - self.decay, out=tmp)
        tmp *= g
        self.s += tmp
        np.sqrt(self.s, out=tmp)
        tmp += self.eps
        np.multiply(g, -lr, out=out)
        return np.divide(out, tmp, out=out)


class Adam:
    def __init__(self, n, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m, self.v, self._tmp, self.t = np.zeros(n), np.zeros(n), np.empty(n), 0

    def update(self, g, lr, out):
        # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
        # step = -lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
        tmp = self._tmp
        self.t += 1
        self.m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        self.m += tmp
        self.v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        self.v += tmp
        np.divide(self.m, 1.0 - self.beta1**self.t, out=out)
        out *= -lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        return np.divide(out, tmp, out=out)


def make_optimizer(kind, n):
    """An optimizer of the given kind for a trainable vector of n entries."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer: {kind!r}")
    return {"sgd": SGDMomentum, "rmsprop": RMSProp, "adam": Adam}[kind](n)


# ---------------------------------------------------------------------------
# loss + gradient w.r.t. the flat weight vector, batched over tuples


def contrastive_loss_and_wgrad(layer_sizes, w, batch, loss_kind, loss_scale=1.0, ws=None):
    """Mean tuple loss over a TupleBatch and its gradient w.r.t. w.

    One forward pass covers batch.rows. d_out is assembled in ws.deltas[-1]
    from the margin kernel's block mean differences, kept in ws.scratch, and
    the gradient returned is ws.grad (of a temporary workspace when ws is
    None), so it lives until the next call with the same workspace.
    """
    _, pos, neg = batch
    n, k, b = len(pos), neg.shape[1], pos.shape[1]
    ws = ws or network.Workspace(layer_sizes, len(batch.rows))
    out, cache = network.forward_cached(layer_sizes, w, batch.rows, ws=ws)
    a_out, p_out, g_out = TupleBatch(out, n, k, b)
    d = out.shape[1]
    diff = ws.scratch[: n * k * d].reshape(n, k, d)
    pos_term = ws.scratch[n * k * d : n * (k + 1) * d].reshape(n, d)

    margins = losses.contrastive_margins(a_out, p_out, g_out, diff)
    loss = loss_scale * float(np.mean(losses.loss_value(margins, loss_kind)))

    dv = losses.loss_margin_grad(margins, loss_kind) * (loss_scale / n)   # (n, k)
    d_out = TupleBatch(ws.deltas[-1][: len(out)], n, k, b)
    np.einsum("nk,nkd->nd", dv, diff, out=d_out[0])
    np.multiply(np.sum(dv, axis=1)[:, None], a_out, out=pos_term)
    pos_term /= b
    d_out[1][...] = pos_term[:, None, :]
    np.multiply(-dv[:, :, None], a_out[:, None, :], out=diff)   # diff is read: reuse it
    diff /= b
    d_out[2][...] = diff[:, :, None, :]
    return loss, network.backprop(layer_sizes, w, cache, d_out.rows, ws), margins


# ---------------------------------------------------------------------------
# objectives: value, gradient and stats of one step. The iid and noniid
# gradients w.r.t. theta go to ws.dtheta (a temporary workspace's if ws is None)


def as_theta(post, prior):
    """(theta, posterior, prior): a new theta and a posterior and prior reading it.

    The prior log variance is a 0-d view of theta[-1]; Prior.copy() makes it a
    float again.
    """
    theta = np.concatenate([post.mu, post.log_sigma2, [prior.log_sigma2]])
    mu_q, log_s2_q = np.split(theta[:-1], 2)
    return theta, network.Posterior(mu_q, log_s2_q), network.Prior(prior.mu, theta[-1, ...])


def iid_objective(layer_sizes, post, prior, batch, eps, *, lam, m, grid_b, grid_c,
                  loss_kind, loss_scale=1.0, ws=None):
    """Catoni-style trainable bound; the batch mean estimates L_hat."""
    ws = ws or network.Workspace(layer_sizes, len(batch.rows))
    w = network.sample_weights(post, eps)
    loss, d_w, _ = contrastive_loss_and_wgrad(layer_sizes, w, batch, loss_kind, loss_scale, ws)
    kl = divergences.kl_gaussian(post.mu, post.log_sigma2, prior.mu, prior.log_sigma2)
    log_j = math.log(grid_b) + math.log(math.log(grid_c) - prior.log_sigma2)
    value = lam * m * loss + kl + 2.0 * log_j

    d_mu, d_ls_q = network.posterior_grads_from_weight_grad(post, eps, lam * m * d_w)
    kl_mu, kl_ls_q, kl_ls_p = divergences.kl_gaussian_grads(
        post.mu, post.log_sigma2, prior.mu, prior.log_sigma2
    )
    n, grad = post.n_params, ws.dtheta
    np.add(d_mu, kl_mu, out=grad[:n])
    np.add(d_ls_q, kl_ls_q, out=grad[n:-1])
    grad[-1] = kl_ls_p - 2.0 / (math.log(grid_c) - prior.log_sigma2)
    return value, grad, {"loss": loss, "kl": kl}


def noniid_objective(layer_sizes, post, prior, batch, eps, *, m, delta, dependency_t,
                     loss_sup, grid_b, grid_c, loss_kind, loss_scale=1.0, ws=None):
    """Chi-square trainable bound. loss_sup (B_l) is a per-epoch constant.

    Returns value = +inf (no gradient) when the penalty overflows; the caller
    rejects the step.
    """
    ws = ws or network.Workspace(layer_sizes, len(batch.rows))
    w = network.sample_weights(post, eps)
    loss, d_w, _ = contrastive_loss_and_wgrad(layer_sizes, w, batch, loss_kind, loss_scale, ws)
    j = bounds.j_index(grid_b, grid_c, prior.log_sigma2)
    log1p, c_mu, c_ls_q, c_ls_p = divergences.chi2_log1p_grads(
        post.mu, post.log_sigma2, prior.mu, prior.log_sigma2
    )
    log_pen_over_j = bounds.chi2_log_penalty_over_j(j, log1p, m, delta, dependency_t, loss_sup)
    if math.isinf(log_pen_over_j):
        return math.inf, None, {"loss": loss, "chi2_log1p": float(log1p)}
    pen = math.pi * j * math.exp(log_pen_over_j)
    value = loss + pen

    d_mu, d_ls_q = network.posterior_grads_from_weight_grad(post, eps, d_w)
    n, grad = post.n_params, ws.dtheta
    np.add(d_mu, pen * 0.5 * c_mu, out=grad[:n])
    np.add(d_ls_q, pen * 0.5 * c_ls_q, out=grad[n:-1])
    # j depends on log sigma2_p with dj/dt = -grid_b
    grad[-1] = math.pi * (-grid_b) * math.exp(log_pen_over_j) + pen * 0.5 * c_ls_p
    return value, grad, {"loss": loss, "chi2_log1p": log1p, "penalty": pen}


def erm_objective(layer_sizes, post, prior, batch, eps, *, loss_kind, loss_scale=1.0,
                  ws=None):
    """Contrastive loss of the mean network and its weight gradient; prior, eps unused."""
    loss, d_w, _ = contrastive_loss_and_wgrad(
        layer_sizes, post.mu, batch, loss_kind, loss_scale, ws
    )
    return loss, d_w, {"loss": loss}


# ---------------------------------------------------------------------------
# dataset-level estimates used for validation metrics


def map_dataset_loss(layer_sizes, w, ds, loss_kind):
    out = network.forward(layer_sizes, w, ds.features)
    return float(np.mean(evaluation.tuple_risks(out, ds, "loss", loss_kind)))


@dataclass
class RunRecord:
    run_id: str
    mode: str                       # "valid-mc" | "valid-map" | "pb"
    config: dict
    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    metric: float | None = None
    checkpoint_path: str | None = None
    aborted: bool = False
    abort_reason: str | None = None
    wall_time: float = 0.0
    selection: dict | None = None
    extras: dict = field(default_factory=dict)    # run counters: clamp_count
    final_posterior: network.Posterior | None = None
    final_prior: network.Prior | None = None

    def to_dict(self):
        """The runs.jsonl record: every field but the final posterior and prior."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("final_posterior", "final_prior")
        }


def _clamp_prior(theta, grid_b, grid_c):
    """Keep the prior variance on the grid's interior, j >= 1."""
    cap = math.log(grid_c) - 1.0 / grid_b
    if theta[-1] > cap:
        theta[-1] = cap
        return 1
    return 0


def _step_objective(cfg, layer_sizes, post, prior, data, ws):
    """Bind cfg.objective to objective(batch, eps) -> (value, grad, stats).

    post and prior are updated in place between calls, and every call runs
    through the workspace ws. The second return value runs at the start of
    every epoch and returns the epoch's constants for the log: the loss range
    B_l of the chi-square objective.
    """
    kw = {"loss_kind": cfg.loss_kind, "loss_scale": cfg.loss_scale, "ws": ws}
    if cfg.objective in ("iid", "noniid"):
        kw.update(m=len(data), grid_b=cfg.grid_b, grid_c=cfg.grid_c)
    begin_epoch = dict          # no per-epoch constants: returns {}
    if cfg.objective == "iid":
        fn = iid_objective
        kw["lam"] = cfg.lam
    elif cfg.objective == "noniid":
        fn = noniid_objective
        kw.update(delta=cfg.delta, dependency_t=data.dependency_t)

        def begin_epoch():
            b_feat = network.feature_bound(layer_sizes, post.mu, data.features)
            kw["loss_sup"] = losses.loss_range(cfg.loss_kind, b_feat, cfg.k)
            return {"loss_sup": kw["loss_sup"]}
    else:
        fn = erm_objective

    def objective(batch, eps):
        return fn(layer_sizes, post, prior, batch, eps, **kw)

    return objective, begin_epoch


def train(cfg, data, valid=None, run_dir=None, run_id="run", mode=None):
    """Minimise cfg.objective on data; early stop on valid when configured.

    data and valid are ContrastiveDatasets. Returns a RunRecord; the
    checkpoint is written under run_dir when given (best validation epoch if
    early stopping is active, else the final epoch).
    """
    t0 = time.perf_counter()
    root = np.random.SeedSequence(cfg.seed)
    init_rng, batch_rng, eps_rng, valid_rng = (
        np.random.default_rng(s) for s in root.spawn(4)
    )

    stochastic = cfg.objective in ("iid", "noniid")
    layer_sizes = cfg.layer_sizes
    theta, post, prior = as_theta(*network.init_network(layer_sizes, cfg.sigma2_p_init, init_rng))
    n_train = 2 * post.n_params + int(cfg.optimize_prior) if stochastic else post.n_params
    trainable = theta[:n_train]
    opt = make_optimizer(cfg.optimizer, n_train)
    last_step = np.empty(n_train)   # halved in place when the next objective overflows
    m = len(data)
    # one workspace and row buffer per run, sized to a full batch; a partial
    # last batch uses their leading rows
    rows = min(cfg.batch_size, m) * (1 + data.block_size * (1 + data.k))
    batch_rows = np.empty((rows, data.dim))
    objective, begin_epoch = _step_objective(
        cfg, layer_sizes, post, prior, data, network.Workspace(layer_sizes, rows)
    )

    n_steps = max(1, math.ceil(m / cfg.batch_size))
    drop_epoch = math.ceil(cfg.lr_drop_frac * cfg.epochs)
    early_stop = cfg.early_stop and valid is not None

    mode = mode or ("valid-" + cfg.valid_metric if early_stop else "pb")
    record = RunRecord(run_id=run_id, mode=mode, config=cfg.to_dict())
    best_metric, best_state, best_epoch = math.inf, None, 0
    since_best = 0
    epochs_done = 0
    clamp_count = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.lr / 10.0 if epoch >= drop_epoch else cfg.lr
            order = batch_rng.permutation(m)
            obj_sum, rejections, stat_sums = 0.0, 0, {}
            constants = begin_epoch()

            for step in range(n_steps):
                batch = data.gather(order[step * cfg.batch_size : (step + 1) * cfg.batch_size],
                                    out=batch_rows)
                # erm ignores eps; its stream feeds nothing else
                eps = network.sample_eps(post.n_params, eps_rng)

                retries = 0
                while True:
                    value, grad, stats = objective(batch, eps)
                    if math.isnan(value):
                        raise NumericAbort(
                            f"objective is NaN at epoch {epoch} step {step}"
                        )
                    if not math.isinf(value):
                        break
                    # chi-square penalty overflowed: reject the previous
                    # update and retry it at half the step
                    if epoch == 1 and step == 0:
                        raise NumericAbort(
                            f"objective overflowed at initialisation (epoch {epoch})"
                        )
                    if retries >= _REJECT_LIMIT:
                        raise NumericAbort(
                            f"step rejected {retries} times at epoch {epoch} step {step}"
                        )
                    trainable -= last_step
                    last_step *= 0.5
                    trainable += last_step
                    rejections += 1
                    retries += 1

                grad = grad[:n_train]
                if not np.all(np.isfinite(grad)):
                    raise NumericAbort(f"gradient not finite at epoch {epoch} step {step}")
                opt.update(grad, lr, out=last_step)
                trainable += last_step
                if n_train == theta.size:
                    clamp_count += _clamp_prior(theta, cfg.grid_b, cfg.grid_c)
                obj_sum += value
                for key, val in stats.items():
                    stat_sums[key] = stat_sums.get(key, 0.0) + val

            epochs_done = epoch
            entry = {
                "epoch": epoch,
                "lr": lr,
                "train_objective": obj_sum / n_steps,
                "rejections": rejections,
                # means over the epoch's accepted steps
                **{key: total / n_steps for key, total in stat_sums.items()},
                "log_sigma2_p": float(theta[-1]),
                **constants,
            }

            valid_mc = valid_map = None
            if valid is not None:
                if stochastic:
                    valid_mc, _ = evaluation.mc_posterior_risk(
                        layer_sizes, post, valid, cfg.n_valid_samples,
                        "loss", cfg.loss_kind, valid_rng,
                    )
                valid_map = map_dataset_loss(layer_sizes, post.mu, valid, cfg.loss_kind)
                entry["valid_mc"] = valid_mc
                entry["valid_map"] = valid_map
            record.epochs.append(entry)

            if early_stop:
                metric = valid_mc if (cfg.valid_metric == "mc" and valid_mc is not None) else valid_map
                if metric < best_metric:
                    best_metric, best_state, best_epoch = metric, (post.copy(), prior.copy()), epoch
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= cfg.patience:
                        break
    except NumericAbort as exc:
        record.aborted = True
        record.abort_reason = str(exc)

    record.stopped_epoch = epochs_done
    if early_stop and best_state is not None:
        post, prior = best_state
        record.best_epoch = best_epoch
        record.metric = best_metric
    else:
        post, prior = post.copy(), prior.copy()      # detached from theta
        record.best_epoch = epochs_done

    record.wall_time = time.perf_counter() - t0
    if run_dir is not None and not record.aborted:
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, f"{run_id}.ckpt.json")
        network.save_checkpoint(
            path,
            network.Checkpoint(
                layer_sizes=list(layer_sizes),
                posterior=post,
                prior=prior,
                seed=cfg.seed,
                epoch=record.best_epoch,
                config=cfg.to_dict(),
            ),
        )
        record.checkpoint_path = path
    record.final_posterior = post
    record.final_prior = prior
    record.extras["clamp_count"] = clamp_count
    return record


# ---------------------------------------------------------------------------
# certificates on trained posteriors


def _divergence_fields(post, prior, ds, noniid):
    """BoundReport fields of the divergence term: chi-square if noniid, else KL."""
    if noniid:
        chi2 = divergences.chi2_gaussian(post.mu, post.log_sigma2, prior.mu, prior.log_sigma2)
        return {
            "divergence_kind": "chi2",
            "divergence_value": chi2.value,
            "dependency_t": ds.dependency_t,
            "extras": {
                "chi2_log1p": chi2.log1p,
                "chi2_overflowed": chi2.overflowed,
                "chi2_n_guarded": chi2.n_guarded,
            },
        }
    kl = divergences.kl_gaussian(post.mu, post.log_sigma2, prior.mu, prior.log_sigma2)
    return {"divergence_kind": "kl", "divergence_value": kl, "extras": {}}


def selection_certificate(layer_sizes, post, prior, ds, *, grid_b, grid_c, delta,
                          loss_kind, objective, n_samples, rng):
    """Model-selection certificate (zero-one risk) for a trained posterior."""
    m = len(ds)
    j = bounds.j_index(grid_b, grid_c, prior.log_sigma2)
    r_hat, draws = evaluation.mc_posterior_risk(
        layer_sizes, post, ds, n_samples, "zero-one", loss_kind, rng
    )
    noniid = objective == "noniid"
    div = _divergence_fields(post, prior, ds, noniid)
    div["extras"]["risk_per_draw"] = [float(v) for v in draws]
    if noniid:
        lam = None
        value = bounds.selection_bound_noniid(
            r_hat, j, div["extras"]["chi2_log1p"], m, delta, ds.dependency_t
        )
    else:
        value, lam = bounds.selection_bound_iid(r_hat, div["divergence_value"], j, m, delta)
    return bounds.BoundReport(
        bound_kind="noniid-selection" if noniid else "iid-selection",
        bound_value=value,
        empirical_risk=r_hat,
        risk_kind="zero-one",
        loss_kind=loss_kind,
        j=j, m=m, delta=delta,
        n_risk_samples=n_samples,
        lam=lam,
        **div,
    )


def loss_certificate(layer_sizes, post, prior, ds, *, grid_b, grid_c, delta, loss_kind,
                     objective, n_samples, rng, lam=None, tau=None):
    """Bounded-loss certificate: supervised transfer (iid) or chi-square form."""
    m = len(ds)
    j = bounds.j_index(grid_b, grid_c, prior.log_sigma2)
    l_hat, draws = evaluation.mc_posterior_risk(
        layer_sizes, post, ds, n_samples, "loss", loss_kind, rng
    )
    b_feat = network.feature_bound(layer_sizes, post.mu, ds.features)
    loss_sup = losses.loss_range(loss_kind, b_feat, ds.k)
    noniid = objective == "noniid"
    if not noniid:
        if lam is None:
            raise ValueError("iid loss certificate needs lambda")
        if tau is None:
            tau = ds.provenance.get("tau")
            if tau is None:
                raise ValueError("iid loss certificate needs tau (class collision probability)")
    div = _divergence_fields(post, prior, ds, noniid)
    div["extras"]["risk_per_draw"] = [float(v) for v in draws]
    if noniid:
        lam = tau = None          # the chi-square form uses neither
        value = bounds.noniid_bound(
            l_hat, j, div["extras"]["chi2_log1p"], m, delta, ds.dependency_t, loss_sup
        )
    else:
        value = bounds.iid_supervised_bound(
            l_hat, div["divergence_value"], m, lam, delta, tau, loss_sup
        )
    return bounds.BoundReport(
        bound_kind="noniid-loss" if noniid else "iid-loss",
        bound_value=value,
        empirical_risk=l_hat,
        risk_kind="loss",
        loss_kind=loss_kind,
        j=j, m=m, delta=delta,
        n_risk_samples=n_samples,
        lam=lam,
        tau=tau,
        loss_sup=loss_sup,
        feature_bound=b_feat,
        **div,
    )


# ---------------------------------------------------------------------------
# grid search over configs and selection criteria


# the run mode each selection criterion trains and ranks
CRITERION_MODES = {"s-valid": "valid-mc", "det-valid": "valid-map", "pb": "pb"}
CRITERIA = tuple(CRITERION_MODES)


def pb_certificate(layer_sizes, post, prior, ds, config, n_samples, seed):
    """The selection certificate that ranks a pb run; config is the run's config dict."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCE27]).generate_state(1)[0])
    return selection_certificate(
        layer_sizes, post, prior, ds,
        grid_b=config["grid_b"], grid_c=config["grid_c"], delta=config["delta"],
        loss_kind=config["loss_kind"], objective=config["objective"],
        n_samples=n_samples, rng=rng,
    )


def rank_runs(records, criteria, out_dir):
    """Rank recorded runs per criterion and write out_dir/leaderboard.csv.

    records are run dicts as written to runs.jsonl, in file order; a run is
    scored by its metric (the certificate for pb runs). Aborted and unscored
    runs are skipped, and the earlier record wins a tie, so rankings are
    reproducible. Returns {criterion: best record}.
    """
    best = {}
    with open(os.path.join(out_dir, "leaderboard.csv"), "w") as fh:
        fh.write("criterion,rank,run_id,metric,checkpoint\n")
        for criterion in criteria:
            ranked = sorted(
                ((float(rec["metric"]), pos, rec) for pos, rec in enumerate(records)
                 if rec.get("mode") == CRITERION_MODES[criterion]
                 and not rec.get("aborted") and rec.get("metric") is not None),
                key=lambda row: row[:2],
            )
            for rank, (metric, _, rec) in enumerate(ranked, start=1):
                fh.write(f"{criterion},{rank},{rec['run_id']},{metric!r},"
                         f"{rec.get('checkpoint_path')}\n")
            if ranked:
                best[criterion] = ranked[0][2]
    return best


def grid_search(configs, criteria, data, valid, out_dir, cert_samples=10):
    """Run every (config, criterion) pair and rank runs per criterion.

    s-valid and det-valid train on data with early stopping on the matching
    validation metric; pb trains on data + valid with early stopping off and
    scores by the model-selection certificate. Rewrites runs.jsonl with one
    line per run, ranks them with rank_runs and returns {criterion: best
    RunRecord}.
    """
    for c in criteria:
        if c not in CRITERIA:
            raise ValueError(f"unknown criterion {c!r}, expected one of {CRITERIA}")
    os.makedirs(out_dir, exist_ok=True)
    pb_data = concat_contrastive(data, valid) if valid is not None and "pb" in criteria else data
    runs, docs = {}, []
    with open(os.path.join(out_dir, "runs.jsonl"), "w") as runs_fh:
        for criterion in criteria:
            mode = CRITERION_MODES[criterion]
            for gi, cfg in enumerate(configs):
                run_id = f"c{gi:03d}-{criterion}"
                if criterion == "pb":
                    cfg_run = dataclasses.replace(cfg, early_stop=False)
                    rec = train(cfg_run, pb_data, None, run_dir=out_dir,
                                run_id=run_id, mode=mode)
                    if not rec.aborted:
                        report = pb_certificate(
                            cfg.layer_sizes, rec.final_posterior, rec.final_prior, pb_data,
                            rec.config, cert_samples, cfg.seed,
                        )
                        rec.metric = report.bound_value
                        rec.selection = report.to_dict()
                else:
                    cfg_run = dataclasses.replace(
                        cfg, valid_metric="mc" if criterion == "s-valid" else "map",
                        early_stop=True,
                    )
                    rec = train(cfg_run, data, valid, run_dir=out_dir,
                                run_id=run_id, mode=mode)
                docs.append(rec.to_dict())
                runs_fh.write(json.dumps(docs[-1], sort_keys=True) + "\n")
                runs[run_id] = rec
    return {c: runs[doc["run_id"]] for c, doc in rank_runs(docs, criteria, out_dir).items()}
