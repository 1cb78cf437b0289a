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
erm, 2n + 1 otherwise.

grid_search trains each config at most twice: on train + valid for the pb
criterion, scored by its certificate, and on train for the validation criteria
s-valid (sampled loss) and det-valid (posterior-mean loss), which share the run.
"""

import dataclasses
import functools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds, data, divergences, evaluation, losses, network
from .data import TupleBatch, concat_contrastive

_REJECT_LIMIT = 40


class NumericAbort(RuntimeError):
    """Objective or gradient became NaN, or rejection retries ran out."""


OBJECTIVES = ("iid", "noniid", "erm")
OPTIMIZERS = ("sgd", "rmsprop", "adam")
LOSS_KINDS = ("logistic", "hinge")


def check_certificate_settings(grid_b, grid_c, delta, loss_kind):
    """TrainConfig's rules for the settings a certificate takes from it: grid_b
    and grid_c positive finite numbers, delta a number in (0, 1), loss_kind one
    of LOSS_KINDS. A bad value raises ValueError naming its key."""
    for key, value, top, rule in (("grid_b", grid_b, math.inf, "be a positive finite number"),
                                  ("grid_c", grid_c, math.inf, "be a positive finite number"),
                                  ("delta", delta, 1.0, "lie in (0, 1)")):
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (number and 0.0 < value < top):
            raise ValueError(f"{key} must {rule}, got {float(value) if number else value!r}")
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")


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
    n_valid_samples: int = 10
    seed: int = 0

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output width")
        if min(self.layer_sizes) < 1:
            raise ValueError(f"layer_sizes must all be >= 1, got {list(self.layer_sizes)}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        check_certificate_settings(self.grid_b, self.grid_c, self.delta, self.loss_kind)
        for name in ("lam", "lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("k", "block_size", "epochs", "batch_size", "patience", "n_valid_samples",
                     "seed"):
            value = getattr(self, name)
            if type(value) is not int:      # not 1.5, "5" or true, which int() reads as 1, 5, 1
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
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


def _loss_views(ws, n, k, b):
    """The views the loss of n tuples works in, built once per batch shape.

    ws.out's rows as a TupleBatch, then three views of ws.scratch: the (n, k, d)
    block mean differences, and two (n, d) terms of d_out, the positive rows'
    and the anchor rows'. They take n (k + 2) d of its n (1 + b + k b) d floats.
    """
    key = (n, k, b)
    if key not in ws.views:
        d, s = ws.out.shape[1], ws.scratch
        ws.views[key] = (TupleBatch(ws.out[: n * TupleBatch.rows_per_tuple(k, b)], n, k, b),
                         s[: n * k * d].reshape(n, k, d),
                         s[n * k * d : n * (k + 1) * d].reshape(n, d),
                         s[n * (k + 1) * d : n * (k + 2) * d].reshape(n, d))
    return ws.views[key]


def contrastive_loss_and_wgrad(layer_sizes, w, batch, loss_kind, ws=None, n=None):
    """A TupleBatch's tuple loss sum over n and its gradient w.r.t. w.

    n defaults to the batch's tuple count, which gives the mean loss; a shard
    of a larger batch passes the whole batch's (see ShardedLoss). One forward
    pass covers batch.rows. Once the margins are taken, d_out goes over the
    network output in ws.out, the anchor rows last, as the block rows' terms
    read the anchor outputs; the anchor term waits in ws.scratch beside the
    block mean differences. backprop then takes its deltas in the forward's
    buffers. The gradient returned is ws.grad (of a temporary workspace when ws
    is None), so it lives until the next call with the same workspace.
    """
    _, pos, neg = batch
    n_tuples, k, b = len(pos), neg.shape[1], pos.shape[1]
    n = n or n_tuples
    ws = ws or network.Workspace(layer_sizes, len(batch.rows))
    out_batch, diff, pos_term, anchor_term = _loss_views(ws, n_tuples, k, b)
    out, cache = network.forward_cached(layer_sizes, w, batch.rows, ws=ws)
    a_out, p_out, g_out = out_batch

    margins = losses.contrastive_margins(a_out, p_out, g_out, diff)
    tuple_loss, dv = losses.loss_and_margin_grad(margins, loss_kind)
    loss = float(np.add.reduce(tuple_loss) / n)                # np.mean's bits when n = n_tuples

    dv *= 1.0 / n                                               # (n_tuples, k)
    np.einsum("nk,nkd->nd", dv, diff, out=anchor_term)
    np.multiply(np.add.reduce(dv, axis=1)[:, None], a_out, out=pos_term)
    pos_term /= b
    p_out[...] = pos_term[:, None, :]
    np.multiply(-dv[:, :, None], a_out[:, None, :], out=diff)   # diff is read: reuse it
    diff /= b
    g_out[...] = diff[:, :, None, :]
    a_out[...] = anchor_term
    return loss, network.backprop(layer_sizes, w, cache, out, ws), margins


class _Shard:
    """Row and index buffers and a workspace for up to `size` tuples of data."""

    def __init__(self, layer_sizes, data, size, loss_kind):
        rows = size * TupleBatch.rows_per_tuple(data.k, data.block_size)
        self.layer_sizes, self.data, self.loss_kind = layer_sizes, data, loss_kind
        self.rows, self.index = np.empty((rows, data.dim)), data.index_buffers(size)
        self.ws = network.Workspace(layer_sizes, rows)

    def gather(self, idx):
        self.batch = self.data.gather(idx, out=self.rows, index_out=self.index)

    def loss_and_wgrad(self, w, n):
        """The gathered tuples' loss sum over n and its gradient w.r.t. w (ws.grad)."""
        return contrastive_loss_and_wgrad(self.layer_sizes, w, self.batch, self.loss_kind,
                                          self.ws, n)[:2]


class _WorkerLost(Exception):
    """The helper closed its reply pipe mid-step: it raised or was killed."""


class ShardedLoss:
    """A batch's mean loss and weight gradient as sums over two fixed shards.

    gather(idx) takes a batch of n tuples: shard 0 is its first ceil(n / 2),
    shard 1 the rest (none when n is 1). Called with weights w, each shard
    gives its tuple losses' np.add.reduce over n and the gradient of that
    (contrastive_loss_and_wgrad), and the two are added, shard 0 first. So the
    bits depend on the batch alone, never on where shard 1 runs.

    With workers == 2, shard 1 runs on a forked helper: serve() is worker 1 of
    network.on_workers. gather writes n and shard 1's tuple indices into
    anonymous shared memory and sends b"g": the helper gathers those rows,
    from the feature matrix it inherited, into its own shard while this
    process gathers shard 0. A call writes w there and sends b"c"; the helper
    writes back its loss and gradient, then one byte. With one worker this
    process runs both shards. ws is shard 0's workspace; the objectives draw
    their weights into it and write their gradients there.
    """

    def __init__(self, layer_sizes, data, n_batch, loss_kind, workers):
        self.make = functools.partial(_Shard, layer_sizes, data, loss_kind=loss_kind)
        self.shards = [self.make(-(-n_batch // 2))]
        self.ws, self.n, self.lost = self.shards[0].ws, 0, False
        self.workers, self.trainer, self.ends = workers, os.getpid(), []
        if workers == 1:
            self.shards.append(self.make(n_batch // 2))
            return
        p = network.param_count(layer_sizes)
        # [w | d_w | loss | n, shard 1's tuple indices]
        shared = network.shared_array(2 * p + 2 + n_batch // 2)
        self.w, self.d_w, self.loss = shared[:p], shared[p : 2 * p], shared[2 * p : 2 * p + 1]
        self.idx = shared[2 * p + 1 :].view(np.int64)
        self.request, self.reply = os.pipe(), os.pipe()       # (read end, write end)
        self.ends = [*self.request, *self.reply]

    def close(self, *ends):
        """Close the given pipe ends (default: all) that are still open."""
        for end in ends or list(self.ends):
            if end in self.ends:
                self.ends.remove(end)
                os.close(end)

    def start(self):
        """The trainer's side: close the helper's pipe ends, so that its exit
        reads as the end of the reply pipe."""
        if self.ends:
            self.close(self.request[0], self.reply[1])

    def serve(self):
        """Worker 1: shard 1's loss and gradient per request, until the request
        pipe closes. Where the fork failed, on_workers calls this in the
        trainer, which then runs shard 1 itself."""
        if os.getpid() == self.trainer:
            self.close()
            self.workers = 1
            self.shards.append(self.make(len(self.idx) - 1))
            return
        self.close(self.request[1], self.reply[0])   # the trainer's: closing its own ends this loop
        shard = self.make(len(self.idx) - 1)
        try:
            while request := os.read(self.request[0], 1):
                n = int(self.idx[0])
                if request == b"g":
                    shard.gather(self.idx[1 : 1 + n // 2])
                    continue
                self.loss[0], d_w = shard.loss_and_wgrad(self.w, n)
                self.d_w[:] = d_w
                os.write(self.reply[1], b"\0")
        except Exception as exc:
            raise RuntimeError(f"worker 1 raised {type(exc).__name__}: {exc}") from None

    def gather(self, idx):
        """Split a batch's tuple indices into the shards; this process gathers its own."""
        self.n, half = len(idx), -(-len(idx) // 2)
        if self.workers == 1:
            self.shards[1].gather(idx[half:])
        elif self.n > 1:
            self.idx[0] = self.n
            self.idx[1 : 1 + self.n - half] = idx[half:]
            os.write(self.request[1], b"g")
        self.shards[0].gather(idx[:half])

    def __call__(self, w):
        """The gathered batch's mean loss and its gradient w.r.t. w, in ws.grad."""
        helped = self.workers == 2 and self.n > 1
        if helped:
            self.w[:] = w
            os.write(self.request[1], b"c")
        loss, d_w = self.shards[0].loss_and_wgrad(w, self.n)
        if self.n > 1:
            if not helped:
                loss1, d_w1 = self.shards[1].loss_and_wgrad(w, self.n)
            elif os.read(self.reply[0], 1):
                loss1, d_w1 = float(self.loss[0]), self.d_w
            else:
                self.lost = True
                raise _WorkerLost
            loss += loss1
            d_w += d_w1
        return loss, d_w


# ---------------------------------------------------------------------------
# objectives: value, gradient and stats of one step. loss_and_wgrad(w) gives
# the batch's mean loss and its weight gradient (a ShardedLoss in training).
# The iid and noniid gradients w.r.t. theta go to ws.dtheta (a temporary
# workspace's if ws is None), whose w and sigma take the weight draw


def as_theta(post, prior):
    """(theta, posterior, prior): a new theta and a posterior and prior reading it.

    The prior log variance is a 0-d view of theta[-1]; Prior.copy() makes it a
    float again.
    """
    theta = np.concatenate([post.mu, post.log_sigma2, [prior.log_sigma2]])
    mu_q, log_s2_q = np.split(theta[:-1], 2)
    return theta, network.Posterior(mu_q, log_s2_q), network.Prior(prior.mu, theta[-1, ...])


def iid_objective(layer_sizes, post, prior, loss_and_wgrad, eps, *, lam, m, grid_b, grid_c,
                  ws=None):
    """Catoni-style trainable bound; the batch mean estimates L_hat."""
    ws = ws or network.Workspace(layer_sizes, 0)
    w = network.sample_weights(post, eps, ws)
    loss, d_w = loss_and_wgrad(w)
    log_s2_p = float(prior.log_sigma2)        # a float, not theta's 0-d view: no numpy scalars
    kl, kl_mu, kl_ls_q, kl_ls_p = divergences.kl_gaussian_and_grads(
        post.mu, post.log_sigma2, prior.mu, log_s2_p
    )
    j = bounds.j_index(grid_b, grid_c, log_s2_p)
    value = lam * m * loss + kl + 2.0 * math.log(j)

    d_w *= lam * m
    n, grad = post.n_params, ws.dtheta
    np.add(d_w, kl_mu, out=grad[:n])
    network.posterior_grads_from_weight_grad(ws.sigma, eps, d_w, out=grad[n:-1])
    grad[n:-1] += kl_ls_q
    grad[-1] = kl_ls_p - 2.0 * grid_b / j          # dj/dt = -grid_b, as in noniid
    return value, grad, {"loss": loss, "kl": kl}


def noniid_objective(layer_sizes, post, prior, loss_and_wgrad, eps, *, m, delta, dependency_t,
                     loss_sup, grid_b, grid_c, ws=None):
    """Chi-square trainable bound. loss_sup (B_l) is a per-epoch constant.

    Returns value = +inf (no gradient) when the penalty overflows; the caller
    rejects the step.
    """
    ws = ws or network.Workspace(layer_sizes, 0)
    w = network.sample_weights(post, eps, ws)
    loss, d_w = loss_and_wgrad(w)
    log_s2_p = float(prior.log_sigma2)        # a float, not theta's 0-d view: no numpy scalars
    j = bounds.j_index(grid_b, grid_c, log_s2_p)
    log1p, c_mu, c_ls_q, c_ls_p = divergences.chi2_log1p_grads(
        post.mu, post.log_sigma2, prior.mu, log_s2_p
    )
    log_pen_over_j = bounds.chi2_log_penalty_over_j(j, log1p, m, delta, dependency_t, loss_sup)
    if math.isinf(log_pen_over_j):
        return math.inf, None, {"loss": loss, "chi2_log1p": float(log1p)}
    pen = math.pi * j * math.exp(log_pen_over_j)
    value = loss + pen

    n, grad = post.n_params, ws.dtheta
    c_mu *= pen * 0.5
    np.add(d_w, c_mu, out=grad[:n])
    network.posterior_grads_from_weight_grad(ws.sigma, eps, d_w, out=grad[n:-1])
    c_ls_q *= pen * 0.5
    grad[n:-1] += c_ls_q
    # j depends on log sigma2_p with dj/dt = -grid_b
    grad[-1] = math.pi * (-grid_b) * math.exp(log_pen_over_j) + pen * 0.5 * c_ls_p
    return value, grad, {"loss": loss, "chi2_log1p": log1p, "penalty": pen}


def erm_objective(layer_sizes, post, prior, loss_and_wgrad, eps, *, ws=None):
    """Contrastive loss of the mean network and its weight gradient; prior, eps, ws unused."""
    loss, d_w = loss_and_wgrad(post.mu)
    return loss, d_w, {"loss": loss}


# ---------------------------------------------------------------------------
# dataset-level estimates used for validation metrics


def map_dataset_loss(layer_sizes, w, ds, loss_kind):
    return float(np.mean(evaluation.tuple_risks(layer_sizes, w, ds, "loss", loss_kind)))


# the run mode each selection criterion trains and ranks; the validation
# criteria share one run
CRITERION_MODES = {"s-valid": "valid-mc", "det-valid": "valid-map", "pb": "pb"}
CRITERIA = tuple(CRITERION_MODES)
VALID_CRITERIA = ("s-valid", "det-valid")


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


def _step_objective(cfg, layer_sizes, post, prior, data, shards):
    """Bind cfg.objective to objective(eps) -> (value, grad, stats).

    post and prior are updated in place between calls, and every call takes
    the batch shards last gathered (a ShardedLoss) and runs through their
    workspace. The second return value runs at the start of every epoch and
    returns the epoch's constants for the log: the loss range B_l of the
    chi-square objective.
    """
    kw = {"ws": shards.ws}
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

    def objective(eps):
        return fn(layer_sizes, post, prior, shards, eps, **kw)

    return objective, begin_epoch


def _lap(clock, phase, since):
    """Add the seconds since `since` to clock[phase]; return the time now."""
    now = time.perf_counter()
    clock[phase] += now - since
    return now


def train(cfg, data, valid=None, criteria=("pb",), run_dir=None, run_id="run"):
    """Minimise cfg.objective on data; returns {criterion: RunRecord}.

    data and valid are ContrastiveDatasets. Without valid the only criterion
    is pb, which keeps the final epoch. With valid every epoch logs valid_mc
    (drawn for stochastic objectives under s-valid only, else None) and
    valid_map, and each criterion keeps its best epoch: s-valid by valid_mc
    (valid_map when None), det-valid by valid_map. A criterion closes its
    record after cfg.patience epochs without a new best; training ends when
    all have closed. A NumericAbort marks the open records aborted. The others
    write run_dir/<run_id>-<criterion>.ckpt.json when run_dir is given.

    Each step's loss and weight gradient are a ShardedLoss's. When
    network.worker_count(2) is 2, the run is worker 0 of network.on_workers
    and a forked helper, worker 1, serves shard 1 until the run ends; a helper
    that raises or is killed ends the run with an error naming worker 1.
    """
    allowed = VALID_CRITERIA if valid is not None else ("pb",)
    if not criteria or not set(criteria) <= set(allowed):
        raise ValueError(f"criteria {list(criteria)} must be some of {list(allowed)} when "
                         f"the validation split is {'given' if valid is not None else 'None'}")
    t0 = time.perf_counter()
    root = np.random.SeedSequence(cfg.seed)
    init_rng, batch_rng, eps_rng, valid_rng = (
        np.random.default_rng(s) for s in root.spawn(4)
    )

    stochastic = cfg.objective in ("iid", "noniid")
    layer_sizes = cfg.layer_sizes
    theta, post, prior = as_theta(*network.init_network(layer_sizes, cfg.sigma2_p_init, init_rng))
    n_train = 2 * post.n_params + 1 if stochastic else post.n_params
    trainable = theta[:n_train]
    opt = make_optimizer(cfg.optimizer, n_train)
    last_step = np.empty(n_train)   # halved in place when the next objective overflows
    m = len(data)
    # the batch's two shards, each with a workspace, row buffer and index
    # buffers sized to its share of a full batch; a partial last batch uses
    # their leading entries. Shard 1 runs on a forked helper when two workers fit
    n_batch = min(cfg.batch_size, m)
    shards = ShardedLoss(layer_sizes, data, n_batch, cfg.loss_kind,
                         network.worker_count(min(2, n_batch)))
    eps = np.zeros(post.n_params)   # erm ignores eps: it stays zero, its stream unread
    objective, begin_epoch = _step_objective(cfg, layer_sizes, post, prior, data, shards)

    n_steps = max(1, math.ceil(m / cfg.batch_size))
    drop_epoch = math.ceil(cfg.lr_drop_frac * cfg.epochs)

    records = {
        c: RunRecord(run_id=f"{run_id}-{c}", mode=CRITERION_MODES[c], config=cfg.to_dict())
        for c in criteria
    }
    best = dict.fromkeys(criteria, (math.inf, None, 0))    # metric, (post, prior), epoch
    still_open = list(criteria)
    entries = []
    clamp_count = 0

    def close(criterion):
        """Fill the criterion's record from the run so far; write its checkpoint."""
        rec = records[criterion]
        still_open.remove(criterion)
        rec.epochs, rec.stopped_epoch = list(entries), len(entries)
        metric, state, rec.best_epoch = best[criterion]
        if state is None:       # the final epoch, detached from theta
            state, rec.best_epoch = (post.copy(), prior.copy()), len(entries)
        else:
            rec.metric = metric
        rec.final_posterior, rec.final_prior = state
        rec.extras["clamp_count"] = clamp_count
        rec.wall_time = time.perf_counter() - t0
        if run_dir is not None and not rec.aborted:
            os.makedirs(run_dir, exist_ok=True)
            path = os.path.join(run_dir, f"{rec.run_id}.ckpt.json")
            network.save_checkpoint(path, network.Checkpoint(
                layer_sizes=list(layer_sizes), posterior=rec.final_posterior,
                prior=rec.final_prior, seed=cfg.seed, epoch=rec.best_epoch, config=rec.config,
            ))
            rec.checkpoint_path = path

    def run(worker):
        """Worker 0 trains; worker 1 serves shard 1 until worker 0 closes its pipe."""
        nonlocal clamp_count, trainable, last_step
        if worker:
            return shards.serve()
        shards.start()
        try:
            for epoch in range(1, cfg.epochs + 1):
                lr = cfg.lr / 10.0 if epoch >= drop_epoch else cfg.lr
                order = batch_rng.permutation(m)
                obj_sum, rejections, stat_sums = 0.0, 0, {}
                # seconds per phase; objective_s takes the epoch hook, eps,
                # retries and any wait for the helper
                clock = dict.fromkeys(("gather_s", "objective_s", "update_s", "validation_s"),
                                      0.0)
                t = time.perf_counter()
                constants = begin_epoch()
                t = _lap(clock, "objective_s", t)

                for step in range(n_steps):
                    shards.gather(order[step * cfg.batch_size : (step + 1) * cfg.batch_size])
                    t = _lap(clock, "gather_s", t)
                    if stochastic:
                        eps_rng.standard_normal(out=eps)    # sample_eps's stream, no new array

                    retries = 0
                    while True:
                        value, grad, stats = objective(eps)
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

                    t = _lap(clock, "objective_s", t)
                    grad = grad[:n_train]
                    if not np.isfinite(grad).all():
                        raise NumericAbort(f"gradient not finite at epoch {epoch} step {step}")
                    opt.update(grad, lr, out=last_step)
                    trainable += last_step
                    if n_train == theta.size:
                        clamp_count += _clamp_prior(theta, cfg.grid_b, cfg.grid_c)
                    obj_sum += value
                    for key, val in stats.items():
                        stat_sums[key] = stat_sums.get(key, 0.0) + val
                    t = _lap(clock, "update_s", t)

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
                    if stochastic and "s-valid" in criteria:
                        valid_mc, _ = evaluation.mc_posterior_risk(
                            layer_sizes, post, valid, cfg.n_valid_samples,
                            "loss", cfg.loss_kind, valid_rng,
                        )
                    valid_map = map_dataset_loss(layer_sizes, post.mu, valid, cfg.loss_kind)
                    entry["valid_mc"] = valid_mc
                    entry["valid_map"] = valid_map
                _lap(clock, "validation_s", t)
                entry["time"] = {**clock, "step_workers": shards.workers}
                entries.append(entry)

                for c in [c for c in still_open if c in VALID_CRITERIA]:
                    metric = valid_mc if c == "s-valid" and valid_mc is not None else valid_map
                    if metric < best[c][0]:
                        best[c] = (metric, (post.copy(), prior.copy()), epoch)
                    elif epoch - best[c][2] >= cfg.patience:
                        close(c)
                if not still_open:
                    break
        except NumericAbort as exc:
            for c in still_open:
                records[c].aborted = True
                records[c].abort_reason = str(exc)
        except _WorkerLost:
            pass                # on_workers reaps worker 1 and raises its failure
        finally:
            shards.close()      # the request pipe: worker 1 leaves its loop

    try:
        network.on_workers(shards.workers, run)
    finally:
        shards.close()
    if shards.lost:
        raise RuntimeError("worker 1 left its loop before the run ended")
    for c in list(still_open):
        close(c)
    return records


# ---------------------------------------------------------------------------
# certificates on trained posteriors


# (form, risk) -> bound(report) -> (bound value, the lambda it reports); the
# iid zero-one bound reports the lambda at which the Catoni form equals it
_BOUNDS = {
    ("iid", "zero-one"): lambda r: bounds.selection_bound_iid(
        r.empirical_risk, r.divergence_value, r.j, r.m, r.delta
    ),
    ("iid", "loss"): lambda r: (bounds.iid_supervised_bound(
        r.empirical_risk, r.divergence_value, r.m, r.lam, r.delta, r.tau, r.loss_sup
    ), r.lam),
    ("noniid", "zero-one"): lambda r: (bounds.selection_bound_noniid(
        r.empirical_risk, r.j, r.extras["chi2_log1p"], r.m, r.delta, r.dependency_t
    ), None),
    ("noniid", "loss"): lambda r: (bounds.noniid_bound(
        r.empirical_risk, r.j, r.extras["chi2_log1p"], r.m, r.delta, r.dependency_t, r.loss_sup
    ), None),
}


def _check_form(objective, dependency_t):
    """The KL form, every objective's but noniid's, holds for independent tuples only."""
    if objective != "noniid" and dependency_t > 0:
        raise ValueError(f"objective {objective!r} is certified in the KL form, which needs "
                         f"independent tuples; the data has dependency_t = {dependency_t}")


def _certificate(layer_sizes, post, prior, ds, *, risk, objective, grid_b, grid_c, delta,
                 loss_kind, n_samples, rng, lam=None, jobs=()):
    """The certificate of one risk kind for a trained posterior.

    risk "zero-one" is the model-selection certificate, "loss" the bounded-loss
    one; objective "noniid" takes the chi-square form, any other the KL form,
    which _check_form refuses on dependent tuples. Only the iid loss
    certificate reads lam, and the dataset's provenance tau. The Monte Carlo
    pass runs jobs first, then, for a loss certificate, network.feature_bound
    as one job, then its own.

    The forms that pay the union over the prior grid c e^(-j/b), j = 1, 2, ...
    (all but the iid loss certificate) hold at integer j only. They are
    certified at the trained prior's two neighbours on the grid, floor(j) and
    ceil(j), each at least 1, with the divergence taken against that grid
    prior; the smaller bound is reported with its j. The iid loss certificate
    takes the trained prior and its continuous j.
    """
    form = "noniid" if objective == "noniid" else "iid"
    _check_form(objective, ds.dependency_t)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    tau = ds.provenance.get("tau")
    if (form, risk) != ("iid", "loss"):
        lam = tau = None
    elif lam is None:
        raise ValueError("iid loss certificate needs lambda")
    elif not lam > 0.0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    elif tau is None:
        raise ValueError("iid loss certificate needs tau (class collision probability) "
                         "in the dataset's provenance")
    j = bounds.j_index(grid_b, grid_c, prior.log_sigma2)
    if risk == "loss":
        feature_bound = network.shared_array(1)

        def bound_features():
            feature_bound[0] = network.feature_bound(layer_sizes, post.mu, ds.features)

        jobs = [*jobs, bound_features]
    r_hat, draws = evaluation.mc_posterior_risk(
        layer_sizes, post, ds, n_samples, risk, loss_kind, rng, jobs
    )
    rep = bounds.BoundReport(     # the divergence and the bound are filled in below
        bound_kind=f"{form}-{'selection' if risk == 'zero-one' else 'loss'}",
        bound_value=None, divergence_kind=None, divergence_value=None,
        empirical_risk=r_hat, risk_kind=risk, loss_kind=loss_kind,
        j=j, grid_b=grid_b, grid_c=grid_c, m=len(ds), delta=delta,
        dependency_t=ds.dependency_t, n_risk_samples=n_samples, lam=lam, tau=tau,
        extras={"risk_per_draw": [float(v) for v in draws]},
    )
    if risk == "loss":
        rep.feature_bound = float(feature_bound[0])
        rep.loss_sup = losses.loss_range(loss_kind, rep.feature_bound, ds.k)
    if (form, risk) == ("iid", "loss"):
        grid = [(j, prior.log_sigma2)]
    else:
        grid = [(i, math.log(grid_c) - i / grid_b)
                for i in sorted({max(1, math.floor(j)), max(1, math.ceil(j))})]
    reports = []
    for j, log_sigma2_p in grid:
        rep = dataclasses.replace(rep, j=j, extras=dict(rep.extras))
        gaussians = (post.mu, post.log_sigma2, prior.mu, log_sigma2_p)
        if form == "noniid":
            chi2 = divergences.chi2_gaussian(*gaussians)
            rep.divergence_kind, rep.divergence_value = "chi2", chi2.value
            rep.extras.update(chi2_log1p=chi2.log1p, chi2_overflowed=chi2.overflowed,
                              chi2_n_guarded=chi2.n_guarded)
        else:
            rep.divergence_kind, rep.divergence_value = "kl", divergences.kl_gaussian(*gaussians)
        rep.bound_value, rep.lam = _BOUNDS[form, risk](rep)
        reports.append(rep)
    return min(reports, key=lambda r: r.bound_value)    # the first on a tie


def selection_certificate(layer_sizes, post, prior, ds, **kw):
    """Model-selection certificate (zero-one risk) for a trained posterior."""
    return _certificate(layer_sizes, post, prior, ds, risk="zero-one", **kw)


def loss_certificate(layer_sizes, post, prior, ds, **kw):
    """Bounded-loss certificate: supervised transfer (iid) or chi-square form."""
    return _certificate(layer_sizes, post, prior, ds, risk="loss", **kw)


def certify_checkpoint(path, ds, *, objective, n_samples, risk="zero-one", seed=None, lam=None,
                       ds_hash=None):
    """The certificate of the checkpoint file at path on ds: bound and train's pb ranking.

    grid_b, grid_c, delta and loss_kind are fixed before the data: they come
    from the checkpoint's training config, else TrainConfig's defaults. The
    Monte Carlo stream is drawn from [seed, 0xB0], seed defaulting to the
    checkpoint's. objective picks the form and lam is the iid loss
    certificate's, as in selection_certificate and loss_certificate. The
    provenance pins the checkpoint, the tuples (ds_hash; when None,
    data.dataset_hash(ds), the first job of the Monte Carlo pass), the
    numeric environment and the seed.
    """
    ckpt = network.load_checkpoint(path)
    network.check_input_width(path, ckpt, ds.dim)
    grid_b, grid_c, delta, loss_kind = (ckpt.config.get(key, getattr(TrainConfig, key))
                                        for key in ("grid_b", "grid_c", "delta", "loss_kind"))
    try:
        check_certificate_settings(grid_b, grid_c, delta, loss_kind)
    except ValueError as exc:
        raise ValueError(f"{exc}, in the config of checkpoint {path}") from None
    seed = int(ckpt.seed if seed is None else seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]).generate_state(1)[0])
    digest = network.shared_array(32, np.uint8)

    def hash_data():
        digest[:] = np.frombuffer(bytes.fromhex(data.dataset_hash(ds)), np.uint8)

    certify = selection_certificate if risk == "zero-one" else loss_certificate
    report = certify(
        tuple(ckpt.layer_sizes), ckpt.posterior, ckpt.prior, ds,
        grid_b=float(grid_b), grid_c=float(grid_c), delta=float(delta), loss_kind=loss_kind,
        objective=objective, n_samples=n_samples, rng=rng, lam=lam,
        jobs=[hash_data] if ds_hash is None else [],
    )
    if ds_hash is None:
        ds_hash = digest.tobytes().hex()
    report.provenance = {"checkpoint": path, "dataset_hash": ds_hash,
                         "environment": network.environment(), "seed": seed}
    return report


# ---------------------------------------------------------------------------
# grid search over configs and selection criteria

CERT_SAMPLES = 10      # posterior draws behind a certificate's Monte Carlo risk


def rank_runs(records, criteria, out_dir):
    """Rank runs per criterion into out_dir/leaderboard.csv and out_dir/best.json.

    records are RunRecords in runs.jsonl order; a run is scored by its metric
    (the certificate for pb runs). Aborted and unscored runs are skipped, and
    the earlier record wins a tie, so rankings are reproducible. best.json maps
    each criterion to its winner's run_id, metric and checkpoint; when no run
    is ranked it is not written and NumericAbort is raised. Returns
    {criterion: best record}.
    """
    best = {}
    with open(os.path.join(out_dir, "leaderboard.csv"), "w") as fh:
        fh.write("criterion,rank,run_id,metric,checkpoint\n")
        for criterion in criteria:
            ranked = sorted(
                ((float(rec.metric), pos, rec) for pos, rec in enumerate(records)
                 if rec.mode == CRITERION_MODES[criterion]
                 and not rec.aborted and rec.metric is not None),
                key=lambda row: row[:2],
            )
            for rank, (metric, _, rec) in enumerate(ranked, start=1):
                fh.write(f"{criterion},{rank},{rec.run_id},{metric!r},{rec.checkpoint_path}\n")
            if ranked:
                best[criterion] = ranked[0][2]
    if not best:
        raise NumericAbort("every grid run aborted")
    doc = {c: {"run_id": rec.run_id, "metric": float(rec.metric),
               "checkpoint": rec.checkpoint_path} for c, rec in best.items()}
    with open(os.path.join(out_dir, "best.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return best


def grid_search(configs, criteria, data, valid, out_dir, cert_samples=CERT_SAMPLES):
    """Train every config under the criteria and rank the runs per criterion.

    Each config trains at most twice. The validation criteria asked for share
    one run on data that stops early on valid (see train). pb trains on
    data + valid to the last epoch and scores by the model-selection
    certificate of the checkpoint it wrote, on data + valid
    (certify_checkpoint, as bound). The best of the G = len(configs) pb
    certificates holds with probability 1 - delta only if each does with
    1 - delta / G, so each pb run trains and certifies at delta / G, which
    its config and checkpoint record. Rewrites runs.jsonl with one record
    per config and criterion, config by config, ranks them with rank_runs
    and returns {criterion: best RunRecord}.
    """
    if not criteria:
        raise ValueError(f"criteria must name at least one of {CRITERIA}")
    for c in criteria:
        if c not in CRITERIA:
            raise ValueError(f"unknown criterion {c!r}, expected one of {CRITERIA}")
        if c != "pb" and valid is None:
            raise ValueError(f"criterion {c!r} needs a validation split in the dataset")
    pb_data = concat_contrastive(data, valid) if valid is not None and "pb" in criteria else data
    if "pb" in criteria:    # the pb certificate's refusal, before any run rather than after
        for cfg in configs:
            _check_form(cfg.objective, pb_data.dependency_t)
    os.makedirs(out_dir, exist_ok=True)
    by_valid = [c for c in criteria if c in VALID_CRITERIA]
    runs, pb_hash = [], None    # the first pb certificate hashes pb_data; the rest reuse it
    with open(os.path.join(out_dir, "runs.jsonl"), "w") as runs_fh:
        for gi, cfg in enumerate(configs):
            run_id = f"c{gi:03d}"
            recs = train(cfg, data, valid, by_valid, out_dir, run_id) if by_valid else {}
            if "pb" in criteria:
                pb_cfg = dataclasses.replace(cfg, delta=cfg.delta / len(configs))
                rec = recs["pb"] = train(pb_cfg, pb_data, run_dir=out_dir, run_id=run_id)["pb"]
                if not rec.aborted:
                    report = certify_checkpoint(rec.checkpoint_path, pb_data,
                                                objective=cfg.objective, n_samples=cert_samples,
                                                seed=cfg.seed, ds_hash=pb_hash)
                    pb_hash = report.provenance["dataset_hash"]
                    rec.metric = report.bound_value
                    rec.selection = report.to_dict()
            for rec in recs.values():
                runs_fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
                runs.append(rec)
    return rank_runs(runs, criteria, out_dir)
