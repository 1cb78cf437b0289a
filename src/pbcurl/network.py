"""Stochastic fully connected ReLU networks with diagonal Gaussian posteriors.

Weights are governed by a factorised Gaussian posterior Q = N(mu_q, diag
sigma2_q) and a Gaussian prior P = N(mu_p, sigma2_p I) with a scalar prior
variance. Posterior variances are kept in log space. Forward and backward
passes are hand written numpy on a flat parameter vector.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np


def param_count(layer_sizes):
    """Total parameter count: sum over layers of (fan_in + 1) * fan_out."""
    return sum((i + 1) * o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layer_slices(layer_sizes):
    """Offsets of each (W, b) pair inside the flat parameter vector."""
    slices = []
    off = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w_sz = fan_in * fan_out
        slices.append((slice(off, off + w_sz), slice(off + w_sz, off + w_sz + fan_out)))
        off += w_sz + fan_out
    return slices


@dataclass
class Posterior:
    """Flat posterior parameters. sigma2_q = exp(log_sigma2)."""

    mu: np.ndarray
    log_sigma2: np.ndarray

    def copy(self):
        return Posterior(self.mu.copy(), self.log_sigma2.copy())

    @property
    def n_params(self):
        return self.mu.size


@dataclass
class Prior:
    """Gaussian prior with isotropic variance exp(log_sigma2).

    log_sigma2 is a float, or a 0-d view into the vector a trainer updates.
    """

    mu: np.ndarray
    log_sigma2: float

    def copy(self):
        return Prior(self.mu.copy(), float(self.log_sigma2))

    @property
    def sigma2(self):
        return float(np.exp(self.log_sigma2))


def truncated_normal(shape, std, rng, n_std=2.0):
    """Normal(0, std^2) samples with |x| > n_std * std redrawn until inside."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > n_std * std
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > n_std * std
    return out


def init_network(layer_sizes, sigma2_p, rng):
    """Draw initial posterior means and centre the prior on them.

    Weight means are truncated normal with per layer std 2 / fan_in, biases
    start at zero. Posterior log variances start at log(sigma2_p) so that
    KL(Q||P) = 0 at initialisation.
    """
    n = param_count(layer_sizes)
    mu = np.zeros(n)
    for (w_sl, _), fan_in in zip(_layer_slices(layer_sizes), layer_sizes[:-1]):
        mu[w_sl] = truncated_normal(w_sl.stop - w_sl.start, 2.0 / fan_in, rng)
    post = Posterior(mu=mu, log_sigma2=np.full(n, np.log(sigma2_p)))
    prior = Prior(mu=mu.copy(), log_sigma2=float(np.log(sigma2_p)))
    return post, prior


def sample_eps(n_params, rng):
    return rng.standard_normal(n_params)


def sample_weights(post, eps):
    """Reparameterised draw w = mu + sigma * eps."""
    return post.mu + np.exp(0.5 * post.log_sigma2) * eps


def map_weights(post):
    """Posterior mean network f* (the MAP network under the Gaussian)."""
    return post.mu.copy()


# whole-matrix forwards run in row chunks of this height. The remainder folds
# into the last chunk: OpenBLAS rounds a GEMM over 75 rows or fewer differently
# from one over the whole matrix, so a short tail chunk would change the output.
# From STABLE_ROWS rows up, a row's output bits depend on that row alone
CHUNK_ROWS = 2048
STABLE_ROWS = 76


def row_chunks(n, chunk=CHUNK_ROWS):
    """[lo, hi) ranges covering n rows, each at least chunk high unless n is less."""
    edges = list(range(0, n - chunk + 1, chunk)) or [0]
    return list(zip(edges, edges[1:] + [n]))


def worker_count(n_chunks):
    """Threads for n_chunks independent chunks: min(n_chunks, usable CPUs // BLAS threads).

    BLAS threads is the first positive integer among OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS, the order OpenBLAS reads them in.
    With none set, BLAS already runs on every CPU, so the count is 1.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    else:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:                 # no affinity outside Linux
        cpus = os.cpu_count() or 1
    return max(1, min(n_chunks, cpus // blas))


class Workspace:
    """Per-layer buffers for forward and backprop over at most `rows` input rows.

    Activations, deltas and ReLU masks are one (rows, width) array per layer
    (deltas[-1] holds d_out), grad is the flat weight gradient and dtheta the
    2n + 1 gradient of a training objective w.r.t. (posterior means, posterior
    log variances, prior log variance). forward_cached and backprop return
    views into them that the next call overwrites. scratch is a flat buffer of
    rows * d_out floats for the loss on top of the network, and ones a vector
    of rows ones that turns the bias gradients' column sums into one GEMV each.
    A forward_only workspace holds the activations alone.
    """

    def __init__(self, layer_sizes, rows, forward_only=False):
        self.slices = _layer_slices(layer_sizes)
        widths = layer_sizes[1:]
        self.acts = [np.empty((rows, n)) for n in widths]
        if forward_only:
            return
        self.deltas = [np.empty((rows, n)) for n in widths]
        self.masks = [np.empty((rows, n), dtype=bool) for n in widths[:-1]]
        self.grad = np.empty(param_count(layer_sizes))
        self.dtheta = np.empty(2 * self.grad.size + 1)
        self.scratch = np.empty(rows * widths[-1])
        self.ones = np.ones(rows)


def forward(layer_sizes, w, x, out=None):
    """Apply the network to a matrix of rows, in row chunks.

    Parameters
    ----------
    layer_sizes : sequence of ints, input dim first.
    w : flat parameter vector.
    x : (n, d_in) array.
    out : optional (n, d_out) array to write into.

    Returns
    -------
    (n, d_out) array.
    """
    if out is None:
        out = np.empty((len(x), layer_sizes[-1]))
    chunks = row_chunks(len(x))
    ws = Workspace(layer_sizes, chunks[-1][1] - chunks[-1][0], forward_only=True)  # the tallest
    for lo, hi in chunks:
        out[lo:hi] = forward_cached(layer_sizes, w, x[lo:hi], ws)[0]
    return out


def forward_cached(layer_sizes, w, x, ws=None):
    """Forward pass keeping per layer activations for backprop.

    ReLU after every layer but the last. The activations are views into ws
    (a temporary workspace when None).
    """
    a = np.asarray(x, dtype=np.float64)
    ws = ws or Workspace(layer_sizes, len(a))
    n_layers = len(ws.slices)
    cache = [a]
    for li in range(n_layers):
        w_sl, b_sl = ws.slices[li]
        z = ws.acts[li][: len(a)]
        np.matmul(a, w[w_sl].reshape(layer_sizes[li + 1], layer_sizes[li]).T, out=z)
        z += w[b_sl]
        if li < n_layers - 1:
            np.maximum(z, 0.0, out=z)
        cache.append(z)
        a = z
    return a, cache


def backprop(layer_sizes, w, cache, d_out, ws=None):
    """Gradient of sum(output * d_out) with respect to the flat weights.

    cache is the activation list from forward_cached on the same inputs.
    ReLU subgradient at 0 is 0. Returns ws.grad (a temporary workspace's
    when ws is None).
    """
    delta = np.asarray(d_out, dtype=np.float64)
    n = len(delta)
    ws = ws or Workspace(layer_sizes, n)
    n_layers = len(ws.slices)
    for li in range(n_layers - 1, -1, -1):
        w_sl, b_sl = ws.slices[li]
        wm = w[w_sl].reshape(layer_sizes[li + 1], layer_sizes[li])
        if li < n_layers - 1:
            np.multiply(delta, np.greater(cache[li + 1], 0.0, out=ws.masks[li][:n]), out=delta)
        np.matmul(delta.T, cache[li], out=ws.grad[w_sl].reshape(wm.shape))
        np.matmul(ws.ones[:n], delta, out=ws.grad[b_sl])      # the column sums
        if li > 0:
            delta = np.matmul(delta, wm, out=ws.deltas[li - 1][:n])
    return ws.grad


def posterior_grads_from_weight_grad(post, eps, d_w):
    """Chain d loss / d w through w = mu + exp(log_sigma2 / 2) * eps.

    Returns (d_mu, d_log_sigma2).
    """
    sigma = np.exp(0.5 * post.log_sigma2)
    return d_w, d_w * eps * sigma * 0.5


def feature_bound(layer_sizes, w, features):
    """B = max_x ||f(x)||_2 over the given input rows (NaN if a row's is).

    Keeps only each row chunk's largest squared norm, not the output matrix.
    """
    chunks = row_chunks(len(features))
    ws = Workspace(layer_sizes, chunks[-1][1] - chunks[-1][0], forward_only=True)  # the tallest
    sq = []
    for lo, hi in chunks:
        out = forward_cached(layer_sizes, w, features[lo:hi], ws)[0]
        sq.append(np.max(np.sum(np.square(out, out=out), axis=1)))
    return float(np.sqrt(np.max(sq)))


@dataclass
class Checkpoint:
    layer_sizes: list
    posterior: Posterior
    prior: Prior
    seed: int
    epoch: int
    config: dict = field(default_factory=dict)


def save_checkpoint(path, ckpt):
    """Write a checkpoint as JSON. Decimal float arrays round trip exactly."""
    doc = {
        "format": "pbcurl-checkpoint-v1",
        "layer_sizes": list(ckpt.layer_sizes),
        "mu_q": ckpt.posterior.mu.tolist(),
        "log_sigma2_q": ckpt.posterior.log_sigma2.tolist(),
        "mu_p": ckpt.prior.mu.tolist(),
        "sigma2_p": ckpt.prior.sigma2,
        "log_sigma2_p": ckpt.prior.log_sigma2,
        "seed": ckpt.seed,
        "epoch": ckpt.epoch,
        "config": ckpt.config,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "pbcurl-checkpoint-v1":
        raise ValueError(f"{path}: not a checkpoint file")
    if doc.get("feature_layers") is not None:
        # older versions trained a supervised class head on top of the features
        raise ValueError(f"{path}: checkpoint has a supervised class head, not supported")
    post = Posterior(
        mu=np.asarray(doc["mu_q"], dtype=np.float64),
        log_sigma2=np.asarray(doc["log_sigma2_q"], dtype=np.float64),
    )
    prior = Prior(
        mu=np.asarray(doc["mu_p"], dtype=np.float64),
        log_sigma2=float(doc["log_sigma2_p"]),
    )
    return Checkpoint(
        layer_sizes=list(doc["layer_sizes"]),
        posterior=post,
        prior=prior,
        seed=int(doc["seed"]),
        epoch=int(doc["epoch"]),
        config=doc.get("config", {}),
    )
