"""Stochastic fully connected ReLU networks with diagonal Gaussian posteriors.

Weights are governed by a factorised Gaussian posterior Q = N(mu_q, diag
sigma2_q) and a Gaussian prior P = N(mu_p, sigma2_p I) with a scalar prior
variance. Posterior variances are kept in log space. Forward and backward
passes are hand written numpy on a flat parameter vector.
"""

import functools
import json
import mmap
import os
import pickle
import signal
import tempfile
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


def sample_weights(post, eps, ws=None):
    """Reparameterised draw w = mu + sigma * eps, sigma = exp(log_sigma2 / 2).

    With a workspace, sigma goes to ws.sigma, where posterior_grads_from_weight_grad
    reads it, and w to ws.w, which the next draw overwrites.
    """
    sigma = np.multiply(post.log_sigma2, 0.5, out=None if ws is None else ws.sigma)
    np.exp(sigma, out=sigma)
    w = np.multiply(sigma, eps, out=None if ws is None else ws.w)
    w += post.mu
    return w


# whole-matrix forwards, Monte Carlo chunks and data's row loops run in row
# chunks of this height, whose input and activations stay in cache. The remainder folds into
# the last chunk, so the chunks, and the bits, depend on the row count alone.
# Whether a row's bits also depend on its GEMM's height depends on the layer:
# measured with OpenBLAS 0.3.31 on AVX-512, one thread, 3 random draws, against
# a 4,096-row GEMM, the acceptance layers (21 -> 32 and 33 -> 16, ones
# included) differ only at 1 row, a 23 -> 50 layer up to 869 rows and a
# 101 -> 10 layer up to 990
CHUNK_ROWS = 1024


def row_chunks(n, chunk=CHUNK_ROWS):
    """[lo, hi) ranges covering n rows, each at least chunk high unless n is less."""
    edges = list(range(0, n - chunk + 1, chunk)) or [0]
    return list(zip(edges, edges[1:] + [n]))


def chunk_workspace(layer_sizes, n):
    """A forward-only Workspace as tall as the tallest of row_chunks(n)."""
    lo, hi = row_chunks(n)[-1]
    return Workspace(layer_sizes, hi - lo, forward_only=True)


def worker_count(n_jobs):
    """Worker processes for n_jobs independent jobs: min(n_jobs, usable CPUs // BLAS threads).

    run_jobs asks with its job count, and the trainer with one per shard of
    its batches, so at most two.

    BLAS threads is the first positive integer among OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS, the order OpenBLAS reads them in.
    With none set, BLAS already runs on every CPU, so the count is 1. It is
    1 too where os.fork does not exist, as the workers are forked.
    """
    if not hasattr(os, "fork"):
        return 1
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
    return max(1, min(n_jobs, cpus // blas))


def environment():
    """The numeric environment certificate bytes depend on: numpy, BLAS, BLAS threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {name: os.environ.get(name)
                        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def on_workers(n, work):
    """Run work(0), ..., work(n - 1): work(0) here, the rest in forked children.

    The package's one fork helper. run_jobs runs its pool on it, for
    evaluation.draw_risks and data.save_labeled_csv, whose jobs hand back
    their results in anonymous shared memory (shared_array). training.train
    runs on it directly: the trainer is worker 0 and worker 1 computes the
    second shard of every batch (see training.ShardedLoss). Children leave
    only through os._exit, after sending a raised exception back pickled
    through a pipe; every child is reaped before this returns or raises. If
    this process raises, here or in a signal handler while it waits on a
    child, the children not yet reaped are killed and reaped first. A child's
    exception is re-raised here with its type and message; one that cannot be
    pickled, or a child killed by a signal, gives a RuntimeError naming the
    worker. Where os.fork fails, this process runs that worker's share itself.
    """
    children = []                           # (worker, pid, its pipe's read end), not yet reaped
    failures = []
    try:
        for i in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                work(i)
                continue
            if pid == 0:                    # the child
                code = 1
                try:
                    os.close(read)
                    work(i)
                    code = 0
                except BaseException as exc:
                    try:
                        payload = pickle.dumps(exc)
                    except Exception:
                        payload = pickle.dumps(RuntimeError(
                            f"worker {i} raised {type(exc).__name__}: {exc}"))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(code)
            os.close(write)
            children.append((i, pid, os.fdopen(read, "rb")))
        work(0)
        while children:
            i, pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if os.WIFSIGNALED(status):
                sig = signal.Signals(os.WTERMSIG(status)).name
                failures.append(RuntimeError(f"worker {i} was killed by {sig}"))
            elif os.WEXITSTATUS(status):
                try:
                    failures.append(pickle.loads(payload))
                except Exception:
                    failures.append(RuntimeError(
                        f"worker {i} failed and its exception could not be read"))
    except BaseException:
        for _, pid, pipe in children:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):   # reaped before the raise
                pass
        raise
    if failures:
        raise failures[0]


def shared_array(n, dtype=np.float64):
    """n zeros in anonymous shared memory: what a forked worker writes there, its parent reads."""
    return np.frombuffer(mmap.mmap(-1, max(1, n * np.dtype(dtype).itemsize)), dtype, n)


def run_jobs(jobs):
    """Run each of jobs, callables of no arguments, once, on the workers of on_workers.

    The worker_count(len(jobs)) workers claim the jobs on demand: a worker
    that comes free takes the first job not yet claimed. So the jobs start in
    list order, and a worker that starts late, as a forked one does, takes
    fewer. The next job's index lies in shared memory behind a POSIX record
    lock on an unnamed file, which the kernel releases when its holder exits,
    however it exits, and no job count blocks. Each job writes its result at
    its own place in shared memory (shared_array), so no result depends on
    which worker ran it or on how many there are. A failure is on_workers'.
    """
    n = worker_count(len(jobs))
    if n == 1:
        for job in jobs:
            job()
        return
    claimed = shared_array(1, np.int64)     # jobs claimed so far
    with tempfile.TemporaryFile() as lock:

        def claim():
            os.lockf(lock.fileno(), os.F_LOCK, 0)
            job = int(claimed[0])
            claimed[0] = job + 1
            os.lockf(lock.fileno(), os.F_ULOCK, 0)
            return job

        def work(i):
            while (job := claim()) < len(jobs):
                jobs[job]()

        on_workers(n, work)


class Workspace:
    """Per-layer buffers for forward and backprop over at most `rows` input rows.

    ins[li] is layer li's input with a trailing column of ones, which folds the
    layer's bias into its GEMM: ins[0] takes the network input (load), ins[li]
    holds the ReLU output of layer li - 1. out holds the last layer's output.
    forward_cached returns views into ins and out that the next call
    overwrites; given a flat weight vector, it packs it into packed, whose
    per-layer views are mats. A forward_only workspace holds ins alone: its
    callers give the last layer's output buffer.

    For training, backprop takes its deltas in the forward's own buffers: d_out
    is given over out, and each hidden layer's delta goes into its ins buffer
    (the ones column stays 1), once that buffer's weight gradient and ReLU mask
    are taken. The masks are one (rows, width + 1) array per hidden layer, grad
    the flat weight gradient and dtheta the 2n + 1 gradient of a training
    objective w.r.t. (posterior means, posterior log variances, prior log
    variance). w and sigma take sample_weights' draw and its standard
    deviations. scratch is a flat buffer of rows * d_out floats for the loss on
    top of the network, views the loss's views of out and scratch per batch
    shape, and ones a vector of rows ones that turns the bias gradients' column
    sums into one GEMV each.
    """

    def __init__(self, layer_sizes, rows, forward_only=False):
        self.layer_sizes = tuple(layer_sizes)
        self.slices = _layer_slices(layer_sizes)
        widths = layer_sizes[1:]
        self.ins = [np.empty((rows, n + 1)) for n in layer_sizes[:-1]]
        for buf in self.ins:
            buf[:, -1] = 1.0
        if forward_only:
            return
        n_params = param_count(layer_sizes)
        self.out = np.empty((rows, widths[-1]))
        self.masks = [np.empty((rows, n + 1), dtype=bool) for n in widths[:-1]]
        self.grad, self.w, self.sigma = (np.empty(n_params) for _ in range(3))
        self.dtheta = np.empty(2 * n_params + 1)
        self.scratch = np.empty(rows * widths[-1])
        self.views = {}
        self.ones = np.ones(rows)

    @functools.cached_property
    def mats(self):
        """Per-layer views of packed, a vector in pack's layout, made on first use:
        a forward given its weights packed needs neither."""
        self.packed = np.empty(param_count(self.layer_sizes))
        return _packed_views(self.layer_sizes, self.packed)

    def load(self, x):
        """Copy input rows into ins[0], beside its ones column; returns that view."""
        x_in = self.ins[0][: len(x)]
        x_in[:, :-1] = x
        return x_in


@functools.lru_cache
def _pack_index(layer_sizes):
    """The indices that take a flat weight vector to pack's layout: layer by
    layer, each column of W followed by the bias row. Read-only, as callers
    share it.
    """
    index = np.arange(param_count(layer_sizes))
    index = np.concatenate([
        np.vstack((index[w_sl].reshape(b_sl.stop - b_sl.start, -1).T, index[b_sl])).ravel()
        for w_sl, b_sl in _layer_slices(layer_sizes)])
    index.flags.writeable = False
    return index


def _packed_views(layer_sizes, packed):
    """Each layer's C-contiguous (fan_in + 1, fan_out) view of a vector in pack's layout.

    A layer spans the same entries as its (W, b) pair in the flat layout.
    """
    return [packed[w_sl.start : b_sl.stop].reshape(-1, b_sl.stop - b_sl.start)
            for w_sl, b_sl in _layer_slices(layer_sizes)]


def pack(layer_sizes, w):
    """Each layer's (fan_in + 1, fan_out) matrix [W^T; b] of a flat weight vector.

    An input row that ends in a one, times it, gives W x + b in one GEMM that
    BLAS runs untransposed (NN). OpenBLAS takes its small-matrix NN kernel up
    to about 1e6 multiply-adds: with 0.3.31 on AVX-512 it ran the acceptance
    layers 1.4-1.9x faster than a transposed [W | b] at 1,023-1,375 rows, and
    within 1 % of it above. The matrices are views of one vector that one
    np.take fills. A list is taken to be packed already and returned as it is.
    """
    if isinstance(w, list):
        return w
    return _packed_views(layer_sizes, np.take(w, _pack_index(tuple(layer_sizes))))


def forward(layer_sizes, w, x, out=None, ws=None):
    """Apply the network to a matrix of rows, in row chunks.

    Parameters
    ----------
    layer_sizes : sequence of ints, input dim first.
    w : flat parameter vector, or its pack.
    x : (n, d_in) array.
    out : optional (n, d_out) array to write into.
    ws : optional forward-only Workspace at least as tall as chunk_workspace's
        for n rows, for callers that forward many times; else a new one.

    Returns
    -------
    (n, d_out) array.
    """
    if out is None:
        out = np.empty((len(x), layer_sizes[-1]))
    ws = ws or chunk_workspace(layer_sizes, len(x))
    mats = pack(layer_sizes, w)
    for lo, hi in row_chunks(len(x)):
        forward_cached(layer_sizes, mats, x[lo:hi], ws, out[lo:hi])
    return out


def forward_cached(layer_sizes, w, x, ws=None, out=None):
    """Forward pass keeping each layer's input for backprop.

    w is a flat weight vector, packed into ws.packed, or its pack. x is
    (n, d_in) rows, copied into ws.ins[0], or the view ws.load returned, which
    skips the copy when one chunk goes through several weight vectors. Each
    layer multiplies its ones-extended input by [W^T; b] in one untransposed
    GEMM (see CHUNK_ROWS on heights and shapes). ReLU follows every layer but
    the last, over the whole buffer, where the ones stay 1. The last layer
    writes into out ((n, d_out)) when given, else ws.out (not in a
    forward_only workspace). Returns the output and the cache: every layer's
    (n, fan_in + 1) input, ones column included, then the output, all views
    into ws (a temporary workspace when None).
    """
    x = np.asarray(x, dtype=np.float64)
    ws = ws or Workspace(layer_sizes, len(x))
    if isinstance(w, list):
        mats = w
    else:
        mats = ws.mats
        w.take(_pack_index(ws.layer_sizes), out=ws.packed)
    n = len(x)
    a = x if x.base is ws.ins[0] else ws.load(x)
    cache = [a]
    for li, m in enumerate(mats[:-1]):
        z = ws.ins[li + 1][:n]
        np.matmul(a, m, out=z[:, :-1])
        np.maximum(z, 0.0, out=z)
        cache.append(z)
        a = z
    z = ws.out[:n] if out is None else out
    np.matmul(a, mats[-1], out=z)
    cache.append(z)
    return z, cache


def backprop(layer_sizes, w, cache, d_out, ws=None):
    """Gradient of sum(output * d_out) with respect to the flat weights.

    cache is forward_cached's on the same inputs: the layer inputs with their
    ones columns, which the weight gradients leave out. ReLU subgradient at 0
    is 0. The hidden layers' inputs are used up: once a hidden input's weight
    gradient and ReLU mask are taken, the delta of the layer below goes over
    it, and only its ones column (where the mask is 1) keeps its value. cache[0]
    and d_out are only read. Returns ws.grad (a temporary workspace's when ws
    is None).
    """
    delta = np.asarray(d_out, dtype=np.float64)
    n = len(delta)
    ws = ws or Workspace(layer_sizes, n)
    for li in range(len(ws.slices) - 1, -1, -1):
        w_sl, b_sl = ws.slices[li]
        wm = w[w_sl].reshape(layer_sizes[li + 1], layer_sizes[li])
        a = cache[li]
        np.matmul(delta.T, a[:, :-1], out=ws.grad[w_sl].reshape(wm.shape))
        np.matmul(ws.ones[:n], delta, out=ws.grad[b_sl])      # the column sums
        if li > 0:
            mask = np.greater(a, 0.0, out=ws.masks[li - 1][:n])
            np.matmul(delta, wm, out=a[:, :-1])
            # the mask over the whole contiguous buffer, ones column too: 4x faster than its view
            np.multiply(a, mask, out=a)
            delta = a[:, :-1]
    return ws.grad


def posterior_grads_from_weight_grad(sigma, eps, d_w, out=None):
    """Chain d loss / d w through w = mu + sigma * eps, sigma = exp(log_sigma2 / 2).

    Returns (d_mu, d_log_sigma2): d_w itself and d_w * eps * sigma / 2, written
    to out when given.
    """
    d_ls = np.multiply(d_w, eps, out=out)
    d_ls *= sigma
    d_ls *= 0.5
    return d_w, d_ls


def feature_bound(layer_sizes, w, features):
    """B = max_x ||f(x)||_2 over the given input rows (NaN if a row's is).

    Forwards one row chunk at a time and keeps only each chunk's largest
    squared norm, not the output matrix.
    """
    ws = chunk_workspace(layer_sizes, len(features))
    out = np.empty((len(ws.ins[0]), layer_sizes[-1]))
    mats = pack(layer_sizes, w)
    sq = []
    for lo, hi in row_chunks(len(features)):
        z = forward_cached(layer_sizes, mats, features[lo:hi], ws, out[: hi - lo])[0]
        sq.append(np.max(np.sum(np.square(z, out=z), axis=1)))
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
        fh.write(json.dumps(doc, sort_keys=True) + "\n")    # json.dump's bytes, in one write


def _checkpoint_array(path, doc, key, shape):
    """doc[key] as a finite float64 array of the given shape, else ValueError."""
    try:
        value = np.asarray(doc[key], dtype=np.float64)
    except (TypeError, ValueError):
        value = None
    if value is None or value.shape != shape or not np.isfinite(value).all():
        raise ValueError(f"{path}: {key} must be finite numbers of shape {shape}")
    return value


def check_input_width(path, ckpt, dim):
    """Reject the checkpoint at path if its network does not take rows of width dim."""
    if ckpt.layer_sizes[0] != dim:
        raise ValueError(f"{path}: network input width {ckpt.layer_sizes[0]} does not "
                         f"match feature dim {dim}")


def load_checkpoint(path):
    """Read a checkpoint; a malformed one raises ValueError naming the file and the field."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "pbcurl-checkpoint-v1":
        raise ValueError(f"{path}: not a checkpoint file")
    if doc.get("feature_layers") is not None:
        # older versions trained a supervised class head on top of the features
        raise ValueError(f"{path}: checkpoint has a supervised class head, not supported")
    for key in ("layer_sizes", "mu_q", "log_sigma2_q", "mu_p", "log_sigma2_p", "seed", "epoch"):
        if key not in doc:
            raise ValueError(f"{path}: checkpoint has no {key}")
    sizes = doc["layer_sizes"]
    if not (isinstance(sizes, list) and len(sizes) >= 2
            and all(type(s) is int and s >= 1 for s in sizes)):
        raise ValueError(f"{path}: layer_sizes must be at least 2 positive integers")
    if not all(type(doc[key]) is int for key in ("seed", "epoch")):
        raise ValueError(f"{path}: seed and epoch must be integers")
    if not isinstance(doc.get("config", {}), dict):
        raise ValueError(f"{path}: config must be a JSON object")
    n = (param_count(sizes),)
    post = Posterior(mu=_checkpoint_array(path, doc, "mu_q", n),
                     log_sigma2=_checkpoint_array(path, doc, "log_sigma2_q", n))
    prior = Prior(mu=_checkpoint_array(path, doc, "mu_p", n),
                  log_sigma2=float(_checkpoint_array(path, doc, "log_sigma2_p", ())))
    return Checkpoint(
        layer_sizes=sizes,
        posterior=post,
        prior=prior,
        seed=doc["seed"],
        epoch=doc["epoch"],
        config=doc.get("config", {}),
    )
