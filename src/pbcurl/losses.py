"""Contrastive losses over anchor/positive/negative tuples.

A tuple holds one anchor x, a block of block_size positives drawn from the
anchor's latent class, and k blocks of negatives. Losses act on the k margins

    v_i = f(x) . ( mean_b f(x+) - mean_b f(x-_i) )

and are normalised so that ell(0) = 1 for both families (base-2 logistic,
hinge).
"""

from math import exp, inf, log, log2

import numpy as np

LN2 = np.log(2.0)


def contrastive_margins(anchor_out, pos_out, neg_out, diff=None):
    """Margins of a batch of tuples under an already-applied feature map.

    Parameters
    ----------
    anchor_out : (..., n, d) array, f(x) per tuple.
    pos_out : (..., n, b, d) array, f of each positive in the block.
    neg_out : (..., n, k, b, d) array, f of each negative, per negative block.
    diff : optional (..., n, k, d) array to work in; on return it holds
        mean_b f(x+) - mean_b f(x-_i).

    Leading axes (a block of posterior draws) are batched over; each element
    gets the bits it would get on its own. Each block mean is summed member
    by member from +0.0 and then divided by b, which is np.mean's order over a
    middle axis, so the margins are bitwise those of
    np.mean(pos_out, -2)[..., None, :] - np.mean(neg_out, -2).

    Returns
    -------
    (..., n, k) array of margins, one per negative block.
    """
    pos_out = np.asarray(pos_out, dtype=np.float64)
    neg_out = np.asarray(neg_out, dtype=np.float64)
    b = pos_out.shape[-2]
    if diff is None:
        diff = np.empty(neg_out.shape[:-2] + neg_out.shape[-1:])
    pos_mean = pos_out[..., 0, :] + 0.0                    # (..., n, d); +0.0 turns -0.0 into 0.0
    np.add(neg_out[..., 0, :], 0.0, out=diff)              # negative block sums, (..., n, k, d)
    for j in range(1, b):
        pos_mean += pos_out[..., j, :]
        diff += neg_out[..., j, :]
    pos_mean /= b
    diff /= b
    np.subtract(pos_mean[..., None, :], diff, out=diff)
    return np.einsum("...nd,...nkd->...nk", np.asarray(anchor_out, dtype=np.float64), diff)


def _log1p_sum_exp(neg_v):
    """log(1 + sum_i exp(-v_i)) = logaddexp(0, logsumexp(-v)), overflow safe.

    The logsumexp is np.logaddexp.reduce over the last axis, as a chain of
    column logaddexp calls in its order, which gives its bits in fewer passes.
    """
    total = neg_v[..., 0].copy()
    for i in range(1, neg_v.shape[-1]):
        np.logaddexp(total, neg_v[..., i], out=total)
    return np.logaddexp(0.0, total, out=total)


def logistic_loss(margins):
    """log2(1 + sum_i exp(-v_i)) per tuple, overflow safe.

    margins: (..., k). Returns array of shape margins.shape[:-1].
    """
    return _log1p_sum_exp(-np.asarray(margins, dtype=np.float64)) / LN2


def logistic_loss_and_grad(margins):
    """The logistic loss per tuple and d loss / d v_i (margins' shape), one reduction."""
    g = np.negative(np.asarray(margins, dtype=np.float64))
    total = _log1p_sum_exp(g)
    g -= total[..., None]                   # g = -exp(-v - total) / ln 2, in place
    np.exp(g, out=g)
    np.negative(g, out=g)
    g /= LN2
    return total / LN2, g


def hinge_loss(margins):
    """max(0, 1 + max_i(-v_i)) per tuple."""
    v = np.asarray(margins, dtype=np.float64)
    return np.maximum(0.0, 1.0 - np.min(v, axis=-1))


def hinge_loss_and_grad(margins):
    """The hinge loss per tuple and its subgradient; ties resolved to the first minimum."""
    v = np.asarray(margins, dtype=np.float64)
    flat = v.reshape(-1, v.shape[-1])
    first = np.argmin(flat, axis=-1)
    loss = np.maximum(0.0, 1.0 - flat[np.arange(len(flat)), first])
    g = np.zeros_like(flat)
    rows = np.nonzero(loss > 0.0)[0]
    g[rows, first[rows]] = -1.0
    return loss.reshape(v.shape[:-1]), g.reshape(v.shape)


_KINDS = {"logistic": (logistic_loss, logistic_loss_and_grad),
          "hinge": (hinge_loss, hinge_loss_and_grad)}


def _kind(kind):
    if kind not in _KINDS:
        raise ValueError(f"unknown loss kind: {kind!r}")
    return _KINDS[kind]


def loss_value(margins, kind):
    return _kind(kind)[0](margins)


def loss_and_margin_grad(margins, kind):
    """(loss per tuple, d loss / d margins): loss_value's and loss_margin_grad's bits."""
    return _kind(kind)[1](margins)


def loss_margin_grad(margins, kind):
    return loss_and_margin_grad(margins, kind)[1]


def zero_one_risk(margins):
    """Fraction of negative blocks ranked above the positive, per tuple.

    A margin of exactly zero counts as correct.
    """
    v = np.asarray(margins, dtype=np.float64)
    return np.mean(v < 0.0, axis=-1)


def loss_range(kind, feature_bound, k):
    """Supremum of the loss over representations with ||f(x)|| <= B.

    Each margin lies in [-2B^2, 2B^2], hence logistic <= log2(1 + k e^{2B^2})
    and hinge <= 1 + 2B^2.
    """
    b2 = 2.0 * feature_bound * feature_bound
    if kind == "logistic":
        try:
            value = log2(1.0 + k * exp(b2))
        except OverflowError:
            value = inf
        # past the float range 1 + k e^{2B^2} rounds to k e^{2B^2}: take logs
        return value if value < inf else (b2 + log(k)) / log(2.0)
    if kind == "hinge":
        return 1.0 + b2
    raise ValueError(f"unknown loss kind: {kind!r}")


def loss_at_zero(kind, n_zero):
    """ell(0_j): value of the loss on a j-vector of zero margins."""
    if n_zero < 1:
        raise ValueError("n_zero must be >= 1")
    if kind == "logistic":
        return log2(1.0 + n_zero)
    if kind == "hinge":
        return 1.0
    raise ValueError(f"unknown loss kind: {kind!r}")
