"""Closed-form divergences between the diagonal Gaussian posterior and prior.

Both quantities used by the bound objectives have analytic forms: the KL
divergence KL(Q||P), and a chi-square divergence computed entirely in log
space together with analytic gradients for the three parameter groups
(posterior means, posterior log variances, prior log variance).
"""

from dataclasses import dataclass

import numpy as np

# exp() overflows float64 a little above this
_LOG_HUGE = 700.0

GUARD_EPS = 1e-6


def kl_gaussian(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    """KL( N(mu_q, diag exp(log_sigma2_q)) || N(mu_p, exp(log_sigma2_p) I) )."""
    s_p = np.exp(log_sigma2_p)
    n = mu_q.size
    dmu = mu_q - mu_p
    return 0.5 * (
        dmu @ dmu / s_p
        - n
        + np.sum(np.exp(log_sigma2_q)) / s_p
        + n * log_sigma2_p
        - np.sum(log_sigma2_q)
    )


def kl_gaussian_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    """Gradients of kl_gaussian w.r.t. (mu_q, log_sigma2_q, log_sigma2_p)."""
    s_p = np.exp(log_sigma2_p)
    s_q = np.exp(log_sigma2_q)
    dmu = mu_q - mu_p
    g_mu = dmu / s_p
    g_ls_q = 0.5 * (s_q / s_p - 1.0)
    g_ls_p = 0.5 * (mu_q.size - (dmu @ dmu + np.sum(s_q)) / s_p)
    return g_mu, g_ls_q, float(g_ls_p)


@dataclass
class Chi2Result:
    """Chi-square divergence value with numerical diagnostics.

    value is +inf when exp(log1p) overflows float64; log1p (= log(chi2 + 1))
    stays finite and is what the training objective consumes. n_guarded
    counts posterior variances lifted onto the positive-definiteness guard.
    """

    value: float
    log1p: float
    n_guarded: int
    overflowed: bool


def _guard_variances(s_q, s_p, guard_eps):
    """Positive definiteness requires sigma2_q > sigma2_p / 2 coordinatewise.

    Variances below the threshold are replaced by sigma2_p/2 * (1 + guard_eps).
    Returns the guarded variances and the mask of replaced coordinates.
    """
    floor = 0.5 * s_p * (1.0 + guard_eps)
    mask = s_q < 0.5 * s_p
    out = np.where(mask, floor, s_q)
    return out, mask


def _chi2_log1p_terms(mu_q, s_q, mu_p, s_p):
    """log(chi2 + 1) for guarded variances, plus intermediates for grads."""
    n = mu_q.size
    a = 2.0 / s_p - 1.0 / s_q
    v = 2.0 * mu_p / s_p - mu_q / s_q
    log_pref = -n * np.log(s_p) + np.sum(np.log(s_q)) - 0.5 * np.sum(np.log(2.0 * s_q / s_p - 1.0))
    quad = 0.5 * (np.sum(v * v / a) + np.sum(mu_q * mu_q / s_q) - (2.0 / s_p) * (mu_p @ mu_p))
    return float(log_pref + quad), a, v


def chi2_gaussian(mu_q, log_sigma2_q, mu_p, log_sigma2_p, guard_eps=GUARD_EPS):
    """Chi-square divergence of the posterior/prior pair, in log space.

    Evaluates the closed form for factorised Gaussians after applying the
    positive-definiteness guard. Overflow of the final exp is reported via
    the sentinel value +inf, never an exception: a vacuous bound is still a
    bound. So is a prior variance that underflows to 0, where the closed form
    divides by it.
    """
    s_p = float(np.exp(log_sigma2_p))
    if s_p == 0.0:
        return Chi2Result(np.inf, np.inf, 0, True)
    s_q, mask = _guard_variances(np.exp(log_sigma2_q), s_p, guard_eps)
    if np.any(2.0 / s_p - 1.0 / s_q <= 0.0):
        # only reachable when sigma2_q sits exactly on sigma2_p/2
        return Chi2Result(np.inf, np.inf, int(mask.sum()), True)
    log1p, _, _ = _chi2_log1p_terms(mu_q, s_q, mu_p, s_p)
    if log1p > _LOG_HUGE:
        return Chi2Result(np.inf, log1p, int(mask.sum()), True)
    return Chi2Result(float(np.expm1(log1p)), log1p, int(mask.sum()), False)


def chi2_log1p_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p, guard_eps=GUARD_EPS):
    """log(chi2 + 1) and its gradients w.r.t. (mu_q, log_sigma2_q, log_sigma2_p).

    The guard is part of the computation graph: replaced coordinates carry
    zero gradient to their own log variance but do contribute to the prior
    variance gradient through the guard floor sigma2_p/2 * (1 + guard_eps).
    When sigma2_p underflows to 0, log1p is +inf and the gradients are None.
    """
    s_p = float(np.exp(log_sigma2_p))
    if s_p == 0.0:
        return np.inf, None, None, None
    s_q_raw = np.exp(log_sigma2_q)
    s_q, mask = _guard_variances(s_q_raw, s_p, guard_eps)
    log1p, a, v = _chi2_log1p_terms(mu_q, s_q, mu_p, s_p)

    g_mu = (mu_q - v / a) / s_q

    # d log1p / d s_q (guarded variance)
    d_sq = (
        1.0 / s_q
        - 1.0 / (2.0 * s_q - s_p)
        + v * mu_q / (a * s_q * s_q)
        - v * v / (2.0 * a * a * s_q * s_q)
        - mu_q * mu_q / (2.0 * s_q * s_q)
    )
    g_ls_q = np.where(mask, 0.0, s_q_raw * d_sq)

    # direct d log1p / d s_p at fixed guarded variances
    d_sp = (
        -mu_q.size / s_p
        + np.sum(s_q / (s_p * (2.0 * s_q - s_p)))
        + np.sum(-2.0 * v * mu_p / (a * s_p * s_p) + v * v / (a * a * s_p * s_p))
        + (mu_p @ mu_p) / (s_p * s_p)
    )
    # guarded coordinates track the floor, which moves with s_p
    d_sp = d_sp + np.sum(d_sq[mask]) * 0.5 * (1.0 + guard_eps)
    g_ls_p = float(s_p * d_sp)
    return log1p, g_mu, g_ls_q, g_ls_p
