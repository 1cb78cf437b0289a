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

# np.sum's bits on a vector, without its Python-level wrapper: the training
# step sums a few vectors of n entries each
_sum = np.add.reduce


def kl_gaussian_and_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    """KL( N(mu_q, diag exp(log_sigma2_q)) || N(mu_p, exp(log_sigma2_p) I) ) and its
    gradients w.r.t. (mu_q, log_sigma2_q, log_sigma2_p), in one pass that shares
    exp(log_sigma2_q), mu_q - mu_p and its square norm: (value, g_mu, g_ls_q, g_ls_p).
    """
    s_p = np.exp(log_sigma2_p)
    n = mu_q.size
    dmu = mu_q - mu_p
    dmu2 = dmu @ dmu
    s_q = np.exp(log_sigma2_q)
    sum_s_q = _sum(s_q)
    value = 0.5 * (dmu2 / s_p - n + sum_s_q / s_p + n * log_sigma2_p - _sum(log_sigma2_q))
    g_mu = np.divide(dmu, s_p, out=dmu)
    g_ls_q = np.divide(s_q, s_p, out=s_q)           # 0.5 * (s_q / s_p - 1), in place
    g_ls_q -= 1.0
    g_ls_q *= 0.5
    return value, g_mu, g_ls_q, float(0.5 * (n - (dmu2 + sum_s_q) / s_p))


def kl_gaussian(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    """KL( N(mu_q, diag exp(log_sigma2_q)) || N(mu_p, exp(log_sigma2_p) I) )."""
    return kl_gaussian_and_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p)[0]


def kl_gaussian_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    """Gradients of kl_gaussian w.r.t. (mu_q, log_sigma2_q, log_sigma2_p)."""
    return kl_gaussian_and_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p)[1:]


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


def _guard_variances(s_q, s_p):
    """Positive definiteness requires sigma2_q > sigma2_p / 2 coordinatewise.

    Variances below the threshold are replaced, in place, by
    sigma2_p/2 * (1 + GUARD_EPS). Returns s_q and the mask of replaced
    coordinates.
    """
    mask = s_q < 0.5 * s_p
    np.copyto(s_q, 0.5 * s_p * (1.0 + GUARD_EPS), where=mask)
    return s_q, mask


def _chi2_log1p_terms(mu_q, s_q, mu_p, s_p):
    """log(chi2 + 1) for guarded variances, plus d = mu_q - mu_p and e = 2 s_q - s_p.

    The mean term sum d^2 / e is formed directly: expanding it into parts of
    size mu^2 / s_p cancels catastrophically when s_p is small.
    """
    n = mu_q.size
    d = mu_q - mu_p
    two_s_q = 2.0 * s_q
    e = two_s_q - s_p
    ratio = np.divide(two_s_q, s_p, out=two_s_q)    # log(2 s_q / s_p - 1), in place
    ratio -= 1.0
    log_pref = -n * np.log(s_p) + _sum(np.log(s_q)) - 0.5 * _sum(np.log(ratio, out=ratio))
    d2 = np.multiply(d, d, out=ratio)
    d2 /= e
    return float(log_pref + _sum(d2)), d, e


def chi2_gaussian(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
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
    s_q, mask = _guard_variances(np.exp(log_sigma2_q), s_p)
    if np.any(2.0 * s_q - s_p <= 0.0):
        # only reachable when sigma2_q sits exactly on sigma2_p/2
        return Chi2Result(np.inf, np.inf, int(mask.sum()), True)
    log1p, _, _ = _chi2_log1p_terms(mu_q, s_q, mu_p, s_p)
    if log1p > _LOG_HUGE:
        return Chi2Result(np.inf, log1p, int(mask.sum()), True)
    return Chi2Result(float(np.expm1(log1p)), log1p, int(mask.sum()), False)


def chi2_log1p_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    """log(chi2 + 1) and its gradients w.r.t. (mu_q, log_sigma2_q, log_sigma2_p).

    The guard is part of the computation graph: replaced coordinates carry
    zero gradient to their own log variance but do contribute to the prior
    variance gradient through the guard floor sigma2_p/2 * (1 + GUARD_EPS).
    When sigma2_p underflows to 0, log1p is +inf and the gradients are None.
    """
    s_p = float(np.exp(log_sigma2_p))
    if s_p == 0.0:
        return np.inf, None, None, None
    s_q, mask = _guard_variances(np.exp(log_sigma2_q), s_p)
    log1p, d, e = _chi2_log1p_terms(mu_q, s_q, mu_p, s_p)
    d_over_e = np.divide(d, e, out=d)
    g_mu = 2.0 * d_over_e

    # direct d log1p / d s_p at fixed guarded variances
    tmp = np.multiply(e, s_p)
    d_sp = -mu_q.size / s_p + _sum(np.divide(s_q, tmp, out=tmp)) + d_over_e @ d_over_e

    # d log1p / d s_q (guarded variance): 1 / s_q - 1 / e - 2 (d / e)^2
    d_sq = np.divide(1.0, s_q, out=tmp)
    d_sq -= np.divide(1.0, e, out=e)
    d_sq -= np.multiply(g_mu, d_over_e, out=e)
    # the raw variance where unguarded; guarded coordinates carry no gradient
    g_ls_q = np.multiply(s_q, d_sq, out=s_q)
    np.copyto(g_ls_q, 0.0, where=mask)

    # guarded coordinates track the floor, which moves with s_p
    d_sp = d_sp + _sum(d_sq[mask]) * 0.5 * (1.0 + GUARD_EPS)
    g_ls_p = float(s_p * d_sp)
    return log1p, g_mu, g_ls_q, g_ls_p
