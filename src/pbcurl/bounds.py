"""PAC-Bayesian risk bounds and latent class collision quantities.

All bound evaluators are pure functions of already-estimated empirical
quantities; nothing here touches networks or data. Exponentials are routed
through expm1/log so certificates stay meaningful at extreme lambda and a
diverging chi-square yields an infinite (vacuous) bound instead of an
overflow error.
"""

from dataclasses import asdict, dataclass, field
from math import comb, exp, expm1, inf, isfinite, log, log1p, pi, sqrt

import numpy as np

from .losses import loss_at_zero


def tau_collision(rho):
    """Probability that two classes drawn iid from rho collide."""
    rho = np.asarray(rho, dtype=np.float64)
    return float(np.sum(rho * rho))


def tau_k(rho, k):
    """Probability that any of k iid negative classes hits the positive class."""
    rho = np.asarray(rho, dtype=np.float64)
    return float(1.0 - np.sum(rho * (1.0 - rho) ** k))


def collision_term(rho, k, loss_kind):
    """E[ ell(0 vector of colliding negatives) | at least one collision ].

    Exact: the number of colliding negatives given the positive class c is
    Binomial(k, rho(c)). Cost O(|C| k), no sampling.
    """
    rho = np.asarray(rho, dtype=np.float64)
    t_k = tau_k(rho, k)
    if t_k <= 0.0:
        raise ValueError("collision probability is zero, conditional undefined")
    num = 0.0
    for p in rho:
        for j in range(1, k + 1):
            num += p * comb(k, j) * p**j * (1.0 - p) ** (k - j) * loss_at_zero(loss_kind, j)
    return num / t_k


def iid_supervised_bound(l_hat_un, kl, m, lam, delta, tau, loss_sup):
    """Supervised mean-classifier risk bound from the unsupervised loss.

    Catoni's bound at fixed lambda > 0 (Catoni 2007) on the rescaled loss
    (range loss_sup), then the collision correction (subtract tau, divide by
    1 - tau). At tau = 0 and loss_sup = 1 it is Catoni's bound itself, bit for
    bit. The caller checks lambda > 0 and delta in (0, 1).
    """
    if tau >= 1.0:
        raise ValueError("tau must be < 1")
    pen = (kl + log(1.0 / delta)) / m
    # loss_sup (1 - exp(-lam l / loss_sup - pen)) / (1 - exp(-lam)), via expm1 for stability
    inner = loss_sup * expm1(-((lam / loss_sup) * l_hat_un + pen)) / expm1(-lam)
    return (inner - tau) / (1.0 - tau)


def j_index(grid_b, grid_c, log_sigma2_p):
    """Continuous index of sigma2_p on the grid {grid_c * e^(-j/grid_b)}."""
    if not -inf < log_sigma2_p < log(grid_c):
        raise ValueError("prior variance must lie in (0, grid_c)")
    return grid_b * (log(grid_c) - log_sigma2_p)


def chi2_log_penalty_over_j(j, chi2_log1p, m, delta, dependency_t, loss_sup):
    """log(pen / (pi j)) of the chi-square penalty.

    pen = pi * j * sqrt(loss_sup^2 (1 + 8T) (chi2 + 1) / (24 m delta)). Returns
    inf when chi2_log1p is not finite or log(pen) exceeds 700, where the
    penalty overflows.
    """
    log_const = 0.5 * (
        2.0 * log(loss_sup) + log(1.0 + 8.0 * dependency_t) - log(24.0 * m * delta)
    )
    log_pen_over_j = 0.5 * chi2_log1p + log_const
    if not isfinite(chi2_log1p) or log_pen_over_j + log(pi * j) > 700.0:
        return inf
    return log_pen_over_j


def noniid_bound(l_hat_un, j, chi2_log1p, m, delta, dependency_t, loss_sup):
    """Chi-square risk bound for T-dependent tuples, on the bounded loss."""
    return l_hat_un + pi * j * exp(
        chi2_log_penalty_over_j(j, chi2_log1p, m, delta, dependency_t, loss_sup)
    )


def selection_penalty_iid(kl, j, m, delta):
    """Complexity term of the model-selection certificate at prior index j."""
    return kl + log(pi * pi * j * j / 6.0) + log(2.0 * sqrt(m) / delta)


def kl_bernoulli(q, p):
    """kl(q || p) between Bernoulli means; +inf at p = 1 > q."""
    out = q * log(q / p) if q > 0.0 else 0.0
    if q < 1.0:
        out += (1.0 - q) * (log1p(-q) - log1p(-p)) if p < 1.0 else inf
    return out


def kl_inverse(q, c):
    """Largest p in [q, 1] with kl(q || p) <= c, rounded up.

    Bisects until the midpoint stops moving and returns the upper end, where
    kl exceeds c: rounding can only loosen the bound.
    """
    lo, hi = q, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if kl_bernoulli(q, mid) > c:
            hi = mid
        else:
            lo = mid
    return hi


def selection_bound_iid(r_hat, kl, j, m, delta):
    """Model-selection certificate on the zero-one contrastive risk.

    The PAC-Bayes-kl bound kl^-1(r_hat, pen/m) (Maurer 2004), which is the
    Catoni form minimised over lambda. The minimising lambda has the closed
    form log(p (1 - r_hat) / (r_hat (1 - p))); it is +inf at r_hat = 0 or
    p = 1.

    Returns (bound value, minimising lambda).
    """
    p = kl_inverse(r_hat, selection_penalty_iid(kl, j, m, delta) / m)
    if r_hat == 0.0 or p == 1.0:
        return p, inf
    return p, log(p * (1.0 - r_hat) / (r_hat * (1.0 - p)))


def selection_bound_noniid(r_hat, j, chi2_log1p, m, delta, dependency_t):
    """Model-selection certificate on the zero-one risk for dependent data.

    The chi-square bound with no lambda: the zero-one risk has range 1.
    """
    return noniid_bound(r_hat, j, chi2_log1p, m, delta, dependency_t, 1.0)


@dataclass
class BoundReport:
    """Everything needed to audit one certificate."""

    bound_kind: str            # "iid-selection" | "iid-loss" | "noniid-selection" | "noniid-loss"
    bound_value: float
    empirical_risk: float
    risk_kind: str             # "zero-one" | "loss"
    loss_kind: str
    divergence_kind: str       # "kl" | "chi2"
    divergence_value: float
    j: float                   # an integer where the certificate pays the union over j
    grid_b: float              # the prior grid c * e^(-j/b) that j indexes
    grid_c: float
    m: int
    delta: float
    dependency_t: int          # 0 under the KL form, which holds for independent tuples only
    n_risk_samples: int
    lam: float | None = None
    tau: float | None = None
    loss_sup: float | None = None
    feature_bound: float | None = None
    extras: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        """The pbcurl-bound-v1 document: every field, lam under the key "lambda"."""
        doc = {"format": "pbcurl-bound-v1", **asdict(self)}
        doc["lambda"] = doc.pop("lam")
        return doc
