"""Independent correctness oracles for the losses, bounds, and gradients.

Everything here recomputes quantities the library produces elsewhere, by a
different route: exact enumeration on finite latent class instances, Monte
Carlo for the divergence closed forms, a frequentist coverage simulation for
the fixed-lambda bound, and central differences for the objective gradients.
The verify suite packages these as pass/fail checks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, data, divergences, losses, network, training


@dataclass
class DiscreteInstance:
    """Finite latent class model with a tabulated representation.

    support points are indexed 0..S-1; probs[c, s] is the class conditional
    mass; f_table[s] is the representation of point s. Every population
    quantity is an exact finite sum.
    """

    rho: np.ndarray        # (C,)
    probs: np.ndarray      # (C, S)
    f_table: np.ndarray    # (S, d)

    @property
    def n_classes(self):
        return self.rho.size

    @property
    def n_support(self):
        return self.probs.shape[1]

    def class_means(self):
        return self.probs @ self.f_table


def random_instance(rng, max_classes=5, max_support=6, max_dim=4):
    c = int(rng.integers(2, max_classes + 1))
    s = int(rng.integers(2, max_support + 1))
    d = int(rng.integers(1, max_dim + 1))
    rho = rng.dirichlet(np.full(c, 2.0))
    probs = rng.dirichlet(np.full(s, 1.5), size=c)
    f_table = rng.normal(scale=0.8, size=(s, d))
    return DiscreteInstance(rho=rho, probs=probs, f_table=f_table)


def _support_combos(inst, k):
    """All (anchor, positive, neg_1..neg_k) support index tuples and weights.

    The anchor/positive pair shares one latent class; each negative is an
    independent draw from the class marginal mixture. That factorisation
    makes the joint weight a product of three tables.
    """
    s = inst.n_support
    pair = np.einsum("c,cs,ct->st", inst.rho, inst.probs, inst.probs)  # anchor+positive
    marg = inst.rho @ inst.probs                                       # negative slot
    axes = np.indices((s,) * (2 + k)).reshape(2 + k, -1)
    weights = pair[axes[0], axes[1]]
    for i in range(k):
        weights = weights * marg[axes[2 + i]]
    return axes, weights


def exact_unsup_loss(inst, loss_kind, k=1):
    """Population contrastive loss by exact enumeration (block size 1)."""
    gram = inst.f_table @ inst.f_table.T
    axes, weights = _support_combos(inst, k)
    margins = np.stack(
        [gram[axes[0], axes[1]] - gram[axes[0], axes[2 + i]] for i in range(k)], axis=-1
    )
    return float(np.sum(weights * losses.loss_value(margins, loss_kind)))


def exact_zero_one_risk(inst, k=1, f_table=None):
    """Population ranking risk; ties count correct."""
    f = inst.f_table if f_table is None else f_table
    gram = f @ f.T
    axes, weights = _support_combos(inst, k)
    margins = np.stack(
        [gram[axes[0], axes[1]] - gram[axes[0], axes[2 + i]] for i in range(k)], axis=-1
    )
    return float(np.sum(weights * losses.zero_one_risk(margins)))


def exact_sup_mu_loss(inst, loss_kind):
    """Population mean-classifier loss, averaged over distinct class pairs.

    Ordered pairs (c+, c-) carry weight rho(c+) rho(c-) / (1 - tau) (an iid
    class pair conditioned on being distinct) and the labeled point comes
    from c+. Equivalently: unordered tasks with a uniform label draw. This is
    the quantity the collision-transfer inequality bounds; it is tight for
    point-mass class conditionals.
    """
    tau = float(np.sum(inst.rho**2))
    if tau >= 1.0:
        raise ValueError("degenerate class distribution, tau = 1")
    mu = inst.class_means()                    # (C, d)
    scores = inst.f_table @ mu.T               # (S, C) point score per class mean
    total = 0.0
    for cp, cm in itertools.permutations(range(inst.n_classes), 2):
        w_pair = inst.rho[cp] * inst.rho[cm] / (1.0 - tau)
        g = scores[:, cp] - scores[:, cm]      # (S,) margin of each point, label +1
        task = inst.probs[cp] @ losses.loss_value(g[:, None], loss_kind)
        total += w_pair * float(task)
    return total


def check_collision_transfer(inst, loss_kind, slack=1e-12):
    """Exact check: L_sup_mu <= (L_un - tau) / (1 - tau)."""
    tau = float(np.sum(inst.rho**2))
    lhs = exact_sup_mu_loss(inst, loss_kind)
    rhs = (exact_unsup_loss(inst, loss_kind, k=1) - tau) / (1.0 - tau)
    return lhs, rhs, lhs <= rhs + slack


def brute_force_collision_stats(rho, k, loss_kind):
    """tau_k and the conditional collision loss by full class-tuple enumeration."""
    rho = np.asarray(rho, dtype=np.float64)
    c = rho.size
    p_any, num = 0.0, 0.0
    for tup in itertools.product(range(c), repeat=k + 1):
        w = float(np.prod(rho[list(tup)]))
        n_coll = sum(1 for ci in tup[1:] if ci == tup[0])
        if n_coll:
            p_any += w
            num += w * losses.loss_at_zero(loss_kind, n_coll)
    return p_any, num / p_any


# ---------------------------------------------------------------------------
# Monte Carlo oracles for the divergence closed forms


def mc_kl_gaussian(mu_q, log_s2_q, mu_p, log_s2_p, n_samples, rng):
    """E_q[log q - log p] with a plain q-sample average. Returns (est, se)."""
    s_q = np.exp(log_s2_q)
    s_p = math.exp(log_s2_p)
    x = mu_q + np.sqrt(s_q) * rng.standard_normal((n_samples, mu_q.size))
    log_q = -0.5 * np.sum((x - mu_q) ** 2 / s_q + np.log(2 * np.pi * s_q), axis=1)
    log_p = -0.5 * np.sum((x - mu_p) ** 2 / s_p + math.log(2 * np.pi * s_p), axis=1)
    vals = log_q - log_p
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def mc_chi2_gaussian(mu_q, log_s2_q, mu_p, log_s2_p, n_samples, rng):
    """Importance-sampled chi-square: E_p[p/q] - 1. Returns (est, se).

    Estimates the same integral as the closed form (int p^2/q - 1); finite
    variance needs sigma2_q above 2/3 sigma2_p coordinatewise, which the
    callers arrange.
    """
    s_q = np.exp(log_s2_q)
    s_p = math.exp(log_s2_p)
    x = mu_p + math.sqrt(s_p) * rng.standard_normal((n_samples, mu_q.size))
    log_q = -0.5 * np.sum((x - mu_q) ** 2 / s_q + np.log(2 * np.pi * s_q), axis=1)
    log_p = -0.5 * np.sum((x - mu_p) ** 2 / s_p + math.log(2 * np.pi * s_p), axis=1)
    vals = np.exp(log_p - log_q)
    return float(vals.mean() - 1.0), float(vals.std(ddof=1) / math.sqrt(n_samples))


# ---------------------------------------------------------------------------
# frequentist coverage of the fixed-lambda certificate


def sample_tuples_discrete(inst, m, k, rng):
    """Support index draws (anchor, positive, negatives) from the instance."""
    c_pos = rng.choice(inst.n_classes, size=m, p=inst.rho)
    cum = np.cumsum(inst.probs, axis=1)

    def draw(classes):
        u = rng.random(classes.shape)
        idx = np.empty(classes.shape, dtype=np.int64)
        for c in range(inst.n_classes):
            sel = classes == c
            if np.any(sel):
                idx[sel] = np.searchsorted(cum[c], u[sel], side="right")
        return np.minimum(idx, inst.n_support - 1)

    x = draw(c_pos)
    x_pos = draw(c_pos)
    c_neg = rng.choice(inst.n_classes, size=(m, k), p=inst.rho)
    x_neg = draw(c_neg)
    return x, x_pos, x_neg


def coverage_sim(rng, n_trials=200, m=150, n_hypotheses=8, lam=2.0, delta=0.05, k=1):
    """Fraction of trials where the fixed-lambda bound covers the true risk.

    Hypotheses are tabulated feature maps over one discrete instance; the
    posterior is a fixed distribution over them, so both the true risk and
    KL(Q||P) are exact and the only randomness is the m-sample draw.
    """
    inst = random_instance(rng, max_classes=3, max_support=4, max_dim=2)
    tables = [rng.normal(scale=0.8, size=inst.f_table.shape) for _ in range(n_hypotheses)]
    q = rng.dirichlet(np.full(n_hypotheses, 1.0))
    kl = float(np.sum(q * np.log(q * n_hypotheses)))
    true_risk = float(np.dot(q, [exact_zero_one_risk(inst, k, f) for f in tables]))

    covered = 0
    for _ in range(n_trials):
        x, x_pos, x_neg = sample_tuples_discrete(inst, m, k, rng)
        r_hats = np.empty(n_hypotheses)
        for h, f in enumerate(tables):
            gram = f @ f.T
            margins = gram[x, x_pos][:, None] - gram[x[:, None], x_neg]
            r_hats[h] = np.mean(losses.zero_one_risk(margins))
        # the iid loss certificate's bound at tau = 0 and range 1: Catoni's bound
        bound = bounds.iid_supervised_bound(float(q @ r_hats), kl, m, lam, delta, 0.0, 1.0)
        covered += bound >= true_risk - 1e-12
    return covered / n_trials, true_risk


# ---------------------------------------------------------------------------
# finite differences on the trainable objectives


def _min_hidden_preact(layer_sizes, w, x):
    """Smallest |z| over the hidden layer ReLU preactivations of a batch.

    Its own loop: the oracle does not run the network code it checks.
    """
    smallest, a, off = math.inf, x, 0
    for fan_in, fan_out in zip(layer_sizes[:-2], layer_sizes[1:-1]):
        n_w = fan_in * fan_out
        z = a @ w[off : off + n_w].reshape(fan_out, fan_in).T + w[off + n_w : off + n_w + fan_out]
        smallest = min(smallest, float(np.min(np.abs(z))))
        a, off = np.maximum(z, 0.0), off + n_w + fan_out
    return smallest


def _well_conditioned_problem(objective, rng):
    """Random small net, batch, and frozen noise, away from kinks and guards.

    Keeps every ReLU preactivation at least 1e-3 from zero so that 1e-5
    central difference steps cannot cross a nondifferentiable point, and
    posterior variances clear of the chi-square guard threshold.
    """
    layer_sizes = (4, 6, 3)
    n, k, b = 6, 3, 2
    n_params = network.param_count(layer_sizes)
    while True:
        post, prior = network.init_network(layer_sizes, 1e-2, rng)
        post.mu = post.mu + 0.05 * rng.standard_normal(n_params)
        prior.mu = post.mu + 0.03 * rng.standard_normal(n_params)
        # keep log sigma2_q above log(sigma2_p / 2) + 0.3: guard inactive
        post.log_sigma2 = prior.log_sigma2 + rng.uniform(-0.35, 0.6, size=n_params)
        eps = network.sample_eps(n_params, rng)
        batch = data.TupleBatch(rng.normal(scale=0.8, size=(n * (1 + b + k * b), 4)), n, k, b)
        w = network.sample_weights(post, eps)
        if _min_hidden_preact(layer_sizes, w, batch.rows) > 1e-3:
            return layer_sizes, post, prior, batch, eps


def finite_diff_check(objective, rng, n_coords=20, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Runs over theta = [mu_q | log sigma2_q | log sigma2_p]: the mean and log
    variance entries of n_coords random weights, and the prior entry.
    """
    fn, kw = {
        "iid": (training.iid_objective, {"lam": 0.2}),
        "noniid": (training.noniid_objective, {"delta": 0.05, "dependency_t": 2, "loss_sup": 5.0}),
    }[objective]
    layer_sizes, post, prior, batch, eps = _well_conditioned_problem(objective, rng)
    theta, post, prior = training.as_theta(post, prior)

    def batch_loss(w):
        return training.contrastive_loss_and_wgrad(layer_sizes, w, batch, "logistic")[:2]

    def evaluate():         # at the current theta, through the views
        return fn(layer_sizes, post, prior, batch_loss, eps, m=500, grid_b=100.0, grid_c=0.1,
                  **kw)

    grad = evaluate()[1]
    n = post.n_params
    coords = rng.choice(n, size=min(n_coords, n), replace=False)
    worst = 0.0
    for ci in [*coords, *(coords + n), 2 * n]:
        x = theta[ci]
        theta[ci] = x + step
        hi = evaluate()[0]
        theta[ci] = x - step
        fd = (hi - evaluate()[0]) / (2.0 * step)
        theta[ci] = x
        worst = max(worst, abs(grad[ci] - fd) / max(abs(fd), abs(grad[ci]), 1e-8))
    return worst


# ---------------------------------------------------------------------------
# the verify suite


def run_verify_suite(seed=20250817, n_lemma=500, n_divergence=50, mc_samples=200_000,
                     coverage_trials=200):
    """All oracle checks with their pass/fail verdicts, as a dict."""
    out = {}

    rng = np.random.default_rng(seed)
    worst_gap = -math.inf
    violations = 0
    for _ in range(n_lemma):
        inst = random_instance(rng)
        for kind in ("logistic", "hinge"):
            lhs, rhs, ok = check_collision_transfer(inst, kind)
            worst_gap = max(worst_gap, lhs - rhs)
            violations += 0 if ok else 1
    out["collision_transfer"] = {
        "instances": n_lemma,
        "violations": violations,
        "worst_gap": worst_gap,
        "passed": violations == 0,
    }

    rng = np.random.default_rng(seed + 1)
    max_abs = 0.0
    for _ in range(200):
        c = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        rho = rng.dirichlet(np.full(c, 1.5))
        kind = ("logistic", "hinge")[int(rng.integers(2))]
        bf_tau_k, bf_coll = brute_force_collision_stats(rho, k, kind)
        max_abs = max(
            max_abs,
            abs(bf_tau_k - bounds.tau_k(rho, k)),
            abs(bf_coll - bounds.collision_term(rho, k, kind)),
        )
    out["collision_stats"] = {"max_abs_err": float(max_abs), "passed": bool(max_abs < 1e-12)}

    rng = np.random.default_rng(seed + 2)
    worst_z = 0.0
    for _ in range(n_divergence):
        n = int(rng.integers(1, 21))
        log_s2_p = float(rng.uniform(math.log(0.3), math.log(2.0)))
        # per-coordinate ratio and offset shrink with dimension so the
        # importance weights p/q keep light tails (4th moment needs
        # sigma2_q > 0.8 sigma2_p; stay well inside)
        scale = 1.0 / math.sqrt(n)
        mu_p = rng.normal(scale=0.5, size=n)
        mu_q = mu_p + rng.normal(scale=0.3 * scale * math.exp(0.5 * log_s2_p), size=n)
        log_s2_q = log_s2_p + rng.uniform(-0.1 * scale, 0.6 * scale, size=n)
        kl = divergences.kl_gaussian(mu_q, log_s2_q, mu_p, log_s2_p)
        kl_mc, kl_se = mc_kl_gaussian(mu_q, log_s2_q, mu_p, log_s2_p, mc_samples, rng)
        chi2 = divergences.chi2_gaussian(mu_q, log_s2_q, mu_p, log_s2_p)
        chi2_mc, chi2_se = mc_chi2_gaussian(mu_q, log_s2_q, mu_p, log_s2_p, mc_samples, rng)
        worst_z = max(
            worst_z,
            abs(kl - kl_mc) / max(kl_se, 1e-12),
            abs(chi2.value - chi2_mc) / max(chi2_se, 1e-12),
        )
    out["divergence_mc"] = {
        "instances": n_divergence,
        "samples": mc_samples,
        "worst_z": worst_z,
        "passed": bool(worst_z <= 3.0),
    }

    rng = np.random.default_rng(seed + 3)
    errs = {obj: float(finite_diff_check(obj, rng)) for obj in ("iid", "noniid")}
    out["gradients"] = {
        "iid_max_rel_err": errs["iid"],
        "noniid_max_rel_err": errs["noniid"],
        "passed": max(errs.values()) < 1e-4,
    }

    rng = np.random.default_rng(seed + 4)
    coverage, true_risk = coverage_sim(rng, n_trials=coverage_trials)
    out["bound_coverage"] = {
        "trials": coverage_trials,
        "coverage": coverage,
        "true_risk": true_risk,
        "passed": coverage >= 0.91,
    }

    out["all_passed"] = all(v["passed"] for v in out.values() if isinstance(v, dict))
    return out
