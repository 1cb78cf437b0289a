import math

import numpy as np
import pytest
from scipy.integrate import quad

from pbcurl import divergences
from pbcurl.oracle import mc_chi2_gaussian, mc_kl_gaussian

# chi2( N(1,1), N(0,1) ) = e - 1 for the equal-variance shifted pair
CHI2_UNIT_SHIFT = 1.718281828459045


def test_kl_zero_on_identical():
    mu = np.array([0.3, -1.2, 4.0])
    ls = np.full(3, -2.0)
    assert divergences.kl_gaussian(mu, ls, mu.copy(), -2.0) == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_shift_half():
    val = divergences.kl_gaussian(np.array([1.0]), np.zeros(1), np.array([0.0]), 0.0)
    assert val == pytest.approx(0.5, rel=1e-15)


def test_kl_variance_scaling():
    # scaling all variances by alpha leaves KL unchanged iff the means agree;
    # with distinct means the quadratic term picks up a 1/alpha factor
    ls_q = np.log(np.array([0.5, 1.5]))
    mu_p = np.array([0.0, 0.0])
    for alpha in (2.0, 7.5):
        la = math.log(alpha)
        same = divergences.kl_gaussian(mu_p, ls_q, mu_p, 0.0)
        same_scaled = divergences.kl_gaussian(mu_p, ls_q + la, mu_p, la)
        assert same_scaled == pytest.approx(same, rel=1e-12)

        mu_q = np.array([1.0, -2.0])
        base = divergences.kl_gaussian(mu_q, ls_q, mu_p, 0.0)
        scaled = divergences.kl_gaussian(mu_q, ls_q + la, mu_p, la)
        quad_term = float(mu_q @ mu_q)
        assert scaled == pytest.approx(
            base - 0.5 * quad_term * (1.0 - 1.0 / alpha), rel=1e-12
        )


def test_kl_nonnegative_random(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        mu_q = rng.normal(size=n)
        ls_q = rng.normal(scale=0.7, size=n)
        mu_p = rng.normal(size=n)
        ls_p = float(rng.normal(scale=0.7))
        assert divergences.kl_gaussian(mu_q, ls_q, mu_p, ls_p) >= -1e-12


def test_kl_matches_quadrature():
    # independent oracle: numerically integrate q log(q/p) in one dimension
    mu_q, s_q, mu_p, s_p = 0.7, 0.6, -0.2, 1.3

    def integrand(x):
        q = math.exp(-0.5 * (x - mu_q) ** 2 / s_q) / math.sqrt(2 * math.pi * s_q)
        p = math.exp(-0.5 * (x - mu_p) ** 2 / s_p) / math.sqrt(2 * math.pi * s_p)
        return q * math.log(q / p)

    expect, err = quad(integrand, -12, 12)
    got = divergences.kl_gaussian(
        np.array([mu_q]), np.array([math.log(s_q)]), np.array([mu_p]), math.log(s_p)
    )
    assert got == pytest.approx(expect, abs=max(1e-9, 10 * err))


def test_chi2_zero_on_identical():
    mu = np.array([0.5, -0.5])
    res = divergences.chi2_gaussian(mu, np.zeros(2), mu.copy(), 0.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert not res.overflowed and res.n_guarded == 0


def test_chi2_unit_shift_closed_form():
    res = divergences.chi2_gaussian(np.array([1.0]), np.zeros(1), np.array([0.0]), 0.0)
    assert res.value == pytest.approx(CHI2_UNIT_SHIFT, rel=1e-12)


def test_chi2_unit_shift_importance_sampling():
    # 1e6-draw importance-sampling estimate agrees within 1% relative error
    rng = np.random.default_rng(20250817)
    est, se = mc_chi2_gaussian(
        np.array([1.0]), np.zeros(1), np.array([0.0]), 0.0, 1_000_000, rng
    )
    assert abs(est - CHI2_UNIT_SHIFT) / CHI2_UNIT_SHIFT < 0.01


def test_chi2_matches_quadrature():
    # independent oracle: integrate p^2/q - 1 in one dimension
    mu_q, s_q, mu_p, s_p = 0.4, 1.1, -0.1, 0.9

    def integrand(x):
        q = math.exp(-0.5 * (x - mu_q) ** 2 / s_q) / math.sqrt(2 * math.pi * s_q)
        p = math.exp(-0.5 * (x - mu_p) ** 2 / s_p) / math.sqrt(2 * math.pi * s_p)
        return p * p / q

    expect, err = quad(integrand, -14, 14)
    res = divergences.chi2_gaussian(
        np.array([mu_q]), np.array([math.log(s_q)]), np.array([mu_p]), math.log(s_p)
    )
    assert res.value == pytest.approx(expect - 1.0, abs=max(1e-9, 10 * err))


def test_chi2_guard_floors_small_variances():
    # sigma2_q below sigma2_p/2 is lifted to the guard floor
    mu = np.zeros(3)
    ls_q = np.log(np.array([0.1, 1.0, 0.2]))   # 0.1 and 0.2 fall below the 0.5 cutoff
    res = divergences.chi2_gaussian(mu, ls_q, mu, 0.0)
    floored = np.array([0.5 * (1 + divergences.GUARD_EPS), 1.0, 0.5 * (1 + divergences.GUARD_EPS)])
    direct = divergences.chi2_gaussian(mu, np.log(floored), mu, 0.0)
    assert res.n_guarded == 2
    assert res.value == pytest.approx(direct.value, rel=1e-12)
    # idempotence: the guarded variances pass through unchanged
    assert direct.n_guarded == 0


def test_chi2_overflow_sentinel():
    n = 50
    res = divergences.chi2_gaussian(np.full(n, 6.0), np.zeros(n), np.zeros(n), 0.0)
    assert res.value == math.inf
    assert res.overflowed
    assert np.isfinite(res.log1p)
    assert res.log1p == pytest.approx(n * 36.0, rel=1e-9)


def test_chi2_nonnegative_random(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        mu_q = rng.normal(scale=0.5, size=n)
        ls_q = rng.uniform(-0.3, 0.8, size=n)
        mu_p = mu_q + rng.normal(scale=0.3, size=n)
        res = divergences.chi2_gaussian(mu_q, ls_q, mu_p, 0.0)
        assert res.value >= -1e-12


def test_divergence_mc_agreement(rng):
    # closed forms sit within 3 standard errors of sampling estimates
    for _ in range(10):
        n = int(rng.integers(1, 10))
        scale = 1.0 / math.sqrt(n)
        mu_p = rng.normal(scale=0.5, size=n)
        ls_p = float(rng.uniform(-1.0, 0.5))
        mu_q = mu_p + rng.normal(scale=0.3 * scale * math.exp(0.5 * ls_p), size=n)
        ls_q = ls_p + rng.uniform(0.0, 0.5 * scale, size=n)

        kl = divergences.kl_gaussian(mu_q, ls_q, mu_p, ls_p)
        est, se = mc_kl_gaussian(mu_q, ls_q, mu_p, ls_p, 100_000, rng)
        assert abs(est - kl) <= 3.0 * se + 1e-9

        chi2 = divergences.chi2_gaussian(mu_q, ls_q, mu_p, ls_p)
        est, se = mc_chi2_gaussian(mu_q, ls_q, mu_p, ls_p, 100_000, rng)
        assert abs(est - chi2.value) <= 3.0 * se + 1e-9


def test_kl_grads_match_finite_differences(rng):
    n = 6
    mu_q = rng.normal(size=n)
    ls_q = rng.normal(scale=0.4, size=n)
    mu_p = rng.normal(size=n)
    ls_p = -1.3
    g_mu, g_lq, g_lp = divergences.kl_gaussian_grads(mu_q, ls_q, mu_p, ls_p)
    h = 1e-6

    def val(mq, lq, lp):
        return divergences.kl_gaussian(mq, lq, mu_p, lp)

    for i in range(n):
        up, dn = mu_q.copy(), mu_q.copy()
        up[i] += h
        dn[i] -= h
        assert g_mu[i] == pytest.approx((val(up, ls_q, ls_p) - val(dn, ls_q, ls_p)) / (2 * h), rel=1e-6, abs=1e-9)
        up, dn = ls_q.copy(), ls_q.copy()
        up[i] += h
        dn[i] -= h
        assert g_lq[i] == pytest.approx((val(mu_q, up, ls_p) - val(mu_q, dn, ls_p)) / (2 * h), rel=1e-6, abs=1e-9)
    fd_p = (val(mu_q, ls_q, ls_p + h) - val(mu_q, ls_q, ls_p - h)) / (2 * h)
    assert g_lp == pytest.approx(fd_p, rel=1e-6, abs=1e-9)


def test_chi2_log1p_grads_match_finite_differences(rng):
    n = 5
    mu_p = rng.normal(scale=0.4, size=n)
    ls_p = -0.8
    mu_q = mu_p + rng.normal(scale=0.2, size=n)
    ls_q = ls_p + rng.uniform(0.1, 0.6, size=n)   # clear of the guard region
    log1p, g_mu, g_lq, g_lp = divergences.chi2_log1p_grads(mu_q, ls_q, mu_p, ls_p)
    assert log1p == pytest.approx(
        divergences.chi2_gaussian(mu_q, ls_q, mu_p, ls_p).log1p, rel=1e-12
    )
    h = 1e-6

    def val(mq, lq, lp):
        return divergences.chi2_gaussian(mq, lq, mu_p, lp).log1p

    for i in range(n):
        up, dn = mu_q.copy(), mu_q.copy()
        up[i] += h
        dn[i] -= h
        assert g_mu[i] == pytest.approx((val(up, ls_q, ls_p) - val(dn, ls_q, ls_p)) / (2 * h), rel=1e-5, abs=1e-8)
        up, dn = ls_q.copy(), ls_q.copy()
        up[i] += h
        dn[i] -= h
        assert g_lq[i] == pytest.approx((val(mu_q, up, ls_p) - val(mu_q, dn, ls_p)) / (2 * h), rel=1e-5, abs=1e-8)
    fd_p = (val(mu_q, ls_q, ls_p + h) - val(mu_q, ls_q, ls_p - h)) / (2 * h)
    assert g_lp == pytest.approx(fd_p, rel=1e-5, abs=1e-8)


def test_chi2_stable_at_tiny_prior_variance():
    # at sigma2_p = 3e-20 the mean term sum d^2 / (2 s_q - s_p) must not be
    # assembled from parts of size mu^2 / s_p: they cancel to nothing
    n, s_q, s_p = 50, 9e-3, 3e-20
    rng = np.random.default_rng(1)
    mu_p = rng.normal(scale=0.1, size=n)
    mu_q = mu_p + 0.1 * rng.choice([-1.0, 1.0], size=n)
    ls_q, ls_p = np.full(n, math.log(s_q)), math.log(s_p)
    e = 2.0 * s_q - s_p
    d2 = math.fsum((mu_q - mu_p) ** 2)
    expect = n * (math.log(s_q / s_p) - 0.5 * math.log(e / s_p)) + d2 / e
    log1p, g_mu, g_lq, g_lp = divergences.chi2_log1p_grads(mu_q, ls_q, mu_p, ls_p)
    assert log1p == pytest.approx(expect, rel=1e-12)
    assert divergences.chi2_gaussian(mu_q, ls_q, mu_p, ls_p).log1p == log1p
    assert np.allclose(g_mu, 2.0 * (mu_q - mu_p) / e, rtol=1e-12, atol=0)
    assert np.allclose(g_lq, s_q * (1.0 / s_q - 1.0 / e - 2.0 * (mu_q - mu_p) ** 2 / e**2),
                       rtol=1e-9, atol=1e-12)
    # -n + n s_q / e + s_p sum d^2 / e^2 = -n/2 up to terms of order s_p
    assert g_lp == pytest.approx(-0.5 * n, rel=1e-12)


def test_chi2_guarded_coordinates_have_zero_q_gradient():
    mu = np.zeros(2)
    ls_q = np.log(np.array([0.1, 1.2]))
    _, _, g_lq, _ = divergences.chi2_log1p_grads(mu, ls_q, mu, 0.0)
    assert g_lq[0] == 0.0
    assert g_lq[1] != 0.0


def test_chi2_is_infinite_when_prior_variance_underflows():
    # exp(-2600) is 0.0 in float64: the closed form would divide by it
    mu = np.zeros(3)
    ls_q = np.full(3, -4.0)
    res = divergences.chi2_gaussian(mu, ls_q, mu, -2600.0)
    assert res.value == math.inf and res.log1p == math.inf and res.overflowed
    log1p, *grads = divergences.chi2_log1p_grads(mu, ls_q, mu, -2600.0)
    assert log1p == math.inf
    assert grads == [None, None, None]


# the closed forms as they stood before the fused KL pass and the trimmed
# chi-square pass: every value and gradient must keep their bits
def separate_kl(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    s_p = np.exp(log_sigma2_p)
    n = mu_q.size
    dmu = mu_q - mu_p
    value = 0.5 * (dmu @ dmu / s_p - n + np.sum(np.exp(log_sigma2_q)) / s_p
                   + n * log_sigma2_p - np.sum(log_sigma2_q))
    s_q = np.exp(log_sigma2_q)
    g_mu = dmu / s_p
    g_ls_q = 0.5 * (s_q / s_p - 1.0)
    g_ls_p = 0.5 * (mu_q.size - (dmu @ dmu + np.sum(s_q)) / s_p)
    return value, g_mu, g_ls_q, float(g_ls_p)


def separate_chi2_log1p_grads(mu_q, log_sigma2_q, mu_p, log_sigma2_p):
    s_p = float(np.exp(log_sigma2_p))
    s_q_raw = np.exp(log_sigma2_q)
    mask = s_q_raw < 0.5 * s_p
    s_q = np.where(mask, 0.5 * s_p * (1.0 + divergences.GUARD_EPS), s_q_raw)
    n = mu_q.size
    d = mu_q - mu_p
    e = 2.0 * s_q - s_p
    log_pref = (-n * np.log(s_p) + np.sum(np.log(s_q))
                - 0.5 * np.sum(np.log(2.0 * s_q / s_p - 1.0)))
    log1p = float(log_pref + np.sum(d * d / e))
    d_over_e = d / e
    g_mu = 2.0 * d_over_e
    d_sq = 1.0 / s_q - 1.0 / e - 2.0 * d_over_e * d_over_e
    g_ls_q = np.where(mask, 0.0, s_q_raw * d_sq)
    d_sp = -mu_q.size / s_p + np.sum(s_q / (s_p * e)) + d_over_e @ d_over_e
    d_sp = d_sp + np.sum(d_sq[mask]) * 0.5 * (1.0 + divergences.GUARD_EPS)
    return log1p, g_mu, g_ls_q, float(s_p * d_sp)


def random_gaussian_pair(rng, n, guarded):
    mu_p = rng.normal(scale=0.3, size=n)
    mu_q = mu_p + rng.normal(scale=0.05, size=n)
    ls_p = float(rng.uniform(-9.0, -1.0))
    # with guarded, some variances fall below sigma2_p / 2
    ls_q = ls_p + rng.uniform(-1.5 if guarded else 0.0, 1.0, size=n)
    return mu_q, ls_q, mu_p, ls_p


def same_bits(got, want):
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        else:
            assert float(g).hex() == float(w).hex()


@pytest.mark.parametrize("guarded", [False, True])
def test_fused_kl_keeps_the_bits_of_the_separate_value_and_gradients(rng, guarded):
    for n in (1, 7, 1200):
        mu_q, ls_q, mu_p, ls_p = random_gaussian_pair(rng, n, guarded)
        # the trainer passes theta's 0-d view as a float; a 0-d array gives the same bits
        for prior_ls in (ls_p, np.array(ls_p)):
            want = separate_kl(mu_q, ls_q, mu_p, prior_ls)
            same_bits(divergences.kl_gaussian_and_grads(mu_q, ls_q, mu_p, prior_ls), want)
            same_bits([divergences.kl_gaussian(mu_q, ls_q, mu_p, prior_ls)], want[:1])
            same_bits(divergences.kl_gaussian_grads(mu_q, ls_q, mu_p, prior_ls), want[1:])


@pytest.mark.parametrize("guarded", [False, True])
def test_trimmed_chi2_keeps_the_bits_of_the_separate_formulas(rng, guarded):
    for n in (1, 7, 1200):
        mu_q, ls_q, mu_p, ls_p = random_gaussian_pair(rng, n, guarded)
        want = separate_chi2_log1p_grads(mu_q, ls_q, mu_p, ls_p)
        same_bits(divergences.chi2_log1p_grads(mu_q, ls_q, mu_p, ls_p), want)
        assert float(divergences.chi2_gaussian(mu_q, ls_q, mu_p, ls_p).log1p).hex() == \
            float(want[0]).hex()
