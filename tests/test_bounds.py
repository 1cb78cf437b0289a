import json
import math

import numpy as np
import pytest

from pbcurl import bounds, oracle

# values computed once from the closed forms with the math module alone
CATONI_HALF_RISK = 0.6507776151087453        # r=0.5, kl=0, m=100, lam=1, delta=0.05
IID_SUP_REF = 1.7866765159449356             # l=0.9, kl=10, m=1000, lam=2, tau=0.25, B_l=3
NONIID_REF = 10.40392637630849               # l=0.3, j=10, chi2=0.5, m=5000, T=2, logistic B=1 k=4
SELPEN_REF = 20.859333220943952              # kl=10, j=5, m=1000, delta=0.05
J_DEFAULT_INIT = 569.7414907005954           # b=100, c=0.1, sigma2_p=e^-8
EQ15_FLOOR = 0.2720699046351327              # r=0, j=3, chi2=0, m=1000, delta=0.05, T=0
COLLISION_LOGISTIC_UNIF2_K2 = 1.1949875002403854
BL_LOGISTIC_B1_K4 = 4.933394386229647


def test_tau_collision_values():
    assert bounds.tau_collision([0.9, 0.1]) == pytest.approx(0.8200000000000001, rel=0, abs=0)
    assert bounds.tau_collision([0.5, 0.5]) == 0.5
    assert bounds.tau_collision(np.full(100, 0.01)) == pytest.approx(0.01, rel=1e-12)


def test_tau_k_uniform_two():
    assert bounds.tau_k([0.5, 0.5], 2) == pytest.approx(0.75, rel=0, abs=0)
    # k=1 reduces to the pairwise collision probability
    rho = np.array([0.2, 0.3, 0.5])
    assert bounds.tau_k(rho, 1) == pytest.approx(bounds.tau_collision(rho), rel=1e-15)


def test_tau_k_monotone_in_k():
    rho = np.array([0.6, 0.3, 0.1])
    vals = [bounds.tau_k(rho, k) for k in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_collision_term_frozen_uniform2():
    got = bounds.collision_term([0.5, 0.5], 2, "logistic")
    assert got == pytest.approx(COLLISION_LOGISTIC_UNIF2_K2, rel=1e-15)


def test_collision_term_hinge_is_one():
    # hinge puts loss 1 on any all-zero margin vector, so the conditional is 1
    for rho in ([0.5, 0.5], [0.9, 0.05, 0.05]):
        for k in (1, 2, 5):
            assert bounds.collision_term(rho, k, "hinge") == pytest.approx(1.0, rel=1e-12)


def test_collision_term_logistic_k1_is_one():
    assert bounds.collision_term([0.3, 0.7], 1, "logistic") == pytest.approx(1.0, rel=1e-12)


def test_collision_term_matches_brute_force(rng):
    # exhaustive enumeration over negative tuples agrees exactly
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rho = rng.dirichlet(np.ones(n))
        k = int(rng.integers(1, 4))
        for kind in ("logistic", "hinge"):
            t_ref, cond_ref = oracle.brute_force_collision_stats(rho, k, kind)
            assert bounds.tau_k(rho, k) == pytest.approx(t_ref, rel=1e-12)
            assert bounds.collision_term(rho, k, kind) == pytest.approx(cond_ref, rel=1e-12)


def test_collision_term_point_mass_always_collides():
    # a single supported class makes every negative a collision
    assert bounds.tau_k([1.0, 0.0], 3) == 1.0
    got = bounds.collision_term([1.0, 0.0], 2, "logistic")
    assert got == pytest.approx(math.log2(3.0), rel=1e-15)


def catoni(r_hat, kl, m, lam, delta):
    """Catoni's fixed-lambda bound: the iid loss bound at tau = 0 and loss range 1."""
    return bounds.iid_supervised_bound(r_hat, kl, m, lam, delta, 0.0, 1.0)


def test_catoni_frozen_value():
    got = catoni(0.5, 0.0, 100, 1.0, 0.05)
    assert got == pytest.approx(CATONI_HALF_RISK, rel=1e-15)


def test_catoni_monotone_in_risk_and_kl():
    base = catoni(0.3, 5.0, 1000, 2.0, 0.05)
    assert catoni(0.4, 5.0, 1000, 2.0, 0.05) > base
    assert catoni(0.3, 9.0, 1000, 2.0, 0.05) > base
    assert catoni(0.3, 5.0, 4000, 2.0, 0.05) < base


def test_catoni_zero_case():
    # no risk, no divergence, delta -> 1 pushes the bound to zero
    got = catoni(0.0, 0.0, 100, 1.0, 1.0 - 1e-12)
    assert got == pytest.approx(0.0, abs=1e-10)


def test_catoni_dominates_risk_at_zero_penalty():
    # the Catoni form always sits above the empirical risk it certifies
    for r in (0.1, 0.3, 0.7):
        for lam in (0.5, 1.0, 4.0):
            assert catoni(r, 0.0, 10**9, lam, 0.5) >= r - 1e-9


def test_iid_supervised_frozen_value():
    got = bounds.iid_supervised_bound(0.9, 10.0, 1000, 2.0, 0.05, 0.25, 3.0)
    assert got == pytest.approx(IID_SUP_REF, rel=1e-15)


def test_iid_supervised_floor_at_zero_loss():
    # zero loss, zero kl, delta near 1: inner bound -> 0, so value -> -tau/(1-tau)
    tau = 0.3
    got = bounds.iid_supervised_bound(0.0, 0.0, 10**7, 1.0, 1.0 - 1e-12, tau, 2.0)
    assert got == pytest.approx(-tau / (1.0 - tau), abs=1e-5)


def test_iid_supervised_tau_validation():
    with pytest.raises(ValueError):
        bounds.iid_supervised_bound(0.5, 1.0, 100, 1.0, 0.05, 1.0, 2.0)


def test_iid_supervised_matches_inline_recomputation(rng):
    for _ in range(50):
        l_un = float(rng.uniform(0.0, 3.0))
        kl = float(rng.uniform(0.0, 100.0))
        m = int(rng.integers(50, 5000))
        lam = float(rng.uniform(0.1, 10.0))
        tau = float(rng.uniform(0.0, 0.9))
        b_l = float(rng.uniform(1.0, 6.0))
        pen = (kl + math.log(1 / 0.05)) / m
        inner = b_l * math.expm1(-((lam / b_l) * l_un + pen)) / math.expm1(-lam)
        expect = (inner - tau) / (1.0 - tau)
        got = bounds.iid_supervised_bound(l_un, kl, m, lam, 0.05, tau, b_l)
        assert got == pytest.approx(expect, rel=1e-13)


def test_j_index_frozen_default():
    assert bounds.j_index(100.0, 0.1, math.log(0.1) - 8.0) == pytest.approx(
        800.0, rel=1e-12
    )
    assert bounds.j_index(100.0, 0.1, -8.0) == pytest.approx(
        J_DEFAULT_INIT, rel=1e-15
    )


def test_j_index_domain():
    with pytest.raises(ValueError):
        bounds.j_index(100.0, 0.1, -math.inf)
    with pytest.raises(ValueError):
        bounds.j_index(100.0, 0.1, math.log(0.1))
    with pytest.raises(ValueError):
        bounds.j_index(100.0, 0.1, math.log(0.2))


def test_noniid_frozen_value():
    got = bounds.noniid_bound(
        0.3, 10.0, math.log1p(0.5), 5000, 0.05, 2, BL_LOGISTIC_B1_K4
    )
    assert got == pytest.approx(NONIID_REF, rel=1e-13)


def test_noniid_zero_dependency_still_penalised():
    # T=0 keeps the sqrt((chi2+1)/(24 m delta)) term, it does not vanish
    got = bounds.noniid_bound(0.0, 1.0, 0.0, 1000, 0.05, 0, 1.0)
    expect = math.pi * math.sqrt(1.0 / (24 * 1000 * 0.05))
    assert got == pytest.approx(expect, rel=1e-12)


def test_noniid_monotone_in_dependency():
    vals = [bounds.noniid_bound(0.1, 5.0, 0.3, 2000, 0.05, t, 2.0) for t in range(5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_noniid_overflow_is_vacuous():
    got = bounds.noniid_bound(0.1, 5.0, 2000.0, 2000, 0.05, 1, 2.0)
    assert got == math.inf
    assert json.loads(json.dumps({"bound_value": got})) == {"bound_value": math.inf}


def test_selection_penalty_frozen():
    got = bounds.selection_penalty_iid(10.0, 5.0, 1000, 0.05)
    assert got == pytest.approx(SELPEN_REF, rel=1e-15)


def test_selection_bound_iid_beats_grid(rng):
    # the returned lambda must do at least as well as a fresh lambda grid
    for _ in range(15):
        r = float(rng.uniform(0.0, 0.8))
        kl = float(rng.uniform(0.0, 2000.0))
        m = int(rng.integers(100, 100_000))
        val, lam = bounds.selection_bound_iid(r, kl, 20.0, m, 0.05)
        assert lam > 0.0
        pen = bounds.selection_penalty_iid(kl, 20.0, m, 0.05) / m
        direct = math.expm1(-(lam * r + pen)) / math.expm1(-lam)
        assert val == pytest.approx(direct, rel=1e-12)
        for probe in np.geomspace(1.0 / m, 1.0e7, 200):
            probed = math.expm1(-(probe * r + pen)) / math.expm1(-probe)
            assert val <= probed + 1e-12


def test_selection_bound_iid_zero_risk_closed_form():
    # kl(0 || p) = -log(1 - p), so the kl-inverse is 1 - exp(-pen/m); no
    # finite lambda attains it
    pen_over_m = bounds.selection_penalty_iid(10.0, 5.0, 1000, 0.05) / 1000
    val, lam = bounds.selection_bound_iid(0.0, 10.0, 5.0, 1000, 0.05)
    assert val == pytest.approx(-math.expm1(-pen_over_m), rel=1e-14)
    assert lam == math.inf
    doc = json.loads(json.dumps({"bound_value": val, "lambda": lam}))
    assert doc == {"bound_value": val, "lambda": math.inf}


def test_selection_bound_iid_saturates_at_one():
    # kl(0.5 || p) = pen/m has no float solution below 1 at this penalty
    val, lam = bounds.selection_bound_iid(0.5, 1.0e6, 5.0, 100, 0.05)
    assert val == 1.0
    assert lam == math.inf


def test_selection_bound_iid_is_rounded_up_kl_inverse(rng):
    # the bound is the first float at which kl(r || .) exceeds pen/m
    for _ in range(50):
        r = float(rng.uniform(0.0, 0.9))
        kl = float(rng.uniform(0.0, 3000.0))
        m = int(rng.integers(100, 200_000))
        j = float(rng.uniform(1.0, 900.0))
        val, _ = bounds.selection_bound_iid(r, kl, j, m, 0.05)
        c = bounds.selection_penalty_iid(kl, j, m, 0.05) / m
        below = float(np.nextafter(val, 0.0))
        assert bounds.kl_bernoulli(r, below) <= c < bounds.kl_bernoulli(r, val)


def test_selection_bound_noniid_frozen_floor():
    got = bounds.selection_bound_noniid(0.0, 3.0, 0.0, 1000, 0.05, 0)
    assert got == pytest.approx(EQ15_FLOOR, rel=1e-15)


def test_selection_bound_noniid_inline(rng):
    for _ in range(20):
        r = float(rng.uniform(0, 0.5))
        j = float(rng.uniform(1, 300))
        c2 = float(rng.uniform(0, 3))
        m = int(rng.integers(500, 200_000))
        t = int(rng.integers(0, 4))
        expect = r + math.pi * j * math.sqrt((1 + 8 * t) * (c2 + 1) / (24 * m * 0.05))
        got = bounds.selection_bound_noniid(r, j, math.log1p(c2), m, 0.05, t)
        assert got == pytest.approx(expect, rel=1e-12)


def test_report_round_trips_through_json():
    rep = bounds.BoundReport(
        bound_kind="iid-selection",
        bound_value=0.42,
        empirical_risk=0.3,
        risk_kind="zero-one",
        loss_kind="logistic",
        divergence_kind="kl",
        divergence_value=12.5,
        j=569.74,
        grid_b=100.0,
        grid_c=0.1,
        m=20000,
        delta=0.05,
        dependency_t=0,
        n_risk_samples=10,
        lam=1.25,
    )
    doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert doc["format"] == "pbcurl-bound-v1"
    assert doc["bound_value"] == 0.42
    assert doc["lambda"] == 1.25
    assert doc["tau"] is None
    assert (doc["grid_b"], doc["grid_c"], doc["dependency_t"]) == (100.0, 0.1, 0)


class TestPublishedScaleConsistency:
    """Certificates at published operating points land where reported.

    These anchor the penalty constants: at m=50000, delta=0.05, j=569.74
    the zero-one certificate for (risk 0.323, KL 1333) must reproduce
    0.437 and lambda*m near 24295 to the digits shown.
    """

    def test_cifar_scale_point(self):
        val, lam = bounds.selection_bound_iid(0.323, 1333.0, J_DEFAULT_INIT, 50000, 0.05)
        assert abs(val - 0.437) <= 0.001
        assert abs(lam * 50000 - 24295) <= 5.0

    def test_sign_language_scale_point(self):
        val, _ = bounds.selection_bound_iid(0.267, 2054.0, J_DEFAULT_INIT, 89775, 0.05)
        assert abs(val - 0.361) <= 0.01

    def test_dependent_scale_point_feasible_prior(self):
        # invert the dependent certificate at the published operating point:
        # the implied grid index must map back inside the prior-variance grid
        root = math.sqrt((1 + 8 * 2) * 1.052 / (24 * 98040 * 0.05))
        implied_j = (2.227 - 0.058) / (math.pi * root)
        assert 1.0 <= implied_j <= 600.0
        sigma2_p = 0.1 * math.exp(-implied_j / 100.0)
        assert 0.0 < sigma2_p < 0.1
        got = bounds.selection_bound_noniid(
            0.058, implied_j, math.log1p(0.052), 98040, 0.05, 2
        )
        assert got == pytest.approx(2.227, abs=5e-4)
