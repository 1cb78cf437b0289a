import math

import numpy as np
import pytest

from pbcurl import bounds, losses, oracle


def mc_estimate(inst, loss_kind, k, m, rng):
    """Sampled contrastive loss on the instance; returns (mean, se)."""
    x, x_pos, x_neg = oracle.sample_tuples_discrete(inst, m, k, rng)
    gram = inst.f_table @ inst.f_table.T
    margins = gram[x, x_pos][:, None] - gram[x[:, None], x_neg]
    if loss_kind == "zero-one":
        vals = losses.zero_one_risk(margins)
    else:
        vals = losses.loss_value(margins, loss_kind)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m))


@pytest.mark.parametrize("loss_kind", ["logistic", "hinge"])
@pytest.mark.parametrize("k", [1, 3])
def test_exact_unsup_loss_matches_sampling(rng, loss_kind, k):
    inst = oracle.random_instance(rng)
    exact = oracle.exact_unsup_loss(inst, loss_kind, k=k)
    est, se = mc_estimate(inst, loss_kind, k, 200_000, rng)
    assert abs(est - exact) <= 3.5 * se + 1e-9


def test_exact_zero_one_risk_matches_sampling(rng):
    inst = oracle.random_instance(rng)
    exact = oracle.exact_zero_one_risk(inst, k=2)
    est, se = mc_estimate(inst, "zero-one", 2, 200_000, rng)
    assert 0.0 <= exact <= 1.0
    assert abs(est - exact) <= 3.5 * se + 1e-9


def test_exact_zero_one_risk_alternate_table(rng):
    # f_table override evaluates a different representation on the same data
    inst = oracle.random_instance(rng)
    other = rng.normal(size=inst.f_table.shape)
    a = oracle.exact_zero_one_risk(inst, k=1)
    b = oracle.exact_zero_one_risk(inst, k=1, f_table=other)
    assert a != b   # almost surely


@pytest.mark.parametrize("loss_kind", ["logistic", "hinge"])
def test_collision_transfer_random_instances(rng, loss_kind):
    for _ in range(200):
        inst = oracle.random_instance(rng)
        lhs, rhs, ok = oracle.check_collision_transfer(inst, loss_kind)
        assert ok, f"transfer violated: {lhs} > {rhs}"


@pytest.mark.parametrize("loss_kind", ["logistic", "hinge"])
def test_collision_transfer_tight_for_point_masses(rng, loss_kind):
    # each class sits on its own support point: the unsupervised tuple is
    # exactly the supervised task plus the tau-weighted collision slice
    c = 3
    rho = rng.dirichlet(np.full(c, 2.0))
    inst = oracle.DiscreteInstance(
        rho=rho, probs=np.eye(c), f_table=rng.normal(size=(c, 2))
    )
    lhs, rhs, ok = oracle.check_collision_transfer(inst, loss_kind)
    assert ok
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("loss_kind", ["logistic", "hinge"])
def test_collision_transfer_collapsed_representation(rng, loss_kind):
    # a constant feature map scores every margin 0 on both sides
    inst = oracle.random_instance(rng)
    inst.f_table = np.tile(inst.f_table[0], (inst.n_support, 1))
    lhs, rhs, _ = oracle.check_collision_transfer(inst, loss_kind)
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-12)


def test_sup_mu_loss_rejects_single_class():
    inst = oracle.DiscreteInstance(
        rho=np.array([1.0]), probs=np.array([[0.5, 0.5]]), f_table=np.zeros((2, 1))
    )
    with pytest.raises(ValueError):
        oracle.exact_sup_mu_loss(inst, "hinge")


def test_random_instance_is_valid(rng):
    for _ in range(50):
        inst = oracle.random_instance(rng)
        assert 2 <= inst.n_classes <= 5
        assert 2 <= inst.n_support <= 6
        assert inst.rho.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(inst.probs.sum(axis=1), 1.0)
        assert inst.class_means().shape == (inst.n_classes, inst.f_table.shape[1])


def test_sample_tuples_discrete_marginals(rng):
    # identity conditionals: the support index is the class, so frequencies
    # must track rho and the positive must share the anchor's class
    rho = np.array([0.6, 0.3, 0.1])
    inst = oracle.DiscreteInstance(rho=rho, probs=np.eye(3), f_table=np.zeros((3, 1)))
    m = 30_000
    x, x_pos, x_neg = oracle.sample_tuples_discrete(inst, m, 2, rng)
    assert x.shape == (m,) and x_pos.shape == (m,) and x_neg.shape == (m, 2)
    assert np.array_equal(x, x_pos)
    for arr in (x, x_neg.ravel()):
        freq = np.bincount(arr, minlength=3) / arr.size
        assert np.max(np.abs(freq - rho)) < 4.0 * math.sqrt(0.25 / arr.size) + 0.01


def test_mc_kl_unit_shift(rng):
    est, se = oracle.mc_kl_gaussian(np.array([1.0]), np.zeros(1), np.array([0.0]), 0.0, 100_000, rng)
    assert se > 0.0
    assert abs(est - 0.5) <= 3.5 * se


def test_mc_chi2_unit_shift(rng):
    est, se = oracle.mc_chi2_gaussian(np.array([1.0]), np.zeros(1), np.array([0.0]), 0.0, 100_000, rng)
    assert se > 0.0
    assert abs(est - (math.e - 1.0)) <= 3.5 * se


def test_coverage_sim_deterministic_and_sane():
    cov1, risk1 = oracle.coverage_sim(np.random.default_rng(5), n_trials=30, m=100)
    cov2, risk2 = oracle.coverage_sim(np.random.default_rng(5), n_trials=30, m=100)
    assert (cov1, risk1) == (cov2, risk2)
    assert 0.0 <= risk1 <= 1.0
    assert 0.8 <= cov1 <= 1.0   # delta=0.05 and a conservative bound


def test_coverage_sim_checks_the_iid_loss_bound(monkeypatch):
    # verify's coverage gate runs the formula the iid loss certificate ships,
    # at tau = 0 and loss range 1, once per trial
    calls = []
    real = bounds.iid_supervised_bound

    def spy(*args):
        calls.append(args[5:])
        return real(*args)

    monkeypatch.setattr(bounds, "iid_supervised_bound", spy)
    oracle.coverage_sim(np.random.default_rng(5), n_trials=7, m=50)
    assert calls == [(0.0, 1.0)] * 7


@pytest.mark.parametrize("objective", ["iid", "noniid"])
def test_finite_diff_gradients(objective, rng):
    assert oracle.finite_diff_check(objective, rng) < 1e-4


def test_min_hidden_preact_hand_case():
    # 1-2-1 by hand: W1=[[1],[-0.5]] b1=[0.1,0.2], x=0.7 -> z1 = (0.8, -0.15)
    w = np.array([1.0, -0.5, 0.1, 0.2, 2.0, 3.0, -0.25])
    assert oracle._min_hidden_preact((1, 2, 1), w, np.array([[0.7]])) == pytest.approx(0.15)
    # 1-2-1-1: W2=[[2,3]] b2=[-1.55] reads relu(z1), so z2 = 1.6 - 1.55 = 0.05
    # (without the ReLU it would be -0.4); the output layer, 5 z2 - 0.25 = 0,
    # has no ReLU and is not counted
    w = np.array([1.0, -0.5, 0.1, 0.2, 2.0, 3.0, -1.55, 5.0, -0.25])
    assert oracle._min_hidden_preact((1, 2, 1, 1), w, np.array([[0.7]])) == pytest.approx(0.05)


def test_verify_suite_structure():
    out = oracle.run_verify_suite(
        seed=7, n_lemma=10, n_divergence=3, mc_samples=20_000, coverage_trials=20
    )
    sections = (
        "collision_transfer",
        "collision_stats",
        "divergence_mc",
        "gradients",
        "bound_coverage",
    )
    for name in sections:
        assert isinstance(out[name]["passed"], bool)
    assert out["collision_transfer"]["violations"] == 0
    assert out["collision_stats"]["passed"]
    assert isinstance(out["all_passed"], bool)
