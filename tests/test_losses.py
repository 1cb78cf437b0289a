import math

import numpy as np
import pytest

from pbcurl import losses

# frozen reference values, computed by hand / standalone arithmetic
LOG2_3 = 1.5849625007211563
BL_LOGISTIC_B1_K4 = 4.933394386229647


def test_margins_hand_case_single_pair():
    # identity features, x=(1,0), x+=(1,0), x-=(0,1)
    v = losses.contrastive_margins(
        np.array([[1.0, 0.0]]),
        np.array([[[1.0, 0.0]]]),
        np.array([[[[0.0, 1.0]]]]),
    )
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(1.0, abs=0)


def test_margins_identical_blocks_are_zero(rng):
    block = rng.normal(size=(1, 1, 3, 5))
    v = losses.contrastive_margins(rng.normal(size=(1, 5)), block[:, 0], block)
    assert np.all(v == 0.0)


def test_margins_hand_case_blocks():
    # block means (1,0) vs (0,1), anchor (1,0) -> margin 1
    pos = np.array([[[2.0, 0.0], [0.0, 0.0]]])
    neg = np.array([[[[0.0, 2.0], [0.0, 0.0]]]])
    v = losses.contrastive_margins(np.array([[1.0, 0.0]]), pos, neg)
    assert v[0, 0] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_margins_bitwise_equal_to_np_mean(rng, b, k):
    # the block means follow np.mean's order; signed zeros must match too.
    # np.mean sums from +0.0, so a block of -0.0 has mean 0.0 and 0.0 - 0.0
    # is 0.0, where -0.0 - 0.0 would be -0.0
    n, d = 37, 6
    rows = rng.standard_normal((n * (1 + b + k * b), d)) * np.exp(rng.uniform(-8, 8, (1, d)))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[rng.random(rows.shape) < 0.5] *= -1.0
    rows[: n // 2, :2] = -0.0
    anchor = rows[:n]
    pos, neg = rows[n:n + n * b].reshape(n, b, d), rows[n + n * b:].reshape(n, k, b, d)
    pos[::3, :, 0] = -0.0
    neg[::3, :, :, 0] = 0.0
    neg[::4, :, :, 1] = -0.0
    ref_diff = np.mean(pos, axis=1)[:, None, :] - np.mean(neg, axis=2)
    ref = np.einsum("nd,nkd->nk", anchor, ref_diff)
    diff = np.full((n, k, d), np.nan)
    v = losses.contrastive_margins(anchor, pos, neg, diff)
    assert np.array_equal(v.view(np.int64), ref.view(np.int64))
    assert np.array_equal(diff.view(np.int64), ref_diff.view(np.int64))
    assert np.array_equal(losses.contrastive_margins(anchor, pos, neg).view(np.int64),
                          ref.view(np.int64))


def test_logistic_loss_values():
    assert losses.logistic_loss(np.array([0.0])) == pytest.approx(1.0, rel=1e-15)
    assert losses.logistic_loss(np.array([0.0, 0.0])) == pytest.approx(LOG2_3, rel=1e-14)


def test_logistic_loss_overflow_safe():
    # a margin of -2000 would overflow exp; log-sum-exp keeps it linear
    val = losses.logistic_loss(np.array([-2000.0]))
    assert np.isfinite(val)
    assert val == pytest.approx(2000.0 * np.log2(np.e), rel=1e-9)


def test_hinge_loss_values():
    assert losses.hinge_loss(np.array([0.5])) == 0.5
    assert losses.hinge_loss(np.array([3.0, -0.2])) == pytest.approx(1.2, rel=1e-15)
    assert losses.hinge_loss(np.array([1.0, 2.5])) == 0.0


def test_zero_one_risk_counts():
    assert losses.zero_one_risk(np.array([0.3, 0.2])) == 0.0
    assert losses.zero_one_risk(np.array([1.0, -1.0, -0.5, 2.0])) == 0.5
    # a margin of exactly zero counts as correct
    assert losses.zero_one_risk(np.array([0.0])) == 0.0
    # a NaN margin is an error: it compared false under v < 0 and so counted
    # as correct
    v = np.array([[np.nan, 1.0], [0.0, -0.0], [-np.inf, np.inf], [np.nan, np.nan]])
    assert losses.zero_one_risk(v).tolist() == [0.5, 0.0, 0.5, 1.0]


def test_loss_range_values():
    assert losses.loss_range("hinge", 1.0, 1) == 3.0
    assert losses.loss_range("hinge", 1.0, 7) == 3.0
    assert losses.loss_range("logistic", 0.0, 1) == pytest.approx(1.0, rel=1e-15)
    assert losses.loss_range("logistic", 1.0, 4) == pytest.approx(
        BL_LOGISTIC_B1_K4, rel=1e-13
    )


def test_loss_range_brackets_endpoint_losses():
    # all margins at -2B^2 attain the logistic range exactly
    for b, k in [(0.5, 1), (1.0, 3), (1.5, 2)]:
        lo = np.full(k, -2.0 * b * b)
        hi = np.full(k, 2.0 * b * b)
        bl = losses.loss_range("logistic", b, k)
        assert losses.logistic_loss(lo) == pytest.approx(bl, rel=1e-12)
        assert losses.logistic_loss(hi) <= bl
        assert losses.hinge_loss(lo) == losses.loss_range("hinge", b, k)


def test_loss_range_logistic_past_exp_range():
    # e^{2B^2} overflows a float once B > ~18.8; the range is then taken in
    # logs, and stays the direct formula wherever that is finite
    assert losses.loss_range("logistic", 20.0, 4) == (800.0 + math.log(4)) / math.log(2)
    assert losses.loss_range("logistic", 18.8, 4) == math.log2(1.0 + 4 * math.exp(2 * 18.8**2))
    # across the switch both forms agree: 1 is negligible against k e^{2B^2}
    for b in np.linspace(18.7, 18.9, 21):
        assert losses.loss_range("logistic", b, 4) == pytest.approx(
            (2.0 * b * b + math.log(4)) / math.log(2), rel=1e-14
        )


def test_loss_at_zero():
    assert losses.loss_at_zero("hinge", 3) == 1.0
    assert losses.loss_at_zero("logistic", 1) == pytest.approx(1.0, rel=1e-15)
    assert losses.loss_at_zero("logistic", 2) == pytest.approx(LOG2_3, rel=1e-14)
    with pytest.raises(ValueError):
        losses.loss_at_zero("logistic", 0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        losses.loss_value(np.zeros(2), "absolute")
    with pytest.raises(ValueError):
        losses.loss_range("absolute", 1.0, 1)


def test_zero_one_dominated_by_both_losses(rng):
    # r <= ell per tuple for every margin vector and both loss families
    for _ in range(200):
        k = int(rng.integers(1, 6))
        v = rng.normal(scale=2.0, size=k)
        r = losses.zero_one_risk(v)
        assert r <= losses.logistic_loss(v) + 1e-12
        assert r <= losses.hinge_loss(v) + 1e-12


def test_range_property_random_features(rng):
    # margins of norm-bounded representations stay inside [-2B^2, 2B^2]
    for _ in range(50):
        d, k, b = 4, 3, 2
        raw = rng.normal(size=(1 + b + k * b, d))
        bnorm = float(np.max(np.linalg.norm(raw, axis=1)))
        anchor, pos, neg = raw[:1], raw[1 : 1 + b][None], raw[1 + b :].reshape(1, k, b, d)
        v = losses.contrastive_margins(anchor, pos, neg)
        lim = 2.0 * bnorm * bnorm + 1e-12
        assert np.all(np.abs(v) <= lim)
        assert losses.logistic_loss(v) <= losses.loss_range("logistic", bnorm, k) + 1e-12
        assert losses.hinge_loss(v) <= losses.loss_range("hinge", bnorm, k) + 1e-12


def test_convexity_spot_check(rng):
    for kind in ("logistic", "hinge"):
        for _ in range(100):
            k = int(rng.integers(1, 5))
            u, v = rng.normal(scale=3.0, size=(2, k))
            mid = losses.loss_value((u + v) / 2.0, kind)
            avg = (losses.loss_value(u, kind) + losses.loss_value(v, kind)) / 2.0
            assert mid <= avg + 1e-12


def _finite_diff_margin_grad(v, kind, h=1e-6):
    g = np.zeros_like(v)
    for i in range(v.size):
        up, dn = v.copy(), v.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (losses.loss_value(up, kind) - losses.loss_value(dn, kind)) / (2 * h)
    return g


def test_margin_grads_match_finite_differences(rng):
    for kind in ("logistic", "hinge"):
        for _ in range(30):
            k = int(rng.integers(1, 5))
            v = rng.normal(scale=1.5, size=k)
            # keep hinge away from its kinks
            if kind == "hinge" and (np.min(np.abs(1.0 - v)) < 1e-3 or _near_tie(v)):
                continue
            g = losses.loss_margin_grad(v, kind)
            g_fd = _finite_diff_margin_grad(v, kind)
            assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-7)


def _near_tie(v):
    if v.size < 2:
        return False
    s = np.sort(v)
    return bool(np.min(np.diff(s)) < 1e-3)


def separate_margin_grad(margins, kind):
    """The margin gradient by its own reduction, apart from the loss: the reference."""
    v = np.asarray(margins, dtype=np.float64)
    if kind == "logistic":
        total = np.logaddexp(0.0, np.logaddexp.reduce(-v, axis=-1))
        return -np.exp(-v - total[..., None]) / losses.LN2
    flat = v.reshape(-1, v.shape[-1])
    g = np.zeros_like(flat)
    rows = np.nonzero(1.0 - np.min(flat, axis=-1) > 0.0)[0]
    g[rows, np.argmin(flat, axis=-1)[rows]] = -1.0
    return g.reshape(v.shape)


@pytest.mark.parametrize("kind", ["logistic", "hinge"])
def test_shared_loss_pass_matches_the_separate_formulas(rng, kind):
    # batch and single-tuple shapes; ties, saturated tuples and margins far
    # past exp's range, where the reductions must agree bit for bit
    batch = rng.normal(scale=2.0, size=(250, 4))
    batch[:20, 1] = batch[:20, 2]
    batch[20:30] = 1.5
    batch[30:40] = -800.0
    for v in (batch, batch[7], np.array([0.0]), np.array([np.nan, 1.0])):
        with np.errstate(invalid="ignore"):
            loss, grad = losses.loss_and_margin_grad(v, kind)
            ref_loss, ref_grad = losses.loss_value(v, kind), separate_margin_grad(v, kind)
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


def test_hinge_grad_zero_when_saturated():
    g = losses.loss_margin_grad(np.array([2.0, 3.0]), "hinge")
    assert np.all(g == 0.0)


def test_block_reduction_matches_plain_margin(rng):
    # with b=1 the block margin is exactly f(x).(f(x+) - f(x-))
    for _ in range(20):
        d, k = 3, 2
        a = rng.normal(size=(1, d))
        p = rng.normal(size=(1, 1, d))
        n = rng.normal(size=(1, k, 1, d))
        v = losses.contrastive_margins(a, p, n)
        plain = np.array([[float(a[0] @ (p[0, 0] - n[0, i, 0])) for i in range(k)]])
        assert np.allclose(v, plain, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 4, 5])
def test_logsumexp_chain_keeps_the_bits_of_logaddexp_reduce(rng, k):
    # the loss takes log(1 + sum exp(-v)) as a chain of column logaddexp calls
    # in np.logaddexp.reduce's order; margins of +-800 overflow exp on their own
    v = rng.normal(scale=3.0, size=(3, 2000, k))
    v[0, :300] = rng.choice([-800.0, 800.0, -0.0, 0.0], size=(300, k))
    v[1, :50] = -800.0
    v[2, :50] = 800.0
    for margins in (v, v[0], v[0, 7]):
        want = np.logaddexp(0.0, np.logaddexp.reduce(-margins, axis=-1))
        got = losses._log1p_sum_exp(-margins)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        ref = want / losses.LN2
        assert np.asarray(losses.logistic_loss(margins)).tobytes() == ref.tobytes()
        assert losses.logistic_loss_and_grad(margins)[0].tobytes() == ref.tobytes()
