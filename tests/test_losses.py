import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesyhar.losses import PENALTIES, LossConfig, combined_loss_batch

# Independent one-line restatements of the five penalties, used as oracles.
ORACLES = {
    "All": lambda p, m: 1.0 - p[m].sum(),
    "-PP": lambda p, m: (1.0 - p.max()) if m[p.argmax()] else p.max(),
    "01": lambda p, m: 0.0 if m[p.argmax()] else 1.0,
    "-P1": lambda p, m: (1.0 - p.max()) if m[p.argmax()] else 1.0,
    "0P": lambda p, m: 0.0 if m[p.argmax()] else p.max(),
}


def random_pair(rng, k=None, margin=0.0):
    """Random (P, mask) with an argmax margin of at least `margin`."""
    while True:
        kk = k or int(rng.integers(2, 10))
        p = rng.random(kk)
        p /= p.sum()
        top2 = np.sort(p)[-2:]
        if top2[1] - top2[0] >= margin:
            mask = rng.integers(0, 2, size=kk).astype(bool)
            return p, mask


def mask(k, ones):
    m = np.zeros(k, dtype=bool)
    m[list(ones)] = True
    return m


def penalty(kind, p, m):
    """The named penalty of one distribution, evaluated as a one-row batch."""
    values, grads = PENALTIES[kind](p[None], m[None])
    return values[0], grads[0]


# ---------------------------------------------------------------------------
# Frozen hand-computed examples
# ---------------------------------------------------------------------------

def test_cross_entropy_one_hot_is_zero():
    p = np.array([0.0, 1.0, 0.0])
    value, _ = combined_loss_batch(p[None], [1], None, LossConfig())
    assert abs(value) < 1e-11


def test_cross_entropy_uniform():
    value, _ = combined_loss_batch(np.full((1, 4), 0.25), [2], None, LossConfig())
    assert value == pytest.approx(math.log(4), abs=1e-9)


def test_cross_entropy_invalid_label():
    with pytest.raises(IndexError):
        combined_loss_batch(np.full((1, 4), 0.25), [4], None, LossConfig())


def test_semantic_all_values():
    p = np.array([0.4, 0.3, 0.3])
    assert penalty("All", p, mask(3, [0, 1, 2]))[0] == pytest.approx(0.0, abs=1e-12)
    assert penalty("All", p, mask(3, []))[0] == pytest.approx(1.0)
    assert penalty("All", p, mask(3, [0, 1]))[0] == pytest.approx(0.3)


def test_semantic_all_gradient():
    _, grad = penalty("All", np.array([0.4, 0.3, 0.3]), mask(3, [0, 2]))
    np.testing.assert_array_equal(grad, [-1.0, 0.0, -1.0])


def test_minusprob_prob_values():
    assert penalty("-PP", np.array([1.0, 0.0]), mask(2, [0]))[0] == 0.0
    assert penalty("-PP", np.array([0.6, 0.4]), mask(2, [1]))[0] == pytest.approx(0.6)
    assert penalty("-PP", np.array([0.6, 0.4]), mask(2, [0]))[0] == pytest.approx(0.4)


def test_minusprob_prob_gradient_sign():
    _, g = penalty("-PP", np.array([0.6, 0.4]), mask(2, [0]))
    np.testing.assert_array_equal(g, [-1.0, 0.0])
    _, g = penalty("-PP", np.array([0.6, 0.4]), mask(2, [1]))
    np.testing.assert_array_equal(g, [1.0, 0.0])


def test_zero_one_values_and_zero_gradient():
    p = np.array([0.5, 0.3, 0.2])
    v, g = penalty("01", p, mask(3, [0]))
    assert v == 0.0
    v2, g2 = penalty("01", p, mask(3, [1]))
    assert v2 == 1.0
    np.testing.assert_array_equal(g, np.zeros(3))
    np.testing.assert_array_equal(g2, np.zeros(3))


def test_minusprob_one_values():
    assert penalty("-P1", np.array([1.0, 0.0]), mask(2, [0]))[0] == 0.0
    assert penalty("-P1", np.array([0.9, 0.1]), mask(2, [1]))[0] == 1.0
    assert penalty("-P1", np.array([0.55, 0.45]), mask(2, [0]))[0] == pytest.approx(0.45)


def test_zero_prob_values_and_gradient():
    assert penalty("0P", np.array([0.9, 0.1]), mask(2, [0]))[0] == 0.0
    v, g = penalty("0P", np.array([0.9, 0.1]), mask(2, [1]))
    assert v == pytest.approx(0.9)
    np.testing.assert_array_equal(g, [1.0, 0.0])


def test_argmax_tie_breaks_to_lowest_index():
    p = np.array([0.4, 0.4, 0.2])
    # index 0 wins the tie, and only index 0 is consistent
    assert penalty("01", p, mask(3, [0]))[0] == 0.0
    assert penalty("01", p, mask(3, [1]))[0] == 1.0


def test_combined_loss_hand_example():
    p = np.array([0.4, 0.3, 0.3])
    cfg = LossConfig("All", 2.0)
    value, _ = combined_loss_batch(p[None], [0], mask(3, [0, 1])[None], cfg)
    assert value == pytest.approx(-math.log(0.4) + 2 * 0.3, abs=1e-6)
    assert value == pytest.approx(1.5163, abs=5e-5)


def test_combined_alpha_zero_is_cross_entropy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, m = random_pair(rng)
        ce_v, ce_g = combined_loss_batch(p[None], [0], None, LossConfig())
        v, g = combined_loss_batch(p[None], [0], m[None], LossConfig("All", 0.0))
        assert v == ce_v
        np.testing.assert_array_equal(g, ce_g)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig("bogus", 1.0)
    for alpha in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"alpha must be finite and >= 0, got {alpha}"):
            LossConfig("All", alpha)


# ---------------------------------------------------------------------------
# Oracle equivalence and properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(ORACLES))
def test_oracle_equivalence(kind):
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        p, m = random_pair(rng)
        value, _ = penalty(kind, p, m)
        assert abs(value - ORACLES[kind](p, m)) < 1e-12
        assert -1e-12 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("kind", list(ORACLES))
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(40):
        p, m = random_pair(rng, margin=1e-3)
        _, grad = penalty(kind, p, m)
        for i in range(p.shape[0]):
            dp = np.zeros_like(p)
            dp[i] = h
            fd = (penalty(kind, p + dp, m)[0] - penalty(kind, p - dp, m)[0]) / (2 * h)
            assert abs(fd - grad[i]) < 1e-6


def test_cross_entropy_gradient_finite_differences_on_simplex_tangent():
    rng = np.random.default_rng(7)
    h = 1e-7
    for _ in range(25):
        p, _ = random_pair(rng, k=5)
        label = int(rng.integers(5))
        _, grad = combined_loss_batch(p[None], [label], None, LossConfig())
        fd = np.zeros(5)
        for i in range(5):
            dp = np.zeros(5)
            dp[i] = h
            up, _ = combined_loss_batch((p + dp)[None], [label], None, LossConfig())
            down, _ = combined_loss_batch((p - dp)[None], [label], None, LossConfig())
            fd[i] = (up - down) / (2 * h)
        project = lambda g: g - g.mean()
        np.testing.assert_allclose(project(fd), project(grad[0]), rtol=1e-5, atol=1e-6)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_combined_loss_strictly_increasing_in_alpha(seed):
    rng = np.random.default_rng(seed)
    kind = ["All", "-PP", "01", "-P1", "0P"][seed % 5]
    p, m = random_pair(rng)
    sem_value, _ = penalty(kind, p, m)
    if sem_value <= 1e-12:
        # a round-off sized penalty (<= 2.2e-16 seen) times alpha is below the
        # resolution of the cross-entropy, so the sum cannot grow with alpha
        return
    label = int(rng.integers(p.shape[0]))
    values = [combined_loss_batch(p[None], [label], m[None], LossConfig(kind, a))[0]
              for a in (0.5, 1.0, 3.0)]
    assert values[0] < values[1] < values[2]


def test_batch_matches_per_sample():
    # The batch is checked row by row against the independent ORACLES (plus
    # cross-entropy by hand); gradients against central differences of the
    # same hand-written rows.
    rng = np.random.default_rng(5)
    h = 1e-6
    for kind in ("none", "All", "-PP", "01", "-P1", "0P"):
        cfg = LossConfig(kind, 0.0 if kind == "none" else 2.5)
        n, k = 17, 6
        pairs = [random_pair(rng, k=k, margin=1e-3) for _ in range(n)]
        probs = np.stack([p for p, _ in pairs])
        masks = np.stack([m for _, m in pairs])
        labels = rng.integers(0, k, size=n)

        def by_hand(p, label, m):
            penalty = 0.0 if kind == "none" else cfg.alpha * ORACLES[kind](p, m)
            return -math.log(p[label] + 1e-12) + penalty

        value, grad = combined_loss_batch(probs, labels, masks, cfg)
        rows = [by_hand(probs[i], labels[i], masks[i]) for i in range(n)]
        assert value == pytest.approx(np.mean(rows), abs=1e-12)
        for i in range(n):
            fd = np.zeros(k)
            for j in range(k):
                dp = np.zeros(k)
                dp[j] = h
                fd[j] = (by_hand(probs[i] + dp, labels[i], masks[i])
                         - by_hand(probs[i] - dp, labels[i], masks[i])) / (2 * h)
            np.testing.assert_allclose(grad[i] * n, fd, rtol=1e-5, atol=1e-6)


def test_labels_outside_activity_range_raise():
    p = np.array([[0.7, 0.2, 0.1]])
    for label in (-1, 3):
        with pytest.raises(IndexError):
            combined_loss_batch(p, np.array([label]), None, LossConfig())
        with pytest.raises(IndexError):
            combined_loss_batch(p, np.array([label]), np.ones((1, 3)), LossConfig("All", 1.0))


def test_wrongly_shaped_mask_raises():
    p = np.array([[0.7, 0.2, 0.1]])
    for kind in PENALTIES:
        with pytest.raises(ValueError):
            combined_loss_batch(p, [0], np.ones((1, 2), dtype=bool), LossConfig(kind, 1.0))
    with pytest.raises(ValueError):
        combined_loss_batch(p, [0], np.ones(3, dtype=bool), LossConfig("-PP", 1.0))
