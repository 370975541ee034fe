import math

import numpy as np
import pytest

import ad_chain as ad
from promptsurv.errors import ConfigError, ShapeError
from promptsurv.survival import (
    fuse,
    hazards,
    nll_loss,
    risk_score,
    survival_curve,
    survival_curve_values,
    total_loss,
)


def head_of(weight, bias):
    return (ad.parameter(np.asarray(weight, dtype=float)),
            ad.parameter(np.asarray(bias, dtype=float)))


def hazard_node(values):
    """A 1xT hazard row wired through a sigmoid so values stay in (0,1)."""
    values = np.asarray(values, dtype=float)
    logits = np.log(values / (1.0 - values))
    return ad.sigmoid(ad.constant(logits[None, :]))


class TestFuse:
    def test_row_counts_add(self):
        out = fuse(np.ones((3, 4)), np.zeros((2, 4)))
        assert out.shape == (5, 4)

    def test_patch_rows_come_first(self):
        patch = np.arange(6.0).reshape(3, 2)
        out = fuse(patch, np.zeros((1, 2)))
        assert np.array_equal(out[:3], patch)

    def test_none_region_passes_through(self):
        patch = np.ones((2, 3))
        assert fuse(patch, None) is patch

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(np.ones((1, 3)), np.ones((1, 4)))


class TestHazards:
    def test_zero_parameters_give_half(self):
        head = head_of(np.zeros((3, 4)), np.zeros((1, 4)))
        h = hazards(ad.constant(np.ones((5, 3))), head)
        assert np.array_equal(h.value, np.full((1, 4), 0.5))

    def test_large_bias_saturates(self):
        head = head_of(np.zeros((2, 3)), np.full((1, 3), 30.0))
        h = hazards(ad.constant(np.ones((2, 2))), head)
        assert h.value == pytest.approx(np.ones((1, 3)), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        tokens = rng.normal(size=(4, 3))
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=(1, 2)))

        def f(params):
            h = hazards(ad.constant(tokens), head)
            s = survival_curve(h)
            return nll_loss(h, s, censor=0, time_bin=2)

        err = ad.grad_check(f, list(head), h=1e-5)
        assert err <= 1e-4


class TestSurvivalCurve:
    def test_no_hazard_means_flat_one(self):
        h = ad.constant([[0.0, 0.0, 0.0]])
        s = survival_curve(h)
        assert np.array_equal(s.value, [[1.0, 1.0, 1.0]])

    def test_direct_product(self):
        s = survival_curve(ad.constant([[0.2, 0.5]]))
        assert np.array_equal(s.value, [[0.8, 0.4]])
        assert np.array_equal(survival_curve_values(np.array([0.2, 0.5])),
                              np.array([0.8, 0.4]))

    def test_absorbing_death(self):
        s = survival_curve(ad.constant([[1.0, 0.3, 0.7]]))
        assert np.array_equal(s.value, [[0.0, 0.0, 0.0]])

    def test_nonincreasing_and_stepwise_identity(self):
        rng = np.random.default_rng(1)
        h = rng.uniform(size=8)
        s = survival_curve_values(h)
        assert np.all(np.diff(s) <= 0.0)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        prev = 1.0
        for t in range(8):
            assert s[t] == prev * (1.0 - h[t])  # exact recurrence
            prev = s[t]

    def test_node_and_value_paths_agree_bitwise(self):
        rng = np.random.default_rng(2)
        h = rng.uniform(size=5)
        node = survival_curve(ad.constant(h[None, :]))
        assert node.value[0].tobytes() == survival_curve_values(h).tobytes()


class TestNllLoss:
    def test_event_at_bin_two(self):
        h = hazard_node([0.5, 0.5])
        loss = nll_loss(h, survival_curve(h), censor=0, time_bin=2)
        assert loss.value[0, 0] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_censored_at_bin_one(self):
        h = hazard_node([0.5, 0.5])
        loss = nll_loss(h, survival_curve(h), censor=1, time_bin=1)
        assert loss.value[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_zero_loss(self):
        # hazard 1 in the event bin: -log S(0) - log h(1) = 0
        h = ad.constant([[1.0, 0.5]])
        loss = nll_loss(h, survival_curve(h), censor=0, time_bin=1)
        assert loss.value[0, 0] == 0.0

    def test_clamping_keeps_loss_finite_and_nonnegative(self):
        h = ad.constant([[1.0, 1.0]])
        s = survival_curve(h)
        for censor, t in ((1, 2), (0, 2)):
            loss = nll_loss(h, s, censor=censor, time_bin=t)
            assert np.isfinite(loss.value[0, 0])
            assert loss.value[0, 0] >= 0.0

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_bins = rng.integers(2, 6)
            h = hazard_node(rng.uniform(0.01, 0.99, size=n_bins))
            s = survival_curve(h)
            censor = int(rng.integers(0, 2))
            t = int(rng.integers(1, n_bins + 1))
            assert nll_loss(h, s, censor, t).value[0, 0] >= 0.0

    def test_time_bin_out_of_range(self):
        h = ad.constant([[0.5, 0.5]])
        with pytest.raises(ConfigError):
            nll_loss(h, survival_curve(h), censor=0, time_bin=3)


class TestRiskScore:
    def test_bounds(self):
        assert risk_score(np.array([1.0, 1.0])) == -2.0
        assert risk_score(np.array([0.0, 0.0])) == 0.0

    def test_direct_summation(self):
        assert risk_score(np.array([0.8, 0.4])) == pytest.approx(-1.2)

    def test_antitone_in_survival(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(size=6)
        better = np.minimum(s + 0.1, 1.0)
        assert risk_score(better) <= risk_score(s)


class TestTotalLoss:
    def test_lambda_zero_returns_survival_loss_node(self):
        l_sur = ad.constant([[1.5]])
        l_con = ad.constant([[7.0]])
        out = total_loss(l_sur, l_con, 0.0)
        assert out is l_sur

    def test_weighted_sum(self):
        out = total_loss(ad.constant([[1.0]]), ad.constant([[2.0]]), 0.01)
        assert out.value[0, 0] == pytest.approx(1.02, abs=1e-15)
