import numpy as np
import pytest

from ad_chain import add
from promptsurv import autodiff as ad, optim
from promptsurv.errors import ShapeError, TrainingError
from promptsurv.optim import AdamState


def test_first_step_closed_form():
    # with g=1 everywhere: m_hat = v_hat = 1, so delta = lr / (1 + eps)
    p = ad.parameter([[1.0]])
    adam = AdamState({"p": p}, lr=0.1)
    p.grad = np.array([[1.0]])
    adam.step()
    expected = 1.0 - 0.1 / (1.0 + 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, abs=1e-15)
    assert abs(1.0 - p.value[0, 0] - 0.1) < 1e-8  # decreases by ~lr


def test_zero_gradient_leaves_params_unchanged():
    p = ad.parameter([[2.0, -3.0]])
    before = p.value.copy()
    adam = AdamState({"p": p}, lr=0.5)
    p.grad = np.zeros((1, 2))
    for _ in range(5):
        adam.step()
    assert np.array_equal(p.value, before)  # m = v = 0 exactly


def test_default_hyperparameters():
    adam = AdamState({}, )
    assert adam.lr == 2e-4
    assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.999, 1e-8)


def test_step_counter_strictly_increases():
    p = ad.parameter([[0.0]])
    adam = AdamState({"p": p}, lr=0.01)
    for expected in range(1, 6):
        p.grad = np.array([[0.5]])
        adam.step()
        assert adam.step_count == expected


def test_nonfinite_gradient_raises():
    p = ad.parameter([[0.0]])
    adam = AdamState({"p": p})
    p.grad = np.array([[np.nan]])
    with pytest.raises(TrainingError, match="p"):
        adam.step()


def test_matches_reference_trajectory():
    # independent reference implementation of bias-corrected Adam
    rng = np.random.default_rng(5)
    values = rng.normal(size=(2, 3))
    grads = [rng.normal(size=(2, 3)) for _ in range(10)]

    ref = values.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    p = ad.parameter(values.copy())
    adam = AdamState({"p": p}, lr=lr)
    for g in grads:
        p.grad = g.copy()
        adam.step()
    assert p.value == pytest.approx(ref, abs=1e-12)


def test_a_raising_step_changes_nothing():
    a, b = ad.parameter([[1.0]]), ad.parameter([[2.0]])
    adam = AdamState({"a": a, "b": b}, lr=0.1)
    a.grad, b.grad = np.array([[1.0]]), np.array([[np.nan]])
    with pytest.raises(TrainingError, match="'b'"):
        adam.step()
    assert (a.value[0, 0], b.value[0, 0], adam.step_count) == (1.0, 2.0, 0)
    # nor did the moments move: the next step is a fresh optimizer's first
    ref_a, ref_b = ad.parameter([[1.0]]), ad.parameter([[2.0]])
    ref = AdamState({"a": ref_a, "b": ref_b}, lr=0.1)
    for p, q in ((a, ref_a), (b, ref_b)):
        p.grad, q.grad = np.array([[0.5]]), np.array([[0.5]])
    adam.step()
    ref.step()
    assert (a.value.tobytes(), b.value.tobytes()) == (ref_a.value.tobytes(),
                                                      ref_b.value.tobytes())
    assert adam.step_count == 1


def test_rebound_and_cleared_gradients_are_read_from_the_parameter():
    # a cleared gradient (None) reads as zero; a rebound one is copied in
    p, q = ad.parameter([[1.0, -1.0]]), ad.parameter([[3.0]])
    adam = AdamState({"p": p, "q": q}, lr=0.1)
    adam.zero_grad()
    q.zero_grad()
    p.grad = np.array([[1.0, -1.0]])
    adam.step()
    step = 0.1 / (1.0 + 1e-8)
    assert np.array_equal(p.value, [[1.0 - step, -1.0 + step]])
    assert q.value[0, 0] == 3.0
    p.grad = np.ones((2, 1))
    with pytest.raises(ShapeError, match="'p'"):
        adam.step()
    assert adam.step_count == 1
    # a rebound value is copied in too, and updated from then on
    adam.zero_grad()
    q.value = np.array([[5.0]])
    q.grad = np.array([[1.0]])
    adam.step()
    assert q.value[0, 0] < 5.0
    moved = q.value[0, 0]
    adam.step()
    assert q.value[0, 0] < moved


def test_accumulated_gradients_land_in_the_flat_buffer():
    # the graph writes into the views zero_grad binds, and each step reads them
    w = ad.parameter([[0.5, -2.0]])
    adam = AdamState({"w": w}, lr=0.01)
    ref = ad.parameter([[0.5, -2.0]])
    ref_adam = AdamState({"w": ref}, lr=0.01)
    x = np.array([[1.5, 3.0]])
    for _ in range(3):
        adam.zero_grad()
        view = w.grad
        add(w, ad.constant(x)).backward()
        assert w.grad is view
        ref.grad = np.ones((1, 2))
        adam.step()
        ref_adam.step()
    assert w.value.tobytes() == ref.value.tobytes()
