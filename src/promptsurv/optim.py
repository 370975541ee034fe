"""Adam optimizer over named parameter nodes, on flat buffers."""

from __future__ import annotations

import numpy as np

from .autodiff import Node
from .errors import ShapeError, TrainingError

# Adam's moment decays and denominator floor, at their usual values
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Bias-corrected Adam with one contiguous buffer per quantity.

    The moment decays and the denominator floor are the module constants
    BETA1, BETA2 and EPS. The step counter increases by one on every call
    to `step` that succeeds.

    Parameter values, gradients and both moments each live in one float64
    buffer, and every parameter's `value` and `grad` are views into the
    first two, so a step is a dozen whole-buffer numpy calls however many
    parameters there are. Adam is elementwise, so the update is bit-identical
    to a per-parameter one. A value or gradient a caller rebinds is
    shape-checked and copied in at the next step (a None gradient, as
    `Node.zero_grad` leaves, as zeros).
    """

    def __init__(self, params: dict[str, Node], lr: float = 2e-4):
        self.params = params
        self.lr = float(lr)
        self.step_count = 0
        size = sum(p.value.size for p in params.values())
        self._values, self._update, self._denom = np.empty(size), np.empty(size), np.empty(size)
        self._grads, self._m, self._v = np.zeros(size), np.zeros(size), np.zeros(size)
        self._views = []  # (key, node, value view, gradient view)
        start = 0
        for key, p in params.items():
            stop = start + p.value.size
            value = self._values[start:stop].reshape(p.value.shape)
            value[...], p.value = p.value, value
            self._views.append((key, p, value, self._grads[start:stop].reshape(value.shape)))
            start = stop

    def step(self):
        """Apply one update using the gradients currently stored on the params.

        Parameters with no accumulated gradient are treated as having zero
        gradient (their moments decay but values only move by the eps term,
        which is exactly zero when the moments are still zero). A non-finite
        gradient raises, naming the first such parameter, before any value,
        moment or the step counter moves.
        """
        for key, p, value, grad in self._views:
            if p.value is not value:
                value[...], p.value = _checked_shape(p.value, value, "value", key), value
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else _checked_shape(p.grad, grad, "gradient", key)
                p.grad = grad
        g = self._grads
        if not np.isfinite(g).all():
            key = next(key for key, _, _, grad in self._views if not np.isfinite(grad).all())
            raise TrainingError(f"non-finite gradient for parameter {key!r}")
        self.step_count += 1
        t = self.step_count
        m, v, update, denom = self._m, self._v, self._update, self._denom
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=update)
        v *= BETA2
        np.multiply(g, g, out=update)
        update *= 1.0 - BETA2
        v += update
        np.divide(m, 1.0 - BETA1 ** t, out=update)  # m_hat
        update *= self.lr
        np.divide(v, 1.0 - BETA2 ** t, out=denom)   # v_hat
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        self._values -= update

    def zero_grad(self):
        self._grads.fill(0.0)
        for _, p, _, grad in self._views:
            p.grad = grad


def _checked_shape(array, view: np.ndarray, what: str, key: str):
    if np.shape(array) != view.shape:
        raise ShapeError(
            f"{what} shape {np.shape(array)} != parameter shape {view.shape} for {key!r}")
    return array
