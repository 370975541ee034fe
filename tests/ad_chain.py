"""The autodiff engine plus the operations that only the tests use.

The elementary ops here (`add`, `scale`, `neg`, `exp`, `log`, `clamp_min`,
`sigmoid`, `sum_all`, `sum_rows`, `matmul`, `transpose`, `mul`, `tanh`,
`sum_cols`, `mean_rows`, `divide`, `concat_rows`, `concat_cols`,
`softmax_cols`) and the fused `linear`, `lerp`, `l2_normalize_row`,
`neg_log_entry` and one-direction `contrastive` build the reference chains
that the library's fused ops are checked against bit for bit, and the scalar
losses handed to `grad_check`, the finite-difference harness at the end of
this module.
No library code calls them, so they live here. The `*_chain` functions at
the end compose them into the chain each of the library's module-level fused
ops replaces, with the same signature. Test modules import this module as
`ad` in place of `promptsurv.autodiff`; every other name is the library's
own.
"""

from __future__ import annotations

import numpy as np

from promptsurv.autodiff import *  # noqa: F401,F403
from promptsurv.autodiff import (Node, _checked_exp, _checked_log,
                                 _linear_params_backward, _make, _require_linear,
                                 _require_nonempty, _require_same_shape, _sigmoid,
                                 as_matrix)
from promptsurv.errors import DegenerateInputError, DomainError, EmptyInputError, ShapeError


def add(a: Node, b: Node) -> Node:
    _require_same_shape("add", a, b)
    value = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _make(value, (a, b), backward)


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)

    def backward(g):
        a.accumulate(factor * g)

    return _make(factor * a.value, (a,), backward)


def neg(a: Node) -> Node:
    def backward(g):
        if a.requires_grad:
            a.accumulate(-g)

    return _make(-a.value, (a,), backward)


def exp(a: Node) -> Node:
    value = _checked_exp(a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * value)

    return _make(value, (a,), backward)


def log(a: Node) -> Node:
    value = _checked_log(a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g / a.value)

    return _make(value, (a,), backward)


def clamp_min(a: Node, floor: float) -> Node:
    """Entrywise max(x, floor); gradient passes only where x > floor."""
    floor = float(floor)
    mask = a.value > floor
    value = np.maximum(a.value, floor)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    return _make(value, (a,), backward)


def sigmoid(a: Node) -> Node:
    value = _sigmoid(a.value)

    def backward(g):
        a.accumulate(g * value * (1.0 - value))

    return _make(value, (a,), backward)


def sum_all(a: Node) -> Node:
    """Total of all entries as a 1x1 matrix."""
    _require_nonempty("sum_all", a)
    value = np.array([[a.value.sum()]])

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.value, g[0, 0]))

    return _make(value, (a,), backward)


def sum_rows(a: Node) -> Node:
    """Per-row totals: MxN -> Mx1 column."""
    _require_nonempty("sum_rows", a)
    value = a.value.sum(axis=1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, a.value.shape).copy())

    return _make(value, (a,), backward)


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.value.shape} x {b.value.shape}")
    value = a.value @ b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.value.T)
        if b.requires_grad:
            b.accumulate(a.value.T @ g)

    return _make(value, (a, b), backward)


def transpose(a: Node) -> Node:
    value = np.ascontiguousarray(a.value.T)

    def backward(g):
        a.accumulate(g.T)

    return _make(value, (a,), backward)


def mul(a: Node, b: Node) -> Node:
    _require_same_shape("mul", a, b)
    value = a.value * b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.value)
        if b.requires_grad:
            b.accumulate(g * a.value)

    return _make(value, (a, b), backward)


def tanh(a: Node) -> Node:
    value = np.tanh(a.value)

    def backward(g):
        a.accumulate(g * (1.0 - value * value))

    return _make(value, (a,), backward)


def sum_cols(a: Node) -> Node:
    """Per-column totals, summing over the row index: MxN -> 1xN row."""
    _require_nonempty("sum_cols", a)
    value = a.value.sum(axis=0, keepdims=True)

    def backward(g):
        a.accumulate(np.broadcast_to(g, a.value.shape).copy())

    return _make(value, (a,), backward)


def mean_rows(a: Node) -> Node:
    """Mean over the row index: MxN -> 1xN row (column means)."""
    _require_nonempty("mean_rows", a)
    m = a.value.shape[0]
    value = a.value.mean(axis=0, keepdims=True)

    def backward(g):
        a.accumulate(np.broadcast_to(g / m, a.value.shape).copy())

    return _make(value, (a,), backward)


def divide(a: Node, count: int) -> Node:
    """Entrywise a / count: a true division, not a product with 1 / count."""

    def backward(g):
        a.accumulate(g / count)

    return _make(a.value / count, (a,), backward)


def concat_rows(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[1]:
        raise ShapeError(
            f"concat_rows column mismatch: {a.value.shape} vs {b.value.shape}"
        )
    value = np.concatenate([a.value, b.value], axis=0)
    split = a.value.shape[0]

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[:split])
        if b.requires_grad:
            b.accumulate(g[split:])

    return _make(value, (a, b), backward)


def concat_cols(a: Node, b: Node) -> Node:
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeError(
            f"concat_cols row mismatch: {a.value.shape} vs {b.value.shape}"
        )
    value = np.concatenate([a.value, b.value], axis=1)
    split = a.value.shape[1]

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[:, :split])
        if b.requires_grad:
            b.accumulate(g[:, split:])

    return _make(value, (a, b), backward)


def softmax_cols(a: Node) -> Node:
    """Column-wise softmax, stabilized by per-column max subtraction."""
    _require_nonempty("softmax_cols", a)
    shifted = a.value - a.value.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=0, keepdims=True)

    def backward(g):
        inner = (value * g).sum(axis=0, keepdims=True)
        a.accumulate(value * (g - inner))

    return _make(value, (a,), backward)


def linear(x: Node, weight: Node, bias: Node) -> Node:
    """x @ weight + bias, with the 1xD bias row repeated across the rows of x."""
    _require_linear(x.value, weight, bias)
    value = x.value @ weight.value + bias.value

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ weight.value.T)
        _linear_params_backward(x.value, weight, bias, g)

    return _make(value, (x, weight, bias), backward)


def lerp(w: Node, a: Node, b: Node) -> Node:
    """Entrywise blend w * a + (1 - w) * b."""
    _require_same_shape("lerp", w, a)
    _require_same_shape("lerp", w, b)
    rest = 1.0 - w.value
    value = w.value * a.value + rest * b.value

    def backward(g):
        if w.requires_grad:
            w.accumulate(g * a.value - g * b.value)
        if a.requires_grad:
            a.accumulate(g * w.value)
        if b.requires_grad:
            b.accumulate(g * rest)

    return _make(value, (w, a, b), backward)


def l2_normalize_row(row: Node) -> Node:
    """A 1xD row divided by its Euclidean norm; a zero row has no direction."""
    s = row.value
    sq_norm = np.array([[(s * s).sum()]])
    if sq_norm[0, 0] == 0.0:
        raise DegenerateInputError("cannot normalize a zero row")
    inv_norm = np.exp(-0.5 * np.log(sq_norm))  # 1x1: (sum of squares)^(-1/2)
    value = inv_norm @ s

    def backward(g):
        g_sq = ((-0.5 * ((g @ s.T) * inv_norm)) / sq_norm)[0, 0]
        # the chain's order: the direct term, then one term per factor of s * s
        row.accumulate(inv_norm.T @ g + g_sq * s + g_sq * s)

    return _make(value, (row,), backward)


def neg_log_entry(row: Node, col: int, floor: float) -> Node:
    """-log(max(row[0, col], floor)) as a 1x1 node; no gradient at or below the floor."""
    if row.value.shape[0] != 1 or not 0 <= col < row.value.shape[1]:
        raise ShapeError(f"neg_log_entry: column {col} outside a row of shape {row.value.shape}")
    floor = float(floor)
    entry = row.value[:, col:col + 1]
    above = entry > floor
    clamped = np.maximum(entry, floor)
    value = -_checked_log(clamped)

    def backward(g):
        buf = np.zeros_like(row.value)
        buf[:, col:col + 1] += (-g / clamped) * above
        row.accumulate(buf)

    return _make(value, (row,), backward)


def contrastive(anchor: Node, positive: Node, negatives, temperature: float) -> Node:
    """One direction of the queue-contrastive loss against constant negatives.

    -log(e^{a.p/t} / (e^{a.p/t} + sum_k e^{a.n_k/t})) for 1xD rows a (anchor)
    and p (positive) and the K rows n_k of `negatives` (KxD), which receive
    no gradient.
    """
    # D x K, a copy: a caller's later write into its negatives must not
    # change the gradient
    neg_t = as_matrix(np.asarray(negatives, dtype=np.float64).T.copy())
    d = anchor.value.shape[1]
    if anchor.value.shape != (1, d) or positive.value.shape != (1, d) or neg_t.shape[0] != d:
        raise ShapeError(f"contrastive shape mismatch: anchor {anchor.value.shape}, "
                         f"positive {positive.value.shape}, negatives {neg_t.T.shape}")
    if neg_t.size == 0:
        raise EmptyInputError("contrastive needs at least one negative")
    factor = 1.0 / temperature
    pos_t = np.ascontiguousarray(positive.value.T)  # D x 1
    pos = factor * (anchor.value @ pos_t)  # 1x1
    neg = factor * (anchor.value @ neg_t)  # 1xK
    e_pos = _checked_exp(pos)
    e_neg = _checked_exp(neg)
    denom = e_pos + np.array([[e_neg.sum()]])
    value = _checked_log(denom) + -pos

    def backward(g):
        g_denom = g / denom
        g_pos = factor * (-g + g_denom * e_pos)
        g_neg = factor * (g_denom * e_neg)
        # the chain's order when a prototype is the positive here and the
        # anchor of the opposite direction
        if positive.requires_grad:
            positive.accumulate((anchor.value.T @ g_pos).T)
        if anchor.requires_grad:
            anchor.accumulate(g_neg @ neg_t.T)
            anchor.accumulate(g_pos @ pos_t.T)

    return _make(value, (anchor, positive), backward)


# ---------------------------------------------------------------------------
# the chains the library's fused module ops replace


def gate_blend_chain(pooled: Node, regions: Node, w_gate: Node, b_gate: Node,
                     w_patch: Node, b_patch: Node, w_region: Node, b_region: Node) -> Node:
    stacked = concat_cols(pooled, regions)
    gate = sigmoid(linear(stacked, w_gate, b_gate))
    patch_stream = tanh(linear(pooled, w_patch, b_patch))
    region_stream = tanh(linear(regions, w_region, b_region))
    return lerp(gate, patch_stream, region_stream)


def gated_attention_chain(bag: Node, v: Node, u: Node, w: Node) -> Node:
    gated = mul(tanh(matmul(bag, v)), sigmoid(matmul(bag, u)))
    weights = softmax_cols(matmul(gated, w))  # M x 1
    return matmul(transpose(weights), bag)


def mean_logistic_chain(x: Node, weight: Node, bias: Node, prefix=None) -> Node:
    if prefix is None:
        pooled = mean_rows(x)
    else:
        row_sum, count = prefix
        stacked = concat_rows(constant(row_sum), x)
        pooled = divide(sum_cols(stacked), count + x.shape[0])
    return sigmoid(linear(pooled, weight, bias))


def neg_log_sum_chain(entries, floor: float) -> Node:
    total = None
    for row, col in entries:
        term = neg_log_entry(row, col, floor)
        total = term if total is None else add(total, term)
    return total


def normalized_col_sum_chain(a: Node) -> Node:
    return l2_normalize_row(sum_cols(a))


def mutual_contrastive_chain(a: Node, b: Node, negatives_a, negatives_b,
                             temperature: float) -> Node:
    return add(contrastive(a, b, negatives_b, temperature),
               contrastive(b, a, negatives_a, temperature))


def add_scaled_chain(a: Node, b: Node, factor: float) -> Node:
    return add(a, scale(b, factor))


# ---------------------------------------------------------------------------
# verification harness


def grad_check(f, params, h: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    `f` maps the given parameter nodes to a scalar (1x1) Node and must be a
    pure function of their values. Returns the maximum over all parameter
    coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < h <= 1e-3:
        raise DomainError(f"step size h={h} outside (0, 1e-3]")
    for p in params:
        p.zero_grad()
    out = f(params)
    if out.value.shape != (1, 1):
        raise ShapeError(f"grad_check target must be scalar, got {out.value.shape}")
    out.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.value)
        for p in params
    ]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f(params).value[0, 0]
            flat[i] = orig - h
            f_minus = f(params).value[0, 0]
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise DomainError(f"non-finite objective near coordinate {i}")
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = ga.ravel()[i]
            err = abs(a - numeric) / max(1.0, abs(a))
            worst = max(worst, err)
    return worst
