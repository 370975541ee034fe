"""Minimal dense-matrix reverse-mode differentiation engine.

Values are 2-D float64 numpy arrays ("matrices"). `Node` wraps a matrix
together with a lazily allocated gradient buffer and references to the
producing operation, so a backward sweep over the dynamically built graph
accumulates gradients by the chain rule. The graph is rebuilt on every
forward pass; nothing is retained between training steps. An optimizer may
bind a parameter's value and gradient to views of its own flat buffers
(see `optim.AdamState`); accumulation writes into them in place.

All operations are deterministic: with identical inputs the forward values
and backward gradients are bit-identical across runs. A graph belongs to
one thread; wrapped matrices are treated as immutable and may be shared
read-only, so independent graphs can run in parallel threads.

Each fused operation replaces a chain of elementary ones; the model builds
one node per module:

- `gate_blend`: concat_cols, three `linear` (matmul, then add of the bias
  row), sigmoid, two tanh and lerp;
- `gated_attention`: three matmul, tanh, sigmoid, mul, softmax_cols and
  transpose;
- `mean_logistic`: mean_rows, `linear` and sigmoid; constant rows stacked
  above its input (concat_rows) come in as their row sum, since constant
  head rows are cached as their row sum, and with them the input may be
  absent; it adds rows in order, which mean_rows does too except on one
  column of 8 rows or more;
- `cumprod_complement`: one 1 - h and running product per column;
- `neg_log_sum`: one neg(log(clamp_min(entry))) per term, then add;
- `normalized_col_sum`: sum_cols, then division by the Euclidean norm;
- `mutual_contrastive`: two `contrastive` loss directions, each a
  two-product, exp, log-sum chain, then add;
- `add_scaled`: scale, then add.

Each performs the same floating-point operations, in the same order, as its
chain, in its value and in every gradient it accumulates, so the graph is
bit-identical to the chain's, with fewer nodes. A sum of two gradient terms
commutes, but where an input receives three or more, the fused op
accumulates them one at a time in the chain's order. A public operation
never calls another, so each call builds one node. The chains, and the
operations no library code calls (among them `add`, `scale` and the
one-direction `contrastive`), live with the tests as the reference the fused
operations are checked against (`tests/ad_chain.py`).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DomainError, EmptyInputError, ShapeError


def as_matrix(data) -> np.ndarray:
    """Coerce input to a 2-D, C-contiguous float64 array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {arr.ndim}")
    return arr


class Node:
    """One vertex of the computation graph.

    Holds a matrix value, a gradient buffer of the same shape (allocated on
    first accumulation, unless an optimizer bound one), and the backward
    closure of the op that produced it.
    Leaf nodes with requires_grad=True are trainable parameters.
    """

    __slots__ = ("value", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False, name: str = ""):
        self.value = as_matrix(value)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad = None

    def accumulate(self, g: np.ndarray):
        if self.grad is None:
            # the bits of zeros + g (a -0.0 becomes 0.0) in one allocation
            self.grad = np.add(g, 0.0, out=np.empty_like(self.value))
        else:
            self.grad += g

    def backward(self):
        """Reverse sweep from this node, seeding with ones.

        Visits every reachable node exactly once in reverse topological
        order; gradients accumulate into each node's buffer.
        """
        topo = _toposort(self)
        self.accumulate(np.ones_like(self.value))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad}{tag})"


def _toposort(root: Node):
    """Postorder over the parent DAG, each node once: a depth-first walk
    that enters a node's parents from the last to the first."""
    order, visited, stack = [], {root}, [(root, reversed(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent not in visited:
                visited.add(parent)
                stack.append((parent, reversed(parent._parents)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def constant(data) -> Node:
    """Leaf node that never receives gradients."""
    return Node(data, requires_grad=False)


def parameter(data, name: str = "") -> Node:
    """Trainable leaf node."""
    return Node(data, requires_grad=True, name=name)


def _make(value: np.ndarray, parents, backward) -> Node:
    # the backward is kept only when some input requires grad, so a one-input
    # op's backward needs no guard; multi-input ops skip their constant inputs
    out = Node(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementary operations


def gather_rows(a: Node, indices) -> Node:
    """Hard row selection; backward scatters gradients to the picked rows."""
    idx = _checked_indices("gather_rows", indices, a.value.shape[0])
    value = a.value[idx]

    def backward(g):
        buf = np.zeros_like(a.value)
        np.add.at(buf, idx, g)
        a.accumulate(buf)

    return _make(value, (a,), backward)


# ---------------------------------------------------------------------------
# fused operations


def gate_blend(pooled: Node, regions: Node, w_gate: Node, b_gate: Node,
               w_patch: Node, b_patch: Node, w_region: Node, b_region: Node) -> Node:
    """lerp(sigmoid(linear([pooled, regions], w_gate, b_gate)),
    tanh(linear(pooled, w_patch, b_patch)), tanh(linear(regions, w_region, b_region))),
    with [pooled, regions] the two inputs side by side."""
    pv, rv = pooled.value, regions.value
    if pv.shape[0] != rv.shape[0]:
        raise ShapeError(f"gate_blend row mismatch: {pv.shape} vs {rv.shape}")
    stacked = np.concatenate([pv, rv], axis=1)
    _require_linear(stacked, w_gate, b_gate)
    gate = _sigmoid(stacked @ w_gate.value + b_gate.value)
    _require_linear(pv, w_patch, b_patch)
    patch = np.tanh(pv @ w_patch.value + b_patch.value)
    _require_linear(rv, w_region, b_region)
    region = np.tanh(rv @ w_region.value + b_region.value)
    if gate.shape != patch.shape or gate.shape != region.shape:
        raise ShapeError(f"gate_blend stream shape mismatch: {gate.shape} vs {patch.shape} "
                         f"vs {region.shape}")
    rest = 1.0 - gate
    value = gate * patch + rest * region
    split = pv.shape[1]

    def backward(g):
        g_gate = g * patch - g * region
        g_gate = g_gate * gate * (1.0 - gate)
        g_patch = g * gate * (1.0 - patch * patch)
        g_region = g * rest * (1.0 - region * region)
        if pooled.requires_grad or regions.requires_grad:
            g_stacked = g_gate @ w_gate.value.T
        _linear_params_backward(stacked, w_gate, b_gate, g_gate)
        if pooled.requires_grad:
            pooled.accumulate(g_stacked[:, :split])
            pooled.accumulate(g_patch @ w_patch.value.T)
        _linear_params_backward(pv, w_patch, b_patch, g_patch)
        if regions.requires_grad:
            regions.accumulate(g_stacked[:, split:])
            regions.accumulate(g_region @ w_region.value.T)
        _linear_params_backward(rv, w_region, b_region, g_region)

    return _make(value, (pooled, regions, w_gate, b_gate, w_patch, b_patch,
                         w_region, b_region), backward)


def gated_attention(bag: Node, v: Node, u: Node, w: Node) -> Node:
    """Gated-attention pooling, weights^T @ bag with
    weights = softmax_cols((tanh(bag @ v) * sigmoid(bag @ u)) @ w): MxD -> 1xD."""
    b = bag.value
    _require_matmul(b, v.value)
    t = np.tanh(b @ v.value)
    _require_matmul(b, u.value)
    s = _sigmoid(b @ u.value)
    if t.shape != s.shape:
        raise ShapeError(f"gated_attention branch shape mismatch: {t.shape} vs {s.shape}")
    gated = t * s
    _require_matmul(gated, w.value)
    scores = gated @ w.value
    if scores.size == 0:
        raise EmptyInputError(f"gated_attention on an empty bag of shape {b.shape}")
    e = np.exp(scores - scores.max(axis=0, keepdims=True))
    weights = e / e.sum(axis=0, keepdims=True)
    weights_t = np.ascontiguousarray(weights.T)
    value = weights_t @ b

    def backward(g):
        # the chain's order: bag's three terms arrive from the pooling product,
        # then the tanh branch, then the sigmoid branch
        if bag.requires_grad:
            bag.accumulate(weights_t.T @ g)
        g_weights = (g @ b.T).T
        inner = (weights * g_weights).sum(axis=0, keepdims=True)
        g_scores = weights * (g_weights - inner)
        if w.requires_grad:
            w.accumulate(gated.T @ g_scores)
        g_gated = g_scores @ w.value.T
        g_t = g_gated * s * (1.0 - t * t)
        if bag.requires_grad:
            bag.accumulate(g_t @ v.value.T)
        if v.requires_grad:
            v.accumulate(b.T @ g_t)
        g_s = g_gated * t * s * (1.0 - s)
        if bag.requires_grad:
            bag.accumulate(g_s @ u.value.T)
        if u.requires_grad:
            u.accumulate(b.T @ g_s)

    return _make(value, (bag, v, u, w), backward)


def mean_logistic(x: Node | None, weight: Node, bias: Node, prefix=None) -> Node:
    """sigmoid(linear(column means of x, weight, bias)): MxD -> 1xT.

    The column sums add the rows in order (`_row_sum`). `prefix` is None, or
    (row_sum, count) for `count` constant rows stacked above x, given by
    their in-order 1xD row sum: the means are then over all count + M rows,
    bit for bit those of the whole stack, and only x receives a gradient.
    With a prefix, x may be None: the means are then the prefix's alone.
    """
    if x is None:
        if prefix is None:
            raise ShapeError("mean_logistic needs token rows, a prefix or both")
        rows, m, parents = np.empty((0, np.shape(prefix[0])[-1])), 0, (weight, bias)
    else:
        _require_nonempty("mean_logistic", x)
        rows, m, parents = x.value, x.value.shape[0], (x, weight, bias)
    if prefix is not None:
        row_sum, count = prefix
        if row_sum.shape != (1, rows.shape[1]):
            raise ShapeError(f"mean_logistic prefix row {row_sum.shape} for rows of "
                             f"shape {rows.shape}")
        rows, m = np.concatenate([row_sum, rows]), count + m
    pooled = _row_sum(rows) / m  # the column means
    _require_linear(pooled, weight, bias)
    value = _sigmoid(pooled @ weight.value + bias.value)

    def backward(g):
        g_logit = g * value * (1.0 - value)
        if x is not None and x.requires_grad:
            x.accumulate(np.broadcast_to((g_logit @ weight.value.T) / m, x.value.shape))
        _linear_params_backward(pooled, weight, bias, g_logit)

    return _make(value, parents, backward)


def cumprod_complement(h: Node) -> Node:
    """Running product along each row of (1 - h): out[:, t] = prod_{s<=t} (1 - h[:, s])."""
    _require_nonempty("cumprod_complement", h)
    rest = 1.0 - h.value
    value = np.multiply.accumulate(rest, axis=1)

    def backward(g):
        before = np.ones_like(value)  # each running product's predecessor
        before[:, 1:] = value[:, :-1]
        carried = g.copy()  # each running product's gradient, from the last back
        for t in range(g.shape[1] - 2, -1, -1):
            carried[:, t] += carried[:, t + 1] * rest[:, t + 1]
        h.accumulate(-(carried * before))

    return _make(value, (h,), backward)


def neg_log_sum(entries, floor: float) -> Node:
    """Sum over (row, col) pairs, in order, of -log(max(row[0, col], floor)) as
    a 1x1 node, each 1xT row a node; no gradient at or below the floor."""
    floor = float(floor)
    terms, value = [], None
    for row, col in entries:
        if row.value.shape[0] != 1 or not 0 <= col < row.value.shape[1]:
            raise ShapeError(f"neg_log_sum: column {col} outside a row of shape "
                             f"{row.value.shape}")
        entry = row.value[:, col:col + 1]
        clamped = np.maximum(entry, floor)
        term = -_checked_log(clamped)
        value = term if value is None else value + term
        terms.append((row, col, clamped, entry > floor))

    def backward(g):
        for row, col, clamped, above in terms:
            if row.requires_grad:
                buf = np.zeros_like(row.value)
                buf[:, col:col + 1] += (-g / clamped) * above
                row.accumulate(buf)

    return _make(value, tuple(row for row, _, _, _ in terms), backward)


def normalized_col_sum(a: Node) -> Node:
    """The column sums of a (a 1xD row) divided by their Euclidean norm; a zero
    sum has no direction."""
    _require_nonempty("normalized_col_sum", a)
    s = a.value.sum(axis=0, keepdims=True)
    sq_norm = np.array([[(s * s).sum()]])
    if sq_norm[0, 0] == 0.0:
        raise DegenerateInputError("cannot normalize a zero row")
    inv_norm = np.exp(-0.5 * np.log(sq_norm))  # 1x1: (sum of squares)^(-1/2)
    value = inv_norm @ s

    def backward(g):
        g_sq = ((-0.5 * ((g @ s.T) * inv_norm)) / sq_norm)[0, 0]
        # the chain's order: the direct term, then one term per factor of s * s
        a.accumulate(np.broadcast_to(inv_norm.T @ g + g_sq * s + g_sq * s, a.value.shape))

    return _make(value, (a,), backward)


def mutual_contrastive(a: Node, b: Node, negatives_a, negatives_b,
                       temperature: float) -> Node:
    """The queue-contrastive loss of 1xD rows a and b in both directions:
    anchor a, positive b, the rows n_k of `negatives_b`, plus the reverse
    against `negatives_a`; each is -log(e^{x.y/t} / (e^{x.y/t} + sum_k
    e^{x.n_k/t})). The negatives (KxD, a K per level) receive no gradient."""
    factor = 1.0 / temperature
    directions = []
    for anchor, positive, negatives in ((a, b, negatives_b), (b, a, negatives_a)):
        # D x K, a copy: a caller's later write into its negatives must not
        # change the gradient
        neg_t = as_matrix(np.asarray(negatives, dtype=np.float64).T.copy())
        d = anchor.value.shape[1]
        if anchor.value.shape != (1, d) or positive.value.shape != (1, d) or neg_t.shape[0] != d:
            raise ShapeError(f"contrastive shape mismatch: anchor {anchor.value.shape}, "
                             f"positive {positive.value.shape}, negatives {neg_t.T.shape}")
        if neg_t.size == 0:
            raise EmptyInputError("contrastive needs at least one negative")
        pos_t = np.ascontiguousarray(positive.value.T)  # D x 1
        pos = factor * (anchor.value @ pos_t)  # 1x1
        e_pos = _checked_exp(pos)
        e_neg = _checked_exp(factor * (anchor.value @ neg_t))  # 1xK
        denom = e_pos + np.array([[e_neg.sum()]])
        directions.append((anchor, positive, neg_t, pos_t, e_pos, e_neg, denom,
                           _checked_log(denom) + -pos))

    def backward(g):
        # the chain's order: direction by direction, the positive's term first
        for anchor, positive, neg_t, pos_t, e_pos, e_neg, denom, _ in directions:
            g_denom = g / denom
            g_pos = factor * (-g + g_denom * e_pos)
            g_neg = factor * (g_denom * e_neg)
            if positive.requires_grad:
                positive.accumulate((anchor.value.T @ g_pos).T)
            if anchor.requires_grad:
                anchor.accumulate(g_neg @ neg_t.T)
                anchor.accumulate(g_pos @ pos_t.T)

    # the sweep enters parents last to first, so (b, a) enters a's inputs
    # first, as it entered the second direction's (anchor b, positive a)
    return _make(directions[0][-1] + directions[1][-1], (b, a), backward)


def add_scaled(a: Node, b: Node, factor: float) -> Node:
    """a + factor * b."""
    _require_same_shape("add_scaled", a, b)
    factor = float(factor)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(factor * g)

    return _make(a.value + factor * b.value, (a, b), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The stable logistic: 1 / (1 + e) where x >= 0 and e / (1 + e) below,
    with e = exp(-|x|), which is exp(-x) on the first branch, exp(x) on the
    second, so neither overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """The rows of a matrix added in order, as a 1xD row. np.add.reduce adds
    rows in order, except a single column, which it adds pairwise; there the
    last running sum is copied out, so the row holds no M-row buffer."""
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0, keepdims=True)
    return np.add.accumulate(rows, axis=0)[-1:].copy()


def _linear_params_backward(x: np.ndarray, weight: Node, bias: Node, g: np.ndarray):
    """The weight and bias terms of the backward of x @ weight + bias."""
    if weight.requires_grad:
        weight.accumulate(x.T @ g)
    if bias.requires_grad:
        # a ones-row product, not g.sum(axis=0): the two round differently
        bias.accumulate(np.ones((1, x.shape[0])) @ g)


def _checked_indices(op: str, indices, rows: int) -> np.ndarray:
    """1-D row indices into a matrix of `rows` rows, as an intp array."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"{op} expects a 1-D index sequence")
    # one reduction over both bounds: a negative index views as a huge unsigned one
    if idx.size and idx.view(np.uintp).max() >= rows:
        raise ShapeError(f"{op} index out of range for {rows} rows")
    return idx


def _require_linear(x: np.ndarray, weight: Node, bias: Node):
    xs, ws, bs = x.shape, weight.value.shape, bias.value.shape
    if xs[1] != ws[0] or bs != (1, ws[1]):
        raise ShapeError(f"linear shape mismatch: {xs} @ {ws} + {bs}")


def _require_matmul(a: np.ndarray, b: np.ndarray):
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")


def _checked_exp(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        value = np.exp(x)
    if not np.isfinite(value).all():
        idx = np.argwhere(~np.isfinite(value))[0]
        raise DomainError(f"exp overflow at entry {tuple(int(i) for i in idx)}")
    return value


def _checked_log(x: np.ndarray) -> np.ndarray:
    if (x <= 0.0).any():
        idx = np.argwhere(x <= 0.0)[0]
        raise DomainError(f"log of non-positive entry at {tuple(int(i) for i in idx)}")
    return np.log(x)


def _require_same_shape(op: str, a: Node, b: Node):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op} shape mismatch: {a.value.shape} vs {b.value.shape}")


def _require_nonempty(op: str, a: Node):
    if a.value.size == 0:
        raise EmptyInputError(f"{op} on empty matrix of shape {a.value.shape}")
