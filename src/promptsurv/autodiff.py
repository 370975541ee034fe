"""Minimal dense-matrix reverse-mode differentiation engine.

Values are 2-D float64 numpy arrays ("matrices"). `Node` wraps a matrix
together with a lazily allocated gradient buffer and references to the
producing operation, so a backward sweep over the dynamically built graph
accumulates gradients by the chain rule. The graph is rebuilt on every
forward pass; nothing is retained between training steps.

All operations are deterministic: with identical inputs the forward values
and backward gradients are bit-identical across runs. A graph belongs to
one thread; wrapped matrices are treated as immutable and may be shared
read-only, so independent graphs can run in parallel threads.

The fused operations (`linear`, `lerp`, `cumprod_complement`,
`l2_normalize_row`) each replace a chain of elementary operations. Each
performs the same floating-point operations, in the same order, as that
chain, in its value and in every gradient it accumulates, so the graph is
bit-identical to the chain's, with fewer nodes.
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
    first accumulation), and the backward closure of the op that produced it.
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
            self.grad = np.zeros_like(self.value)
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
    """Iterative postorder over the parent DAG (each node once)."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def constant(data) -> Node:
    """Leaf node that never receives gradients."""
    return Node(data, requires_grad=False)


def parameter(data, name: str = "") -> Node:
    """Trainable leaf node."""
    return Node(data, requires_grad=True, name=name)


def _make(value: np.ndarray, parents, backward) -> Node:
    out = Node(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# core operations


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
        if a.requires_grad:
            a.accumulate(g.T)

    return _make(value, (a,), backward)


def add(a: Node, b: Node) -> Node:
    _require_same_shape("add", a, b)
    value = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _make(value, (a, b), backward)


def mul(a: Node, b: Node) -> Node:
    _require_same_shape("mul", a, b)
    value = a.value * b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.value)
        if b.requires_grad:
            b.accumulate(g * a.value)

    return _make(value, (a, b), backward)


def neg(a: Node) -> Node:
    def backward(g):
        if a.requires_grad:
            a.accumulate(-g)

    return _make(-a.value, (a,), backward)


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)

    def backward(g):
        if a.requires_grad:
            a.accumulate(factor * g)

    return _make(factor * a.value, (a,), backward)


def sigmoid(a: Node) -> Node:
    x = a.value
    value = np.empty_like(x)
    pos = x >= 0
    value[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    value[~pos] = ex / (1.0 + ex)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * value * (1.0 - value))

    return _make(value, (a,), backward)


def tanh(a: Node) -> Node:
    value = np.tanh(a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - value * value))

    return _make(value, (a,), backward)


def exp(a: Node) -> Node:
    with np.errstate(over="ignore"):
        value = np.exp(a.value)
    if not np.all(np.isfinite(value)):
        idx = np.argwhere(~np.isfinite(value))[0]
        raise DomainError(f"exp overflow at entry {tuple(int(i) for i in idx)}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * value)

    return _make(value, (a,), backward)


def log(a: Node) -> Node:
    if np.any(a.value <= 0.0):
        idx = np.argwhere(a.value <= 0.0)[0]
        raise DomainError(f"log of non-positive entry at {tuple(int(i) for i in idx)}")
    value = np.log(a.value)

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


# ---------------------------------------------------------------------------
# reductions


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


def sum_cols(a: Node) -> Node:
    """Per-column totals, summing over the row index: MxN -> 1xN row."""
    _require_nonempty("sum_cols", a)
    value = a.value.sum(axis=0, keepdims=True)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, a.value.shape).copy())

    return _make(value, (a,), backward)


def mean_rows(a: Node) -> Node:
    """Mean over the row index: MxN -> 1xN row (column means)."""
    _require_nonempty("mean_rows", a)
    m = a.value.shape[0]
    value = a.value.mean(axis=0, keepdims=True)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g / m, a.value.shape).copy())

    return _make(value, (a,), backward)


# ---------------------------------------------------------------------------
# structure


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


def gather_rows(a: Node, indices) -> Node:
    """Hard row selection; backward scatters gradients to the picked rows."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a 1-D index sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise ShapeError(
            f"gather_rows index out of range for {a.value.shape[0]} rows"
        )
    value = a.value[idx]

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.value)
            np.add.at(buf, idx, g)
            a.accumulate(buf)

    return _make(value, (a,), backward)


def softmax_cols(a: Node) -> Node:
    """Column-wise softmax, stabilized by per-column max subtraction."""
    _require_nonempty("softmax_cols", a)
    shifted = a.value - a.value.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=0, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (value * g).sum(axis=0, keepdims=True)
            a.accumulate(value * (g - inner))

    return _make(value, (a,), backward)


# ---------------------------------------------------------------------------
# fused operations


def linear(x: Node, weight: Node, bias: Node) -> Node:
    """x @ weight + bias, with the 1xD bias row repeated across the rows of x."""
    xs, ws, bs = x.value.shape, weight.value.shape, bias.value.shape
    if xs[1] != ws[0] or bs != (1, ws[1]):
        raise ShapeError(f"linear shape mismatch: {xs} @ {ws} + {bs}")
    value = x.value @ weight.value + bias.value

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ weight.value.T)
        if weight.requires_grad:
            weight.accumulate(x.value.T @ g)
        if bias.requires_grad:
            # a ones-row product, not g.sum(axis=0): the two round differently
            bias.accumulate(np.ones((1, xs[0])) @ g)

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


def cumprod_complement(h: Node) -> Node:
    """Running product along each row of (1 - h): out[:, t] = prod_{s<=t} (1 - h[:, s])."""
    _require_nonempty("cumprod_complement", h)
    rest = 1.0 - h.value
    value = np.cumprod(rest, axis=1)
    before = np.concatenate([np.ones((h.value.shape[0], 1)), value[:, :-1]], axis=1)

    def backward(g):
        if h.requires_grad:
            carried = g.copy()  # each running product's gradient, from the last back
            for t in range(g.shape[1] - 2, -1, -1):
                carried[:, t] += carried[:, t + 1] * rest[:, t + 1]
            h.accumulate(-(carried * before))

    return _make(value, (h,), backward)


def l2_normalize_row(row: Node) -> Node:
    """A 1xD row divided by its Euclidean norm; a zero row has no direction."""
    s = row.value
    sq_norm = np.array([[(s * s).sum()]])
    if sq_norm[0, 0] == 0.0:
        raise DegenerateInputError("cannot normalize a zero row")
    inv_norm = np.exp(-0.5 * np.log(sq_norm))  # 1x1: (sum of squares)^(-1/2)
    value = inv_norm @ s

    def backward(g):
        if row.requires_grad:
            g_sq = ((-0.5 * ((g @ s.T) * inv_norm)) / sq_norm)[0, 0]
            # the chain's order: the direct term, then one term per factor of s * s
            row.accumulate(inv_norm.T @ g + g_sq * s + g_sq * s)

    return _make(value, (row,), backward)


def _require_same_shape(op: str, a: Node, b: Node):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op} shape mismatch: {a.value.shape} vs {b.value.shape}")


def _require_nonempty(op: str, a: Node):
    if a.value.size == 0:
        raise EmptyInputError(f"{op} on empty matrix of shape {a.value.shape}")


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
