"""The autodiff engine plus six elementary ops that only the tests use.

`neg`, `exp`, `log`, `clamp_min`, `sum_all` and `sum_rows` build the
reference chains that the fused ops are checked against bit for bit, and
the scalar losses handed to `grad_check`. No library code calls them, so
they live here, unchanged. Test modules import this module as `ad` in place
of `promptsurv.autodiff`; every other name is the library's own.
"""

from __future__ import annotations

import numpy as np

from promptsurv.autodiff import *  # noqa: F401,F403
from promptsurv.autodiff import Node, _checked_exp, _checked_log, _make, _require_nonempty


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
