"""Discrete-time survival head and its losses.

The fused token set is mean-pooled, mapped linearly to one logit per time
bin, and squashed to per-bin hazards in (0, 1). The survival curve is the
running product of (1 - hazard); training minimizes the censoring-aware
negative log-likelihood plus a weighted contrastive term.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import _row_sum, add_scaled, mean_logistic, neg_log_sum
from .errors import ConfigError, ShapeError

LOG_CLAMP = 1e-12


def fuse(selected_patch: np.ndarray,
         selected_region: np.ndarray | None) -> tuple[np.ndarray, int]:
    """Stack the selected patch rows above the selected region rows (if any)
    and return the stack's in-order row sum (1xD) and row count: the prefix
    that `hazards` takes, or the numerator and denominator of a constant
    stack's mean."""
    stack = selected_patch
    if selected_region is not None:
        if selected_patch.shape[1] != selected_region.shape[1]:
            raise ShapeError(f"fuse column mismatch: {selected_patch.shape} vs "
                             f"{selected_region.shape}")
        stack = np.concatenate([selected_patch, selected_region])
    return _row_sum(stack), len(stack)


def hazards(tokens: ad.Node, head: tuple, prefix=None) -> ad.Node:
    """Per-bin hazard probabilities: sigmoid(linear(mean-pooled tokens)).
    `head` is (weight, bias), d x T and 1 x T, in `mean_logistic`'s order.
    `prefix` is None or (row sum, count) of constant rows stacked above the
    tokens (see `autodiff.mean_logistic`)."""
    return mean_logistic(tokens, *head, prefix)


def survival_curve(h: ad.Node) -> ad.Node:
    """S(t) = prod_{s<=t} (1 - h(s)) as a 1xT node (S(0) = 1 implicitly)."""
    return ad.cumprod_complement(h)


def survival_curve_values(h: np.ndarray) -> np.ndarray:
    """Value-level survival curve for evaluation paths."""
    return np.cumprod(1.0 - np.asarray(h, dtype=np.float64))


def nll_loss(h: ad.Node, s: ad.Node, censor: int, time_bin: int) -> ad.Node:
    """Censoring-aware negative log-likelihood for one patient.

    Censored (c=1): -log S(t). Event (c=0): -log S(t-1) - log h(t), with
    S(0) = 1. Log arguments are clamped at 1e-12, so the loss is finite and
    nonnegative for all hazard values. One graph node.
    """
    n_bins = h.shape[1]
    if not 1 <= time_bin <= n_bins:
        raise ConfigError(f"time_bin {time_bin} outside [1, {n_bins}]")
    if censor == 1:
        entries = [(s, time_bin - 1)]
    else:
        entries = [(h, time_bin - 1)] + ([(s, time_bin - 2)] if time_bin > 1 else [])
    return neg_log_sum(entries, LOG_CLAMP)


def risk_score(s_values: np.ndarray) -> float:
    """Scalar risk: negative sum of the survival curve (higher = riskier)."""
    return float(-np.sum(s_values))


def total_loss(l_sur: ad.Node, l_con: ad.Node | None, lam: float) -> ad.Node:
    """l_sur + lam * l_con as one node; the contrastive term drops out
    entirely at lam = 0 or when absent (None, as on a cold start)."""
    if l_con is None or lam == 0.0:
        return l_sur
    return add_scaled(l_sur, l_con, lam)
