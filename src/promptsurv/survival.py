"""Discrete-time survival head and its losses.

The fused token set is mean-pooled, mapped linearly to one logit per time
bin, and squashed to per-bin hazards in (0, 1). The survival curve is the
running product of (1 - hazard); training minimizes the censoring-aware
negative log-likelihood plus a weighted contrastive term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

LOG_CLAMP = 1e-12


@dataclass
class LossConfig:
    """Weight of the contrastive term in the total loss."""

    lam: float = 0.01

    def __post_init__(self):
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")


@dataclass
class HeadParams:
    """Linear prediction layer: d -> T logits plus bias."""

    weight: ad.Node  # d x T
    bias: ad.Node    # 1 x T


def fuse(selected_patch: ad.Node, selected_region: ad.Node | None) -> ad.Node:
    """Stack the selected patch and region tokens into one token set."""
    if selected_region is None:
        return selected_patch
    return ad.concat_rows(selected_patch, selected_region)


def hazards(fused: ad.Node, head: HeadParams) -> ad.Node:
    """Per-bin hazard probabilities: sigmoid(linear(mean-pooled tokens))."""
    pooled = ad.mean_rows(fused)  # 1 x d
    return ad.sigmoid(ad.linear(pooled, head.weight, head.bias))


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
    nonnegative for all hazard values.
    """
    n_bins = h.shape[1]
    if not 1 <= time_bin <= n_bins:
        raise ConfigError(f"time_bin {time_bin} outside [1, {n_bins}]")
    if censor == 1:
        return ad.neg(_safe_log(_pick(s, time_bin - 1)))
    loss = ad.neg(_safe_log(_pick(h, time_bin - 1)))
    if time_bin > 1:
        loss = ad.add(loss, ad.neg(_safe_log(_pick(s, time_bin - 2))))
    return loss


def risk_score(s_values: np.ndarray) -> float:
    """Scalar risk: negative sum of the survival curve (higher = riskier)."""
    return float(-np.sum(s_values))


def total_loss(l_sur: ad.Node, l_con: ad.Node | None, cfg: LossConfig) -> ad.Node:
    """l_sur + lambda * l_con; the contrastive term drops out entirely at
    lambda = 0 or when absent."""
    if l_con is None or cfg.lam == 0.0:
        return l_sur
    return ad.add(l_sur, ad.scale(l_con, cfg.lam))


def _pick(row: ad.Node, col: int) -> ad.Node:
    """Extract one entry of a 1xT row as a 1x1 node."""
    return ad.gather_rows(ad.transpose(row), [col])


def _safe_log(x: ad.Node) -> ad.Node:
    return ad.log(ad.clamp_min(x, LOG_CLAMP))
