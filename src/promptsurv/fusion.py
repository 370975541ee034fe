"""Cross-level propagation: pool selected patches into regions, then
recalibrate the region bag with a learned sigmoid gate over two
tanh-projected streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import linear
from .errors import DataValidationError


@dataclass
class GateParams:
    """Learnable maps of the gate: concat projection (2d -> d) and one
    d -> d projection per stream, each with a bias row."""

    w_gate: ad.Node   # 2d x d
    b_gate: ad.Node   # 1 x d
    w_patch: ad.Node  # d x d
    b_patch: ad.Node  # 1 x d
    w_region: ad.Node  # d x d
    b_region: ad.Node  # 1 x d


def pool_to_regions(selected_tokens: np.ndarray, selected_indices: np.ndarray,
                    parent_region: np.ndarray, n_regions: int) -> np.ndarray:
    """Sum selected patch tokens into their parent regions.

    Row j of the result is the sum of all selected tokens whose parent is
    region j; regions with no selected child stay zero.
    """
    parents = np.asarray(parent_region, dtype=np.int64)
    idx = np.asarray(selected_indices, dtype=np.int64)
    if idx.size and idx.max() >= parents.size:
        raise DataValidationError(
            f"selected index {int(idx.max())} outside parent map of size {parents.size}"
        )
    owners = parents[idx]
    if owners.size and owners.max() >= n_regions:
        raise DataValidationError(
            f"parent index {int(owners.max())} >= region count {n_regions}"
        )
    pooled = np.zeros((n_regions, selected_tokens.shape[1]))
    np.add.at(pooled, owners, selected_tokens)
    return pooled


def gate_fuse(pooled: ad.Node, region_bag: ad.Node, params: GateParams) -> ad.Node:
    """Recalibrate the region bag against the pooled patch evidence.

    G = sigmoid([pooled ; regions] @ w_gate + b_gate) gates a convex,
    elementwise combination of the two tanh-projected streams, so every
    output entry stays strictly inside (-1, 1).
    """
    stacked = ad.concat_cols(pooled, region_bag)
    gate = ad.sigmoid(linear(stacked, params.w_gate, params.b_gate))
    patch_stream = ad.tanh(linear(pooled, params.w_patch, params.b_patch))
    region_stream = ad.tanh(linear(region_bag, params.w_region, params.b_region))
    return ad.lerp(gate, patch_stream, region_stream)
