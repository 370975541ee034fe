"""Cross-level propagation: pool selected patches into regions, then
recalibrate the region bag with a learned sigmoid gate over two
tanh-projected streams.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import _row_sum as row_sum, gate_blend  # row_sum: the head's in-order sum
from .errors import DataValidationError, ShapeError


def pool_to_regions(selected_tokens: np.ndarray, selected_indices: np.ndarray,
                    parent_region: np.ndarray, n_regions: int) -> np.ndarray:
    """Sum selected patch tokens into their parent regions.

    Row j of the result is the sum of all selected tokens whose parent is
    region j, added in selection order onto a zero row, as
    `np.add.at(zeros, owners, selected_tokens)` adds them; regions with no
    selected child stay zero.
    """
    parents = np.asarray(parent_region, dtype=np.int64)
    idx = np.asarray(selected_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= parents.size):
        raise DataValidationError(f"selected indices {int(idx.min())}..{int(idx.max())} "
                                  f"outside parent map of size {parents.size}")
    owners = parents[idx]
    if owners.size and (owners.min() < 0 or owners.max() >= n_regions):
        raise DataValidationError(f"parent indices {int(owners.min())}..{int(owners.max())} "
                                  f"outside the region range [0, {n_regions})")
    tokens = np.asarray(selected_tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] != idx.size:
        raise ShapeError(f"{idx.size} selected indices for selected tokens of shape "
                         f"{tokens.shape}")
    # one bin per (region, channel), filled in input order
    d = tokens.shape[1]
    bins = owners[:, None] * d + np.arange(d)
    return np.bincount(bins.ravel(), weights=tokens.ravel(),
                       minlength=n_regions * d).reshape(n_regions, d)


def gate_fuse(pooled: ad.Node, region_bag: ad.Node, gate: tuple) -> ad.Node:
    """Recalibrate the region bag against the pooled patch evidence.

    `gate` is (w_gate, b_gate, w_patch, b_patch, w_region, b_region) in
    `gate_blend`'s order: a 2d x d concat projection and one d x d projection
    per stream, each with a 1 x d bias row. G = sigmoid([pooled ; regions] @
    w_gate + b_gate) gates a convex, elementwise combination of the two
    tanh-projected streams, so every output entry stays strictly inside
    (-1, 1). One graph node.
    """
    return gate_blend(pooled, region_bag, *gate)
