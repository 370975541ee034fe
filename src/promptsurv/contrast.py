"""Mutual contrastive learning across hierarchy levels.

Each patient's selected tokens at one level collapse into a unit-norm
prototype vector. FIFO queues keep the most recent B-1 prototypes per level
as detached negatives; the loss pulls the two levels of the same patient
together and pushes against queued prototypes of other patients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DegenerateInputError


@dataclass
class Prototype:
    """Unit-norm summary vector of one patient's selected tokens."""

    vector: np.ndarray  # length d
    patient_id: str


def prototype_node(selected: ad.Node) -> ad.Node:
    """Sum the selected tokens over the token dimension and L2-normalize.

    Differentiable through both the sum and the normalization; raises on a
    zero-sum token set (no direction to normalize).
    """
    return ad.l2_normalize_row(ad.sum_cols(selected))


def make_prototype(selected: ad.Node, patient_id: str) -> tuple[ad.Node, Prototype]:
    """Graph node plus the detached queue entry for the same prototype."""
    node = prototype_node(selected)
    return node, Prototype(vector=node.value[0].copy(), patient_id=patient_id)


class MemoryQueue:
    """FIFO buffer of detached prototypes with capacity B-1.

    Pushing beyond capacity evicts strictly oldest-first. Stored vectors
    are plain arrays: no gradient ever reaches queue contents.
    """

    def __init__(self, queue_length: int):
        if queue_length < 2:
            raise DegenerateInputError(
                f"queue length must be >= 2 (capacity B-1 >= 1), got {queue_length}"
            )
        self.capacity = queue_length - 1
        self._entries: deque[Prototype] = deque()

    def push(self, proto: Prototype):
        self._entries.append(proto)
        if len(self._entries) > self.capacity:
            self._entries.popleft()

    def __len__(self):
        return len(self._entries)

    def entries(self) -> list[Prototype]:
        return list(self._entries)

    def negatives_for(self, patient_id: str) -> np.ndarray:
        """Stacked vectors of all queued prototypes from other patients (K x d)."""
        vecs = [p.vector for p in self._entries if p.patient_id != patient_id]
        if not vecs:
            return np.zeros((0, 0))
        return np.stack(vecs, axis=0)

    def clear(self):
        self._entries.clear()


def contrastive_loss(anchor: ad.Node, positive: ad.Node,
                     negatives: np.ndarray, temperature: float = 1.0):
    """One direction of the queue-contrastive loss.

    -log( exp(a.p) / (exp(a.p) + sum_k exp(a.n_k)) ) with raw dot products
    of unit-norm prototypes. Differentiable w.r.t. anchor and positive only;
    returns None when there are no negatives (contribution skipped).
    """
    if negatives.size == 0:
        return None
    pos = ad.matmul(anchor, ad.transpose(positive))  # 1x1
    neg_dots = ad.matmul(anchor, ad.constant(negatives.T))  # 1xK
    if temperature != 1.0:
        pos = ad.scale(pos, 1.0 / temperature)
        neg_dots = ad.scale(neg_dots, 1.0 / temperature)
    denom = ad.add(ad.exp(pos), ad.sum_all(ad.exp(neg_dots)))
    return ad.add(ad.log(denom), ad.neg(pos))


def mutual_contrastive_loss(proto_patch: ad.Node, proto_region: ad.Node,
             queue_patch: MemoryQueue, queue_region: MemoryQueue,
             patient_id: str, temperature: float = 1.0) -> ad.Node:
    """Symmetric two-direction loss against the opposite level's queue.

    Patch anchors contrast against queued region prototypes and vice versa;
    a direction with an empty queue is skipped, and the loss is exactly zero
    while both queues are empty (cold start).
    """
    parts = []
    fwd = contrastive_loss(proto_patch, proto_region,
                           queue_region.negatives_for(patient_id), temperature)
    if fwd is not None:
        parts.append(fwd)
    rev = contrastive_loss(proto_region, proto_patch,
                           queue_patch.negatives_for(patient_id), temperature)
    if rev is not None:
        parts.append(rev)
    if not parts:
        return ad.constant([[0.0]])
    if len(parts) == 1:
        return parts[0]
    return ad.add(parts[0], parts[1])
