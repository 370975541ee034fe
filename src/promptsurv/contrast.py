"""Mutual contrastive learning across hierarchy levels.

Each patient's selected tokens at one level collapse into a unit-norm
prototype vector. FIFO queues keep the most recent B-1 prototypes per level
as detached negatives; the loss pulls the two levels of the same patient
together and pushes against queued prototypes of other patients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import normalized_col_sum
from .errors import DegenerateInputError, ShapeError


@dataclass
class Prototype:
    """Unit-norm summary vector of one patient's selected tokens."""

    vector: np.ndarray  # length d
    patient_id: str


def make_prototype(selected: ad.Node, patient_id: str) -> tuple[ad.Node, Prototype]:
    """Graph node plus the detached queue entry for the same prototype.

    The node sums the selected tokens over the token dimension and
    L2-normalizes, differentiably through both; a zero-sum token set (no
    direction to normalize) raises.
    """
    node = normalized_col_sum(selected)
    return node, Prototype(vector=node.value[0].copy(), patient_id=patient_id)


class MemoryQueue:
    """FIFO buffer of detached prototypes with capacity B-1.

    Pushing beyond capacity evicts strictly oldest-first. The vectors sit in
    one (capacity x d) array, oldest first, sized by the first push into an
    empty queue; no gradient ever reaches queue contents. Nothing clears a
    queue: it persists across epochs, as MoCo's do (He et al., CVPR 2020).
    """

    def __init__(self, queue_length: int):
        if queue_length < 2:
            raise DegenerateInputError(
                f"queue length must be >= 2 (capacity B-1 >= 1), got {queue_length}"
            )
        self.capacity = queue_length - 1
        self._ids: list[str] = []
        self._vectors = np.empty((self.capacity, 0))

    def push(self, proto: Prototype):
        n = len(self._ids)
        if n == 0:
            self._vectors = np.empty((self.capacity, *proto.vector.shape))
        elif proto.vector.shape != self._vectors.shape[1:]:
            raise ShapeError(f"prototype of shape {proto.vector.shape} pushed into a "
                             f"queue of shape {self._vectors.shape[1:]} prototypes")
        if n == self.capacity:
            self._vectors[:-1] = self._vectors[1:]
            del self._ids[0]
            n -= 1
        self._vectors[n] = proto.vector
        self._ids.append(proto.patient_id)

    def __len__(self):
        return len(self._ids)

    def entries(self) -> list[Prototype]:
        return [Prototype(vector=vector.copy(), patient_id=pid)
                for pid, vector in zip(self._ids, self._vectors)]

    def negatives_for(self, patient_id: str) -> np.ndarray:
        """The queued vectors of all other patients, oldest first (K x d), as
        a copy: the loss keeps them, and a later push moves rows."""
        keep = [i for i, pid in enumerate(self._ids) if pid != patient_id]
        if not keep:
            return np.zeros((0, 0))
        return self._vectors[keep]


def mutual_contrastive_loss(proto_patch: ad.Node, proto_region: ad.Node,
             queue_patch: MemoryQueue, queue_region: MemoryQueue,
             patient_id: str, temperature: float = 1.0) -> ad.Node | None:
    """Symmetric two-direction loss against the opposite level's queue.

    Patch anchors contrast against queued region prototypes and vice versa,
    each direction -log( exp(a.p/t) / (exp(a.p/t) + sum_k exp(a.n_k/t)) ) with
    raw dot products of unit-norm prototypes, differentiable w.r.t. anchor and
    positive only. A direction whose queue holds no other patient is skipped;
    when both are (cold start) the result is None.
    """
    loss = None
    for anchor, positive, queue in ((proto_patch, proto_region, queue_region),
                                    (proto_region, proto_patch, queue_patch)):
        negatives = queue.negatives_for(patient_id)
        if negatives.size:
            part = ad.contrastive(anchor, positive, negatives, temperature)
            loss = part if loss is None else ad.add(loss, part)
    return loss
