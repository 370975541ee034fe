"""Mutual contrastive learning across hierarchy levels.

Each patient's selected tokens at one level collapse into a unit-norm
prototype vector. One FIFO queue keeps the (patch, region) prototype pairs of
the most recent B-1 patients as detached negatives; the loss pulls the two
levels of the same patient together and pushes each against the other
level's queued prototypes of other patients. Both directions and their sum
are one graph node (`autodiff.mutual_contrastive`).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import mutual_contrastive, normalized_col_sum
from .errors import DegenerateInputError, ShapeError


def make_prototype(selected: ad.Node) -> ad.Node:
    """Sum the selected tokens over the token dimension and L2-normalize,
    differentiably through both; a zero-sum token set (no direction to
    normalize) raises."""
    return normalized_col_sum(selected)


class MemoryQueue:
    """FIFO buffer of detached entries with capacity B-1.

    Pushing beyond capacity evicts strictly oldest-first. The entries sit in
    one (capacity, *entry shape) array, oldest first, sized by the first push
    into an empty queue; every later entry must have that shape, and no
    gradient ever reaches queue contents. Nothing clears a queue: it persists
    across epochs, as MoCo's do (He et al., CVPR 2020).
    """

    def __init__(self, queue_length: int):
        if queue_length < 2:
            raise DegenerateInputError(
                f"queue length must be >= 2 (capacity B-1 >= 1), got {queue_length}"
            )
        self.capacity = queue_length - 1
        self._ids: list[str] = []
        self._vectors = np.empty((self.capacity, 0))

    def push(self, patient_id: str, vector: np.ndarray):
        """Store a copy of `vector` as the patient's newest entry."""
        n = len(self._ids)
        if n == 0:
            self._vectors = np.empty((self.capacity, *vector.shape))
        elif vector.shape != self._vectors.shape[1:]:
            raise ShapeError(f"entry of shape {vector.shape} pushed into a "
                             f"queue of shape {self._vectors.shape[1:]} entries")
        if n == self.capacity:
            self._vectors[:-1] = self._vectors[1:]
            del self._ids[0]
            n -= 1
        self._vectors[n] = vector
        self._ids.append(patient_id)

    def __len__(self):
        return len(self._ids)

    def entries(self) -> list[tuple[str, np.ndarray]]:
        """(patient id, copy of the entry) per queued patient, oldest first."""
        return [(pid, vector.copy()) for pid, vector in zip(self._ids, self._vectors)]

    def negatives_for(self, patient_id: str) -> np.ndarray:
        """The queued entries of all other patients, oldest first, as a copy:
        the loss keeps them, and a later push moves rows."""
        keep = [i for i, pid in enumerate(self._ids) if pid != patient_id]
        return self._vectors[keep]


def mutual_contrastive_loss(proto_patch: ad.Node, proto_region: ad.Node,
                            queue: MemoryQueue, patient_id: str,
                            temperature: float = 1.0) -> ad.Node | None:
    """Symmetric two-direction loss against the opposite level's prototypes,
    as one node.

    `queue` holds (2, d) pairs, patch then region. The patch anchor contrasts
    against the queued region prototypes and the region anchor against the
    queued patch prototypes, each direction
    -log( exp(a.p/t) / (exp(a.p/t) + sum_k exp(a.n_k/t)) ) with raw dot
    products of unit-norm prototypes, differentiable w.r.t. anchor and
    positive only. With no other patient queued (cold start) it is None.
    """
    negatives = queue.negatives_for(patient_id)
    if not len(negatives):
        return None
    return mutual_contrastive(proto_patch, proto_region, negatives[:, 0], negatives[:, 1],
                              temperature)
