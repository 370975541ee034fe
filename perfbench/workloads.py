"""The benchmark's workloads: cohort make-up, schedule and correctness gates."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from cohort import CohortSpec

FOLDS = 5
# cv-largebag runs the same inputs for every --seed: its patients fail the
# planted-mask check on every run, so the failed share must not depend on the
# seed, and its C-index swings with the training seed (0.67-0.76 over four
# seeds), too far for a bound
LARGEBAG_SEED = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                    # "cv" or "ablate"
    cohort: CohortSpec
    epochs: int
    lr: float
    fixed_seed: int | None = None       # cohort and training ignore --seed
    min_c_index: float | None = None   # floor on the mean G C-index
    min_g_minus_a: float | None = None  # ablate: floor on G - A
    check_planted_mask: bool = False    # a held-out patient fails unless its
                                        # patch selection is the planted mask

    def train_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def cohort_seed(self, seed: int) -> int:
        return zlib.crc32(f"{self.name}:{self.train_seed(seed)}".encode("ascii"))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cv-desk", mode="cv",
        cohort=CohortSpec(n_patients=200, n_regions=8, patches_per_region=16,
                          noise_sigma=0.5),
        epochs=4, lr=2e-3, min_c_index=0.70,
    ),
    Workload(
        name="cv-largebag", mode="cv",
        cohort=CohortSpec(n_patients=60, n_regions=8, patches_per_region=256,
                          noise_sigma=0.0),
        epochs=4, lr=4e-3, fixed_seed=LARGEBAG_SEED,
        check_planted_mask=True,
    ),
    Workload(
        name="ablate-ladder", mode="ablate",
        cohort=CohortSpec(n_patients=150, n_regions=8, patches_per_region=16,
                          noise_sigma=1.0, signal_fraction=0.4),
        epochs=2, lr=4e-3, min_g_minus_a=0.03,
    ),
)}
