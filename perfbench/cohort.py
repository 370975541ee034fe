"""The benchmark's own cohort generator and manifest writer.

Cohorts follow the planted construction that
``promptsurv.data.generate_synthetic`` documents, but are built here, with
this module's own random stream, and handed to the program only as files in
the documented manifest layout. A change to the program's generator
therefore never changes the benchmark's inputs, and the ground truth (the
planted patch and region masks) stays with the benchmark.

Run as a script it writes one workload's cohort and its truth file; the
benchmark does this in a child process, so the generator's memory never
counts towards the measured process's peak resident set:

    python3 perfbench/cohort.py --workload cv-desk --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROMPT_SEED = 20250707


@dataclass(frozen=True)
class CohortSpec:
    n_patients: int
    n_regions: int
    patches_per_region: int
    d: int = 32
    n_prompts: int = 8
    signal_fraction: float = 0.6
    noise_sigma: float = 0.5
    censor_rate: float = 0.3

    @property
    def m_patches(self) -> int:
        return self.n_regions * self.patches_per_region


@dataclass
class Cohort:
    prompts_patch: np.ndarray            # N x d
    prompts_region: np.ndarray           # N x d
    ids: list[str]
    censor: np.ndarray                   # (n,), 0 = event, 1 = censored
    time: np.ndarray                     # (n,)
    patch_tokens: list[np.ndarray]       # each M_P x d
    region_tokens: list[np.ndarray]      # each M_R x d
    parents: np.ndarray                  # (M_P,), shared by every patient
    patch_mask: np.ndarray               # (n, M_P) bool, planted signal tokens
    region_mask: np.ndarray              # (n, M_R) bool, planted signal regions


def keep_count(m: int, fraction: float) -> int:
    return max(1, math.ceil(m * fraction))


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _project_out(mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows of `mat` with the span of the orthonormal `basis` columns removed."""
    return mat - (mat @ basis) @ basis.T


def generate(spec: CohortSpec, seed: int) -> Cohort:
    """Planted cohort: prompt-aligned signal tokens among prompt-orthogonal
    background tokens, with a risk shift along an axis outside the prompt
    span and a per-patient nuisance on the background tokens.

    The prompt sets and risk axes come from a stream that `seed` does not
    touch: they stand for fixed encoders, and the transport work per solve
    depends on them far more than on the patients, so fixing them keeps the
    amount of work steady from seed to seed. The patients come from `seed`.
    """
    n, m_p, m_r, d = spec.n_patients, spec.m_patches, spec.n_regions, spec.d
    k_p = keep_count(m_p, spec.signal_fraction)
    k_r = keep_count(m_r, spec.signal_fraction)

    fixed = np.random.default_rng([PROMPT_SEED, spec.n_prompts, d])
    prompts_p = _unit_rows(fixed.standard_normal((spec.n_prompts, d)))
    prompts_r = _unit_rows(fixed.standard_normal((spec.n_prompts, d)))
    basis_p = np.linalg.qr(prompts_p.T)[0]
    basis_r = np.linalg.qr(prompts_r.T)[0]
    axis_p = _unit_rows(_project_out(fixed.standard_normal((1, d)), basis_p))[0]
    axis_r = _unit_rows(_project_out(fixed.standard_normal((1, d)), basis_r))[0]
    off_p = np.hstack([basis_p, axis_p[:, None]])
    off_r = np.hstack([basis_r, axis_r[:, None]])

    rng = np.random.default_rng([seed, 0x5EED])
    risks = rng.uniform(size=n)
    event_times = 1.0 + 119.0 * (1.0 - risks)
    parents = np.repeat(np.arange(m_r, dtype=np.int64), spec.patches_per_region)
    patch_mask = np.zeros((n, m_p), dtype=bool)
    region_mask = np.zeros((n, m_r), dtype=bool)
    censor = np.zeros(n, dtype=np.int64)
    time = np.zeros(n)
    patch_tokens, region_tokens = [], []
    noise_scale = spec.noise_sigma / math.sqrt(d)

    for i in range(n):
        rho = risks[i]
        sig = rng.choice(m_p, size=k_p, replace=False)
        tokens = _unit_rows(_project_out(rng.standard_normal((m_p, d)), off_p))
        tokens -= rng.uniform() * axis_p
        tokens[sig] = prompts_p[rng.integers(0, spec.n_prompts, size=k_p)] + rho * axis_p
        tokens += noise_scale * rng.standard_normal((m_p, d))
        patch_mask[i, sig] = True

        sig_r = rng.choice(m_r, size=k_r, replace=False)
        # every region prompt is used before any repeats, so at region scale
        # no prompt column splits its mass between two signal regions
        reps = math.ceil(k_r / spec.n_prompts)
        assign_r = np.concatenate([rng.permutation(spec.n_prompts)
                                   for _ in range(reps)])[:k_r]
        component = 2.0 * _unit_rows(_project_out(rng.standard_normal((m_r, d)), off_r))
        component[sig_r] = 2.0 * (prompts_r[assign_r] + rho * axis_r)
        component += noise_scale * rng.standard_normal((m_r, d))
        region_mask[i, sig_r] = True
        child_means = tokens.reshape(m_r, spec.patches_per_region, d).mean(axis=1)

        patch_tokens.append(tokens)
        region_tokens.append(child_means + component)
        if rng.uniform() < spec.censor_rate:
            censor[i] = 1
            time[i] = event_times[i] * (1.0 - rng.uniform())
        else:
            time[i] = event_times[i]

    return Cohort(
        prompts_patch=prompts_p, prompts_region=prompts_r,
        ids=[f"p{i:04d}" for i in range(n)], censor=censor, time=time,
        patch_tokens=patch_tokens, region_tokens=region_tokens, parents=parents,
        patch_mask=patch_mask, region_mask=region_mask,
    )


def _write_matrix(path: Path, arr: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def write(cohort: Cohort, out_dir: Path) -> Path:
    """Write the manifest layout plus `truth.npz`; returns the manifest path.

    The truth file sits next to the manifest but is not listed in it, so the
    program never reads it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_matrix(out_dir / "prompts_patch.mat", cohort.prompts_patch)
    _write_matrix(out_dir / "prompts_region.mat", cohort.prompts_region)
    parent_text = "".join(f"{int(p)}\n" for p in cohort.parents)
    patients = []
    for i, pid in enumerate(cohort.ids):
        entry = {"id": pid, "censor": int(cohort.censor[i]),
                 "time": float(cohort.time[i]), "patch": f"{pid}_patch.mat",
                 "region": f"{pid}_region.mat", "parents": f"{pid}_parents.txt"}
        _write_matrix(out_dir / entry["patch"], cohort.patch_tokens[i])
        _write_matrix(out_dir / entry["region"], cohort.region_tokens[i])
        (out_dir / entry["parents"]).write_text(parent_text, encoding="ascii")
        patients.append(entry)
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({
        "prompts": {"patch": "prompts_patch.mat", "region": "prompts_region.mat"},
        "patients": patients,
    }, indent=1) + "\n", encoding="utf-8")
    np.savez(out_dir / "truth.npz", ids=np.array(cohort.ids),
             patch_mask=cohort.patch_mask, region_mask=cohort.region_mask)
    return manifest


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]
    write(generate(work.cohort, work.cohort_seed(args.seed)), Path(args.out))


if __name__ == "__main__":
    main()
