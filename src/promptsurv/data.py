"""Hierarchical token bags and prompt sets.

Cohorts come from one of two sources: precomputed embedding files described
by a manifest, or the synthetic generator, which plants a recoverable
survival signal so the whole pipeline can be exercised end to end at desk
scale.

File formats (all paths in a manifest are relative to the manifest):
  - matrix file: one ASCII header line ``rows cols`` followed by
    rows*cols little-endian IEEE-754 float64 values in row-major order
  - parent map: one region index per line (patch i's parent on line i)
  - manifest: JSON listing per-patient files plus one prompt file per level
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataValidationError

PATCH = "patch"
REGION = "region"


@dataclass
class FeatureBag:
    """Per-patient matrix of visual tokens at one hierarchy level."""

    level: str
    tokens: np.ndarray                      # M x d
    parent_region: np.ndarray | None = None  # patch level only, length M

    def __post_init__(self):
        self.tokens = np.ascontiguousarray(self.tokens, dtype=np.float64)
        if self.tokens.ndim != 2 or self.tokens.shape[0] < 1:
            raise DataValidationError(
                f"{self.level} bag must be a nonempty matrix, got shape {self.tokens.shape}"
            )
        if self.parent_region is not None:
            self.parent_region = np.asarray(self.parent_region, dtype=np.int64)
            if self.parent_region.shape != (self.tokens.shape[0],):
                raise DataValidationError(
                    "parent map length "
                    f"{self.parent_region.shape} != token count {self.tokens.shape[0]}"
                )

    @property
    def size(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


@dataclass
class PromptSet:
    """Encoded language prompts for one hierarchy level."""

    level: str
    prompts: np.ndarray  # N x d

    def __post_init__(self):
        self.prompts = np.ascontiguousarray(self.prompts, dtype=np.float64)
        if self.prompts.ndim != 2 or self.prompts.shape[0] < 1:
            raise DataValidationError(
                f"{self.level} prompt set must be a nonempty matrix, "
                f"got shape {self.prompts.shape}"
            )

    @property
    def size(self) -> int:
        return self.prompts.shape[0]

    @property
    def dim(self) -> int:
        return self.prompts.shape[1]


@dataclass
class PatientRecord:
    """Censor status, survival time, discretized label, and both token bags.

    censor follows the convention 0 = event observed, 1 = right-censored.
    time_bin stays None until the discretizer assigns it.
    """

    patient_id: str
    censor: int
    time: float
    patch_bag: FeatureBag
    region_bag: FeatureBag
    time_bin: int | None = None

    def __post_init__(self):
        if self.censor not in (0, 1):
            raise DataValidationError(
                f"patient {self.patient_id}: censor must be 0 or 1, got {self.censor}"
            )
        if not (self.time > 0.0 and math.isfinite(self.time)):
            raise DataValidationError(
                f"patient {self.patient_id}: time must be positive and finite, got {self.time}"
            )


@dataclass
class SynthSpec:
    """Parameters of the synthetic cohort generator.

    Defaults give the standard desk-scale cohort used throughout the test
    suite: 200 patients, 8 regions of 16 patches, 32 channels.
    """

    n_patients: int = 200
    n_regions: int = 8
    patches_per_region: int = 16
    d: int = 32
    n_prompts_patch: int = 8
    n_prompts_region: int = 8
    signal_fraction: float = 0.6
    noise_sigma: float = 0.5
    censor_rate: float = 0.3
    seed: int = 7

    def __post_init__(self):
        for name in ("n_patients", "n_regions", "patches_per_region", "d",
                     "n_prompts_patch", "n_prompts_region"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.signal_fraction <= 1.0:
            raise ConfigError(f"signal_fraction must be in (0,1], got {self.signal_fraction}")
        if self.noise_sigma < 0.0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.censor_rate < 1.0:
            raise ConfigError(f"censor_rate must be in [0,1), got {self.censor_rate}")
        # background tokens live orthogonal to the prompt span plus risk axis
        room = max(self.n_prompts_patch, self.n_prompts_region) + 2
        if self.d < room:
            raise ConfigError(
                f"d={self.d} too small: need d >= max(n_prompts)+2 = {room}"
            )

    @property
    def m_patches(self) -> int:
        return self.n_regions * self.patches_per_region

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = set(cls.__dataclass_fields__)
        bad = set(raw) - known
        if bad:
            raise ConfigError(f"unknown SynthSpec fields in {path}: {sorted(bad)}")
        return cls(**raw)


@dataclass
class SynthTruth:
    """Ground truth planted by the generator, for verification only."""

    risks: np.ndarray                 # (n,), higher = earlier event
    patch_signal: np.ndarray          # (n, M_P) bool mask of signal tokens
    region_signal: np.ndarray         # (n, M_R) bool mask of signal regions
    region_components: np.ndarray     # (n, M_R, d) additive region components
    event_times: np.ndarray           # (n,) uncensored event times


# ---------------------------------------------------------------------------
# matrix/parent-map file I/O


def write_matrix(path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise DataValidationError(f"matrix file needs a 2-D array, got ndim {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n".encode("ascii"))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"missing embedding file: {path}")
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            rows, cols = (int(tok) for tok in header.split())
        except ValueError as exc:
            raise DataValidationError(f"bad header in {path}: {header!r}") from exc
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise DataValidationError(
            f"{path}: expected {expected} payload bytes for {rows}x{cols}, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)


def write_parent_map(path, parents: np.ndarray):
    with open(path, "w", encoding="ascii") as fh:
        for idx in parents:
            fh.write(f"{int(idx)}\n")


def read_parent_map(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"missing parent map: {path}")
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        return np.array([int(ln) for ln in lines], dtype=np.int64)
    except ValueError as exc:
        raise DataValidationError(f"non-integer entry in parent map {path}") from exc


# ---------------------------------------------------------------------------
# manifest load / write


def load_cohort(manifest_path):
    """Load a cohort and its prompt sets from a manifest file.

    Returns (records, prompts) where prompts maps level name to PromptSet.
    Rejects repeated patient ids, any dimension mismatch across patients or
    against the prompt files, out-of-range parent indices, and non-finite
    embedding entries.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise DataValidationError(f"missing manifest: {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = manifest_path.parent

    # prompt files are optional: the attention-only baseline never reads them
    prompts: dict[str, PromptSet] = {}
    prompt_files: dict[str, Path] = {}
    for level in (PATCH, REGION):
        rel = manifest.get("prompts", {}).get(level)
        if rel is None:
            continue
        ppath = base / rel
        mat = read_matrix(ppath)
        _require_finite(mat, ppath)
        prompts[level] = PromptSet(level=level, prompts=mat)
        prompt_files[level] = ppath

    d = None
    ref_path = None
    for level, pset in prompts.items():
        if d is None:
            d, ref_path = pset.dim, prompt_files[level]
        elif pset.dim != d:
            raise DataValidationError(
                f"dimension mismatch: {ref_path} has d={d} but "
                f"{prompt_files[level]} has d={pset.dim}"
            )

    entries = manifest.get("patients", [])
    require_unique_ids((entry["id"] for entry in entries if "id" in entry), manifest_path)
    records = []
    for entry in entries:
        missing = {"id", "censor", "time", "patch", "region", "parents"} - set(entry)
        if missing:
            raise DataValidationError(
                f"manifest entry lacks fields {sorted(missing)}: {entry}"
            )
        pid = entry["id"]
        patch_path = base / entry["patch"]
        region_path = base / entry["region"]
        parent_path = base / entry["parents"]
        patch_mat = read_matrix(patch_path)
        region_mat = read_matrix(region_path)
        _require_finite(patch_mat, patch_path)
        _require_finite(region_mat, region_path)
        for mat, path in ((patch_mat, patch_path), (region_mat, region_path)):
            if d is None:
                d, ref_path = mat.shape[1], path
            elif mat.shape[1] != d:
                raise DataValidationError(
                    f"dimension mismatch: {path} has d={mat.shape[1]} but "
                    f"{ref_path} has d={d}"
                )
        parents = read_parent_map(parent_path)
        if parents.size != patch_mat.shape[0]:
            raise DataValidationError(
                f"{parent_path}: {parents.size} entries for {patch_mat.shape[0]} patches"
            )
        if parents.size and (parents.min() < 0 or parents.max() >= region_mat.shape[0]):
            raise DataValidationError(
                f"{parent_path}: parent index out of range [0, {region_mat.shape[0]})"
            )
        records.append(PatientRecord(
            patient_id=pid,
            censor=int(entry["censor"]),
            time=float(entry["time"]),
            patch_bag=FeatureBag(PATCH, patch_mat, parents),
            region_bag=FeatureBag(REGION, region_mat),
            time_bin=entry.get("time_bin"),
        ))
    return records, prompts


def write_cohort(records, prompts, out_dir) -> Path:
    """Write a cohort to `out_dir` in the manifest layout; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"prompts": {}, "patients": []}
    for level, pset in prompts.items():
        rel = f"prompts_{level}.mat"
        write_matrix(out_dir / rel, pset.prompts)
        manifest["prompts"][level] = rel
    for rec in records:
        stem = rec.patient_id
        entry = {
            "id": rec.patient_id,
            "censor": int(rec.censor),
            "time": float(rec.time),
            "patch": f"{stem}_patch.mat",
            "region": f"{stem}_region.mat",
            "parents": f"{stem}_parents.txt",
        }
        if rec.time_bin is not None:
            entry["time_bin"] = int(rec.time_bin)
        write_matrix(out_dir / entry["patch"], rec.patch_bag.tokens)
        write_matrix(out_dir / entry["region"], rec.region_bag.tokens)
        write_parent_map(out_dir / entry["parents"], rec.patch_bag.parent_region)
        manifest["patients"].append(entry)
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest_path


def require_unique_ids(ids, source):
    """Raise DataValidationError naming the first patient id seen twice.

    Per-patient caches are keyed by id, so a repeated id would hand one
    patient's selections to another."""
    seen = set()
    for pid in ids:
        if pid in seen:
            raise DataValidationError(f"duplicate patient id {pid!r} in {source}")
        seen.add(pid)


def _require_finite(mat: np.ndarray, path):
    if not np.all(np.isfinite(mat)):
        idx = np.argwhere(~np.isfinite(mat))[0]
        raise DataValidationError(
            f"non-finite entry at {tuple(int(i) for i in idx)} in {path}")


# ---------------------------------------------------------------------------
# synthetic cohort


def top_count(m: int, fraction: float) -> int:
    """Number of kept items when selecting the top `fraction` of m: max(1, ceil(m*fraction))."""
    return max(1, math.ceil(m * fraction))


def generate_synthetic(spec: SynthSpec):
    """Generate a cohort with a planted, recoverable survival signal.

    Construction, per patient with risk rho ~ U(0,1):
      - a top_count(M_P, signal_fraction) subset of patch tokens is planted
        on randomly assigned patch-prompt directions, shifted by
        rho * (patch risk axis), plus isotropic noise of scale noise_sigma;
      - the remaining background tokens are unit directions orthogonal to
        the prompt span (so their prompt alignment is exactly zero) minus a
        patient-specific nuisance along the risk axis: naive whole-bag
        pooling reads a corrupted risk while prompt-guided selection
        recovers the clean one;
      - region token j = mean of its child patch tokens + a region component
        (prompt-aligned and risk-shifted for signal regions, prompt-
        orthogonal otherwise), held in the returned ground truth;
      - event time decreases strictly in rho; an independent coin censors at
        censor_rate, drawing the censor time uniformly inside (0, event time].

    Returns (records, prompts, truth). Deterministic under spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    m_p, m_r, d = spec.m_patches, spec.n_regions, spec.d
    n_sig_p = top_count(m_p, spec.signal_fraction)
    n_sig_r = top_count(m_r, spec.signal_fraction)

    prompts_patch = _unit_rows(rng.standard_normal((spec.n_prompts_patch, d)))
    prompts_region = _unit_rows(rng.standard_normal((spec.n_prompts_region, d)))
    basis_patch = np.linalg.qr(prompts_patch.T)[0]     # d x N_P orthonormal
    basis_region = np.linalg.qr(prompts_region.T)[0]
    risk_axis_patch = _orthogonal_unit(rng.standard_normal(d), basis_patch)
    risk_axis_region = _orthogonal_unit(rng.standard_normal(d), basis_region)
    off_patch = np.hstack([basis_patch, risk_axis_patch[:, None]])
    off_region = np.hstack([basis_region, risk_axis_region[:, None]])

    risks = rng.uniform(size=spec.n_patients)
    event_times = 1.0 + 119.0 * (1.0 - risks)

    parents = np.repeat(np.arange(m_r, dtype=np.int64), spec.patches_per_region)
    records = []
    patch_signal = np.zeros((spec.n_patients, m_p), dtype=bool)
    region_signal = np.zeros((spec.n_patients, m_r), dtype=bool)
    region_components = np.zeros((spec.n_patients, m_r, d))

    for n in range(spec.n_patients):
        rho = risks[n]
        nuisance = rng.uniform()
        sig_idx = np.sort(rng.choice(m_p, size=n_sig_p, replace=False))
        assign = rng.integers(0, spec.n_prompts_patch, size=n_sig_p)
        noise = spec.noise_sigma * rng.standard_normal((m_p, d)) / math.sqrt(d)
        background = _orthogonal_unit_rows(rng.standard_normal((m_p, d)), off_patch)

        tokens = background - nuisance * risk_axis_patch
        tokens[sig_idx] = prompts_patch[assign] + rho * risk_axis_patch
        tokens += noise
        patch_signal[n, sig_idx] = True

        sig_reg = np.sort(rng.choice(m_r, size=n_sig_r, replace=False))
        # balanced assignment: at region scale (M ~ N) prompt collisions would
        # split a column's transport mass and blur the score ordering
        assign_r = _balanced_assignment(rng, n_sig_r, spec.n_prompts_region)
        noise_r = spec.noise_sigma * rng.standard_normal((m_r, d)) / math.sqrt(d)
        background_r = _orthogonal_unit_rows(rng.standard_normal((m_r, d)), off_region)

        # factor 2 keeps the component dominant over the child-mean leakage
        component = 2.0 * background_r + noise_r
        component[sig_reg] = 2.0 * (prompts_region[assign_r] + rho * risk_axis_region) \
            + noise_r[sig_reg]
        region_signal[n, sig_reg] = True
        region_components[n] = component

        child_means = tokens.reshape(m_r, spec.patches_per_region, d).mean(axis=1)
        region_tokens = child_means + component

        censored = rng.uniform() < spec.censor_rate
        if censored:
            time = event_times[n] * (1.0 - rng.uniform())
        else:
            time = event_times[n]
        records.append(PatientRecord(
            patient_id=f"p{n:04d}",
            censor=int(censored),
            time=float(time),
            patch_bag=FeatureBag(PATCH, tokens, parents.copy()),
            region_bag=FeatureBag(REGION, region_tokens),
        ))

    prompts = {
        PATCH: PromptSet(PATCH, prompts_patch),
        REGION: PromptSet(REGION, prompts_region),
    }
    truth = SynthTruth(
        risks=risks,
        patch_signal=patch_signal,
        region_signal=region_signal,
        region_components=region_components,
        event_times=event_times,
    )
    return records, prompts, truth


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / norms


def _orthogonal_unit(vec: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project out the span of the orthonormal basis columns, then normalize."""
    residual = vec - basis @ (basis.T @ vec)
    return residual / np.linalg.norm(residual)


def _orthogonal_unit_rows(mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    residual = mat - (mat @ basis) @ basis.T
    return _unit_rows(residual)


def _balanced_assignment(rng: np.random.Generator, count: int, n_prompts: int
                         ) -> np.ndarray:
    """`count` prompt indices with maximally even coverage of [0, n_prompts)."""
    reps = math.ceil(count / n_prompts)
    pool = np.concatenate([rng.permutation(n_prompts) for _ in range(reps)])
    return pool[:count]


# ---------------------------------------------------------------------------
# time discretization


def discretize_times(records, n_bins: int) -> np.ndarray:
    """Assign each patient's time_bin from quantile edges of uncensored times.

    Edges are the 1/T .. (T-1)/T quantiles of the uncensored times only;
    a time lands in bin 1 + (number of edges strictly below it), giving
    labels in [1, T]. Mutates the records in place and returns the edges.
    """
    if n_bins < 2:
        raise ConfigError(f"need at least 2 time bins, got {n_bins}")
    uncensored = np.array([r.time for r in records if r.censor == 0], dtype=np.float64)
    if uncensored.size < n_bins:
        raise ConfigError(
            f"need at least {n_bins} uncensored patients for {n_bins} bins, "
            f"got {uncensored.size}"
        )
    if np.all(uncensored == uncensored[0]):
        warnings.warn("all uncensored times are equal; every patient lands in bin 1")
    qs = np.arange(1, n_bins) / n_bins
    edges = np.quantile(uncensored, qs)
    for rec in records:
        rec.time_bin = int(1 + np.searchsorted(edges, rec.time, side="left"))
    return edges
