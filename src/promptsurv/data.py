"""Hierarchical token bags and prompt sets.

Cohorts come from one of two sources: precomputed embedding files described
by a manifest, or the synthetic generator, which plants a recoverable
survival signal so the whole pipeline can be exercised end to end at desk
scale.

File formats (all paths in a manifest are relative to the manifest). Every
number in a cohort file is 1 to 18 ASCII digits, with no sign, so it always
fits int64:
  - matrix file: one ASCII header line ``rows cols`` followed by exactly
    rows*cols little-endian IEEE-754 float64 values in row-major order
  - parent map: one region index per line (patch i's parent on line i);
    blanks around it and blank lines are allowed
  - manifest: JSON listing per-patient files plus one prompt file per level

A loaded cohort keeps its patch bags in their files. The load reads and
checks every file once, then keeps of each patch bag only its path, shape,
parent map and the file's (size, mtime) stamp; each read of the bag's tokens
reads the file again, with the same checks, and raises DataValidationError if
the stamp changed. Prompt sets and region bags, read at every step, stay in
memory.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataValidationError

PATCH = "patch"
REGION = "region"


@dataclass(eq=False, init=False)
class FeatureBag:
    """Per-patient matrix of visual tokens at one hierarchy level.

    A bag holds its tokens in memory, or, given `path`, `shape` and `stamp`
    in their place, only where they live: each read of `tokens` then reads
    the file again (see `read_checked`). `size` and `dim` never read it.
    Compares by identity, so a bag can key the caches built from it."""

    level: str
    tokens: np.ndarray                      # M x d
    parent_region: np.ndarray | None = None  # patch level only, length M

    def __init__(self, level: str, tokens=None, parent_region=None, *,
                 path=None, shape: tuple[int, int] | None = None,
                 stamp: tuple[int, int] | None = None):
        self.level = level
        self.path, self.stamp = path, stamp
        if tokens is not None:
            tokens = np.ascontiguousarray(tokens, dtype=np.float64)
            shape = tokens.shape
        self._tokens, self.shape = tokens, shape
        if len(shape) != 2 or 0 in shape:
            raise DataValidationError(
                f"{level} bag must be a nonempty matrix, got shape {shape}")
        self.parent_region = parent_region
        if parent_region is not None:
            self.parent_region = np.asarray(parent_region, dtype=np.int64)
            if self.parent_region.shape != (shape[0],):
                raise DataValidationError(
                    "parent map length "
                    f"{self.parent_region.shape} != token count {shape[0]}"
                )

    @property
    def tokens(self) -> np.ndarray:
        if self._tokens is not None:
            return self._tokens
        return read_checked(self.path, self.shape, self.stamp)

    @property
    def size(self) -> int:
        return self.shape[0]

    @property
    def dim(self) -> int:
        return self.shape[1]


@dataclass(eq=False)
class PromptSet:
    """Encoded language prompts for one hierarchy level; compares by
    identity, like FeatureBag."""

    level: str
    prompts: np.ndarray  # N x d

    def __post_init__(self):
        self.prompts = np.ascontiguousarray(self.prompts, dtype=np.float64)
        if self.prompts.ndim != 2 or self.prompts.size == 0:
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
        return read_settings(cls, path, "SynthSpec")


@dataclass
class SynthTruth:
    """Ground truth planted by the generator, for verification only."""

    risks: np.ndarray                 # (n,), higher = earlier event
    patch_signal: np.ndarray          # (n, M_P) bool mask of signal tokens
    region_signal: np.ndarray         # (n, M_R) bool mask of signal regions
    region_components: np.ndarray     # (n, M_R, d) additive region components
    event_times: np.ndarray           # (n,) uncensored event times


# ---------------------------------------------------------------------------
# typed JSON fields

# JSON values accepted for each field kind (a dataclass annotation string);
# an int may stand for a float. The first type of a kind parses its
# command-line flag.
JSON_TYPES = {
    "int": (int,), "float": (float, int), "str": (str,), "dict": (dict,),
    "list": (list,), "int | None": (int, type(None)), "str | None": (str, type(None)),
}


def field_kinds(cls) -> dict[str, str]:
    """Map each field of a dataclass to its kind, the annotation string."""
    return {f.name: f.type for f in fields(cls)}


def read_json(path, error):
    """Parse a JSON file; a file that is not UTF-8 JSON raises `error` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a syntax error or a non-UTF-8 byte
            raise error(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, obj, sort_keys: bool = False) -> Path:
    """Write `obj` as JSON indented by one space and ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")
    return path


def read_settings(cls, path, what: str):
    """Build the dataclass `cls` from a JSON settings file; an unknown field or
    a value of the wrong JSON type raises ConfigError."""
    return cls(**check_json_fields(read_json(path, ConfigError), field_kinds(cls),
                                   what, path, ConfigError))


def check_json_fields(raw, kinds: dict[str, str], what: str, where, error,
                      ignore_unknown: bool = False) -> dict:
    """Check a parsed JSON object key by key against `kinds`.

    Returns the known keys, with float fields converted to float. Raises
    `error`, naming `what` and `where`, when `raw` is not an object, holds a
    value of the wrong JSON type, or holds a key outside `kinds` (unless
    `ignore_unknown`). Missing keys are left to the caller.
    """
    if not isinstance(raw, dict):
        raise error(f"{what} in {where} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(kinds)
    if unknown and not ignore_unknown:
        raise error(f"unknown {what} fields in {where}: {sorted(unknown)}")
    checked = {}
    for name, value in raw.items():
        if name in unknown:
            continue
        kind = kinds[name]
        allowed = JSON_TYPES[kind]
        # bool is an int subclass in Python, and no kind takes it
        if not isinstance(value, allowed) or isinstance(value, bool):
            raise error(f"{what} field {name} in {where} must be {kind}, got {value!r}")
        try:
            checked[name] = float(value) if kind == "float" else value
        except OverflowError as exc:
            raise error(f"{what} field {name} in {where} is out of float range") from exc
    return checked


# ---------------------------------------------------------------------------
# matrix/parent-map file I/O


def write_matrix(path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise DataValidationError(f"matrix file needs a 2-D array, got ndim {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n".encode("ascii"))
        fh.write(arr.astype("<f8").tobytes(order="C"))


# a matrix header: two numbers of 1 to 18 ASCII digits between ASCII whitespace
_HEADER = re.compile(rb"\s*([0-9]{1,18})\s+([0-9]{1,18})\s*")
# bytes per read while looking for the end of a matrix header
_HEADER_CHUNK = 64


def _open(path, missing: str) -> tuple[int, int]:
    """Open a cohort file unbuffered; returns its descriptor and size.

    A missing file or a directory raises DataValidationError("<missing>: path")."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise DataValidationError(f"{missing}: {path}") from exc
    status = os.fstat(fd)
    if stat.S_ISDIR(status.st_mode):
        os.close(fd)
        raise DataValidationError(f"{missing}: {path}")
    return fd, status.st_size


def _read_into(fd: int, buf: np.ndarray) -> int:
    """Read into the contiguous array `buf` until it is full or the file ends;
    returns the bytes read. One read fills it unless the file shrank or the
    read stopped short (Linux reads at most 2 GiB at a time)."""
    got = n = os.readv(fd, [buf])
    while n and got < buf.nbytes:
        n = os.readv(fd, [memoryview(buf).cast("B")[got:]])
        got += n
    return got


def _read_header(fd: int) -> bytes:
    """Read a matrix header, through its newline or to the end of the file,
    and leave the file offset at the first byte after it."""
    head = b""
    while chunk := os.read(fd, _HEADER_CHUNK):
        head += chunk
        end = head.find(b"\n", len(head) - len(chunk))
        if end >= 0:
            os.lseek(fd, end + 1, os.SEEK_SET)
            return head[:end + 1]
    return head


def read_matrix(path) -> np.ndarray:
    """Read a matrix file straight into one preallocated float64 array.

    The file is opened once, unbuffered. The header holds two numbers of 1 to
    18 ASCII digits and may be of any length. The file size is checked
    against it before anything is allocated, so a header that lies about its
    dimensions sizes nothing; the payload is then read into the array."""
    fd, size = _open(path, "missing embedding file")
    try:
        header = _read_header(fd)
        dims = _HEADER.fullmatch(header)
        if dims is None:
            raise DataValidationError(f"bad header in {path}: {header!r}")
        rows, cols = int(dims[1]), int(dims[2])
        expected = rows * cols * 8
        got = size - len(header)
        if got == expected:
            mat = np.empty((rows, cols), dtype="<f8")
            got = _read_into(fd, mat)
    finally:
        os.close(fd)
    if got != expected:
        raise DataValidationError(
            f"{path}: expected {expected} payload bytes for {rows}x{cols}, got {got}"
        )
    return mat


def _file_stamp(path) -> tuple[int, int]:
    """The (size, mtime in ns) pair that tells a cohort file changed."""
    status = os.stat(path)
    return status.st_size, status.st_mtime_ns


def read_checked(path, shape: tuple[int, int] | None = None,
                 stamp: tuple[int, int] | None = None) -> np.ndarray:
    """Read a cohort matrix file with every check the load makes: the header
    and size checks of `read_matrix`, at least one row and one column, and
    finite entries. A re-read passes the `shape` and the (size, mtime) stamp
    the load recorded; the stamp is taken again after the read, so a file
    changed since the load, or during this read, raises DataValidationError."""
    mat = read_matrix(path)
    if stamp is not None and _file_stamp(path) != stamp:
        raise DataValidationError(f"{path} changed since the cohort was loaded")
    if mat.size == 0:
        raise DataValidationError(f"empty {mat.shape[0]}x{mat.shape[1]} matrix in {path}")
    if shape is not None and mat.shape != shape:
        raise DataValidationError(
            f"{path} is {mat.shape[0]}x{mat.shape[1]}, but was "
            f"{shape[0]}x{shape[1]} when the cohort was loaded")
    if not np.isfinite(mat).all():
        idx = np.argwhere(~np.isfinite(mat))[0]
        raise DataValidationError(
            f"non-finite entry at {tuple(int(i) for i in idx)} in {path}")
    return mat


def write_parent_map(path, parents: np.ndarray):
    with open(path, "w", encoding="ascii") as fh:
        for idx in parents:
            fh.write(f"{int(idx)}\n")


# The parent-map grammar: a line holds blanks and at most one number; \n and
# \r each end a line
_INVALID, _BLANK, _NEWLINE, _DIGIT = range(4)
_BYTE_CLASS = np.full(256, _INVALID, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\v\f")] = _BLANK
_BYTE_CLASS[list(b"\n\r")] = _NEWLINE
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_MAX_DIGITS = 18  # below 10**18, every index fits int64
_POW10 = np.int64(10) ** np.arange(_MAX_DIGITS, dtype=np.int64)


def read_parent_map(path) -> np.ndarray:
    """Parse a parent map with whole-array operations on its bytes.

    The file is opened once, unbuffered, and read into one byte array. Every
    line that is not blank must hold one unsigned decimal index of 1 to 18
    digits."""
    fd, size = _open(path, "missing parent map")
    try:
        # a newline on each side gives every number a non-digit neighbour
        buf = np.empty(size + 2, dtype=np.uint8)
        got = _read_into(fd, buf[1:-1])
    finally:
        os.close(fd)
    buf = buf[:got + 2]
    buf[0] = buf[-1] = ord("\n")
    cls = _BYTE_CLASS.take(buf)
    count = np.bincount(cls, minlength=4)
    # each number runs from the byte after `before` through `last`
    is_digit = cls == _DIGIT
    edges = np.flatnonzero(is_digit[:-1] != is_digit[1:])
    before, last = edges[0::2], edges[1::2]
    widest = (last - before).max(initial=0)  # digits in the longest number
    # only a blank can share a line with a number: without one, the bytes
    # between two numbers are newlines
    one_per_line = not count[_BLANK] or np.diff(np.cumsum(cls == _NEWLINE)[last]).all()
    if count[_INVALID] or widest > _MAX_DIGITS or not one_per_line:
        raise DataValidationError(
            f"bad parent map {path}: want one unsigned decimal index per line, "
            f"of 1 to {_MAX_DIGITS} digits")
    digit = buf - np.uint8(ord("0"))  # wraps outside a digit, where it is masked
    # one pass per decimal place, right to left; every number has a units
    # digit, and where a number is shorter, `at` falls left of it (below 0 at
    # most wraps) and the place is masked
    value = digit[last].astype(np.int64)
    for place in range(1, widest):
        at = last - place
        value += np.where(at > before, digit[at], 0) * _POW10[place]
    return value


# ---------------------------------------------------------------------------
# manifest load / write


# JSON kind of each manifest key the loader reads; other keys are ignored
_MANIFEST_KINDS = {"prompts": "dict", "patients": "list"}
_PROMPT_KINDS = {PATCH: "str | None", REGION: "str | None"}
_ENTRY_KINDS = {"id": "str", "censor": "int", "time": "float", "patch": "str",
                "region": "str", "parents": "str", "time_bin": "int | None"}
_ENTRY_REQUIRED = set(_ENTRY_KINDS) - {"time_bin"}


def _check_manifest(raw, kinds, what, where) -> dict:
    return check_json_fields(raw, kinds, what, where, DataValidationError,
                             ignore_unknown=True)


def load_cohort(manifest_path):
    """Load a cohort and its prompt sets from a manifest file.

    Returns (records, prompts) where prompts maps level name to PromptSet.
    Rejects a manifest, prompt table or patient entry whose keys hold the
    wrong JSON type (unknown keys are ignored), repeated patient ids, a
    matrix file with no rows or no columns, any dimension mismatch across the
    matrix files, out-of-range parent indices, and non-finite embedding
    entries.

    Every file is read and checked once here. The returned patch bags hold
    no tokens: each keeps its file's path, shape and stamp, and reads the
    file again, with the same checks, whenever its tokens are read. So the
    patch files must not change while the cohort is in use; a changed one
    raises DataValidationError naming it.
    """
    manifest_path = Path(manifest_path)
    try:
        raw = read_json(manifest_path, DataValidationError)
    except OSError as exc:
        raise DataValidationError(f"missing manifest: {manifest_path}") from exc
    manifest = _check_manifest(raw, _MANIFEST_KINDS, "manifest", manifest_path)
    prompt_files = _check_manifest(manifest.get("prompts", {}), _PROMPT_KINDS,
                                   "prompts", manifest_path)
    entries = []
    for i, raw in enumerate(manifest.get("patients", [])):
        entry = _check_manifest(raw, _ENTRY_KINDS, "patient",
                                f"entry {i} of {manifest_path}")
        missing = _ENTRY_REQUIRED - set(entry)
        if missing:
            raise DataValidationError(
                f"manifest entry {i} in {manifest_path} lacks fields {sorted(missing)}")
        entries.append(entry)
    require_unique_ids((entry["id"] for entry in entries), manifest_path)

    base = os.path.dirname(manifest_path)
    ref = None  # (d, path) of the first matrix read; every other must share d

    def read(rel) -> np.ndarray:
        nonlocal ref
        path = os.path.join(base, rel)
        mat = read_checked(path)
        if ref is None:
            ref = (mat.shape[1], path)
        elif mat.shape[1] != ref[0]:
            raise DataValidationError(
                f"dimension mismatch: {path} has d={mat.shape[1]} but "
                f"{ref[1]} has d={ref[0]}")
        return mat

    # prompt files are optional: the attention-only baseline never reads them
    prompts = {level: PromptSet(level, read(prompt_files[level]))
               for level in (PATCH, REGION) if prompt_files.get(level) is not None}
    records = []
    for entry in entries:
        patch_shape = read(entry["patch"]).shape
        patch_path = os.path.join(base, entry["patch"])
        # stamped after the read: every later read finds the file as
        # stamped, and checks it again
        stamp = _file_stamp(patch_path)
        region_mat = read(entry["region"])
        parent_path = os.path.join(base, entry["parents"])
        parents = read_parent_map(parent_path)
        if parents.size != patch_shape[0]:
            raise DataValidationError(
                f"{parent_path}: {parents.size} entries for {patch_shape[0]} patches"
            )
        if parents.size and parents.max() >= region_mat.shape[0]:
            raise DataValidationError(
                f"{parent_path}: parent index out of range [0, {region_mat.shape[0]})"
            )
        records.append(PatientRecord(
            patient_id=entry["id"],
            censor=entry["censor"],
            time=entry["time"],
            patch_bag=FeatureBag(PATCH, parent_region=parents, path=patch_path,
                                 shape=patch_shape, stamp=stamp),
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
    return write_json(out_dir / "manifest.json", manifest)


def require_unique_ids(ids, source):
    """Raise DataValidationError naming the first patient id seen twice.

    Ids name the rows of the artifacts, and the contrastive queue tells a
    patient's own past prototypes from its negatives by id."""
    seen = set()
    for pid in ids:
        if pid in seen:
            raise DataValidationError(f"duplicate patient id {pid!r} in {source}")
        seen.add(pid)


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
    labels in [1, T]; one search over all the times finds every label, and
    each is stored as a Python int. Mutates the records in place and returns
    the edges.
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
    times = np.array([r.time for r in records], dtype=np.float64)
    labels = (1 + np.searchsorted(edges, times, side="left")).tolist()
    for rec, label in zip(records, labels):
        rec.time_bin = label
    return edges
