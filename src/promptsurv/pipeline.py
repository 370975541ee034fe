"""Training loop, cross-validation, ablation ladder, and report emission.

The full pipeline per patient and step: patch-level prompt alignment and
selection, gated cross-level recalibration, region-level alignment on the
recalibrated bag, queue-contrastive consistency between the two levels'
prototypes, fusion of the selected tokens, and the discrete-time survival
loss. Reduced variants A-G switch these stages off from the top down.

Everything is driven by named RNG streams derived from (seed, fold, tag),
so runs with identical seed, config, and cohort are bit-identical. Folds
carry fully independent state (parameters, queue, streams) and could run
in parallel; within a fold, training is sequential because batch size is 1
and the queue state is order-dependent. `cross_validate` holds one fold at
a time: a fold's state is released before the next fold trains.

Whenever alignment reads a raw bag (every patch-level selection, and the
region level of variants without the gate), its selection depends on the
tokens, the prompts and the scoring settings only, never on a parameter.
Each fold caches, once per patient, the constant inputs no parameter
reaches, in one of two shapes; the head reads only the column means of its
token stack. A keeps the patch bag, for the attention pooling, read from
its file (see `data`) in each fold. B-G keep the patient's patch evidence:
the selected patch rows as a (row sum, count) prefix, alone in B-D and
stacked above E's raw-selected or F and G's gated region rows. F and G
also keep the gate's inputs and, while mutual contrastive learning (MCL)
runs, the patch prototype built from the row sum. MCL needs the gate, its
only trainable path. Selected indices stay only for the selection log. A
training step builds only the gated path and the head. The same rule
counts solver health: a raw-bag selection counts once per patient per
fold, a gated selection at every use.

The one thing folds may share is a read-mostly selection memo. Given one,
`cross_validate` builds each patient's patch evidence once and hands it to
every fold, and `run_ablation` hands one memo to every rung; a memo hit
reads no patch file. An entry is keyed by what it was made from: the bag
and prompt set objects and the scoring settings, and for the patch
evidence also the region bag, whose region count the pooled rows take. So
a cosine rung never reads a transport selection, and no patient reads
another's, whatever the ids. Entries are deterministic, so a memo hit
returns exactly what a fresh build would. The gated region selection reads
the gate's output and is solved on every step.
"""

from __future__ import annotations

import csv
import math
import warnings
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import gated_attention
from .alignment import (
    SINKHORN_EPSILON,
    SINKHORN_MAX_ITERS,
    SINKHORN_TOL,
    Selection,
    cosine_scores_multi,
    cosine_scores_single,
    match_bag,
    select_top,
)
from .contrast import MemoryQueue, make_prototype, mutual_contrastive_loss
from .data import (PATCH, REGION, FeatureBag, PatientRecord, PromptSet, read_settings,
                   require_unique_ids, write_json)
from .errors import ConfigError, DegenerateInputError, MetricError, TrainingError
from .fusion import gate_fuse, pool_to_regions
from .metrics import (
    KM_COLUMNS,
    KMCurve,
    RiskedPatient,
    concordance_index,
    km_rows,
    logrank_test,
    median_strata,
)
from .optim import AdamState
from .survival import (
    fuse,
    hazards,
    nll_loss,
    risk_score,
    survival_curve,
    survival_curve_values,
    total_loss,
)

RISK_CONVENTION = (
    "risk = -sum_t S(t): the negated sum of the discrete survival curve; "
    "higher values mean earlier predicted events"
)

VARIANTS = "ABCDEFG"

# (switch, the switch it needs, why), checked by VariantSwitches.validate
SWITCH_RULES = (
    ("use_contrast", "use_gate", "without the gate both prototypes are constants, "
     "so no parameter learns from the contrast"),
    ("use_gate", "use_regions", "the gate recalibrates the region bag"),
    ("use_regions", "use_selection", "the region tokens are a selection"),
    ("use_transport", "multi_prompt", "transport always aligns every prompt"),
    ("multi_prompt", "use_selection", "prompts only score a selection"),
)


@dataclass
class VariantSwitches:
    """Feature switches realizing the ablation ladder.

    A: attention pooling of the patch bag only (no prompts).
    B: + single-prompt cosine top-r selection.  C: + multiple prompts.
    D: + transport alignment.  E: + region-level tokens.
    F: + gated cross-level recalibration.  G: + mutual contrastive loss.

    Contrast needs the gate, which needs region tokens, which need
    selection; transport needs multiple prompts, which need selection. Each
    rule rejects combinations that train another's parameters, so the 13 of
    the 64 that pass are 13 different models.
    """

    use_selection: bool = True
    multi_prompt: bool = True
    use_transport: bool = True
    use_regions: bool = True
    use_gate: bool = True
    use_contrast: bool = True

    @classmethod
    def from_variant(cls, variant: str) -> "VariantSwitches":
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        rank = VARIANTS.index(variant)
        return cls(
            use_selection=rank >= 1,
            multi_prompt=rank >= 2,
            use_transport=rank >= 3,
            use_regions=rank >= 4,
            use_gate=rank >= 5,
            use_contrast=rank >= 6,
        )

    def validate(self):
        """Raise ConfigError naming the first of `SWITCH_RULES` broken."""
        for switch, needed, why in SWITCH_RULES:
            if getattr(self, switch) and not getattr(self, needed):
                raise ConfigError(f"{switch} needs {needed}: {why}")

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


@dataclass
class TrainConfig:
    """Run configuration; defaults are the cited training settings.

    Two cited settings are fixed rather than fields: the batch size is 1 (one
    patient per Adam step; `as_dict` records it), and MCL's queue persists
    across epochs.
    """

    epochs: int = 20
    lr: float = 2e-4
    r: float = 0.6
    queue_length: int = 20
    lam: float = 0.01
    n_bins: int = 4
    epsilon: float = SINKHORN_EPSILON
    sinkhorn_tol: float = SINKHORN_TOL
    sinkhorn_max_iters: int = SINKHORN_MAX_ITERS
    seed: int = 0
    variant: str = "G"
    attention_dim: int | None = None
    temperature: float = 1.0
    switch_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.r <= 1.0:
            raise ConfigError(f"r must be in (0,1], got {self.r}")
        if self.queue_length < 2:
            raise ConfigError(f"queue_length must be >= 2, got {self.queue_length}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        for name in ("lr", "temperature", "epsilon", "sinkhorn_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.sinkhorn_max_iters < 1:
            raise ConfigError(
                f"sinkhorn_max_iters must be >= 1, got {self.sinkhorn_max_iters}")
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.attention_dim is not None and self.attention_dim < 1:
            raise ConfigError(f"attention_dim must be None or >= 1, got {self.attention_dim}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        unknown = set(self.switch_overrides) - set(asdict(VariantSwitches()))
        if unknown:
            raise ConfigError(f"unknown switch overrides: {sorted(unknown)}")
        for key, value in self.switch_overrides.items():
            if not isinstance(value, bool):
                raise ConfigError(f"switch override {key} must be true or false, got {value!r}")

    def switches(self) -> VariantSwitches:
        sw = replace(VariantSwitches.from_variant(self.variant), **self.switch_overrides)
        sw.validate()
        return sw

    def as_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "lr": self.lr,
            "batch_size": 1,
            "r": self.r,
            "queue_length": self.queue_length,
            "lambda": self.lam,
            "n_bins": self.n_bins,
            "sinkhorn": {
                "epsilon": self.epsilon,
                "tol": self.sinkhorn_tol,
                "max_iters": self.sinkhorn_max_iters,
            },
            "seed": self.seed,
            "variant": self.variant,
            "attention_dim": self.attention_dim,
            "temperature": self.temperature,
            "switches": self.switches().as_dict(),
        }

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        return read_settings(cls, path, "config")


def _stream(seed: int, fold: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, fold, zlib.crc32(tag.encode("ascii"))])


def _uniform_init(rng: np.random.Generator, rows: int, cols: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


def build_parameters(d: int, cfg: TrainConfig, switches: VariantSwitches,
                     fold: int = 0):
    """Create the trainable nodes for the enabled modules.

    Each parameter draws from the stream named after it, so disabled modules
    consume no randomness and enabling one never shifts another's init.
    Returns (params by name, head, gate, attention): the head is (weight,
    bias), the gate a 6-tuple in `gate_blend`'s order or None, and the
    attention (v, u, w) or None, each in the order its op takes them.
    """
    params: dict[str, ad.Node] = {}

    def param(name: str, rows: int, cols: int, fan_in: int) -> ad.Node:
        init = _uniform_init(_stream(cfg.seed, fold, name), rows, cols, fan_in)
        params[name] = ad.parameter(init, name)
        return params[name]

    # the selection-free baseline's gated-attention pooling: (v, u, w) are
    # d x da (tanh branch), d x da (sigmoid branch) and da x 1 (scoring)
    attn = None
    if not switches.use_selection:
        da = cfg.attention_dim or d
        attn = (param("attn.v", d, da, d), param("attn.u", d, da, d),
                param("attn.w", da, 1, da))
    gate = None
    if switches.use_gate:
        gate = (param("gate.w_gate", 2 * d, d, 2 * d), param("gate.b_gate", 1, d, 2 * d),
                param("gate.w_patch", d, d, d), param("gate.b_patch", 1, d, d),
                param("gate.w_region", d, d, d), param("gate.b_region", 1, d, d))
    head = (param("head.weight", d, cfg.n_bins, d), param("head.bias", 1, cfg.n_bins, d))
    return params, head, gate, attn


class PatchEvidence(NamedTuple):
    """What one selection rule makes of a patient's patch bag: the
    selection, the kept rows' in-order row sum and count (the head's
    prefix), and those rows pooled into the patient's regions (the gate's
    patch input)."""

    selection: Selection
    prefix: tuple[np.ndarray, int]
    pooled: np.ndarray


# (patch bag, region bag, patch prompt set, Pipeline.scoring) -> PatchEvidence,
# and (region bag, region prompt set, Pipeline.scoring) -> the raw region
# Selection that E makes from them
SelectionMemo = dict[tuple, PatchEvidence | Selection]


@dataclass
class FoldReport:
    """Evaluation summary of one held-out fold."""

    fold: int
    ci: float | None
    loss_trace: list[float]
    risks: list[tuple[str, float, float, int, int]]  # id, risk, time, censor, bin
    km_low: KMCurve | None
    km_high: KMCurve | None
    logrank_chi2: float | None
    logrank_p: float | None
    selections: list[tuple[str, str, list[int]]]  # id, level, indices
    flags: list[str] = field(default_factory=list)


class Pipeline:
    """Holds one fold's parameters, contrastive queue, and per-patient
    constants.

    A patient's constants (see `_constants`) are built on first use in this
    fold, keyed by the patient's bags, in one of two shapes: A's patch bag,
    read in this fold, or B-G's prefix plus the gate's inputs, read from the
    patient's patch evidence. Selected indices are kept for the selection
    log. `memo` maps each patient's (patch bag, region bag, patch prompt set,
    scoring) to its `PatchEvidence` and E's (region bag, region prompt set,
    scoring) to its raw region selection. No parameter reaches those
    entries, so one memo may serve every fold, variant and cohort, and a hit
    reads no patch file. The memo's arrays are shared read-only; the nodes
    built on them stay in this fold's cache.
    """

    def __init__(self, prompts: dict[str, PromptSet], d: int, cfg: TrainConfig,
                 fold: int = 0, *, memo: SelectionMemo | None = None):
        self.cfg = cfg
        self.switches = cfg.switches()
        self.d = d
        self.fold = fold
        # the levels whose prompts a selection reads (regions imply selection)
        levels = [level for level, used in ((PATCH, self.switches.use_selection),
                                            (REGION, self.switches.use_regions)) if used]
        if any(level not in prompts for level in levels):
            raise ConfigError("selection variants need prompt sets for the enabled levels")
        for level in levels:
            if prompts[level].dim != d:
                raise ConfigError(f"{level} prompts are {prompts[level].dim} wide but the "
                                  f"bags are {d}")
        self.prompts = prompts
        # everything besides the bag and the prompts that a selection reads
        if self.switches.use_transport:
            self.scoring = ("transport", cfg.r, cfg.epsilon, cfg.sinkhorn_tol,
                            cfg.sinkhorn_max_iters)
        else:
            self.scoring = ("multi" if self.switches.multi_prompt else "single", cfg.r)
        self.params, self.head, self.gate, self.attn = build_parameters(
            d, cfg, self.switches, fold)
        self.adam = AdamState(self.params, lr=cfg.lr)
        # mutual contrastive learning runs on the gated path at lambda > 0
        self.mcl = self.switches.use_contrast and cfg.lam > 0.0
        # past patients' (patch, region) prototype pairs
        self.queue = MemoryQueue(cfg.queue_length)
        self.memo = {} if memo is None else memo
        self._cache: dict[tuple[FeatureBag, FeatureBag], tuple] = {}
        # level -> (selections used from non-converged solves, worst residual)
        self.unconverged: dict[str, tuple[int, float]] = {}

    # -- forward pieces ----------------------------------------------------

    def _choose(self, tokens: np.ndarray, level: str) -> Selection:
        """Score tokens against the level's prompts and keep the top r."""
        mode, r, *solver = self.scoring
        prompts = self.prompts[level].prompts
        if mode == "transport":
            chosen = match_bag(tokens, prompts, r, *solver)
        else:
            scores = (cosine_scores_multi if mode == "multi"
                      else cosine_scores_single)(tokens, prompts)
            chosen = Selection(select_top(scores, r))
        chosen.selected.setflags(write=False)
        return chosen

    def _use(self, chosen: Selection, level: str) -> np.ndarray:
        """Record the health of a selection this fold uses; returns its indices."""
        if not chosen.converged:
            count, worst = self.unconverged.get(level, (0, 0.0))
            self.unconverged[level] = (count + 1, max(worst, chosen.residual))
        return chosen.selected

    def _select(self, bag: FeatureBag) -> np.ndarray:
        """Selection on a patient's raw region bag, solved once per memo."""
        key = (bag, self.prompts[REGION], self.scoring)
        chosen = self.memo.get(key)
        if chosen is None:
            chosen = self.memo[key] = self._choose(bag.tokens, REGION)
        return self._use(chosen, REGION)

    def _evidence(self, rec: PatientRecord) -> PatchEvidence:
        """The patient's patch evidence, built once per memo from the one
        read of the patch bag a memo miss makes."""
        key = (rec.patch_bag, rec.region_bag, self.prompts[PATCH], self.scoring)
        evidence = self.memo.get(key)
        if evidence is None:
            tokens = rec.patch_bag.tokens
            chosen = self._choose(tokens, PATCH)
            rows = tokens[chosen.selected]
            row_sum, count = fuse(rows)
            pooled = pool_to_regions(rows, chosen.selected, rec.patch_bag.parent_region,
                                     rec.region_bag.size)
            row_sum.setflags(write=False)
            pooled.setflags(write=False)
            evidence = self.memo[key] = PatchEvidence(chosen, (row_sum, count), pooled)
        return evidence

    def _constants(self, rec: PatientRecord) -> tuple:
        """What the model reads that no parameter reaches, built once per
        pair of bags, in one of two shapes. A: the patch bag, for the
        attention pooling, the fold's one read of it. B-G: the head's prefix,
        the patch evidence's row sum and count of the selected patch rows,
        which B-D's head reads alone; under it E's raw-selected region rows;
        F and G's gate inputs, the evidence pooled into regions and the
        region bag, and, while MCL runs, the patch prototype, built from the
        same row sum. Last, (level, kept indices) per raw-bag selection, for
        the selection log."""
        key = (rec.patch_bag, rec.region_bag)
        cached = self._cache.get(key)
        if cached is None:
            sw = self.switches
            tokens = prefix = pooled = prototype = region = None
            chosen = ()
            if not sw.use_selection:
                tokens = ad.constant(rec.patch_bag.tokens)
            else:
                evidence = self._evidence(rec)
                prefix = evidence.prefix
                chosen = ((PATCH, self._use(evidence.selection, PATCH)),)
                if sw.use_gate:
                    if self.mcl:
                        prototype = make_prototype(ad.constant(prefix[0]))
                    pooled = ad.constant(evidence.pooled)
                    region = ad.constant(rec.region_bag.tokens)
                elif sw.use_regions:
                    region_idx = self._select(rec.region_bag)
                    chosen += ((REGION, region_idx),)
                    tokens = ad.constant(rec.region_bag.tokens[region_idx])
            cached = self._cache[key] = (tokens, prefix, pooled, prototype, region, chosen)
        return cached

    def nonconvergence_flag(self) -> str | None:
        """One line naming, per level, how many selections this fold used
        from non-converged Sinkhorn solves and their worst residual."""
        if not self.unconverged:
            return None
        parts = [f"{level} {count} (worst residual {worst:.3g})"
                 for level, (count, worst) in sorted(self.unconverged.items())]
        return "selections from non-converged Sinkhorn solves: " + "; ".join(parts)

    def forward(self, rec: PatientRecord):
        """Build the hazard graph for one patient.

        Returns (hazard node, patch prototype node or None, selected region
        node or None, (level, kept indices) per selection).
        """
        tokens, prefix, pooled, patch_proto, region_node, chosen = self._constants(rec)
        if self.switches.use_gate:
            region_input = gate_fuse(pooled, region_node, self.gate)
            region_idx = self._use(self._choose(region_input.value, REGION), REGION)
            chosen += ((REGION, region_idx),)
            tokens = region_node = ad.gather_rows(region_input, region_idx)
        if self.attn is not None:
            # ABMIL-style gated attention: softmax-weighted token mean (1 x d)
            tokens = gated_attention(tokens, *self.attn)
        return hazards(tokens, self.head, prefix), patch_proto, region_node, chosen

    def patient_loss(self, rec: PatientRecord) -> tuple[ad.Node, np.ndarray | None]:
        """Total training loss node for one patient, and, while MCL runs, the
        patient's detached (patch, region) prototype pair for the queue (else
        None). The queue is read, never changed."""
        if rec.time_bin is None:
            raise ConfigError(f"patient {rec.patient_id} has no time_bin; "
                              "run the discretizer before training")
        h, patch_proto, region_node, _ = self.forward(rec)
        s = survival_curve(h)
        l_sur = nll_loss(h, s, rec.censor, rec.time_bin)
        l_con = queued = None
        if patch_proto is not None:
            region_proto = make_prototype(region_node)
            l_con = mutual_contrastive_loss(patch_proto, region_proto, self.queue,
                                            rec.patient_id, self.cfg.temperature)
            queued = np.concatenate([patch_proto.value, region_proto.value])
        return total_loss(l_sur, l_con, self.cfg.lam), queued

    def predict(self, rec: PatientRecord) -> tuple[float, list]:
        """Scalar risk for one patient and its selection log entries
        (id, level, kept indices)."""
        h, _, _, chosen = self.forward(rec)
        risk = risk_score(survival_curve_values(h.value[0]))
        return risk, [(rec.patient_id, level, [int(i) for i in idx]) for level, idx in chosen]

    # -- training ----------------------------------------------------------

    def train(self, records: list[PatientRecord]) -> list[float]:
        """Run the configured number of epochs; returns per-epoch mean loss."""
        shuffle_rng = _stream(self.cfg.seed, self.fold, "shuffle")
        trace = []
        for epoch in range(self.cfg.epochs):
            order = shuffle_rng.permutation(len(records))
            epoch_loss = 0.0
            for pos in order:
                rec = records[pos]
                loss, queued = self.patient_loss(rec)
                value = float(loss.value[0, 0])
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss {value} at epoch {epoch} "
                        f"patient {rec.patient_id} (fold {self.fold})"
                    )
                self.adam.zero_grad()
                loss.backward()
                self.adam.step()
                if queued is not None:
                    self.queue.push(rec.patient_id, queued)
                epoch_loss += value
            trace.append(epoch_loss / len(records))
        return trace


def train_fold(records: list[PatientRecord], prompts: dict[str, PromptSet],
               cfg: TrainConfig, fold: int = 0, *,
               memo: SelectionMemo | None = None) -> tuple[Pipeline, list[float]]:
    """Train one pipeline on the given records; returns (model, loss trace).

    `memo` is the selection memo shared with other folds (see Pipeline)."""
    if not records:
        raise ConfigError("cannot train on an empty cohort")
    d = records[0].patch_bag.dim
    _check_dims(records, d)
    model = Pipeline(prompts, d, cfg, fold, memo=memo)
    trace = model.train(records)
    return model, trace


def _check_dims(records: list[PatientRecord], d: int):
    for rec in records:
        if rec.patch_bag.dim != d or rec.region_bag.dim != d:
            raise ConfigError(
                f"patient {rec.patient_id} has channel dim "
                f"({rec.patch_bag.dim}, {rec.region_bag.dim}), expected {d}"
            )


def evaluate_fold(model: Pipeline, records: list[PatientRecord],
                  trace: list[float], fold: int) -> FoldReport:
    """Score held-out records and assemble the fold report."""
    _check_dims(records, model.d)
    risks = []
    riskeds = []
    selections = []
    flags = []
    for rec in records:
        risk, sels = model.predict(rec)
        risks.append((rec.patient_id, risk, rec.time, rec.censor,
                      rec.time_bin if rec.time_bin is not None else -1))
        riskeds.append(RiskedPatient(risk=risk, time=rec.time, censor=rec.censor))
        selections.extend(sels)
    unconverged = model.nonconvergence_flag()
    if unconverged:
        flags.append(unconverged)

    ci = None
    try:
        ci = concordance_index(riskeds)
    except MetricError as exc:
        flags.append(f"concordance undefined: {exc}")

    km_low = km_high = chi2 = p_value = None
    try:
        low, high, km_low, km_high = median_strata(riskeds)
        chi2, p_value = logrank_test(low, high)
    except (MetricError, DegenerateInputError) as exc:
        flags.append(f"stratified analysis unavailable: {exc}")

    return FoldReport(
        fold=fold,
        ci=ci,
        loss_trace=trace,
        risks=risks,
        km_low=km_low,
        km_high=km_high,
        logrank_chi2=chi2,
        logrank_p=p_value,
        selections=selections,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# cross-validation and ablation


def split_folds(records: list[PatientRecord], k: int, seed: int) -> list[list[int]]:
    """Seeded patient-level split into k folds, stratified by censor status."""
    if k < 2:
        raise ConfigError(f"need k >= 2 folds, got {k}")
    if len(records) < k:
        raise ConfigError(f"cannot split {len(records)} patients into {k} folds")
    require_unique_ids((r.patient_id for r in records), "the cohort")
    if len(records) < 5 * k:
        warnings.warn(f"only {len(records)} patients for {k} folds; "
                      "fold metrics will be unstable")
    # dealt round-robin, so each fold gets its share of both strata
    order = [idx for members in _censor_strata(records, seed, "split") for idx in members]
    return [sorted(order[fold::k]) for fold in range(k)]


def _censor_strata(records: list[PatientRecord], seed: int, tag: str) -> list[list[int]]:
    """Indices of the uncensored and then the censored patients, each stratum
    shuffled by the stream named `tag`."""
    rng = _stream(seed, 0, tag)
    strata = []
    for status in (0, 1):
        members = [i for i, r in enumerate(records) if r.censor == status]
        strata.append([members[i] for i in rng.permutation(len(members))])
    return strata


def cross_validate(records: list[PatientRecord], prompts: dict[str, PromptSet],
                   cfg: TrainConfig, k: int = 5, *,
                   memo: SelectionMemo | None = None) -> tuple[list[FoldReport], dict]:
    """k-fold cross-validation; returns per-fold reports and the summary.

    Given a `memo` (an empty dict will do), all folds share it, so each
    patient's patch evidence and raw region selection are built once, not
    once per fold; the CLI and `run_ablation` pass one. Without it each
    fold builds its own, as a standalone `train_fold` does. Either way the
    results are identical. A memo holds every bag object it was filled
    from, and serves only those bags, so give each cohort a fresh one. A
    loaded cohort's patch file is read once per memo miss, so once per run
    with a memo and once per fold without (and by A in every fold); the
    files must not change during the run (see `data.load_cohort`).
    """
    folds = split_folds(records, k, cfg.seed)
    reports = []
    for fold_idx, heldout in enumerate(folds):
        heldout_set = set(heldout)
        train_records = [r for i, r in enumerate(records) if i not in heldout_set]
        eval_records = [records[i] for i in heldout]
        model, trace = train_fold(train_records, prompts, cfg, fold=fold_idx,
                                  memo=memo)
        reports.append(evaluate_fold(model, eval_records, trace, fold_idx))
        del model  # the next fold trains without this one's state
    return reports, summarize(reports)


def summarize(reports: list[FoldReport]) -> dict:
    """Mean/std of the fold C-indexes, excluding undefined folds with a warning."""
    usable = [r.ci for r in reports if r.ci is not None]
    skipped = [r.fold for r in reports if r.ci is None]
    if skipped:
        warnings.warn(f"folds {skipped} had no comparable pairs; "
                      "excluded from the summary")
    if not usable:
        return {"mean_ci": None, "std_ci": None, "formatted": "n/a",
                "folds_used": 0, "folds_skipped": skipped}
    mean = float(np.mean(usable))
    std = float(np.std(usable))
    return {
        "mean_ci": mean,
        "std_ci": std,
        "formatted": f"{mean:.3f} ± {std:.3f}",
        "folds_used": len(usable),
        "folds_skipped": skipped,
    }


def run_ablation(records: list[PatientRecord], prompts: dict[str, PromptSet],
                 cfg: TrainConfig, k: int = 5,
                 variants: str = VARIANTS) -> list[dict]:
    """Cross-validate every requested variant; returns one row per variant.

    The rungs share one selection memo: D-G read the same patch evidence,
    and B and C each keep their own cosine entries under their scoring key,
    so each patch file is read once per selection rule, and by A in each
    fold.
    Every rung's config is checked before the first rung runs; switch
    overrides are rejected, since each rung sets its own switches, and so is
    a repeated variant, which would train its rung twice and write its row
    twice.
    """
    if not variants:
        raise ConfigError("no variants to run")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        raise ConfigError(f"variants {repeated} repeated in {variants!r}")
    if cfg.switch_overrides:
        raise ConfigError(f"the ablation sets each rung's switches; got switch "
                          f"overrides {sorted(cfg.switch_overrides)}")
    rungs = [replace(cfg, variant=variant) for variant in variants]
    rows = []
    memo: SelectionMemo = {}
    for rung in rungs:
        _, summary = cross_validate(records, prompts, rung, k, memo=memo)
        rows.append({"variant": rung.variant, **summary})
    return rows


def holdout_split(records: list[PatientRecord], fraction: float,
                  seed: int) -> tuple[list[PatientRecord], list[PatientRecord]]:
    """Single stratified train/eval split with `fraction` held out."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout fraction must be in (0,1), got {fraction}")
    eval_idx: set[int] = set()
    for members in _censor_strata(records, seed, "holdout"):
        n_hold = max(1, round(fraction * len(members))) if members else 0
        eval_idx.update(members[:n_hold])
    train = [r for i, r in enumerate(records) if i not in eval_idx]
    heldout = [r for i, r in enumerate(records) if i in eval_idx]
    return train, heldout


# ---------------------------------------------------------------------------
# report emission


def emit_reports(reports: list[FoldReport], summary: dict, cfg: TrainConfig,
                 out_dir, extra: dict | None = None) -> list[Path]:
    """Write summary, risks, KM curves, loss traces, selections, and metadata.

    All numbers are written with repr-level precision, so re-parsing the
    CSVs reproduces the values bit for bit; the metadata is timestamp-free,
    which keeps identical runs byte-identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [
        write_csv(out_dir / "summary.csv",
                  ["fold", "n_eval", "ci", "logrank_chi2", "logrank_p"],
                  [[rep.fold, len(rep.risks), _fmt(rep.ci), _fmt(rep.logrank_chi2),
                    _fmt(rep.logrank_p)] for rep in reports]
                  + [["mean", "", _fmt(summary["mean_ci"]), "", ""],
                     ["std", "", _fmt(summary["std_ci"]), "", ""]]),
        write_csv(out_dir / "risks.csv",
                  ["fold", "patient_id", "risk", "time", "censor", "time_bin"],
                  ([rep.fold, pid, _fmt(risk), _fmt(time), censor, time_bin]
                   for rep in reports
                   for pid, risk, time, censor, time_bin in rep.risks)),
        write_csv(out_dir / "km.csv", ["fold", *KM_COLUMNS],
                  ([rep.fold, *row] for rep in reports
                   for row in km_rows(rep.km_low, rep.km_high))),
        write_csv(out_dir / "loss_trace.csv", ["fold", "epoch", "mean_loss"],
                  ([rep.fold, epoch, _fmt(value)]
                   for rep in reports for epoch, value in enumerate(rep.loss_trace))),
        write_csv(out_dir / "selections.csv", ["fold", "patient_id", "level", "indices"],
                  ([rep.fold, pid, level, " ".join(str(i) for i in indices)]
                   for rep in reports for pid, level, indices in rep.selections)),
    ]

    metadata = {
        "config": cfg.as_dict(),
        "risk_score_convention": RISK_CONVENTION,
        "summary": summary,
        "folds": [
            {"fold": rep.fold, "n_eval": len(rep.risks), "ci": rep.ci,
             "logrank_chi2": rep.logrank_chi2, "logrank_p": rep.logrank_p,
             "flags": rep.flags}
            for rep in reports
        ],
        "std_definition": "population std (ddof=0) over fold C-indexes",
    }
    if extra:
        metadata.update(extra)
    written.append(write_json(out_dir / "metadata.json", metadata, sort_keys=True))
    return written


def emit_ablation_table(rows: list[dict], out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_csv(out_dir / "ablation.csv",
                     ["variant", "mean_ci", "std_ci", "folds_used"],
                     ([row["variant"], _fmt(row["mean_ci"]), _fmt(row["std_ci"]),
                       row["folds_used"]] for row in rows))


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write one header row and then `rows` as CSV; returns `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return repr(float(value))
