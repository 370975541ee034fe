"""Training loop, cross-validation, ablation ladder, and report emission.

The full pipeline per patient and step: patch-level prompt alignment and
selection, gated cross-level recalibration, region-level alignment on the
recalibrated bag, queue-contrastive consistency between the two levels'
prototypes, fusion of the selected tokens, and the discrete-time survival
loss. Reduced variants A-G switch these stages off from the top down.

Everything is driven by named RNG streams derived from (seed, fold, tag),
so runs with identical seed, config, and cohort are bit-identical. Folds
carry fully independent state (parameters, queues, streams) and could run
in parallel; within a fold, training is sequential because batch size is 1
and the queue state is order-dependent.

The one thing folds may share is a read-mostly selection memo. Whenever
alignment reads a raw bag (every patch-level selection, and the region level
of variants without the gate), its selection depends on the tokens, the
prompts and the scoring settings only, never on a parameter. Given a memo,
`cross_validate` solves it once per patient and hands the indices to every
fold, and `run_ablation` hands one memo to every rung, keyed by the scoring
settings so a cosine rung never reads a transport selection. Selections are
deterministic, so a memo hit returns exactly what a fresh solve would. The
gated region selection reads the gate's output and is solved on every step.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .alignment import (
    SINKHORN_EPSILON,
    SINKHORN_MAX_ITERS,
    SINKHORN_TOL,
    cosine_scores_multi,
    cosine_scores_single,
    match_bag,
    select_top,
)
from .contrast import MemoryQueue, make_prototype, mutual_contrastive_loss
from .data import PATCH, REGION, PatientRecord, PromptSet, require_unique_ids
from .errors import ConfigError, DegenerateInputError, MetricError, TrainingError
from .fusion import GateParams, gate_fuse, pool_to_regions
from .metrics import (
    KMCurve,
    RiskedPatient,
    concordance_index,
    kaplan_meier,
    logrank_test,
    stratify_median,
)
from .optim import AdamState
from .survival import (
    HeadParams,
    LossConfig,
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


@dataclass
class VariantSwitches:
    """Feature switches realizing the ablation ladder.

    A: attention pooling of the patch bag only (no prompts).
    B: + single-prompt cosine top-r selection.  C: + multiple prompts.
    D: + transport alignment.  E: + region-level tokens.
    F: + gated cross-level recalibration.  G: + mutual contrastive loss.
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
        if self.use_contrast and not self.use_regions:
            raise ConfigError("contrastive consistency needs region tokens enabled")
        if self.use_gate and not self.use_regions:
            raise ConfigError("gated recalibration needs region tokens enabled")
        if self.use_regions and not self.use_selection:
            raise ConfigError("region tokens need selection enabled")
        if (self.multi_prompt or self.use_transport) and not self.use_selection:
            raise ConfigError("prompt scoring options need selection enabled")

    def as_dict(self) -> dict[str, bool]:
        return {
            "use_selection": self.use_selection,
            "multi_prompt": self.multi_prompt,
            "use_transport": self.use_transport,
            "use_regions": self.use_regions,
            "use_gate": self.use_gate,
            "use_contrast": self.use_contrast,
        }


@dataclass
class TrainConfig:
    """Run configuration; defaults are the cited training settings."""

    epochs: int = 20
    lr: float = 2e-4
    batch_size: int = 1
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
    reset_queues_per_epoch: bool = False
    switch_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.batch_size != 1:
            raise ConfigError(f"batch_size is fixed at 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.r <= 1.0:
            raise ConfigError(f"r must be in (0,1], got {self.r}")
        if self.queue_length < 2:
            raise ConfigError(f"queue_length must be >= 2, got {self.queue_length}")
        if self.lam < 0.0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        unknown = set(self.switch_overrides) - set(VariantSwitches().as_dict())
        if unknown:
            raise ConfigError(f"unknown switch overrides: {sorted(unknown)}")

    def switches(self) -> VariantSwitches:
        sw = VariantSwitches.from_variant(self.variant)
        for key, val in self.switch_overrides.items():
            setattr(sw, key, bool(val))
        sw.validate()
        return sw

    def as_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "lr": self.lr,
            "batch_size": self.batch_size,
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
            "reset_queues_per_epoch": self.reset_queues_per_epoch,
            "switches": self.switches().as_dict(),
        }

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        bad = set(raw) - known
        if bad:
            raise ConfigError(f"unknown config fields in {path}: {sorted(bad)}")
        return cls(**raw)


@dataclass
class AttnParams:
    """Gated-attention pooling parameters for the selection-free baseline."""

    v: ad.Node  # d x da, tanh branch
    u: ad.Node  # d x da, sigmoid branch
    w: ad.Node  # da x 1, scoring vector


def attention_pool(bag: ad.Node, attn: AttnParams) -> ad.Node:
    """ABMIL-style gated attention: softmax-weighted token mean (1 x d)."""
    gated = ad.mul(ad.tanh(ad.matmul(bag, attn.v)), ad.sigmoid(ad.matmul(bag, attn.u)))
    weights = ad.softmax_cols(ad.matmul(gated, attn.w))  # M x 1
    return ad.matmul(ad.transpose(weights), bag)


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
    """
    params: dict[str, ad.Node] = {}

    def param(name: str, rows: int, cols: int, fan_in: int) -> ad.Node:
        init = _uniform_init(_stream(cfg.seed, fold, name), rows, cols, fan_in)
        params[name] = ad.parameter(init, name)
        return params[name]

    attn = None
    if not switches.use_selection:
        da = cfg.attention_dim or d
        attn = AttnParams(v=param("attn.v", d, da, d), u=param("attn.u", d, da, d),
                          w=param("attn.w", da, 1, da))
    gate = None
    if switches.use_gate:
        gate = GateParams(
            w_gate=param("gate.w_gate", 2 * d, d, 2 * d),
            b_gate=param("gate.b_gate", 1, d, 2 * d),
            w_patch=param("gate.w_patch", d, d, d),
            b_patch=param("gate.b_patch", 1, d, d),
            w_region=param("gate.w_region", d, d, d),
            b_region=param("gate.b_region", 1, d, d),
        )
    head = HeadParams(weight=param("head.weight", d, cfg.n_bins, d),
                      bias=param("head.bias", 1, cfg.n_bins, d))
    return params, head, gate, attn


class Selection(NamedTuple):
    """Kept token indices (ascending, read-only) and the health of the solve
    that chose them; cosine scoring always reads converged."""

    indices: np.ndarray
    converged: bool = True
    residual: float = 0.0


# (patient_id, level, Pipeline.scoring_key) -> Selection
SelectionMemo = dict[tuple, Selection]


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
    """Holds one fold's parameters, queues, and selection caches.

    `memo` maps (patient_id, level, scoring key) to the selection alignment
    makes on that patient's raw bag. No parameter reaches those selections,
    so one memo may serve every fold and every variant run on the same
    cohort and prompt sets; patient ids must be unique within it. Only the
    indices are shared: the token node, pooled evidence and prototype built
    from them stay in this fold's patch cache.
    """

    def __init__(self, prompts: dict[str, PromptSet], d: int, cfg: TrainConfig,
                 fold: int = 0, *, memo: SelectionMemo | None = None):
        self.cfg = cfg
        self.switches = cfg.switches()
        self.d = d
        self.fold = fold
        if self.switches.use_selection and (PATCH not in prompts or
                                            (self.switches.use_regions and REGION not in prompts)):
            raise ConfigError("selection variants need prompt sets for the enabled levels")
        self.prompts = prompts
        self.params, self.head, self.gate, self.attn = build_parameters(
            d, cfg, self.switches, fold)
        self.adam = AdamState(self.params, lr=cfg.lr)
        self.loss_cfg = LossConfig(lam=cfg.lam)
        self.queue_patch = MemoryQueue(cfg.queue_length)
        self.queue_region = MemoryQueue(cfg.queue_length)
        self.memo = {} if memo is None else memo
        self._patch_cache: dict[str, tuple] = {}
        # level -> (selections used from non-converged solves, worst residual)
        self.unconverged: dict[str, tuple[int, float]] = {}

    # -- forward pieces ----------------------------------------------------

    @property
    def scoring_key(self) -> tuple:
        """Everything besides the bag and the prompts that a selection reads."""
        cfg = self.cfg
        if self.switches.use_transport:
            return ("transport", cfg.r, cfg.epsilon, cfg.sinkhorn_tol,
                    cfg.sinkhorn_max_iters)
        return ("multi" if self.switches.multi_prompt else "single", cfg.r)

    def _choose(self, tokens: np.ndarray, level: str) -> Selection:
        """Score tokens against the level's prompts and keep the top r."""
        prompts = self.prompts[level].prompts
        if self.switches.use_transport:
            result = match_bag(tokens, prompts, self.cfg.r,
                               epsilon=self.cfg.epsilon,
                               tol=self.cfg.sinkhorn_tol,
                               max_iters=self.cfg.sinkhorn_max_iters)
            chosen = Selection(result.selected, result.converged, result.residual)
        else:
            scores = (cosine_scores_multi if self.switches.multi_prompt
                      else cosine_scores_single)(tokens, prompts)
            chosen = Selection(select_top(scores, self.cfg.r))
        chosen.indices.setflags(write=False)
        return chosen

    def _use(self, chosen: Selection, level: str) -> np.ndarray:
        """Record the health of a selection this fold uses; returns its indices."""
        if not chosen.converged:
            count, worst = self.unconverged.get(level, (0, 0.0))
            self.unconverged[level] = (count + 1, max(worst, chosen.residual))
        return chosen.indices

    def _select(self, rec: PatientRecord, level: str) -> np.ndarray:
        """Selection on the patient's raw bag at `level`, solved once per memo."""
        key = (rec.patient_id, level, self.scoring_key)
        chosen = self.memo.get(key)
        if chosen is None:
            bag = rec.patch_bag if level == PATCH else rec.region_bag
            chosen = self.memo[key] = self._choose(bag.tokens, level)
        return self._use(chosen, level)

    def _patch_constants(self, rec: PatientRecord) -> tuple:
        """Selected patch indices and token node, their pooling into regions
        (gate on) and their prototype (contrast on, lambda > 0). No parameter
        reaches them, so they are computed once per patient and cached."""
        cached = self._patch_cache.get(rec.patient_id)
        if cached is None:
            idx = self._select(rec, PATCH)
            selected = ad.constant(rec.patch_bag.tokens[idx])
            pooled = prototype = None
            if self.switches.use_gate:
                pooled = ad.constant(pool_to_regions(
                    selected.value, idx, rec.patch_bag.parent_region, rec.region_bag.size))
            if self.switches.use_contrast and self.cfg.lam > 0.0:
                prototype = make_prototype(selected, rec.patient_id)
            cached = (idx, selected, pooled, prototype)
            self._patch_cache[rec.patient_id] = cached
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

        Returns (hazard node, patch prototype as (node, queue entry) or None,
        selected region node or None, selection log entries).
        """
        selections = []
        if not self.switches.use_selection:
            pooled = attention_pool(ad.constant(rec.patch_bag.tokens), self.attn)
            return hazards(pooled, self.head), None, None, selections

        patch_idx, patch_node, pooled, patch_proto = self._patch_constants(rec)
        selections.append((rec.patient_id, PATCH, [int(i) for i in patch_idx]))

        region_node = None
        if self.switches.use_regions:
            region_input = ad.constant(rec.region_bag.tokens)
            if self.switches.use_gate:
                region_input = gate_fuse(pooled, region_input, self.gate)
                region_idx = self._use(self._choose(region_input.value, REGION), REGION)
            else:
                region_idx = self._select(rec, REGION)
            selections.append((rec.patient_id, REGION, [int(i) for i in region_idx]))
            region_node = ad.gather_rows(region_input, region_idx)

        fused = fuse(patch_node, region_node)
        return hazards(fused, self.head), patch_proto, region_node, selections

    def patient_loss(self, rec: PatientRecord, update_queues: bool = True) -> ad.Node:
        """Total training loss node for one patient.

        With update_queues (the training default) the patient's detached
        prototypes are recorded after the loss is formed; without it the loss
        is a pure function of the parameters and the current queue state,
        which is what gradient verification needs.
        """
        if rec.time_bin is None:
            raise ConfigError(f"patient {rec.patient_id} has no time_bin; "
                              "run the discretizer before training")
        h, patch_proto, region_node, _ = self.forward(rec)
        s = survival_curve(h)
        l_sur = nll_loss(h, s, rec.censor, rec.time_bin)
        l_con = None
        if patch_proto is not None:
            proto_p_node, proto_p = patch_proto
            proto_r_node, proto_r = make_prototype(region_node, rec.patient_id)
            l_con = mutual_contrastive_loss(proto_p_node, proto_r_node,
                             self.queue_patch, self.queue_region,
                             rec.patient_id, self.cfg.temperature)
            if update_queues:
                self.queue_patch.push(proto_p)
                self.queue_region.push(proto_r)
        return total_loss(l_sur, l_con, self.loss_cfg)

    def predict(self, rec: PatientRecord):
        """Hazards, survival curve, and scalar risk for one patient."""
        h, _, _, selections = self.forward(rec)
        h_values = h.value[0]
        s_values = survival_curve_values(h_values)
        return h_values, s_values, risk_score(s_values), selections

    # -- training ----------------------------------------------------------

    def train(self, records: list[PatientRecord]) -> list[float]:
        """Run the configured number of epochs; returns per-epoch mean loss."""
        shuffle_rng = _stream(self.cfg.seed, self.fold, "shuffle")
        trace = []
        for epoch in range(self.cfg.epochs):
            if self.cfg.reset_queues_per_epoch:
                self.queue_patch.clear()
                self.queue_region.clear()
            order = shuffle_rng.permutation(len(records))
            epoch_loss = 0.0
            for pos in order:
                rec = records[pos]
                loss = self.patient_loss(rec)
                value = float(loss.value[0, 0])
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss {value} at epoch {epoch} "
                        f"patient {rec.patient_id} (fold {self.fold})"
                    )
                self.adam.zero_grad()
                loss.backward()
                self.adam.step()
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
    for rec in records:
        if rec.patch_bag.dim != d or rec.region_bag.dim != d:
            raise ConfigError(
                f"patient {rec.patient_id} has channel dim "
                f"({rec.patch_bag.dim}, {rec.region_bag.dim}), expected {d}"
            )
    model = Pipeline(prompts, d, cfg, fold, memo=memo)
    trace = model.train(records)
    return model, trace


def evaluate_fold(model: Pipeline, records: list[PatientRecord],
                  trace: list[float], fold: int) -> FoldReport:
    """Score held-out records and assemble the fold report."""
    risks = []
    riskeds = []
    selections = []
    flags = []
    for rec in records:
        _, _, risk, sels = model.predict(rec)
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

    km_low = km_high = None
    chi2 = p_value = None
    try:
        low, high = stratify_median(riskeds)
        if low:
            km_low = kaplan_meier(low)
        if high:
            km_high = kaplan_meier(high)
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
    rng = _stream(seed, 0, "split")
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for status in (0, 1):
        members = [i for i, r in enumerate(records) if r.censor == status]
        members = [members[i] for i in rng.permutation(len(members))]
        for pos, idx in enumerate(members):
            folds[(offset + pos) % k].append(idx)
        offset += len(members)
    return [sorted(f) for f in folds]


def cross_validate(records: list[PatientRecord], prompts: dict[str, PromptSet],
                   cfg: TrainConfig, k: int = 5, *,
                   memo: SelectionMemo | None = None) -> tuple[list[FoldReport], dict]:
    """k-fold cross-validation; returns per-fold reports and the summary.

    Given a `memo` (an empty dict will do), all folds share it, so each
    patient's raw-bag selections are solved once, not once per fold; the
    CLI and `run_ablation` pass one. Without it each fold solves its own,
    as a standalone `train_fold` does. Either way the results are identical.
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

    The rungs share one selection memo: D-G select the same patch tokens,
    and B and C each keep their own cosine entries under their scoring key.
    """
    rows = []
    memo: SelectionMemo = {}
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        vcfg = replace(cfg, variant=variant, switch_overrides={})
        _, summary = cross_validate(records, prompts, vcfg, k, memo=memo)
        rows.append({"variant": variant, **summary})
    return rows


def holdout_split(records: list[PatientRecord], fraction: float,
                  seed: int) -> tuple[list[PatientRecord], list[PatientRecord]]:
    """Single stratified train/eval split with `fraction` held out."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout fraction must be in (0,1), got {fraction}")
    rng = _stream(seed, 0, "holdout")
    eval_idx: set[int] = set()
    for status in (0, 1):
        members = [i for i, r in enumerate(records) if r.censor == status]
        members = [members[i] for i in rng.permutation(len(members))]
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
    written = []

    path = out_dir / "summary.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "n_eval", "ci", "logrank_chi2", "logrank_p"])
        for rep in reports:
            writer.writerow([rep.fold, len(rep.risks), _fmt(rep.ci),
                             _fmt(rep.logrank_chi2), _fmt(rep.logrank_p)])
        writer.writerow(["mean", "", _fmt(summary["mean_ci"]), "", ""])
        writer.writerow(["std", "", _fmt(summary["std_ci"]), "", ""])
    written.append(path)

    path = out_dir / "risks.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "patient_id", "risk", "time", "censor", "time_bin"])
        for rep in reports:
            for pid, risk, time, censor, time_bin in rep.risks:
                writer.writerow([rep.fold, pid, _fmt(risk), _fmt(time),
                                 censor, time_bin])
    written.append(path)

    path = out_dir / "km.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "stratum", "time", "survival", "at_risk", "events"])
        for rep in reports:
            for stratum, curve in (("low", rep.km_low), ("high", rep.km_high)):
                if curve is None:
                    continue
                for time, surv, n, d in curve.points():
                    writer.writerow([rep.fold, stratum, _fmt(time), _fmt(surv), n, d])
    written.append(path)

    path = out_dir / "loss_trace.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "epoch", "mean_loss"])
        for rep in reports:
            for epoch, value in enumerate(rep.loss_trace):
                writer.writerow([rep.fold, epoch, _fmt(value)])
    written.append(path)

    path = out_dir / "selections.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "patient_id", "level", "indices"])
        for rep in reports:
            for pid, level, indices in rep.selections:
                writer.writerow([rep.fold, pid, level,
                                 " ".join(str(i) for i in indices)])
    written.append(path)

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
    path = out_dir / "metadata.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def emit_ablation_table(rows: list[dict], out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "ablation.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mean_ci", "std_ci", "folds_used"])
        for row in rows:
            writer.writerow([row["variant"], _fmt(row["mean_ci"]),
                             _fmt(row["std_ci"]), row["folds_used"]])
    return path


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return repr(float(value))
