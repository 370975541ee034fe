"""Per-layer timing and counting by wrapping the program's public functions.

The tracer wraps the functions each module exports, from outside the
program, and restores them afterwards, so untraced rounds run the program
untouched. A wrapped name is replaced in every promptsurv module that holds
the same function object, so a name bound at import (``pipeline`` binds
``match_bag`` from ``alignment``) is wrapped in both places. A function that
no longer exists leaves its layer unmeasured: the metrics that need it are
reported as unmeasured instead of failing the run.

Time is inclusive and counted once per outermost call into a layer, so a
layer's public function calling another of the same layer is not counted
twice.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

# layer -> (module, public names); every call is timed under the layer
TIMED = {
    "data.load": ("data", ["load_cohort"]),
    "alignment.cosine": ("alignment", ["cosine_scores_multi", "cosine_scores_single"]),
    "fusion.gate": ("fusion", ["gate_fuse"]),
    "fusion.pool": ("fusion", ["pool_to_regions"]),
    "contrast.loss": ("contrast", ["make_prototype", "mutual_contrastive_loss"]),
    "survival.head": ("survival", ["fuse", "hazards", "survival_curve", "nll_loss",
                                   "total_loss", "survival_curve_values", "risk_score"]),
    "autodiff.backward": ("autodiff", ["Node.backward"]),
    "optim.step": ("optim", ["AdamState.step"]),
    "pipeline.train": ("pipeline", ["train_fold"]),
    "pipeline.eval": ("pipeline", ["evaluate_fold"]),
    "pipeline.emit": ("pipeline", ["emit_reports", "emit_ablation_table"]),
    "metrics.concordance": ("metrics", ["concordance_index"]),
    "metrics.km_logrank": ("metrics", ["kaplan_meier", "logrank_test", "stratify_median"]),
}
# autodiff functions that build no graph node during a training step
NOT_OPS = {"as_matrix", "grad_check", "parameter"}

# metric -> (unit, hooks it needs); a metric is unmeasured when a hook is missing
PER_LAYER = {
    "data.load_s": ("s", ["data.load"]),
    "data.mb_read": ("MB", ["data.load", "data.read"]),
    "alignment.patch_solves": ("count", ["alignment.sinkhorn"]),
    "alignment.patch_s": ("s", ["alignment.match"]),
    "alignment.patch_iters_per_solve": ("1", ["alignment.sinkhorn"]),
    "alignment.region_solves": ("count", ["alignment.sinkhorn"]),
    "alignment.region_s": ("s", ["alignment.match"]),
    "alignment.region_iters_per_solve": ("1", ["alignment.sinkhorn"]),
    "alignment.distinct_input_share": ("1", ["alignment.sinkhorn"]),
    "alignment.nonconverged": ("count", ["alignment.sinkhorn"]),
    "alignment.cosine_s": ("s", ["alignment.cosine"]),
    "fusion.gate_s": ("s", ["fusion.gate"]),
    "fusion.pool_s": ("s", ["fusion.pool"]),
    "contrast.loss_s": ("s", ["contrast.loss"]),
    "survival.head_s": ("s", ["survival.head"]),
    "autodiff.backward_s": ("s", ["autodiff.backward"]),
    "optim.step_s": ("s", ["optim.step"]),
    "autodiff.ops_per_step": ("count", ["autodiff.ops", "pipeline.train", "optim.step"]),
    "pipeline.step_ms": ("ms", ["pipeline.train", "optim.step"]),
    "pipeline.train_s": ("s", ["pipeline.train"]),
    "pipeline.eval_s": ("s", ["pipeline.eval"]),
    "pipeline.emit_s": ("s", ["pipeline.emit"]),
    "pipeline.steps": ("count", ["optim.step"]),
    "metrics.concordance_s": ("s", ["metrics.concordance"]),
    "metrics.km_logrank_s": ("s", ["metrics.km_logrank"]),
    "trace.overhead_s": ("s", []),
}

MB = float(1 << 20)


def _module(name: str):
    try:
        return importlib.import_module(f"promptsurv.{name}")
    except ImportError:
        return None


class Patcher:
    """Replaces functions and methods, and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, qualname: str, make_wrapper) -> bool:
        """Wrap `module.qualname` (a function or `Class.method`) everywhere it
        is bound; returns False when the name does not exist."""
        if module is None:
            return False
        if "." in qualname:
            cls_name, meth = qualname.split(".", 1)
            cls = getattr(module, cls_name, None)
            original = vars(cls).get(meth) if inspect.isclass(cls) else None
            if not inspect.isfunction(original):
                return False
            self._set(cls, meth, make_wrapper(original))
            return True
        original = getattr(module, qualname, None)
        if not inspect.isfunction(original):
            return False
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name == "promptsurv" or name.startswith("promptsurv."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        return True

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Tracer:
    """Accumulates layer times and counts while installed."""

    def __init__(self, n_regions: int):
        self.n_regions = n_regions  # a bag of this many tokens is region level
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._inputs: set[bytes] = set()
        self._patcher = Patcher()
        self.missing: set[str] = set()

    def reset(self):
        self.time.clear()
        self.count.clear()
        self._inputs.clear()

    # -- installation --------------------------------------------------------

    def install(self):
        self.missing.clear()
        for layer, (mod_name, names) in TIMED.items():
            module = _module(mod_name)
            for name in names:
                if not self._patcher.wrap(module, name,
                                          functools.partial(self._timed, layer)):
                    self.missing.add(layer)
        data, alignment, autodiff = _module("data"), _module("alignment"), _module("autodiff")
        for name in ("read_matrix", "read_parent_map"):
            if not self._patcher.wrap(data, name, self._bytes_read):
                self.missing.add("data.read")
        if not self._patcher.wrap(alignment, "match_bag", self._match):
            self.missing.add("alignment.match")
        if not self._patcher.wrap(alignment, "sinkhorn", self._solve):
            self.missing.add("alignment.sinkhorn")
        ops = [] if autodiff is None else [
            name for name, fn in vars(autodiff).items()
            if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
            and not name.startswith("_") and name not in NOT_OPS]
        for name in ops:
            self._patcher.wrap(autodiff, name, self._op)
        if not ops:
            self.missing.add("autodiff.ops")

    def uninstall(self):
        self._patcher.restore()

    # -- wrappers --------------------------------------------------------------

    def _timed(self, layer, fn):
        depth, acc, count = self._depth, self.time, self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] = 1
            count[layer] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[layer] += time.perf_counter() - start
                depth[layer] = 0
        return wrapper

    def _bytes_read(self, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            count["data.bytes"] += os.path.getsize(path)
            return fn(path, *args, **kwargs)
        return wrapper

    def _level(self, rows: int) -> str:
        return "region" if rows == self.n_regions else "patch"

    def _match(self, fn):
        acc = self.time

        @functools.wraps(fn)
        def wrapper(tokens, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(tokens, *args, **kwargs)
            finally:
                acc[f"alignment.{self._level(tokens.shape[0])}"] += \
                    time.perf_counter() - start
        return wrapper

    def _solve(self, fn):
        count, inputs = self.count, self._inputs

        @functools.wraps(fn)
        def wrapper(problem, *args, **kwargs):
            result = fn(problem, *args, **kwargs)
            level = self._level(problem.cost.shape[0])
            count[f"alignment.{level}_solves"] += 1
            count[f"alignment.{level}_iters"] += result.iterations
            count["alignment.nonconverged"] += not result.converged
            inputs.add(hashlib.blake2b(problem.cost.tobytes(), digest_size=16).digest())
            return result
        return wrapper

    def _op(self, fn):
        count, depth = self.count, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth["pipeline.train"]:
                count["autodiff.train_ops"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- metrics -----------------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the rounds traced since the last reset, except
        the data layer and the trace overhead, which the caller measures."""
        t, c = self.time, self.count
        solves = c["alignment.patch_solves"] + c["alignment.region_solves"]
        steps = c["optim.step"]
        return {
            "alignment.patch_solves": c["alignment.patch_solves"],
            "alignment.patch_s": t["alignment.patch"],
            "alignment.patch_iters_per_solve":
                c["alignment.patch_iters"] / max(1, c["alignment.patch_solves"]),
            "alignment.region_solves": c["alignment.region_solves"],
            "alignment.region_s": t["alignment.region"],
            "alignment.region_iters_per_solve":
                c["alignment.region_iters"] / max(1, c["alignment.region_solves"]),
            "alignment.distinct_input_share": len(self._inputs) / max(1, solves),
            "alignment.nonconverged": c["alignment.nonconverged"],
            "alignment.cosine_s": t["alignment.cosine"],
            "fusion.gate_s": t["fusion.gate"],
            "fusion.pool_s": t["fusion.pool"],
            "contrast.loss_s": t["contrast.loss"],
            "survival.head_s": t["survival.head"],
            "autodiff.backward_s": t["autodiff.backward"],
            "optim.step_s": t["optim.step"],
            "autodiff.ops_per_step": c["autodiff.train_ops"] / max(1, steps),
            "pipeline.step_ms": 1e3 * t["pipeline.train"] / max(1, steps),
            "pipeline.train_s": t["pipeline.train"],
            "pipeline.eval_s": t["pipeline.eval"],
            "pipeline.emit_s": t["pipeline.emit"],
            "pipeline.steps": steps,
            "metrics.concordance_s": t["metrics.concordance"],
            "metrics.km_logrank_s": t["metrics.km_logrank"],
        }

    def unmeasured(self) -> list[str]:
        return sorted(m for m, (_, hooks) in PER_LAYER.items()
                      if any(h in self.missing for h in hooks))
