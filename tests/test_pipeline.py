import csv
import dataclasses
import gc
import itertools
import json
import os
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ad_chain
from conftest import build_cohort, params_bytes, read_all_bytes
from promptsurv import autodiff as ad
from promptsurv import contrast, data, fusion, pipeline, survival
from promptsurv.data import PATCH, REGION, load_cohort, write_cohort, write_matrix
from promptsurv.errors import ConfigError, DataValidationError
from promptsurv.pipeline import (
    FoldReport,
    TrainConfig,
    VariantSwitches,
    cross_validate,
    emit_reports,
    evaluate_fold,
    holdout_split,
    run_ablation,
    split_folds,
    summarize,
    train_fold,
)


def cache_key(rec):
    """The key of a patient's entry in a fold's cache of constants."""
    return rec.patch_bag, rec.region_bag


def fast_cfg(**overrides):
    base = dict(epochs=2, seed=5, n_bins=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestSwitches:
    def test_variant_ladder(self):
        assert VariantSwitches.from_variant("A").as_dict() == {
            "use_selection": False, "multi_prompt": False, "use_transport": False,
            "use_regions": False, "use_gate": False, "use_contrast": False}
        assert VariantSwitches.from_variant("D").as_dict() == {
            "use_selection": True, "multi_prompt": True, "use_transport": True,
            "use_regions": False, "use_gate": False, "use_contrast": False}
        assert VariantSwitches.from_variant("G").as_dict() == {
            "use_selection": True, "multi_prompt": True, "use_transport": True,
            "use_regions": True, "use_gate": True, "use_contrast": True}

    def test_variant_g_is_all_switches_on(self):
        assert VariantSwitches.from_variant("G") == VariantSwitches()

    def test_inconsistent_override_rejected(self):
        cfg = fast_cfg(variant="A", switch_overrides={"use_contrast": True})
        with pytest.raises(ConfigError):
            cfg.switches()

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            VariantSwitches.from_variant("Z")

    def test_only_distinct_models_validate(self):
        # a switch on whose prerequisite is off trains another combination's
        # parameters: contrast without the gate, transport without multi_prompt
        rules = [("use_contrast", "use_gate"), ("use_gate", "use_regions"),
                 ("use_regions", "use_selection"), ("use_transport", "multi_prompt"),
                 ("multi_prompt", "use_selection")]
        names = list(VariantSwitches().as_dict())
        accepted = []
        for values in itertools.product([False, True], repeat=len(names)):
            switches = VariantSwitches(**dict(zip(names, values)))
            broken = [f"{switch} needs {needed}" for switch, needed in rules
                      if getattr(switches, switch) and not getattr(switches, needed)]
            if not broken:
                switches.validate()
                accepted.append(switches)
                continue
            with pytest.raises(ConfigError) as err:
                switches.validate()
            assert any(rule in str(err.value) for rule in broken), (values, err.value)
        assert len(accepted) == 13
        ladder = [VariantSwitches.from_variant(v) for v in "ABCDEFG"]
        assert all(rung in accepted for rung in ladder)


class TestConfig:
    def test_defaults_match_cited_settings(self):
        cfg = TrainConfig()
        assert cfg.epochs == 20
        assert cfg.lr == 2e-4
        assert cfg.r == 0.6
        assert cfg.queue_length == 20
        assert cfg.lam == 0.01
        assert cfg.n_bins == 4
        assert cfg.epsilon == 0.1
        assert cfg.sinkhorn_tol == 1e-6
        assert cfg.sinkhorn_max_iters == 1000
        assert cfg.variant == "G"
        # batch size 1 and queues that persist across epochs are fixed, not
        # fields; the run record still states the batch size
        assert not {"batch_size", "reset_queues_per_epoch"} & set(
            f.name for f in dataclasses.fields(TrainConfig))
        assert cfg.as_dict()["batch_size"] == 1
        assert "reset_queues_per_epoch" not in cfg.as_dict()

    @staticmethod
    def assert_config_file_rejects(tmp_path, name, values):
        path = tmp_path / "cfg.json"
        for value in values:
            path.write_text(json.dumps({"epochs": 3, name: value}))
            with pytest.raises(ConfigError, match=f"unknown config fields .*'{name}'"):
                TrainConfig.from_file(path)

    def test_batch_size_enforced(self, tmp_path):
        # fixed at 1: a config file may not set it, not even to 1
        self.assert_config_file_rejects(tmp_path, "batch_size", [1, 2])

    def test_queue_reset_is_not_a_config_field(self, tmp_path):
        self.assert_config_file_rejects(tmp_path, "reset_queues_per_epoch", [False, True])

    @pytest.mark.parametrize("field", ["lr", "temperature"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rate_and_temperature_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["epsilon", "sinkhorn_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_solver_epsilon_and_tol_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_lambda_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigError, match="lam"):
            TrainConfig(lam=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_solver_needs_at_least_one_iteration(self, value):
        with pytest.raises(ConfigError, match="sinkhorn_max_iters"):
            TrainConfig(sinkhorn_max_iters=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_attention_dim_is_none_or_positive(self, value):
        with pytest.raises(ConfigError, match="attention_dim"):
            TrainConfig(variant="A", attention_dim=value)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_switch_override_must_be_boolean(self, value):
        with pytest.raises(ConfigError, match="use_gate"):
            TrainConfig(switch_overrides={"use_gate": value})

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 3, "lam": 0.5, "variant": "E"}))
        cfg = TrainConfig.from_file(path)
        assert (cfg.epochs, cfg.lam, cfg.variant) == (3, 0.5, "E")

    @pytest.mark.parametrize("text", ["5", "null", "[\"lr\"]"])
    def test_config_file_must_hold_an_object(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            TrainConfig.from_file(path)

    def test_unknown_config_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 1.0}))
        with pytest.raises(ConfigError):
            TrainConfig.from_file(path)


class TestTraining:
    def test_two_patient_smoke(self, small_cohort):
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=1)
        model, trace = train_fold(records[:2], prompts, cfg)
        assert len(trace) == 1 and np.isfinite(trace[0])
        from promptsurv.pipeline import build_parameters
        init_params, _, _, _ = build_parameters(records[0].patch_bag.dim, cfg,
                                                cfg.switches(), fold=0)
        changed = any(
            not np.array_equal(model.params[k].value, init_params[k].value)
            for k in model.params
        )
        assert changed

    def test_adam_step_count_is_patients_times_epochs(self, small_cohort):
        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:6], prompts, fast_cfg(epochs=3))
        assert model.adam.step_count == 6 * 3

    def test_training_is_deterministic(self, small_cohort):
        records, prompts, _ = small_cohort
        runs = []
        for _ in range(2):
            model, trace = train_fold(records[:8], prompts, fast_cfg(epochs=2))
            runs.append((params_bytes(model), tuple(trace)))
        assert runs[0] == runs[1]

    def test_lambda_zero_equals_contrast_disabled_bitwise(self, small_cohort):
        records, prompts, _ = small_cohort
        lam_zero, _ = train_fold(records[:8], prompts, fast_cfg(lam=0.0, variant="G"))
        disabled, _ = train_fold(
            records[:8], prompts,
            fast_cfg(variant="G", switch_overrides={"use_contrast": False}))
        assert params_bytes(lam_zero) == params_bytes(disabled)

    def test_variant_lattice_bitwise(self, small_cohort):
        # enabling the next switch on the lower variant reproduces the higher
        records, prompts, _ = small_cohort
        pairs = [
            ("F", {"use_contrast": True}, "G"),
            ("E", {"use_gate": True}, "F"),
            ("D", {"use_regions": True}, "E"),
            ("C", {"use_transport": True}, "D"),
            ("B", {"multi_prompt": True}, "C"),
        ]
        for low, override, high in pairs:
            lifted, _ = train_fold(records[:8], prompts,
                                   fast_cfg(variant=low, switch_overrides=override))
            target, _ = train_fold(records[:8], prompts, fast_cfg(variant=high))
            assert params_bytes(lifted) == params_bytes(target), (low, high)

    def test_loss_trace_decreases_on_planted_cohort(self):
        records, prompts, _ = build_cohort(n_patients=30, seed=3)
        _, trace = train_fold(records, prompts, fast_cfg(epochs=20, lr=1e-3))
        assert trace[-1] < trace[0]
        assert np.mean(trace[10:]) < np.mean(trace[:10])

    def test_variant_a_ignores_prompts(self, small_cohort):
        records, _, _ = small_cohort
        model, trace = train_fold(records[:6], {}, fast_cfg(variant="A"))
        assert np.isfinite(trace[-1])
        report = evaluate_fold(model, records[6:12], trace, fold=0)
        assert report.ci is not None

    def test_selection_variant_requires_prompts(self, small_cohort):
        records, _, _ = small_cohort
        with pytest.raises(ConfigError):
            train_fold(records[:4], {}, fast_cfg(variant="G"))

    def test_prompts_of_another_width_rejected_for_the_levels_read(self, small_cohort):
        records, prompts, _ = small_cohort
        _, narrow, _ = build_cohort(d=12, seed=3)
        for variant in "BDG":
            with pytest.raises(ConfigError, match="patch prompts are 12 wide but the bags are 16"):
                train_fold(records[:4], narrow, fast_cfg(variant=variant))
        mixed = {**prompts, REGION: narrow[REGION]}
        for variant in "EG":
            with pytest.raises(ConfigError, match="region prompts are 12 wide but the bags are 16"):
                train_fold(records[:4], mixed, fast_cfg(variant=variant))
        # A reads no prompts, and B-D no region prompts
        for variant, given in (("A", narrow), ("D", mixed)):
            _, trace = train_fold(records[:4], given, fast_cfg(variant=variant, epochs=1))
            assert np.isfinite(trace[-1])

    def test_undiscretized_cohort_rejected(self, small_cohort):
        records, prompts, _ = small_cohort
        broken = [replace(r) for r in records[:4]]
        for rec in broken:
            rec.time_bin = None
        with pytest.raises(ConfigError, match="time_bin"):
            train_fold(broken, prompts, fast_cfg())

    def test_queues_persist_across_epochs(self, small_cohort):
        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:6], prompts,
                              fast_cfg(epochs=2, queue_length=20))
        # 12 pushes against capacity 19: nothing evicted, nothing reset
        assert len(model.queue) == 12

    def test_patient_loss_leaves_the_queue_alone(self, small_cohort):
        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:6], prompts, fast_cfg(epochs=1))
        before = model.queue.entries()
        assert before
        (first, queued), (second, _) = (model.patient_loss(records[7]) for _ in range(2))
        assert first.value.tobytes() == second.value.tobytes()
        assert queued.shape == (2, model.d)
        after = model.queue.entries()
        assert len(model.queue) == len(before)
        assert [(pid, vec.tobytes()) for pid, vec in after] == \
            [(pid, vec.tobytes()) for pid, vec in before]

    def test_queue_holds_the_last_trained_patients_pairs(self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        trained = []
        patient_loss = pipeline.Pipeline.patient_loss

        def recorded(self, rec):
            trained.append(rec.patient_id)
            return patient_loss(self, rec)

        monkeypatch.setattr(pipeline.Pipeline, "patient_loss", recorded)
        # 12 steps against capacity 4: the queue evicts
        model, _ = train_fold(records[:6], prompts, fast_cfg(epochs=2, queue_length=5))
        assert len(trained) == 12
        entries = model.queue.entries()
        assert [pid for pid, _ in entries] == trained[-4:]
        by_id = {rec.patient_id: rec for rec in records[:6]}
        for pid, entry in entries:
            assert entry.shape == (2, model.d)
            assert np.linalg.norm(entry, axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
            # the patch half is the patient's cached patch prototype
            patch_proto = model._constants(by_id[pid])[3]
            assert entry[0].tobytes() == patch_proto.value[0].tobytes()

    def test_contrastive_temperature_changes_loss(self, small_cohort):
        records, prompts, _ = small_cohort
        base, trace_base = train_fold(records[:6], prompts, fast_cfg(epochs=1))
        hot, trace_hot = train_fold(records[:6], prompts,
                                    fast_cfg(epochs=1, temperature=0.2))
        assert trace_base != trace_hot
        assert params_bytes(base) != params_bytes(hot)

    def test_attention_dim_override(self, small_cohort):
        records, prompts, _ = small_cohort
        model, trace = train_fold(records[:4], {},
                                  fast_cfg(variant="A", attention_dim=5, epochs=1))
        assert model.params["attn.w"].shape == (5, 1)
        assert np.isfinite(trace[-1])

    def test_nonfinite_loss_aborts_with_diagnostics(self, small_cohort):
        from promptsurv.errors import TrainingError
        from promptsurv.pipeline import Pipeline
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=1)
        model = Pipeline(prompts, records[0].patch_bag.dim, cfg)
        model.params["head.bias"].value[:] = np.nan
        with pytest.raises(TrainingError, match="epoch 0"):
            model.train(records[:3])

    def test_every_variant_trains_and_evaluates(self, small_cohort):
        records, prompts, _ = small_cohort
        for variant in "ABCDEFG":
            model, trace = train_fold(records[:10], prompts,
                                      fast_cfg(variant=variant, epochs=1))
            report = evaluate_fold(model, records[10:20], trace, fold=0)
            assert np.isfinite(trace[-1]), variant
            assert report.ci is None or 0.0 <= report.ci <= 1.0

    def test_g_loss_graph_holds_only_the_trainable_path(self, small_cohort):
        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:8], prompts, fast_cfg(epochs=1))
        assert len(model.queue)
        sizes = []
        for rec in records[8:12]:
            for censor in (0, 1):
                for time_bin in range(1, model.cfg.n_bins + 1):
                    case = replace(rec, censor=censor, time_bin=time_bin)
                    loss = model.patient_loss(case)[0]
                    sizes.append(len(ad._toposort(loss)))
        assert max(sizes) <= 40

    def test_g_loss_graph_is_one_node_per_module(self, small_cohort):
        # 11 leaves (8 parameters, 3 cached constants) and 8 ops: gate,
        # region gather, head, survival curve, NLL, region prototype, the
        # two-direction contrastive loss and the lambda-weighted sum; the
        # selected patch rows reach the head as a cached row sum, with no
        # token stack
        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:8], prompts, fast_cfg(epochs=1))
        sizes = []
        for rec in records[8:12]:
            for censor in (0, 1):
                for time_bin in range(1, model.cfg.n_bins + 1):
                    case = replace(rec, censor=censor, time_bin=time_bin)
                    loss = model.patient_loss(case)[0]
                    sizes.append(len(ad._toposort(loss)))
        assert max(sizes) <= 19

    def test_first_step_of_a_fold_trains_on_the_nll_alone(self, small_cohort):
        # the queue starts empty, so MCL has no negatives: the loss is the
        # NLL node itself, with no contrastive or weighted-sum node
        records, prompts, _ = small_cohort
        model = pipeline.Pipeline(prompts, records[0].patch_bag.dim, fast_cfg())
        assert len(model.queue) == 0

        def op_names(loss):
            return {node._backward.__qualname__.split(".")[0]
                    for node in ad._toposort(loss) if node._backward is not None}

        first = records[0]
        h = model.forward(first)[0]
        nll = survival.nll_loss(h, survival.survival_curve(h), first.censor, first.time_bin)
        loss, queued = model.patient_loss(first)
        assert loss.value.tobytes() == nll.value.tobytes()
        assert len(ad._toposort(loss)) == len(ad._toposort(nll))
        assert not op_names(loss) & {"mutual_contrastive", "add_scaled"}
        # with the first patient queued, the next one contrasts
        model.queue.push(first.patient_id, queued)
        assert {"mutual_contrastive", "add_scaled"} <= op_names(model.patient_loss(records[1])[0])

    @pytest.mark.parametrize("variant", ["A", "G"])
    def test_fused_module_ops_train_like_their_chains(self, small_cohort, monkeypatch,
                                                      variant):
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=2, variant=variant)

        def run():
            model, trace = train_fold(records[:12], prompts, cfg)
            report = evaluate_fold(model, records[12:20], trace, fold=0)
            return params_bytes(model), trace, report.risks

        fused = run()
        calls = Counter()
        for module, name in ((fusion, "gate_blend"), (survival, "mean_logistic"),
                             (survival, "neg_log_sum"), (survival, "add_scaled"),
                             (contrast, "normalized_col_sum"), (contrast, "mutual_contrastive"),
                             (pipeline, "gated_attention")):
            def counted(*args, _chain=getattr(ad_chain, name + "_chain"), _name=name):
                calls[_name] += 1
                return _chain(*args)
            monkeypatch.setattr(module, name, counted)
        assert run() == fused
        used = {"A": {"gated_attention", "mean_logistic", "neg_log_sum"},
                "G": {"gate_blend", "mean_logistic", "neg_log_sum", "normalized_col_sum",
                      "mutual_contrastive", "add_scaled"}}
        assert set(calls) == used[variant]

    def test_patch_constants_built_once_per_patient(self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        calls = {"pool": 0, "patch_prototype": 0}
        pool, make_prototype = pipeline.pool_to_regions, pipeline.make_prototype

        def counted_pool(*args):
            calls["pool"] += 1
            return pool(*args)

        def counted_prototype(selected):
            calls["patch_prototype"] += not selected.requires_grad
            return make_prototype(selected)

        monkeypatch.setattr(pipeline, "pool_to_regions", counted_pool)
        monkeypatch.setattr(pipeline, "make_prototype", counted_prototype)
        model, _ = train_fold(records[:6], prompts, fast_cfg(epochs=3))
        assert model.adam.step_count == 18
        assert calls == {"pool": 6, "patch_prototype": 6}
        for variant, lam in (("F", 0.01), ("G", 0.0)):
            calls["patch_prototype"] = 0
            train_fold(records[:6], prompts, fast_cfg(epochs=2, variant=variant, lam=lam))
            assert calls["patch_prototype"] == 0, variant


    @pytest.mark.parametrize("variant", "BCDE")
    def test_ungated_token_stack_fused_once_per_patient(self, small_cohort, monkeypatch,
                                                        variant):
        records, prompts, _ = small_cohort
        calls = Counter()
        fuse = pipeline.fuse

        def counted(patch, region):
            calls[variant] += 1
            return fuse(patch, region)

        monkeypatch.setattr(pipeline, "fuse", counted)
        model, trace = train_fold(records[:6], prompts, fast_cfg(epochs=3, variant=variant))
        assert model.adam.step_count == 18
        assert calls[variant] == 6
        for _ in range(2):
            evaluate_fold(model, records[6:10], trace, fold=0)
        assert calls[variant] == 10

    def test_ungated_patient_constants_are_one_sum_and_one_node(self, small_cohort,
                                                                 monkeypatch):
        # B-E cache one mean row per patient: one in-order sum, over the
        # whole head stack (in E the patch and region rows), and one node
        records, prompts, _ = small_cohort
        sums, nodes = [], []
        fuse, constant = pipeline.fuse, ad.constant

        def counted_fuse(patch, region):
            sums.append(len(patch) + (0 if region is None else len(region)))
            return fuse(patch, region)

        def counted_constant(data):
            nodes.append(np.shape(data))
            return constant(data)

        monkeypatch.setattr(pipeline, "fuse", counted_fuse)
        monkeypatch.setattr(ad, "constant", counted_constant)
        for variant in "BCDE":
            sums.clear()
            nodes.clear()
            model, _ = train_fold(records[:6], prompts, fast_cfg(epochs=2, variant=variant))
            assert model.adam.step_count == 12
            stacks = [sum(idx.size for _, idx in model._cache[cache_key(rec)][-1])
                      for rec in records[:6]]
            assert sorted(sums) == sorted(stacks), variant
            assert nodes == [(1, 16)] * 6, variant

    def test_ungated_mean_row_of_one_channel_is_the_in_order_sum(self):
        # np.add.reduce adds one column pairwise from 8 rows on
        records, prompts, _ = build_cohort(n_patients=12, patches_per_region=8)
        records = [replace(rec, patch_bag=replace(rec.patch_bag,
                                                  tokens=rec.patch_bag.tokens[:, :1]),
                           region_bag=replace(rec.region_bag,
                                              tokens=rec.region_bag.tokens[:, :1]))
                   for rec in records]
        prompts = {level: replace(p, prompts=p.prompts[:, :1]) for level, p in prompts.items()}
        differs = 0
        for variant in "BCDE":
            model, _ = train_fold(records[:6], prompts, fast_cfg(epochs=1, variant=variant))
            for rec in records[:6]:
                entry = model._cache[cache_key(rec)]
                stack = np.vstack([(rec.patch_bag if level == PATCH else rec.region_bag)
                                   .tokens[idx] for level, idx in entry[-1]])
                assert len(stack) >= 8
                in_order = np.add.accumulate(stack, axis=0)[-1:] / len(stack)
                assert np.array_equal(entry[0].value, in_order), (variant, rec.patient_id)
                differs += not np.array_equal(
                    in_order, np.add.reduce(stack, axis=0, keepdims=True) / len(stack))
        assert differs

    @pytest.mark.parametrize("variant", "FG")
    def test_gated_fold_caches_no_copy_of_the_selected_patch_rows(self, small_cohort,
                                                                  variant):
        def arrays(obj):
            if isinstance(obj, ad.Node):
                yield obj.value
            elif isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, tuple):
                for item in obj:
                    yield from arrays(item)

        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:6], prompts, fast_cfg(variant=variant))
        for rec in records[:6]:
            entry = model._cache[cache_key(rec)]
            ((level, kept),) = entry[-1]
            assert level == PATCH
            assert kept.size > rec.region_bag.size
            rows = [a.shape[0] for a in arrays(entry) if a.ndim == 2]
            assert max(rows) < kept.size, rows

    @pytest.mark.parametrize("variant", "ACDG")
    def test_cached_patient_rejects_other_bags_under_its_id(self, variant):
        # the fold cache and the memo key on the bags, so a held-out patient
        # with a trained patient's id is scored from its own bags
        records, prompts, _ = build_cohort(seed=11)
        model, trace = train_fold(records[:12], prompts, fast_cfg(variant=variant))
        others, _, _ = build_cohort(seed=3)
        assert [r.patient_id for r in others[:6]] == [r.patient_id for r in records[:6]]
        colliding = evaluate_fold(model, others[:6], trace, fold=0)
        renamed = [replace(r, patient_id=f"new-{r.patient_id}") for r in others[:6]]
        fresh = evaluate_fold(model, renamed, trace, fold=0)
        assert [r[1:] for r in colliding.risks] == [r[1:] for r in fresh.risks]
        assert [s[1:] for s in colliding.selections] == [s[1:] for s in fresh.selections]

    @pytest.mark.parametrize("variant", "ADG")
    def test_heldout_channel_dim_checked_like_training(self, variant):
        records, prompts, _ = build_cohort()
        model, trace = train_fold(records[:12], prompts, fast_cfg(variant=variant))
        narrow, _, _ = build_cohort(d=12, seed=3)
        with pytest.raises(ConfigError, match=f"patient {narrow[0].patient_id} has channel dim"):
            evaluate_fold(model, narrow[:6], trace, fold=0)


class TestSplits:
    def test_folds_partition_cohort(self, small_cohort):
        records, _, _ = small_cohort
        folds = split_folds(records, 4, seed=2)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(len(records)))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_split_deterministic(self, small_cohort):
        records, _, _ = small_cohort
        assert split_folds(records, 4, seed=2) == split_folds(records, 4, seed=2)

    def test_stratified_by_censor(self):
        records, _, _ = build_cohort(n_patients=50, censor_rate=0.4, seed=9)
        folds = split_folds(records, 5, seed=1)
        censored_counts = [sum(records[i].censor for i in fold) for fold in folds]
        assert max(censored_counts) - min(censored_counts) <= 1

    def test_small_cohort_warns(self):
        records, _, _ = build_cohort(n_patients=12, seed=4)
        with pytest.warns(UserWarning, match="unstable"):
            split_folds(records, 5, seed=0)

    def test_duplicate_patient_ids_rejected(self, small_cohort):
        records, _, _ = small_cohort
        twin = replace(records[7], patient_id=records[2].patient_id)
        with pytest.raises(DataValidationError, match=records[2].patient_id):
            split_folds(records[:7] + [twin] + records[8:], 4, seed=2)

    def test_holdout_split_partition(self, small_cohort):
        records, _, _ = small_cohort
        train, heldout = holdout_split(records, 0.25, seed=3)
        assert len(train) + len(heldout) == len(records)
        ids = {r.patient_id for r in train} | {r.patient_id for r in heldout}
        assert len(ids) == len(records)


class TestCrossValidation:
    def test_identical_seed_identical_reports(self, small_cohort):
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=1)
        reports_a, summary_a = cross_validate(records, prompts, cfg, k=3)
        reports_b, summary_b = cross_validate(records, prompts, cfg, k=3)
        assert summary_a == summary_b
        for ra, rb in zip(reports_a, reports_b):
            assert ra.ci == rb.ci
            assert ra.risks == rb.risks
            assert ra.loss_trace == rb.loss_trace

    def test_one_fold_alive_at_a_time(self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        trained, alive = [], []

        def tracked(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in trained))
            model, trace = train_fold(*args, **kwargs)
            trained.append(weakref.ref(model))
            return model, trace

        monkeypatch.setattr(pipeline, "train_fold", tracked)
        cross_validate(records, prompts, fast_cfg(epochs=1), k=3)
        assert alive == [0, 0, 0]

    def test_summary_formatting(self):
        reports = [FoldReport(fold=i, ci=c, loss_trace=[], risks=[], km_low=None,
                              km_high=None, logrank_chi2=None, logrank_p=None,
                              selections=[])
                   for i, c in enumerate([0.7, 0.6, 0.65])]
        summary = summarize(reports)
        assert summary["formatted"] == "0.650 ± 0.041"

    def test_fold_without_ci_excluded_with_warning(self):
        reports = [
            FoldReport(fold=0, ci=0.8, loss_trace=[], risks=[], km_low=None,
                       km_high=None, logrank_chi2=None, logrank_p=None,
                       selections=[]),
            FoldReport(fold=1, ci=None, loss_trace=[], risks=[], km_low=None,
                       km_high=None, logrank_chi2=None, logrank_p=None,
                       selections=[]),
        ]
        with pytest.warns(UserWarning, match="excluded"):
            summary = summarize(reports)
        assert summary["folds_used"] == 1
        assert summary["folds_skipped"] == [1]
        assert summary["mean_ci"] == 0.8


class TestAblation:
    def test_table_rows_and_g_matches_direct_run(self, small_cohort):
        # every rung equals its own cross-validation, so no rung reads another
        # rung's selections through the shared memo
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=1)
        rows = run_ablation(records, prompts, cfg, k=3, variants="ABCDEFG")
        assert [row["variant"] for row in rows] == list("ABCDEFG")
        for row in rows:
            _, direct = cross_validate(records, prompts,
                                       replace(cfg, variant=row["variant"]), k=3)
            assert row == {"variant": row["variant"], **direct}

    def test_unknown_variant_rejected_before_any_rung(self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        calls = []
        monkeypatch.setattr(pipeline, "cross_validate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match="'Z'"):
            run_ablation(records, prompts, fast_cfg(epochs=1), k=3, variants="GZ")
        assert calls == []


    def test_repeated_variant_rejected_before_any_rung(self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        calls = []
        monkeypatch.setattr(pipeline, "cross_validate",
                            lambda *args, **kwargs: calls.append(args))
        for variants in ("BB", "ABGA"):
            with pytest.raises(ConfigError, match=f"repeated in '{variants}'"):
                run_ablation(records, prompts, fast_cfg(epochs=1), k=3, variants=variants)
        assert calls == []

    def test_switch_overrides_and_empty_ladder_rejected_before_any_rung(
            self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        calls = []
        monkeypatch.setattr(pipeline, "cross_validate",
                            lambda *args, **kwargs: calls.append(args))
        overridden = fast_cfg(epochs=1, switch_overrides={"use_gate": False})
        with pytest.raises(ConfigError, match="use_gate"):
            run_ablation(records, prompts, overridden, k=3, variants="G")
        with pytest.raises(ConfigError, match="no variants"):
            run_ablation(records, prompts, fast_cfg(epochs=1), k=3, variants="")
        assert calls == []


class TestSelectionMemo:
    @staticmethod
    def count_solves(monkeypatch, prompts):
        """Count match_bag calls per (variant, level, bag) while cross_validate runs."""
        solves = Counter()
        running = {"variant": None}
        match_bag, cv = pipeline.match_bag, pipeline.cross_validate

        def counted_match_bag(tokens, prompt_rows, *args, **kwargs):
            level = PATCH if prompt_rows is prompts[PATCH].prompts else REGION
            solves[running["variant"], level, tokens.tobytes()] += 1
            return match_bag(tokens, prompt_rows, *args, **kwargs)

        def tagged_cv(records, prompt_sets, cfg, *args, **kwargs):
            running["variant"] = cfg.variant
            return cv(records, prompt_sets, cfg, *args, **kwargs)

        monkeypatch.setattr(pipeline, "match_bag", counted_match_bag)
        monkeypatch.setattr(pipeline, "cross_validate", tagged_cv)
        return solves

    @staticmethod
    def per_bag(solves, variant, level):
        return sorted(n for (v, lv, _), n in solves.items() if (v, lv) == (variant, level))

    def test_cv_with_a_memo_solves_each_patch_bag_once(self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        solves = self.count_solves(monkeypatch, prompts)
        cfg = fast_cfg(epochs=1)
        shared = pipeline.cross_validate(records, prompts, cfg, k=3, memo={})
        assert self.per_bag(solves, "G", PATCH) == [1] * len(records)
        # the gated region input changes every step: one solve per step and
        # per prediction, as without the memo
        assert sum(self.per_bag(solves, "G", REGION)) == 2 * len(records) + len(records)
        solves.clear()
        alone = pipeline.cross_validate(records, prompts, cfg, k=3)
        # without one, each of the 3 folds solves every patient it trains or scores
        assert self.per_bag(solves, "G", PATCH) == [3] * len(records)
        assert shared[1] == alone[1]
        assert [r.risks for r in shared[0]] == [r.risks for r in alone[0]]

    def test_ablation_solves_each_raw_bag_once_per_cohort(self, small_cohort,
                                                          monkeypatch):
        records, prompts, _ = small_cohort
        solves = self.count_solves(monkeypatch, prompts)
        run_ablation(records, prompts, fast_cfg(epochs=1), k=3, variants="DEFG")
        n = len(records)
        assert self.per_bag(solves, "D", PATCH) == [1] * n
        for variant in "EFG":
            assert self.per_bag(solves, variant, PATCH) == [], variant
        assert self.per_bag(solves, "E", REGION) == [1] * n
        # F and G select on the gate's output: every training step (each
        # patient trains in 2 of 3 folds, 1 epoch) and every prediction
        for variant in "FG":
            assert sum(self.per_bag(solves, variant, REGION)) == 2 * n + n, variant

    def test_nonconverged_selections_flagged_in_metadata(self, small_cohort, tmp_path):
        records, prompts, _ = small_cohort

        def fold_flags(cfg, **memo):
            reports, summary = cross_validate(records, prompts, cfg, k=3, **memo)
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            emit_reports(reports, summary, cfg, out)
            meta = json.loads((out / "metadata.json").read_text())
            return [[f for f in fold["flags"] if "non-converged" in f]
                    for fold in meta["folds"]]

        # with a shared memo only the first fold solves, but memo hits count
        # too: every fold reports each patient it used (16 trained, 8 scored)
        for variant, memo in (("E", {}), ("G", {"memo": {}})):
            cfg = fast_cfg(epochs=1, variant=variant, sinkhorn_max_iters=1)
            for (flag,) in fold_flags(cfg, **memo):
                assert flag.startswith("selections from non-converged Sinkhorn solves: "
                                       "patch 24 (worst residual "), flag
                assert "; region 24 (worst residual " in flag, flag
        assert fold_flags(fast_cfg(epochs=1)) == [[], [], []]
        cosine = fast_cfg(epochs=1, variant="C", sinkhorn_max_iters=1)
        assert fold_flags(cosine) == [[], [], []]

    def test_raw_bag_selections_count_once_per_patient_per_fold(self, small_cohort):
        # after 2 epochs each fold has trained 16 patients twice and scored 8:
        # a raw-bag selection counts once per patient, a gated one per use
        records, prompts, _ = small_cohort
        for variant, region in (("E", 24), ("G", 2 * 16 + 8)):
            cfg = fast_cfg(epochs=2, variant=variant, sinkhorn_max_iters=1)
            for report in cross_validate(records, prompts, cfg, k=3)[0]:
                (flag,) = [f for f in report.flags if "non-converged" in f]
                assert ": patch 24 (worst residual " in flag, flag
                assert f"; region {region} (worst residual " in flag, flag

    def test_a_memo_from_another_cohort_serves_what_a_fresh_one_does(self):
        # ids p0000... repeat across cohorts, but a memo entry is keyed by
        # the bag and prompt set it was solved from, so a memo filled from
        # one cohort serves the other, or other prompt sets, nothing of its own
        first, first_prompts, _ = build_cohort(seed=11)
        second, second_prompts, _ = build_cohort(seed=3)
        assert [r.patient_id for r in first] == [r.patient_id for r in second]
        cfg = fast_cfg(epochs=1, variant="E")
        memo = {}
        cross_validate(first, first_prompts, cfg, k=3, memo=memo)
        for records, prompts in ((second, second_prompts), (first, second_prompts),
                                 (second, first_prompts)):
            reused = cross_validate(records, prompts, cfg, k=3, memo=memo)
            fresh = cross_validate(records, prompts, cfg, k=3, memo={})
            assert reused[1] == fresh[1]
            assert [r.risks for r in reused[0]] == [r.risks for r in fresh[0]]
            assert [r.selections for r in reused[0]] == [r.selections for r in fresh[0]]


class TestLoadedCohort:
    """A loaded cohort keeps its patch bags in their files: each fold reads a
    patient's patch bag once, to build that patient's constants."""

    def test_cv_holds_a_few_patch_bags_not_the_cohort(self, tmp_path):
        # 12 patients with 8 x 1024-patch bags of 32 channels, 2 MB each:
        # a cohort that held its bags would peak above 12 of them
        bag_bytes = 8 * 1024 * 32 * 8
        records, prompts, _ = build_cohort(n_patients=12, n_regions=8,
                                           patches_per_region=1024, d=32)
        manifest = write_cohort(records, prompts, tmp_path)
        del records, prompts
        tracemalloc.start()
        try:
            loaded, loaded_prompts = load_cohort(manifest)
            with pytest.warns(UserWarning, match="unstable"):
                cross_validate(loaded, loaded_prompts, fast_cfg(epochs=1), k=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * bag_bytes, peak / bag_bytes

    def test_a_patch_file_changed_after_the_load_stops_the_run(self, tmp_path):
        records, prompts, _ = build_cohort(n_patients=15)
        write_cohort(records, prompts, tmp_path)
        path = tmp_path / "p0003_patch.mat"
        # as if the cohort was written a while before the run: the stamp is
        # (size, mtime), so a same-size rewrite inside the file system's
        # timestamp granularity would go unseen
        status = path.stat()
        os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns - 2 * 10**9))
        loaded, loaded_prompts = load_cohort(tmp_path / "manifest.json")
        write_matrix(path, records[3].patch_bag.tokens[::-1])
        assert path.stat().st_size == status.st_size
        with pytest.raises(DataValidationError, match=re.escape(f"{path} changed")):
            cross_validate(loaded, loaded_prompts, fast_cfg(epochs=1), k=3)

    def test_each_fold_reads_each_patch_bag_once(self, tmp_path, monkeypatch):
        records, prompts, _ = build_cohort(n_patients=15)
        records, prompts = load_cohort(write_cohort(records, prompts, tmp_path))
        reads = Counter()

        def counted(path, reader=data.read_matrix):
            reads[Path(path).name] += 1
            return reader(path)

        monkeypatch.setattr(data, "read_matrix", counted)
        model, trace = train_fold(records[:10], prompts, fast_cfg(epochs=2))
        evaluate_fold(model, records[10:], trace, 0)
        # trained or held out, one read each, and none of a region bag
        assert reads == Counter(f"{rec.patient_id}_patch.mat" for rec in records)
        reads.clear()
        run_ablation(records, prompts, fast_cfg(epochs=1), k=3, variants="AG")
        # each of the 3 folds of each rung reads every patient once
        assert reads == Counter({f"{rec.patient_id}_patch.mat": 2 * 3 for rec in records})


class TestReports:
    def test_emitted_files_parse_back_and_validate(self, small_cohort, tmp_path):
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=1)
        reports, summary = cross_validate(records, prompts, cfg, k=3)
        paths = emit_reports(reports, summary, cfg, tmp_path)
        names = {p.name for p in paths}
        assert names == {"summary.csv", "risks.csv", "km.csv",
                         "loss_trace.csv", "selections.csv", "metadata.json"}

        with open(tmp_path / "risks.csv") as fh:
            rows = list(csv.DictReader(fh))
        emitted = {(int(r["fold"]), r["patient_id"]): float(r["risk"]) for r in rows}
        for rep in reports:
            for pid, risk, _, _, _ in rep.risks:
                assert emitted[(rep.fold, pid)] == risk  # bit-exact parse-back

        with open(tmp_path / "km.csv") as fh:
            km_rows = list(csv.DictReader(fh))
        by_curve = {}
        for row in km_rows:
            by_curve.setdefault((row["fold"], row["stratum"]), []).append(
                float(row["survival"]))
        for values in by_curve.values():
            assert values == sorted(values, reverse=True)  # nonincreasing

    def test_metadata_records_cited_defaults(self, small_cohort, tmp_path):
        records, prompts, _ = small_cohort
        cfg = TrainConfig(epochs=1, n_bins=3, seed=5)
        reports, summary = cross_validate(records, prompts, cfg, k=3)
        emit_reports(reports, summary, cfg, tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        config = meta["config"]
        assert config["lambda"] == 0.01
        assert config["r"] == 0.6
        assert config["queue_length"] == 20
        assert config["lr"] == 2e-4
        assert config["batch_size"] == 1
        assert "risk_score_convention" in meta
        assert "-sum" in meta["risk_score_convention"]

    def test_byte_identical_reruns(self, small_cohort, tmp_path):
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=1)
        outputs = []
        for run in ("one", "two"):
            reports, summary = cross_validate(records, prompts, cfg, k=3)
            paths = emit_reports(reports, summary, cfg, tmp_path / run)
            outputs.append(read_all_bytes(paths))
        assert outputs[0] == outputs[1]

    def test_selections_written_for_selection_variants(self, small_cohort, tmp_path):
        records, prompts, _ = small_cohort
        cfg = fast_cfg(epochs=1, variant="G")
        reports, summary = cross_validate(records, prompts, cfg, k=3)
        emit_reports(reports, summary, cfg, tmp_path)
        with open(tmp_path / "selections.csv") as fh:
            rows = list(csv.DictReader(fh))
        levels = {row["level"] for row in rows}
        assert levels == {PATCH, REGION}
        assert all(row["indices"].split() for row in rows)
