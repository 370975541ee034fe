import csv
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_cohort, params_bytes, read_all_bytes
from promptsurv import autodiff as ad
from promptsurv import pipeline
from promptsurv.data import PATCH, REGION
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


class TestConfig:
    def test_defaults_match_cited_settings(self):
        cfg = TrainConfig()
        assert cfg.epochs == 20
        assert cfg.lr == 2e-4
        assert cfg.batch_size == 1
        assert cfg.r == 0.6
        assert cfg.queue_length == 20
        assert cfg.lam == 0.01
        assert cfg.n_bins == 4
        assert cfg.epsilon == 0.1
        assert cfg.sinkhorn_tol == 1e-6
        assert cfg.sinkhorn_max_iters == 1000
        assert cfg.variant == "G"

    def test_batch_size_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=2)

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 3, "lam": 0.5, "variant": "E"}))
        cfg = TrainConfig.from_file(path)
        assert (cfg.epochs, cfg.lam, cfg.variant) == (3, 0.5, "E")

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

    def test_undiscretized_cohort_rejected(self, small_cohort):
        records, prompts, _ = small_cohort
        broken = [replace(r) for r in records[:4]]
        for rec in broken:
            rec.time_bin = None
        with pytest.raises(ConfigError, match="time_bin"):
            train_fold(broken, prompts, fast_cfg())

    def test_queues_persist_across_epochs_by_default(self, small_cohort):
        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:6], prompts,
                              fast_cfg(epochs=2, queue_length=20))
        # 12 pushes against capacity 19: nothing evicted, nothing reset
        assert len(model.queue_patch) == 12
        assert len(model.queue_region) == 12

    def test_queue_reset_per_epoch_is_configurable(self, small_cohort):
        records, prompts, _ = small_cohort
        model, _ = train_fold(records[:6], prompts,
                              fast_cfg(epochs=2, queue_length=20,
                                       reset_queues_per_epoch=True))
        assert len(model.queue_patch) == 6  # only the last epoch's pushes

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
        model.head.bias.value[:] = np.nan
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
        assert len(model.queue_patch) and len(model.queue_region)
        sizes = []
        for rec in records[8:12]:
            for censor in (0, 1):
                for time_bin in range(1, model.cfg.n_bins + 1):
                    case = replace(rec, censor=censor, time_bin=time_bin)
                    loss = model.patient_loss(case, update_queues=False)
                    sizes.append(len(ad._toposort(loss)))
        assert max(sizes) <= 65

    def test_patch_constants_built_once_per_patient(self, small_cohort, monkeypatch):
        records, prompts, _ = small_cohort
        calls = {"pool": 0, "patch_prototype": 0}
        pool, make_prototype = pipeline.pool_to_regions, pipeline.make_prototype

        def counted_pool(*args):
            calls["pool"] += 1
            return pool(*args)

        def counted_prototype(selected, patient_id):
            calls["patch_prototype"] += not selected.requires_grad
            return make_prototype(selected, patient_id)

        monkeypatch.setattr(pipeline, "pool_to_regions", counted_pool)
        monkeypatch.setattr(pipeline, "make_prototype", counted_prototype)
        model, _ = train_fold(records[:6], prompts, fast_cfg(epochs=3))
        assert model.adam.step_count == 18
        assert calls == {"pool": 6, "patch_prototype": 6}
        for variant, lam in (("F", 0.01), ("G", 0.0)):
            calls["patch_prototype"] = 0
            train_fold(records[:6], prompts, fast_cfg(epochs=2, variant=variant, lam=lam))
            assert calls["patch_prototype"] == 0, variant


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
