import json

import numpy as np
import pytest

from promptsurv.data import (
    PATCH,
    REGION,
    FeatureBag,
    PatientRecord,
    SynthSpec,
    discretize_times,
    generate_synthetic,
    load_cohort,
    read_matrix,
    top_count,
    write_cohort,
    write_matrix,
)
from promptsurv.errors import ConfigError, DataValidationError


def small_spec(**overrides):
    base = dict(n_patients=12, n_regions=4, patches_per_region=6, d=16,
                n_prompts_patch=4, n_prompts_region=4, seed=7)
    base.update(overrides)
    return SynthSpec(**base)


def make_record(pid, censor, time, time_bin=None):
    tokens = np.full((2, 3), 0.5)
    return PatientRecord(
        patient_id=pid, censor=censor, time=time, time_bin=time_bin,
        patch_bag=FeatureBag(PATCH, tokens, [0, 1]),
        region_bag=FeatureBag(REGION, np.full((2, 3), 0.25)),
    )


class TestSynthGenerator:
    def test_deterministic_under_seed(self):
        rec_a, prompts_a, truth_a = generate_synthetic(small_spec())
        rec_b, prompts_b, truth_b = generate_synthetic(small_spec())
        assert len(rec_a) == len(rec_b) == 12
        for a, b in zip(rec_a, rec_b):
            assert a.patch_bag.tokens.tobytes() == b.patch_bag.tokens.tobytes()
            assert a.region_bag.tokens.tobytes() == b.region_bag.tokens.tobytes()
            assert a.time == b.time and a.censor == b.censor
        assert prompts_a[PATCH].prompts.tobytes() == prompts_b[PATCH].prompts.tobytes()
        assert truth_a.risks.tobytes() == truth_b.risks.tobytes()

    def test_noiseless_uncensored_rank_correlation_is_minus_one(self):
        records, _, truth = generate_synthetic(
            small_spec(noise_sigma=0.0, censor_rate=0.0))
        times = np.array([r.time for r in records])
        rank_t = np.argsort(np.argsort(times))
        rank_rho = np.argsort(np.argsort(truth.risks))
        corr = np.corrcoef(rank_t, rank_rho)[0, 1]
        assert corr == pytest.approx(-1.0)

    def test_uncensored_times_strictly_decrease_in_risk(self):
        records, _, truth = generate_synthetic(small_spec(censor_rate=0.0))
        order = np.argsort(truth.risks)
        times = np.array([records[i].time for i in order])
        assert np.all(np.diff(times) < 0.0)

    def test_region_tokens_are_child_mean_plus_component(self):
        spec = small_spec()
        records, _, truth = generate_synthetic(spec)
        for i, rec in enumerate(records):
            child_means = rec.patch_bag.tokens.reshape(
                spec.n_regions, spec.patches_per_region, spec.d).mean(axis=1)
            expected = child_means + truth.region_components[i]
            assert np.array_equal(rec.region_bag.tokens, expected)

    def test_signal_mask_sizes_follow_selection_rule(self):
        spec = small_spec(signal_fraction=0.6)
        _, _, truth = generate_synthetic(spec)
        assert truth.patch_signal.sum(axis=1).tolist() == \
            [top_count(spec.m_patches, 0.6)] * spec.n_patients
        assert truth.region_signal.sum(axis=1).tolist() == \
            [top_count(spec.n_regions, 0.6)] * spec.n_patients

    def test_parent_map_is_block_structured(self):
        records, _, _ = generate_synthetic(small_spec())
        parents = records[0].patch_bag.parent_region
        assert np.array_equal(parents, np.repeat(np.arange(4), 6))

    def test_censoring_rate_and_time_bounds(self):
        records, _, truth = generate_synthetic(
            small_spec(n_patients=400, censor_rate=0.4))
        censored = np.array([r.censor for r in records], dtype=bool)
        assert 0.3 < censored.mean() < 0.5
        for rec, t_event in zip(records, truth.event_times):
            assert 0.0 < rec.time <= t_event
            if rec.censor == 0:
                assert rec.time == t_event

    def test_prompt_dimension_floor_enforced(self):
        with pytest.raises(ConfigError, match="d="):
            small_spec(d=5)


class TestCohortIO:
    def test_matrix_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(7, 5))
        path = tmp_path / "m.mat"
        write_matrix(path, mat)
        back = read_matrix(path)
        assert back.tobytes() == mat.tobytes()

    def test_cohort_roundtrip_bit_exact(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=3))
        manifest = write_cohort(records, prompts, tmp_path / "cohort")
        loaded, loaded_prompts = load_cohort(manifest)
        assert len(loaded) == 3
        for orig, back in zip(records, loaded):
            assert back.patient_id == orig.patient_id
            assert back.censor == orig.censor
            assert back.time == orig.time
            assert back.patch_bag.tokens.tobytes() == orig.patch_bag.tokens.tobytes()
            assert back.region_bag.tokens.tobytes() == orig.region_bag.tokens.tobytes()
            assert np.array_equal(back.patch_bag.parent_region,
                                  orig.patch_bag.parent_region)
        for level in (PATCH, REGION):
            assert loaded_prompts[level].prompts.tobytes() == \
                prompts[level].prompts.tobytes()

    def test_happy_path_two_patients(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=2))
        manifest = write_cohort(records, prompts, tmp_path)
        loaded, _ = load_cohort(manifest)
        assert [r.patient_id for r in loaded] == ["p0000", "p0001"]

    def test_dimension_mismatch_names_both_files(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        # rewrite the patch prompt file with a different dimension
        write_matrix(tmp_path / "prompts_patch.mat", np.ones((4, 32)))
        with pytest.raises(DataValidationError) as err:
            load_cohort(manifest)
        assert "prompts_patch.mat" in str(err.value)
        assert "d=32" in str(err.value) and "d=16" in str(err.value)

    def test_missing_embedding_file(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        (tmp_path / "p0000_patch.mat").unlink()
        with pytest.raises(DataValidationError, match="missing"):
            load_cohort(manifest)

    def test_parent_out_of_range(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        with open(tmp_path / "p0000_parents.txt", "w") as fh:
            fh.write("99\n" * 24)
        with pytest.raises(DataValidationError, match="out of range"):
            load_cohort(manifest)

    def test_nonfinite_entry_rejected(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        bad = records[0].patch_bag.tokens.copy()
        bad[0, 0] = np.nan
        write_matrix(tmp_path / "p0000_patch.mat", bad)
        with pytest.raises(DataValidationError, match="non-finite"):
            load_cohort(manifest)

    def test_duplicate_patient_id_rejected(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=3))
        manifest = write_cohort(records, prompts, tmp_path)
        raw = json.loads(manifest.read_text())
        raw["patients"][2]["id"] = "p0000"
        manifest.write_text(json.dumps(raw))
        with pytest.raises(DataValidationError, match="duplicate patient id 'p0000'"):
            load_cohort(manifest)

    def test_prompts_optional_in_manifest(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=2))
        manifest = write_cohort(records, prompts, tmp_path)
        raw = json.loads(manifest.read_text())
        raw["prompts"] = {}
        manifest.write_text(json.dumps(raw))
        loaded, loaded_prompts = load_cohort(manifest)
        assert len(loaded) == 2 and loaded_prompts == {}


class TestManifestTypes:
    @pytest.fixture
    def manifest(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=2))
        return write_cohort(records, prompts, tmp_path)

    def rewrite(self, manifest, edit):
        raw = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(edit(raw)))

    @pytest.mark.parametrize("key, value", [
        ("id", 5), ("censor", "0"), ("censor", False), ("censor", 0.0),
        ("time", "34.2"), ("time", None), ("time", True), ("patch", 3),
        ("parents", None), ("time_bin", "2"), ("time_bin", 2.0),
    ])
    def test_entry_key_of_wrong_type_names_file_entry_and_key(self, manifest, key, value):
        def edit(raw):
            raw["patients"][1][key] = value
            return raw
        self.rewrite(manifest, edit)
        with pytest.raises(DataValidationError) as err:
            load_cohort(manifest)
        assert f"patient field {key} in entry 1 of {manifest} " in str(err.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["patients"], "manifest in"),
        (lambda raw: {**raw, "patients": {"p0000": {}}}, "manifest field patients"),
        (lambda raw: {**raw, "prompts": ["a.mat"]}, "manifest field prompts"),
        (lambda raw: {**raw, "prompts": {"patch": 1}}, "prompts field patch"),
        (lambda raw: {**raw, "patients": [["p0000"]]}, "patient in entry 0"),
    ])
    def test_container_of_wrong_type_rejected(self, manifest, edit, message):
        self.rewrite(manifest, edit)
        with pytest.raises(DataValidationError, match=message):
            load_cohort(manifest)

    def test_missing_key_names_entry(self, manifest):
        def edit(raw):
            del raw["patients"][1]["parents"]
            return raw
        self.rewrite(manifest, edit)
        with pytest.raises(DataValidationError, match=r"entry 1 .* lacks fields \['parents'\]"):
            load_cohort(manifest)

    @pytest.mark.parametrize("content", [b'{"patients": [', b'{"note": "\xff"}'])
    def test_invalid_json_rejected(self, manifest, content):
        manifest.write_bytes(content)
        with pytest.raises(DataValidationError, match="not valid JSON"):
            load_cohort(manifest)

    def test_non_ascii_parent_map_rejected(self, manifest, tmp_path):
        (tmp_path / "p0001_parents.txt").write_bytes(b"0\n\xff\n")
        with pytest.raises(DataValidationError, match="p0001_parents.txt"):
            load_cohort(manifest)

    def test_int_time_unknown_keys_and_null_prompt_accepted(self, manifest):
        def edit(raw):
            raw["patients"][0].update(time=12, time_bin=None, site="A")
            raw["prompts"]["region"] = None
            raw["note"] = "unread"
            return raw
        self.rewrite(manifest, edit)
        records, prompts = load_cohort(manifest)
        assert records[0].time == 12.0 and isinstance(records[0].time, float)
        assert records[0].time_bin is None
        assert set(prompts) == {PATCH}


class TestDiscretizer:
    def test_distinct_times_get_distinct_bins(self):
        records = [make_record(f"p{i}", 0, t) for i, t in enumerate([1.0, 2.0, 3.0, 4.0])]
        discretize_times(records, 4)
        assert [r.time_bin for r in records] == [1, 2, 3, 4]

    def test_all_equal_times_warn_and_collapse(self):
        records = [make_record(f"p{i}", 0, 5.0) for i in range(4)]
        with pytest.warns(UserWarning, match="equal"):
            discretize_times(records, 3)
        assert all(r.time_bin == 1 for r in records)

    def test_edges_from_uncensored_only_against_quantile_oracle(self):
        rng = np.random.default_rng(9)
        times = rng.uniform(1.0, 50.0, size=40)
        censors = (rng.uniform(size=40) < 0.4).astype(int)
        records = [make_record(f"p{i}", int(c), float(t))
                   for i, (t, c) in enumerate(zip(times, censors))]
        edges = discretize_times(records, 4)
        uncensored = np.sort(times[censors == 0])
        oracle = np.quantile(uncensored, [0.25, 0.5, 0.75])
        assert edges == pytest.approx(oracle, abs=0.0)
        for rec in records:
            assert rec.time_bin == 1 + int(np.sum(oracle < rec.time))

    def test_monotone_in_time(self):
        rng = np.random.default_rng(10)
        times = rng.uniform(1.0, 30.0, size=25)
        records = [make_record(f"p{i}", 0, float(t)) for i, t in enumerate(times)]
        discretize_times(records, 5)
        by_time = sorted(records, key=lambda r: r.time)
        bins = [r.time_bin for r in by_time]
        assert bins == sorted(bins)

    def test_too_few_uncensored_is_config_error(self):
        records = [make_record("a", 1, 1.0), make_record("b", 0, 2.0)]
        with pytest.raises(ConfigError, match="uncensored"):
            discretize_times(records, 2)

    def test_needs_at_least_two_bins(self):
        with pytest.raises(ConfigError):
            discretize_times([make_record("a", 0, 1.0)], 1)


class TestValidation:
    def test_censor_must_be_binary(self):
        with pytest.raises(DataValidationError, match="censor"):
            make_record("p", 2, 1.0)

    def test_time_must_be_positive(self):
        with pytest.raises(DataValidationError, match="time"):
            make_record("p", 0, 0.0)

    def test_bag_parent_length_must_match(self):
        with pytest.raises(DataValidationError, match="parent"):
            FeatureBag(PATCH, np.ones((3, 2)), [0, 1])

    def test_synth_spec_field_ranges(self):
        with pytest.raises(ConfigError):
            small_spec(signal_fraction=0.0)
        with pytest.raises(ConfigError):
            small_spec(censor_rate=1.0)
        with pytest.raises(ConfigError):
            small_spec(n_regions=0)
