"""Tests of the benchmark's own oracles, generator and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/test_bench.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cohort
import oracles
from tracer import Tracer
from promptsurv import alignment, fusion, metrics, pipeline
from promptsurv.data import discretize_times, load_cohort


# -- oracles against hand-computed cases ------------------------------------


def test_concordance_hand_case():
    # (risk, time, censor). Comparable pairs: (a,b) (a,c) (a,d) concordant,
    # (b,c) discordant, (b,d) concordant; c is censored, d has no later time.
    rows = [(0.9, 1.0, 0), (0.5, 2.0, 0), (0.7, 3.0, 1), (0.1, 4.0, 0)]
    assert oracles.brute_concordance(rows) == 4 / 5


def test_concordance_tie_gets_half_and_no_pairs_is_undefined():
    assert oracles.brute_concordance([(0.5, 1.0, 0), (0.5, 2.0, 0)]) == 0.5
    assert oracles.brute_concordance([(0.5, 1.0, 1), (0.2, 2.0, 0)]) is None


def test_kaplan_meier_hand_case():
    # times 1 2 2+ 3 4+: S = 4/5, then 4/5 * 3/4, then 3/5 * 1/2
    rows = [(0.0, 1.0, 0), (0.0, 2.0, 0), (0.0, 2.0, 1), (0.0, 3.0, 0), (0.0, 4.0, 1)]
    got = oracles.kaplan_meier(rows)
    assert [(t, n, d) for t, _, n, d in got] == [(1.0, 5, 1), (2.0, 4, 1), (3.0, 2, 1)]
    assert [s for _, s, _, _ in got] == pytest.approx([0.8, 0.6, 0.3], rel=1e-15)


def test_logrank_hand_case():
    # A: events at 1 and 3; B: events at 2 and 4. O-E = 1/2 - 1/3 + 1/2 = 2/3,
    # V = 1/4 + 2/9 + 1/4 = 13/18 (t=4 has one at risk), chi2 = 8/13
    group_a = [(0.0, 1.0, 0), (0.0, 3.0, 0)]
    group_b = [(0.0, 2.0, 0), (0.0, 4.0, 0)]
    chi2 = oracles.logrank_chi2(group_a, group_b)
    assert chi2 == pytest.approx(8 / 13, rel=1e-14)
    assert oracles.logrank_p(chi2) == pytest.approx(math.erfc(math.sqrt(chi2 / 2)),
                                                    rel=1e-12)


def test_logrank_undefined_cases():
    assert oracles.logrank_chi2([], [(0.0, 1.0, 0)]) is None
    assert oracles.logrank_chi2([(0.0, 1.0, 1)], [(0.0, 2.0, 1)]) is None


def test_median_split_even_count_uses_midpoint():
    rows = [(r, 1.0, 0) for r in (0.1, 0.2, 0.3, 0.4)]
    low, high = oracles.median_split(rows)
    assert [r for r, _, _ in low] == [0.1, 0.2]
    assert [r for r, _, _ in high] == [0.3, 0.4]


def test_oracles_agree_with_program_metrics():
    rng = np.random.default_rng(5)
    rows = [(float(r), float(t), int(c)) for r, t, c in
            zip(rng.normal(size=40), rng.integers(1, 15, size=40), rng.uniform(size=40) < 0.3)]
    patients = [metrics.RiskedPatient(risk=r, time=t, censor=c) for r, t, c in rows]
    assert metrics.concordance_index(patients) == oracles.brute_concordance(rows)
    low, high = oracles.median_split(rows)
    p_low, p_high = metrics.stratify_median(patients)
    assert metrics.kaplan_meier(p_low).points() == pytest.approx(oracles.kaplan_meier(low))
    chi2, p = metrics.logrank_test(p_low, p_high)
    assert chi2 == pytest.approx(oracles.logrank_chi2(low, high), rel=1e-12)
    assert p == pytest.approx(oracles.logrank_p(chi2), rel=1e-10)


# -- the generator -------------------------------------------------------------


def test_generator_is_deterministic_and_background_is_prompt_orthogonal():
    spec = cohort.CohortSpec(n_patients=4, n_regions=3, patches_per_region=4,
                             d=16, n_prompts=4, noise_sigma=0.0)
    a, b = cohort.generate(spec, 9), cohort.generate(spec, 9)
    assert all(np.array_equal(x, y) for x, y in zip(a.patch_tokens, b.patch_tokens))
    for tokens, mask in zip(a.patch_tokens, a.patch_mask):
        assert np.abs(tokens[~mask] @ a.prompts_patch.T).max() < 1e-12


def test_exact_mask_recovery_at_m128_zero_noise():
    spec = cohort.CohortSpec(n_patients=200, n_regions=8, patches_per_region=16,
                             noise_sigma=0.0)
    gen = cohort.generate(spec, 3)
    for tokens, mask in zip(gen.patch_tokens, gen.patch_mask):
        match = alignment.match_bag(tokens, gen.prompts_patch, 0.6)
        assert np.array_equal(match.selected, np.flatnonzero(mask))


def test_written_cohort_loads_through_the_program(tmp_path):
    spec = cohort.CohortSpec(n_patients=6, n_regions=2, patches_per_region=3, d=12,
                             n_prompts=4)
    gen = cohort.generate(spec, 1)
    records, prompts = load_cohort(cohort.write(gen, tmp_path))
    assert [r.patient_id for r in records] == gen.ids
    assert np.array_equal(records[2].patch_bag.tokens, gen.patch_tokens[2])
    assert np.array_equal(prompts["region"].prompts, gen.prompts_region)


# -- the tracer ------------------------------------------------------------------


@pytest.fixture
def small_cv(tmp_path):
    spec = cohort.CohortSpec(n_patients=20, n_regions=3, patches_per_region=4, d=16,
                             n_prompts=4)
    records, prompts = load_cohort(cohort.write(cohort.generate(spec, 2), tmp_path))
    discretize_times(records, 3)
    cfg = pipeline.TrainConfig(seed=1, epochs=1, n_bins=3)
    return lambda: pipeline.cross_validate(records, prompts, cfg, k=5)


def test_tracer_wraps_both_bindings_and_restores_them(small_cv):
    original = alignment.match_bag
    tracer = Tracer(n_regions=3)
    tracer.install()
    try:
        assert alignment.match_bag is not original
        assert pipeline.match_bag is alignment.match_bag
        small_cv()
    finally:
        tracer.uninstall()
    assert alignment.match_bag is original and pipeline.match_bag is original
    got = tracer.round_metrics()
    # each patient is scored in the 4 folds that train on it and the 1 that
    # holds it out; the region solve runs on every step and every prediction
    assert got["alignment.patch_solves"] == 5 * 20
    assert got["pipeline.steps"] == 5 * 16
    assert got["alignment.region_solves"] == 5 * 16 + 20
    assert got["alignment.patch_s"] > 0 and got["alignment.region_s"] > 0
    assert tracer.unmeasured() == []


def test_tracer_reports_a_missing_function_as_unmeasured(small_cv, monkeypatch):
    # as if a refactor renamed it: pipeline still calls its own binding
    monkeypatch.delattr(fusion, "pool_to_regions")
    tracer = Tracer(n_regions=3)
    tracer.install()
    try:
        small_cv()
    finally:
        tracer.uninstall()
    assert tracer.unmeasured() == ["fusion.pool_s"]
    assert tracer.round_metrics()["pipeline.steps"] == 5 * 16
