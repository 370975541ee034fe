"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a pytest failure is the FAIL line for that criterion.
"""

import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import build_cohort, read_all_bytes
import ad_chain as ad
from promptsurv.cli import main as cli_main
from promptsurv.contrast import Prototype
from promptsurv.data import SynthSpec, discretize_times, generate_synthetic
from promptsurv.alignment import TransportProblem, sinkhorn
from promptsurv.metrics import (
    RiskedPatient,
    chi_square_p_value,
    concordance_index,
    kaplan_meier,
)
from promptsurv.errors import MetricError
from promptsurv.pipeline import (
    Pipeline,
    TrainConfig,
    cross_validate,
    emit_reports,
    summarize,
)
from promptsurv.survival import nll_loss, survival_curve

REPO_ROOT = Path(__file__).resolve().parent.parent


def note(criterion: int, message: str):
    print(f"\n[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def planted_run():
    """Default desk cohort, 5-fold CV for the full pipeline and the baseline."""
    spec = SynthSpec(n_patients=200, n_regions=8, patches_per_region=16, d=32,
                     signal_fraction=0.6, noise_sigma=0.5, censor_rate=0.3,
                     seed=7)
    records, prompts, _ = generate_synthetic(spec)
    discretize_times(records, 4)
    started = time.time()
    _, summary_full = cross_validate(records, prompts,
                                     TrainConfig(seed=1, variant="G"), k=5)
    _, summary_base = cross_validate(records, prompts,
                                     TrainConfig(seed=1, variant="A"), k=5)
    elapsed = time.time() - started
    return summary_full, summary_base, elapsed


def test_criterion_1_docs_state_desk_scale_limitation():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    text = readme.lower()
    assert "not reproducible" in text
    assert "synthetic" in text
    note(1, "README states that published real-cohort C-index values are "
            "not reproducible at desk scale")


def test_criterion_2_gradient_integrity_full_graph():
    records, prompts, _ = build_cohort(
        n_patients=2, n_regions=3, patches_per_region=3, d=8, n_prompts=3,
        noise_sigma=0.2, censor_rate=0.0, seed=21, n_bins=2)
    records[1].censor = 1  # exercise both likelihood branches
    cfg = TrainConfig(seed=2, n_bins=2, variant="G")
    model = Pipeline(prompts, d=8, cfg=cfg)
    rng = np.random.default_rng(5)
    for i in range(3):  # non-empty queues so the contrastive term is active
        for queue in (model.queue_patch, model.queue_region):
            vec = rng.normal(size=8)
            queue.push(Prototype(vec / np.linalg.norm(vec), f"queued{i}"))

    def f(_params):
        total = None
        for rec in records:
            loss = model.patient_loss(rec, update_queues=False)
            total = loss if total is None else ad.add(total, loss)
        return total

    started = time.time()
    err = ad.grad_check(f, list(model.params.values()), h=1e-5)
    elapsed = time.time() - started
    n_coords = sum(p.value.size for p in model.params.values())
    assert err <= 1e-4, f"max relative gradient error {err:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    note(2, f"max rel err {err:.2e} over {n_coords} parameter coordinates "
            f"in {elapsed:.1f}s")


def test_criterion_3_sinkhorn_against_exact_transport():
    def lp_cost(cost, u, v):
        m, n = cost.shape
        a_eq, b_eq = [], []
        for i in range(m):
            row = np.zeros(m * n)
            row[i * n:(i + 1) * n] = 1.0
            a_eq.append(row)
            b_eq.append(u[i])
        for j in range(n - 1):
            col = np.zeros(m * n)
            col[j::n] = 1.0
            a_eq.append(col)
            b_eq.append(v[j])
        res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                      bounds=(0, None), method="highs")
        assert res.success
        return float(res.fun)

    rng = np.random.default_rng(20240515)
    epsilon = 0.1
    worst_residual = 0.0
    worst_excess = -np.inf
    started = time.time()
    for trial in range(100):
        m, n = (2, 2) if trial % 2 == 0 else (3, 3)
        cost = rng.uniform(0.0, 2.0, size=(m, n))
        u = rng.dirichlet(np.ones(m))
        v = rng.dirichlet(np.ones(n))
        res = sinkhorn(TransportProblem(cost=cost, u=u, v=v, epsilon=epsilon))
        assert res.converged
        residual = max(np.abs(res.plan.sum(axis=1) - u).max(),
                       np.abs(res.plan.sum(axis=0) - v).max())
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-6
        gap_bound = epsilon * m * n * abs(math.log(m * n))
        excess = res.cost_value - lp_cost(cost, u, v)
        worst_excess = max(worst_excess, excess)
        assert excess <= gap_bound
    elapsed = time.time() - started
    assert elapsed < 5.0, f"sinkhorn suite took {elapsed:.1f}s"
    note(3, f"100 instances: worst residual {worst_residual:.2e}, worst cost "
            f"excess {worst_excess:.3f} within entropic bound, {elapsed:.1f}s")


def test_criterion_4_metric_oracles():
    # concordance vs exhaustive pairwise enumeration, exact equality
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        pats = [RiskedPatient(risk=float(r), time=float(t), censor=int(c))
                for r, t, c in zip(rng.choice([0.1, 0.3, 0.3, 0.7, 0.9], size=n),
                                   rng.integers(1, 9, size=n).astype(float),
                                   rng.integers(0, 2, size=n))]
        weight, pairs = 0.0, 0
        for i in range(n):
            for j in range(n):
                if i == j or pats[i].censor != 0 or not pats[i].time < pats[j].time:
                    continue
                pairs += 1
                if pats[i].risk > pats[j].risk:
                    weight += 1.0
                elif pats[i].risk == pats[j].risk:
                    weight += 0.5
        if pairs == 0:
            with pytest.raises(MetricError):
                concordance_index(pats)
            continue
        assert concordance_index(pats) == weight / pairs
        checked += 1
    assert checked >= 150

    # product-limit on the documented textbook instance (censored at t=3)
    pats = [RiskedPatient(risk=0.0, time=float(t), censor=int(c))
            for t, c in zip([1, 2, 3, 4, 5, 6], [0, 0, 1, 0, 0, 0])]
    curve = kaplan_meier(pats)
    expected = np.array([5 / 6, 2 / 3, 4 / 9, 2 / 9, 0.0])
    assert np.abs(curve.survival - expected).max() <= 1e-12

    # chi-square critical value
    p_value = chi_square_p_value(3.841)
    assert abs(p_value - 0.05) <= 1e-3
    note(4, f"CI exact on {checked} random cohorts; KM textbook max dev "
            f"{np.abs(curve.survival - expected).max():.1e}; "
            f"p(3.841) = {p_value:.5f}")


def test_criterion_5_survival_formula_conformance():
    s = survival_curve(ad.constant([[0.2, 0.5]]))
    assert np.array_equal(s.value, np.array([[0.8, 0.4]]))

    h = ad.constant([[0.5, 0.5]])
    loss = nll_loss(h, survival_curve(h), censor=0, time_bin=2)
    assert loss.value[0, 0] == 2.0 * math.log(2.0)

    censored = nll_loss(h, survival_curve(h), censor=1, time_bin=1)
    assert censored.value[0, 0] == -math.log(0.5)
    note(5, "survival curve [0.8, 0.4] and event loss 2 ln 2 reproduced exactly")


def test_criterion_6_planted_signal_recovery(planted_run):
    summary_full, summary_base, elapsed = planted_run
    mean_full = summary_full["mean_ci"]
    mean_base = summary_base["mean_ci"]
    assert mean_full >= 0.70, f"full pipeline mean CI {mean_full:.3f}"
    assert mean_full - mean_base >= 0.03, (
        f"gap {mean_full - mean_base:.3f} (full {mean_full:.3f}, "
        f"baseline {mean_base:.3f})")
    assert elapsed <= 300.0, f"planted run took {elapsed:.0f}s"
    note(6, f"full {summary_full['formatted']} vs baseline "
            f"{summary_base['formatted']}, gap "
            f"{mean_full - mean_base:.3f}, {elapsed:.0f}s")


def test_readme_library_example_prints_the_planted_run_summary(planted_run):
    # the README's library example cross-validates SynthSpec(seed=7), the
    # fixture's cohort, with TrainConfig(seed=1, variant="G") over 5 folds;
    # its memo only reuses exact selections
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    printed = re.search(r'print\(summary\["formatted"\]\) +# e\.g\. "(.+)"', readme)
    assert printed, "README library example lost its printed summary"
    summary_full, _, _ = planted_run
    assert printed.group(1) == summary_full["formatted"]


def test_criterion_7_cv_cli_byte_identical(tmp_path):
    records, prompts, _ = build_cohort(n_patients=30, seed=17)
    from promptsurv.data import write_cohort
    manifest = write_cohort(records, prompts, tmp_path / "cohort")
    args = ["cv", "--manifest", str(manifest), "--folds", "5",
            "--epochs", "2", "--n-bins", "3", "--seed", "123"]
    assert cli_main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "run2")]) == 0
    names = ["summary.csv", "risks.csv", "km.csv", "loss_trace.csv",
             "selections.csv", "metadata.json"]
    for name in names:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    note(7, f"two cv runs produced byte-identical {', '.join(names)}")


def test_criterion_8_ablation_lattice_and_metadata_defaults(tmp_path):
    records, prompts, _ = build_cohort(n_patients=24, seed=29)
    cfg_g = TrainConfig(epochs=2, seed=31, n_bins=3, variant="G")
    cfg_f_plus = replace(cfg_g, variant="F", switch_overrides={"use_contrast": True})
    out_g, out_f = tmp_path / "g", tmp_path / "f_plus_contrast"
    reports_g, summary_g = cross_validate(records, prompts, cfg_g, k=3)
    reports_f, summary_f = cross_validate(records, prompts, cfg_f_plus, k=3)
    paths_g = emit_reports(reports_g, summary_g, cfg_g, out_g)
    paths_f = emit_reports(reports_f, summary_f, cfg_f_plus, out_f)
    bytes_g = read_all_bytes(paths_g)
    bytes_f = read_all_bytes(paths_f)
    for name in bytes_g:
        if name == "metadata.json":
            continue  # records the requested variant letter by design
        assert bytes_g[name] == bytes_f[name], f"{name} differs"
    import json
    meta_f = json.loads((out_f / "metadata.json").read_text())
    meta_g = json.loads((out_g / "metadata.json").read_text())
    assert meta_f["config"]["switches"] == meta_g["config"]["switches"]
    assert meta_f["summary"] == meta_g["summary"]

    # defaults in emitted metadata match the cited hyperparameters
    default_cfg = TrainConfig()
    emit_reports([], summarize([]), default_cfg, tmp_path / "defaults")
    meta = json.loads((tmp_path / "defaults" / "metadata.json").read_text())
    config = meta["config"]
    assert config["r"] == 0.6
    assert config["queue_length"] == 20
    assert config["lambda"] == 0.01
    assert config["lr"] == 2e-4
    assert config["epochs"] == 20
    assert config["batch_size"] == 1
    note(8, "variant F with the contrastive switch reproduces variant G "
            "byte-for-byte; metadata defaults r=0.6, B=20, lambda=0.01, "
            "lr=2e-4, epochs=20, batch=1")
