import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import run_without_scipy
from promptsurv.errors import DegenerateInputError, MetricError, PromptsurvError
from promptsurv.metrics import (
    KMCurve,
    RiskedPatient,
    chi_square_p_value,
    concordance_index,
    kaplan_meier,
    logrank_test,
    stratify_median,
)


# chi_square_p_value on 0, 81 points in [1e-8, 1], 2000 in (0, 1000] and inf,
# then on NaN and on a negative value; floats travel as hex, so bit for bit
P_VALUE_GRID_SCRIPT = """
import json, math
import numpy as np
from promptsurv.errors import MetricError
from promptsurv.metrics import chi_square_p_value as p
grid = [0.0, *np.geomspace(1e-8, 1.0, 81), *np.linspace(0.0, 1000.0, 2001)[1:], math.inf]
try:
    negative = f"returned {p(-1e-300)}"
except MetricError as exc:
    negative = str(exc)
print(json.dumps({"x": [float(x).hex() for x in grid],
                  "p": [p(x).hex() for x in grid],
                  "nan": repr(p(math.nan)), "negative": negative}))
"""


def patients_from(risks, times, censors):
    return [RiskedPatient(risk=float(r), time=float(t), censor=int(c))
            for r, t, c in zip(risks, times, censors)]


def ci_oracle(patients):
    """Exhaustive pairwise concordance, written against the definition."""
    weight = 0.0
    pairs = 0
    n = len(patients)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            early, late = patients[i], patients[j]
            if early.censor == 0 and early.time < late.time:
                pairs += 1
                if early.risk > late.risk:
                    weight += 1.0
                elif early.risk == late.risk:
                    weight += 0.5
    return weight / pairs


def km_reference(patients):
    """kaplan_meier as one rescan of every patient per distinct event time."""
    if not patients:
        raise MetricError("kaplan_meier needs at least one patient")
    times = np.array([p.time for p in patients])
    events = np.array([p.censor == 0 for p in patients])
    event_times = np.unique(times[events])
    surv = []
    at_risk = []
    died = []
    s = 1.0
    for t in event_times:
        n = int(np.sum(times >= t))
        d = int(np.sum(events & (times == t)))
        s *= 1.0 - d / n
        at_risk.append(n)
        died.append(d)
        surv.append(s)
    return KMCurve(
        times=event_times.astype(np.float64),
        survival=np.array(surv, dtype=np.float64),
        at_risk=np.array(at_risk, dtype=np.int64),
        events=np.array(died, dtype=np.int64),
    )


def logrank_reference(group_a, group_b):
    """logrank_test as one rescan of both groups per pooled event time."""
    if not group_a or not group_b:
        raise MetricError("logrank_test needs two nonempty groups")
    times_a = np.array([p.time for p in group_a])
    times_b = np.array([p.time for p in group_b])
    ev_a = np.array([p.censor == 0 for p in group_a])
    ev_b = np.array([p.censor == 0 for p in group_b])
    if not (ev_a.any() or ev_b.any()):
        raise MetricError("logrank_test needs at least one event")
    event_times = np.unique(np.concatenate([times_a[ev_a], times_b[ev_b]]))
    observed_minus_expected = 0.0
    variance = 0.0
    for t in event_times:
        n_a = int(np.sum(times_a >= t))
        n_b = int(np.sum(times_b >= t))
        d_a = int(np.sum(ev_a & (times_a == t)))
        d_b = int(np.sum(ev_b & (times_b == t)))
        n = n_a + n_b
        d = d_a + d_b
        if n < 2 or d == 0:
            continue
        expected_a = d * n_a / n
        observed_minus_expected += d_a - expected_a
        variance += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
    if variance == 0.0:
        raise DegenerateInputError("logrank_test: zero variance (no informative times)")
    chi_square = observed_minus_expected ** 2 / variance
    return float(chi_square), chi_square_p_value(chi_square)


def outcome(fn, *args):
    """What fn(*args) returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except PromptsurvError as exc:
        return "raised", type(exc), str(exc)


def assert_same_bits(got, want):
    if isinstance(want, KMCurve):
        assert isinstance(got, KMCurve)
        for field in ("times", "survival", "at_risk", "events"):
            mine, ref = getattr(got, field), getattr(want, field)
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref), field
    else:  # (chi^2, p) as Python floats, or the raised class and message
        assert [type(x) for x in got] == [type(x) for x in want]
        assert got == want


def assert_matches_loops(group_a, group_b):
    for group in (group_a, group_b, group_a + group_b):
        assert_same_bits(outcome(kaplan_meier, group), outcome(km_reference, group))
    assert_same_bits(outcome(logrank_test, group_a, group_b),
                     outcome(logrank_reference, group_a, group_b))


class TestRiskedPatient:
    @pytest.mark.parametrize("risk, time, censor", [
        (0.5, float("nan"), 0), (0.5, float("inf"), 0), (0.5, 0.0, 0),
        (float("nan"), 1.0, 0), (float("inf"), 1.0, 0), (float("-inf"), 1.0, 0),
        (0.5, 1.0, 2),
    ])
    def test_rejects_invalid_row(self, risk, time, censor):
        with pytest.raises(MetricError):
            RiskedPatient(risk=risk, time=time, censor=censor)


class TestConcordance:
    def test_perfect_ranking(self):
        pats = patients_from([3, 2, 1], [1, 2, 3], [0, 0, 0])
        assert concordance_index(pats) == 1.0

    def test_inverted_ranking(self):
        pats = patients_from([1, 2, 3], [1, 2, 3], [0, 0, 0])
        assert concordance_index(pats) == 0.0

    def test_mixed_censoring_matches_oracle(self):
        pats = patients_from([0.3, 0.9, 0.1, 0.5, 0.9, 0.2],
                             [5.0, 1.0, 8.0, 3.0, 2.0, 8.5],
                             [0, 0, 1, 0, 1, 0])
        assert concordance_index(pats) == ci_oracle(pats)

    def test_random_cohorts_match_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            pats = patients_from(
                rng.choice([0.1, 0.2, 0.5, 0.8], size=n),  # ties likely
                rng.integers(1, 8, size=n).astype(float),
                rng.integers(0, 2, size=n),
            )
            try:
                ours = concordance_index(pats)
            except MetricError:
                with pytest.raises(ZeroDivisionError):
                    ci_oracle(pats)
                continue
            assert ours == ci_oracle(pats)  # exact equality, halves are exact

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        risks = rng.normal(size=10)
        times = rng.uniform(1, 10, size=10)
        censors = rng.integers(0, 2, size=10)
        base = concordance_index(patients_from(risks, times, censors))
        mapped = concordance_index(patients_from(np.exp(3 * risks), times, censors))
        assert base == mapped

    def test_risk_equal_to_negative_time_is_perfect(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(1, 20, size=12)
        pats = patients_from(-times, times, np.zeros(12))
        assert concordance_index(pats) == 1.0
        pats = patients_from(times, times, np.zeros(12))
        assert concordance_index(pats) == 0.0

    def test_no_comparable_pairs(self):
        with pytest.raises(MetricError):
            concordance_index(patients_from([1, 2], [3, 4], [1, 1]))


class TestKaplanMeier:
    def test_all_censored_flat_one(self):
        curve = kaplan_meier(patients_from([1, 2], [3.0, 5.0], [1, 1]))
        assert curve.times.size == 0

    def test_three_events(self):
        curve = kaplan_meier(patients_from([0, 0, 0], [1.0, 2.0, 3.0], [0, 0, 0]))
        assert curve.survival == pytest.approx(np.array([2 / 3, 1 / 3, 0.0]),
                                               abs=1e-15)

    def test_textbook_six_subjects_one_censored(self):
        # subjects at t = 1,2,3,4,5,6; the one at t=3 is censored.
        # product-limit by hand:
        #   t=1: S = 5/6
        #   t=2: S = 5/6 * 4/5 = 2/3       (censored subject leaves after t=3)
        #   t=4: S = 2/3 * 2/3 = 4/9
        #   t=5: S = 4/9 * 1/2 = 2/9
        #   t=6: S = 0
        pats = patients_from([0] * 6, [1, 2, 3, 4, 5, 6], [0, 0, 1, 0, 0, 0])
        curve = kaplan_meier(pats)
        assert curve.times.tolist() == [1.0, 2.0, 4.0, 5.0, 6.0]
        expected = np.array([5 / 6, 2 / 3, 4 / 9, 2 / 9, 0.0])
        assert np.abs(curve.survival - expected).max() <= 1e-12
        assert curve.at_risk.tolist() == [6, 5, 3, 2, 1]
        assert curve.events.tolist() == [1, 1, 1, 1, 1]

    def test_matches_empirical_survival_without_censoring(self):
        rng = np.random.default_rng(3)
        times = rng.integers(1, 10, size=40).astype(float)
        curve = kaplan_meier(patients_from(np.zeros(40), times, np.zeros(40)))
        for t, s in zip(curve.times, curve.survival):
            assert s == pytest.approx(np.mean(times > t), abs=1e-12)

    def test_censored_at_event_time_stays_at_risk(self):
        # event and censoring both at t=2: the censored subject counts in n
        pats = patients_from([0, 0, 0], [2.0, 2.0, 3.0], [0, 1, 0])
        curve = kaplan_meier(pats)
        assert curve.at_risk.tolist() == [3, 1]
        assert curve.survival == pytest.approx(np.array([2 / 3, 0.0]), abs=1e-15)

    def test_nonincreasing(self):
        rng = np.random.default_rng(4)
        pats = patients_from(np.zeros(30), rng.uniform(1, 10, 30),
                             rng.integers(0, 2, 30))
        curve = kaplan_meier(pats)
        assert np.all(np.diff(curve.survival) <= 1e-15)


class TestLogrank:
    def test_identical_groups(self):
        group = patients_from([0, 0, 0], [1.0, 2.0, 3.0], [0, 0, 1])
        chi2, p = logrank_test(group, list(group))
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_critical_value_maps_to_p05(self):
        assert chi_square_p_value(3.841) == pytest.approx(0.05, abs=1e-3)

    def test_p_value_without_scipy_matches_chi2_sf(self, tmp_path):
        # computed where scipy cannot be imported, checked against scipy here
        done = run_without_scipy(P_VALUE_GRID_SCRIPT, tmp_path)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        grid = np.array([float.fromhex(x) for x in out["x"]])
        got = np.array([float.fromhex(p) for p in out["p"]])
        assert grid[0] == 0.0 and grid[-2] == 1000.0 and grid[-1] == math.inf
        assert got[0] == 1.0 and got[-1] == 0.0
        np.testing.assert_allclose(got, chi2.sf(grid, 1), rtol=1e-12, atol=0.0)
        assert out["nan"] == "nan"
        assert "chi-square statistic must be >= 0" in out["negative"]

    def test_disjoint_time_ranges_match_hand_table(self):
        # A dies at 1,2; B dies at 3,4. Hand O-E/variance:
        #   t=1: n=(2,2) d_a=1 E_a=1/2  V=1/4
        #   t=2: n=(1,2) d_a=1 E_a=1/3  V=2/9
        #   t=3: n=(0,2) d_b=1 E_a=0    V=0
        #   t=4: n=1 -> skipped
        # chi2 = (1/2 + 2/3)^2 / (1/4 + 2/9) = 49/17
        group_a = patients_from([0, 0], [1.0, 2.0], [0, 0])
        group_b = patients_from([0, 0], [3.0, 4.0], [0, 0])
        chi2, p = logrank_test(group_a, group_b)
        assert chi2 == pytest.approx(49.0 / 17.0, abs=1e-12)
        assert 0.0 <= p <= 1.0

    def test_symmetric_under_group_swap(self):
        rng = np.random.default_rng(5)
        a = patients_from(np.zeros(12), rng.uniform(1, 10, 12), rng.integers(0, 2, 12))
        b = patients_from(np.zeros(9), rng.uniform(1, 10, 9), rng.integers(0, 2, 9))
        chi_ab, p_ab = logrank_test(a, b)
        chi_ba, p_ba = logrank_test(b, a)
        assert chi_ab == pytest.approx(chi_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)
        assert chi_ab >= 0.0

    def test_zero_variance_is_degenerate(self):
        a = patients_from([0], [5.0], [0])
        b = patients_from([0], [5.0], [0])
        # single shared event time with n=2: variance formula gives d(n-d)=0
        with pytest.raises(DegenerateInputError):
            logrank_test(a, b)

    def test_empty_group_rejected(self):
        with pytest.raises(MetricError):
            logrank_test([], patients_from([0], [1.0], [0]))


class TestEventTable:
    """kaplan_meier and logrank_test count each risk set once, by sorted
    search; every result keeps the bits of the per-time loops above."""

    def test_random_cohorts_with_tied_times(self):
        rng = np.random.default_rng(23)
        for trial in range(400):
            n = int(rng.integers(2, 30))
            times = (rng.integers(1, 8, size=n) if trial % 2 else
                     np.round(rng.uniform(0.1, 5.0, size=n), 1))
            pats = patients_from(rng.normal(size=n), times,
                                 rng.random(n) < rng.random())
            split = int(rng.integers(1, n))
            assert_matches_loops(pats[:split], pats[split:])

    @pytest.mark.parametrize("group_a, group_b", [
        # all censored: no curve, and a test with no event at all
        (([0, 0], [3.0, 5.0], [1, 1]), ([0, 0], [2.0, 5.0], [1, 1])),
        # one group all censored, the other with tied events
        (([0, 0], [3.0, 5.0], [1, 1]), ([0, 0, 0], [2.0, 2.0, 4.0], [0, 0, 0])),
        # single-patient groups: one shared event time, then two apart
        (([0], [5.0], [0]), ([0], [5.0], [0])),
        (([0], [1.0], [0]), ([0], [4.0], [0])),
        (([0], [5.0], [0]), ([0], [1.0], [1])),
        # the last event time has one subject at risk
        (([0, 0, 0], [1.0, 2.0, 6.0], [0, 1, 0]), ([0, 0], [1.0, 3.0], [0, 0])),
        # an event and a censoring at the same time
        (([0, 0], [2.0, 2.0], [0, 1]), ([0, 0], [2.0, 3.0], [1, 0])),
        # an empty group
        (([], [], []), ([0], [1.0], [0])),
    ])
    def test_edge_cases(self, group_a, group_b):
        assert_matches_loops(patients_from(*group_a), patients_from(*group_b))

    def test_twenty_thousand_patient_median_split(self):
        rng = np.random.default_rng(20000)
        n = 20_000
        pats = patients_from(rng.normal(size=n), np.round(rng.uniform(0.1, 50.0, size=n), 2),
                             rng.random(n) < 0.3)
        low, high = stratify_median(pats)
        assert len(low) == len(high) == n // 2
        assert_matches_loops(low, high)


class TestStratifyMedian:
    def test_even_count(self):
        pats = patients_from([1, 2, 3, 4], [1, 1, 1, 1], [0, 0, 0, 0])
        low, high = stratify_median(pats)
        assert sorted(p.risk for p in low) == [1.0, 2.0]
        assert sorted(p.risk for p in high) == [3.0, 4.0]

    def test_odd_count_median_goes_low(self):
        pats = patients_from([1, 2, 3], [1, 1, 1], [0, 0, 0])
        low, high = stratify_median(pats)
        assert sorted(p.risk for p in low) == [1.0, 2.0]
        assert [p.risk for p in high] == [3.0]

    def test_all_equal_risks_warn(self):
        pats = patients_from([5, 5, 5], [1, 2, 3], [0, 0, 0])
        with pytest.warns(UserWarning):
            low, high = stratify_median(pats)
        assert len(low) == 3 and high == []

    def test_needs_two_patients(self):
        with pytest.raises(MetricError):
            stratify_median(patients_from([1], [1.0], [0]))
