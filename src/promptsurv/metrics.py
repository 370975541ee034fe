"""Censoring-aware survival evaluation.

Implements the concordance index with the standard 0.5 tie credit, the
product-limit survival estimator, the two-group log-rank test, and
median-risk stratification. Conventions: censor = 0 means the event was
observed, censor = 1 means right-censored; censored subjects at time t
remain at risk for events occurring exactly at t. The log-rank p-value
is the closed form erfc(sqrt(x/2)), so no special-function library is needed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, MetricError


@dataclass
class RiskedPatient:
    """One evaluated patient: predicted risk, observed time, censor flag."""

    risk: float
    time: float
    censor: int

    def __post_init__(self):
        if not math.isfinite(self.risk):
            raise MetricError(f"risk must be finite, got {self.risk}")
        if not (math.isfinite(self.time) and self.time > 0.0):
            raise MetricError(f"time must be finite and > 0, got {self.time}")
        if self.censor not in (0, 1):
            raise MetricError(f"censor must be 0 or 1, got {self.censor}")


@dataclass
class KMCurve:
    """Product-limit estimate evaluated after each distinct event time."""

    times: np.ndarray      # distinct event times, ascending
    survival: np.ndarray   # S just after each event time
    at_risk: np.ndarray    # subjects at risk entering each event time
    events: np.ndarray     # events at each time

    def points(self) -> list[tuple[float, float, int, int]]:
        """(time, survival, at_risk, events) rows for step-function export."""
        return [
            (float(t), float(s), int(n), int(d))
            for t, s, n, d in zip(self.times, self.survival, self.at_risk, self.events)
        ]


def concordance_index(patients: list[RiskedPatient]) -> float:
    """Fraction of comparable pairs ranked concordantly by risk.

    A pair (i, j) is comparable when time_i < time_j and patient i is
    uncensored; it counts 1 when risk_i > risk_j, 0.5 on a risk tie.
    """
    concordant = 0.0
    comparable = 0
    for i, a in enumerate(patients):
        if a.censor != 0:
            continue
        for j, b in enumerate(patients):
            if i == j or not a.time < b.time:
                continue
            comparable += 1
            if a.risk > b.risk:
                concordant += 1.0
            elif a.risk == b.risk:
                concordant += 0.5
    if comparable == 0:
        raise MetricError("concordance undefined: no comparable pairs")
    return concordant / comparable


def _event_table(times: np.ndarray, events: np.ndarray, at: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(at risk, events) at each of the ascending times `at`. At risk counts
    time >= t, so a subject censored at t is at risk for the events at t."""
    died = np.sort(times[events])
    return (times.size - np.searchsorted(np.sort(times), at, side="left"),
            np.searchsorted(died, at, side="right") - np.searchsorted(died, at, side="left"))


def _sum_in_order(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., left to right: `np.sum` adds in
    pairs, and builtin `sum` compensates on Python 3.12, so both move bits."""
    return float(np.add.accumulate(np.append(0.0, terms))[-1])


def kaplan_meier(patients: list[RiskedPatient]) -> KMCurve:
    """Product-limit estimator over the distinct observed event times."""
    if not patients:
        raise MetricError("kaplan_meier needs at least one patient")
    times = np.array([p.time for p in patients])
    events = np.array([p.censor == 0 for p in patients])
    event_times = np.unique(times[events])
    at_risk, died = _event_table(times, events, event_times)
    return KMCurve(
        times=event_times.astype(np.float64),
        survival=np.cumprod(1.0 - died / at_risk),
        at_risk=at_risk,
        events=died,
    )


def logrank_test(group_a: list[RiskedPatient],
                 group_b: list[RiskedPatient]) -> tuple[float, float]:
    """Two-group log-rank test; returns (chi_square, p_value).

    chi^2 = (sum(O_a - E_a))^2 / sum(V) over distinct pooled event times,
    with the usual hypergeometric variance; p from the chi-square survival
    function with one degree of freedom. A time with one subject at risk
    adds no term.
    """
    if not group_a or not group_b:
        raise MetricError("logrank_test needs two nonempty groups")
    pooled = [*group_a, *group_b]
    times = np.array([p.time for p in pooled])
    events = np.array([p.censor == 0 for p in pooled])
    if not events.any():
        raise MetricError("logrank_test needs at least one event")

    event_times = np.unique(times[events])
    n, d = _event_table(times, events, event_times)
    size_a = len(group_a)
    n_a, d_a = _event_table(times[:size_a], events[:size_a], event_times)
    informative = n >= 2
    n, d, n_a, d_a = n[informative], d[informative], n_a[informative], d_a[informative]
    n_b = n - n_a
    expected_a = d * n_a / n
    observed_minus_expected = _sum_in_order(d_a - expected_a)
    variance = _sum_in_order(d * (n_a / n) * (n_b / n) * (n - d) / (n - 1))
    if variance == 0.0:
        raise DegenerateInputError("logrank_test: zero variance (no informative times)")
    chi_square = observed_minus_expected ** 2 / variance
    return float(chi_square), chi_square_p_value(chi_square)


def chi_square_p_value(chi_square: float) -> float:
    """Survival function of the chi-square distribution with 1 d.o.f.

    A chi-square variable with one degree of freedom is Z**2 for a standard
    normal Z, so P(Z**2 > x) = P(|Z| > sqrt(x)) = erfc(sqrt(x / 2)), the
    regularized upper incomplete gamma Q(1/2, x/2). 0, inf and NaN give 1.0,
    0.0 and NaN.
    """
    if chi_square < 0.0:
        raise MetricError(f"chi-square statistic must be >= 0, got {chi_square}")
    return math.erfc(math.sqrt(chi_square / 2.0))


def stratify_median(patients: list[RiskedPatient]
                    ) -> tuple[list[RiskedPatient], list[RiskedPatient]]:
    """Split patients at the median predicted risk.

    Risk strictly above the median goes high; at or below goes low. The
    median of an even count is the midpoint of the two central order
    statistics, so both strata are nonempty unless risks are degenerate.
    """
    if len(patients) < 2:
        raise MetricError("stratify_median needs at least 2 patients")
    median = np.median([p.risk for p in patients])
    low = [p for p in patients if p.risk <= median]
    high = [p for p in patients if p.risk > median]
    if not high:
        warnings.warn("all risks at or below the median; high-risk stratum is empty")
    return low, high


def median_strata(patients: list[RiskedPatient]) -> tuple[
        list[RiskedPatient], list[RiskedPatient], KMCurve | None, KMCurve | None]:
    """(low, high, KM of low, KM of high) by `stratify_median`; an empty
    stratum has no curve. `logrank_test(low, high)` is left to the caller,
    so the curves survive a test that is undefined."""
    low, high = stratify_median(patients)
    return (low, high, kaplan_meier(low) if low else None,
            kaplan_meier(high) if high else None)


KM_COLUMNS = ["stratum", "time", "survival", "at_risk", "events"]


def km_rows(km_low: KMCurve | None, km_high: KMCurve | None) -> list[list]:
    """`KM_COLUMNS` rows of each present curve, numbers at repr precision."""
    return [[stratum, repr(time), repr(surv), n, d]
            for stratum, curve in (("low", km_low), ("high", km_high)) if curve is not None
            for time, surv, n, d in curve.points()]
