"""Survival statistics computed apart from the program, and the checks that
hold its written artifacts against them.

Conventions match the program's documentation: censor 0 = event observed,
1 = right-censored; a pair (i, j) is comparable when t_i < t_j and i had the
event; patients at or below the median risk form the low stratum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from scipy.stats import chi2 as chi2_dist

REL_TOL = 1e-9


def brute_concordance(rows) -> float | None:
    """C-index over (risk, time, censor) rows by counting every pair."""
    concordant = 0.0
    comparable = 0
    for risk_i, time_i, censor_i in rows:
        if censor_i != 0:
            continue
        for risk_j, time_j, _ in rows:
            if time_i < time_j:
                comparable += 1
                concordant += 1.0 if risk_i > risk_j else 0.5 if risk_i == risk_j else 0.0
    return concordant / comparable if comparable else None


def kaplan_meier(rows) -> list[tuple[float, float, int, int]]:
    """(time, survival after time, at risk, events) at each distinct event time."""
    event_times = sorted({t for _, t, c in rows if c == 0})
    out = []
    surv = 1.0
    for t in event_times:
        at_risk = sum(1 for _, s, _ in rows if s >= t)
        events = sum(1 for _, s, c in rows if s == t and c == 0)
        surv *= 1.0 - events / at_risk
        out.append((t, surv, at_risk, events))
    return out


def logrank_chi2(group_a, group_b) -> float | None:
    """Two-group log-rank statistic; None when it is undefined."""
    if not group_a or not group_b:
        return None
    pooled = [(t, c, 0) for _, t, c in group_a] + [(t, c, 1) for _, t, c in group_b]
    o_minus_e = 0.0
    variance = 0.0
    for t in sorted({t for t, c, _ in pooled if c == 0}):
        n_a = sum(1 for s, _, g in pooled if s >= t and g == 0)
        n = sum(1 for s, _, _ in pooled if s >= t)
        d_a = sum(1 for s, c, g in pooled if s == t and c == 0 and g == 0)
        d = sum(1 for s, c, _ in pooled if s == t and c == 0)
        if n < 2:
            continue
        o_minus_e += d_a - d * n_a / n
        variance += d * (n_a / n) * ((n - n_a) / n) * (n - d) / (n - 1)
    if variance == 0.0:
        return None
    return o_minus_e ** 2 / variance


def logrank_p(chi2: float) -> float:
    return float(chi2_dist.sf(chi2, 1))


def median_split(rows):
    """(low, high): risk at or below the median, and strictly above it."""
    risks = sorted(r for r, _, _ in rows)
    mid = len(risks) // 2
    median = risks[mid] if len(risks) % 2 else 0.5 * (risks[mid - 1] + risks[mid])
    return [r for r in rows if r[0] <= median], [r for r in rows if r[0] > median]


def close(a, b, rel=REL_TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


# ---------------------------------------------------------------------------
# held-out outputs of one cross-validation, from files or from reports


@dataclass
class Fold:
    rows: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    ci: float | None = None
    chi2: float | None = None
    p: float | None = None
    km: dict[str, list] = field(default_factory=dict)  # stratum -> KM points


@dataclass
class CVOutput:
    folds: dict[int, Fold]
    selections: dict[tuple[str, str], list[list[int]]]  # (pid, level) -> index lists
    duplicates: set[str]                                 # patients held out twice
    mean_ci: float | None


def _num(text: str) -> float | None:
    value = float(text)
    return None if math.isnan(value) else value


def read_cv_artifacts(out_dir: Path) -> CVOutput:
    folds: dict[int, Fold] = {}
    duplicates: set[str] = set()
    seen: set[str] = set()
    with open(out_dir / "risks.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pid = row["patient_id"]
            if pid in seen:
                duplicates.add(pid)
            seen.add(pid)
            fold = folds.setdefault(int(row["fold"]), Fold())
            fold.rows[pid] = (float(row["risk"]), float(row["time"]), int(row["censor"]))
    mean_ci = None
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["fold"] == "mean":
                mean_ci = _num(row["ci"])
            elif row["fold"] != "std":
                fold = folds.setdefault(int(row["fold"]), Fold())
                fold.ci = _num(row["ci"])
                fold.chi2 = _num(row["logrank_chi2"])
                fold.p = _num(row["logrank_p"])
    with open(out_dir / "km.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            folds[int(row["fold"])].km.setdefault(row["stratum"], []).append(
                (float(row["time"]), float(row["survival"]),
                 int(row["at_risk"]), int(row["events"])))
    selections: dict[tuple[str, str], list[list[int]]] = {}
    with open(out_dir / "selections.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            indices = [int(i) for i in row["indices"].split()]
            selections.setdefault((row["patient_id"], row["level"]), []).append(indices)
    return CVOutput(folds, selections, duplicates, mean_ci)


def cv_output_from_reports(reports, summary) -> CVOutput:
    """The same structure from in-memory fold reports (the ablation writes no
    per-fold files)."""
    folds: dict[int, Fold] = {}
    selections: dict[tuple[str, str], list[list[int]]] = {}
    duplicates: set[str] = set()
    seen: set[str] = set()
    for rep in reports:
        fold = Fold(ci=rep.ci, chi2=rep.logrank_chi2, p=rep.logrank_p)
        for pid, risk, time, censor, _ in rep.risks:
            if pid in seen:
                duplicates.add(pid)
            seen.add(pid)
            fold.rows[pid] = (float(risk), float(time), int(censor))
        for stratum, curve in (("low", rep.km_low), ("high", rep.km_high)):
            if curve is not None:
                fold.km[stratum] = curve.points()
        for pid, level, indices in rep.selections:
            selections.setdefault((pid, level), []).append(list(indices))
        folds[rep.fold] = fold
    return CVOutput(folds, selections, duplicates, summary["mean_ci"])


def check_statistics(out: CVOutput, n_folds: int) -> list[str]:
    """Run-level faults: every fold's C-index, KM curves and log-rank test
    against this module's estimators, and the summary mean."""
    faults = []
    if sorted(out.folds) != list(range(n_folds)):
        return [f"folds present {sorted(out.folds)}, expected 0..{n_folds - 1}"]
    cis = []
    for k, fold in sorted(out.folds.items()):
        rows = list(fold.rows.values())
        ci = brute_concordance(rows)
        if not close(ci, fold.ci, rel=1e-12):
            faults.append(f"fold {k}: C-index {fold.ci} != brute force {ci}")
        if ci is not None:
            cis.append(ci)
        low, high = median_split(rows)
        for stratum, group in (("low", low), ("high", high)):
            want = kaplan_meier(group) if group else []
            got = fold.km.get(stratum, [])
            if len(want) != len(got) or not all(
                    close(a[0], b[0]) and close(a[1], b[1]) and a[2:] == b[2:]
                    for a, b in zip(want, got)):
                faults.append(f"fold {k}: KM {stratum} stratum differs")
        chi2 = logrank_chi2(low, high)
        if not close(chi2, fold.chi2):
            faults.append(f"fold {k}: log-rank chi2 {fold.chi2} != {chi2}")
        elif chi2 is not None and not close(logrank_p(chi2), fold.p, rel=1e-8):
            faults.append(f"fold {k}: log-rank p {fold.p} != chi2.sf {logrank_p(chi2)}")
    mean = sum(cis) / len(cis) if cis else None
    if not close(mean, out.mean_ci, rel=1e-12):
        faults.append(f"mean C-index {out.mean_ci} != {mean}")
    return faults


def failed_patients(out: CVOutput, patient_ids, levels: dict[str, int],
                    keep_ratio: float, planted: dict[str, set[int]] | None) -> set[str]:
    """Held-out patients whose outputs fail a check.

    A patient fails when it is not held out exactly once, its risk is not
    finite, a selection for an enabled level (name -> bag size) is missing,
    repeated, not the ceil(keep_ratio*M) ascending in-range indices, or,
    given `planted`, its patch selection is not the planted mask.
    """
    risk_of = {pid: row[0] for fold in out.folds.values()
               for pid, row in fold.rows.items()}
    failed = set(out.duplicates)
    for pid in patient_ids:
        if pid not in risk_of or not math.isfinite(risk_of[pid]):
            failed.add(pid)
            continue
        for level, m in levels.items():
            sel = out.selections.get((pid, level), [])
            keep = max(1, math.ceil(keep_ratio * m))
            if len(sel) != 1 or len(sel[0]) != keep or \
                    any(b <= a for a, b in zip(sel[0], sel[0][1:])) or \
                    sel[0][0] < 0 or sel[0][-1] >= m:
                failed.add(pid)
            elif planted is not None and level == "patch" and set(sel[0]) != planted[pid]:
                failed.add(pid)
    return failed
