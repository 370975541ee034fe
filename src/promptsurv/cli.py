"""Command-line interface.

Subcommands: synth, train, cv, ablate, km-export. Training flags mirror the
TrainConfig fields; a JSON config file may set any field and explicit flags
override it. Exit codes identify the error class:

  0 success        2 configuration     3 data validation
  4 numeric domain 5 metric undefined  6 training divergence
  7 I/O            1 unexpected
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .data import (
    SynthSpec,
    discretize_times,
    generate_synthetic,
    load_cohort,
    write_cohort,
)
from .errors import (
    ConfigError,
    DataValidationError,
    DegenerateInputError,
    DomainError,
    EmptyInputError,
    MetricError,
    ShapeError,
    TrainingError,
)
from .metrics import RiskedPatient, kaplan_meier, logrank_test, stratify_median
from .pipeline import (
    TrainConfig,
    cross_validate,
    emit_ablation_table,
    emit_reports,
    evaluate_fold,
    holdout_split,
    run_ablation,
    summarize,
    train_fold,
)

_EXIT_CODES = (
    (ConfigError, 2),
    (DataValidationError, 3),
    ((ShapeError, DomainError, EmptyInputError, DegenerateInputError), 4),
    (MetricError, 5),
    (TrainingError, 6),
    (OSError, 7),
)

_CONFIG_FLAGS = [
    ("epochs", int), ("lr", float), ("batch_size", int), ("r", float),
    ("queue_length", int), ("lam", float), ("n_bins", int),
    ("epsilon", float), ("sinkhorn_tol", float), ("sinkhorn_max_iters", int),
    ("seed", int), ("variant", str), ("attention_dim", int),
    ("temperature", float),
]


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON file with TrainConfig fields")
    for name, typ in _CONFIG_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ,
                            dest=name, default=None)
    parser.add_argument("--reset-queues-per-epoch", dest="reset_queues_per_epoch",
                        action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--switch", action="append", default=[],
                        metavar="NAME=BOOL",
                        help="override one variant switch, e.g. use_contrast=true")


def _resolve_config(args) -> TrainConfig:
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    updates = {}
    for name, _ in _CONFIG_FLAGS:
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    if args.reset_queues_per_epoch is not None:
        updates["reset_queues_per_epoch"] = args.reset_queues_per_epoch
    overrides = dict(cfg.switch_overrides)
    for item in args.switch:
        if "=" not in item:
            raise ConfigError(f"--switch expects NAME=BOOL, got {item!r}")
        key, raw = item.split("=", 1)
        raw = raw.strip().lower()
        if raw not in ("true", "false", "1", "0"):
            raise ConfigError(f"--switch value must be boolean, got {item!r}")
        overrides[key.strip()] = raw in ("true", "1")
    if overrides:
        updates["switch_overrides"] = overrides
    return replace(cfg, **updates) if updates else cfg


def _load_discretized(manifest: str, cfg: TrainConfig):
    records, prompts = load_cohort(manifest)
    if not records:
        raise DataValidationError(f"manifest {manifest} lists no patients")
    discretize_times(records, cfg.n_bins)
    return records, prompts


def _cmd_synth(args) -> int:
    spec = SynthSpec.from_json(args.spec) if args.spec else SynthSpec()
    if args.seed is not None:
        spec.seed = args.seed
    records, prompts, _ = generate_synthetic(spec)
    manifest = write_cohort(records, prompts, args.out)
    print(f"wrote {len(records)} patients to {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    records, prompts = _load_discretized(args.manifest, cfg)
    train_records, eval_records = holdout_split(records, args.holdout, cfg.seed)
    model, trace = train_fold(train_records, prompts, cfg, fold=0)
    report = evaluate_fold(model, eval_records, trace, fold=0)
    summary = summarize([report])
    emit_reports([report], summary, cfg, args.out,
                 extra={"mode": "train", "holdout_fraction": args.holdout})
    print(f"holdout CI: {summary['formatted']}")
    return 0


def _cmd_cv(args) -> int:
    cfg = _resolve_config(args)
    records, prompts = _load_discretized(args.manifest, cfg)
    reports, summary = cross_validate(records, prompts, cfg, k=args.folds, memo={})
    emit_reports(reports, summary, cfg, args.out,
                 extra={"mode": "cv", "folds": args.folds})
    print(f"{args.folds}-fold CI: {summary['formatted']}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    records, prompts = _load_discretized(args.manifest, cfg)
    rows = run_ablation(records, prompts, cfg, k=args.folds,
                        variants=args.variants)
    path = emit_ablation_table(rows, args.out)
    for row in rows:
        print(f"variant {row['variant']}: {row['formatted']}")
    print(f"wrote {path}")
    return 0


def _cmd_km_export(args) -> int:
    patients = _read_risk_csv(args.risks)
    low, high = stratify_median(patients)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    km_path = out_dir / "km.csv"
    with open(km_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stratum", "time", "survival", "at_risk", "events"])
        for stratum, group in (("low", low), ("high", high)):
            if not group:
                continue
            for time, surv, n, d in kaplan_meier(group).points():
                writer.writerow([stratum, repr(time), repr(surv), n, d])
    chi2, p_value = logrank_test(low, high)
    stats_path = out_dir / "logrank.json"
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"chi_square": chi2, "p_value": p_value,
                   "n_low": len(low), "n_high": len(high)}, fh, indent=1)
        fh.write("\n")
    print(f"log-rank chi2={chi2:.4f} p={p_value:.4g}")
    return 0


def _read_risk_csv(path) -> list[RiskedPatient]:
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"missing risk file: {path}")
    patients = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"risk", "time", "censor"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise DataValidationError(
                f"{path} must have columns risk,time,censor "
                f"(got {reader.fieldnames})"
            )
        for row in reader:
            patients.append(RiskedPatient(
                risk=float(row["risk"]),
                time=float(row["time"]),
                censor=int(row["censor"]),
            ))
    if not patients:
        raise DataValidationError(f"{path} lists no patients")
    return patients


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptsurv",
        description="prompt-aligned hierarchical survival pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic cohort")
    p.add_argument("--spec", help="SynthSpec JSON file (defaults used if omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True, help="output cohort directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train on a single holdout split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--holdout", type=float, default=0.2)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=5)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("ablate", help="run the variant ladder A-G")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--variants", default="ABCDEFG")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("km-export",
                       help="recompute KM curves and log-rank from a risk CSV")
    p.add_argument("--risks", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_km_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map to category exit codes
        for exc_types, code in _EXIT_CODES:
            if isinstance(exc, exc_types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
