"""Benchmark of what a `promptsurv cv` or `promptsurv ablate` user runs.

    python3 perfbench/run.py --workload cv-desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark writes its own cohort
(perfbench/cohort.py, in a child process), then calls the program's public
functions in the CLI's order: data.load_cohort -> data.discretize_times ->
pipeline.cross_validate or pipeline.run_ablation -> pipeline.emit_reports or
pipeline.emit_ablation_table. It repeats whole rounds of that for about
--seconds, checks every round's outputs against its own oracles, and prints
one JSON object as its last line. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced rounds and reports
the per-layer metrics (see perfbench/README.md).
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads its BLAS library
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import ctypes
import gc
import glob
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from tracer import MB, PER_LAYER, Patcher, Tracer
from workloads import FOLDS, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 10
VARIANTS = "ABCDEFG"
# hierarchy levels whose selections each ablation variant writes
LEVELS = {"A": (), "B": ("patch",), "C": ("patch",), "D": ("patch",),
          "E": ("patch", "region"), "F": ("patch", "region"), "G": ("patch", "region")}


def import_program():
    """Import promptsurv from this checkout's source tree, and nowhere else."""
    package = SRC / "promptsurv"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import promptsurv
    from promptsurv import data, pipeline
    if Path(promptsurv.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: promptsurv imported from {promptsurv.__file__}")
    return data, pipeline


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "python": sys.version.split()[0]}


class Bench:
    def __init__(self, work, seed: int, workdir: Path, data, pipeline):
        self.work = work
        self.workdir = workdir
        self.data = data
        self.pipeline = pipeline
        self.cfg = pipeline.TrainConfig(seed=work.train_seed(seed), variant="G",
                                        epochs=work.epochs, lr=work.lr)
        self.manifest = workdir / "cohort" / "manifest.json"
        truth = np.load(workdir / "cohort" / "truth.npz")
        self.ids = [str(pid) for pid in truth["ids"]]
        self.planted = None
        if work.check_planted_mask:
            self.planted = {pid: set(np.flatnonzero(mask).tolist())
                            for pid, mask in zip(self.ids, truth["patch_mask"])}
        self.sizes = {"patch": work.cohort.m_patches, "region": work.cohort.n_regions}
        self.captured = []  # (variant, reports, summary) of the ablation's CVs
        self.rounds = 0
        self.setup_times = []

    # -- set-up ----------------------------------------------------------------

    def setup(self, tracer: Tracer | None = None):
        """Load and discretize the cohort SETUP_REPEATS times. Returns the last
        load, and appends each repeat's time (or, traced, the load time and
        bytes read) to self.setup_times."""
        for _ in range(SETUP_REPEATS):
            records = prompts = None
            gc.collect()
            if tracer is not None:
                tracer.reset()
            start = time.perf_counter()
            records, prompts = self.data.load_cohort(self.manifest)
            self.data.discretize_times(records, self.cfg.n_bins)
            elapsed = time.perf_counter() - start
            self.setup_times.append(elapsed if tracer is None else
                                    (tracer.time["data.load"], tracer.count["data.bytes"]))
        return records, prompts

    # -- one round ---------------------------------------------------------------

    def round(self, records, prompts):
        """One full cv or ablation, timed from the loaded cohort to the last
        artifact written, then checked. Returns (seconds, c_index, faults,
        attempted, failed)."""
        out_dir = self.workdir / f"out{self.rounds}"
        self.rounds += 1
        self.captured.clear()
        gc.collect()
        start = time.perf_counter()
        if self.work.mode == "cv":
            reports, summary = self.pipeline.cross_validate(records, prompts, self.cfg,
                                                            k=FOLDS)
            self.pipeline.emit_reports(reports, summary, self.cfg, out_dir,
                                       extra={"mode": "cv", "folds": FOLDS})
        else:
            rows = self.pipeline.run_ablation(records, prompts, self.cfg, k=FOLDS,
                                              variants=VARIANTS)
            self.pipeline.emit_ablation_table(rows, out_dir)
        seconds = time.perf_counter() - start
        if self.work.mode == "cv":
            checked = self.check_cv(out_dir)
        else:
            checked = self.check_ablation(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return (seconds, *checked)

    def check_cv(self, out_dir: Path):
        out = oracles.read_cv_artifacts(out_dir)
        faults = oracles.check_statistics(out, FOLDS)
        failed = oracles.failed_patients(out, self.ids, self.sizes, self.cfg.r,
                                         self.planted)
        c_index = out.mean_ci
        floor = self.work.min_c_index
        if floor is not None and (c_index is None or c_index < floor):
            faults.append(f"mean C-index {c_index} below the floor {floor}")
        return c_index, faults, len(self.ids), len(failed)

    def check_ablation(self, out_dir: Path):
        faults = []
        with open(out_dir / "ablation.csv", newline="", encoding="utf-8") as fh:
            table = {row["variant"]: row for row in csv.DictReader(fh)}
        if "".join(table) != VARIANTS:
            return None, [f"ablation rungs {''.join(table)}, expected {VARIANTS}"], \
                len(VARIANTS) * len(self.ids), 0
        for variant, row in table.items():
            if int(row["folds_used"]) != FOLDS:
                faults.append(f"variant {variant}: {row['folds_used']} folds used")
        if len(self.captured) != len(VARIANTS):
            faults.append("per-variant fold reports not observable")
        failed = 0
        for variant, reports, summary in self.captured:
            out = oracles.cv_output_from_reports(reports, summary)
            faults += [f"variant {variant}: {f}" for f in oracles.check_statistics(out, FOLDS)]
            if not oracles.close(float(table[variant]["mean_ci"]), summary["mean_ci"], 1e-15):
                faults.append(f"variant {variant}: ablation.csv mean differs from its CV")
            sizes = {level: self.sizes[level] for level in LEVELS[variant]}
            failed += len(oracles.failed_patients(out, self.ids, sizes, self.cfg.r, None))
        c_index = float(table["G"]["mean_ci"])
        gap = c_index - float(table["A"]["mean_ci"])
        if gap < self.work.min_g_minus_a:
            faults.append(f"G - A = {gap:.4f} below {self.work.min_g_minus_a}")
        return c_index, faults, len(VARIANTS) * len(self.ids), failed

    def capture_ablation(self, patcher: Patcher):
        """Keep each variant's fold reports, which run_ablation discards."""
        def make(fn):
            def cross_validate(records, prompts, cfg, *args, **kwargs):
                reports, summary = fn(records, prompts, cfg, *args, **kwargs)
                self.captured.append((cfg.variant, reports, summary))
                return reports, summary
            return cross_validate
        patcher.wrap(self.pipeline, "cross_validate", make)


def run(args, data, pipeline) -> dict:
    work = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{work.name}-s{args.seed}-{os.getpid()}"
    patcher = Patcher()
    try:
        subprocess.run([sys.executable, str(HERE / "cohort.py"), "--workload", work.name,
                        "--seed", str(args.seed), "--out", str(workdir / "cohort")],
                       check=True, timeout=170)
        bench = Bench(work, args.seed, workdir, data, pipeline)
        if work.mode == "ablate":
            bench.capture_ablation(patcher)
        tracer = Tracer(work.cohort.n_regions) if args.trace else None
        return measure(bench, args.seconds, tracer)
    finally:
        patcher.restore()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(bench: Bench, seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds for about `seconds`, each after a batch of set-ups, plus a
    last batch, so set-up is sampled across the run. Traced runs alternate
    untraced and traced rounds, and trace every set-up."""
    results = []  # (traced, seconds, c_index, faults, attempted, failed)
    layer_rounds = []

    def load():
        if tracer is not None:
            tracer.install()
        try:
            return bench.setup(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def one(traced: bool):
        records, prompts = load()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            results.append((traced, *bench.round(records, prompts)))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rounds.append(tracer.round_metrics())
        print(f"round {len(results)}{' traced' if traced else ''}: "
              f"{results[-1][1]:.3f} s, C-index {results[-1][2]}, "
              f"process CPU {time.process_time():.2f} s", file=sys.stderr)

    one(False)
    if tracer is None:
        for _ in range(max(1, round(seconds / results[0][1])) - 1):
            one(False)
    else:
        pairs = max(1, round(seconds / (2 * results[0][1])))
        for i in range(pairs):
            one(True)
            if i + 1 < pairs:
                one(False)
    load()
    setup_times = bench.setup_times  # seconds, or traced (load seconds, bytes)

    faults = sorted({f for r in results for f in r[3]})
    if len({r[2] for r in results}) != 1:
        faults.append("C-index differs between rounds of the same run")
    for fault in faults:
        print(f"check failed: {fault}", file=sys.stderr)
    correct = not faults and results[0][2] is not None

    if tracer is None:
        walls = [r[1] for r in results]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "c_index": (results[0][2] or 0.0, "1"),  # None fails `correct`
        }
    else:
        values = {name: statistics.fmean(r[name] for r in layer_rounds)
                  for name in layer_rounds[0]}
        values["data.load_s"] = statistics.median(t for t, _ in setup_times)
        values["data.mb_read"] = setup_times[-1][1] / MB
        values["trace.overhead_s"] = (
            statistics.median(r[1] for r in results if r[0])
            - statistics.median(r[1] for r in results if not r[0]))
        unmeasured = tracer.unmeasured()
        if unmeasured:
            print(f"unmeasured: {' '.join(unmeasured)}")
        metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()
                   if name not in unmeasured}
    return {
        "correct": correct,
        "attempted": sum(r[4] for r in results),
        "failed": sum(r[5] for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    data, pipeline = import_program()
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps(run(args, data, pipeline)))


if __name__ == "__main__":
    main()
