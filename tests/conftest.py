import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import promptsurv
from promptsurv.data import SynthSpec, discretize_times, generate_synthetic


def build_cohort(n_patients=24, n_regions=3, patches_per_region=4, d=16,
                 n_prompts=4, noise_sigma=0.3, censor_rate=0.25, seed=11,
                 n_bins=3):
    spec = SynthSpec(
        n_patients=n_patients, n_regions=n_regions,
        patches_per_region=patches_per_region, d=d,
        n_prompts_patch=n_prompts, n_prompts_region=n_prompts,
        noise_sigma=noise_sigma, censor_rate=censor_rate, seed=seed,
    )
    records, prompts, truth = generate_synthetic(spec)
    discretize_times(records, n_bins)
    return records, prompts, truth


@pytest.fixture
def small_cohort():
    return build_cohort()


def params_bytes(model) -> bytes:
    return b"".join(node.value.tobytes()
                    for _, node in sorted(model.params.items()))


def read_all_bytes(paths) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in paths}


def run_without_scipy(script: str, cwd) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter where any scipy import fails.

    The script runs after `sys.modules["scipy"] = None`, with this checkout's
    `promptsurv` on the path; it ends by exiting 1 if any scipy module loaded.
    """
    src = str(Path(promptsurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    guarded = ('import sys\nsys.modules["scipy"] = None\n' + script +
               '\nsys.exit(any(name.split(".")[0] == "scipy" and module is not None'
               '\n             for name, module in list(sys.modules.items())))\n')
    return subprocess.run([sys.executable, "-c", guarded], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
