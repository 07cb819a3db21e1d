"""Regenerate ``perfbench/expected.json``, the certificate fields every
benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/make_expected.py

For each workload in ``spec.json`` this runs the pipeline once in process
(no artifacts) and then re-estimates the slope constants L1 and L2 for every
seed in ``range(TABLE_SEEDS)``, exactly as ``run_pipeline`` does for that
``lipschitz.seed``. The scenario LP does not depend on the seed, so verdict,
failing conditions, sample count, theta, eta and beta are stored once. Seeds
beyond the table are checked against a range: the extremes over the table
and ``EXTRA_SEEDS`` large random seeds, widened by ``RANGE_WIDEN``.
Run it only on a commit whose certificates are the reference.
"""
from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from netcert.lipschitz import estimate_for_class
from netcert.pipeline import config_from_dict, run_pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_SEEDS = 256
EXTRA_SEEDS = 64
RANGE_WIDEN = (0.5, 4.0)  # factors on the smallest and largest value seen


def expected_for(config: dict) -> dict:
    cfg = config_from_dict(config)
    result = run_pipeline(cfg, write_outputs=False)
    cert = result.certificate
    extra = np.random.default_rng(1).integers(TABLE_SEEDS, 2**62, EXTRA_SEEDS)
    classes = {}
    for run, ccert in zip(result.runs, cert.classes):
        slopes = {"l1": [], "l2": []}
        seen = {"l1": [], "l2": []}
        for seed in [*range(TABLE_SEEDS), *(int(s) for s in extra)]:
            l1, l2 = estimate_for_class(
                run.cls,
                run.solution,
                replace(cfg.lipschitz, seed=seed),
            )
            for key, est in (("l1", l1), ("l2", l2)):
                seen[key].append(est.value)
                if seed < TABLE_SEEDS:
                    slopes[key].append(est.value)
        classes[ccert.class_id] = {
            "sample_count": ccert.sample_count,
            "theta": ccert.theta,
            "eta": ccert.eta,
            "beta": ccert.beta,
            "l1_by_seed": slopes["l1"],
            "l2_by_seed": slopes["l2"],
            "l1_range": [RANGE_WIDEN[0] * min(seen["l1"]), RANGE_WIDEN[1] * max(seen["l1"])],
            "l2_range": [RANGE_WIDEN[0] * min(seen["l2"]), RANGE_WIDEN[1] * max(seen["l2"])],
        }
    return {
        "verdict": cert.verdict,
        "failing": sorted([cid, cond] for cid, cond, _ in cert.failures),
        "classes": classes,
    }


def main() -> None:
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    out = {}
    for name, workload in spec["workloads"].items():
        out[name] = expected_for(workload["config"])
        print(name, "done", flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
