"""Sweep the `depth` benchmark's check over seeds 0-39.

    PYTHONPATH=src python3 tests/depth_margin.py

Runs the set-up of the `depth` workload in bench/workloads.py once per seed,
prints every final/initial loss ratio, and exits 1 if any ratio exceeds 0.8,
the bound of that workload's check.  Its name has no ``test_`` prefix, so
the tier-1 suite does not collect it; CI runs it as a step of its own.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is imported, as bench/run.py sets it: the
# depth loss blurs through gemm, so the sweep runs the benchmark's arithmetic
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import build_depth  # noqa: E402

BOUND = 0.8
SEEDS = range(40)


def main() -> int:
    ratios = {}
    for seed in SEEDS:
        res = build_depth(seed).run()
        ratios[seed] = res.final_loss / res.initial_loss
        print(f"seed {seed:2d}: {res.initial_loss:.6f} -> {res.final_loss:.6f}, ratio {ratios[seed]:.4f}")
    worst = max(ratios, key=ratios.get)
    over = [seed for seed, r in ratios.items() if not r <= BOUND]
    print(f"worst ratio {ratios[worst]:.4f} (seed {worst}), median {np.median(list(ratios.values())):.4f}, "
          f"{len(over)} of {len(ratios)} seeds above {BOUND}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
