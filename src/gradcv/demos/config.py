"""Run configuration shared by the optimization demos."""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ParameterError
from ..optim import Adam, SgdMomentum


@dataclass
class RunConfig:
    """Knobs for the coarse-to-fine optimization demos.

    `iters` counts iterations per pyramid level.  iters=0 evaluates only:
    `register` and `estimate_depth` return their initial state (identity
    homography, coarse initial depth) with no trace row and final_loss (and
    initial_loss) from one evaluation; `attack` returns the images unchanged.
    Loss weights: alpha blends SSIM vs L1 (depth) or scales the descriptor
    term (attack); lam weights depth smoothness; beta weights the attack's
    perturbation penalty.
    """

    seed: int = 0
    levels: int = 4
    iters: int = 200
    lr: float = 1e-3
    optimizer: str = "adam"  # adam | sgd_momentum
    momentum: float = 0.9
    alpha: float = 0.85
    lam: float = 0.1
    beta: float = 10.0
    out_dir: Optional[str] = None
    max_keypoints: int = 300
    refresh_every: int = 10
    ransac_iters: int = 2000
    ransac_threshold: float = 2.0

    def __post_init__(self):
        if self.levels < 1:
            raise ParameterError(f"levels must be >= 1, got {self.levels}")
        if self.iters < 0:
            raise ParameterError(f"iters must be >= 0, got {self.iters}")
        for name in ("lr", "alpha", "lam", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.optimizer not in ("adam", "sgd_momentum"):
            raise ParameterError(f"unknown optimizer {self.optimizer!r}")

    def ensure_out_dir(self) -> Optional[str]:
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
        return self.out_dir


def make_optimizer(config: RunConfig, params):
    """The optimizer config.optimizer names, over the leaf Vars params."""
    if config.optimizer == "sgd_momentum":
        return SgdMomentum(params, lr=config.lr, momentum=config.momentum)
    return Adam(params, lr=config.lr)


def write_trace_csv(path, rows) -> None:
    """rows of (iteration, level, loss) -> trace.csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "level", "loss"])
        for it, level, loss in rows:
            writer.writerow([it, level, f"{loss:.10g}"])
