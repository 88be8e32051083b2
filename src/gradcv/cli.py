"""Command-line entry points for the optimization demos.

    gradcv register SRC DST --out DIR [--seed N --levels L --iters K --lr F]
    gradcv depth REF REF_CAM SRC CAM [SRC CAM ...] --out DIR [--alpha F --lambda F]
    gradcv attack IMG_A IMG_B H_FILE --out DIR [--alpha F --beta F]
    gradcv bench --op sobel --batches 1,2,4,8,16 --size 256 --repeats 10 --out DIR

Inputs are binary PPM/PGM images; cameras use the plain-text format (line 1:
fx fy cx cy; lines 2-5: the 4x4 world->camera transform).  H_FILE holds a 3x3
homography as 9 whitespace-separated numbers mapping image-b pixels into
image a.  Outputs land in --out: warped/attacked images plus trace.csv
(iteration,level,loss).  A malformed input exits with code 2 and a message
naming the subcommand, the file and what was being read.

Exit codes: 0 success; 2 parameter/shape/usage errors and degenerate geometry
(such as a homography that maps a point to infinity); 3 estimation failures
(including no RANSAC consensus); 4 optimization divergence; 5 I/O errors;
1 unexpected errors.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .demos import RunConfig, attack, estimate_depth, register, run_bench, write_bench_csv
from .errors import (
    DegenerateError,
    EstimationError,
    OptimizationError,
    ParameterError,
    ShapeError,
    UsageError,
)
from .geometry import load_camera
from .imgio import load_image


def _add_common(p: argparse.ArgumentParser, levels: int, iters: int, lr: float) -> None:
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--levels", type=int, default=levels, help=f"pyramid levels (default {levels})")
    p.add_argument("--iters", type=int, default=iters, help=f"iterations per level (default {iters})")
    p.add_argument("--lr", type=float, default=lr, help=f"learning rate (default {lr})")
    p.add_argument("--out", default=None, help="output directory for images and trace.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcv",
        description="differentiable computer vision demos: registration, depth, attack, bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="align two images by optimizing a homography")
    p.add_argument("src", help="source image (PPM/PGM)")
    p.add_argument("dst", help="destination image (PPM/PGM)")
    _add_common(p, levels=4, iters=200, lr=1e-3)

    p = sub.add_parser("depth", help="multi-view depth estimation by gradient descent")
    p.add_argument(
        "views",
        nargs="+",
        metavar="IMG CAM",
        help="alternating image/camera paths; the first pair is the reference view",
    )
    _add_common(p, levels=7, iters=500, lr=15.0)
    p.add_argument("--alpha", type=float, default=0.85, help="SSIM vs L1 weight (default 0.85)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1, help="smoothness weight (default 0.1)")
    p.add_argument("--momentum", type=float, default=0.9, help="SGD momentum (default 0.9)")

    p = sub.add_parser("attack", help="targeted adversarial attack on feature matching")
    p.add_argument("img_a", help="first image (PPM/PGM)")
    p.add_argument("img_b", help="second image (PPM/PGM)")
    p.add_argument("homography", help="text file with the 3x3 target homography (b -> a)")
    _add_common(p, levels=3, iters=300, lr=3e-3)
    p.add_argument("--alpha", type=float, default=1.0, help="descriptor-loss weight (default 1)")
    p.add_argument("--beta", type=float, default=10.0, help="perturbation-penalty weight (default 10)")
    p.add_argument("--keypoints", type=int, default=300, help="keypoint budget (default 300)")

    p = sub.add_parser(
        "bench", help="operator forward+backward wall-time benchmark over batch sizes"
    )
    p.add_argument("--op", default="sobel", choices=["sobel", "gaussian", "warp"])
    p.add_argument("--batches", default="1,2,4,8,16", help="comma-separated batch sizes")
    p.add_argument("--size", type=int, default=256, help="square image size (default 256)")
    p.add_argument("--repeats", type=int, default=10, help="timed repetitions (default 10)")
    p.add_argument("--out", default=None, help="output directory for bench.csv")
    return parser


def _cmd_register(args) -> int:
    config = RunConfig(
        seed=args.seed, levels=args.levels, iters=args.iters, lr=args.lr, out_dir=args.out
    )
    src = load_image(args.src)
    dst = load_image(args.dst)
    result = register(src, dst, config)
    print(f"final loss: {result.final_loss:.6g}")
    print("homography (src -> dst, pixel coords):")
    for row in result.homography:
        print("  " + " ".join(f"{v: .8g}" for v in row))
    return 0


def _cmd_depth(args) -> int:
    if len(args.views) < 4 or len(args.views) % 2 != 0:
        raise ParameterError("depth needs alternating IMG CAM paths for >= 2 views")
    views = []
    for img_path, cam_path in zip(args.views[::2], args.views[1::2]):
        img = load_image(img_path)
        cam = load_camera(cam_path, size=img.shape[2:])
        views.append((img, cam))
    config = RunConfig(
        seed=args.seed,
        levels=args.levels,
        iters=args.iters,
        lr=args.lr,
        optimizer="sgd_momentum",
        momentum=args.momentum,
        alpha=args.alpha,
        lam=args.lam,
        out_dir=args.out,
    )
    result = estimate_depth(views, config)
    print(f"initial loss: {result.initial_loss:.6g}")
    print(f"final loss:   {result.final_loss:.6g}")
    d = result.depth.data
    print(f"depth range: [{d.min():.4g}, {d.max():.4g}], median {np.median(d):.4g}")
    return 0


def _load_homography(path: str) -> np.ndarray:
    """The 3x3 homography of a text file of 9 numbers ('#' lines are comments)."""
    with open(path) as fh:
        tokens = [t for ln in fh if not ln.lstrip().startswith("#") for t in ln.split()]
    try:
        h = np.array([float(t) for t in tokens])
    except ValueError:
        raise ParameterError(f"reading homography file {path}: not all entries are numbers") from None
    if h.size != 9:
        raise ParameterError(f"reading homography file {path}: need 9 numbers (a 3x3 matrix), got {h.size}")
    if not np.isfinite(h).all():
        raise ParameterError(f"reading homography file {path}: entries must be finite")
    return h.reshape(3, 3)


def _cmd_attack(args) -> int:
    img_a = load_image(args.img_a)
    img_b = load_image(args.img_b)
    h_target = _load_homography(args.homography)
    config = RunConfig(
        seed=args.seed,
        levels=args.levels,
        iters=args.iters,
        lr=args.lr,
        alpha=args.alpha,
        beta=args.beta,
        max_keypoints=args.keypoints,
        out_dir=args.out,
    )
    result = attack(img_a, img_b, h_target, config)
    print(f"target-consistent matches: {result.pre_count} -> {result.post_count}")
    return 0


def _cmd_bench(args) -> int:
    try:
        batches = [int(b) for b in args.batches.split(",") if b]
    except ValueError:
        batches = []
    if not batches or min(batches) < 1:
        raise ParameterError(f"--batches must be positive integers separated by commas, got {args.batches!r}")
    rows = run_bench(args.op, batches, image_size=args.size, repeats=args.repeats)
    print("batch,median_ms,per_sample_ms")
    for r in rows:
        print(f"{r.batch},{r.median_ms:.4g},{r.per_sample_ms:.4g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_bench_csv(os.path.join(args.out, "bench.csv"), rows)
    return 0


_COMMANDS = {
    "register": _cmd_register,
    "depth": _cmd_depth,
    "attack": _cmd_attack,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, ShapeError, UsageError, DegenerateError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation failed: {args.command}: {exc}", file=sys.stderr)
        return 3
    except OptimizationError as exc:
        print(f"optimization failed: {args.command}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {args.command}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
