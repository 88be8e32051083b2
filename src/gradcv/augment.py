"""Batched, seeded, differentiable data augmentation.

Every op returns an :class:`AugResult` carrying the transformed batch AND the
exact per-sample 3x3 pixel-coordinate matrix that was applied, so callers can
replay or undo the geometry on labels, boxes, or keypoints.  Photometric ops
report identity matrices.  Parameter draws are constants on the tape
(the batch itself stays differentiable).

Randomness is counter-based: sample i of the c-th draw call reads a Philox
stream keyed by (seed, c<<32 | i), so results are bit-reproducible for a
fixed seed and independent per sample.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import color
from .errors import ParameterError, ShapeError
from .geometry.transforms import get_rotation_matrix2d, warp_affine, warp_perspective
from .tape import Var, as_var, where


class Rng:
    """Seedable counter-based pseudo-random stream with per-sample splits."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._call = 0

    def draw(self, n_samples: int, n_params: int) -> np.ndarray:
        """(n_samples, n_params) uniforms in [0,1); one counter tick."""
        c = self._call
        self._call += 1
        out = np.empty((n_samples, n_params))
        for i in range(n_samples):
            key = (self.seed & 0xFFFFFFFFFFFFFFFF, ((c << 32) | i) & 0xFFFFFFFFFFFFFFFF)
            out[i] = np.random.Generator(np.random.Philox(key=key)).random(n_params)
        return out


@dataclass
class AugResult:
    output: Var  # transformed batch (N,C,H,W)
    transform: Var  # constant per-sample pixel-coordinate matrices (N,3,3)
    params: dict = field(default_factory=dict)


def _check_batch(batch: Var, who: str) -> Var:
    batch = as_var(batch)
    if batch.ndim != 4:
        raise ShapeError(f"{who} expects NCHW input, got {batch.shape}")
    return batch


def _identity_transforms(n: int) -> np.ndarray:
    return np.tile(np.eye(3), (n, 1, 1))


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if lo > hi:
        raise ParameterError(f"invalid range ({lo}, {hi})")
    return lo + u * (hi - lo)


class _RandomFlip:
    """Flip each sample along image axis `axis` (3: left-right, 2:
    top-bottom) with probability p; `who` names the op in errors."""

    def __init__(self, p: float = 0.5):
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"p must be in [0,1], got {p}")
        self.p = p

    def __call__(self, batch, rng: Rng) -> AugResult:
        batch = _check_batch(batch, self.who)
        n = batch.shape[0]
        flip = rng.draw(n, 1)[:, 0] < self.p
        reverse = (slice(None),) * self.axis + (slice(None, None, -1),)
        out = where(flip[:, None, None, None], batch[reverse], batch)
        t = _identity_transforms(n)
        row = 3 - self.axis  # the x row of the matrix for axis 3, the y row for axis 2
        t[flip, row, row] = -1.0
        t[flip, row, 2] = batch.shape[self.axis] - 1.0
        return AugResult(out, Var(t), {"flipped": flip})


class RandomHFlip(_RandomFlip):
    """Flip each sample left-right with probability p."""

    axis, who = 3, "random_hflip"


class RandomVFlip(_RandomFlip):
    """Flip each sample top-bottom with probability p."""

    axis, who = 2, "random_vflip"


class RandomAffine:
    """Per-sample rotation/translation/isotropic scale about the center.

    degrees=(lo,hi); translate=(tx,ty) as max fractions of width/height;
    scale=(lo,hi).
    """

    def __init__(self, degrees=(0.0, 0.0), translate=(0.0, 0.0), scale=(1.0, 1.0)):
        if degrees[0] > degrees[1] or scale[0] > scale[1]:
            raise ParameterError("range lo must be <= hi")
        if scale[0] <= 0:
            raise ParameterError("scale must stay positive")
        if min(translate) < 0:
            raise ParameterError("translate fractions must be >= 0")
        self.degrees = tuple(degrees)
        self.translate = tuple(translate)
        self.scale = tuple(scale)

    def __call__(self, batch, rng: Rng) -> AugResult:
        batch = _check_batch(batch, "random_affine")
        n, _, h, w = batch.shape
        u = rng.draw(n, 4)
        angles = _uniform(u[:, 0], *self.degrees)
        txs = _uniform(u[:, 1], -self.translate[0], self.translate[0]) * w
        tys = _uniform(u[:, 2], -self.translate[1], self.translate[1]) * h
        scales = _uniform(u[:, 3], *self.scale)
        center = ((w - 1) / 2.0, (h - 1) / 2.0)
        mats = np.stack(
            [get_rotation_matrix2d(center, a, s) for a, s in zip(angles, scales)]
        )
        mats[:, 0, 2] += txs
        mats[:, 1, 2] += tys
        out = warp_affine(batch, mats)
        t = _identity_transforms(n)
        t[:, :2, :] = mats
        return AugResult(
            out, Var(t), {"angle": angles, "tx": txs, "ty": tys, "scale": scales}
        )


class ColorJitter:
    """Per-sample photometric jitter, applied in the fixed order
    brightness -> contrast -> saturation -> hue; transform stays identity.

    brightness is an additive offset range; contrast/saturation are factor
    ranges; hue is a shift range in radians.  Each draw gives one factor
    per sample, and each adjustment is one batched `color.adjust_*` call on
    those factors.
    """

    def __init__(
        self,
        brightness=(0.0, 0.0),
        contrast=(1.0, 1.0),
        saturation=(1.0, 1.0),
        hue=(0.0, 0.0),
    ):
        for lo, hi in (brightness, contrast, saturation, hue):
            if lo > hi:
                raise ParameterError(f"invalid range ({lo}, {hi})")
        self.brightness = tuple(brightness)
        self.contrast = tuple(contrast)
        self.saturation = tuple(saturation)
        self.hue = tuple(hue)

    def __call__(self, batch, rng: Rng) -> AugResult:
        batch = _check_batch(batch, "color_jitter")
        n = batch.shape[0]
        if (self.saturation, self.hue) != ((1.0, 1.0), (0.0, 0.0)) and batch.shape[1] != 3:
            raise ShapeError("saturation/hue jitter needs 3-channel input")
        u = rng.draw(n, 4)
        bs = _uniform(u[:, 0], *self.brightness)
        cs = _uniform(u[:, 1], *self.contrast)
        ss = _uniform(u[:, 2], *self.saturation)
        hs = _uniform(u[:, 3], *self.hue)
        out = color.adjust_contrast(color.adjust_brightness(batch, bs), cs)
        if batch.shape[1] == 3:
            out = color.adjust_hue(color.adjust_saturation(out, ss), hs)
        return AugResult(
            out,
            Var(_identity_transforms(n)),
            {"brightness": bs, "contrast": cs, "saturation": ss, "hue": hs},
        )


class RandomErasing:
    """Zero out a random rectangle per sample with probability p.

    Photometric contract: the reported transform stays identity.
    """

    def __init__(self, p: float = 0.5, scale=(0.02, 0.2), ratio=(0.5, 2.0)):
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"p must be in [0,1], got {p}")
        if scale[0] > scale[1] or ratio[0] > ratio[1] or scale[0] <= 0 or ratio[0] <= 0:
            raise ParameterError("invalid scale/ratio range")
        self.p = p
        self.scale = tuple(scale)
        self.ratio = tuple(ratio)

    def __call__(self, batch, rng: Rng) -> AugResult:
        batch = _check_batch(batch, "random_erasing")
        n, _, h, w = batch.shape
        u = rng.draw(n, 5)
        mask = np.ones((n, 1, h, w))
        boxes = np.zeros((n, 4), dtype=np.int64)
        for i in range(n):
            if u[i, 0] >= self.p:
                continue
            area = _uniform(u[i, 1], *self.scale) * h * w
            ratio = _uniform(u[i, 2], *self.ratio)
            eh = min(h, max(1, int(round(np.sqrt(area / ratio)))))
            ew = min(w, max(1, int(round(np.sqrt(area * ratio)))))
            i0 = int(u[i, 3] * (h - eh + 1))
            j0 = int(u[i, 4] * (w - ew + 1))
            mask[i, 0, i0 : i0 + eh, j0 : j0 + ew] = 0.0
            boxes[i] = (i0, j0, eh, ew)
        out = batch * mask
        return AugResult(out, Var(_identity_transforms(n)), {"boxes": boxes})


class RandomResizedCrop:
    """Crop a random area/aspect box and resize it back to the input size."""

    def __init__(self, scale=(0.5, 1.0), ratio=(0.75, 4.0 / 3.0)):
        if scale[0] > scale[1] or ratio[0] > ratio[1] or scale[0] <= 0 or ratio[0] <= 0:
            raise ParameterError("invalid scale/ratio range")
        self.scale = tuple(scale)
        self.ratio = tuple(ratio)

    def __call__(self, batch, rng: Rng) -> AugResult:
        batch = _check_batch(batch, "random_resized_crop")
        n, _, h, w = batch.shape
        u = rng.draw(n, 4)
        mats = _identity_transforms(n)
        boxes = np.zeros((n, 4))
        for i in range(n):
            area = _uniform(u[i, 0], *self.scale) * h * w
            ratio = _uniform(u[i, 1], *self.ratio)
            cw = min(w, max(2, int(round(np.sqrt(area * ratio)))))
            ch = min(h, max(2, int(round(np.sqrt(area / ratio)))))
            i0 = u[i, 2] * (h - ch)
            j0 = u[i, 3] * (w - cw)
            sx = (w - 1) / (cw - 1)
            sy = (h - 1) / (ch - 1)
            mats[i] = [[sx, 0.0, -j0 * sx], [0.0, sy, -i0 * sy], [0.0, 0.0, 1.0]]
            boxes[i] = (i0, j0, ch, cw)
        out = warp_perspective(batch, mats)
        return AugResult(out, Var(mats), {"boxes": boxes})


class AugmentChain:
    """Sequential augmentation; composed transform is T_k @ ... @ T_1."""

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise ParameterError("chain needs at least one op")
        self.ops = ops

    def __call__(self, batch, rng: Rng) -> AugResult:
        batch = _check_batch(batch, "augment chain")
        n = batch.shape[0]
        total = _identity_transforms(n)
        params = []
        out = batch
        for op in self.ops:
            res = op(out, rng)
            out = res.output
            total = res.transform.data @ total
            params.append(res.params)
        return AugResult(out, Var(total), {"steps": params})


# functional spellings of the op contracts


def random_hflip(batch, p: float, rng: Rng) -> AugResult:
    return RandomHFlip(p)(batch, rng)


def random_vflip(batch, p: float, rng: Rng) -> AugResult:
    return RandomVFlip(p)(batch, rng)


def random_affine(batch, degrees, translate, scale, rng: Rng) -> AugResult:
    return RandomAffine(degrees, translate, scale)(batch, rng)


def color_jitter(batch, brightness, contrast, saturation, hue, rng: Rng) -> AugResult:
    return ColorJitter(brightness, contrast, saturation, hue)(batch, rng)


def random_erasing(batch, p, rng: Rng, scale=(0.02, 0.2), ratio=(0.5, 2.0)) -> AugResult:
    return RandomErasing(p, scale, ratio)(batch, rng)


def random_resized_crop(batch, rng: Rng, scale=(0.5, 1.0), ratio=(0.75, 4.0 / 3.0)) -> AugResult:
    return RandomResizedCrop(scale, ratio)(batch, rng)


def compose(ops) -> AugmentChain:
    return AugmentChain(ops)
