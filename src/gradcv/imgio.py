"""Binary PPM/PGM image I/O.

P6 (8-bit RGB) and P5 (8-bit gray) map to/from [0,1] floats via v/255; P5
with maxval 65535 (16-bit, big-endian) is used for depth maps via v/65535.
Readers return HWC/HW float arrays; ``load_image`` wraps them as NCHW.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .errors import ParameterError
from .tape import Var
from .tensor import as_array

_TOKEN = re.compile(rb"(?:\s*(?:#[^\n]*\n)?)*(\S+)")


def _read_tokens(buf: bytes, count: int):
    """First `count` whitespace-separated header tokens, skipping comments."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        m = _TOKEN.match(buf, pos)
        if m is None:
            raise ParameterError("truncated PNM header")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens, pos + 1  # header ends with exactly one whitespace byte


def read_pnm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PPM/PGM file to float64 in [0,1]; HW or HWC layout.

    A malformed file raises ParameterError naming the file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse_pnm(buf)
    except ParameterError as exc:
        raise ParameterError(f"reading PNM file {os.fspath(path)}: {exc}") from None


def _parse_pnm(buf: bytes) -> np.ndarray:
    (magic, *rest), _ = _read_tokens(buf, 1)
    if magic not in (b"P5", b"P6"):
        raise ParameterError(f"unsupported PNM magic {magic!r} (want P5/P6)")
    tokens, offset = _read_tokens(buf, 4)
    if not all(t.isdigit() for t in tokens[1:4]):
        raise ParameterError(f"width, height and maxval must be integers, got {b' '.join(tokens[1:4])!r}")
    w, h, maxval = (int(t) for t in tokens[1:4])
    if w < 1 or h < 1:
        raise ParameterError(f"image size must be at least 1x1, got {w}x{h}")
    if maxval not in (255, 65535):
        raise ParameterError(f"unsupported maxval {maxval}")
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype(np.uint8)
    count = w * h * channels
    if (len(buf) - offset) // dtype.itemsize < count:
        raise ParameterError("truncated PNM pixel data")
    raw = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    img = raw.astype(np.float64) / maxval
    return img.reshape(h, w, 3) if channels == 3 else img.reshape(h, w)


def write_pnm(path: str | os.PathLike, img, maxval: int = 255) -> None:
    """Write a [0,1] float image (HW gray or HWC RGB) as binary PGM/PPM."""
    arr = np.asarray(as_array(img), dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    elif arr.ndim == 2:
        magic = b"P5"
    else:
        raise ParameterError(f"expected HW or HWC image, got shape {arr.shape}")
    if maxval not in (255, 65535):
        raise ParameterError(f"unsupported maxval {maxval}")
    h, w = arr.shape[:2]
    q = np.rint(np.clip(arr, 0.0, 1.0) * maxval)
    data = q.astype(np.dtype(">u2") if maxval == 65535 else np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n%d\n" % (magic, w, h, maxval))
        fh.write(data.tobytes())


def load_image(path: str | os.PathLike, dtype=np.float64) -> Var:
    """Read a PPM/PGM file as a constant 1xCxHxW Var in [0,1]."""
    img = read_pnm(path).astype(dtype)
    if img.ndim == 2:
        chw = img[None, :, :]
    else:
        chw = img.transpose(2, 0, 1)
    return Var(chw[None])


def save_image(path: str | os.PathLike, img, maxval: int = 255) -> None:
    """Write a 1xCxHxW (or CxHxW/HxW) tensor in [0,1] as PPM/PGM."""
    arr = np.asarray(as_array(img), dtype=np.float64)
    if arr.ndim == 4:
        if arr.shape[0] != 1:
            raise ParameterError("save_image writes a single image, got a batch")
        arr = arr[0]
    if arr.ndim == 3:
        if arr.shape[0] == 1:
            arr = arr[0]
        elif arr.shape[0] == 3:
            arr = arr.transpose(1, 2, 0)
        else:
            raise ParameterError(f"expected 1 or 3 channels, got {arr.shape[0]}")
    write_pnm(path, arr, maxval=maxval)
