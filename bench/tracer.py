"""Outside-in tracing of gradcv's public functions.

Modules import functions by name (``from ..kernels import sample_bilinear``),
so patching the defining module alone misses every call made through another
module's namespace.  ``rebind`` therefore replaces a function object in every
``gradcv.*`` module that holds it, and puts the original back on exit.

``Tracer`` records one span per call of a traced function (name, start, end,
parent span, operation id) in memory, plus a few counts derived from the
arguments and results at the same boundary.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# metric prefix -> (defining module, attribute or Class.method, nests traced calls)
TRACED = {
    "tape.backward": ("gradcv.tape", "backward", False),
    "kernels.conv2d": ("gradcv.kernels", "conv2d", True),
    "kernels.pad2d": ("gradcv.kernels", "pad2d", False),
    "kernels.sample_bilinear": ("gradcv.kernels", "sample_bilinear", False),
    "kernels.upsample_bilinear": ("gradcv.kernels", "upsample_bilinear", True),
    "filters.gaussian_blur2d": ("gradcv.filters", "gaussian_blur2d", True),
    "filters.spatial_gradient": ("gradcv.filters", "spatial_gradient", True),
    "filters.pyramid_down": ("gradcv.filters", "pyramid_down", True),
    "losses.ssim": ("gradcv.losses", "ssim", True),
    "losses.smoothness_loss": ("gradcv.losses", "smoothness_loss", False),
    "losses.multiview_photo_loss": ("gradcv.losses", "multiview_photo_loss", True),
    "geometry.homography_warp": ("gradcv.geometry.transforms", "homography_warp", True),
    "geometry.depth_warp": ("gradcv.geometry.depth", "depth_warp", True),
    "geometry.warp_perspective": ("gradcv.geometry.transforms", "warp_perspective", True),
    "geometry.get_perspective_transform": (
        "gradcv.geometry.transforms", "get_perspective_transform", False),
    "geometry.transform_points": ("gradcv.geometry.linalg", "transform_points", False),
    "features.hessian_pyramid": ("gradcv.features", "hessian_pyramid", True),
    "features.corner_response": ("gradcv.features", "corner_response", True),
    "features.nms2d": ("gradcv.features", "nms2d", False),
    "features.refine_positions": ("gradcv.features", "refine_positions", False),
    "features.extract_patches_at": ("gradcv.features", "extract_patches_at", True),
    "features.dominant_orientations": ("gradcv.features", "dominant_orientations", True),
    "features.sift_describe": ("gradcv.features", "sift_describe", True),
    "features.describe": ("gradcv.features", "describe", True),
    "features.detect": ("gradcv.features", "detect", True),
    "features.match_mnn": ("gradcv.features", "match_mnn", False),
    "features.ransac_homography": ("gradcv.features", "ransac_homography", True),
    "optim.Adam.step": ("gradcv.optim", "Adam.step", False),
    "optim.SgdMomentum.step": ("gradcv.optim", "SgdMomentum.step", False),
    "demos.register": ("gradcv.demos.registration", "register", True),
    "demos.estimate_depth": ("gradcv.demos.depth_estimation", "estimate_depth", True),
}

# a demo's entry point spans its whole operation; its self time is the demo's
# own glue (untraced tape arithmetic), which coverage does not count
ENTRY_POINTS = ("demos.register", "demos.estimate_depth")

# counts taken at a traced boundary: metric name -> unit
COUNTS = {
    "tape.nodes_per_step": "count",
    "kernels.conv2d.macs": "MAC_computed",
    "kernels.conv2d.bytes": "B_computed",
    "kernels.sample_bilinear.points": "count",
    "features.ransac_homography.inlier_frac": "ratio",
    "geometry.get_perspective_transform.ok_frac": "ratio",
}


def _gradcv_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "gradcv" or n.startswith("gradcv."))]


@contextlib.contextmanager
def rebind(wrappers: dict):
    """Install ``wrappers`` ({(module, attr): factory(original) -> wrapper})
    in every gradcv namespace holding the original; restore on exit."""
    undo = []
    try:
        for (module, attr), factory in wrappers.items():
            owner = sys.modules[module]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, factory(orig))
                continue
            orig = getattr(owner, attr)
            wrapper = factory(orig)
            for mod in _gradcv_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)


class Tracer:
    """Spans and boundary counts for traced operations."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []

    def _counter(self, name):
        if name == "tape.backward":
            def count(a, out, ok):
                self.counts["nodes"] += len(a("loss")._tape)
                self.counts["steps"] += 1
        elif name == "kernels.conv2d":
            def count(a, out, ok):
                if ok:
                    kshape = a("kernel").shape
                    ksize = kshape[-2] * kshape[-1]
                    self.counts["macs"] += out.size * ksize
                    self.counts["bytes"] += (2 * out.size + ksize) * out.dtype.itemsize
        elif name == "kernels.sample_bilinear":
            def count(a, out, ok):
                if ok:
                    self.counts["points"] += out.shape[0] * out.shape[2] * out.shape[3]
        elif name == "features.ransac_homography":
            def count(a, out, ok):
                self.counts["corr"] += len(a("pts_a"))
                if ok:
                    self.counts["inliers"] += int(out[1].sum())
        elif name == "geometry.get_perspective_transform":
            def count(a, out, ok):
                self.counts["gpt_calls"] += 1
                self.counts["gpt_ok"] += ok
        else:
            return None
        return count

    def _factory(self, name):
        spans, stack, counter = self.spans, self._stack, self._counter(name)

        def factory(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                out, ok = None, False
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    spans[sid] = (name, t0, t1, parent, self.op)
                    # counting happens after t1, so its cost lands in the parent's self time
                    if counter is not None:
                        counter(lambda arg: sig.bind(*args, **kwargs).arguments[arg], out, ok)

            return wrapper

        return factory

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Trace every TRACED function for the duration of one operation."""
        self.op = op_id
        with rebind({(mod, attr): self._factory(name)
                     for name, (mod, attr, _) in TRACED.items()}):
            yield

    def per_op_metrics(self, n_ops: int) -> dict:
        """calls/self_ms/total_ms per traced function and the counts, each
        averaged over ``n_ops`` traced operations."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for sid, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total_s[name] += t1 - t0
            self_s[name] += t1 - t0 - child[sid]
        out = {}
        for name, (_, _, nests) in TRACED.items():
            out[f"{name}.calls"] = (calls[name] / n_ops, "count")
            out[f"{name}.self_ms"] = (1e3 * self_s[name] / n_ops, "ms")
            if nests:
                out[f"{name}.total_ms"] = (1e3 * total_s[name] / n_ops, "ms")
        c = self.counts
        ratios = {
            "tape.nodes_per_step": (c["nodes"], c["steps"]),
            "kernels.conv2d.macs": (c["macs"], n_ops),
            "kernels.conv2d.bytes": (c["bytes"], n_ops),
            "kernels.sample_bilinear.points": (c["points"], n_ops),
            "features.ransac_homography.inlier_frac": (c["inliers"], c["corr"]),
            "geometry.get_perspective_transform.ok_frac": (c["gpt_ok"], c["gpt_calls"]),
        }
        for name, (num, den) in ratios.items():
            out[name] = (num / den if den else 0.0, COUNTS[name])
        return out

    def self_time_s(self, op_id: int) -> float:
        """Traced self time of one operation: the time covered by its
        outermost spans below any demo entry point."""
        entries = {sid for sid, span in enumerate(self.spans) if span[0] in ENTRY_POINTS}
        return sum(t1 - t0 for sid, (_, t0, t1, parent, op) in enumerate(self.spans)
                   if op == op_id and sid not in entries and (parent < 0 or parent in entries))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def per_layer_names() -> list:
    """Every per-layer metric the traced run reports, with its unit."""
    return [(name, unit) for name, (_, unit) in Tracer().per_op_metrics(1).items()]
