"""In-memory span tracing around calls into `ntfusion`.

Each traced function is wrapped at every module attribute that holds it, so
callers that imported the name (`from .tensor import conv2d`) resolve the
wrapper just like callers that go through the module (`layers.conv_forward`).
A span records its name, start, end, parent span and pass id; spans stay in
memory until `write_jsonl`. A layer's self time is its span duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from dataclasses import asdict, dataclass
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    pass_id: int
    nbytes: int = 0
    call: bool = True  # False for a span around one step of a returned generator


def _batches_bytes(args, kwargs, out) -> int:
    return sum(x.nbytes + y.nbytes for x, y in out)


def _net_bytes(args, kwargs, out) -> int:
    return out.num_bytes()


def _loaded_bytes(args, kwargs, out) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _saved_bytes(args, kwargs, out) -> int:
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# "<module>.<function>" in ntfusion -> computed-bytes function (or None).
TRACED = {
    "tensor.conv2d": None,
    "tensor.matmul": None,
    "tensor.row_l2_norms": None,
    "layers.linear_forward": None,
    "layers.linear_backward": None,
    "layers.conv_forward": None,
    "layers.conv_backward": None,
    "layers.bn_forward": None,
    "layers.bn_backward": None,
    "layers.maxpool_forward": None,
    "layers.maxpool_backward": None,
    "layers.relu_forward": None,
    "layers.relu_backward": None,
    "losses.cross_entropy": None,
    "losses.kd": None,
    "network.forward": None,
    "network.backward": None,
    "data.batches": _batches_bytes,
    "data.synth_shapes": None,
    "data.synth_blobs": None,
    "training.train": None,
    "training.distill": None,
    "training.evaluate": None,
    "training.average_logits": None,
    "fusion.concat_fuse": _net_bytes,
    "fusion.nt_fuse": None,
    "fusion.fuse_iterative": None,
    "fusion.fuse_recursive": None,
    "fusion.vanilla_average": None,
    "fusion.align_average": None,
    "pruning.magnitude_prune": None,
    "pruning.prune_to_architecture": None,
    "checkpoint.load_checkpoint": _loaded_bytes,
    "checkpoint.save_checkpoint": _saved_bytes,
    "experiments.run_pipeline": None,
    "experiments.compare_methods": None,
    "experiments.train_members": None,
    "experiments.ensemble_accuracy": None,
    "cli.cli_dispatch": None,
}


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for fn, nbytes in TRACED.items():
        names += [f"{fn}.self_s", f"{fn}.calls"]
        if nbytes is not None:
            names.append(f"{fn}.bytes")
    return names + ["trace.overhead_ratio"]


class Tracer:
    """Collects spans of one process; single-threaded by construction."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def open(self, name: str, call: bool = True) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.pass_id, call=call))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, name: str, fn, nbytes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if isinstance(out, types.GeneratorType):
                return self._iterate(name, out, nbytes)
            if nbytes is not None:
                self.spans[idx].nbytes = int(nbytes(args, kwargs, out))
            return out

        return traced

    def _iterate(self, name: str, gen, nbytes):
        # A generator does its work on each step, so each step gets a span;
        # `nbytes` then sees a one-item list as the result.
        while True:
            idx = self.open(name, call=False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(idx)
            if nbytes is not None:
                self.spans[idx].nbytes = int(nbytes((), {}, [item]))
            yield item

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), separators=(",", ":")) + "\n")


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = _union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids)
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-pass self time, call count and computed bytes of every traced
    function, as the median over passes (functions never called read 0)."""
    selfs = self_times(spans)
    passes = sorted({s.pass_id for s in spans}) or [0]
    per_pass = {p: {} for p in passes}
    for s, self_s in zip(spans, selfs):
        acc = per_pass[s.pass_id].setdefault(s.name, [0.0, 0, 0])
        acc[0] += self_s
        acc[1] += int(s.call)
        acc[2] += s.nbytes
    out = {}
    for fn, nbytes in TRACED.items():
        rows = [per_pass[p].get(fn, [0.0, 0, 0]) for p in passes]
        out[f"{fn}.self_s"] = median(r[0] for r in rows)
        out[f"{fn}.calls"] = median(r[1] for r in rows)
        if nbytes is not None:
            out[f"{fn}.bytes"] = median(r[2] for r in rows)
    return out


class Patches:
    """Replaces module attributes and puts the originals back on `restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def _ntfusion_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ntfusion" or name.startswith("ntfusion."))]


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap every TRACED function wherever an ntfusion module holds it."""
    modules = _ntfusion_modules()
    for fn, nbytes in TRACED.items():
        mod_name, attr = fn.split(".")
        original = getattr(sys.modules[f"ntfusion.{mod_name}"], attr)
        wrapper = tracer.wrap(fn, original, nbytes)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    patches.set(module, name, wrapper)
