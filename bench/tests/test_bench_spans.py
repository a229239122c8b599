"""Span bookkeeping: self-time arithmetic, per-pass aggregation, wrapping."""

import sys

import pytest

import spans
from spans import Patches, Span, Tracer, instrument, layer_metrics, self_times


def _tree():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (sticking out past the root); a has a grandchild g [2, 3].
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("g", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 8.0, 12.0, 0, 0),
    ]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7; a: 3 - 1; leaves keep their duration.
    assert self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_times_of_a_tree_sum_to_the_covered_time():
    tree = _tree()[:4]  # without c, every child lies inside its parent
    tree[3] = Span("b", 4.0, 6.0, 0, 0)  # and siblings do not overlap
    assert sum(self_times(tree)) == pytest.approx(10.0)


def test_layer_metrics_take_the_median_over_passes():
    spans_ = [
        Span("layers.relu_forward", 0.0, 1.0, -1, 0),
        Span("layers.relu_forward", 1.0, 2.0, -1, 0),
        Span("layers.relu_forward", 0.0, 4.0, -1, 1),
        Span("layers.relu_forward", 0.0, 6.0, -1, 2),
        Span("data.batches", 0.0, 0.5, -1, 2, nbytes=100),
    ]
    out = layer_metrics(spans_)
    assert out["layers.relu_forward.self_s"] == pytest.approx(4.0)  # of 2, 4, 6
    assert out["layers.relu_forward.calls"] == 1  # of 2, 1, 1
    assert out["data.batches.bytes"] == 0  # of 0, 0, 100
    assert out["fusion.nt_fuse.calls"] == 0
    assert set(out) | {"trace.overhead_ratio"} == set(spans.per_layer_names())


def test_wrapped_calls_nest_and_generator_steps_get_their_own_spans():
    tracer = Tracer()

    def gen(n):
        yield from range(n)

    inner = tracer.wrap("inner", gen, nbytes=lambda a, k, out: 8 * len(out))
    outer = tracer.wrap("outer", lambda: sum(inner(3)))
    assert outer() == 3
    names = [(s.name, s.call, s.parent) for s in tracer.spans]
    assert names[:2] == [("outer", True, -1), ("inner", True, 0)]
    steps = [s for s in tracer.spans[2:]]
    assert len(steps) == 4  # three items and the final StopIteration
    assert all(s.name == "inner" and not s.call and s.parent == 0 for s in steps)
    assert sum(s.nbytes for s in steps) == 24


def test_instrument_patches_every_alias_and_restore_undoes_it():
    import ntfusion.cli  # noqa: F401  (instrument needs every module loaded)
    import ntfusion.experiments  # noqa: F401
    from ntfusion import layers, tensor

    original = tensor.conv2d
    patches = Patches()
    instrument(Tracer(), patches)
    try:
        assert layers.conv2d is not original
        assert layers.conv2d is tensor.conv2d
        assert sys.modules["ntfusion"].conv2d is tensor.conv2d
    finally:
        patches.restore()
    assert layers.conv2d is original and tensor.conv2d is original
