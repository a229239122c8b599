"""The members' layer-wise concatenation and the unit operations on it:
pruning, reordering (`fusion.align_average`) and placement
(`fusion.transplant_fraction`). Each picks units, by `_ranked_order` or by
align's assignment, and moves them through `gather_units`, which moves a
unit's row/filter, bias, BN channel and downstream inputs together.

`KeepPolicy` alone sets how many units each hidden layer keeps: by default one
member's width, N // k of a layer's N units from k members, ranked jointly.

The norm rule: a hidden unit's squared norm adds up, in ascending member
(origin label) order, the sums of squares of the slices of its incoming row
fed by each member's units of the previous hidden layer, then the bias
squared; the input layer, or a network without labels, is one block. A
concatenated unit's blocks of other members are zero and add exactly +0.0, so
its norm is its member's own `row_l2_norms`, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ArchIncompatible, EmptyLayer, InvalidArg
from .network import (
    LayerCoupling,
    LayerKind,
    LayerSpec,
    Network,
    UNIT_KINDS,
    check_specs,
    hidden_couplings,
)
from .tensor import _block_norms, row_l2_norms


@dataclass(frozen=True)
class KeepPolicy:
    """How many units each hidden layer keeps.

    A layer's k is its number of sources, or of origin labels when there is
    one source (1 without labels). The default `KeepPolicy()` keeps one
    member's width, N // k of the layer's N units, ranked jointly;
    `per_member()` splits that width evenly, each member keeping its own top
    units (the first width % k members one more), and refuses a layer whose
    members hold unequal unit counts. sparsity s keeps N - floor(s*N) (never
    below 1) and `sparsity(None)` is the default; keep_counts pins each layer.
    """

    mode: str = "member"  # member | per_member | sparsity | keep_counts
    value: float = 0.0
    counts: tuple[int, ...] = ()

    @staticmethod
    def sparsity(s: Optional[float]) -> "KeepPolicy":
        if s is None:
            return KeepPolicy()
        if not 0.0 <= s < 1.0:
            raise InvalidArg("sparsity must be in [0, 1)")
        return KeepPolicy("sparsity", value=s)

    @staticmethod
    def keep_counts(counts) -> "KeepPolicy":
        return KeepPolicy("keep_counts", counts=tuple(int(c) for c in counts))

    @staticmethod
    def per_member() -> "KeepPolicy":
        return KeepPolicy("per_member")


def _ranked_order(norms: np.ndarray, origins: Optional[np.ndarray]) -> np.ndarray:
    """Unit indices by norm descending; ties by member then index ascending."""
    idx = np.arange(len(norms))
    member = origins if origins is not None else np.zeros(len(norms), dtype=np.int64)
    return np.lexsort((idx, member, -norms.astype(np.float64)))


def _keep_indices(policy: KeepPolicy, pos: int, layer: int, norms: np.ndarray,
                  origins: Optional[np.ndarray]) -> np.ndarray:
    """Kept (sorted ascending) unit indices of one hidden layer, the
    coupling at position `pos`, from its unit norms and origin labels."""
    units = len(norms)
    order = _ranked_order(norms, origins)
    sizes = np.bincount(origins) if origins is not None else np.array([units])
    width, k = units // len(sizes), len(sizes)  # one member's width, the member count
    if policy.mode == "per_member":
        if origins is None:
            raise InvalidArg("per-member pruning needs origin labels (fuse first)")
        if sizes.min() != sizes.max():
            raise InvalidArg(f"layer {layer}: members hold unequal unit counts {sizes.tolist()}")
        base, extra = divmod(width, k)
        keep_idx = np.sort(np.concatenate(
            [order[origins[order] == j][: base + (j < extra)] for j in range(k)]))
    else:
        if policy.mode == "sparsity":
            keep = max(1, units - math.floor(policy.value * units))
        elif policy.mode == "keep_counts":
            keep = policy.counts[pos]
            if keep > units:
                raise InvalidArg(f"keep count {keep} exceeds layer width {units}")
        else:
            keep = width
        if keep < 1:
            raise EmptyLayer(f"layer {layer} would keep {keep} units")
        keep_idx = np.sort(order[:keep])
    if len(keep_idx) < 1:
        raise EmptyLayer(f"layer {layer} would be emptied")
    return keep_idx


def _concat_ranking(sources: Sequence[Network], c: LayerCoupling,
                    prev: Optional[LayerCoupling]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Unit norms (by the norm rule) and origin labels of layer `c.layer` of
    the sources' concatenation, without building it; `prev` is the previous
    hidden layer's coupling, None for the input-connected layer."""
    if len(sources) > 1:  # each source is one member: its own norms
        norms = [row_l2_norms(s.params[c.layer]["weight"], s.params[c.layer]["bias"])
                 for s in sources]
        return np.concatenate(norms), np.repeat(np.arange(len(sources)), c.units)
    p, origins = sources[0].params[c.layer], sources[0].origins or {}
    labels = origins.get(prev.layer) if prev is not None else None
    if labels is None:
        return row_l2_norms(p["weight"], p["bias"]), origins.get(c.layer)
    blocks = [p["weight"].take(_unit_columns(np.flatnonzero(labels == j), prev.block), axis=1)
              for j in np.unique(labels)]
    return _block_norms(blocks, p["bias"]), origins.get(c.layer)


def _member_slices(kept: np.ndarray, units: int, k: int) -> list[tuple[slice, np.ndarray]]:
    """Split concatenation unit ids j*units + u, grouped by member j in
    member order, into, per member, the output positions it fills and its
    own unit indices u."""
    bounds = [0, *np.cumsum(np.bincount(kept // units, minlength=k)).tolist()]
    return [(slice(bounds[j], bounds[j + 1]), kept[bounds[j] : bounds[j + 1]] - j * units)
            for j in range(k)]


def _unit_columns(units: np.ndarray, block: int) -> np.ndarray:
    """Next-layer input columns of `units`: unit u feeds u*block .. u*block+block-1."""
    return (units[:, None] * block + np.arange(block)).ravel()


def _take(w: np.ndarray, rows: Optional[np.ndarray], cols: Optional[np.ndarray]) -> np.ndarray:
    if rows is not None:
        w = w.take(rows, axis=0)
    if cols is not None:
        w = w.take(cols, axis=1)
    return w


def gather_units(sources: Sequence[Network], couplings: Sequence[LayerCoupling],
                 kept: list[np.ndarray]) -> Network:
    """The network that keeps units `kept` of the layer-wise concatenation of
    `sources`, gathered straight from the sources; `couplings` are the
    sources' `hidden_couplings`.

    The concatenation of k members stacks their hidden units member by
    member: a kept unit takes its member's row, bias and BN channel, and the
    next layer's input slice of the same member, and weights linking units of
    different members are zero. The head is the concatenation of the members'
    kept columns scaled by 1/k with the mean member bias, and a head-only
    chain is the mean of the heads. In eval mode the full concatenation
    computes the mean of the member outputs.

    `kept[pos]` holds the concatenation ids j*m + u of the units kept in
    `couplings[pos]`, where m is the member width. The ids must be grouped by
    member j in member order, in any order within a member; the output holds
    each member's units in the order given. With one source, `kept` may be any
    index list, repeats included: structured pruning (sorted), a reordering (a
    permutation) or a placement (any other list). All output tensors are fresh
    arrays; origin labels are left to the caller.
    """
    k = len(sources)
    rows: dict[int, list] = {}  # unit layer -> per-member (out slice, unit ids)
    cols: dict[int, tuple[list, LayerCoupling]] = {}  # next layer -> (slices, coupling)
    bn_of: dict[int, int] = {}  # batchnorm layer -> its unit layer
    for c, keep_idx in zip(couplings, kept):
        rows[c.layer] = segs = _member_slices(keep_idx, c.units, k)
        cols[c.next_layer] = (segs, c)
        bn_of.update((bi, c.layer) for bi in c.bn_layers)

    specs: list[LayerSpec] = []
    params: list[dict] = []
    for i, spec in enumerate(sources[0].specs):
        mats = [s.params[i] for s in sources]
        if spec.kind is LayerKind.BATCHNORM2D:
            segs = rows[bn_of[i]]
            p = {key: np.concatenate([m[key][u] for m, (_, u) in zip(mats, segs)])
                 for key in mats[0]}
            specs.append(LayerSpec(spec.kind, (len(p["weight"]),)))
            params.append(p)
            continue
        if spec.kind not in UNIT_KINDS:
            specs.append(spec)
            params.append({})
            continue
        row_segs = rows.get(i)
        col_segs, feed = cols.get(i, (None, None))
        w0 = mats[0]["weight"]
        if row_segs is None and col_segs is None:  # head-only chain: the mean head
            w = w0.copy()
            for m in mats[1:]:
                w += m["weight"]
        else:
            n_rows = row_segs[-1][0].stop if row_segs else w0.shape[0]
            n_cols = col_segs[-1][0].stop * feed.block if col_segs else w0.shape[1]
            w = np.zeros((n_rows, n_cols, *w0.shape[2:]), dtype=np.float32)
            for j, m in enumerate(mats):
                out_r, src_r = row_segs[j] if row_segs else (slice(None), None)
                out_c, src_c = slice(None), None
                if col_segs:  # each unit feeds `block` consecutive columns or one channel
                    (pos, units), b = col_segs[j], feed.block
                    out_c = slice(pos.start * b, pos.stop * b)
                    src_c = _unit_columns(units, b)
                w[out_r, out_c] = _take(m["weight"], src_r, src_c)
        if row_segs:
            bias = np.concatenate([m["bias"][u] for m, (_, u) in zip(mats, row_segs)])
        else:  # the head: bias summed in member order
            bias = mats[0]["bias"].copy()
            for m in mats[1:]:
                bias += m["bias"]
            if k > 1:
                w /= np.float32(k)
                bias /= np.float32(k)
        fout, fin = w.shape[:2]
        specs.append(LayerSpec(spec.kind, (fin, fout, *spec.dims[2:])))
        params.append({"weight": w, "bias": bias})
    check_specs(specs)
    return Network(specs, params)


def prune_concat(sources: Sequence[Network], policy: KeepPolicy) -> Network:
    """`magnitude_prune` of the layer-wise concatenation of `sources` (which
    share one architecture), built in memory of the sources plus the result.

    Units are ranked by the module's norm rule (each of k sources' units by
    that source's own norms), ties broken by origin labels (member ids; a
    single source's own labels), and gathered by `gather_units`; the output,
    origins included, is bit-identical to pruning the concatenated network.
    One source is plain structured pruning of it.

    All k sources are held at once, even when `sources` loads each on read
    (`checkpoint.CheckpointSequence`): the joint ranking reads every
    source's norms before the gather reads any source's weights.
    """
    sources = list(sources)  # each source read once
    couplings = hidden_couplings(sources[0])
    if policy.mode == "keep_counts" and len(policy.counts) != len(couplings):
        raise InvalidArg(f"need {len(couplings)} keep counts, got {len(policy.counts)}")
    ranked = [_concat_ranking(sources, c, couplings[pos - 1] if pos else None)
              for pos, c in enumerate(couplings)]
    kept = [_keep_indices(policy, pos, c.layer, *ranked[pos]) for pos, c in enumerate(couplings)]
    out = gather_units(sources, couplings, kept)
    out.origins = {c.layer: o[keep] for c, (_, o), keep in zip(couplings, ranked, kept)
                   if o is not None} or None
    return out


def magnitude_prune(net: Network, policy: KeepPolicy) -> Network:
    """Keep the top units per hidden layer by incoming L2 norm (the module's
    norm rule; ties broken by origin member then index) and rebuild a
    smaller network.

    Surviving parameters are bit-identical and keep their relative order.
    """
    return prune_concat([net], policy)


def prune_to_architecture(big: Network, reference: Network) -> Network:
    """Prune `big` down to the reference's hidden widths.

    Layer kinds, kernel geometry, and head width must already agree; only
    unit counts may differ (and never upward).
    """
    if len(big.specs) != len(reference.specs):
        raise ArchIncompatible("layer counts differ")
    for bs, rs in zip(big.specs, reference.specs):
        if bs.kind is not rs.kind:
            raise ArchIncompatible(f"layer kinds differ: {bs.kind} vs {rs.kind}")
        if bs.kind is LayerKind.CONV2D and bs.dims[2:] != rs.dims[2:]:
            raise ArchIncompatible("conv kernel/stride/padding differ")
        if bs.kind is LayerKind.MAXPOOL2D and bs.dims != rs.dims:
            raise ArchIncompatible("pool windows differ")
    big_couplings = hidden_couplings(big)
    ref_couplings = hidden_couplings(reference)
    counts = []
    for bc, rc in zip(big_couplings, ref_couplings):
        if bc.units < rc.units:
            raise ArchIncompatible(
                f"layer {bc.layer}: cannot grow {bc.units} units to {rc.units}")
        counts.append(rc.units)
    pruned = magnitude_prune(big, KeepPolicy.keep_counts(counts))
    if pruned.arch_id != reference.arch_id:
        raise ArchIncompatible("pruned architecture does not match the reference")
    return pruned
