"""The members' layer-wise concatenation and structured unit selection on it:
rank units by L2 norm and rebuild a genuinely smaller network, and reorder
units, all through one coupled gather that moves each unit's row/filter,
bias, BN channel, and downstream input slice together."""

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
from .tensor import row_l2_norms


@dataclass(frozen=True)
class KeepPolicy:
    """How many units survive per layer.

    sparsity s keeps N - floor(s*N) (never below 1); keep_counts pins each
    hidden layer; per_member quotas keep the top-q_j units of each ensemble
    member and need origin labels on the network.
    """

    mode: str
    value: float = 0.0
    counts: tuple[int, ...] = ()
    quotas: tuple[int, ...] = ()

    @staticmethod
    def sparsity(s: float) -> "KeepPolicy":
        if not 0.0 <= s < 1.0:
            raise InvalidArg("sparsity must be in [0, 1)")
        return KeepPolicy("sparsity", value=s)

    @staticmethod
    def keep_counts(counts) -> "KeepPolicy":
        return KeepPolicy("keep_counts", counts=tuple(int(c) for c in counts))

    @staticmethod
    def per_member(quotas) -> "KeepPolicy":
        return KeepPolicy("per_member", quotas=tuple(int(q) for q in quotas))


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
    if policy.mode == "per_member":
        if origins is None:
            raise InvalidArg("per-member quotas need origin labels (fuse first)")
        if len(policy.quotas) != int(origins.max()) + 1:
            raise InvalidArg("one quota per ensemble member required")
        chosen = []
        for j, quota in enumerate(policy.quotas):
            mine = np.flatnonzero(origins == j)
            if quota > len(mine):
                raise InvalidArg(f"quota {quota} exceeds member {j} width {len(mine)}")
            order = mine[np.lexsort((mine, -norms[mine].astype(np.float64)))]
            chosen.append(order[:quota])
        keep_idx = np.sort(np.concatenate(chosen)) if chosen else np.array([], dtype=np.int64)
    else:
        if policy.mode == "sparsity":
            keep = max(1, units - math.floor(policy.value * units))
        else:
            keep = policy.counts[pos]
            if keep > units:
                raise InvalidArg(f"keep count {keep} exceeds layer width {units}")
        if keep < 1:
            raise EmptyLayer(f"layer {layer} would keep {keep} units")
        keep_idx = np.sort(_ranked_order(norms, origins)[:keep])
    if len(keep_idx) < 1:
        raise EmptyLayer(f"layer {layer} would be emptied")
    return keep_idx


def _concat_norms(sources: Sequence[Network], c: LayerCoupling, stacked: bool) -> np.ndarray:
    """Row L2 norms of layer `c.layer` of the sources' concatenation, bit for
    bit, without building it.

    `stacked` marks the input-connected layer, whose concatenation only stacks
    member rows. An interior member row sits at its member's column offset
    among zeros, and einsum rounds such a padded row differently from the
    bare row, so each member's rows are laid into one zeroed buffer of the
    wide width (1/k of the wide layer) and measured there.
    """
    k = len(sources)
    layers = [s.params[c.layer] for s in sources]
    if stacked or k == 1:
        return np.concatenate([row_l2_norms(p["weight"], p["bias"]) for p in layers])
    n = layers[0]["weight"][0].size
    buf = np.zeros((c.units, k * n), dtype=np.float32)
    norms = []
    for j, p in enumerate(layers):
        if j:
            buf[:, (j - 1) * n : j * n] = 0.0
        buf[:, j * n : (j + 1) * n] = p["weight"].reshape(c.units, n)
        norms.append(row_l2_norms(buf, p["bias"]))
    return np.concatenate(norms)


def _concat_origins(sources: Sequence[Network], c: LayerCoupling) -> Optional[np.ndarray]:
    """Origin labels of layer `c.layer` in the sources' concatenation."""
    if len(sources) > 1:
        return np.repeat(np.arange(len(sources)), c.units)
    origins = sources[0].origins
    return origins.get(c.layer) if origins else None


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
    each member's units in the order given. With one source this is
    structured pruning (sorted ids) or a reordering (a permutation) of that
    network. All output tensors are fresh arrays; origin labels are left to
    the caller.
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


def permute_units(net: Network, orders: dict[int, np.ndarray]) -> Network:
    """Reorder hidden layers' units: `orders` maps a hidden unit layer to its
    new unit order, and each unit's row, bias, BN channel and next-layer
    inputs move together, so the function the network computes is
    unchanged. A one-source `gather_units` that keeps every unit, in the
    given order or in place; origin labels follow."""
    couplings = hidden_couplings(net)
    widths = {c.layer: c.units for c in couplings}
    kept = {}
    for layer, order in orders.items():
        if layer not in widths:
            raise InvalidArg(f"layer {layer} is not a hidden unit layer")
        kept[layer] = np.asarray(order, dtype=np.int64)
        if sorted(kept[layer].tolist()) != list(range(widths[layer])):
            raise InvalidArg("order must be a permutation of the layer's units")
    out = gather_units([net], couplings,
                       [kept.get(c.layer, np.arange(c.units)) for c in couplings])
    if net.origins is not None:
        out.origins = {layer: o[kept[layer]] if layer in kept else o.copy()
                       for layer, o in net.origins.items()}
    return out


def prune_concat(sources: Sequence[Network], policy: KeepPolicy) -> Network:
    """`magnitude_prune` of the layer-wise concatenation of `sources` (which
    share one architecture), built in memory of the sources plus the result.

    Units are ranked by the norms the concatenation would have, ties broken
    by its origin labels (member ids; a single source's own labels), and
    gathered by `gather_units`; the output, origins included, is
    bit-identical to pruning the concatenated network. One source is plain
    structured pruning of it.
    """
    couplings = hidden_couplings(sources[0])
    if policy.mode == "keep_counts" and len(policy.counts) != len(couplings):
        raise InvalidArg(f"need {len(couplings)} keep counts, got {len(policy.counts)}")
    labels = [_concat_origins(sources, c) for c in couplings]
    kept = [_keep_indices(policy, pos, c.layer,
                          _concat_norms(sources, c, pos == 0), labels[pos])
            for pos, c in enumerate(couplings)]
    out = gather_units(sources, couplings, kept)
    out.origins = {c.layer: o[keep] for c, o, keep in zip(couplings, labels, kept)
                   if o is not None} or None
    return out


def magnitude_prune(net: Network, policy: KeepPolicy) -> Network:
    """Keep the top units per hidden layer by incoming L2 norm (bias included;
    ties broken by origin member then index) and rebuild a smaller network.

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
