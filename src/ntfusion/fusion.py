"""Ensemble fusion: layer-wise concatenation, averaging baselines, neuron
transplantation between two models, and pairwise reduction schemes.

NT starts from the members' layer-wise concatenation, whose layout
`pruning.gather_units` defines: every member's hidden units side by side,
zero weights between members, and the mean head, so that in eval mode it
computes the mean of the member outputs. `concat_fuse` keeps all of it, for
fine-tuning the wide model before pruning. NT (`nt_fuse` and the pairwise
schemes) keeps only its highest-norm units, which `pruning.prune_concat`
gathers straight from the members without building the wide network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .checkpoint import CheckpointSequence
from .errors import ArchMismatch, InvalidArg
from .network import Network, hidden_couplings
from .pruning import KeepPolicy, _ranked_order, _unit_columns, gather_units, prune_concat
from .tensor import row_l2_norms


@dataclass
class EnsembleBundle:
    """k trained networks of identical architecture plus their seeds.

    `members` may be any sequence of networks. In a `CheckpointSequence`
    each read of a member loads its file, so a method holds a member only
    while it uses it; its architectures are checked from the file headers
    alone, before any payload is read.
    """

    members: Sequence[Network]
    member_seeds: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidArg("bundle needs at least one member")
        ids = set(self.members.arch_ids() if isinstance(self.members, CheckpointSequence)
                  else (m.arch_id for m in self.members))
        if len(ids) != 1:
            raise ArchMismatch(f"members disagree on architecture: {sorted(ids)}")
        if not self.member_seeds:
            self.member_seeds = list(range(len(self.members)))

    @property
    def k(self) -> int:
        return len(self.members)

    @property
    def arch_id(self) -> str:
        return self.members[0].arch_id


@dataclass(frozen=True)
class FusionPlan:
    """Declarative description of a fusion run: `fuse` reads every field but
    `finetune`. sparsity None keeps one member's widths (`KeepPolicy()`).
    """

    method: str = "nt"  # nt | nt_iterative | nt_recursive | avg | align
    sparsity: Optional[float] = None
    pipeline: str = "merge_prune_ft"  # prune_merge_ft | merge_prune_ft | merge_ft_prune_ft
    finetune: Optional[object] = None  # TrainConfig

    def __post_init__(self) -> None:
        if self.method not in ("nt", "nt_iterative", "nt_recursive", "avg", "align"):
            raise InvalidArg(f"unknown fusion method {self.method!r}")
        if self.pipeline not in ("prune_merge_ft", "merge_prune_ft", "merge_ft_prune_ft"):
            raise InvalidArg(f"unknown pipeline {self.pipeline!r}")
        KeepPolicy.sparsity(self.sparsity)
        # Refuse settings the plan would never read rather than ignore them.
        if self.method != "nt" and self.pipeline != "merge_prune_ft":
            raise InvalidArg(f"pipeline {self.pipeline!r} needs method 'nt', not {self.method!r}")
        if self.sparsity is not None and (self.method != "nt" or self.pipeline == "prune_merge_ft"):
            raise InvalidArg(f"{self.method} with {self.pipeline} reads no sparsity")


def _require_fusable(bundle: EnsembleBundle) -> None:
    """k >= 2; every caller validates the specs through `hidden_couplings`."""
    if bundle.k < 2:
        raise InvalidArg("fusion needs k >= 2 members")


def concat_fuse(bundle: EnsembleBundle) -> Network:
    """The layer-wise concatenation of all members: every hidden unit of every
    member, cross-member weights zero, and the mean head (the layout
    `pruning.gather_units` defines). In eval mode it computes the mean of the
    member outputs. The result labels every hidden unit with its member in
    `origins`."""
    _require_fusable(bundle)
    k = bundle.k
    couplings = hidden_couplings(bundle.members[0])
    fused = gather_units(bundle.members, couplings, [np.arange(k * c.units) for c in couplings])
    fused.origins = {c.layer: np.repeat(np.arange(k), c.units) for c in couplings} or None
    return fused


def vanilla_average(bundle: EnsembleBundle) -> Network:
    """Uniform elementwise mean of every parameter tensor, running stats
    included. Each member is read once and its tensors all added before the
    next member's, so only the running sum and one member are held; every
    element still sums in member order, for reproducibility."""
    out = bundle.members[0].clone()
    out.origins = None
    for m in bundle.members[1:]:
        for acc, p in zip(out.params, m.params):
            for key, v in acc.items():
                v += p[key]
    scale = np.float32(1.0 / bundle.k)
    for p in out.params:
        for v in p.values():
            v *= scale
    return out


def align_average(anchor: Network, *others: Network) -> Network:
    """Permute each other network's units layer by layer to best match the
    anchor, then average the anchor and the aligned networks in member order:
    one-anchor alignment, as in OT fusion of k models.

    Matching minimizes the total squared distance between incoming weight
    rows (with the previous layer's permutation already applied to the input
    side) using an exact balanced assignment. A simplified stand-in for
    transport-based alignment baselines.
    """
    EnsembleBundle([anchor, *others])  # refuses mismatched architectures
    couplings = hidden_couplings(anchor)
    aligned = [anchor]
    for b in others:
        orders, inputs = [], slice(None)  # inputs: b's input columns, in the order chosen so far
        for c in couplings:
            w_b = b.params[c.layer]["weight"][:, inputs]
            rows_a = anchor.params[c.layer]["weight"].reshape(c.units, -1).astype(np.float64)
            rows_b = w_b.reshape(c.units, -1).astype(np.float64)
            cost = (rows_a * rows_a).sum(axis=1)[:, None] + (rows_b * rows_b).sum(axis=1)[None, :]
            cross = rows_a @ rows_b.T
            cross *= 2.0
            cost -= cross  # |a|^2 + |b|^2 - 2 a.b, built in place to keep the peak low
            del rows_a, rows_b, cross  # freed before the assignment allocates its own buffers
            orders.append(linear_sum_assignment(cost)[1])
            inputs = _unit_columns(orders[-1], c.block)
        aligned.append(gather_units([b], couplings, orders))
    return vanilla_average(EnsembleBundle(aligned))


def transplant_fraction(recipient: Network, donor: Network, p: float) -> Network:
    """Replace the weakest round(p*N) units per non-output layer of the
    recipient with the donor's strongest round(p*N) units.

    Slots and donor units (ties by index) pair by ascending index. A unit
    brings its incoming row, bias, BN channel and outgoing weights. A link
    between two transplanted units keeps the donor's weight; other links are
    index-aligned (the donor's weight, at the kept unit's index). p=1 gives
    the donor in all but the head bias, the recipient's; p=0 is the identity.
    """
    if recipient.arch_id != donor.arch_id:
        raise ArchMismatch("transplant needs identical architectures")
    if not 0.0 <= p <= 1.0:
        raise InvalidArg("p must be in [0, 1]")
    couplings = hidden_couplings(recipient)
    slots, placed = [], []  # per layer: the slots, and the donor unit at each position
    for c in couplings:
        t = int(round(p * c.units))
        norms_r, norms_d = (row_l2_norms(n.params[c.layer]["weight"], n.params[c.layer]["bias"])
                            for n in (recipient, donor))
        slots.append(np.sort(_ranked_order(-norms_r, None)[:t]))
        placed.append(np.arange(c.units))
        placed[-1][slots[-1]] = np.sort(_ranked_order(norms_d, None)[:t])
    aligned = gather_units([donor], couplings, placed)
    out = recipient.clone()
    out.origins = None
    for c, s in zip(couplings, slots):
        for i in (c.layer, *c.bn_layers):
            for key, v in out.params[i].items():
                v[s] = aligned.params[i][key][s]
        cols, nxt = _unit_columns(s, c.block), c.next_layer
        out.params[nxt]["weight"][:, cols] = aligned.params[nxt]["weight"][:, cols]
    return out


def nt_fuse(bundle: EnsembleBundle, sparsity: Optional[float] = None) -> Network:
    """Joint neuron transplantation: keep the highest-norm units of the
    members' layer-wise concatenation, as many per layer as
    `KeepPolicy.sparsity(sparsity)` keeps: by default one member's widths.

    Units rank by their member's own norms (`pruning`'s norm rule), so the
    result is bit-identical to pruning `concat_fuse(bundle)` but is gathered
    straight from the members, in memory of the members plus the result.
    """
    _require_fusable(bundle)
    return prune_concat(bundle.members, KeepPolicy.sparsity(sparsity))


def _pairwise_reduce(a: Network, b: Network) -> Network:
    return prune_concat([a, b], KeepPolicy())


def fuse_iterative(bundle: EnsembleBundle) -> Network:
    """Fold members left to right with pairwise NT back to one member's widths.

    Later members end up weighted more heavily in the surviving head (the
    last one at 1/2), so the fold order matters and is the bundle order.
    Only the running result and the next member are alive at any point.
    """
    _require_fusable(bundle)
    result = bundle.members[0]
    for nxt in bundle.members[1:]:
        result = _pairwise_reduce(result, nxt)
    return result


def fuse_recursive(bundle: EnsembleBundle) -> Network:
    """Balanced binary reduction of pairwise NT steps.

    Non-power-of-two k splits left-heavy (ceil(k/2) | floor(k/2)).
    """
    _require_fusable(bundle)

    def reduce(ms: Sequence[Network]) -> Network:
        if len(ms) == 1:
            return ms[0]
        mid = math.ceil(len(ms) / 2)
        return _pairwise_reduce(reduce(ms[:mid]), reduce(ms[mid:]))

    return reduce(bundle.members)


def fuse(bundle: EnsembleBundle, plan: FusionPlan) -> Network:
    """Dispatch on plan.method and, for `nt`, on plan.pipeline: only
    `experiments.run_pipeline` fine-tunes the wide model `merge_ft_prune_ft`
    needs, so `fuse` refuses it."""
    if plan.method == "nt":
        if plan.pipeline == "merge_ft_prune_ft":
            raise InvalidArg("merge_ft_prune_ft fine-tunes the wide model: run it as a pipeline")
        if plan.pipeline == "prune_merge_ft":
            _require_fusable(bundle)
            return prune_concat(bundle.members, KeepPolicy.per_member())
        return nt_fuse(bundle, plan.sparsity)
    if plan.method == "nt_iterative":
        return fuse_iterative(bundle)
    if plan.method == "nt_recursive":
        return fuse_recursive(bundle)
    if plan.method == "avg":
        return vanilla_average(bundle)
    _require_fusable(bundle)
    return align_average(*bundle.members)
