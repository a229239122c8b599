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

from .errors import ArchMismatch, InvalidArg
from .network import Network, hidden_couplings
from .pruning import KeepPolicy, _unit_columns, gather_units, permute_units, prune_concat
from .tensor import row_l2_norms


@dataclass
class EnsembleBundle:
    """k trained networks of identical architecture plus their seeds."""

    members: list[Network]
    member_seeds: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidArg("bundle needs at least one member")
        ids = {m.arch_id for m in self.members}
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
    """Declarative description of a fusion run.

    sparsity None means the architecture-restoring default 1 - 1/k.
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
        if self.sparsity is not None and not 0.0 <= self.sparsity < 1.0:
            raise InvalidArg("sparsity must be in [0, 1)")


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
    included. Accumulation runs in member order for reproducibility."""
    if bundle.k < 1:
        raise InvalidArg("empty bundle")
    out = bundle.members[0].clone()
    out.origins = None
    scale = np.float32(1.0 / bundle.k)
    for i, p in enumerate(out.params):
        for key in p:
            acc = p[key]
            for m in bundle.members[1:]:
                acc += m.params[i][key]
            acc *= scale
    return out


def align_average(a: Network, b: Network) -> Network:
    """Permute b's units layer by layer to best match a, then average.

    Matching minimizes the total squared distance between incoming weight
    rows (with the previous layer's permutation already applied to b's input
    side) using an exact balanced assignment. A simplified stand-in for
    transport-based alignment baselines.
    """
    if a.arch_id != b.arch_id:
        raise ArchMismatch("align_average needs identical architectures")
    orders: dict[int, np.ndarray] = {}
    inputs = None  # b's input columns of the current layer, in the order chosen so far
    for c in hidden_couplings(a):
        w_b = b.params[c.layer]["weight"]
        if inputs is not None:
            w_b = w_b.take(inputs, axis=1)
        rows_a = a.params[c.layer]["weight"].reshape(c.units, -1).astype(np.float64)
        rows_b = w_b.reshape(c.units, -1).astype(np.float64)
        sq_a = (rows_a * rows_a).sum(axis=1)[:, None]
        sq_b = (rows_b * rows_b).sum(axis=1)[None, :]
        cost = sq_a + sq_b - 2.0 * rows_a @ rows_b.T
        _, order = linear_sum_assignment(cost)
        orders[c.layer] = order
        inputs = _unit_columns(order, c.block)
    return vanilla_average(EnsembleBundle([a, permute_units(b, orders)]))


def transplant_fraction(recipient: Network, donor: Network, p: float) -> Network:
    """Replace the weakest round(p*N) units per non-output layer of the
    recipient with the donor's strongest round(p*N) units.

    A transplanted slot receives the donor unit's incoming row, bias, and BN
    channel, and the donor's outgoing column in the next layer. Slots and
    donor units are paired in ascending index order, so p=1 reproduces the
    donor in all but the head bias, the recipient's; p=0 is the identity.
    """
    if recipient.arch_id != donor.arch_id:
        raise ArchMismatch("transplant needs identical architectures")
    if not 0.0 <= p <= 1.0:
        raise InvalidArg("p must be in [0, 1]")
    out = recipient.clone()
    out.origins = None
    couplings = hidden_couplings(recipient)
    moves = []  # (coupling, slots, donor_units)
    for c in couplings:
        t = int(round(p * c.units))
        if t == 0:
            continue
        norms_r = row_l2_norms(recipient.params[c.layer]["weight"],
                               recipient.params[c.layer]["bias"])
        norms_d = row_l2_norms(donor.params[c.layer]["weight"],
                               donor.params[c.layer]["bias"])
        slots = np.sort(np.lexsort((np.arange(c.units), norms_r))[:t])
        donors = np.sort(np.lexsort((np.arange(c.units), -norms_d))[:t])
        moves.append((c, slots, donors))
    for c, slots, donors in moves:  # incoming rows, biases, BN channels
        dst, src = out.params[c.layer], donor.params[c.layer]
        dst["weight"][slots] = src["weight"][donors]
        dst["bias"][slots] = src["bias"][donors]
        for bi in c.bn_layers:
            for key in out.params[bi]:
                out.params[bi][key][slots] = donor.params[bi][key][donors]
    for c, slots, donors in moves:  # outgoing column blocks or channels in the next layer
        dst, src = out.params[c.next_layer], donor.params[c.next_layer]
        dst["weight"][:, _unit_columns(slots, c.block)] = \
            src["weight"][:, _unit_columns(donors, c.block)]
    return out


def _member_widths(net: Network) -> KeepPolicy:
    return KeepPolicy.keep_counts(c.units for c in hidden_couplings(net))


def nt_fuse(bundle: EnsembleBundle, sparsity: Optional[float] = None) -> Network:
    """Joint neuron transplantation: keep the highest-norm units of the
    members' layer-wise concatenation (default: one member's widths).

    The result is bit-identical to pruning `concat_fuse(bundle)` but is
    gathered straight from the members, so memory stays at the members plus
    the result rather than the k-fold wider concatenation.
    """
    _require_fusable(bundle)
    policy = (_member_widths(bundle.members[0]) if sparsity is None
              else KeepPolicy.sparsity(sparsity))
    return prune_concat(bundle.members, policy)


def _pairwise_reduce(a: Network, b: Network) -> Network:
    return prune_concat([a, b], _member_widths(a))


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
    """Dispatch on plan.method; `align` requires exactly two members."""
    if plan.method == "nt":
        return nt_fuse(bundle, plan.sparsity)
    if plan.method == "nt_iterative":
        return fuse_iterative(bundle)
    if plan.method == "nt_recursive":
        return fuse_recursive(bundle)
    if plan.method == "avg":
        return vanilla_average(bundle)
    if bundle.k != 2:
        raise InvalidArg("align fusion is defined for exactly two members")
    return align_average(bundle.members[0], bundle.members[1])
