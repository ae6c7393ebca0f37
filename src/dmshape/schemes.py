"""Shared scheme containers: addressed leaves, composition sets, exact covers.

A tree-addressed scheme (CCDM, MPDM, optimised MPDM) stores one leaf per
composition with a dyadic payload: the leaf owns 2^payload_bits addresses of
a k-bit input space and sits at prefix depth k - payload_bits.  Sphere-shaped
(ESS) sets have no tree; their leaves carry exact used-sequence counts
instead, and payload/depth are absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .combinatorics import (
    AmplitudeAlphabet,
    Counts,
    Pmf,
    colex_key,
    kurtosis_of,
    multinomial_coefficient,
    rate_loss as _rate_loss,
)
from .errors import ConstructionBugError, RateInfeasibleError


@dataclass(frozen=True)
class AddressedComposition:
    """One leaf of a shaping scheme."""

    counts: Counts
    weight: float
    payload_bits: int | None = None
    depth: int | None = None
    used_count: int | None = None


@dataclass(frozen=True)
class CompositionSet:
    """A complete shaping scheme at block length n and input width k."""

    scheme: str
    n: int
    k: int
    alphabet: AmplitudeAlphabet
    leaves: tuple[AddressedComposition, ...]
    avg_pmf: Pmf
    rate_loss: float
    e_max: float | None = None

    @property
    def n_compositions(self) -> int:
        return len(self.leaves)

    @property
    def is_tree_addressed(self) -> bool:
        return all(leaf.payload_bits is not None for leaf in self.leaves)

    def kurtosis_range(self) -> tuple[float, float]:
        """Min and max 2D kurtosis over leaves with nonzero weight."""
        ks = [kurtosis_of(leaf.counts, self.alphabet)
              for leaf in self.leaves if leaf.weight > 0]
        return min(ks), max(ks)

    def validate(self) -> None:
        """Raise ConstructionBugError on any violated scheme invariant."""
        seen = set()
        for leaf in self.leaves:
            if leaf.counts in seen:
                raise ConstructionBugError(f"duplicate leaf {leaf.counts}")
            seen.add(leaf.counts)
            if sum(leaf.counts) != self.n:
                raise ConstructionBugError("leaf block length mismatch")
        if self.is_tree_addressed:
            space = 0
            for leaf in self.leaves:
                p, d = leaf.payload_bits, leaf.depth
                if p < 0 or d != self.k - p:
                    raise ConstructionBugError("inconsistent payload/depth")
                if (1 << p) > multinomial_coefficient(leaf.counts):
                    raise ConstructionBugError("payload exceeds composition capacity")
                if leaf.weight != 2.0 ** (p - self.k):
                    raise ConstructionBugError(
                        f"leaf {leaf.counts} weight {leaf.weight!r} is not "
                        f"2^({p}-{self.k})")
                space += 1 << p
            if space != 1 << self.k:
                raise ConstructionBugError(
                    f"address space is {space}, expected 2^{self.k}")
        else:
            used = sum(leaf.used_count for leaf in self.leaves)
            if used != 1 << self.k:
                raise ConstructionBugError(
                    f"used sequences {used}, expected 2^{self.k}")
            for leaf in self.leaves:
                if leaf.used_count > multinomial_coefficient(leaf.counts):
                    raise ConstructionBugError("used count exceeds shell size")
        wsum = sum(leaf.weight for leaf in self.leaves)
        if abs(wsum - 1.0) > 1e-9:
            raise ConstructionBugError(f"leaf weights sum to {wsum!r}")


class CoverItem:
    """One unit offered to an exact cover: a single composition or a full pair."""

    __slots__ = ("comps", "payload")

    def __init__(self, comps: tuple[Counts, ...], payload: int):
        self.comps = comps
        self.payload = payload

    @property
    def multiplicity(self) -> int:
        return len(self.comps)


def exact_cover(items: Iterable[CoverItem], k: int,
                payload_cap: int | None = None) -> list[tuple[Counts, int]]:
    """Greedy exact cover of the 2^k address space.

    Items are sorted by operating payload descending (ties broken by the
    colex order of the first composition) and taken until the space is full;
    an overshooting item has its payload reduced (equally across its members)
    to whatever still fits, and is dropped when nothing fits.  Raises when
    the items cannot fill the space exactly.

    Returns (counts, payload) in take order, pair members adjacent.
    """
    need = 1 << k
    todo = sorted(items, key=lambda it: (-min(it.payload, k if payload_cap is None
                                              else payload_cap),
                                         colex_key(it.comps[0])))
    leaves: list[tuple[Counts, int]] = []
    total = 0
    for item in todo:
        if total >= need:
            break
        p = item.payload if payload_cap is None else min(item.payload, payload_cap)
        p = min(p, k)
        mult = item.multiplicity
        remaining = need - total
        if (mult << p) > remaining:
            p = (remaining // mult).bit_length() - 1
            if p < 0:
                continue
        for c in item.comps:
            leaves.append((c, p))
        total += mult << p
    if total < need:
        raise RateInfeasibleError(
            f"items supply {total} addresses, need 2^{k}")
    if total != need:
        raise ConstructionBugError("exact cover missed 2^k after adjustment")
    return leaves


def smallest_feasible_cap(items: Sequence[CoverItem], k: int) -> int:
    """Smallest payload cap whose capped address space still reaches 2^k.

    Capping every item's payload at the returned value keeps the cover
    feasible while spreading the address space over as many items as
    possible (a depth-balanced tree).
    """
    need = 1 << k

    def capped_total(cap: int) -> int:
        return sum(it.multiplicity << min(it.payload, cap) for it in items)

    if capped_total(k) < need:
        raise RateInfeasibleError(f"address space below 2^{k}")
    lo, hi = 0, k
    while lo < hi:
        mid = (lo + hi) // 2
        if capped_total(mid) >= need:
            hi = mid
        else:
            lo = mid + 1
    return lo


def tree_scheme(scheme: str, n: int, k: int, alphabet: AmplitudeAlphabet,
                cover: Sequence[tuple[Counts, int]]) -> CompositionSet:
    """Package an exact cover as a validated tree-addressed CompositionSet."""
    leaves = tuple(
        AddressedComposition(counts=c, weight=2.0 ** (p - k),
                             payload_bits=p, depth=k - p)
        for c, p in cover)
    avg = [0.0] * alphabet.m
    for leaf in leaves:
        for i, c in enumerate(leaf.counts):
            avg[i] += leaf.weight * c / n
    avg_pmf = tuple(avg)
    built = CompositionSet(scheme=scheme, n=n, k=k, alphabet=alphabet,
                           leaves=leaves, avg_pmf=avg_pmf,
                           rate_loss=_rate_loss(avg_pmf, k, n))
    built.validate()
    return built
