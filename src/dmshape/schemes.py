"""Shared scheme containers: addressed leaves, composition sets, exact covers.

A tree-addressed scheme (CCDM, MPDM, optimised MPDM) stores one leaf per
composition with a dyadic payload: the leaf owns 2^payload_bits addresses of
a k-bit input space and sits at prefix depth k - payload_bits.  Sphere-shaped
(ESS) sets have no tree; their leaves carry exact used-sequence counts
instead, and payload/depth are absent.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    AmplitudeAlphabet,
    Counts,
    Pmf,
    colex_key,
    kurtosis_of,
    rate_loss as _rate_loss,
)
from .errors import ConstructionBugError, RateInfeasibleError


def is_tree_scheme(scheme: str) -> bool:
    """The tag decides the kind: every scheme but ess is a prefix tree."""
    return scheme != "ess"


@dataclass(frozen=True, slots=True)
class AddressedComposition:
    """One leaf of a shaping scheme."""

    counts: Counts
    weight: float
    payload_bits: int | None = None
    depth: int | None = None
    used_count: int | None = None

    @property
    def n_words(self) -> int:
        """Input words the leaf owns: 2^payload_bits, or the ESS used count."""
        if self.used_count is None:
            return 1 << self.payload_bits
        return self.used_count


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
        return is_tree_scheme(self.scheme)

    def kurtosis_range(self) -> tuple[float, float]:
        """Min and max 2D kurtosis over leaves with nonzero weight."""
        ks = [kurtosis_of(leaf.counts, self.alphabet)
              for leaf in self.leaves if leaf.weight > 0]
        return min(ks), max(ks)

    def validate(self) -> None:
        """Raise ConstructionBugError on any violated scheme invariant.

        Capacities are checked exactly with factorials: 2^p <= MC(C) as
        2^p * prod(c_i!) <= n!, and likewise for used counts.
        Tree leaves carry payload and depth and no used count, ESS leaves
        the reverse.  The header fields must be what the leaves imply:
        avg_pmf and rate_loss recomputed as the builders compute them, and
        e_max the minimal ESS radius (tree schemes carry none), with every
        ESS leaf inside it.
        """
        n, k, m = self.n, self.k, self.alphabet.m
        tree = self.is_tree_addressed
        fields = (not tree, not tree, tree)  # payload, depth, used_count is None
        seen = set()
        for leaf in self.leaves:
            counts = leaf.counts
            if counts in seen:
                raise ConstructionBugError(f"duplicate leaf {counts}")
            seen.add(counts)
            if len(counts) != m or sum(counts) != n or min(counts) < 0:
                raise ConstructionBugError(
                    f"leaf {counts} is not a composition of {n} into {m} levels")
            if (leaf.payload_bits is None, leaf.depth is None,
                    leaf.used_count is None) != fields:
                raise ConstructionBugError(
                    f"leaf {counts} does not fit scheme {self.scheme!r}")
        # 2^k <= m^n sequences exist; checked before 1 << k is formed
        if not 0 <= k <= n * math.log2(m):
            raise ConstructionBugError(f"k={k} outside [0, n*log2(m)]")
        need = 1 << k
        # a scheme's leaves share few distinct counts
        factorial = functools.cache(math.factorial)
        n_fact = factorial(n) if self.leaves else 1
        total = 0
        for leaf in self.leaves:
            denom = math.prod(map(factorial, leaf.counts))
            if tree:
                p, d = leaf.payload_bits, leaf.depth
                if p < 0 or p > k or d != k - p:
                    raise ConstructionBugError("inconsistent payload/depth")
                if denom << p > n_fact:
                    raise ConstructionBugError("payload exceeds composition capacity")
                if leaf.weight != 2.0 ** (p - k):
                    raise ConstructionBugError(
                        f"leaf {leaf.counts} weight {leaf.weight!r} is not "
                        f"2^({p}-{k})")
            else:
                used = leaf.used_count
                if used < 0 or used * denom > n_fact:
                    raise ConstructionBugError(
                        f"leaf {leaf.counts} used count {used} exceeds its "
                        "shell size")
                if leaf.weight != used / need:
                    raise ConstructionBugError(
                        f"leaf {leaf.counts} weight {leaf.weight!r} is not "
                        f"{used}/2^{k}")
            total += leaf.n_words
        if total != need:
            what = "address space" if tree else "used sequences"
            raise ConstructionBugError(f"{what} is {total}, expected 2^{k}")
        wsum = sum(leaf.weight for leaf in self.leaves)
        if not abs(wsum - 1.0) <= 1e-9:
            raise ConstructionBugError(f"leaf weights sum to {wsum!r}")
        if tree:
            if self.e_max is not None:
                raise ConstructionBugError(
                    f"tree scheme carries e_max {self.e_max!r}")
        else:
            # imported here: ess builds on this module
            from .ess import _integer_radius, select_emax
            radius = select_emax(n, k, self.alphabet)
            if self.e_max != radius:
                raise ConstructionBugError(
                    f"e_max {self.e_max!r} is not the minimal radius {radius!r}")
            units, _ = self.alphabet.integer_energies()
            cap = _integer_radius(n, k, self.alphabet)
            for leaf in self.leaves:
                if sum(map(mul, leaf.counts, units)) > cap:
                    raise ConstructionBugError(
                        f"leaf {leaf.counts} lies outside the radius {radius!r}")
        avg = average_pmf(self.leaves, n, m)
        if avg != self.avg_pmf:
            raise ConstructionBugError(
                f"avg_pmf {self.avg_pmf!r} is not the leaves' {avg!r}")
        loss = _rate_loss(avg, k, n)
        if loss != self.rate_loss:
            raise ConstructionBugError(
                f"rate_loss {self.rate_loss!r} is not the leaves' {loss!r}")


AVG_CHUNK = 4096  # leaves per numpy batch in average_pmf


def average_pmf(leaves: Sequence[AddressedComposition], n: int, m: int) -> Pmf:
    """Weighted average PMF: sum over leaves of weight * c_i / n, per level.

    Terms are added leaf by leaf in order, exactly as a Python loop would:
    np.cumsum accumulates sequentially (np.sum would add pairwise), so the
    result is bit for bit the loop's.  Zero-weight leaves add 0.0, which
    changes nothing.
    """
    avg = np.zeros((1, m))
    for start in range(0, len(leaves), AVG_CHUNK):
        chunk = leaves[start:start + AVG_CHUNK]
        w = np.fromiter((leaf.weight for leaf in chunk), np.float64, len(chunk))
        c = np.fromiter(chain.from_iterable(leaf.counts for leaf in chunk),
                        np.float64, len(chunk) * m).reshape(-1, m)
        avg = np.cumsum(np.vstack((avg, w[:, None] * c / n)), axis=0)[-1:]
    return tuple(avg[0].tolist())


class CoverItem(NamedTuple):
    """One unit offered to an exact cover: a single composition or a full pair."""

    comps: tuple[Counts, ...]
    payload: int

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
    # items sharing (multiplicity, payload) contribute alike at every cap
    hist = Counter((it.multiplicity, it.payload) for it in items)

    def capped_total(cap: int) -> int:
        return sum((cnt * mult) << min(p, cap) for (mult, p), cnt in hist.items())

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
    avg_pmf = average_pmf(leaves, n, alphabet.m)
    built = CompositionSet(scheme=scheme, n=n, k=k, alphabet=alphabet,
                           leaves=leaves, avg_pmf=avg_pmf,
                           rate_loss=_rate_loss(avg_pmf, k, n))
    built.validate()
    return built
