"""Sphere shaping at the composition level.

All compositions whose block energy fits inside the smallest radius that
admits 2^k sequences form the scheme; shells are consumed lowest energy
first (colex within equal energy), with the boundary-energy shells
truncated so that exactly 2^k sequences are used.  Shell weights are exact
used-count ratios rather than dyadic payloads: sphere-shaped sets carry no
prefix tree.  The shells are one (L, m) count matrix from the scan to the
leaf table, with no object per shell, narrowed to schemes.count_dtype(n)
before it is put in (energy, colex) order.  build_ess holds each of the
table's columns once: the count matrix, the float64 weights and the used
counts, the last two filled one block of multinomials (kernels.CHUNK
shells) at a time.  Block totals locate the shell where the used total
reaches 2^k, and only that block is accumulated.

Energies are put on an exact integer grid (levels are binary rationals, so
their squares have a finite common denominator); the radius search and the
shell membership test are therefore free of float boundary artefacts.

The radius is combinatorics.integer_radius, from the generating polynomial
rather than a simplex scan.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat

import numpy as np

from . import kernels
from .combinatorics import DEFAULT_ALPHABET, AmplitudeAlphabet, integer_radius
from .schemes import CompositionSet, LeafTable, block_energies, narrow_counts


def build_ess(n: int, k: int,
              alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> CompositionSet:
    """Weight every in-sphere shell by its used-sequence count.

    Interior shells are fully used; the boundary-energy shells are consumed
    in colex order with the crossing shell partially used, so the used total
    is exactly 2^k.  Shells after the crossing keep zero weight but remain
    part of the scheme (they are inside the sphere).
    """
    units, _ = alphabet.integer_energies()
    counts = kernels.shells_upto(n, units, integer_radius(n, k, alphabet))
    # shells_upto returns colex order, so a stable sort on energy alone
    # gives the (energy, colex) order.  The energies are taken from the
    # int64 rows, as a narrow matrix would be cast whole, and the rows are
    # narrowed before the gather
    order = np.argsort(block_energies(counts, n, units), kind="stable")
    counts = narrow_counts(counts, n)[order]
    del order
    # shells before the first one whose cumulative count reaches 2^k are
    # used in full, that one in part, the ones after it not at all
    need = 1 << k
    short = need  # of 2^k, what the shells so far leave unused
    used = []
    weights = np.zeros(len(counts))
    for mc in kernels.multinomials(counts, n):
        size = mc.sum()
        crossed = size >= short
        if crossed:
            cumulative = list(accumulate(mc.tolist()))
            cross = bisect_left(cumulative, short)
            mc = mc[:cross + 1]
            mc[cross] = short - (cumulative[cross - 1] if cross else 0)
        weights[len(used):len(used) + len(mc)] = mc / need
        used += mc.tolist()
        if crossed:
            break
        short -= size
    used += repeat(0, len(counts) - len(used))
    leaves = LeafTable(counts=counts, weights=weights, used_counts=used)
    del used  # the table holds its own tuple
    built = CompositionSet(scheme="ess", n=n, k=k, alphabet=alphabet,
                           leaves=leaves)
    built.validate()
    return built
