"""Sphere shaping at the composition level.

All compositions whose block energy fits inside the smallest radius that
admits 2^k sequences form the scheme; shells are consumed lowest energy
first (colex within equal energy), with the boundary-energy shells
truncated so that exactly 2^k sequences are used.  Shell weights are exact
used-count ratios rather than dyadic payloads: sphere-shaped sets carry no
prefix tree.  The shells are one (L, m) count matrix from the scan to the
leaf table, with no object per shell, narrowed to schemes.count_dtype(n)
before it is put in (energy, colex) order.  build_ess holds each of the
table's columns once: the count matrix and the float64 weights, the
weights filled one block of multinomials (kernels.CHUNK shells) at a time.
The used counts are no column: a shell uses its multinomial, and the same
walk records as overrides only the shells that use another count, the
crossing shell and the zero-weight shells after it (schemes.UsedCounts),
with the codec's block starts.  Block totals locate the shell where the
used total reaches 2^k, and only that block is accumulated.  validate
takes its capacity and weight checks from that walk too (schemes.WordCheck),
so a build forms each multinomial up to the crossing shell's block once.

Energies are put on an exact integer grid (levels are binary rationals, so
their squares have a finite common denominator); the radius search and the
shell membership test are therefore free of float boundary artefacts.

The radius is combinatorics.integer_radius, from the generating polynomial
rather than a simplex scan.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

import numpy as np

from . import kernels
from .combinatorics import DEFAULT_ALPHABET, AmplitudeAlphabet, integer_radius
from .schemes import (
    CompositionSet,
    LeafTable,
    UsedCounts,
    WordCheck,
    block_energies,
    narrow_counts,
    shares,
    used_overrides,
)


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
    need = 1 << k
    weights = np.zeros(len(counts))

    def used_blocks():
        """Each block's used counts and multinomials, its weights filled on
        the way: shells before the first one whose cumulative count reaches
        2^k are used in full, that one in part, the ones after it not at
        all, and their multinomials are never formed."""
        short = need  # of 2^k, what the shells so far leave unused
        sizes = kernels.multinomials(counts, n)
        for rows in kernels.chunks(len(counts)):
            if not short:
                yield np.zeros(rows.stop - rows.start, dtype=object), None
                continue
            used = mc = next(sizes)
            size = mc.sum()
            if size >= short:
                cumulative = list(accumulate(mc.tolist()))
                cross = bisect_left(cumulative, short)
                used = mc.copy()
                used[cross] = short - (cumulative[cross - 1] if cross else 0)
                used[cross + 1:] = 0
                size = short
            weights[rows] = shares(used, k)
            short -= size
            yield used, mc

    # validate reads its capacity and weight checks off the same walk
    checked = WordCheck(weights, k)
    used = UsedCounts(counts, n, *used_overrides(checked.scan(used_blocks())))
    leaves = LeafTable(counts=counts, weights=weights, used_counts=used)
    built = CompositionSet(scheme="ess", n=n, k=k, alphabet=alphabet,
                           leaves=leaves)
    built.validate(checked)
    return built
