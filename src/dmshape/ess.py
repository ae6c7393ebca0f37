"""Sphere shaping at the composition level.

All compositions whose block energy fits inside the smallest radius that
admits 2^k sequences form the scheme; shells are consumed lowest energy
first (colex within equal energy), with the boundary-energy shells
truncated so that exactly 2^k sequences are used.  Shell weights are exact
used-count ratios rather than dyadic payloads: sphere-shaped sets carry no
prefix tree.  An ESS table is therefore a function of (n, k, alphabet), and
one walk here forms it, for build_ess and for a scheme file's reader, which
compares each leaf line with the walk's leaf (ess_walk); ess_shells counts
the shells first, forming no row.

The shells are one (L, m) count matrix from the scan to the leaf table,
with no object per shell, built in kernels.count_dtype(n) (uint8 at n=216)
and put in (energy, colex) order by one gather, its energies formed a chunk
at a time into uint16 at n=216; no int64 copy of the matrix is formed.  The
walk holds each of the table's columns once: the count matrix and the
float64 weights, the weights filled one block of multinomials
(kernels.CHUNK shells) at a time.  The used counts are no column: the
shells before the crossing shell use their multinomials, that shell the
rest of 2^k and the ones after it none, so the walk keeps only the
crossing's index and count (schemes.UsedCounts), with the codec's block
starts as one byte buffer (schemes.block_starts), each chunk's starts
packed as the walk passes them.  Block totals locate the shell where the
used total reaches 2^k, and only that block is accumulated.  validate takes
its capacity and weight checks from that walk too (schemes.WordCheck), so a
build or a read forms each multinomial up to the crossing shell's block
once.

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
    block_starts,
    check_block_length,
    shares,
)


def build_ess(n: int, k: int,
              alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> CompositionSet:
    """Weight every in-sphere shell by its used-sequence count.

    Interior shells are fully used; the boundary-energy shells are consumed
    in colex order with the crossing shell partially used, so the used total
    is exactly 2^k.  Shells after the crossing keep zero weight but remain
    part of the scheme (they are inside the sphere).
    """
    return ess_walk(n, k, alphabet, lambda *block: None)


def ess_shells(n: int, k: int, alphabet: AmplitudeAlphabet) -> int:
    """The number of shells of the ESS of (n, k, alphabet), with no row
    formed (kernels.shell_count).  An n outside [1, MAX_BLOCK_LENGTH] is
    refused as validate refuses it, and a k, radius or ball as the build."""
    check_block_length(n)
    units, _ = alphabet.integer_energies()
    return kernels.shell_count(n, units, integer_radius(n, k, alphabet))


def ess_walk(n: int, k: int, alphabet: AmplitudeAlphabet,
             visit) -> CompositionSet:
    """The validated ESS of (n, k, alphabet), with visit(rows, counts, used,
    weights) called on each kernels.chunks block rows of the table as the
    walk forms it: the table's count and weight columns, and the block's
    used counts as an object array of Python ints."""
    units, _ = alphabet.integer_energies()
    counts = kernels.shells_upto(n, units, integer_radius(n, k, alphabet))
    # shells_upto returns colex order, so a stable sort on energy alone
    # gives the (energy, colex) order.  The energies are formed a chunk at
    # a time into the narrowest dtype that holds n * max(units), which
    # bounds them (uint16 at n=216), and the rows are gathered once
    energies = np.empty(len(counts), dtype=np.min_scalar_type(n * max(units)))
    for rows in kernels.chunks(len(counts)):
        energies[rows] = block_energies(counts[rows], n, units)
    counts = counts[np.argsort(energies, kind="stable")]
    del energies
    need = 1 << k
    weights = np.zeros(len(counts))
    cross = cross_used = None

    def used_blocks():
        """Each block's used counts, its weights filled and its words added
        to validate's checks on the way: shells before the first one whose
        cumulative count reaches 2^k are used in full, that one in part,
        the ones after it not at all, and their multinomials are never
        formed."""
        nonlocal cross, cross_used
        short = need  # of 2^k, what the shells so far leave unused
        sizes = kernels.multinomials(counts, n)
        for rows in kernels.chunks(len(counts)):
            if not short:
                used, mc = np.zeros(rows.stop - rows.start, dtype=object), None
            else:
                used = mc = next(sizes)
                size = mc.sum()
                if size >= short:
                    cumulative = list(accumulate(mc.tolist()))
                    j = bisect_left(cumulative, short)
                    used = mc.copy()
                    used[j] = short - (cumulative[j - 1] if j else 0)
                    used[j + 1:] = 0
                    cross, cross_used = rows.start + j, used[j]
                    size = short
                weights[rows] = shares(used, k)
                short -= size
            checked.add(used, mc)
            visit(rows, counts, used, weights)
            yield used

    # validate reads its capacity and weight checks off the same walk
    checked = WordCheck(weights, k)
    starts = block_starts(used_blocks(), k)
    leaves = LeafTable(counts=counts, weights=weights, used_counts=UsedCounts(
        counts, n, cross, cross_used, starts))
    built = CompositionSet(scheme="ess", n=n, k=k, alphabet=alphabet,
                           leaves=leaves)
    built.validate(checked)
    return built
