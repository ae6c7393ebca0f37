"""Bit-exact encoders and decoders.

Every scheme follows one addressing rule.  Leaf i, in stored order, owns the
next n_words of the 2^k input words: 2^payload_bits for a tree leaf (CCDM,
MPDM, optimised MPDM), whose leading depth bits are then its canonical
prefix, and the used count for an ESS leaf, whose shells are stored in
(energy, colex) order.  Inside that block a word is the lexicographic rank
of the sequence within the leaf's composition, so every word lands on a
leaf in proportion to its weight.  Bit words are integers, most-significant
bit first.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import attrgetter

from . import kernels
from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    Counts,
)
from .errors import DecodeError
from .schemes import CompositionSet

START_STRIDE = 64  # leaves per stored block start; encode walks at most 63


def cc_unrank(index: int, counts: Counts,
              alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> tuple[float, ...]:
    """index -> amplitude sequence, lexicographic over the level order."""
    mc = kernels.mc_counts(tuple(counts))
    if not 0 <= index < mc:
        raise DecodeError(f"rank {index} outside [0, {mc})")
    seq = kernels.cc_unrank(index, tuple(counts))
    levels = alphabet.levels
    return tuple(levels[i] for i in seq)


def cc_rank(seq, counts: Counts,
            alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> int:
    """Amplitude sequence -> its lexicographic rank within the composition."""
    idx = _level_indices(seq, alphabet)
    if _composition(idx, alphabet.m) != tuple(counts):
        raise DecodeError("sequence composition does not match")
    return kernels.cc_rank(idx, tuple(counts))


def _level_indices(seq, alphabet: AmplitudeAlphabet) -> list[int]:
    lookup = {lvl: i for i, lvl in enumerate(alphabet.levels)}
    try:
        return [lookup[float(x)] for x in seq]
    except KeyError as exc:
        raise DecodeError(f"amplitude {exc.args[0]} not in alphabet") from None


def _composition(idx: list[int], m: int) -> Counts:
    """Occurrence count of each of the m levels in a level-index sequence."""
    return tuple(map(idx.count, range(m)))


@dataclass
class EssTrellis:
    """Cumulative suffix counts over the discrete energy grid.

    counts[i][w] is the exact number of length-(n-i) suffixes whose energy
    offset (in grid units above the all-minimum-level floor) is at most w.
    Its total counts the energy ball independently of the shell table.
    """

    width: int
    counts: list = field(repr=False)

    @classmethod
    def build(cls, n: int, e_max: float,
              alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> "EssTrellis":
        _, scale = alphabet.integer_energies()
        u0, g, deltas = alphabet.energy_grid()
        budget = round(e_max / float(scale)) - n * u0
        if budget < 0:
            raise DecodeError("energy radius below the minimum block energy")
        width = budget // g
        return cls(width=width, counts=kernels.trellis_build(n, deltas, width))

    @property
    def total(self) -> int:
        """Number of sequences inside the ball: counts[0][width]."""
        return self.counts[0][self.width]


class SchemeCodec:
    """Encode/decode k-bit words against a built CompositionSet."""

    def __init__(self, built: CompositionSet):
        self.set = built
        leaves = built.leaves
        # the first word of every START_STRIDE-th leaf, and leaf indices
        # sorted by composition in a machine-int array: a start per leaf or
        # a counts -> index dict would hold ~16 MB for the n=216 ESS scheme
        self._starts = list(islice(
            accumulate(map(attrgetter("n_words"), leaves), initial=0),
            0, len(leaves), START_STRIDE))
        counts = [leaf.counts for leaf in leaves]
        self._by_counts = array("l", sorted(range(len(leaves)),
                                            key=counts.__getitem__))

    def encode(self, word: int) -> tuple[float, ...]:
        k = self.set.k
        if not 0 <= word < (1 << k):
            raise DecodeError(f"word outside [0, 2^{k})")
        leaves = self.set.leaves
        block = bisect_right(self._starts, word) - 1
        i, start = block * START_STRIDE, self._starts[block]
        # leaves that own no words are stepped over
        while word >= start + leaves[i].n_words:
            start += leaves[i].n_words
            i += 1
        return cc_unrank(word - start, leaves[i].counts, self.set.alphabet)

    def decode(self, seq) -> int:
        idx = _level_indices(seq, self.set.alphabet)
        if len(idx) != self.set.n:
            raise DecodeError("sequence length does not match the scheme")
        counts = _composition(idx, self.set.alphabet.m)
        leaves = self.set.leaves
        by_counts = self._by_counts
        j = bisect_left(by_counts, counts, key=lambda i: leaves[i].counts)
        if j == len(by_counts) or leaves[by_counts[j]].counts != counts:
            raise DecodeError("sequence composition is not in the scheme")
        i = by_counts[j]
        rank = kernels.cc_rank(idx, counts)
        if rank >= leaves[i].n_words:
            raise DecodeError("sequence rank beyond the leaf's used words")
        block = i // START_STRIDE
        first = block * START_STRIDE
        return (self._starts[block] + rank
                + sum(leaf.n_words for leaf in leaves[first:i]))
