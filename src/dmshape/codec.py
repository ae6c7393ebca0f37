"""Bit-exact encoders and decoders.

Tree-addressed sets (CCDM, MPDM, optimised MPDM) interpret the leading
depth-many input bits as the leaf prefix (leaves in stored order, canonical
prefix assignment) and the remaining payload bits as a lexicographic rank
inside the leaf's composition.  Sphere-shaped sets index the first 2^k
sequences of the energy ball in lexicographic order through a suffix-count
table.  Bit words are integers, most-significant bit first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from . import kernels
from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    Counts,
)
from .errors import DecodeError
from .schemes import CompositionSet


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
    """

    n: int
    alphabet: AmplitudeAlphabet
    deltas: tuple[int, ...]
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
        table = kernels.trellis_build(n, deltas, width)
        return cls(n=n, alphabet=alphabet, deltas=deltas, width=width,
                   counts=table)

    @property
    def total(self) -> int:
        """Number of sequences inside the ball: counts[0][width]."""
        return self.counts[0][self.width]

    def unrank(self, index: int) -> tuple[float, ...]:
        if not 0 <= index < self.total:
            raise DecodeError(f"index {index} outside the energy ball")
        seq = kernels.ess_unrank(index, self.n, self.deltas, self.width,
                                 self.counts)
        levels = self.alphabet.levels
        return tuple(levels[i] for i in seq)

    def rank(self, seq) -> int:
        idx = _level_indices(seq, self.alphabet)
        if len(idx) != self.n:
            raise DecodeError("sequence length does not match the scheme")
        if sum(self.deltas[i] for i in idx) > self.width:
            raise DecodeError("sequence exceeds the energy radius")
        return kernels.ess_rank(idx, self.n, self.deltas, self.width,
                                self.counts)


class SchemeCodec:
    """Encode/decode k-bit words against a built CompositionSet."""

    def __init__(self, built: CompositionSet):
        self.set = built
        if built.is_tree_addressed:
            starts = []
            acc = 0
            for leaf in built.leaves:
                starts.append(acc)
                acc += 1 << leaf.payload_bits
            self._starts = starts
            self._by_counts = {leaf.counts: (i, starts[i])
                               for i, leaf in enumerate(built.leaves)}
            self._trellis = None
        else:
            self._trellis = EssTrellis.build(built.n, built.e_max,
                                             built.alphabet)

    def encode(self, word: int) -> tuple[float, ...]:
        k = self.set.k
        if not 0 <= word < (1 << k):
            raise DecodeError(f"word outside [0, 2^{k})")
        if self._trellis is not None:
            return self._trellis.unrank(word)
        i = bisect_right(self._starts, word) - 1
        leaf = self.set.leaves[i]
        return cc_unrank(word - self._starts[i], leaf.counts,
                         self.set.alphabet)

    def decode(self, seq) -> int:
        if self._trellis is not None:
            word = self._trellis.rank(seq)
            if word >= 1 << self.set.k:
                raise DecodeError("sequence beyond the used 2^k prefix")
            return word
        idx = _level_indices(seq, self.set.alphabet)
        if len(idx) != self.set.n:
            raise DecodeError("sequence length does not match the scheme")
        entry = self._by_counts.get(_composition(idx, self.set.alphabet.m))
        if entry is None:
            raise DecodeError("sequence composition is not in the scheme")
        leaf_i, start = entry
        leaf = self.set.leaves[leaf_i]
        rank = kernels.cc_rank(idx, leaf.counts)
        if rank >= 1 << leaf.payload_bits:
            raise DecodeError("sequence rank beyond the leaf's payload space")
        return start + rank

