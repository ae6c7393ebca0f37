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

from bisect import bisect_right
from itertools import accumulate, islice
from operator import mul

import numpy as np

from . import kernels
from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    Counts,
)
from .errors import DecodeError
from .schemes import CompositionSet, composition_keys, key_radix

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


class SchemeCodec:
    """Encode/decode k-bit words against a built CompositionSet."""

    def __init__(self, built: CompositionSet):
        self.set = built
        table = built.leaves
        # the n_words column (for ESS the table's own used-count tuple), the
        # first word of every START_STRIDE-th leaf, and the leaves' packed
        # composition keys in sorted order with the leaf index of each: a
        # start per leaf would hold ~10 MB for the n=216 ESS scheme
        self._n_words = n_words = table.n_words
        self._starts = list(islice(accumulate(n_words, initial=0),
                                   0, len(n_words), START_STRIDE))
        self._counts = table.counts
        self._radix = key_radix(built.n, built.alphabet.m)
        keys = composition_keys(table.counts, built.n)
        self._by_key = np.argsort(keys, kind="stable")
        self._keys = keys[self._by_key]

    def encode(self, word: int) -> tuple[float, ...]:
        k = self.set.k
        if not 0 <= word < (1 << k):
            raise DecodeError(f"word outside [0, 2^{k})")
        n_words = self._n_words
        block = bisect_right(self._starts, word) - 1
        i, start = block * START_STRIDE, self._starts[block]
        # leaves that own no words are stepped over
        while word >= start + n_words[i]:
            start += n_words[i]
            i += 1
        return cc_unrank(word - start, tuple(self._counts[i].tolist()),
                         self.set.alphabet)

    def decode(self, seq) -> int:
        idx = _level_indices(seq, self.set.alphabet)
        if len(idx) != self.set.n:
            raise DecodeError("sequence length does not match the scheme")
        counts = _composition(idx, self.set.alphabet.m)
        key = sum(map(mul, counts, self._radix))  # its composition key
        j = int(self._keys.searchsorted(key))
        if j == len(self._keys) or self._keys[j] != key:
            raise DecodeError("sequence composition is not in the scheme")
        i = int(self._by_key[j])
        rank = kernels.cc_rank(idx, counts)
        n_words = self._n_words
        if rank >= n_words[i]:
            raise DecodeError("sequence rank beyond the leaf's used words")
        block = i // START_STRIDE
        return (self._starts[block] + rank
                + sum(n_words[block * START_STRIDE:i]))
