"""Bit-exact encoders and decoders.

Every scheme follows one addressing rule.  Leaf i, in stored order, owns the
next n_words of the 2^k input words: 2^payload_bits for a tree leaf (CCDM,
MPDM, optimised MPDM), whose leading depth bits are then its canonical
prefix, and the used count for an ESS leaf, whose shells are stored in
(energy, colex) order.  Inside that block a word is the rank of the
sequence within the leaf's composition in kernels.cc_unrank's level-split
order, so every word lands on a leaf in proportion to its weight.  Bit
words are integers, most-significant bit first.
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
from .schemes import CompositionSet, composition_keys, count_dtype, key_radix

START_STRIDE = 64  # leaves per stored block start; encode walks at most 63


def cc_unrank(index: int, counts: Counts,
              alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> tuple[float, ...]:
    """index -> amplitude sequence: the arrangement of that rank in
    kernels.cc_unrank's level-split order."""
    try:
        seq = kernels.cc_unrank(index, tuple(counts))
    except ValueError:
        raise DecodeError(f"rank {index} outside "
                          f"[0, {kernels.mc_counts(counts)})") from None
    return tuple(map(alphabet.levels.__getitem__, seq))


def cc_rank(seq, counts: Counts,
            alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> int:
    """Amplitude sequence -> its rank within the composition."""
    idx = _level_indices(seq, alphabet)
    try:
        return kernels.cc_rank(idx, tuple(counts))
    except ValueError:
        raise DecodeError("sequence composition does not match") from None


def _level_indices(seq, alphabet: AmplitudeAlphabet) -> list[int]:
    lookup = {lvl: i for i, lvl in enumerate(alphabet.levels)}
    try:
        return list(map(lookup.__getitem__, map(float, seq)))
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
        # start per leaf would hold ~10 MB for the n=216 ESS scheme.  The
        # leaf indices take count_dtype's rule (uint32 or narrower), and the
        # keys are uint32 while (n+1)^m <= 2^32.  decode searches with a key
        # of the column's own scalar type: searchsorted converts the whole
        # column to match a Python int (23 us a call on uint32, 1 us with
        # an np.uint32 key)
        self._n_words = n_words = table.n_words
        self._starts = list(islice(accumulate(n_words, initial=0),
                                   0, len(n_words), START_STRIDE))
        self._counts = table.counts
        self._radix = key_radix(built.n, built.alphabet.m)
        keys = composition_keys(table.counts, built.n)
        by_key = np.argsort(keys, kind="stable")
        self._by_key = by_key.astype(count_dtype(len(keys)))
        keys = keys[by_key]
        if (built.n + 1) ** built.alphabet.m <= 1 << 32:
            keys = keys.astype(np.uint32)
        self._keys = keys
        self._key = keys.dtype.type

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
        return cc_unrank(word - start, self._counts[i].tolist(),
                         self.set.alphabet)

    def decode(self, seq) -> int:
        idx = _level_indices(seq, self.set.alphabet)
        if len(idx) != self.set.n:
            raise DecodeError("sequence length does not match the scheme")
        counts = _composition(idx, self.set.alphabet.m)
        key = sum(map(mul, counts, self._radix))  # its composition key
        j = int(self._keys.searchsorted(self._key(key)))
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
