"""Bit-exact encoders and decoders.

Every scheme follows one addressing rule.  Leaf i, in stored order, owns the
next block of the 2^k input words: 2^payload_bits for a tree leaf (CCDM,
MPDM, optimised MPDM), whose leading depth bits are then its canonical
prefix, and the used count for an ESS leaf, whose shells are stored in
(energy, colex) order.  Inside that block a word is the rank of the
sequence within the leaf's composition in kernels.cc_unrank's level-split
order, so every word lands on a leaf in proportion to its weight.  Bit
words are integers, most-significant bit first.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter, mul

import numpy as np

from . import kernels
from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    Counts,
)
from .errors import DecodeError
from .schemes import (
    START_STRIDE,
    CompositionSet,
    block_starts,
    composition_keys,
    count_dtype,
    key_radix,
    row_chunks,
)


def cc_unrank(index: int, counts: Counts,
              alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> tuple[float, ...]:
    """index -> amplitude sequence: the arrangement of that rank in
    kernels.cc_unrank's level-split order."""
    try:
        seq = kernels.cc_unrank(index, tuple(counts))
    except ValueError:
        raise DecodeError(f"rank {index} outside "
                          f"[0, {kernels.mc_counts(counts)})") from None
    # itemgetter forms the tuple in C, ~3x faster than a map at n=216, but
    # hands back a bare level for one index
    if len(seq) == 1:
        return (alphabet.levels[seq[0]],)
    return itemgetter(*seq)(alphabet.levels)


def cc_rank(seq, counts: Counts,
            alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> int:
    """Amplitude sequence -> its rank within the composition."""
    idx = _level_indices(seq, _level_lookup(alphabet))
    try:
        return kernels.cc_rank(idx, tuple(counts))
    except ValueError:
        raise DecodeError("sequence composition does not match") from None


def _level_lookup(alphabet: AmplitudeAlphabet) -> dict[float, int]:
    return {lvl: i for i, lvl in enumerate(alphabet.levels)}


def _level_indices(seq, lookup: dict[float, int]) -> list[int]:
    """The level index of each amplitude.  A value the lookup holds as it is
    (a level, as a float or an int) costs one read; only when one misses is
    float() applied, to every value, as it always was, so the same inputs
    are accepted and a miss is named as float(value)."""
    if not isinstance(seq, (list, tuple)):
        seq = list(seq)
    try:
        return list(map(lookup.__getitem__, seq))
    except (KeyError, TypeError):
        pass
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
        # the first word of every START_STRIDE-th leaf, the leaves' packed
        # composition keys in sorted order with the leaf index of each, and
        # the level lookup.  The starts are one schemes.block_starts buffer
        # of big-endian bytes: an ESS table brings its own, formed by the
        # walk that formed the table, and a tree's are packed here from its
        # blocks of 2^payload_bits.  A leaf's words are derived per word
        # from payload_bits, or for ESS from its counts
        # (kernels.row_multinomials) and the table's crossing.  A
        # start per leaf would hold ~10 MB for the n=216 ESS scheme, and a
        # Python int per START_STRIDE leaves 1.0 MB.  The leaf indices take
        # count_dtype's rule (uint32 or narrower), and the keys key_dtype's
        # (uint32 while (n+1)^m <= 2^32).  decode searches with a key of
        # the column's own scalar type: searchsorted converts the whole
        # column to match a Python int (23 us a call on uint32, 1 us with a
        # uint32 key)
        used = table.used_counts
        if used is None:
            self._starts = block_starts(
                ([1 << p for p in bits.tolist()]
                 for bits in row_chunks(table.payload_bits)), built.k)
            self._block_words = self._tree_words
        else:
            self._cross = used.cross
            # the words of the crossing shell and the shells after it
            self._tail = (used.cross_used,) + (0,) * (len(table) - used.cross
                                                      - 1)
            self._starts = used.starts
            self._block_words = self._ess_words
        if self._starts is None:
            raise DecodeError("the scheme's words do not lie in [0, 2^k]")
        self._end = 1 << built.k
        # sorted as the starts are; encode searches it with a word's bytes
        self._start_keys = self._starts.view(
            f"S{self._starts.shape[1]}").ravel()
        self._counts = table.counts
        self._levels = _level_lookup(built.alphabet)
        self._radix = key_radix(built.n, built.alphabet.m)
        keys = composition_keys(table.counts, built.n)
        by_key = np.argsort(keys, kind="stable")
        self._by_key = by_key.astype(count_dtype(len(keys)))
        self._keys = keys[by_key]
        self._key = keys.dtype.type

    def _start(self, block: int) -> int:
        """The first word of the block's first leaf, or 2^k past the last."""
        if block == len(self._starts):
            return self._end
        return int.from_bytes(self._starts[block].tobytes(), "big")

    def _tree_words(self, lo: int, hi: int):
        """The words of leaves lo .. hi - 1 (fewer at the table's end)."""
        bits = self.set.leaves.payload_bits[lo:hi]
        return (1 << p for p in bits.tolist())

    def _ess_words(self, lo: int, hi: int):
        """_tree_words for ESS leaves: a multinomial before the crossing
        shell, its used count at it and 0 after it."""
        cross = self._cross
        words = kernels.row_multinomials(
            self._counts[lo:min(hi, cross)].tolist(), self.set.n)
        return (words if hi <= cross else
                chain(words, self._tail[max(lo - cross, 0):hi - cross]))

    def encode(self, word: int) -> tuple[float, ...]:
        starts = self._starts
        if not 0 <= word < self._end:
            raise DecodeError(f"word outside [0, 2^{self.set.k})")
        key = word.to_bytes(starts.shape[1], "big")
        block = int(self._start_keys.searchsorted(key, "right")) - 1
        i = block * START_STRIDE
        word -= int.from_bytes(starts[block].tobytes(), "big")
        # leaves that own no words are stepped over
        for words in self._block_words(i, i + START_STRIDE):
            if word < words:
                break
            word -= words
            i += 1
        return cc_unrank(word, self._counts[i].tolist(), self.set.alphabet)

    def decode(self, seq) -> int:
        idx = _level_indices(seq, self._levels)
        if len(idx) != self.set.n:
            raise DecodeError("sequence length does not match the scheme")
        counts = _composition(idx, self.set.alphabet.m)
        key = sum(map(mul, counts, self._radix))  # its composition key
        j = int(self._keys.searchsorted(self._key(key)))
        if j == len(self._keys) or self._keys[j] != key:
            raise DecodeError("sequence composition is not in the scheme")
        i = int(self._by_key[j])
        rank = kernels.cc_rank(idx, counts)
        # the leaf's first word, summed from the nearer end of its block:
        # the block's start plus the words of the leaves before it, or the
        # next block's start minus its own words and those after it
        block, before = divmod(i, START_STRIDE)
        end = min(i - before + START_STRIDE, len(self._counts))
        if end - 1 - i < before:
            words = list(self._block_words(i, end))
            own, first = words[0], self._start(block + 1) - sum(words)
        else:
            words = list(self._block_words(i - before, i + 1))
            own, first = words[-1], self._start(block) + sum(words[:-1])
        if rank >= own:
            raise DecodeError("sequence rank beyond the leaf's used words")
        return first + rank
