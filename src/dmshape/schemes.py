"""Shared scheme containers: the leaf table, composition sets, exact covers.

A tree-addressed scheme (CCDM, MPDM, optimised MPDM) stores one leaf per
composition with a dyadic payload: the leaf owns 2^payload_bits addresses of
a k-bit input space and sits at prefix depth k - payload_bits.  Sphere-shaped
(ESS) sets have no tree; their leaves carry exact used-sequence counts
instead, and payload/depth are absent.

A scheme holds its leaves as columns of a LeafTable, not as one object per
leaf (the n=216 ESS scheme has 108,990 leaves):

- counts, an (L, m) matrix with one composition per row, stored as
  count_dtype(n), the narrowest unsigned dtype that holds n (uint8 up to
  n=255: 4 bytes a leaf at m=4, where int64 took 32);
- weights, a float64 array;
- tree schemes: payload_bits and depth as int64 arrays.  A file states the
  depth, so it is kept and validate checks depth == k - payload_bits;
- ESS: used_counts, a UsedCounts: leaf i uses MC(c_i) sequences unless a
  sparse override map names another value (exact Python ints, up to 2^k),
  so a built table holds the crossing shell and the zero-weight shells
  after it (925 of 108,990 at n=216), not one bigint per leaf.

A column the kind has no use for is None.  ``CompositionSet.leaves`` is that
table, built from columns by the builders and the file reader.  It is a
read-only sequence: item i is an AddressedComposition built on access, and
two tables compare equal when their columns do.  Validate, analyze and the
codec read the columns directly, and cast counts to int64 one chunk at a
time before any arithmetic on them.  A column holding a count outside
[0, n] keeps int64, or an object array of Python ints when a count does not
fit int64; validate refuses either at the first such leaf.

A CompositionSet stores only what a builder chooses: the tag, n, k, the
alphabet and the leaves.  avg_pmf, rate_loss and e_max have one valid value
each given those, so they are computed from them; read_scheme checks that a
file's header states those values.

Capacities are checked exactly, by column: kernels.multinomials gives each
leaf's multinomial MC as a product of binomials from one cached table, one
block of leaves at a time, and a leaf's words (2^p, or its used count) must
lie in [0, MC].  A WordCheck takes that check, and the weight check, from
the pass that forms an ESS table (build_ess's walk, the file reader's), so
validate forms no second pass for it.  A multinomial at n=216 has ~400 bits,
far beyond a float's 53, and every interior ESS shell is used exactly to its
capacity, so no float bound could decide it.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import eq
from types import MappingProxyType

import numpy as np

from .combinatorics import (
    AmplitudeAlphabet,
    Counts,
    Pmf,
    check_k_range,
    integer_radius,
    kurtosis_of,
    rate_loss as _rate_loss,
    select_emax,
)
from .errors import ConstructionBugError, RateInfeasibleError
from .kernels import chunks, multinomial_blocks, multinomials

# Largest block length a scheme may state.  validate forms binomials
# comb(n, c) of up to n bits (comb(2^16, 2^15) takes ~0.2 s on Python 3.11);
# a file naming n=10^6 would take ~16 s for one such binomial.
MAX_BLOCK_LENGTH = 1 << 16

# Leaves per block start a UsedCounts keeps: the codec derives the used
# counts of at most START_STRIDE - 1 leaves a word past one (~0.6 us each at
# n=216).  The n=216 ESS starts take 1.0 MB at 8, against the 7.3 MB a
# tuple of used counts took.  Against that tuple's walk at a stride of 64,
# in paired words, an ESS encode at 16 read ~5% slower in the median; at 8
# it read no slower.
START_STRIDE = 8


def is_tree_scheme(scheme: str) -> bool:
    """The tag decides the kind: every scheme but ess is a prefix tree."""
    return scheme != "ess"


@dataclass(frozen=True, slots=True)
class AddressedComposition:
    """One leaf of a shaping scheme: an item of a LeafTable."""

    counts: Counts
    weight: float
    payload_bits: int | None = None
    depth: int | None = None
    used_count: int | None = None


def int_array(values) -> np.ndarray:
    """values as int64, or as Python ints in an object array when one of
    them does not fit int64 (such a value fails every range check)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def count_dtype(n: int) -> np.dtype:
    """dtype of a count column whose counts all lie in [0, n]: the narrowest
    of uint8, uint16 and uint32 that holds n (np.min_scalar_type), or int64
    for an n outside [0, 2^32), which validate refuses."""
    return np.min_scalar_type(n) if 0 <= n < 1 << 32 else np.dtype(np.int64)


def narrow_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """counts as count_dtype(n) when that is unsigned and every count lies
    in [0, n], else as given, so that no cast wraps or overflows a count
    that validate must refuse."""
    dtype = count_dtype(n)
    if dtype.kind != "u" or (counts.size and not (counts.min() >= 0
                                                  and counts.max() <= n)):
        return counts
    return counts.astype(dtype, copy=False)


def block_energies(counts: np.ndarray, n: int,
                   units: Sequence[int]) -> np.ndarray:
    """Each row's integer block energy: int64 when n * max(units), which
    bounds them all, fits, else Python ints in an object array."""
    exact = np.int64 if n * max(units) < 1 << 63 else object
    return counts.astype(exact, copy=False) @ np.array(units, dtype=exact)


def key_radix(n: int, m: int) -> list[int]:
    """Digit weights of composition_keys: (n+1)^(m-1), ..., n+1, 1."""
    return [(n + 1) ** i for i in range(m - 1, -1, -1)]


def key_dtype(n: int, m: int):
    """dtype of composition_keys: int64 when (n+1)^m fits, else object."""
    return np.int64 if (n + 1) ** m <= 1 << 63 else object


def composition_keys(counts: np.ndarray, n: int) -> np.ndarray:
    """One integer per row: the counts as the digits of a radix-(n+1) number.

    Distinct compositions of n get distinct keys, ordered as the rows are
    lexicographically, and none is 0 (a composition of n >= 1 has a nonzero
    count).  The keys are int64 when (n+1)^m fits, else Python ints in an
    object array, formed kernels.CHUNK rows at a time, so a narrow count
    column is cast one chunk at a time.  Every count must lie in [0, n].
    """
    m = counts.shape[1]
    exact = key_dtype(n, m)
    radix = np.array(key_radix(n, m), dtype=exact)
    keys = np.empty(len(counts), dtype=exact)
    for rows in chunks(len(counts)):
        keys[rows] = counts[rows].astype(exact, copy=False) @ radix
    return keys


def row_chunks(column: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive kernels.CHUNK-row slices of an array, in order."""
    return (column[rows] for rows in chunks(len(column)))


def joined_rows(block: np.ndarray, sep: str) -> Iterator[str]:
    """Each row of a count block as its decimal counts joined by sep, formed
    from one tolist() of the block's columns."""
    return map(sep.join, zip(*(map(str, col) for col in block.T.tolist())))


def row_values(column: np.ndarray) -> Iterator:
    """An array's rows as Python values (floats, ints, or lists of a
    matrix's rows), one chunk's tolist() at a time: no list of the whole
    column is formed."""
    return chain.from_iterable(c.tolist() for c in row_chunks(column))


def running_sum(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added left to right as a Python
    loop adds them (np.sum would add pairwise), so a column summed chunk by
    chunk through it gives the loop's float bit for bit.  terms must not be
    empty, and is overwritten."""
    terms[0] += total
    return float(np.cumsum(terms, out=terms)[-1])


def _first(mask: np.ndarray) -> int:
    """Index of the first True, or len(mask) when there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def composition_rows(block: np.ndarray, n: int) -> np.ndarray:
    """Which rows of a count block are compositions of n: counts in [0, n]
    that sum to n, added as int64 (as Python ints for a count beyond it),
    so no sum wraps."""
    block = block.astype(np.result_type(block, np.int64), copy=False)
    return ((block.sum(axis=1) == n) & (block.min(axis=1) >= 0)
            & (block.max(axis=1) <= n))


def used_overrides(blocks: Iterable) -> tuple[dict, list]:
    """(overrides, starts) of a used-count column given one kernels.chunks
    block at a time, in order.

    Each block is (used, mc): an object array of the block's used counts,
    and one of its rows' multinomials, with None for a row whose
    multinomial is not formed (or None for the whole block).  A used count
    that is not its row's multinomial is an override, {leaf index: value}.
    starts holds the first word of every START_STRIDE-th leaf.
    """
    overrides, starts, total, first = {}, [], 0, 0
    for used, mc in blocks:
        differs = np.ones(len(used), dtype=bool) if mc is None else used != mc
        for j in np.flatnonzero(differs).tolist():
            overrides[first + j] = used[j]
        # cumulative[j]: the words of the leaves before leaf first + j
        cumulative = list(accumulate(used.tolist(), initial=total))
        starts += cumulative[-first % START_STRIDE:-1:START_STRIDE]
        total = cumulative[-1]
        first += len(used)
    return overrides, starts


def shares(words: np.ndarray, k: int) -> np.ndarray:
    """words / 2^k as float64, each the correctly rounded exact quotient,
    for an object array of Python ints in [0, 2^k].

    For k <= 1022 it is np.ldexp(float(w), -k): float() of a word of at
    most 2^1022 rounds once, correctly, and cannot overflow, and a nonzero
    quotient is at least 2^-1022, a normal float, so scaling by 2^-k is
    exact and equals the quotient bit for bit.  Above that a word may
    overflow a float, or its quotient fall below the normal range and round
    twice, so each word is divided exactly, as w / 2^k.
    """
    if k <= 1022:
        return np.ldexp(words.astype(np.float64), -k)
    return (words / (1 << k)).astype(np.float64)


class WordCheck:
    """validate's capacity and weight checks over a scheme's words, filled
    one kernels.chunks block at a time, in order, by the pass that forms the
    blocks' multinomials (see CompositionSet.validate).

    ``add(w, mc)`` takes a block's words, an object array of Python ints,
    and its rows' multinomials, an object array with None for a row whose
    multinomial is not formed (or None for the whole block).  A row is at
    fault unless 0 <= w <= MC, an unformed MC counting as 0 (a row of 0
    words needs none), w <= 2^k and its weight in ``weights`` is shares(w,
    k).  ``first`` is the first row at fault, or None, and ``over_cap`` says
    whether its words lie outside [0, MC]; ``total`` sums the words.
    """

    __slots__ = ("weights", "k", "first", "over_cap", "total", "end")

    def __init__(self, weights: np.ndarray, k: int):
        self.weights, self.k = weights, k
        self.first = self.over_cap = None
        self.total = self.end = 0

    def add(self, w: np.ndarray, mc: np.ndarray | None) -> None:
        rows = slice(self.end, self.end + len(w))
        self.end = rows.stop
        cap = 0 if mc is None else np.where(np.equal(mc, None), 0, mc)
        over_cap = (w < 0) | (w > cap)
        fits = ~over_cap & (w <= 1 << self.k)
        bad = ~fits | (self.weights[rows]
                       != shares(np.where(fits, w, 0), self.k))
        if self.first is None and bad.any():
            j = int(bad.argmax())
            self.first, self.over_cap = rows.start + j, bool(over_cap[j])
        self.total += w.sum()

    def scan(self, blocks: Iterable) -> Iterator:
        """The (w, mc) blocks, each passed on after it is added."""
        for block in blocks:
            self.add(*block)
            yield block


class UsedCounts(Sequence):
    """An ESS table's used counts, derived from its shells.

    Leaf i uses MC(c_i) sequences, the multinomial of its row of counts (a
    composition of n), unless the read-only map ``overrides`` names another
    value for it; an overridden row need not be a composition.  A read
    forms the multinomials of the rows it reads, one kernels.CHUNK block at
    a time from one kernels.multinomial_blocks, so no per-leaf value
    outlives its block.  ``starts``, a tuple formed with the overrides by
    used_overrides, holds the first word of every START_STRIDE-th leaf for
    the codec.  A slice is a tuple (from one pass), and the column compares
    equal to any sequence of the same values.
    """

    __slots__ = ("counts", "n", "overrides", "starts", "_marked")

    def __init__(self, counts: np.ndarray, n: int, overrides: dict,
                 starts: Sequence[int]):
        marked = np.fromiter(sorted(overrides), dtype=np.int64,
                             count=len(overrides))
        marked.flags.writeable = False
        for name, value in zip(self.__slots__, (
                counts, n, MappingProxyType(overrides), tuple(starts),
                marked)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"UsedCounts is read-only: cannot set {name}")

    @classmethod
    def of_values(cls, counts: np.ndarray, values: Sequence[int]):
        """The column holding the given used count of each leaf, every one
        of them an override (n is not needed)."""
        values = tuple(values)
        if len(values) != len(counts):
            raise ValueError(f"{len(values)} used counts for "
                             f"{len(counts)} leaves")
        blocks = ((np.array(values[rows], dtype=object), None)
                  for rows in chunks(len(values)))
        return cls(counts, 0, *used_overrides(blocks))

    def __len__(self) -> int:
        return len(self.counts)

    def over(self, rows: slice, mc: np.ndarray) -> np.ndarray:
        """The used counts of the leaves in rows, given an object array of
        their multinomials: mc, with each override among them written over
        it in place."""
        lo, hi = self._marked.searchsorted((rows.start, rows.stop))
        for i in self._marked[lo:hi].tolist():
            mc[i - rows.start] = self.overrides[i]
        return mc

    def _block(self, rows: slice, block_multinomials) -> np.ndarray:
        """The used counts of the leaves in rows, as an object array, those
        of the rows no override names from block_multinomials (a
        kernels.multinomial_blocks(n))."""
        lo, hi = self._marked.searchsorted((rows.start, rows.stop))
        derived = np.ones(rows.stop - rows.start, dtype=bool)
        derived[self._marked[lo:hi] - rows.start] = False
        mc = np.empty(len(derived), dtype=object)
        mc[derived] = block_multinomials(self.counts[rows][derived])
        return self.over(rows, mc)

    def blocks(self) -> Iterator[np.ndarray]:
        """The used counts of each kernels.chunks block in order, as object
        arrays, from one pass of multinomials."""
        block_multinomials = multinomial_blocks(self.n)
        return (self._block(rows, block_multinomials)
                for rows in chunks(len(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):  # one pass, as a tuple's slice
            return tuple(self)[i]
        i = range(len(self))[i]
        return self._block(slice(i, i + 1), multinomial_blocks(self.n))[0]

    def __iter__(self):
        return chain.from_iterable(block.tolist() for block in self.blocks())

    def __eq__(self, other) -> bool:
        """Value by value, with any sequence."""
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return (f"UsedCounts({len(self)} leaves, "
                f"{len(self.overrides)} overrides)")


class LeafTable(Sequence):
    """The leaves of a scheme as columns; see the module docstring.

    payload_bits and depth (tree) and used_counts (ESS) are None when the
    kind has no such field.  used_counts may be given as any sequence of
    values, each of which is then an override; a UsedCounts over these
    very counts is kept as it is.
    """

    __slots__ = ("counts", "weights", "payload_bits", "depth", "used_counts")

    def __init__(self, counts: np.ndarray, weights: np.ndarray,
                 payload_bits=None, depth=None, used_counts=None):
        if used_counts is not None and not (
                isinstance(used_counts, UsedCounts)
                and used_counts.counts is counts):
            used_counts = UsedCounts.of_values(counts, used_counts)
        columns = (counts, weights, payload_bits, depth, used_counts)
        for name, column in zip(self.__slots__, columns):
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"LeafTable is read-only: cannot set {name}")

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> AddressedComposition:
        i = range(len(self))[i]

        def item(column):
            return None if column is None else int(column[i])

        return AddressedComposition(
            tuple(self.counts[i].tolist()), float(self.weights[i]),
            item(self.payload_bits), item(self.depth), item(self.used_counts))

    def __iter__(self):
        def values(column):
            if isinstance(column, np.ndarray):
                return row_values(column)
            return repeat(None) if column is None else column

        return map(AddressedComposition, map(tuple, row_values(self.counts)),
                   row_values(self.weights), values(self.payload_bits),
                   values(self.depth), values(self.used_counts))

    def __eq__(self, other) -> bool:
        """Leaf by leaf, as tuples of leaves compare."""
        if not isinstance(other, LeafTable):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"LeafTable({len(self)} leaves)"

    @property
    def n_words(self) -> Sequence[int]:
        """Input words each leaf owns: 2^payload_bits, or the ESS used count."""
        if self.used_counts is not None:
            return self.used_counts
        return [1 << p for p in self.payload_bits.tolist()]


@dataclass(frozen=True)
class CompositionSet:
    """A complete shaping scheme at block length n and input width k."""

    scheme: str
    n: int
    k: int
    alphabet: AmplitudeAlphabet
    leaves: LeafTable

    @property
    def n_compositions(self) -> int:
        return len(self.leaves)

    @functools.cached_property
    def avg_pmf(self) -> Pmf:
        return average_pmf(self.leaves, self.n, self.alphabet.m)

    @property
    def rate_loss(self) -> float:
        return _rate_loss(self.avg_pmf, self.k, self.n)

    @property
    def e_max(self) -> float | None:
        """The minimal ESS radius; None for a tree scheme."""
        return (None if is_tree_scheme(self.scheme)
                else select_emax(self.n, self.k, self.alphabet))

    def kurtosis_range(self) -> tuple[float, float]:
        """Min and max 2D kurtosis over leaves with nonzero weight."""
        table = self.leaves
        ks = kurtosis_of(table.counts[table.weights > 0], self.alphabet)
        return min(ks), max(ks)

    def validate(self, checked: WordCheck | None = None) -> None:
        """Raise ConstructionBugError on any violated scheme invariant.

        n lies in [1, MAX_BLOCK_LENGTH].  A tree table carries payload and
        depth and no used counts, an ESS table the reverse.  Leaf i owns
        words[i] input words (2^payload_bits, or the ESS used count), as the
        codec addresses them: 0 <= words[i] <= MC(c_i), compared exactly with
        the multinomials of kernels.multinomials, words[i] <= 2^k, its weight
        is shares(words[i], k), and the words sum to 2^k.  Every ESS leaf
        lies inside the minimal radius, and the rate loss is not negative.

        The capacity and weight checks and the word total come from
        ``checked``, a WordCheck of this very table's words filled from the
        multinomials of its own counts by the pass that formed the table
        (build_ess's walk, or read_scheme's over an ESS file); without one,
        validate forms them in one pass of kernels.multinomials.

        The checks run column by column, and the error names the first leaf
        at fault in stored order, as a leaf-by-leaf pass would: per leaf,
        duplicate before composition before kind (a table of the wrong kind
        misfits at every leaf), then (once every leaf has passed those)
        payload/depth, capacity and weight, with the three checked in that
        order at the first leaf any marks: payload/depth is a mask over a
        tree's leaves, and the WordCheck keeps the first leaf whose capacity
        or weight is at fault.

        Besides those masks, validate holds one key per leaf and its stable
        sort order for the duplicate check; everything else per leaf (row
        sums, energies, multinomials, shares, the weight sum) is formed
        kernels.CHUNK rows at a time.
        """
        n, k, m = self.n, self.k, self.alphabet.m
        if n < 1:
            raise ConstructionBugError(f"n={n} is not a positive block length")
        if n > MAX_BLOCK_LENGTH:
            raise ConstructionBugError(
                f"n={n} exceeds MAX_BLOCK_LENGTH={MAX_BLOCK_LENGTH}")
        tree = is_tree_scheme(self.scheme)
        table = self.leaves
        size = len(table)
        counts = table.counts
        # one chunk at a time: is the row a composition, and its key, or 0,
        # which no composition has, when it is not one
        not_comp = np.ones(size, dtype=bool)
        keys = np.zeros(size, dtype=key_dtype(n, m))
        if size and counts.shape[1] == m:
            for rows in chunks(size):
                chunk = counts[rows]
                fits = composition_rows(chunk, n)
                not_comp[rows] = ~fits
                keys[rows][fits] = composition_keys(
                    chunk[fits].astype(np.int64, copy=False), n)
        # a stable sort puts the copies of a key together, earliest first:
        # each one after the first is a duplicate, unless it is no
        # composition (key 0) and so at fault as that
        order = np.argsort(keys, kind="stable")
        keys.sort()
        dup = np.zeros(size, dtype=bool)
        dup[order[1:]] = keys[1:] == keys[:-1]
        dup &= ~not_comp
        del order, keys  # freed before any multinomial is formed
        misfit = ((table.payload_bits is None) == tree
                  or (table.depth is None) == tree
                  or (table.used_counts is None) != tree)
        i = _first(dup | not_comp | misfit)
        if i < size:
            leaf = table[i].counts
            if dup[i]:
                raise ConstructionBugError(f"duplicate leaf {leaf}")
            if not_comp[i]:
                raise ConstructionBugError(
                    f"leaf {leaf} is not a composition of {n} into {m} levels")
            raise ConstructionBugError(
                f"leaf {leaf} does not fit scheme {self.scheme!r}")
        check_k_range(n, k, m, ConstructionBugError)
        need = 1 << k
        if tree:
            p = table.payload_bits
            bad_pd = (p < 0) | (p > k) | (table.depth != k - p)
            first_pd = _first(bad_pd)
            words = [1 << x for x in np.where(bad_pd, 0, p).tolist()]
        else:
            first_pd, words = size, table.used_counts
        if checked is None:
            # one block of multinomials at a time; an ESS block's words are
            # its multinomials with its overrides written over them
            checked = WordCheck(table.weights, k)
            for rows, mc in zip(chunks(size), multinomials(counts, n)):
                checked.add(np.array(words[rows], dtype=object) if tree
                            else words.over(rows, mc.copy()), mc)
        i = size if checked.first is None else checked.first
        if first_pd < size and first_pd <= i:
            raise ConstructionBugError("inconsistent payload/depth")
        if i < size:
            leaf = table[i]
            if checked.over_cap:
                raise ConstructionBugError(
                    "payload exceeds composition capacity" if tree else
                    f"leaf {leaf.counts} used count {leaf.used_count} "
                    "exceeds its shell size")
            if words[i] > need:  # an ESS leaf: a tree's p > k fails above
                raise ConstructionBugError(
                    f"leaf {leaf.counts} used count {leaf.used_count} "
                    f"exceeds 2^{k}")
            share = (f"2^({leaf.payload_bits}-{k})" if tree
                     else f"{leaf.used_count}/2^{k}")
            raise ConstructionBugError(
                f"leaf {leaf.counts} weight {leaf.weight!r} is not {share}")
        if checked.total != need:
            what = "address space" if tree else "used sequences"
            raise ConstructionBugError(
                f"{what} is {checked.total}, expected 2^{k}")
        wsum = 0.0  # left to right, as sum() before 3.12
        for chunk in row_chunks(table.weights):
            wsum = running_sum(wsum, chunk.copy())
        if not abs(wsum - 1.0) <= 1e-9:
            raise ConstructionBugError(f"leaf weights sum to {wsum!r}")
        if not tree:
            units, _ = self.alphabet.integer_energies()
            cap = integer_radius(n, k, self.alphabet)
            for rows in chunks(size):
                outside = block_energies(counts[rows], n, units) > cap
                if outside.any():
                    leaf = table[rows.start + int(outside.argmax())].counts
                    raise ConstructionBugError(
                        f"leaf {leaf} lies outside the radius {self.e_max!r}")
        self.rate_loss  # evaluated for its check: a negative rate loss raises


def average_pmf(table: LeafTable, n: int, m: int) -> Pmf:
    """Weighted average PMF: sum over leaves of weight * c_i / n, per level.

    Terms are added leaf by leaf in order, exactly as a Python loop from 0.0
    would (running_sum), one level of kernels.CHUNK leaves at a time, so no
    temporary is longer than a chunk.  Zero-weight leaves add 0.0, which
    changes nothing.
    """
    pmf = [0.0] * m
    for counts, weights in zip(row_chunks(table.counts),
                               row_chunks(table.weights)):
        for j in range(m):
            terms = weights * counts[:, j]
            terms /= n
            pmf[j] = running_sum(pmf[j], terms)
    return tuple(pmf)


def exact_cover(counts: np.ndarray, payloads: np.ndarray, mult: np.ndarray,
                k: int, payload_cap: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Greedy exact cover of the 2^k address space.

    Item i is row counts[i] at payload payloads[i] with mult[i] members: 1
    for one composition, 2 for a full pair that the row stands for.  Items
    are sorted by operating payload min(p, cap) descending, ties broken by
    the colex order of the rows, and taken until the space is full; an
    overshooting item has its payload reduced (equally across its members)
    to whatever still fits, and is dropped when nothing fits.  Raises when
    the items cannot fill the space exactly.

    Returns the taken items' indices in take order and the payload of each.
    """
    from array import array  # here, so ESS runs never map its ~0.3 MB
    need = 1 << k
    cap = k if payload_cap is None else payload_cap
    # the last key is primary: -min(p, cap), then c_{m-1} .. c_0 (colex)
    order = np.lexsort((*counts.T, -np.minimum(payloads, cap)))
    taken, paid = array("q"), array("q")  # no object per item
    total = 0
    for i, payload, times in chain.from_iterable(
            zip(block.tolist(), payloads[block].tolist(), mult[block].tolist())
            for block in row_chunks(order)):
        if total >= need:
            break
        p = min(payload, cap, k)
        remaining = need - total
        if (times << p) > remaining:
            p = (remaining // times).bit_length() - 1
            if p < 0:
                continue
        taken.append(i)
        paid.append(p)
        total += times << p
    if total < need:
        raise RateInfeasibleError(
            f"items supply {total} addresses, need 2^{k}")
    if total != need:
        raise ConstructionBugError("exact cover missed 2^k after adjustment")
    return np.array(taken, dtype=np.int64), np.array(paid, dtype=np.int64)


def smallest_feasible_cap(payloads: np.ndarray, mult: np.ndarray,
                          k: int) -> int:
    """Smallest payload cap whose capped address space still reaches 2^k.

    Item i holds mult[i] members at payload payloads[i], as in exact_cover.
    Capping every item's payload at the returned value keeps the cover
    feasible while spreading the address space over as many items as
    possible (a depth-balanced tree).
    """
    need = 1 << k
    # items at one payload contribute alike at every cap: units[p] members
    units = np.zeros(int(payloads.max(initial=0)) + 1, dtype=np.int64)
    np.add.at(units, payloads, mult)
    held = [(p, u) for p, u in enumerate(units.tolist()) if u]

    def capped_total(cap: int) -> int:
        return sum(u << min(p, cap) for p, u in held)

    if capped_total(k) < need:
        raise RateInfeasibleError(f"address space below 2^{k}")
    return bisect_left(range(k), need, key=capped_total)  # grows with cap


def tree_scheme(scheme: str, n: int, k: int, alphabet: AmplitudeAlphabet,
                counts: np.ndarray, payloads: np.ndarray) -> CompositionSet:
    """Package leaf counts and payloads as a validated tree CompositionSet."""
    payload = np.asarray(payloads, dtype=np.int64)
    leaves = LeafTable(
        counts=narrow_counts(counts, n),
        weights=np.ldexp(1.0, payload - k),  # 2^(p-k), exactly
        payload_bits=payload, depth=k - payload)
    built = CompositionSet(scheme=scheme, n=n, k=k, alphabet=alphabet,
                           leaves=leaves)
    built.validate()
    return built
