"""Test-side oracles: independent computations the package itself never needs.

EssTrellis counts the ESS energy ball with kernels.trellis_build, apart from
the shell scan the ESS build uses; level_split_arrangements lists a
composition's arrangements in the codec's order, ranked from the order's
definition with math.comb rather than the kernels' binomial table;
enumerate_compositions walks every composition of n apart from the kernels'
shell scan, and multinomial_coefficient counts a composition's arrangements
by factorials rather than by kernels.mc_counts' binomials, as gm_factors
forms the MPDM geometric-mean bound's factors; exact_cover is the
tuple-item greedy cover, sorted by colex_key, that the column cover of
dmshape.schemes replaced; w_to_dbm states launch powers in dBm.  Two
converters let tests state pairs and cover items as tuples: pair_triples
turns a pair array back into (C, 2*c0 - C, payload) triples, and
cover_columns turns ((members), payload) items into exact_cover's columns.
ess_leaf_fields, ess_verdict and ess_address read an ESS scheme file's
leaves as a tuple of used counts, a value a leaf, and say what validate and
the codec's addressing rule make of them, leaf by leaf.
block_start_words gives the first word of every stride-th leaf by a
running total over a list of each leaf's words, as the codec's block
starts were kept before they became bytes.
"""

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from dmshape import kernels
from dmshape.combinatorics import DEFAULT_ALPHABET, AmplitudeAlphabet, Counts
from dmshape.errors import (
    ConstructionBugError,
    DecodeError,
    RateInfeasibleError,
)


@dataclass
class EssTrellis:
    """Cumulative suffix counts over the discrete energy grid.

    counts[i][w] is the exact number of length-(n-i) suffixes whose energy
    offset (in grid units above the all-minimum-level floor) is at most w.
    Its total counts the energy ball independently of the ESS build.
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


def level_split_rank(seq, counts):
    """Rank of a level-index sequence in the level-split order, by definition.

    At level t, among the positions that levels below t left free, the
    subset is t's own positions, or those of the levels above t when they
    are fewer; its colex rank is sum_i comb(p_i, i) over its ascending
    positions.  The rank is the mixed-radix number of these ranks, level 0
    the most significant digit, each of radix comb(free, subset size).
    """
    rank = 0
    free = list(seq)
    for t, c in enumerate(counts[:-1]):
        if 2 * c <= len(free):
            subset = [p for p, s in enumerate(free) if s == t]
        else:
            subset = [p for p, s in enumerate(free) if s != t]
        rank = rank * math.comb(len(free), len(subset)) + sum(
            math.comb(p, i) for i, p in enumerate(subset, 1))
        free = [s for s in free if s != t]
    return rank


def level_split_arrangements(counts):
    """Every arrangement of a composition as a tuple of level indices, in
    level_split_rank order; the ranks are checked to be exactly 0 .. M-1."""
    m = len(counts)
    ranked = sorted((level_split_rank(seq, counts), seq)
                    for seq in itertools.product(range(m), repeat=sum(counts))
                    if tuple(map(seq.count, range(m))) == tuple(counts))
    assert [rank for rank, _ in ranked] == list(range(len(ranked)))
    return [seq for _, seq in ranked]


def multinomial_coefficient(counts):
    """Number of distinct arrangements of the composition, exact."""
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


def gm_factors(a, n, bits=64):
    """mpdm._gm_factors by factorials: the d of a level with count a in a
    block of n, and isqrt(2^(2*bits) * a!^2 / ((a+d)! (a-d)!)) + 1 for
    each, every factorial formed afresh."""
    fa2 = math.factorial(a) ** 2
    ds = range(-a, min(a, n - a) + 1)
    return ds, [math.isqrt((fa2 << 2 * bits) // (
        math.factorial(a + d) * math.factorial(a - d))) + 1 for d in ds]


def enumerate_compositions(n, alphabet=DEFAULT_ALPHABET, predicate=None):
    """All compositions of n into alphabet.m parts, colexicographic order.

    The stream is deterministic; the predicate filters (it does not prune),
    e.g. ``lambda c: energy(c, a) <= e_max``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = alphabet.m
    counts = [0] * m
    counts[0] = n
    while True:
        c = tuple(counts)
        if predicate is None or predicate(c):
            yield c
        if counts[0] > 0:
            counts[0] -= 1
            counts[1] += 1
            continue
        for j in range(1, m - 1):
            if counts[j] > 0:
                t = counts[j]
                counts[j] = 0
                counts[j + 1] += 1
                counts[0] = t - 1
                break
        else:
            return


def w_to_dbm(power_w: float) -> float:
    return 10 * math.log10(power_w * 1e3)


def colex_key(counts: Sequence[int]) -> tuple[int, ...]:
    """Sort key realising colexicographic order (last coordinate first)."""
    return tuple(reversed(counts))


def exact_cover(items: Iterable[tuple[tuple[Counts, ...], int]], k: int,
                payload_cap: int | None = None) -> list[tuple[Counts, int]]:
    """Greedy exact cover of the 2^k address space.

    Each item is (members, payload): one composition or a full pair.  Items
    are sorted by operating payload descending (ties broken by the colex
    order of the first member) and taken until the space is full; an
    overshooting item has its payload reduced (equally across its members)
    to whatever still fits, and is dropped when nothing fits.  Raises when
    the items cannot fill the space exactly.

    Returns (counts, payload) in take order, pair members adjacent.
    """
    need = 1 << k
    cap = k if payload_cap is None else payload_cap
    todo = sorted(items, key=lambda item: (-min(item[1], cap),
                                           colex_key(item[0][0])))
    leaves: list[tuple[Counts, int]] = []
    total = 0
    for members, payload in todo:
        if total >= need:
            break
        p = min(payload, cap, k)
        mult = len(members)
        remaining = need - total
        if (mult << p) > remaining:
            p = (remaining // mult).bit_length() - 1
            if p < 0:
                continue
        for c in members:
            leaves.append((c, p))
        total += mult << p
    if total < need:
        raise RateInfeasibleError(
            f"items supply {total} addresses, need 2^{k}")
    if total != need:
        raise ConstructionBugError("exact cover missed 2^k after adjustment")
    return leaves


def pair_triples(c0, pairs):
    """A pair array of kernels.pair_list as (C, 2*c0 - C, payload) triples of
    Python ints, in the array's order."""
    return [(tuple(c), tuple(2 * a - b for a, b in zip(c0, c)), p)
            for c, p in zip(pairs["counts"].tolist(),
                            pairs["payload"].tolist())]


def cover_columns(items):
    """exact_cover's (counts, payloads, mult) columns of ((members), payload)
    items: each item's first member, its payload and its member count."""
    rows = [members[0] for members, _ in items]
    width = len(rows[0]) if rows else 0
    return (np.array(rows, dtype=np.int64).reshape(len(rows), width),
            np.array([p for _, p in items], dtype=np.int64),
            np.array([len(members) for members, _ in items], dtype=np.int64))


def ess_leaf_fields(text: str) -> list[tuple[Counts, int, float]]:
    """(counts, used_count, weight) of each leaf line of an ESS scheme
    file's text, parsed line by line into tuples: the values a table that
    stores one used count a leaf holds.  Every field must parse."""
    _, _, section = text.partition("\nleaves=")
    leaves = []
    for line in section.splitlines()[1:]:
        counts, used, _, weight = line.split("|")
        leaves.append((tuple(map(int, counts.split(","))), int(used),
                       float(weight)))
    return leaves


def ess_verdict(n: int, k: int,
                leaves: Sequence[tuple[Counts, int, float]]) -> str | None:
    """What validate says of ESS leaves, given as (counts, used_count,
    weight) tuples of distinct compositions inside the radius: leaf by leaf,
    a used count outside [0, MC] (compared by factorials), then one above
    2^k, then a weight that is not its share; then the total and the weight
    sum, added left to right.  None when they pass."""
    need = 1 << k
    n_fact = math.factorial(n)
    for counts, used, weight in leaves:
        if used < 0 or used * math.prod(map(math.factorial, counts)) > n_fact:
            return f"leaf {counts} used count {used} exceeds its shell size"
        if used > need:
            return f"leaf {counts} used count {used} exceeds 2^{k}"
        if weight != used / need:
            return f"leaf {counts} weight {weight!r} is not {used}/2^{k}"
    total = sum(used for _, used, _ in leaves)
    if total != need:
        return f"used sequences is {total}, expected 2^{k}"
    wsum = sum(weight for _, _, weight in leaves)
    if not abs(wsum - 1.0) <= 1e-9:
        return f"leaf weights sum to {wsum!r}"
    return None


def ess_address(word: int,
                leaves: Sequence[tuple[Counts, int, float]]) -> tuple[Counts, int]:
    """(counts, rank): the leaf a word lands on and its rank there, by a
    walk over the used counts from the first leaf."""
    for counts, used, _ in leaves:
        if word < used:
            return counts, word
        word -= used
    raise ValueError("word beyond the used sequences")


def block_start_words(words: Iterable[int], stride: int) -> list[int]:
    """The first word of every stride-th leaf, given the words of each leaf
    in stored order: the running total of the words before it."""
    return list(itertools.accumulate(words, initial=0))[:-1][::stride]
