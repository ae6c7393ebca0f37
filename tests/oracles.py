"""Test-side oracles: independent computations the package itself never needs.

EssTrellis counts the ESS energy ball with kernels.trellis_build, apart from
the shell scan the ESS build uses; level_split_arrangements lists a
composition's arrangements in the codec's order, ranked from the order's
definition with math.comb rather than the kernels' binomial table;
w_to_dbm states launch powers in dBm.
"""

import itertools
import math
from dataclasses import dataclass, field

from dmshape import kernels
from dmshape.combinatorics import DEFAULT_ALPHABET, AmplitudeAlphabet
from dmshape.errors import DecodeError


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


def w_to_dbm(power_w: float) -> float:
    return 10 * math.log10(power_w * 1e3)
