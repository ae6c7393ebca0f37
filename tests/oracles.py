"""Test-side oracles: independent computations the package itself never needs.

EssTrellis counts the ESS energy ball with kernels.trellis_build, apart from
the shell scan the ESS build uses; w_to_dbm states launch powers in dBm.
"""

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


def w_to_dbm(power_w: float) -> float:
    return 10 * math.log10(power_w * 1e3)
