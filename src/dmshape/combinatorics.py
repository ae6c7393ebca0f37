"""Exact composition arithmetic and block moments.

A *composition* is the vector of occurrence counts of each amplitude level
in one shaped block of n one-dimensional symbols.  Everything that counts
sequences does so in exact arbitrary-precision integers; base-2 logarithms
of counts are taken through the integer bit length, never through floats,
so ``input_bits`` is an exact floor.

Moments are reported for the complex (2D) QAM symbol X = A_I + j*A_Q built
from two independent amplitude draws:

    E|X|^2 = 2*mu2           E|X|^4 = 2*mu4 + 2*mu2^2    (mu_k = E[A^k])
    kurtosis_2d = E|X|^4 / E|X|^2^2 = (mu4/mu2^2 + 1) / 2

which equals 2 for a circular Gaussian and 1 for any constant-modulus
constellation; ``kurtosis_of`` computes it for every row of a count matrix.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import ConstructionBugError, DegeneratePmfError, RateInfeasibleError

Counts = tuple[int, ...]
Pmf = tuple[float, ...]


@dataclass(frozen=True)
class AmplitudeAlphabet:
    """Ascending positive amplitude levels of the shaped constellation."""

    levels: tuple[float, ...] = (1.0, 3.0, 5.0, 7.0)

    def __post_init__(self):
        levels = tuple(float(x) for x in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError("alphabet needs at least two levels")
        if any(x <= 0 for x in levels):
            raise ValueError("levels must be positive")
        # mu4 and mu2^2 are fourth powers of the levels
        if not all(math.isfinite(x * x * x * x) for x in levels):
            raise ValueError("levels must have a finite fourth power")
        # and a normal one, so that mu2^2 >= level^4 stays positive
        if not all(x * x * x * x >= sys.float_info.min for x in levels):
            raise ValueError("levels must have a fourth power of at least "
                             f"{sys.float_info.min!r}")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly ascending")

    @property
    def m(self) -> int:
        return len(self.levels)

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(x * x for x in self.levels)

    def integer_energies(self) -> tuple[tuple[int, ...], Fraction]:
        """Exact integer energy grid: (units, scale) with energy_i = units_i * scale.

        Floats are binary rationals, so the squares have exact Fraction
        values; the common denominator is bounded to keep grids practical.
        """
        fracs = [Fraction(x) ** 2 for x in self.levels]
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        if den > 1 << 20:
            raise RateInfeasibleError(
                "amplitude energies need a modest common denominator")
        units = tuple(int(f * den) for f in fracs)
        return units, Fraction(1, den)

    def energy_grid(self) -> tuple[int, int, tuple[int, ...]]:
        """(u0, g, deltas): units_i = u0 + g * deltas_i, g = gcd of units_i - u0."""
        units, _ = self.integer_energies()
        g = math.gcd(*(u - units[0] for u in units))
        return units[0], g, tuple((u - units[0]) // g for u in units)


DEFAULT_ALPHABET = AmplitudeAlphabet()


def k_fits(n: int, k: int, m: int) -> bool:
    """Whether k lies in [0, n*log2(m)]: 2^k words need 2^k <= m^n
    sequences."""
    return 0 <= k <= n * math.log2(m)


def check_k_range(n: int, k: int, m: int,
                  error: type[Exception] = RateInfeasibleError) -> None:
    """Refuse k outside [0, n*log2(m)] (k_fits).

    Called before 2^k is formed; a builder raises RateInfeasibleError,
    validate ConstructionBugError.
    """
    if not k_fits(n, k, m):
        raise error(f"k={k} outside [0, n*log2(m)]")


RADIUS_GRID_BITS = 1 << 29  # 64 MiB packed polynomial

# Largest packed power integer_radius forms.  Its cost grows as the bits to
# the power ~1.6 (Karatsuba).  Whole integer_radius calls on a 2-core
# x86-64 host with Python 3.11: 8.4M bits (n=834 over {1,3,5,7}) took
# 1.8 s, the slowest measured under this bound, and 7.3M bits (n=3 over 390
# odd levels) 1.2 s; 58M bits (n=3 over 1,100 odd levels) took 35 s, which
# the bound refuses.
RADIUS_POWER_BITS = 1 << 23


@functools.lru_cache(maxsize=64)
def integer_radius(n: int, k: int, alphabet: AmplitudeAlphabet) -> int:
    """Smallest integer block energy (in integer_energies units) whose ball
    holds at least 2^k length-n sequences.

    The radius comes from the generating polynomial rather than a simplex
    scan: the number of length-n sequences of integer energy e is the
    coefficient of x^e in (sum_i x^u_i)^n.  With offsets d_i = (u_i - u_0) / g,
    g the gcd of the u_i - u_0, that is the coefficient of y^j,
    j = (e - n*u_0) / g, in (sum_i y^d_i)^n.  No coefficient exceeds m^n, so
    evaluating at y = 2^B with B > bitlen(m^n) packs every coefficient in its
    own B-bit slot without carries; one exact bigint power then yields all of
    them, and the radius is where the running slot sum first reaches 2^k.
    A grid whose packed form passes RADIUS_GRID_BITS (memory) or whose
    power passes RADIUS_POWER_BITS (time) is refused before the power.
    """
    check_k_range(n, k, alphabet.m)  # before 2^k is formed
    u0, g, deltas = alphabet.energy_grid()
    n_slots = n * deltas[-1] + 1
    # a slot holds up to m^n <= 2^(n * bitlen(m-1)); refuse packed grids too
    # large to hold (a scheme file may name any alphabet and n)
    if n_slots * n * (alphabet.m - 1).bit_length() > RADIUS_GRID_BITS:
        raise RateInfeasibleError(
            f"energy grid of {n_slots} levels at n={n} is too large")
    need = 1 << k
    width = ((alphabet.m ** n).bit_length() + 8) // 8  # bytes per slot
    if 8 * width * n_slots > RADIUS_POWER_BITS:
        raise RateInfeasibleError(
            f"energy grid of {n_slots} levels at n={n} needs a "
            f"{8 * width * n_slots}-bit power, more than "
            f"RADIUS_POWER_BITS={RADIUS_POWER_BITS}")
    poly = sum(1 << (8 * width * d) for d in deltas)
    packed = (poly ** n).to_bytes(width * n_slots, "little")
    cum = 0
    for j in range(n_slots):
        cum += int.from_bytes(packed[j * width:(j + 1) * width], "little")
        if cum >= need:
            return n * u0 + g * j
    raise RateInfeasibleError(
        f"alphabet admits only {cum} sequences at n={n}, need 2^{k}")


def select_emax(n: int, k: int,
                alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> float:
    """Smallest achievable energy radius admitting at least 2^k sequences."""
    _, scale = alphabet.integer_energies()
    return float(integer_radius(n, k, alphabet) * scale)


def float_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0: sum() before Python 3.12.

    From 3.12 sum() compensates float additions, which would change the last
    bits of entropies and SNR averages, and so scheme file and compare bytes.
    """
    return functools.reduce(operator.add, values, 0.0)


def input_bits(counts: Sequence[int]) -> int:
    """floor(log2(MC)) via the bit length of the exact count."""
    return kernels.mc_counts(tuple(counts)).bit_length() - 1


def pmf_of(counts: Sequence[int]) -> Pmf:
    n = sum(counts)
    if n <= 0:
        raise ValueError("empty composition has no PMF")
    return tuple(x / n for x in counts)


def entropy(pmf: Sequence[float]) -> float:
    """Shannon entropy in bits per 1D symbol, with 0*log(0) = 0.

    0.0 - sum rather than -sum: a point mass sums to +0.0, which would negate
    to -0.0; every other sum negates exactly either way."""
    return 0.0 - float_sum(p * math.log2(p) for p in pmf if p > 0)


def energy(counts: Sequence[int], alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> float:
    """Total block energy sum(counts_i * level_i^2)."""
    return sum(c * e for c, e in zip(counts, alphabet.energies))


@dataclass(frozen=True)
class BlockMoments:
    """Raw 1D amplitude moments and the derived 2D-symbol kurtosis."""

    mu2_1d: float
    mu4_1d: float
    kurtosis_2d: float

    @property
    def kurtosis_1d(self) -> float:
        """Amplitude-only moment ratio mu4/mu2^2 (diagnostic)."""
        return self.mu4_1d / self.mu2_1d**2


def block_moments(pmf: Sequence[float],
                  alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> BlockMoments:
    if len(pmf) != alphabet.m:
        raise ValueError("PMF length does not match alphabet")
    # plain left-to-right accumulation (not sum(), which compensates on
    # Python >= 3.12), so kurtosis_of can replay it row-parallel bit for bit
    total = mu2 = mu4 = 0.0
    for p, e in zip(pmf, alphabet.energies):
        total += p
        mu2 += p * e
        mu4 += p * e * e
    if abs(total - 1.0) > 1e-12:
        raise DegeneratePmfError(f"PMF sums to {total!r}")
    if mu2 <= 0:
        raise DegeneratePmfError("zero second moment")
    return BlockMoments(mu2, mu4, (mu4 / mu2**2 + 1.0) / 2.0)


def kurtosis_of(counts: np.ndarray,
                alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> list[float]:
    """2D-symbol kurtosis of each row of an (L, m) count matrix:
    block_moments(pmf_of(row)).kurtosis_2d, bit-identical and row-parallel.

    numpy replays block_moments's operations in the same order (IEEE
    multiply, divide and add round identically elementwise); mu2**2 stays
    scalar, as numpy squares as mu2*mu2.  A matrix that would raise, is not
    m wide or holds counts too large to be exact in float64 reruns row by
    row through block_moments, which raises at the same row.
    """
    m = alphabet.m
    if np.issubdtype(counts.dtype, np.integer) and counts.shape[1:] == (m,):
        c = counts.astype(np.float64)
        rows = c.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            pmf = c / rows[:, None]
            total = mu2 = mu4 = 0.0
            for i, e in enumerate(alphabet.energies):
                p = pmf[:, i]
                total = total + p
                mu2 = mu2 + p * e
                mu4 = mu4 + p * e * e
            kurt = (mu4 / np.array([x**2 for x in mu2.tolist()]) + 1.0) / 2.0
        if not (np.abs(c).max(initial=0.0) * m >= 2.0**53
                or ((rows <= 0) | (np.abs(total - 1.0) > 1e-12)
                    | (mu2 <= 0)).any()):
            return kurt.tolist()
    return [block_moments(pmf_of(row), alphabet).kurtosis_2d
            for row in counts.tolist()]


def rate_loss(avg_pmf: Sequence[float], k: int, n: int) -> float:
    """entropy(avg_pmf) - k/n in bits per 1D symbol; negative values are bugs."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    value = entropy(avg_pmf) - k / n
    if value < -1e-12:
        raise ConstructionBugError(
            f"negative rate loss {value!r}: scheme addresses more sequences "
            "than its average distribution permits")
    return value

