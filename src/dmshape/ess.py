"""Sphere shaping at the composition level.

All compositions whose block energy fits inside the smallest radius that
admits 2^k sequences form the scheme; shells are consumed lowest energy
first (colex within equal energy), with the boundary-energy shells
truncated so that exactly 2^k sequences are used.  Shell weights are exact
used-count ratios rather than dyadic payloads: sphere-shaped sets carry no
prefix tree.  The shells are one (L, m) count matrix from the scan to the
leaf table, with no object per shell.

Energies are put on an exact integer grid (levels are binary rationals, so
their squares have a finite common denominator); the radius search and the
shell membership test are therefore free of float boundary artefacts.

The radius comes from the generating polynomial rather than a simplex scan:
the number of length-n sequences of integer energy e is the coefficient of
x^e in (sum_i x^u_i)^n.  With offsets d_i = (u_i - u_0) / g, g the gcd of
the u_i - u_0, that is the coefficient of y^j, j = (e - n*u_0) / g, in
(sum_i y^d_i)^n.  No coefficient exceeds m^n, so evaluating at y = 2^B with
B > bitlen(m^n) packs every coefficient in its own B-bit slot without
carries; one exact bigint power then yields all of them, and the radius is
where the running slot sum first reaches 2^k.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from . import kernels
from .combinatorics import DEFAULT_ALPHABET, AmplitudeAlphabet, check_k_range
from .errors import RateInfeasibleError
from .schemes import CompositionSet, LeafTable, block_energies

RADIUS_GRID_BITS = 1 << 29  # 64 MiB packed polynomial


@functools.lru_cache(maxsize=64)
def _integer_radius(n: int, k: int, alphabet: AmplitudeAlphabet) -> int:
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
    return float(_integer_radius(n, k, alphabet) * scale)


def build_ess(n: int, k: int,
              alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> CompositionSet:
    """Weight every in-sphere shell by its used-sequence count.

    Interior shells are fully used; the boundary-energy shells are consumed
    in colex order with the crossing shell partially used, so the used total
    is exactly 2^k.  Shells after the crossing keep zero weight but remain
    part of the scheme (they are inside the sphere).
    """
    units, _ = alphabet.integer_energies()
    counts = kernels.shells_upto(n, units, _integer_radius(n, k, alphabet))
    # shells_upto returns colex order, so a stable sort on energy alone
    # gives the (energy, colex) order
    counts = counts[np.argsort(block_energies(counts, n, units),
                               kind="stable")]
    used = []
    for mc in kernels.multinomials(counts, n):
        used += mc.tolist()
    # shells before the first one whose cumulative count reaches 2^k are
    # used in full, that one in part, the ones after it not at all
    need = 1 << k
    cumulative = list(accumulate(used))
    cross = bisect_left(cumulative, need)
    before = cumulative[cross - 1] if cross else 0
    del cumulative
    used[cross:] = [need - before] + [0] * (len(used) - cross - 1)
    leaves = LeafTable(
        counts=counts,
        weights=(np.array(used, dtype=object) / need).astype(np.float64),
        used_counts=used)
    del used  # the table holds its own tuple
    built = CompositionSet(scheme="ess", n=n, k=k, alphabet=alphabet,
                           leaves=leaves)
    built.validate()
    return built
