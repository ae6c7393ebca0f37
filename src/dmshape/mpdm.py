"""Pairwise multi-composition scheme around a Maxwell-Boltzmann target.

Every used composition C comes with its complement 2*C0 - C so that each
full pair averages exactly to the target C0; both members carry the same
payload, which keeps the scheme's average PMF pinned to the target's.  The
pair population is every complement pair whose payload (the smaller member
capacity) is within PAIR_WINDOW_BITS of the target's own bit count.

The prefix tree is depth-balanced: all items operate at the smallest
payload cap that still reaches 2^k addresses, which spreads the input space
over the whole pair population instead of a handful of top pairs, and the
greedy exact cover then trims the boundary class.  Tree depths follow as
k - payload.

Target selection prunes with two exact bounds before any pair scan; a
candidate whose singleton plus either bound stays below 2^k cannot be
feasible and is skipped.  A pair of payload p adds 2 * 2^p addresses, and
2^p <= min(MC(C), MC(C')) <= sqrt(MC(C) * MC(C')) with C' = 2*C0 - C.

- Box bound (cheap, run on every candidate).  Factorials are log-convex,
  so c!*(2a-c)! >= a!^2 and hence MC(C)*MC(C') <= MC(C0)^2: no pair payload
  exceeds k0 = bits(C0).  Every pair member lies in the box
  0 <= c_i <= min(2*c0_i, n), and the complement map pairs up that box's B
  compositions around its one fixed point C0, so the pairs supply at most
  (B-1) * 2^k0 addresses.
- Geometric-mean bound (tighter, run on the box bound's survivors).
  With d = C - C0, MC(C)*MC(C') = MC(C0)^2 * prod_i r_i(d_i) where
  r_i(d) = c0_i!^2 / ((c0_i+d)! (c0_i-d)!), so summing sqrt(MC(C)*MC(C'))
  over the box factorises over the levels under sum(d) = 0: a short
  convolution, done in fixed point with every factor rounded up.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate
from operator import add, sub

import numpy as np

from . import kernels
from .ccdm import mb_composition_chain
from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    Counts,
    check_k_range,
    input_bits,
)
from .errors import RateInfeasibleError
from .schemes import (
    CompositionSet,
    exact_cover,
    smallest_feasible_cap,
    tree_scheme,
)

PAIR_WINDOW_BITS = 40


def min_pair_payload(c0: Counts) -> int:
    return max(0, input_bits(c0) - PAIR_WINDOW_BITS)


def enumerate_pairs(c0: Counts, min_payload: int) -> np.ndarray:
    """Every complement pair {C, 2*C0-C} with payload >= min_payload.

    kernels.pair_list's read-only array, a row per unordered pair: the
    colex-smaller member C != C0 in ``counts`` (2*C0-C is derived) and the
    smaller member input bits in ``payload``; scanned_pairs' own array.
    """
    return kernels.scanned_pairs(tuple(c0), min_payload)


@functools.lru_cache(maxsize=1024)
def _box_count(c0: Counts) -> int:
    """Compositions of sum(c0) with 0 <= c_i <= min(2*c0_i, sum(c0))."""
    n = sum(c0)
    ways = [1] + [0] * n  # ways[s]: prefixes of the levels seen so far summing to s
    for a in c0:
        cap = min(2 * a, n)
        # ways[s] becomes prefix[s + 1] - prefix[s - cap], where prefix[i]
        # is the sum of ways[:i] and the second term is 0 while s <= cap
        prefix = list(accumulate(ways, initial=0))
        ways = list(map(sub, prefix[1:],
                        [0] * (cap + 1) + prefix[1:n - cap + 1]))
    return ways[n]


def _pair_space_bound(c0: Counts) -> int:
    """Upper bound on _pair_space(c0): (B - 1) pair members at <= 2^k0 each."""
    return (_box_count(tuple(c0)) - 1) << input_bits(c0)


_FIXED_BITS = 64  # fraction bits of each rounded-up sqrt(r_i(d)) factor


@functools.lru_cache(maxsize=1024)
def _pair_space_gm_bound(c0: Counts) -> int:
    """Upper bound on _pair_space(c0): sum over the box of sqrt(MC(C)*MC(C')).

    The sum over the d with sum(d) = 0 is the s = 0 entry of the levels'
    convolution.  Levels 1 .. m-1 are convolved, one shifted row of products
    per entry, and level 0's factors meet the result in one dot product at
    s = 0, so the widest convolution is never formed.
    """
    n = sum(c0)
    one_sq = 1 << (2 * _FIXED_BITS)

    def factors(a: int) -> tuple[range, list[int]]:
        """The d of a level with count a, and its fixed-point factors."""
        fa2 = math.factorial(a) ** 2
        ds = range(-a, min(a, n - a) + 1)
        # isqrt(floor(x)) + 1 > sqrt(x), so each factor rounds up
        return ds, [math.isqrt(one_sq * fa2 // (math.factorial(a + d)
                                                * math.factorial(a - d))) + 1
                    for d in ds]

    low, sums = 0, [1]  # sums[i]: fixed-point sum of products at s = low + i
    for a in c0[1:]:
        ds, us = factors(a)
        nxt = [0] * (len(sums) + len(us) - 1)
        for i, v in enumerate(sums):
            row = slice(i, i + len(us))
            nxt[row] = map(add, nxt[row], map(v.__mul__, us))
        low, sums = low + ds.start, nxt
    ds, us = factors(c0[0])
    total = sum(u * sums[-d - low] for d, u in zip(ds, us)
                if 0 <= -d - low < len(sums))
    total *= kernels.mc_counts(tuple(c0))
    return -(-total >> (_FIXED_BITS * len(c0)))  # ceiling


@functools.lru_cache(maxsize=1024)
def _pair_space(c0: Counts) -> int:
    """Total pair address space in the payload window around c0 (cached, so a
    second build at k+1 scans no box again)."""
    return kernels.pair_capacity(c0, min_pair_payload(c0))


def select_mpdm_target(n: int, k: int,
                       alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> Counts:
    """Most-shaped MB-family target whose pair-augmented space reaches 2^k.

    Sweeps the quantised MB chain from the largest shaping parameter down
    and returns the first composition where the singleton plus all pairs in
    the payload window supply at least 2^k addresses.  Candidates that the
    bounds in the module docstring prove short are never scanned.
    """
    check_k_range(n, k, alphabet.m)
    need = 1 << k
    for _, comp in mb_composition_chain(n, alphabet):
        singleton = 1 << min(input_bits(comp), k)
        if singleton + _pair_space_bound(comp) < need \
                or singleton + _pair_space_gm_bound(comp) < need:
            continue
        if singleton + _pair_space(comp) >= need:
            return comp
    raise RateInfeasibleError(f"no MPDM target reaches k={k} at n={n}")


def assemble_tree(target: Counts, pairs: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Depth-balanced exact cover over the singleton and its pairs, the
    array of enumerate_pairs.

    Returns the leaves' count matrix and payloads in take order, each pair's
    canonical member before its complement; the target keeps a leaf whenever
    anything is taken, and every retained pair keeps both members at equal
    payload, so the average PMF equals the target's exactly.
    """
    single = np.array([(target, min(input_bits(target), k))], pairs.dtype)
    items = np.concatenate((single, pairs))
    mult = np.repeat(np.uint8([1, 2]), [1, len(pairs)])  # members per item
    cap = smallest_feasible_cap(items["payload"], mult, k)
    taken, paid = exact_cover(items["counts"], items["payload"], mult, k,
                              payload_cap=cap)
    times = mult[taken]
    counts = np.repeat(items["counts"][taken], times, axis=0)
    second = np.cumsum(times)[times == 2] - 1  # each pair's complement row
    counts[second] = 2 * np.array(target) - counts[second]
    return counts, np.repeat(paid, times)


def build_mpdm(n: int, k: int,
               alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> CompositionSet:
    target = select_mpdm_target(n, k, alphabet)
    pairs = enumerate_pairs(target, min_pair_payload(target))
    return tree_scheme("mpdm", n, k, alphabet,
                       *assemble_tree(target, pairs, k))
