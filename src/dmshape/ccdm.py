"""Constant-composition scheme: Maxwell-Boltzmann target selection.

The target composition is the n-type quantisation of a Maxwell-Boltzmann
PMF over the amplitude alphabet.  The shaping parameter is swept from the
most-shaped end (largest lambda, lowest entropy) downwards on a fine fixed
grid, and the first composition that carries the requested number of input
bits wins.  Feasibility is not monotone in lambda at quantisation
boundaries, which is why a sweep over the grid replaces naive bisection:
the sweep returns the largest feasible grid point by construction.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    Counts,
    Pmf,
    check_k_range,
    float_sum,
    input_bits,
)
from .errors import RateInfeasibleError
from .kernels import chunks
from .schemes import CompositionSet, tree_scheme

LAMBDA_MAX = 2.0
LAMBDA_GRID = 1 << 16


def mb_pmf(lam: float, alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> Pmf:
    """Maxwell-Boltzmann PMF: p_i proportional to exp(-lam * level_i^2)."""
    if lam < 0:
        raise ValueError("shaping parameter must be >= 0")
    es = alphabet.energies
    w = [math.exp(-lam * (e - es[0])) for e in es]
    z = float_sum(w)
    return tuple(x / z for x in w)


def quantize_pmf(pmf, n: int) -> Counts:
    """Largest-remainder n-type approximation of a PMF.

    Start from floor(n*p_i); hand the remaining units to the entries with
    the largest remainder, ties to the lower index.  Deterministic.
    """
    scaled = [n * p for p in pmf]
    counts = [math.floor(x) for x in scaled]
    order = sorted(range(len(pmf)), key=lambda i: (-(scaled[i] - counts[i]), i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return tuple(counts)


def _quantize_grid(lam, offsets, n: int):
    """quantize_pmf(mb_pmf(lam)) for a batch of lambdas, with a certainty mask.

    A row is certain when every n*p_i is more than a margin away from a
    positive integer (so every floor agrees with the scalar path) and the
    remainders either side of the largest-remainder cut differ by more than
    the margin (so the same entries get the leftover units).  Other rows
    must be recomputed with the scalar functions.  numpy's exp and row sums
    differ from the scalar path by a few ulps, so the two values of n*p_i
    differ by less than 1e-15 * n; the margin leaves a thousandfold room.
    """
    w = np.exp(-lam[:, None] * offsets)
    scaled = n * (w / w.sum(axis=1, keepdims=True))
    floors = np.floor(scaled)
    rem = scaled - floors
    deficit = n - floors.sum(axis=1).astype(np.int64)
    order = np.argsort(-rem, axis=1, kind="stable")  # ties to the lower index
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(offsets.size)[None, :], axis=1)
    counts = floors.astype(np.int64) + (rank < deficit[:, None])

    margin = 1e-12 * max(n, 1000)
    nearest = np.rint(scaled)
    certain = ~np.any((np.abs(scaled - nearest) <= margin) & (nearest > 0), axis=1)
    ranked = np.take_along_axis(rem, order, axis=1)
    cut = np.clip(deficit, 1, offsets.size - 1)
    rows = np.arange(lam.size)
    gap = ranked[rows, cut - 1] - ranked[rows, cut]
    certain &= (deficit == 0) | (gap > margin)
    return counts, certain


@functools.lru_cache(maxsize=16)
def mb_composition_chain(n: int, alphabet: AmplitudeAlphabet) -> tuple[tuple[float, Counts], ...]:
    """Distinct quantised MB compositions for descending lambda.

    Each entry is (lambda, composition) for the largest grid lambda whose
    quantised PMF yields that composition.  The grid step (2 / 2^16) is far
    below the quantisation granularity at practical block lengths.  The grid
    is evaluated in numpy chunks of kernels.CHUNK points; rows numpy cannot
    certify go through quantize_pmf(mb_pmf(lam)), so the chain equals the
    scalar sweep exactly.
    """
    es = alphabet.energies
    offsets = np.array([e - es[0] for e in es])
    segs = []
    prev = None
    for rows in chunks(LAMBDA_GRID + 1):
        # row r is grid point LAMBDA_GRID - r: the most shaped end first
        grid = LAMBDA_GRID - np.arange(rows.start, rows.stop)
        lam = LAMBDA_MAX * grid / LAMBDA_GRID
        counts, certain = _quantize_grid(lam, offsets, n)
        for r in np.flatnonzero(~certain):
            counts[r] = quantize_pmf(mb_pmf(float(lam[r]), alphabet), n)
        changed = np.ones(lam.size, dtype=bool)
        changed[1:] = np.any(counts[1:] != counts[:-1], axis=1)
        for r in np.flatnonzero(changed):
            comp = tuple(counts[r].tolist())
            if comp != prev:
                segs.append((float(lam[r]), comp))
                prev = comp
    return tuple(segs)


def select_ccdm(n: int, k: int,
                alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> Counts:
    """Lowest-entropy MB-family composition carrying at least k input bits."""
    check_k_range(n, k, alphabet.m)
    for _, comp in mb_composition_chain(n, alphabet):
        if input_bits(comp) >= k:
            return comp
    raise RateInfeasibleError(
        f"no constant composition at n={n} carries {k} input bits")


def build_ccdm(n: int, k: int,
               alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> CompositionSet:
    """Single-leaf scheme on the selected target, operated at exactly k bits."""
    target = select_ccdm(n, k, alphabet)  # it carries at least k bits
    return tree_scheme("ccdm", n, k, alphabet, np.array([target]), [k])
