"""Oracle tests of the exact kernels against brute force at small n.

Each kernel is checked against an independent enumeration by
``itertools.product``: of all m^n level sequences (which it yields in
lexicographic order), or of all count vectors in a box, for alphabets of
m = 2 to 4 levels.
"""

import itertools
import math
from collections import defaultdict

import pytest

from dmshape import kernels

# (n, m) with m^n <= 4096, so every sequence can be listed
SIZES = [(1, 2), (5, 2), (10, 2), (1, 3), (4, 3), (7, 3), (1, 4), (3, 4),
         (6, 4)]
ENERGIES = {2: [(1, 9), (2, 5)], 3: [(1, 9, 25), (2, 5, 11)],
            4: [(1, 9, 25, 49), (1, 4, 4, 9)]}


def sequences(n, m):
    return list(itertools.product(range(m), repeat=n))


def composition(seq, m):
    return tuple(seq.count(i) for i in range(m))


def compositions(n, m, box=None):
    """All compositions of n into m parts inside the box, colex order."""
    box = box or (n,) * m
    comps = itertools.product(*(range(b + 1) for b in box))
    return sorted((c for c in comps if sum(c) == n), key=lambda c: c[::-1])


def multinomial(counts):
    r = math.factorial(sum(counts))
    for c in counts:
        r //= math.factorial(c)
    return r


def energy(counts, units):
    return sum(c * u for c, u in zip(counts, units))


def test_backend_name():
    assert kernels.backend_name() == "pure"


@pytest.mark.parametrize("n,m", SIZES)
def test_mc_counts(n, m):
    for counts in compositions(n, m):
        assert kernels.mc_counts(counts) == multinomial(counts)


@pytest.mark.parametrize("n,m", SIZES)
def test_cc_rank_unrank_all_ranks(n, m):
    perms = defaultdict(list)  # composition -> its arrangements, sorted
    for seq in sequences(n, m):
        perms[composition(seq, m)].append(seq)
    for counts, arrangements in perms.items():
        for rank, seq in enumerate(arrangements):
            assert kernels.cc_unrank(rank, counts) == list(seq)
            assert kernels.cc_rank(seq, counts) == rank
        with pytest.raises(ValueError):
            kernels.cc_unrank(len(arrangements), counts)


def test_cc_rank_rejects_foreign_sequence():
    with pytest.raises(ValueError):
        kernels.cc_rank((1, 1, 0), (2, 1))


@pytest.mark.parametrize("n,m", SIZES)
def test_energy_totals(n, m):
    for units in ENERGIES[m]:
        want = [0] * (n * max(units) + 1)
        for seq in sequences(n, m):
            want[sum(units[s] for s in seq)] += 1
        want_comp = [0] * len(want)
        for counts in compositions(n, m):
            want_comp[energy(counts, units)] += 1
        assert kernels.energy_totals(n, units) == (want, want_comp)


def test_simplex_totals_are_m_to_n():
    totals, ncomp = kernels.energy_totals(7, (1, 9, 25))
    assert sum(totals) == 3 ** 7
    assert sum(ncomp) == 36  # C(9, 2)


@pytest.mark.parametrize("n,m", SIZES)
def test_shells_upto(n, m):
    for units in ENERGIES[m]:
        levels = {energy(c, units) for c in compositions(n, m)}
        for cap in sorted(levels | {n * min(units) - 1}):
            want = [(c, energy(c, units), multinomial(c))
                    for c in compositions(n, m) if energy(c, units) <= cap]
            assert kernels.shells_upto(n, units, cap) == want


@pytest.mark.parametrize("c0", [(4, 2), (3, 3), (3, 2, 1), (2, 2, 2),
                                (5, 3, 2, 1), (2, 1, 1, 2)])
@pytest.mark.parametrize("pmin", [0, 1, 3])
def test_pair_list_and_capacity(c0, pmin):
    n, m = sum(c0), len(c0)
    want = []
    for c in compositions(n, m, box=[min(2 * a, n) for a in c0]):
        cb = tuple(2 * a - b for a, b in zip(c0, c))
        if c == c0 or c[::-1] >= cb[::-1]:
            continue
        p = min(multinomial(c).bit_length(), multinomial(cb).bit_length()) - 1
        if p >= pmin:
            want.append((c, cb, p))
    assert kernels.pair_list(c0, pmin) == want
    assert kernels.pair_capacity(c0, pmin) == sum(2 << p for _, _, p in want)


@pytest.mark.parametrize("n,deltas", [(10, (0, 4)), (5, (0, 1)),
                                      (7, (0, 2, 3)), (4, (0, 1, 3, 6)),
                                      (6, (0, 1, 3, 6))])
def test_trellis_and_ess_codec(n, deltas):
    m = len(deltas)
    width = n * deltas[-1] // 2
    table = kernels.trellis_build(n, deltas, width)
    for i in range(n + 1):
        tails = [sum(deltas[s] for s in seq) for seq in sequences(n - i, m)]
        assert table[i] == [sum(t <= w for t in tails)
                            for w in range(width + 1)]
    ball = [seq for seq in sequences(n, m)
            if sum(deltas[s] for s in seq) <= width]
    assert table[0][width] == len(ball)
    for rank, seq in enumerate(ball):
        assert kernels.ess_unrank(rank, n, deltas, width, table) == list(seq)
        assert kernels.ess_rank(seq, n, deltas, width, table) == rank
    with pytest.raises(ValueError):
        kernels.ess_unrank(len(ball), n, deltas, width, table)
    with pytest.raises(ValueError):
        kernels.ess_rank((m - 1,) * n, n, deltas, width, table)
