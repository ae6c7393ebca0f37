"""Oracle tests of the exact kernels against brute force at small n.

Each kernel is checked against an independent enumeration by
``itertools.product``: of all m^n level sequences (ranked for the rank
walks by oracles.level_split_rank), or of all count vectors in a box, for
alphabets of m = 2 to 4 levels.  Compositions without a box come from stars
and bars, so the shell walk is also checked at m = 5 and 8.  The column
kernel multinomials is checked against the scalar mc_counts row by row.
"""

import gc
import itertools
import math
import random
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmshape import kernels
from dmshape.errors import RateInfeasibleError
from dmshape.schemes import MAX_BLOCK_LENGTH

from oracles import level_split_rank, pair_triples

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
    """All compositions of n into m parts inside the box, colex order.

    With no box they come from stars and bars (m-1 bars among n+m-1 slots),
    not from the (n+1)^m product, so m=8 stays cheap.
    """
    if box is None:
        comps = (tuple(b - a - 1 for a, b in zip((-1,) + bars,
                                                  bars + (n + m - 1,)))
                 for bars in itertools.combinations(range(n + m - 1), m - 1))
    else:
        comps = (c for c in itertools.product(*(range(b + 1) for b in box))
                 if sum(c) == n)
    return sorted(comps, key=lambda c: c[::-1])


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


@st.composite
def count_matrices(draw):
    """(n, m, rows): compositions of n into m levels, among them rows with
    zero counts and rows holding all of n in one level."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(0, 60))

    def composition():
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1,
                                    max_size=m - 1)))
        return [b - a for a, b in zip([0] + cuts, cuts + [n])]

    def one_level():
        level = draw(st.integers(0, m - 1))
        return [n if j == level else 0 for j in range(m)]

    picks = draw(st.lists(st.booleans(), max_size=12))
    return n, m, [one_level() if pick else composition() for pick in picks]


HALF = MAX_BLOCK_LENGTH // 2


@settings(max_examples=200, deadline=None)
@given(count_matrices(), st.sampled_from([1, 2, 3, 5, kernels.CHUNK]))
# the largest binomial a valid scheme can ask for, comb(2^16, 2^15)
@example((MAX_BLOCK_LENGTH, 2, [[HALF, HALF], [0, MAX_BLOCK_LENGTH]]), 1)
def test_multinomials_equal_mc_counts(case, chunk):
    n, m, rows = case
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    with mock.patch.object(kernels, "CHUNK", chunk):
        blocks = list(kernels.multinomials(matrix, n))
    assert all(0 < len(block) <= chunk for block in blocks)
    got = [x for block in blocks for x in block.tolist()]
    assert all(type(x) is int for x in got)
    assert got == [kernels.mc_counts(row) for row in rows]


@pytest.mark.parametrize("n,m", SIZES)
def test_cc_rank_unrank_all_ranks(n, m):
    perms = defaultdict(list)  # composition -> its arrangements, ranked
    for seq in sequences(n, m):
        perms[composition(seq, m)].append(seq)
    for counts, arrangements in perms.items():
        arrangements.sort(key=lambda seq: level_split_rank(seq, counts))
        assert [level_split_rank(seq, counts) for seq in arrangements] == \
            list(range(len(arrangements)))
        for rank, seq in enumerate(arrangements):
            assert kernels.cc_unrank(rank, counts) == list(seq)
            assert kernels.cc_rank(seq, counts) == rank
        with pytest.raises(ValueError):
            kernels.cc_unrank(len(arrangements), counts)


@st.composite
def ranked_compositions(draw):
    """(counts, index): a composition over 2 to 5 levels and one of its
    ranks."""
    counts = tuple(draw(st.lists(st.integers(0, 15), min_size=2,
                                 max_size=5)))
    return counts, draw(st.integers(0, kernels.mc_counts(counts) - 1))


@settings(max_examples=200, deadline=None)
@given(ranked_compositions())
def test_table_and_walk_give_one_order(case):
    counts, index = case
    seq = kernels.cc_unrank(index, counts)
    assert kernels.cc_rank(seq, counts) == index
    with mock.patch.object(kernels, "MAX_TABLE_N", 0):
        assert kernels.cc_unrank(index, counts) == seq
        assert kernels.cc_rank(seq, counts) == index


def test_table_serves_up_to_its_bound(monkeypatch):
    # n = MAX_TABLE_N ranks through the table, one more through the walk
    # alone, and both agree with the oracle there
    built = []
    table = kernels.binomial_columns
    monkeypatch.setattr(kernels, "binomial_columns",
                        lambda n: built.append(n) or table(n))
    rng = random.Random(21)
    for n in (kernels.MAX_TABLE_N, kernels.MAX_TABLE_N + 1):
        counts = (n - n // 3 - n // 5, n // 3, n // 5)
        index = rng.randrange(kernels.mc_counts(counts))
        seq = kernels.cc_unrank(index, counts)
        assert level_split_rank(seq, counts) == index
        assert kernels.cc_rank(seq, counts) == index
    assert built == [kernels.MAX_TABLE_N] * 2


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_binomial_columns(n):
    cols = kernels.binomial_columns(n)
    assert len(cols) == n // 2 + 1
    assert cols == [[math.comb(p, a) for p in range(n + 1)]
                    for a in range(n // 2 + 1)]


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


def in_cap(n, units, cap):
    return [list(c) for c in compositions(n, len(units))
            if energy(c, units) <= cap]


@pytest.mark.parametrize("n,m", SIZES)
def test_shells_upto(n, m):
    for units in ENERGIES[m]:
        levels = {energy(c, units) for c in compositions(n, m)}
        for cap in sorted(levels | {n * min(units) - 1}):
            got = kernels.shells_upto(n, units, cap)
            assert got.dtype == np.int64
            assert got.tolist() == in_cap(n, units, cap)
        below = kernels.shells_upto(n, units, n * min(units) - 1)
        assert below.shape == (0, m)


@settings(max_examples=150, deadline=None)
@given(units=st.sampled_from([2, 3, 4, 5, 8]).flatmap(
           lambda m: st.lists(st.integers(0, 60), min_size=m, max_size=m,
                              unique=True).map(sorted)),
       n=st.integers(0, 9), data=st.data())
def test_shells_upto_any_levels(units, n, data):
    cap = data.draw(st.integers(n * units[0] - 3, n * units[-1] + 3))
    want = in_cap(n, units, cap)
    got = kernels.shells_upto(n, units, cap)
    assert got.shape == (len(want), len(units))
    assert got.tolist() == want


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
    assert pair_triples(c0, kernels.pair_list(c0, pmin)) == want
    assert kernels.pair_capacity(c0, pmin) == sum(2 << p for _, _, p in want)


@pytest.mark.parametrize("c0", [(5, 3, 2, 1), (3, 2, 1)])
def test_pair_list_walks_any_number_of_levels(c0):
    # levels past the recursion limit: the walk keeps its own stack.  Zero
    # levels on top box every member to zero there, so the pairs are c0's
    # own, each padded with those zeros
    pad = (0,) * 1100
    assert pair_triples(c0 + pad, kernels.pair_list(c0 + pad, 0)) == [
        (c + pad, cb + pad, p)
        for c, cb, p in pair_triples(c0, kernels.pair_list(c0, 0))]


def test_pair_list_budget(monkeypatch):
    # the walk refuses the pair past MAX_MPDM_PAIRS, not the last one
    c0 = (5, 3, 2, 1)
    want = pair_triples(c0, kernels.pair_list(c0, 0))
    monkeypatch.setattr(kernels, "MAX_MPDM_PAIRS", len(want))
    assert pair_triples(c0, kernels.pair_list(c0, 0)) == want
    monkeypatch.setattr(kernels, "MAX_MPDM_PAIRS", len(want) - 1)
    with pytest.raises(RateInfeasibleError) as info:
        kernels.pair_list(c0, 0)
    assert str(info.value) == (
        "the MPDM pairs around (5, 3, 2, 1) number more than "
        f"MAX_MPDM_PAIRS={len(want) - 1}")


def test_pair_list_memory_is_columnar():
    # a pair is a row of one structured array: m uint8 counts and an int32
    # payload, 8 bytes at m=4, where a list of three tuples kept ~237
    c0 = (105, 70, 31, 10)
    pmin = kernels.mc_counts(c0).bit_length() - 1 - 40
    kernels.pair_list(c0, pmin)  # warm-up: caches and free lists
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = kernels.pair_list(c0, pmin)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pairs) == 20731
    assert pairs["counts"].dtype == np.uint8
    assert retained / len(pairs) < 24


def test_shells_upto_budget(monkeypatch):
    # the running count refuses the row past MAX_ESS_SHELLS, not the last one
    units = (1, 9, 25, 49)
    want = in_cap(6, units, 150)
    monkeypatch.setattr(kernels, "MAX_ESS_SHELLS", len(want))
    assert kernels.shells_upto(6, units, 150).tolist() == want
    monkeypatch.setattr(kernels, "MAX_ESS_SHELLS", len(want) - 1)
    with pytest.raises(RateInfeasibleError) as info:
        kernels.shells_upto(6, units, 150)
    assert str(info.value) == (
        "the ESS ball at n=6 over 4 levels holds more than "
        f"MAX_ESS_SHELLS={len(want) - 1} shells")


def test_pair_walk_frees_its_list(monkeypatch):
    # a walk leaves nothing for the cyclic collector: its array is freed
    # when the last reference goes, and the cached array pair_capacity
    # replaces at once; the shell walk frees its lists whether it returns or
    # is refused
    gc.collect()
    gc.disable()
    try:
        kernels.pair_list((5, 3, 2, 1), 0)
        assert gc.collect() == 0
        kernels.pair_capacity((5, 3, 2, 1), 0)
        kernels.pair_capacity((4, 4, 2, 1), 0)
        assert gc.collect() == 0
        kernels.shells_upto(12, (1, 9, 25, 49), 200)
        assert gc.collect() == 0
        monkeypatch.setattr(kernels, "MAX_ESS_SHELLS", 3)
        try:
            kernels.shells_upto(12, (1, 9, 25, 49), 200)
        except RateInfeasibleError:
            pass
        else:
            pytest.fail("the budget did not refuse the walk")
        assert gc.collect() == 0
    finally:
        gc.enable()


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
