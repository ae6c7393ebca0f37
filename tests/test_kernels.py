"""Oracle tests of the exact kernels against brute force at small n.

Each kernel is checked against an independent enumeration by
``itertools.product``: of all m^n level sequences (ranked for the rank
walks by oracles.level_split_rank), or of all count vectors in a box, for
alphabets of m = 2 to 4 levels.  Compositions without a box come from stars
and bars, so the shell walk is also checked at m = 5 and 8.  The column
kernel multinomials is checked against the scalar mc_counts row by row, and
the batch kernel binomials against math.comb, on both sides of
MAX_TABLE_N.
"""

import gc
import hashlib
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
from dmshape.errors import BinomialBudgetError, RateInfeasibleError
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


def split_rows(n):
    """Compositions of n into 3 levels: all of n in each level, an uneven
    split, and one whose first binomial is read as C(r, r - c)."""
    return [[n, 0, 0], [0, n, 0], [0, 0, n],
            [n - n // 3 - n // 5, n // 3, n // 5], [n - 2, 1, 1]]


@settings(max_examples=200, deadline=None)
@given(count_matrices(), st.sampled_from([1, 2, 3, 5, kernels.CHUNK]),
       st.booleans())
# the largest binomial a valid scheme can ask for, comb(2^16, 2^15)
@example((MAX_BLOCK_LENGTH, 2, [[HALF, HALF], [0, MAX_BLOCK_LENGTH]]), 1,
         False)
# the largest n whose binomials are read from the table, and the smallest
# whose binomials are formed
@example((kernels.MAX_TABLE_N, 3, split_rows(kernels.MAX_TABLE_N)), 2, False)
@example((kernels.MAX_TABLE_N + 1, 3, split_rows(kernels.MAX_TABLE_N + 1)), 2,
         False)
def test_multinomials_equal_mc_counts(case, chunk, formed):
    # formed: every n takes the path above MAX_TABLE_N
    n, m, rows = case
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    bound = -1 if formed else kernels.MAX_TABLE_N
    with mock.patch.object(kernels, "CHUNK", chunk), \
            mock.patch.object(kernels, "MAX_TABLE_N", bound):
        blocks = list(kernels.multinomials(matrix, n))
    assert all(0 < len(block) <= chunk for block in blocks)
    got = [x for block in blocks for x in block.tolist()]
    assert all(type(x) is int for x in got)
    assert got == [kernels.mc_counts(row) for row in rows]


@st.composite
def binomial_arrays(draw):
    """(n, r, a): int64 arrays r and a of one 2-D shape, maybe empty, with
    0 <= a <= r <= n; a runs over 0, r and either side of r // 2."""
    n = draw(st.one_of(st.integers(0, 80), st.sampled_from(
        [kernels.MAX_TABLE_N, kernels.MAX_TABLE_N + 1])))
    shape = draw(st.tuples(st.integers(0, 4), st.integers(0, 5)))
    rs = draw(st.lists(st.integers(0, n), min_size=shape[0] * shape[1],
                       max_size=shape[0] * shape[1]))
    a = [draw(st.one_of(st.sampled_from([0, r]), st.integers(0, r)))
         for r in rs]
    return (n, np.array(rs, dtype=np.int64).reshape(shape),
            np.array(a, dtype=np.int64).reshape(shape))


@settings(max_examples=300, deadline=None)
@given(binomial_arrays(), st.booleans())
@example((kernels.MAX_TABLE_N, np.array([[512, 511], [300, 0]]),
          np.array([[256, 300], [299, 0]])), False)
@example((kernels.MAX_TABLE_N + 1, np.array([[513, 513], [400, 1]]),
          np.array([[256, 257], [0, 1]])), False)
@example((9, np.zeros((0, 3), dtype=np.int64),
          np.zeros((0, 3), dtype=np.int64)), True)
def test_binomials_equal_comb(case, formed):
    # formed: every n takes the path above MAX_TABLE_N.  A second call of
    # one pass reads what the first formed, and gives the same values
    n, r, a = case
    bound = -1 if formed else kernels.MAX_TABLE_N
    want = [[math.comb(x, y) for x, y in zip(rr, aa)]
            for rr, aa in zip(r.tolist(), a.tolist())]
    with mock.patch.object(kernels, "MAX_TABLE_N", bound):
        binomial = kernels.binomials(n)
        for _ in range(2):
            got = binomial(r, a)
            assert got.dtype == object and got.shape == r.shape
            assert got.tolist() == want
            assert all(type(x) is int for x in got.ravel().tolist())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, MAX_BLOCK_LENGTH).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, r // 2), st.booleans())),
    min_size=1, max_size=40))
@example([(MAX_BLOCK_LENGTH, HALF, False), (MAX_BLOCK_LENGTH, 1, True),
          (0, 0, False)])
def test_binomial_work_is_elementwise(cases):
    # over arrays, each entry is the work of its own (r, a), by the rule in
    # integers: b = min(r, a * (bits(r) - bits(a) + 3)), then 2 * b stepped
    # or a * isqrt(b * isqrt(b)) from comb
    r, a, stepped = map(np.array, zip(*cases))
    want = []
    for x, y, step in cases:
        b = min(x, y * (x.bit_length() - y.bit_length() + 3))
        want.append(2 * b if step else y * math.isqrt(b * math.isqrt(b)))
    assert kernels.binomial_work(r, a, stepped).tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, r // 2))))
@example((MAX_BLOCK_LENGTH, HALF))
@example((MAX_BLOCK_LENGTH, 1))
def test_binomial_work_bounds_the_bits(case):
    # the work is a * b^0.75 from comb and 2 * b a step (from C(r, a - 1),
    # so a > 0), with b no less than the binomial's bits
    r, a = case
    bits = math.comb(r, a).bit_length()
    assert a * math.isqrt(bits * math.isqrt(bits)) <= \
        kernels.binomial_work(r, a)
    assert a == 0 or 2 * bits <= kernels.binomial_work(r, a, stepped=True)


def test_multinomial_pass_steps_and_is_refused_before_forming(monkeypatch):
    # three blocks of one pass above the table: C(n, h - 1) comes from comb;
    # C(n, h), asked for as C(n, n - h), is one step from it; C(n, h - 2),
    # whose neighbour below is not held, would come from comb but passes
    # the budget, and is refused before comb forms it
    n = kernels.MAX_TABLE_N + 8
    h = n // 2
    formed = []

    def comb(r, a):
        formed.append((r, a))
        return math.comb(r, a)

    monkeypatch.setattr(kernels, "comb", comb)
    monkeypatch.setattr(kernels, "MAX_BINOMIAL_WORK", (
        kernels.binomial_work(n, h - 1)
        + kernels.binomial_work(n, h, stepped=True)
        + kernels.binomial_work(n, h - 2) - 1))
    block_multinomials = kernels.multinomial_blocks(n)
    assert block_multinomials(np.array([[h - 1, n - h + 1]])).tolist() == [
        math.comb(n, h - 1)]
    assert block_multinomials(np.array([[n - h, h], [h - 1, n - h + 1]])
                              ).tolist() == [math.comb(n, h),
                                             math.comb(n, h - 1)]
    with pytest.raises(BinomialBudgetError, match=(
            f"^the multinomials at n={n} need more binomial work than "
            f"MAX_BINOMIAL_WORK={kernels.MAX_BINOMIAL_WORK}$")):
        block_multinomials(np.array([[h - 2, n - h + 2]]))
    assert formed == [(n, h - 1)]


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
    table = kernels.binomial_table(n)
    assert table.dtype == object and table.shape == (n // 2 + 1, n + 1)
    assert table.tolist() == cols


def test_multinomials_read_the_table_up_to_its_bound(monkeypatch):
    # n = MAX_TABLE_N reads its binomials from binomial_table, one more
    # forms them, and both equal mc_counts there
    read = []
    table = kernels.binomial_table
    monkeypatch.setattr(kernels, "binomial_table",
                        lambda n: read.append(n) or table(n))
    for n in (kernels.MAX_TABLE_N, kernels.MAX_TABLE_N + 1):
        rows = split_rows(n)
        got = kernels.multinomial_blocks(n)(np.array(rows, dtype=np.uint16))
        assert got.tolist() == [kernels.mc_counts(row) for row in rows]
    assert read == [kernels.MAX_TABLE_N]


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


def test_pair_list_payload_pass_holds_one_chunk():
    # the walk forms its payloads one CHUNK of rows at a time: its peak above
    # the array it returns read 864 KB (~211 bytes a row of one CHUNK: the
    # products A*X, their bit lengths and their index and object arrays),
    # and 4.6 MB with a CHUNK past the 20,731 rows, when they are formed as
    # one column; the bound leaves 42% headroom over 864 KB
    c0 = (105, 70, 31, 10)
    pmin = kernels.mc_counts(c0).bit_length() - 1 - 40
    kernels.pair_list(c0, pmin)  # warm-up: caches and free lists
    tracemalloc.start()
    try:
        pairs = kernels.pair_list(c0, pmin)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 20731
    assert peak - retained < 300 * kernels.CHUNK


def test_pair_list_above_the_table_holds_one_chunk():
    # above MAX_TABLE_N (n=600) each push and each payload flush forms its
    # binomials in a pass of its own: the peak above the array returned read
    # 1.35 MB, ~330 bytes a row of one CHUNK, and 3.1 MB with one pass for
    # the whole walk, whose binomials are held to its end
    c0 = (281, 195, 93, 31)
    assert sum(c0) > kernels.MAX_TABLE_N
    pmin = kernels.mc_counts(c0).bit_length() - 1 - 40
    kernels.pair_list(c0, pmin)  # warm-up: caches and free lists
    tracemalloc.start()
    try:
        pairs = kernels.pair_list(c0, pmin)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 82907
    assert peak - retained < 500 * kernels.CHUNK


# sha256 of the counts and payload columns' bytes of the pair arrays of two
# targets past the reference: 4 levels at n=432, and 256-QAM amplitudes at
# n=56 (one level empty), each at mpdm.min_pair_payload
SCALE_PAIRS = {
    (211, 140, 62, 19): (
        652, 50222,
        "a79d9a92dc03640df4c7a6907a6516bda6f1fb347d737a652d00242c6bbd444d",
        "ec73a9d32ac7a259484891d49a207d328d6eda7c2f986d5e96f1f731fd4d7c14"),
    (17, 14, 11, 7, 4, 2, 1, 0): (
        80, 558016,
        "f55c5b3fa87ad3219327bc39f3156e381695bdb7916961cc7460ea2f9d8a4dad",
        "76e08d908934866e30d7b47c6ac5b787de2dd1a717372741834d5e943b3b9388"),
}


@pytest.mark.parametrize("c0", sorted(SCALE_PAIRS))
def test_pair_list_pinned_at_scale(c0):
    pmin, size, counts_sha, payload_sha = SCALE_PAIRS[c0]
    pairs = kernels.pair_list(c0, pmin)
    assert len(pairs) == size
    assert hashlib.sha256(pairs["counts"].tobytes()).hexdigest() == counts_sha
    assert hashlib.sha256(pairs["payload"].tobytes()).hexdigest() == \
        payload_sha


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
