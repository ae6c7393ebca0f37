"""Exactness of the pruned build paths against the full sweeps they replace.

Each fast path must return exactly what the straightforward computation
returns: MPDM target selection with the log-convexity bound against the
unpruned pair-scan sweep, and its two bounds against plain references, the
half-box windowed pair scan against a brute-force box filter, the certified
numpy MB chain against the scalar grid sweep, the histogram cap search
against the direct sum, the ESS build against its per-shell loop and its
crossing shell against a bisection over every shell size, the
generating-polynomial ESS radius against the cumulative
kernels.energy_totals scan, the column capacity check of validate against
the leaf-by-leaf factorial product, and the chunked analyze, with its
report's float64 columns read back as Python floats and its CDF, against
the per-leaf block_moments + snr_eff reference (compared with ==, not
approx).  The reference outputs at n=216, k=349 are pinned by digest, and
the memory each step of the n=216 ESS flow allocates above what it keeps,
and what it keeps, is bounded per leaf.  Count columns are the narrowest
unsigned dtype that holds n, and validate says the same of such a column
as of its int64 twin.
"""

import bisect
import builtins
import functools
import gc
import hashlib
import itertools
import math
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dmshape as d
from dmshape import (
    ccdm,
    combinatorics,
    kernels,
    mpdm,
    nli,
    schemefile,
    schemes,
)
from dmshape.ccdm import mb_composition_chain
from dmshape.cli import _write_report, main
from dmshape.combinatorics import input_bits, integer_radius, kurtosis_of
from dmshape.errors import (
    ConstructionBugError,
    ModelDomainError,
    RateInfeasibleError,
)
from dmshape.schemefile import read_scheme, scheme_to_text, write_scheme
from dmshape.optimizer import BUILDERS
from dmshape.schemes import (
    LeafTable,
    average_pmf,
    is_tree_scheme,
    smallest_feasible_cap,
)

from oracles import (
    cover_columns,
    enumerate_compositions,
    gm_factors,
    pair_triples,
)

ALPHABETS = [
    d.AmplitudeAlphabet((1, 3)),
    d.AmplitudeAlphabet((0.5, 1.5)),  # non-unit energy scale (1/4)
    d.AmplitudeAlphabet((1, 3, 5)),
    d.DEFAULT_ALPHABET,
]

alphabets = st.sampled_from(ALPHABETS)


def max_k(n, alphabet):
    return math.floor(n * math.log2(alphabet.m))


@st.composite
def compositions(draw, max_n=12):
    alphabet = draw(alphabets)
    n = draw(st.integers(1, max_n))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=alphabet.m - 1,
                                max_size=alphabet.m - 1)))
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:])), alphabet


# -- MPDM target selection ---------------------------------------------------

def unpruned_target(n, k, alphabet):
    """The full sweep: pair-scan every chain candidate until one reaches 2^k."""
    need = 1 << k
    for _, comp in mb_composition_chain(n, alphabet):
        space = kernels.pair_capacity(comp, mpdm.min_pair_payload(comp))
        if (1 << min(input_bits(comp), k)) + space >= need:
            return comp
    return None


@settings(max_examples=40, deadline=None)
@given(alphabet=alphabets, n=st.sampled_from([6, 11]), data=st.data())
def test_pruned_target_equals_unpruned_sweep(alphabet, n, data):
    k = data.draw(st.integers(0, max_k(n, alphabet)))
    try:
        got = mpdm.select_mpdm_target(n, k, alphabet)
    except RateInfeasibleError:
        got = None
    assert got == unpruned_target(n, k, alphabet)


@settings(max_examples=150, deadline=None)
@given(compositions())
def test_pair_space_bounds_dominate(case):
    c0, alphabet = case
    # both bounds hold for every payload window, not just the default one
    full = kernels.pair_capacity(c0, 0)
    assert full >= mpdm._pair_space(c0)
    assert mpdm._pair_space_bound(c0) >= full
    # the geometric-mean bound also dominates the sum of min(MC(C), MC(C'))
    # that its proof bounds, which is looser than the payload floor
    n = sum(c0)
    min_sum = 0
    for c in enumerate_compositions(n, alphabet):
        cb = tuple(2 * a - x for a, x in zip(c0, c))
        if c != c0 and min(cb) >= 0:
            min_sum += min(kernels.mc_counts(c), kernels.mc_counts(cb))
    assert min_sum >= full
    assert mpdm._pair_space_gm_bound(c0) >= min_sum


@settings(max_examples=100, deadline=None)
@given(compositions(max_n=9))
def test_box_count_brute_force(case):
    c0, alphabet = case
    n = sum(c0)
    box = [min(2 * a, n) for a in c0]
    brute = sum(1 for c in enumerate_compositions(n, alphabet)
                if all(x <= b for x, b in zip(c, box)))
    assert mpdm._box_count(c0) == brute


def plain_box_count(c0):
    """_box_count by its definition: per level, ways[s] sums the ways of the
    levels before it over the counts 0 .. min(2*a, n) this level can add."""
    n = sum(c0)
    ways = [1] + [0] * n
    for a in c0:
        cap = min(2 * a, n)
        ways = [sum(ways[max(0, s - cap):s + 1]) for s in range(n + 1)]
    return ways[n]


def plain_gm_bound(c0):
    """_pair_space_gm_bound by the full convolution of every level's rounded
    up fixed-point factors, read at s = 0."""
    n = sum(c0)
    bits = mpdm._FIXED_BITS
    sums = {0: 1}
    for a in c0:
        factors = list(zip(*gm_factors(a, n, bits)))
        nxt = {}
        for s, v in sums.items():
            for dd, u in factors:
                nxt[s + dd] = nxt.get(s + dd, 0) + v * u
        sums = nxt
    total = kernels.mc_counts(c0) * sums[0]
    return -(-total >> (bits * len(c0)))


@st.composite
def targets(draw, max_n=30):
    """A composition of n over m = 1 .. 5 levels."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, max_n))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1,
                                max_size=m - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example((0, 0))
@example((7, 7))  # a level that holds all of n: d runs over -a .. 0
@example((1200, 2048))
def test_gm_factors_equal_factorial_form(case):
    # the factors updated along d equal those formed from fresh factorials
    a, n = case
    assert mpdm._gm_factors(a, n) == gm_factors(a, n, mpdm._FIXED_BITS)


@settings(max_examples=150, deadline=None)
@given(targets())
def test_mpdm_bounds_equal_plain_reference(c0):
    assert mpdm._box_count(c0) == plain_box_count(c0)
    assert mpdm._pair_space_gm_bound(c0) == plain_gm_bound(c0)


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_mpdm_bounds_equal_plain_reference_on_chain(alphabet):
    for _, c0 in mb_composition_chain(24, alphabet):
        assert mpdm._box_count(c0) == plain_box_count(c0)
        assert mpdm._pair_space_gm_bound(c0) == plain_gm_bound(c0)


def test_reference_scale_scans_at_most_two(monkeypatch):
    mpdm._pair_space.cache_clear()
    calls = []
    real = kernels.pair_capacity

    def counting(c0, min_payload):
        calls.append(c0)
        return real(c0, min_payload)

    monkeypatch.setattr(kernels, "pair_capacity", counting)
    assert d.select_mpdm_target(216, 349) == (105, 70, 31, 10)
    assert len(calls) <= 2


def test_two_builds_walk_two_pair_boxes(monkeypatch):
    # compare builds MPDM at k and, under opt-mpdm, at k+1: the winner's scan
    # leaves its array for enumerate_pairs, and the k+1 selection scans no box
    mpdm._pair_space.cache_clear()
    walks, calls = [], []
    real_walk, real_capacity = kernels.pair_list, kernels.pair_capacity

    def walk(c0, min_payload):
        walks.append(c0)
        return real_walk(c0, min_payload)

    def capacity(c0, min_payload):
        calls.append(c0)
        return real_capacity(c0, min_payload)

    # every walk is counted, and the one-slot cache over it starts cold
    monkeypatch.setattr(kernels, "pair_list", walk)
    monkeypatch.setattr(kernels, "scanned_pairs", functools.lru_cache(
        maxsize=1)(lambda c0, min_payload: kernels.pair_list(c0, min_payload)))
    monkeypatch.setattr(kernels, "pair_capacity", capacity)
    for k in (349, 350):
        d.build_mpdm(216, k)
    assert len(walks) == 2
    assert len(calls) == 2
    c0 = (105, 70, 31, 10)
    pmin = mpdm.min_pair_payload(c0)
    got = mpdm.enumerate_pairs(c0, pmin)
    assert len(walks) == 2
    assert len(got) == 20731
    assert pair_triples(c0, got) == pair_triples(c0, real_walk(c0, pmin))


# -- pair scan -----------------------------------------------------------------

def brute_pairs(c0, min_payload):
    """Every box point in colex order, filtered: the scan's full definition."""
    n = sum(c0)
    box = [min(2 * a, n) for a in c0]
    out = []
    for rev in itertools.product(*(range(b + 1) for b in reversed(box[1:]))):
        rest = rev[::-1]
        c = (n - sum(rest),) + rest
        if not 0 <= c[0] <= box[0]:
            continue
        cb = tuple(2 * a - x for a, x in zip(c0, c))
        if c == tuple(c0) or c[::-1] >= cb[::-1]:
            continue
        p = min(input_bits(c), input_bits(cb))
        if p >= min_payload:
            out.append((c, cb, p))
    return out


@settings(max_examples=150, deadline=None)
@given(compositions(max_n=14), st.data())
def test_pair_list_equals_box_filter(case, data):
    c0, _ = case
    pmin = data.draw(st.integers(0, input_bits(c0) + 1))
    want = brute_pairs(c0, pmin)
    assert pair_triples(c0, kernels.pair_list(c0, pmin)) == want
    assert kernels.pair_capacity(c0, pmin) == sum(2 << p for _, _, p in want)


@st.composite
def pair_cases(draw):
    """(c0, min_payload): a composition over 2, 3, 4, 5 or 8 levels, at an
    n whose box brute_pairs lists in well under a second, and a payload
    floor up to one past the most any pair carries."""
    m = draw(st.sampled_from([2, 3, 4, 5, 8]))
    n = draw(st.integers(1, {2: 30, 3: 30, 4: 30, 5: 22, 8: 12}[m]))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1,
                                max_size=m - 1)))
    c0 = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return c0, draw(st.integers(0, input_bits(c0) + 1))


@settings(max_examples=150, deadline=None)
@given(pair_cases(), st.sampled_from([1, 2, 3, kernels.CHUNK]))
# every kept member's MC is exactly 2^2, with A = 4 on its line: the
# ceil(2^p / A) boundary
@example(((1, 1, 2), 2), 1)
# no pair carries 15 bits (the box bound caps them at input_bits, 14), so
# the searches empty every line
@example(((5, 3, 2, 1), 15), kernels.CHUNK)
# the one line is tight: its interval [0, 6] stops below c0[1] = 3
@example(((3, 3), 0), 2)
def test_pair_list_equals_box_filter_from_both_binomial_sources(case, chunk):
    c0, pmin = case
    want = brute_pairs(c0, pmin)
    # the table up to MAX_TABLE_N, then the walk of every n above it
    for bound in (kernels.MAX_TABLE_N, -1):
        with mock.patch.object(kernels, "CHUNK", chunk), \
                mock.patch.object(kernels, "MAX_TABLE_N", bound):
            kernels.scanned_pairs.cache_clear()
            assert pair_triples(c0, kernels.pair_list(c0, pmin)) == want
            assert kernels.pair_capacity(c0, pmin) == sum(
                2 << p for _, _, p in want)
    kernels.scanned_pairs.cache_clear()


def test_pair_list_equals_box_filter_at_reference():
    c0 = (105, 70, 31, 10)
    got = kernels.pair_list(c0, mpdm.min_pair_payload(c0))
    assert len(got) == 20731
    assert pair_triples(c0, got) == brute_pairs(c0, mpdm.min_pair_payload(c0))


# -- MB chain ------------------------------------------------------------------

def scalar_chain(n, alphabet):
    """The full grid sweep through quantize_pmf(mb_pmf(lam)), point by point."""
    segs = []
    prev = None
    for i in range(ccdm.LAMBDA_GRID, -1, -1):
        lam = ccdm.LAMBDA_MAX * i / ccdm.LAMBDA_GRID
        comp = ccdm.quantize_pmf(ccdm.mb_pmf(lam, alphabet), n)
        if comp != prev:
            segs.append((lam, comp))
            prev = comp
    return tuple(segs)


@settings(max_examples=50, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 400),
       grid=st.sampled_from([64, 1000, 1 << 11]),
       chunk=st.sampled_from([1, 3, 7, kernels.CHUNK]))
def test_chain_equals_scalar_sweep(alphabet, n, grid, chunk):
    # a coarser grid keeps the scalar oracle cheap; both read the same grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ccdm, "LAMBDA_GRID", grid)
        mp.setattr(kernels, "CHUNK", chunk)
        assert mb_composition_chain.__wrapped__(n, alphabet) == \
            scalar_chain(n, alphabet)


@pytest.mark.parametrize("alphabet,n", [(ALPHABETS[0], 6), (ALPHABETS[1], 11),
                                        (ALPHABETS[2], 30),
                                        (d.DEFAULT_ALPHABET, 216)])
def test_chain_equals_scalar_sweep_full_grid(alphabet, n):
    assert mb_composition_chain.__wrapped__(n, alphabet) == \
        scalar_chain(n, alphabet)


def test_chain_grid_marks_exact_ties_uncertain():
    # at lam = 0 every p_i = 1/m: n*p_i = 2 exactly, and at n = 7, m = 3 the
    # remainders tie at the cut; both rows must go to the scalar path
    lam = np.array([0.0, 0.0, 0.5])
    for n, alphabet in ((6, ALPHABETS[2]), (7, ALPHABETS[2])):
        es = alphabet.energies
        offsets = np.array([e - es[0] for e in es])
        counts, certain = ccdm._quantize_grid(lam, offsets, n)
        assert not certain[0] and not certain[1]
        for r in np.flatnonzero(certain):
            assert tuple(counts[r].tolist()) == ccdm.quantize_pmf(
                ccdm.mb_pmf(float(lam[r]), alphabet), n)


def test_chain_recomputes_uncertain_rows(monkeypatch):
    # rows the grid cannot certify must come from the scalar path: corrupt
    # every third row and mark it uncertain, and the chain must not change
    real = ccdm._quantize_grid

    def corrupted(lam, offsets, n):
        counts, certain = real(lam, offsets, n)
        counts[::3] = 0
        certain[::3] = False
        return counts, certain

    monkeypatch.setattr(ccdm, "_quantize_grid", corrupted)
    monkeypatch.setattr(ccdm, "LAMBDA_GRID", 1000)
    for alphabet, n in ((ALPHABETS[0], 6), (d.DEFAULT_ALPHABET, 40)):
        assert mb_composition_chain.__wrapped__(n, alphabet) == \
            scalar_chain(n, alphabet)


# -- cap search ----------------------------------------------------------------

def direct_cap(items, k):
    """Smallest cap in 0..k whose capped total reaches 2^k, by direct sums.

    The capped total grows with the cap, so a bisection finds the smallest.
    """
    def reaches(cap):
        return sum(len(members) << min(p, cap)
                   for members, p in items) >= 1 << k

    if not reaches(k):
        return None
    lo, hi = 0, k
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid + 1, hi)
    return lo


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 12), data=st.data())
def test_histogram_cap_equals_direct_sum(k, data):
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 2),
                                          st.integers(0, k + 2)),
                                max_size=40))
    items = [(((i,),) * mult, p) for i, (mult, p) in enumerate(shapes)]
    want = direct_cap(items, k)
    _, payloads, mult = cover_columns(items)
    if want is None:
        with pytest.raises(RateInfeasibleError):
            smallest_feasible_cap(payloads, mult, k)
    else:
        assert smallest_feasible_cap(payloads, mult, k) == want


def test_histogram_cap_at_reference(mpdm216):
    target = mpdm.select_mpdm_target(216, 349)
    pairs = mpdm.enumerate_pairs(target, mpdm.min_pair_payload(target))
    items = [((target,), input_bits(target))]
    items += [((c, c_bar), p) for c, c_bar, p in pair_triples(target, pairs)]
    assert len(items) == 20732
    _, payloads, mult = cover_columns(items)
    assert smallest_feasible_cap(payloads, mult, 349) == direct_cap(items, 349)


# -- ESS build -----------------------------------------------------------------

def loop_ess(n, k, alphabet):
    """The per-shell loop: (counts, weight, used) per leaf and avg_pmf.

    The shells come from enumerate_compositions, not from the kernel scan
    build_ess uses, with each shell's size from the scalar mc_counts.
    """
    need = 1 << k
    rows = []
    avg = [0.0] * alphabet.m
    prev = 0
    units, _ = alphabet.integer_energies()
    radius = integer_radius(n, k, alphabet)

    def energy(c):
        return sum(x * u for x, u in zip(c, units))

    shells = enumerate_compositions(n, alphabet, lambda c: energy(c) <= radius)
    # colex order, stably sorted by energy
    for counts in sorted(shells, key=energy):
        mc = kernels.mc_counts(counts)
        used = min(mc, need - prev) if prev < need else 0
        prev += used
        w = used / need if used else 0.0
        rows.append((counts, w, used))
        if used:
            for i, c in enumerate(counts):
                avg[i] += w * c / n
    return rows, tuple(avg)


def ess_rows(built):
    return [(leaf.counts, leaf.weight, leaf.used_count) for leaf in built.leaves]


@settings(max_examples=60, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 24), data=st.data())
def test_build_ess_equals_shell_loop(alphabet, n, data):
    k = data.draw(st.integers(0, max_k(n, alphabet)))
    built = d.build_ess(n, k, alphabet)
    rows, avg = loop_ess(n, k, alphabet)
    assert ess_rows(built) == rows
    assert built.avg_pmf == avg


def test_build_ess_equals_shell_loop_at_reference(ess216):
    rows, avg = loop_ess(216, 349, d.DEFAULT_ALPHABET)
    assert ess_rows(ess216) == rows
    assert ess216.avg_pmf == avg


def bisect_used(counts, k):
    """Used counts by the whole-column rule: every shell's size accumulated,
    and the shell where the total reaches 2^k found by bisection."""
    need = 1 << k
    sizes = [kernels.mc_counts(c) for c in counts.tolist()]
    cumulative = list(itertools.accumulate(sizes))
    cross = bisect.bisect_left(cumulative, need)
    before = cumulative[cross - 1] if cross else 0
    return sizes[:cross] + [need - before] + [0] * (len(sizes) - cross - 1)


@settings(max_examples=100, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 24), data=st.data(),
       chunk=st.sampled_from([1, 3, 4096]))
def test_build_ess_crossing_equals_bisect_reference(alphabet, n, data, chunk):
    # chunks of 1 and 3 shells put the crossing shell first, last and
    # inside a chunk, and the total reaching 2^k exactly at a chunk's end
    k = data.draw(st.integers(0, max_k(n, alphabet)))
    with mock.patch.object(kernels, "CHUNK", chunk):
        built = d.build_ess(n, k, alphabet)
    used = bisect_used(built.leaves.counts, k)
    assert built.leaves.used_counts == tuple(used)
    assert built.leaves.weights.tolist() == [u / (1 << k) for u in used]


def test_derived_table_reads_one_block_of_multinomials_a_chunk(monkeypatch):
    # a built ESS table stores no used count a leaf: iterating, indexing,
    # slicing, == and n_words form one block of multinomials for each chunk
    # they read, from one kernels.multinomial_blocks a pass, and never a
    # per-leaf mc_counts
    built, twin = d.build_ess(24, 36), d.build_ess(24, 36)
    table = built.leaves
    want = bisect_used(table.counts, 36)
    assert len(table.used_counts.overrides) < len(table) // 4
    monkeypatch.setattr(kernels, "CHUNK", 7)
    blocks = -(-len(table) // 7)
    passes, rows = [], []

    def counted(n):
        block_multinomials = kernels.multinomial_blocks(n)
        passes.append(n)

        def block(counts):
            rows.append(len(counts))
            return block_multinomials(counts)

        return block

    def refused(counts):
        raise AssertionError("mc_counts read for one leaf")

    monkeypatch.setattr(schemes, "multinomial_blocks", counted)
    monkeypatch.setattr(kernels, "mc_counts", refused)
    for read, want_read, n_passes, n_blocks in [
            (lambda: list(table.used_counts), want, 1, blocks),
            (lambda: list(table.n_words), want, 1, blocks),
            (lambda: [leaf.used_count for leaf in table], want, 1, blocks),
            (lambda: table == twin.leaves, True, 2, 2 * blocks),
            (lambda: table.used_counts == tuple(want), True, 1, blocks),
            (lambda: table.used_counts[3:10], tuple(want[3:10]), 1, blocks),
            (lambda: table[40].used_count, want[40], 1, 1)]:
        passes.clear()
        rows.clear()
        assert read() == want_read
        assert len(passes) == n_passes and len(rows) == n_blocks
        assert max(rows) <= 7


def fed_rows(monkeypatch):
    """The rows, as tuples, that every caller feeds the multinomial kernel
    from now on, and the number of passes (multinomial_blocks calls)."""
    fed, passes = [], []
    real = kernels.multinomial_blocks

    def counted(n):
        block_multinomials = real(n)
        passes.append(n)

        def block(counts):
            fed.extend(map(tuple, counts.tolist()))
            return block_multinomials(counts)

        return block

    for module in (kernels, schemes, schemefile):
        monkeypatch.setattr(module, "multinomial_blocks", counted)
    return fed, passes


@pytest.mark.parametrize("chunk", [1, 7])
def test_ess_steps_form_each_multinomial_once(chunk, tmp_path, monkeypatch):
    # build_ess's walk also fills validate's checks, and forms no row after
    # the crossing shell's block; a read forms each row it compares once,
    # and none of a leaf that uses 0 words; a validate on its own makes one
    # pass over every row
    built = d.build_ess(24, 36)
    path = str(tmp_path / "ess.scheme")
    write_scheme(built, path)
    rows = list(map(tuple, built.leaves.counts.tolist()))
    used = list(built.leaves.used_counts)
    cross = max(i for i, u in enumerate(used) if u)
    assert 0 < cross < len(rows) - chunk
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    fed, passes = fed_rows(monkeypatch)
    again = d.build_ess(24, 36)
    assert fed == rows[:(cross // chunk + 1) * chunk] and passes == [24]
    fed.clear(), passes.clear()
    read = read_scheme(path)
    assert fed == [row for row, u in zip(rows, used) if u] and passes == [24]
    fed.clear(), passes.clear()
    built.validate()
    assert fed == rows and passes == [24]
    assert again.leaves == read.leaves == built.leaves


@settings(max_examples=150, deadline=None)
@given(k=st.sampled_from([0, 349, 1022, 1023, 1100]), data=st.data())
def test_shares_are_the_correctly_rounded_quotients(k, data):
    # ldexp up to k = 1022, exact division above: each share is w / 2^k as
    # Python divides ints, rounded once, ties (a 54th significant bit of 1
    # and nothing below it) to even
    need = 1 << k
    words = [0, 1, need, need - 1]
    if k > 60:
        words += [(1 << 53 | 1) << (k - 60), (1 << 53 | 3) << (k - 60)]
    if k == 1100:  # a subnormal quotient that float() then ldexp rounds twice
        words.append(1 << 60 | 1 << 25 | 1)
    words += data.draw(st.lists(st.integers(0, need), max_size=8))
    got = schemes.shares(np.array(words, dtype=object), k)
    assert got.dtype == np.float64
    assert got.tolist() == [w / need for w in words]


@pytest.mark.parametrize("n,k", [(12, 14), (24, 36)])
def test_shell_order_is_energy_then_colex(n, k):
    # compositions of equal energy come in colex order, which differs from
    # lex order for four levels at these n
    for alphabet in ALPHABETS:
        k_a = min(k, max_k(n, alphabet))
        units, _ = alphabet.integer_energies()
        radius = integer_radius(n, k_a, alphabet)

        def energy(c):
            return sum(x * u for x, u in zip(c, units))

        want = sorted((c for c in enumerate_compositions(n, alphabet)
                       if energy(c) <= radius),
                      key=lambda c: (energy(c), c[::-1]))
        built = d.build_ess(n, k_a, alphabet)
        assert [leaf.counts for leaf in built.leaves] == want


@settings(max_examples=60, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 30), data=st.data())
def test_average_pmf_equals_leaf_loop(alphabet, n, data):
    k = data.draw(st.integers(0, max_k(n, alphabet)))
    builder = data.draw(st.sampled_from([d.build_mpdm, d.build_ess]))
    try:
        built = builder(n, k, alphabet)
    except RateInfeasibleError:
        return
    avg = [0.0] * alphabet.m
    for leaf in built.leaves:
        for i, c in enumerate(leaf.counts):
            avg[i] += leaf.weight * c / n
    assert average_pmf(built.leaves, n, alphabet.m) == tuple(avg)


# -- validate ------------------------------------------------------------------

def ess_set(n, k, alphabet, used_by_counts):
    """An ESS set with the given used counts and consistent header fields."""
    leaves = LeafTable(
        counts=np.array([c for c, _ in used_by_counts], dtype=np.int64),
        weights=np.array([u / (1 << k) for _, u in used_by_counts]),
        used_counts=[u for _, u in used_by_counts])
    return d.CompositionSet(scheme="ess", n=n, k=k, alphabet=alphabet,
                            leaves=leaves)


def test_factorial_check_rejects_used_above_shell_size():
    a2 = d.AmplitudeAlphabet((1, 3))
    # the toy ESS at n=6, k=4 uses (6,0) x1, (5,1) x6, (4,2) x9
    ess_set(6, 4, a2, [((6, 0), 1), ((5, 1), 6), ((4, 2), 9)]).validate()
    # MC(6,0) = 1: one used sequence more, with the total still 2^4
    bad = ess_set(6, 4, a2, [((6, 0), 2), ((5, 1), 6), ((4, 2), 8)])
    with pytest.raises(ConstructionBugError, match="exceeds its shell size"):
        bad.validate()


@settings(max_examples=100, deadline=None)
@given(compositions(max_n=12))
def test_factorial_check_is_the_multinomial(case):
    c, alphabet = case
    n = sum(c)
    mc = kernels.mc_counts(c)
    k = mc.bit_length() - 1
    # a one-leaf tree scheme at payload k passes exactly when 2^k <= MC
    def one_leaf(payload):
        return LeafTable(np.array([c], dtype=np.int64), np.array([1.0]),
                         payload_bits=np.array([payload]),
                         depth=np.array([0]))

    ok = d.CompositionSet(scheme="ccdm", n=n, k=k, alphabet=alphabet,
                          leaves=one_leaf(k))
    ok.validate()
    over = d.CompositionSet(scheme="ccdm", n=n, k=k + 1, alphabet=alphabet,
                            leaves=one_leaf(k + 1))
    with pytest.raises(ConstructionBugError):
        over.validate()


def factorial_verdict(built):
    """What validate must say once every leaf is a distinct composition of
    the right kind: the leaf-by-leaf factorial-product check, word * prod(
    c_i!) <= n!, in the fault order payload/depth, capacity, weight per leaf,
    then the totals.  A word above 2^k is its leaf's fault, in the weight's
    place.  None when the scheme passes."""
    n, k = built.n, built.k
    need = 1 << k
    tree = is_tree_scheme(built.scheme)
    n_fact = math.factorial(n)
    words = []
    for leaf in built.leaves:
        if tree:
            p = leaf.payload_bits
            if p < 0 or p > k or leaf.depth != k - p:
                return "inconsistent payload/depth"
            x = 1 << p
        else:
            x = leaf.used_count
        if x < 0 or x * math.prod(map(math.factorial, leaf.counts)) > n_fact:
            return ("payload exceeds composition capacity" if tree else
                    f"leaf {leaf.counts} used count {x} exceeds its shell size")
        if x > need:
            return f"leaf {leaf.counts} used count {x} exceeds 2^{k}"
        if leaf.weight != x / need:
            share = f"2^({leaf.payload_bits}-{k})" if tree else f"{x}/2^{k}"
            return f"leaf {leaf.counts} weight {leaf.weight!r} is not {share}"
        words.append(x)
    if sum(words) != need:
        what = "address space" if tree else "used sequences"
        return f"{what} is {sum(words)}, expected 2^{k}"
    wsum = sum(leaf.weight for leaf in built.leaves)
    if not abs(wsum - 1.0) <= 1e-9:
        return f"leaf weights sum to {wsum!r}"
    return None


A3 = d.AmplitudeAlphabet((1, 3, 5))
# small valid schemes of each kind; ccdm 8/5, mpdm 8/6 and ess 6/3 hold a
# leaf whose multinomial exceeds 2^k
VALIDATE_BASES = [("ccdm", 8, 5, ALPHABETS[0]), ("mpdm", 8, 6, ALPHABETS[0]),
                  ("ess", 8, 6, ALPHABETS[0]), ("ess", 6, 3, ALPHABETS[0]),
                  ("mpdm", 6, 7, A3), ("ess", 6, 7, A3), ("opt-mpdm", 6, 6, A3),
                  ("ess", 5, 7, d.DEFAULT_ALPHABET),
                  ("mpdm", 5, 8, d.DEFAULT_ALPHABET)]
EDITS = ("at-capacity", "over-capacity", "payload/depth", "weight",
         "negative", "above-2^k")


@functools.lru_cache(maxsize=None)
def validate_base(i):
    scheme, n, k, alphabet = VALIDATE_BASES[i]
    return BUILDERS[scheme](n, k, alphabet)


def edited(base, edits):
    """base with each (leaf, kind) edit applied in turn; a word edit states
    the share the new word would have, so only the edit is at fault."""
    table, k = base.leaves, base.k
    need = 1 << k
    tree = is_tree_scheme(base.scheme)
    weights = table.weights.copy()
    if tree:
        payload, depth = table.payload_bits.copy(), table.depth.copy()
    else:
        used = list(table.used_counts)
    for leaf, kind in edits:
        i = leaf % len(weights)
        mc = kernels.mc_counts(tuple(table.counts[i].tolist()))
        if kind == "weight":
            weights[i] = weights[i] * 2 if weights[i] else 0.5
        elif tree:
            p = {"at-capacity": mc.bit_length() - 1,
                 "over-capacity": mc.bit_length(),
                 "payload/depth": int(payload[i]), "negative": -1,
                 "above-2^k": k + 1}[kind]
            payload[i] = p
            depth[i] = k - p + (kind == "payload/depth")
            weights[i] = math.ldexp(1.0, p - k)
        else:  # an ESS leaf has no payload/depth: that edit fills the shell
            x = {"at-capacity": mc, "over-capacity": mc + 1,
                 "payload/depth": mc, "negative": -1,
                 "above-2^k": need + 1}[kind]
            used[i] = x
            weights[i] = min(x, need) / need
    columns = (dict(payload_bits=payload, depth=depth) if tree
               else dict(used_counts=used))
    return d.CompositionSet(scheme=base.scheme, n=base.n, k=k,
                            alphabet=base.alphabet,
                            leaves=LeafTable(table.counts, weights, **columns))


@settings(max_examples=300, deadline=None)
@given(base=st.integers(0, len(VALIDATE_BASES) - 1),
       edits=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(EDITS)),
                      max_size=4),
       chunk=st.sampled_from([1, 2, 3, kernels.CHUNK]))
def test_column_capacity_check_is_the_factorial_product(base, edits, chunk):
    built = edited(validate_base(base), edits)
    with mock.patch.object(kernels, "CHUNK", chunk):
        try:
            built.validate()
            got = None
        except ConstructionBugError as exc:
            got = str(exc)
    assert got == factorial_verdict(built)


# -- reference bytes -----------------------------------------------------------

def test_reference_outputs_pinned(ccdm216, mpdm216, ess216, opt216, capsys):
    capsys.readouterr()
    assert main(["compare", "--n", "216", "--k", "349"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == \
        "282b98e69c8cac296382861ead452345"
    assert hashlib.sha256(scheme_to_text(ess216).encode()).hexdigest() == \
        "9b1e947b66885a39ec8c898723f78bf1286edcaee29ebed3ca5db94c635e5a8d"
    trees = {built.scheme: hashlib.sha256(
        scheme_to_text(built).encode()).hexdigest()
        for built in (ccdm216, mpdm216, opt216)}
    assert trees == {
        "ccdm": "955e09373f71940e95f9872933d6d538"
                "481c0393c178407e11f44791a27372a8",
        "mpdm": "2153b6bea7ec1ae66cc6aaf48748b4b9"
                "fa781b99456a8bbc52e90824ef572081",
        "opt-mpdm": "ff7c07ed583278a2e8bd4e2df8ce7ec3"
                    "5e153b518690f3658ce6d8a97054effa"}


def test_eight_level_tree_outputs_pinned():
    # 256-QAM amplitudes: 278,946 pairs behind the mpdm build and more behind
    # its k+1 base, where the pair array, not a list of tuples, holds them
    a8 = d.AmplitudeAlphabet((1, 3, 5, 7, 9, 11, 13, 15))
    digests = {built.scheme: hashlib.sha256(
        scheme_to_text(built).encode()).hexdigest()
        for built in (d.build_mpdm(48, 110, a8),
                      d.build_opt_mpdm(48, 110, a8))}
    assert digests == {
        "mpdm": "a5ea892b85ade72e4d021d1771a33583"
                "9e5dbddc0daac01692eabcb66ca0da3e",
        "opt-mpdm": "bbd98561a5e5211be928d203abcf9c23"
                    "632a363cb6c380bf103e48e87ea390d3"}


SUM = builtins.sum


def compensated_sum(values, /, start=0):
    """sum() with compensated float additions, as from Python 3.12; ints
    stay exact."""
    values = list(values)
    if any(isinstance(v, float) for v in [start, *values]):
        return math.fsum([start, *values])
    return SUM(values, start)


def test_outputs_do_not_depend_on_sum(monkeypatch, ccdm216, mpdm216, ess216,
                                      opt216, model216):
    # compare's rate_loss and avg_snr_db columns at n=216, k=349
    want = {"ccdm": (0.055091438223286104, 14.277152592779931),
            "ess": (0.013967131053320259, 14.267701118245865),
            "mpdm": (0.02412381183033352, 14.255201072678991),
            "opt-mpdm": (0.02682779086710929, 14.386134543935402)}
    lams = [i / 64 for i in range(129)]
    pmfs = [ccdm.mb_pmf(lam) for lam in lams]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    got = {built.scheme: (built.rate_loss, nli.analyze(built, model216).avg_db)
           for built in (ccdm216, ess216, mpdm216, opt216)}
    assert got == want
    assert [ccdm.mb_pmf(lam) for lam in lams] == pmfs


# md5 of the four analyze CSVs per reference scheme under model216:
# scatter, histogram, cdf, aggregates
ANALYZE_CSV_MD5 = {
    "ccdm": ("12d95ae082a03627848f66f292bf777b",
             "4287bdb27affb145c8ace9b572a1f703",
             "da42e124c8c6355af8f1be5bd57dcddf",
             "489fcfd1d7991c7b5604d21b57065e0d"),
    "mpdm": ("10fddff59542a2911fe3551f7751564b",
             "b74e6361db689fc47ebd994d3eedfbcd",
             "9cf932ec65bbd5e4683825ea8d14923f",
             "0c4f3e828220c0a1fe410ed5c5767cef"),
    "ess": ("f03cf391e4f0a78ed7c60eec402a62ec",
            "502c87a742f1a33eb98217fadfd0b5be",
            "7364535412a5c76cae6df47330cf45f4",
            "74147ede459962515606d68b329b5aaf"),
    "opt-mpdm": ("fea649979ea24228154d7a8c665c7e19",
                 "22f0196b4d439eaa1331860977361445",
                 "6757c9e53437b437ca091d11edb56edc",
                 "1dbee6da314fcc385aa182335b47edf2"),
}
REPORT_PARTS = ("scatter", "histogram", "cdf", "aggregates")


@pytest.mark.parametrize("scheme,fixture", [
    ("ccdm", "ccdm216"), ("mpdm", "mpdm216"), ("ess", "ess216"),
    ("opt-mpdm", "opt216")])
def test_analyze_csvs_pinned(scheme, fixture, model216, tmp_path, request):
    built = request.getfixturevalue(fixture)
    prefix = str(tmp_path / scheme)
    _write_report(prefix, d.analyze(built, model216), 0.01)
    got = tuple(hashlib.md5((tmp_path / f"{scheme}_{part}.csv").read_bytes())
                .hexdigest() for part in REPORT_PARTS)
    assert dict(zip(REPORT_PARTS, got)) == \
        dict(zip(REPORT_PARTS, ANALYZE_CSV_MD5[scheme]))


# -- ESS radius ----------------------------------------------------------------

def scanned_radius(n, k, alphabet):
    units, _ = alphabet.integer_energies()
    totals, _ = kernels.energy_totals(n, units)
    cum = 0
    for e, t in enumerate(totals):
        cum += t
        if t and cum >= 1 << k:
            return e
    return None


@settings(max_examples=120, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 24), data=st.data())
def test_polynomial_radius_equals_energy_scan(alphabet, n, data):
    k = data.draw(st.integers(0, max_k(n, alphabet) + 1))
    try:
        got = integer_radius(n, k, alphabet)
    except RateInfeasibleError:
        got = None
    assert got == scanned_radius(n, k, alphabet)


@pytest.mark.parametrize("n,k", [(24, 36), (40, 70)])
def test_polynomial_radius_at_scale(n, k):
    assert integer_radius(n, k, d.DEFAULT_ALPHABET) == \
        scanned_radius(n, k, d.DEFAULT_ALPHABET)


def test_radius_refuses_oversized_grid(monkeypatch):
    # n=24 over {1,3,5,7} packs 145 slots of about 48 bits: 6960 bits
    monkeypatch.setattr(combinatorics, "RADIUS_GRID_BITS", 6960)
    assert integer_radius.__wrapped__(24, 36, d.DEFAULT_ALPHABET) == \
        scanned_radius(24, 36, d.DEFAULT_ALPHABET)
    monkeypatch.setattr(combinatorics, "RADIUS_GRID_BITS", 6959)
    with pytest.raises(RateInfeasibleError, match="energy grid of 145 levels"):
        integer_radius.__wrapped__(24, 36, d.DEFAULT_ALPHABET)


def test_radius_refuses_a_costly_power(monkeypatch):
    # the same grid packs into 145 slots of 7 bytes: an 8120-bit power
    monkeypatch.setattr(combinatorics, "RADIUS_POWER_BITS", 8120)
    assert integer_radius.__wrapped__(24, 36, d.DEFAULT_ALPHABET) == \
        scanned_radius(24, 36, d.DEFAULT_ALPHABET)
    monkeypatch.setattr(combinatorics, "RADIUS_POWER_BITS", 8119)
    with pytest.raises(RateInfeasibleError) as info:
        integer_radius.__wrapped__(24, 36, d.DEFAULT_ALPHABET)
    assert str(info.value) == (
        "energy grid of 145 levels at n=24 needs a 8120-bit power, more "
        "than RADIUS_POWER_BITS=8119")


# -- analyze -------------------------------------------------------------------

MODEL = d.NliModel(eta0=1.5e4, eta1=8e3, ase_variance_w=2e-5,
                   launch_power_w=1e-3)


def reference_entries(built, model):
    out = []
    for leaf in built.leaves:
        if leaf.weight <= 0:
            continue
        kurtosis = d.block_moments(d.pmf_of(leaf.counts),
                                   built.alphabet).kurtosis_2d
        out.append((leaf.counts, kurtosis, leaf.weight,
                    d.snr_eff(kurtosis, model)))
    return out


def outcome(f):
    """f's value, or the type and message of what it raised."""
    try:
        return f()
    except Exception as exc:
        return type(exc), str(exc)


def observed_entries(report):
    return [(e.counts, e.kurtosis, e.weight, e.snr_db)
            for e in report.entries]


def adhoc_set(alphabet, counts_list):
    n = sum(counts_list[0])
    leaves = LeafTable(np.array(counts_list, dtype=np.int64),
                       np.full(len(counts_list), 1 / len(counts_list)))
    return d.CompositionSet(scheme="ess", n=n, k=0, alphabet=alphabet,
                            leaves=leaves)


@settings(max_examples=100, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 40), data=st.data(),
       chunk=st.sampled_from([1, 3, kernels.CHUNK]),
       hostile=st.sampled_from(
           [None, "zero", "cancel", "negative", "huge", "wide"]))
def test_chunked_analyze_equals_per_leaf(alphabet, n, data, chunk, hostile):
    comps = data.draw(st.lists(
        st.lists(st.integers(0, n), min_size=alphabet.m - 1,
                 max_size=alphabet.m - 1).map(sorted),
        min_size=1, max_size=12))
    counts_list = list(dict.fromkeys(
        tuple(b - a for a, b in zip([0] + c, c + [n])) for c in comps))
    # rows that make kurtosis_of fall back: one the reference refuses (a
    # zero row, a PMF that sums to 1 only within 6e-11, a negative second
    # moment), copies of every row scaled past 2^53/m where float64 rounds
    # them, or a zero column that makes every row too wide
    where = data.draw(st.integers(0, len(counts_list)))
    m = alphabet.m
    if hostile == "zero":
        counts_list.insert(where, (0,) * m)
    elif hostile == "cancel":
        assume(m >= 3)
        counts_list.insert(where, (10**6 + 1, -2 * 10**6, 10**6 + 2)
                           + (0,) * (m - 3))
    elif hostile == "negative":
        counts_list.insert(where, (2,) + (0,) * (m - 2) + (-1,))
    elif hostile == "huge":
        counts_list += [tuple((x << 52) + 1 for x in c) for c in counts_list]
    elif hostile == "wide":
        counts_list = [c + (0,) for c in counts_list]
    want = outcome(lambda: [d.block_moments(d.pmf_of(c), alphabet).kurtosis_2d
                            for c in counts_list])
    matrix = np.array(counts_list, dtype=np.int64)
    assert outcome(lambda: kurtosis_of(matrix, alphabet)) == want
    built = adhoc_set(alphabet, counts_list)
    with mock.patch.object(kernels, "CHUNK", chunk):
        report = outcome(lambda: d.analyze(built, MODEL))
    if isinstance(want, tuple):
        assert report == want
        return
    assert observed_entries(report) == reference_entries(built, MODEL)
    assert built.kurtosis_range() == (min(want), max(want))


def test_chunked_analyze_equals_per_leaf_ess216(ess216, model216):
    # this scheme has leaves where mu2**2 != mu2*mu2, so a numpy square
    # in place of the scalar pow would fail here
    mu2 = [d.block_moments(d.pmf_of(leaf.counts)).mu2_1d
           for leaf in ess216.leaves if leaf.weight > 0]
    assert any(x**2 != x * x for x in mu2)
    report = d.analyze(ess216, model216)
    assert observed_entries(report) == reference_entries(ess216, model216)


def test_analyze_domain_error_matches_per_leaf():
    # eta = 1 + 2*(kurtosis - 2) is positive at kurtosis 5/3 (leaf 3,1) and
    # negative at kurtosis 1 (constant-modulus leaf 4,0)
    model = d.NliModel(eta0=1.0, eta1=2.0, ase_variance_w=1e-12,
                       launch_power_w=1e-3)
    built = adhoc_set(d.AmplitudeAlphabet((1, 3)), [(3, 1), (4, 0), (0, 4)])
    with pytest.raises(ModelDomainError) as per_leaf:
        d.snr_eff(1.0, model)
    with pytest.raises(ModelDomainError) as chunked:
        d.analyze(built, model)
    assert str(chunked.value) == str(per_leaf.value)
    assert "kurtosis 1.0" in str(chunked.value)


def test_analyze_wrong_width_table_raises_like_per_leaf():
    built = adhoc_set(d.AmplitudeAlphabet((1, 3)), [(2, 1, 1), (1, 1, 2)])
    with pytest.raises(ValueError, match="PMF length does not match alphabet"):
        d.analyze(built, MODEL)


def list_histogram(entries, bin_width_db):
    """The histogram over per-leaf (counts, kurtosis, weight, snr) tuples,
    as the report once built it from lists of Python floats."""
    bins = {}
    for _, _, w, s in entries:
        b = math.floor(s / bin_width_db)
        bins[b] = bins.get(b, 0.0) + w
    return [((i + 0.5) * bin_width_db, bins[i]) for i in sorted(bins)]


def list_cdf(entries):
    by_snr = {}
    for _, _, w, s in entries:
        by_snr[s] = by_snr.get(s, 0.0) + w
    snrs = sorted(by_snr)
    return list(zip(snrs, itertools.accumulate(map(by_snr.get, snrs))))


def assert_report_is_the_list_reference(report, built, model):
    want = reference_entries(built, model)
    got = observed_entries(report)
    assert got == want
    assert report.histogram(0.01) == list_histogram(want, 0.01)
    assert report.cdf() == list_cdf(want)
    # callers get Python floats, not numpy scalars, from every reader
    floats = [x for e in got for x in e[1:]]
    floats += [x for pair in report.histogram(0.01) + report.cdf()
               for x in pair]
    floats += [report.entries[0].kurtosis, report.entries[-1].snr_db,
               report.min_db, report.max_db, report.avg_db]
    assert {type(x) for x in floats} == {float}
    snrs = [s for *_, s in want]
    assert (report.min_db, report.max_db) == (min(snrs), max(snrs))
    # the weighted mean is the left-to-right sum on every Python, 3.12's
    # compensated sum() included
    assert report.avg_db == combinatorics.float_sum(
        s * w for _, _, w, s in want)


@pytest.mark.parametrize("chunk", [1, 3, kernels.CHUNK])
def test_report_columns_read_as_the_list_reference(monkeypatch, chunk):
    # a toy ESS scheme has a zero-weight shell; chunks of 1 and 3 leaves put
    # the running sum and each column reader across chunk boundaries
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    for built in (d.build_ess(6, 4, d.AmplitudeAlphabet((1, 3))),
                  d.build_mpdm(8, 5, d.AmplitudeAlphabet((1, 3)))):
        assert_report_is_the_list_reference(d.analyze(built, MODEL), built,
                                            MODEL)


def test_report_columns_read_as_the_list_reference_ess216(ess216, model216):
    report = d.analyze(ess216, model216)
    assert_report_is_the_list_reference(report, ess216, model216)


def test_report_columns_are_read_only():
    built = d.build_mpdm(8, 5, d.AmplitudeAlphabet((1, 3)))
    report = d.analyze(built, MODEL)
    for name in ("counts", "kurtosis", "weights", "snr_db"):
        column = getattr(report, name)
        assert isinstance(column, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    assert report.kurtosis.dtype == report.snr_db.dtype == np.float64


def test_analyze_and_report_memory_is_columnar(ess216, ess_step_memory):
    # float64 columns take 8 bytes a leaf for each of kurtosis, snr_db and
    # weights; Python floats in lists took 32, which peaked at 7.0 times
    # rows * 8 * 3 here.  The columnar report peaks at 1.7 times: the three
    # columns, the uint8 count matrix and the CDF's sort order.
    rows = int((ess216.leaves.weights > 0).sum())
    _, peak = ess_step_memory["analyze_and_report"]
    assert peak < 3 * rows * 8 * 3


@settings(max_examples=60, deadline=None)
@given(snrs=st.lists(st.sampled_from([-0.5, 1.0, 2.5, 7.25]), min_size=1,
                     max_size=12),
       data=st.data(), chunk=st.sampled_from([1, 3, kernels.CHUNK]))
def test_cdf_sums_repeated_snrs_as_the_list_reference(snrs, data, chunk):
    # weights such as 0.1, 0.2 and 0.3 sum to different floats in different
    # orders, so each SNR's sum must be taken in row order, across chunks
    weights = data.draw(st.lists(
        st.sampled_from([0.1, 0.2, 0.3, 1e-17, 0.7, 1 / 3]),
        min_size=len(snrs), max_size=len(snrs)))
    report = nli.SnrReport(
        counts=np.zeros((len(snrs), 2), dtype=np.int64),
        kurtosis=np.ones(len(snrs)), weights=np.array(weights),
        snr_db=np.array(snrs), min_db=min(snrs), max_db=max(snrs),
        avg_db=0.0)
    want = list_cdf(observed_entries(report))
    with mock.patch.object(kernels, "CHUNK", chunk), \
            tempfile.TemporaryDirectory() as tmp:
        assert report.cdf() == want
        _write_report(tmp + "/r", report, 0.01)
        with open(tmp + "/r_cdf.csv", encoding="utf-8") as fh:
            written = fh.read()
    assert written == "snr_db,cumulative_weight\n" + "".join(
        f"{s!r},{w!r}\n" for s, w in want)


def traced_memory(step):
    """(retained, peak): the tracemalloc bytes step()'s result keeps
    allocated, and the peak step() reaches."""
    step()  # first-call allocations out of the way
    tracemalloc.start()
    try:
        kept = step()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return retained, peak


@pytest.fixture(scope="module")
def ess_step_memory(ess216, model216, tmp_path_factory):
    """traced_memory of each step of the n=216 ESS flow, by name.

    Each step is traced once, on one scheme file, and every memory gate
    below reads its bound off the same measurement: tracing is 15 to 40
    times slower than the step itself.  The objects alive before the steps
    are frozen out of the cyclic collector's passes meanwhile, which saves
    time and changes no traced byte: tracemalloc counts only blocks
    allocated after it starts.
    """
    tmp = tmp_path_factory.mktemp("ess_steps")
    path = str(tmp / "ess.scheme")
    write_scheme(ess216, path)
    steps = {
        "build_ess": lambda: d.build_ess(216, 349),
        "validate": ess216.validate,
        "read_scheme": lambda: read_scheme(path),
        "analyze": lambda: d.analyze(ess216, model216),
        "analyze_and_report": lambda: _write_report(
            str(tmp / "r"), d.analyze(ess216, model216), 0.01),
        "codec": lambda: d.SchemeCodec(ess216),
    }
    gc.freeze()
    try:
        return {name: traced_memory(step) for name, step in steps.items()}
    finally:
        gc.unfreeze()


# Bytes per leaf each step of the n=216 ESS flow may allocate above what it
# keeps.  Each holds the table's columns once; what remains is validate's
# key column and sort order (16), and analyze's report (4 bytes of uint8
# counts and 24 of float64 columns a carried leaf) with the CDF's sort
# order (8).  They take 25, 19, 20 and 40 bytes a leaf; with a binomial
# dict a pass (~18 bytes a leaf) validate and read_scheme took 23 and 28,
# with int64 counts the report took 68, with whole-column copies beside the
# table the four took 72, 60, 60 and 96, and with the report's columns as
# lists of Python floats analyze peaked near 170.
STEP_BYTES_PER_LEAF = {"build_ess": 45, "validate": 30, "read_scheme": 30,
                       "analyze_and_report": 55}


@pytest.mark.parametrize("step", sorted(STEP_BYTES_PER_LEAF))
def test_ess_steps_hold_each_column_once(step, ess216, ess_step_memory):
    retained, peak = ess_step_memory[step]
    assert peak - retained < STEP_BYTES_PER_LEAF[step] * len(ess216.leaves)


# Bytes per leaf the table, report or codec each step returns keeps: uint8
# counts (4 a leaf at m=4) and float64 weights (8); for a table, the codec's
# block starts, one bigint per START_STRIDE leaves (~10), and the used-count
# overrides, 925 of 108,990 leaves (~1.5); for the codec, the sorted uint32
# keys and leaf indices (8), as the starts are the table's.  They keep 22.6,
# 22.6, 27.8 and 8.0.  With the used counts as a tuple of one bigint a leaf
# the tables kept 81.7 and 79.4, with int64 counts 110 and 108.
RETAINED_BYTES_PER_LEAF = {"build_ess": 30, "read_scheme": 30, "analyze": 35,
                           "codec": 16}


@pytest.mark.parametrize("step", sorted(RETAINED_BYTES_PER_LEAF))
def test_ess_steps_retain_narrow_columns(step, ess216, ess_step_memory):
    retained, _ = ess_step_memory[step]
    assert retained < RETAINED_BYTES_PER_LEAF[step] * len(ess216.leaves)


# -- narrow count columns ------------------------------------------------------

def test_count_dtype_is_the_narrowest_unsigned_that_holds_n():
    for n, dtype in [(0, np.uint8), (1, np.uint8), (255, np.uint8),
                     (256, np.uint16), (65535, np.uint16),
                     (65536, np.uint32), ((1 << 32) - 1, np.uint32),
                     (1 << 32, np.int64), (-1, np.int64)]:
        assert schemes.count_dtype(n) == dtype, n
    # a count outside [0, n] keeps the column as it is: no cast wraps it
    for row in ([259, 3], [-1, 7], [7, 0]):
        column = np.array([[3, 3], row], dtype=np.int64)
        assert schemes.narrow_counts(column, 6) is column
    big = np.array([[10**30, 3]], dtype=object)
    assert schemes.narrow_counts(big, 10**31) is big
    assert schemes.narrow_counts(np.array([[6, 0]]), 6).dtype == np.uint8


def test_built_and_read_tables_hold_narrow_counts(ess216, tmp_path):
    path = str(tmp_path / "ess.scheme")
    write_scheme(ess216, path)
    assert ess216.leaves.counts.dtype == np.uint8
    assert read_scheme(path).leaves.counts.dtype == np.uint8
    for scheme in ("ccdm", "mpdm"):
        built = BUILDERS[scheme](300, 480, d.DEFAULT_ALPHABET)
        assert built.leaves.counts.dtype == np.uint16
        path = str(tmp_path / f"{scheme}300.scheme")
        write_scheme(built, path)
        read = read_scheme(path)
        assert read.leaves.counts.dtype == np.uint16
        assert read.leaves == built.leaves
        codec = d.SchemeCodec(read)
        for word in (0, 12345678901234567890, (1 << 480) - 1):
            seq = codec.encode(word)
            assert d.SchemeCodec(built).encode(word) == seq
            assert codec.decode(seq) == word


@settings(max_examples=200, deadline=None)
@given(base=st.integers(0, len(VALIDATE_BASES) - 1), data=st.data())
def test_validate_says_the_same_of_a_narrow_table_and_its_int64_twin(base,
                                                                     data):
    built = validate_base(base)
    n, table = built.n, built.leaves
    counts = table.counts.astype(np.int64)
    # overwrite some rows with counts drawn from [-2, n + 300]: sums that
    # wrap in a narrow dtype, values beyond uint8, duplicates, other leaves
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(counts) - 1))
        counts[i] = data.draw(st.lists(st.integers(-2, n + 300),
                                       min_size=counts.shape[1],
                                       max_size=counts.shape[1]))

    def verdict(column):
        columns = (dict(payload_bits=table.payload_bits, depth=table.depth)
                   if table.used_counts is None
                   else dict(used_counts=table.used_counts))
        twin = d.CompositionSet(
            scheme=built.scheme, n=n, k=built.k, alphabet=built.alphabet,
            leaves=LeafTable(column, table.weights, **columns))
        try:
            twin.validate()
        except ConstructionBugError as exc:
            return str(exc)
        return None

    want = verdict(counts)
    # the rule's column, and one as narrow as its own largest count allows
    # (values above n held unsigned, where a sum in that dtype would wrap)
    assert verdict(schemes.narrow_counts(counts, n)) == want
    if counts.min() >= 0:
        tight = counts.astype(np.min_scalar_type(int(counts.max())))
        assert verdict(tight) == want
