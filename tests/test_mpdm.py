import itertools

import pytest
from hypothesis import given, settings, strategies as st

import dmshape as d
from dmshape.errors import RateInfeasibleError
from dmshape.mpdm import min_pair_payload
from dmshape.schemes import exact_cover, smallest_feasible_cap

import oracles
from oracles import (
    colex_key,
    cover_columns,
    multinomial_coefficient,
    pair_triples,
)

A4 = d.DEFAULT_ALPHABET
A2 = d.AmplitudeAlphabet((1, 3))


def brute_force_pairs(c0, min_payload):
    """Oracle: enumerate the whole simplex and pair by complement."""
    n = sum(c0)
    m = len(c0)
    seen = set()
    out = []
    for c in itertools.product(range(n + 1), repeat=m):
        if sum(c) != n or c == tuple(c0):
            continue
        cb = tuple(2 * a - b for a, b in zip(c0, c))
        if any(x < 0 for x in cb):
            continue
        key = frozenset((c, cb))
        if key in seen:
            continue
        seen.add(key)
        canon, other = sorted((c, cb), key=colex_key)
        p = min(d.input_bits(canon), d.input_bits(other))
        if p >= min_payload:
            out.append((canon, other, p))
    return sorted(out)


def triples(c0, min_payload):
    """enumerate_pairs(c0, min_payload) as (C, C_bar, payload) triples."""
    return pair_triples(c0, d.enumerate_pairs(c0, min_payload))


def cover(items, k, payload_cap=None):
    """The column exact_cover of ((members), payload) items as (counts,
    payload) leaves in take order, each item's members adjacent."""
    taken, paid = exact_cover(*cover_columns(items), k,
                              payload_cap=payload_cap)
    return [(c, p) for i, p in zip(taken.tolist(), paid.tolist())
            for c in items[i][0]]


def feasible_cap(items, k):
    return smallest_feasible_cap(*cover_columns(items)[1:], k)


class TestEnumeratePairs:
    def test_examples(self):
        pairs = {(c, c_bar): p for c, c_bar, p in triples((2, 1, 1), 0)}
        assert ((3, 1, 0), (1, 1, 2)) in pairs
        assert ((4, 0, 0), (0, 2, 2)) in pairs

    def test_min_payload_example(self):
        pairs = triples((1, 0, 1), 0)
        entry = [(c_bar, p) for c, c_bar, p in pairs if c == (2, 0, 0)]
        assert entry and entry[0] == ((0, 0, 2), 0)

    @pytest.mark.parametrize("c0", [(2, 1, 1), (3, 2, 1), (4, 2), (5, 3, 2, 1)])
    def test_against_brute_force(self, c0):
        for pmin in (0, 1):
            got = sorted((c, c_bar, p) for c, c_bar, p in triples(c0, pmin))
            assert got == brute_force_pairs(c0, pmin)

    def test_array_is_read_only(self):
        pairs = d.enumerate_pairs((5, 3, 2, 1), 0)
        with pytest.raises(ValueError):
            pairs["payload"][0] = 0
        with pytest.raises(ValueError):
            pairs[0] = pairs[1]

    def test_pair_arithmetic(self):
        c0 = (5, 3, 2, 1)
        for c, c_bar, p in triples(c0, 0):
            assert tuple(a + b for a, b in zip(c, c_bar)) == \
                tuple(2 * x for x in c0)
            assert colex_key(c) < colex_key(c_bar)
            assert p == min(d.input_bits(c), d.input_bits(c_bar))


class TestSelectTarget:
    def test_toy_capacity_oracle(self):
        # exhaustive: (3,1) is the most-shaped composition of 4 into 2 whose
        # singleton + pair space reaches 2^2
        target = d.select_mpdm_target(4, 2, A2)
        assert target == (3, 1)
        space = 1 << d.input_bits(target)
        for _, _, p in triples(target, min_pair_payload(target)):
            space += 2 << p
        assert space >= 4

    def test_k0_degenerate(self):
        assert d.select_mpdm_target(4, 0, A2) == (4, 0)

    def test_infeasible(self):
        with pytest.raises(RateInfeasibleError):
            d.select_mpdm_target(4, 9, A2)

    def test_reference_rate(self, mpdm216):
        # target entropy ~= k/n + rate loss; the capped cover keeps the
        # average pinned to the target
        assert d.entropy(mpdm216.avg_pmf) == pytest.approx(
            349 / 216 + 0.02, abs=0.005)


class TestAssemble:
    def test_toy_cover_depths(self):
        items = [(((2, 2),), 2), (((3, 1), (1, 3)), 1)]
        cap = feasible_cap(items, 3)
        leaves = cover(items, 3, payload_cap=cap)
        assert sum(1 << p for _, p in leaves) == 8
        depths = sorted(3 - p for _, p in leaves)
        assert depths == [1, 2, 2]

    def test_singleton_alone_depth_zero(self):
        items = [(((2, 2),), 2)]
        leaves = cover(items, 2, payload_cap=feasible_cap(items, 2))
        assert leaves == [((2, 2), 2)]

    def test_cover_cuts_an_overshooting_pair(self):
        # (2,2) takes 4 of 2^3; the pair at payload 2 would add 8, so both
        # members drop to payload 1
        items = [(((2, 2),), 2), (((1, 3), (3, 1)), 2)]
        assert cover(items, 3) == [((2, 2), 2), ((1, 3), 1), ((3, 1), 1)]

    def test_cover_skips_a_pair_that_cannot_fit(self):
        # one address is left when the pair comes up: it is skipped, and
        # the single (0,4) after it takes that address
        items = [(((2, 2),), 1), (((4, 0),), 0),
                 (((3, 1), (1, 3)), 0), (((0, 4),), 0)]
        assert cover(items, 2) == [((2, 2), 1), ((4, 0), 0), ((0, 4), 0)]

    def test_cover_short_of_2k_is_infeasible(self):
        items = [(((2, 2),), 1), (((4, 0),), 0)]
        with pytest.raises(RateInfeasibleError,
                           match=r"items supply 3 addresses, need 2\^2"):
            cover(items, 2)

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(0, 10), data=st.data())
    def test_cover_equals_tuple_oracle(self, k, data):
        # take order, payloads and the infeasible message are the tuple
        # cover's, on items of one composition or a pair, at any cap
        member = st.tuples(*[st.integers(0, 3)] * 3)
        items = data.draw(st.lists(st.tuples(
            st.lists(member, min_size=1, max_size=2).map(tuple),
            st.integers(0, k + 2)), max_size=30))
        cap = data.draw(st.none() | st.integers(0, k + 2))
        try:
            want = oracles.exact_cover(items, k, payload_cap=cap)
        except RateInfeasibleError as exc:
            with pytest.raises(RateInfeasibleError) as info:
                cover(items, k, payload_cap=cap)
            assert str(info.value) == str(exc)
        else:
            assert cover(items, k, payload_cap=cap) == want

    def test_toy_exact_cover_brute_force(self):
        # n=6, maximal k on {1,3}: hand-checked cover 8 + 4 + 4 = 2^4
        target = d.select_mpdm_target(6, 4, A2)
        assert target == (4, 2)
        built = d.build_mpdm(6, 4, A2)
        assert {(l.counts, l.payload_bits, l.depth) for l in built.leaves} == {
            ((4, 2), 3, 1), ((5, 1), 2, 2), ((3, 3), 2, 2)}
        assert sum(1 << l.payload_bits for l in built.leaves) == 16

    def test_average_preserved_exactly(self):
        built = d.build_mpdm(6, 4, A2)
        assert built.avg_pmf == pytest.approx(d.pmf_of((4, 2)), abs=1e-15)


class TestBuildInvariants:
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 4), (8, 5), (12, 8)])
    def test_toy_invariants(self, n, k):
        built = d.build_mpdm(n, k, A2)
        built.validate()
        # Kraft equality through exact integers
        assert sum(1 << l.payload_bits for l in built.leaves) == 1 << k
        for leaf in built.leaves:
            assert (1 << leaf.payload_bits) <= multinomial_coefficient(leaf.counts)

    def test_determinism(self):
        a = d.build_mpdm(8, 5, A2)
        b = d.build_mpdm(8, 5, A2)
        assert [(l.counts, l.payload_bits) for l in a.leaves] == \
            [(l.counts, l.payload_bits) for l in b.leaves]

    def test_pair_symmetry(self, mpdm216):
        target = d.select_mpdm_target(216, 349, A4)
        by_counts = {l.counts: l for l in mpdm216.leaves}
        for leaf in mpdm216.leaves:
            if leaf.counts == target:
                continue
            partner = tuple(2 * a - b for a, b in zip(target, leaf.counts))
            assert partner in by_counts
            assert by_counts[partner].payload_bits == leaf.payload_bits

    def test_reference_scale(self, mpdm216):
        assert 1500 <= mpdm216.n_compositions <= 3000
        assert mpdm216.rate_loss == pytest.approx(0.02, abs=0.005)
        assert sum(1 << l.payload_bits for l in mpdm216.leaves) == 1 << 349
        kmin, kmax = mpdm216.kurtosis_range()
        assert kmax > kmin  # genuine spread

    def test_average_is_target_at_scale(self, mpdm216):
        target = d.select_mpdm_target(216, 349, A4)
        assert mpdm216.avg_pmf == pytest.approx(d.pmf_of(target), abs=1e-9)
