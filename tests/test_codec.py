import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dmshape as d
from dmshape.errors import DecodeError, RateInfeasibleError
from dmshape.ess import shell_index
from dmshape.optimizer import BUILDERS

A4 = d.DEFAULT_ALPHABET
A2 = d.AmplitudeAlphabet((1, 3))
A3 = d.AmplitudeAlphabet((1, 2, 3))


def lex_arrangements(counts, alphabet):
    """Oracle: all arrangements of the composition in lexicographic order."""
    pool = []
    for lvl, c in zip(alphabet.levels, counts):
        pool.extend([lvl] * c)
    return sorted(set(itertools.permutations(pool)))


class TestCcRankUnrank:
    def test_toy_examples(self):
        assert d.cc_unrank(0, (1, 1), A2) == (1.0, 3.0)
        assert d.cc_unrank(1, (1, 1), A2) == (3.0, 1.0)
        # brute-force lex enumeration of {(1,1,3),(1,3,1),(3,1,1)}
        assert lex_arrangements((2, 1), A2)[2] == (3.0, 1.0, 1.0)
        assert d.cc_unrank(2, (2, 1), A2) == (3.0, 1.0, 1.0)

    @pytest.mark.parametrize("alphabet,n", [(A2, 6), (A2, 8), (A3, 5), (A3, 7)])
    def test_exhaustive_bijection(self, alphabet, n):
        for counts in d.enumerate_compositions(n, alphabet):
            mc = d.multinomial_coefficient(counts)
            seqs = [d.cc_unrank(i, counts, alphabet) for i in range(mc)]
            assert seqs == lex_arrangements(counts, alphabet)
            for i, seq in enumerate(seqs):
                assert d.cc_rank(seq, counts, alphabet) == i

    def test_out_of_range(self):
        with pytest.raises(DecodeError):
            d.cc_unrank(2, (1, 1), A2)
        with pytest.raises(DecodeError):
            d.cc_rank((1.0, 1.0), (1, 1), A2)

    @given(st.lists(st.integers(0, 12), min_size=4, max_size=4).filter(sum),
           st.integers(0, 1 << 60))
    @settings(max_examples=60)
    def test_random_roundtrip_medium_blocks(self, counts, seed):
        counts = tuple(counts)
        index = seed % d.multinomial_coefficient(counts)
        seq = d.cc_unrank(index, counts, A4)
        assert d.cc_rank(seq, counts, A4) == index


class TestEssTrellis:
    def test_toy_sequences(self):
        t = d.EssTrellis.build(2, 10.0, A2)
        assert t.total == 3
        assert [t.unrank(i) for i in range(3)] == [
            (1.0, 1.0), (1.0, 3.0), (3.0, 1.0)]

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_exhaustive_roundtrip_all_radii(self, n):
        # every achievable radius: all in-ball sequences in lex order
        energies = sorted({sum(x * x for x in seq)
                           for seq in itertools.product(A2.levels, repeat=n)})
        for e_max in energies:
            t = d.EssTrellis.build(n, e_max, A2)
            ball = sorted(seq for seq in itertools.product(A2.levels, repeat=n)
                          if sum(x * x for x in seq) <= e_max)
            assert t.total == len(ball)
            for i, seq in enumerate(ball):
                assert t.unrank(i) == seq
                assert t.rank(seq) == i

    def test_energy_bound_respected(self):
        t = d.EssTrellis.build(4, 20.0, A2)
        for i in range(t.total):
            assert sum(x * x for x in t.unrank(i)) <= 20.0

    def test_trellis_matches_shell_totals(self):
        for n, k in [(2, 1), (4, 3), (8, 6)]:
            index = shell_index(n, k, A2)
            t = d.EssTrellis.build(n, index.e_max, A2)
            assert t.total == index.cumulative[-1]

    def test_out_of_ball(self):
        t = d.EssTrellis.build(2, 10.0, A2)
        with pytest.raises(DecodeError):
            t.rank((3.0, 3.0))
        with pytest.raises(DecodeError):
            t.unrank(3)


class TestSchemeCodec:
    def test_ccdm_all_words_share_composition(self):
        built = d.build_ccdm(4, 2, A2)
        codec = d.SchemeCodec(built)
        target = built.leaves[0].counts
        seen = set()
        for w in range(4):
            seq = codec.encode(w)
            assert (seq.count(1.0), seq.count(3.0)) == target
            assert codec.decode(seq) == w
            seen.add(seq)
        assert len(seen) == 4

    def test_toy_mpdm_exhaustive(self):
        built = d.build_mpdm(6, 4, A2)
        codec = d.SchemeCodec(built)
        seqs = [codec.encode(w) for w in range(16)]
        assert len(set(seqs)) == 16
        assert [codec.decode(s) for s in seqs] == list(range(16))

    def test_leaf_usage_matches_weights(self):
        built = d.build_mpdm(6, 4, A2)
        codec = d.SchemeCodec(built)
        usage = {l.counts: 0 for l in built.leaves}
        for w in range(16):
            seq = codec.encode(w)
            usage[(seq.count(1.0), seq.count(3.0))] += 1
        for leaf in built.leaves:
            assert usage[leaf.counts] == round(leaf.weight * 16)

    def test_ess_codec_roundtrip(self):
        built = d.build_ess(6, 5, A2)
        codec = d.SchemeCodec(built)
        seqs = [codec.encode(w) for w in range(32)]
        assert len(set(seqs)) == 32
        assert [codec.decode(s) for s in seqs] == list(range(32))
        for s in seqs:
            assert sum(x * x for x in s) <= built.e_max

    def test_decode_rejects_foreign_sequence(self):
        built = d.build_ccdm(4, 2, A2)
        codec = d.SchemeCodec(built)
        with pytest.raises(DecodeError):
            codec.decode((3.0, 3.0, 3.0, 3.0))
        with pytest.raises(DecodeError):
            codec.decode((1.0, 1.0, 1.0))

    def test_randomized_roundtrips_at_scale(self, ccdm216):
        rng = random.Random(99)
        codec = d.SchemeCodec(ccdm216)
        for _ in range(300):
            w = rng.randrange(1 << 349)
            assert codec.decode(codec.encode(w)) == w

    def test_fractional_level_alphabet(self):
        # levels are binary rationals; the exact energy grid keeps sphere
        # membership and the trellis consistent
        af = d.AmplitudeAlphabet((0.5, 1.5, 2.5))
        for built in (d.build_ess(5, 4, af), d.build_mpdm(6, 4, af)):
            codec = d.SchemeCodec(built)
            for w in range(1 << built.k):
                assert codec.decode(codec.encode(w)) == w

    @pytest.mark.parametrize("built_name", ["mpdm216", "opt216"])
    def test_canonical_prefix_validity(self, built_name, request):
        # leaves are stored payload-descending, so each leaf's address block
        # starts at a multiple of its own size: the depth-bit prefix of the
        # start address is a valid canonical prefix code
        built = request.getfixturevalue(built_name)
        start = 0
        for leaf in built.leaves:
            assert start % (1 << leaf.payload_bits) == 0
            start += 1 << leaf.payload_bits


# -- codec properties over small schemes ----------------------------------------

EXHAUSTIVE_BITS = 12  # every word is checked up to 2^12 words, a sample above


@pytest.mark.parametrize("tag", list(BUILDERS))
@settings(max_examples=60, deadline=None)
@given(alphabet=st.sampled_from([A2, A3, A4, d.AmplitudeAlphabet((0.5, 1.5))]),
       n=st.integers(1, 14),
       data=st.data())
def test_codec_round_trips_onto_scheme_leaves(tag, alphabet, n, data):
    k = data.draw(st.integers(0, math.floor(n * math.log2(alphabet.m))),
                  label="k")
    try:
        built = BUILDERS[tag](n, k, alphabet)
    except RateInfeasibleError:
        assume(False)
    codec = d.SchemeCodec(built)
    weights = {leaf.counts: leaf.weight for leaf in built.leaves}
    exhaustive = k <= EXHAUSTIVE_BITS
    if exhaustive:
        words = range(1 << k)
    else:
        words = data.draw(st.lists(st.integers(0, (1 << k) - 1),
                                   min_size=1, max_size=64), label="words")
    usage = dict.fromkeys(weights, 0)
    for w in words:
        seq = codec.encode(w)
        assert codec.decode(seq) == w
        counts = tuple(seq.count(level) for level in alphabet.levels)
        assert counts in weights
        usage[counts] += 1
    # a tree leaf owns exactly weight * 2^k words; the ESS codec walks the
    # ball in lexicographic order, not the shells' energy order, so its
    # words may land on zero-weight shells
    if exhaustive and built.is_tree_addressed:
        assert all(usage[c] == w * (1 << k) for c, w in weights.items())
