import hashlib
import itertools
import math
import random
import statistics

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dmshape as d
from dmshape.errors import DecodeError, RateInfeasibleError
from dmshape.kernels import mc_counts
from dmshape.optimizer import BUILDERS

from oracles import EssTrellis, level_split_arrangements

A4 = d.DEFAULT_ALPHABET
A2 = d.AmplitudeAlphabet((1, 3))
A3 = d.AmplitudeAlphabet((1, 2, 3))


def split_arrangements(counts, alphabet):
    """Oracle: all arrangements of the composition in the level-split order."""
    return [tuple(alphabet.levels[i] for i in seq)
            for seq in level_split_arrangements(counts)]


class TestCcRankUnrank:
    def test_toy_examples(self):
        assert d.cc_unrank(0, (1, 1), A2) == (1.0, 3.0)
        assert d.cc_unrank(1, (1, 1), A2) == (3.0, 1.0)
        # brute-force level-split enumeration of {(1,1,3),(1,3,1),(3,1,1)}:
        # the lone 3 is the smaller subset, ranked by its position
        assert split_arrangements((2, 1), A2)[2] == (1.0, 1.0, 3.0)
        assert d.cc_unrank(2, (2, 1), A2) == (1.0, 1.0, 3.0)

    @pytest.mark.parametrize("alphabet,n", [(A2, 6), (A2, 8), (A3, 5), (A3, 7)])
    def test_exhaustive_bijection(self, alphabet, n):
        for counts in d.enumerate_compositions(n, alphabet):
            mc = d.multinomial_coefficient(counts)
            seqs = [d.cc_unrank(i, counts, alphabet) for i in range(mc)]
            assert seqs == split_arrangements(counts, alphabet)
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
    def test_trellis_matches_shell_totals(self):
        for n, k in [(2, 1), (4, 3), (8, 6)]:
            built = d.build_ess(n, k, A2)
            t = EssTrellis.build(n, built.e_max, A2)
            assert t.total == sum(map(mc_counts, built.leaves.counts.tolist()))


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

    def test_ess_used_counts_are_immutable(self):
        built = d.build_ess(6, 4, A2)
        codec = d.SchemeCodec(built)
        with pytest.raises(TypeError):
            built.leaves.used_counts[1] = 7
        for name in ("counts", "weights", "payload_bits", "depth",
                     "used_counts"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(built.leaves, name, getattr(built.leaves, name))
        with pytest.raises(AttributeError, match="read-only"):
            built.leaves.used_counts = (16, 0, 0)
        # word 1 is rank 0 of shell 5,1: its lone 3 at position 0
        assert codec.encode(1) == (3, 1, 1, 1, 1, 1)

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
        # membership exact
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


ORACLE_WORDS = 3000


@pytest.mark.parametrize("built_name", ["ccdm216", "mpdm216", "ess216", "opt216"])
def test_codec_agrees_with_analyze(built_name, model216, request):
    # the codec emits each composition as often as its weight says, so the
    # mean SNR of seeded words estimates analyze's weighted average
    built = request.getfixturevalue(built_name)
    report = d.analyze(built, model216)
    snr = {e.counts: e.snr_db for e in report.entries}
    weights = {leaf.counts: leaf.weight for leaf in built.leaves}
    codec = d.SchemeCodec(built)
    rng = random.Random(2024)
    snrs = []
    for _ in range(ORACLE_WORDS):
        seq = codec.encode(rng.getrandbits(built.k))
        counts = tuple(seq.count(level) for level in built.alphabet.levels)
        assert weights[counts] > 0
        snrs.append(snr[counts])
    if built.n_compositions == 1:
        assert set(snrs) == {report.avg_db}
        return
    se = statistics.stdev(snrs) / math.sqrt(len(snrs))
    z = (statistics.fmean(snrs) - report.avg_db) / se
    assert abs(z) <= 4, f"mean SNR {z:+.1f} standard errors from analyze"


# sha256 of the sequences of 500 words from random.Random(7) per scheme,
# one line of comma-separated amplitude reprs per word; each word's rank in
# its leaf equals oracles.level_split_rank of its sequence
CODEC_MAP_SHA256 = {
    "ccdm216": "4b5cf96b552ef783588c612840df2a2ab0223524369bb48e84d6b61e1e76377b",
    "mpdm216": "28d6cf4068dff81f136a1d187fe6ff75680dc7f9ed86acb51ba3b762472fdea3",
    "ess216": "1010bbc5de9bee66d2748b535b26ac8556b08911b721150474fc3e317fe65b76",
    "opt216": "49712db8e72405a71e9b509ac8277b7895b63d65e7a31f8ba2fccb1fe169b500",
}


@pytest.mark.parametrize("built_name", sorted(CODEC_MAP_SHA256))
def test_codec_maps_pinned(built_name, request):
    built = request.getfixturevalue(built_name)
    codec = d.SchemeCodec(built)
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(500):
        word = rng.getrandbits(built.k)
        seq = codec.encode(word)
        assert codec.decode(seq) == word
        digest.update((",".join(map(repr, seq)) + "\n").encode())
    assert digest.hexdigest() == CODEC_MAP_SHA256[built_name]


def test_decode_refuses_zero_weight_shell(ess216):
    codec = d.SchemeCodec(ess216)
    unused = [leaf for leaf in ess216.leaves if leaf.used_count == 0]
    assert unused
    for leaf in (unused[0], unused[-1]):
        seq = d.cc_unrank(0, leaf.counts, ess216.alphabet)
        with pytest.raises(DecodeError,
                           match="rank beyond the leaf's used words"):
            codec.decode(seq)
    # the crossing shell is used in part: its last used rank decodes, the
    # next is refused
    part = next(leaf for leaf in ess216.leaves
                if 0 < leaf.used_count < d.multinomial_coefficient(leaf.counts))
    last = d.cc_unrank(part.used_count - 1, part.counts, ess216.alphabet)
    codec.decode(last)
    with pytest.raises(DecodeError, match="rank beyond the leaf's used words"):
        codec.decode(d.cc_unrank(part.used_count, part.counts,
                                 ess216.alphabet))


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
    emitted = set()
    for w in words:
        seq = codec.encode(w)
        assert codec.decode(seq) == w
        counts = tuple(seq.count(level) for level in alphabet.levels)
        assert counts in weights
        usage[counts] += 1
        emitted.add(seq)
    if not exhaustive:
        return
    # every leaf, tree or ESS, owns exactly weight * 2^k words
    assert all(usage[c] == w * (1 << k) for c, w in weights.items())
    if alphabet.m ** n <= 1 << EXHAUSTIVE_BITS:
        # decode refuses exactly the sequences encode never emits: foreign
        # compositions and ranks at or beyond a leaf's used words
        for seq in set(itertools.product(alphabet.levels, repeat=n)) - emitted:
            with pytest.raises(DecodeError):
                codec.decode(seq)
