import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmshape as d
from dmshape.combinatorics import float_sum
from dmshape.errors import ConstructionBugError
from dmshape.kernels import mc_counts

from oracles import colex_key, enumerate_compositions, multinomial_coefficient

A4 = d.DEFAULT_ALPHABET
A2 = d.AmplitudeAlphabet((1, 3))


def brute_force_mc(counts):
    """Oracle: count sequences over range(m)^n matching the composition."""
    n = sum(counts)
    m = len(counts)
    target = {i: c for i, c in enumerate(counts)}
    hits = 0
    for seq in itertools.product(range(m), repeat=n):
        cnt = Counter(seq)
        if all(cnt.get(i, 0) == target[i] for i in range(m)):
            hits += 1
    return hits


def compositions(n, m):
    return enumerate_compositions(n, d.AmplitudeAlphabet(range(1, m + 1)))


class TestMultinomial:
    def test_examples(self):
        assert mc_counts((1, 1, 1)) == 6
        assert mc_counts((3, 0, 0, 0)) == 1
        # brute-force oracle for the derived example
        assert brute_force_mc((2, 1, 0, 0)) == 3
        assert mc_counts((2, 1, 0, 0)) == 3

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 8) for m in (2, 3)])
    def test_against_brute_force(self, n, m):
        for c in compositions(n, m):
            assert mc_counts(c) == brute_force_mc(c)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 9) for m in (2, 3)])
    def test_total_is_m_to_n(self, n, m):
        assert sum(mc_counts(c) for c in compositions(n, m)) == m ** n


class TestInputBits:
    def test_examples(self):
        assert d.input_bits((3, 0, 0, 0)) == 0
        assert mc_counts((2, 2, 0, 0)) == 6
        assert d.input_bits((2, 2, 0, 0)) == 2

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=5).filter(sum))
    def test_bit_identities(self, counts):
        mc = multinomial_coefficient(counts)
        b = d.input_bits(counts)
        assert b == mc.bit_length() - 1
        assert 2 ** b <= mc < 2 ** (b + 1)


class TestPmfEntropy:
    def test_examples(self):
        assert d.entropy((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)
        assert d.entropy((0, 0, 1, 0)) == 0.0
        assert d.entropy((0.5, 0.25, 0.125, 0.125)) == pytest.approx(1.75)

    def test_point_mass_has_no_sign(self):
        # the rate loss of a k=0 scheme would otherwise print as -0.0
        assert math.copysign(1.0, d.entropy((0.0, 1.0))) == 1.0
        for pmf in ((0.5, 0.5), (0.1, 0.2, 0.3, 0.4), (1 / 3, 2 / 3)):
            assert d.entropy(pmf) == -float_sum(p * math.log2(p) for p in pmf)

    def test_pmf_of(self):
        assert d.pmf_of((1, 1, 2)) == (0.25, 0.25, 0.5)


class TestEnergy:
    def test_examples(self):
        assert d.energy((216, 0, 0, 0), A4) == 216
        assert d.energy((0, 0, 0, 216), A4) == 10584
        assert d.energy((1, 1, 0, 0), A4) == 10


class TestBlockMoments:
    def test_uniform_kurtosis(self):
        mom = d.block_moments((0.25,) * 4, A4)
        # direct moment oracle: mu2 = 21, mu4 = 777 on {1,3,5,7}
        assert mom.mu2_1d == pytest.approx(21.0)
        assert mom.mu4_1d == pytest.approx(777.0)
        assert mom.kurtosis_2d == pytest.approx((777 / 441 + 1) / 2, abs=1e-12)
        assert mom.kurtosis_2d == pytest.approx(1.3810, abs=5e-5)

    def test_uniform_kurtosis_monte_carlo(self):
        # sampling oracle over >= 1e7 random symbol pairs
        import numpy as np
        rng = np.random.default_rng(1234)
        levels = np.array([1.0, 3.0, 5.0, 7.0])
        re = rng.choice(levels, size=10_000_000)
        im = rng.choice(levels, size=10_000_000)
        p2 = re**2 + im**2
        est = float(np.mean(p2**2) / np.mean(p2) ** 2)
        assert d.block_moments((0.25,) * 4, A4).kurtosis_2d == pytest.approx(
            est, abs=3e-3)

    def test_constant_modulus(self):
        mom = d.block_moments((0, 0, 1, 0), A4)
        assert mom.kurtosis_2d == pytest.approx(1.0, abs=1e-12)

    def test_1d_diagnostic_ratio(self):
        mom = d.block_moments((0.25,) * 4, A4)
        assert mom.kurtosis_1d == pytest.approx(mom.mu4_1d / mom.mu2_1d**2)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 7.3])
    def test_scale_invariance(self, scale):
        base = d.block_moments((0.4, 0.3, 0.2, 0.1), A4)
        scaled_alpha = d.AmplitudeAlphabet(tuple(scale * x for x in A4.levels))
        scaled = d.block_moments((0.4, 0.3, 0.2, 0.1), scaled_alpha)
        assert scaled.kurtosis_2d == pytest.approx(base.kurtosis_2d, rel=1e-12)

    @given(st.lists(st.floats(0.01, 1), min_size=4, max_size=4))
    @settings(max_examples=50)
    def test_kurtosis_at_least_one(self, weights):
        z = sum(weights)
        pmf = tuple(w / z for w in weights)
        assert d.block_moments(pmf, A4).kurtosis_2d >= 1.0 - 1e-12

    @pytest.mark.parametrize("lam", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_shaped_exceeds_uniform_kurtosis(self, lam):
        # sub-Gaussian ordering over the operating range of the shaping
        # parameter (the ordering flips for extreme lambda, where the PMF
        # degenerates towards a single level)
        uniform = d.block_moments((0.25,) * 4, A4).kurtosis_2d
        shaped = d.block_moments(d.mb_pmf(lam, A4), A4).kurtosis_2d
        assert shaped > uniform


class TestRateLoss:
    def test_single_composition_nonnegative(self):
        for c in [(2, 2, 0, 0), (5, 3, 1, 1), (10, 0, 0, 0)]:
            k = d.input_bits(c)
            assert d.rate_loss(d.pmf_of(c), k, sum(c)) >= 0

    def test_negative_raises(self):
        # a uniform m=2 distribution cannot carry more than n bits
        with pytest.raises(ConstructionBugError):
            d.rate_loss((0.5, 0.5), 8, 4)


class TestEnumeration:
    def test_colex_order(self):
        assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        assert list(compositions(2, 3)) == [
            (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    @pytest.mark.parametrize("n,m", [(1, 2), (4, 2), (5, 3), (6, 4), (3, 5)])
    def test_count_and_uniqueness(self, n, m):
        seen = set(compositions(n, m))
        assert len(seen) == math.comb(n + m - 1, m - 1)

    def test_predicate_filter(self):
        got = list(enumerate_compositions(
            2, A2, predicate=lambda c: d.energy(c, A2) <= 2))
        assert got == [(2, 0)]

    def test_reference_scale_count(self):
        assert math.comb(219, 3) == 1726669

    def test_reference_scale_stream(self):
        assert sum(1 for _ in enumerate_compositions(216, A4)) == 1726669

    def test_colex_key(self):
        assert sorted([(0, 2), (2, 0), (1, 1)], key=colex_key) == [
            (2, 0), (1, 1), (0, 2)]
