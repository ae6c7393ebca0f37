import itertools
from collections import Counter

import pytest

import dmshape as d
from dmshape.errors import RateInfeasibleError
from dmshape.kernels import mc_counts

A4 = d.DEFAULT_ALPHABET
A2 = d.AmplitudeAlphabet((1, 3))
A8 = d.AmplitudeAlphabet((1, 3, 5, 7, 9, 11, 13, 15))


def brute_force_sequences(n, alphabet):
    """Oracle: every length-n sequence with its energy, over real levels."""
    out = []
    for seq in itertools.product(alphabet.levels, repeat=n):
        out.append((seq, sum(x * x for x in seq)))
    return out


class TestSelectEmax:
    def test_toy_k1(self):
        # energies of the 4 sequences over {1,3} at n=2: {2, 10, 10, 18}
        seqs = brute_force_sequences(2, A2)
        assert sorted(e for _, e in seqs) == [2, 10, 10, 18]
        assert d.select_emax(2, 1, A2) == 10

    def test_toy_k2(self):
        # 2^2 = 4 needs all four sequences
        assert d.select_emax(2, 2, A2) == 18

    def test_minimality_exact(self):
        for n, k in [(2, 1), (2, 2), (4, 3), (6, 5)]:
            e_max = d.select_emax(n, k, A2)
            seqs = brute_force_sequences(n, A2)
            inside = sum(1 for _, e in seqs if e <= e_max)
            below = sum(1 for _, e in seqs if e < e_max)
            assert inside >= 2 ** k > below

    def test_infeasible(self):
        with pytest.raises(RateInfeasibleError):
            d.select_emax(2, 3, A2)


class TestShells:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_match_brute_force(self, n):
        k = n  # full-rate-ish radius
        built = d.build_ess(n, k, A2)
        seqs = brute_force_sequences(n, A2)
        by_comp = Counter()
        for seq, e in seqs:
            if e <= built.e_max:
                comp = (seq.count(1.0), seq.count(3.0))
                by_comp[comp] += 1
        assert {l.counts: mc_counts(l.counts)
                for l in built.leaves} == dict(by_comp)
        # energy-sorted; at k = n every sequence is used, so every shell
        # in full
        energies = [d.energy(l.counts, A2) for l in built.leaves]
        assert energies == sorted(energies)
        assert [l.used_count for l in built.leaves] == \
            [mc_counts(l.counts) for l in built.leaves]


class TestBuildEss:
    def test_toy_weights(self):
        built = d.build_ess(2, 1, A2)
        assert [(l.counts, l.used_count) for l in built.leaves] == [
            ((2, 0), 1), ((1, 1), 1)]
        assert [l.weight for l in built.leaves] == [0.5, 0.5]

    def test_used_conservation(self):
        for n, k in [(2, 1), (2, 2), (6, 5), (8, 6)]:
            built = d.build_ess(n, k, A2)
            assert sum(l.used_count for l in built.leaves) == 1 << k
            assert all(d.energy(l.counts, A2) <= built.e_max + 1e-9
                       for l in built.leaves)

    def test_weights_sum(self):
        built = d.build_ess(8, 6, A2)
        assert sum(l.weight for l in built.leaves) == pytest.approx(1.0, abs=1e-12)

    def test_kurtosis_range_includes_constant_block(self):
        # the all-ones shell is always inside the sphere: kurtosis exactly 1
        built = d.build_ess(4, 3, A2)
        assert built.leaves[0].counts == (4, 0)
        kmin, _ = built.kurtosis_range()
        assert kmin == pytest.approx(1.0, abs=1e-12)

    def test_toy_range_three_shells(self):
        built = d.build_ess(2, 2, A2)
        carried = [l.counts for l in built.leaves if l.weight > 0]
        assert carried == [(2, 0), (1, 1), (0, 2)]
        kmin, kmax = built.kurtosis_range()
        assert kmin == pytest.approx(1.0, abs=1e-12)
        assert kmax > kmin

    def test_reference_scale(self, ess216):
        assert abs(ess216.n_compositions - 108066) <= 0.01 * 108066
        assert ess216.rate_loss == pytest.approx(0.014, abs=0.003)
        assert sum(l.used_count for l in ess216.leaves) == 1 << 349

    def test_pruned_scan_matches_full_scan(self, ess216):
        # the radius-pruned shell walk must agree with the exhaustive
        # per-energy composition counts
        from dmshape import kernels
        units, scale = A4.integer_energies()
        e_int = round(ess216.e_max / float(scale))
        _totals, ncomp = kernels.energy_totals(216, units)
        assert ess216.n_compositions == sum(ncomp[: e_int + 1])

    def test_eight_levels(self):
        # 256-QAM amplitudes: the walk visits only the sweeps inside the
        # radius, not the 9.4M sweeps of the whole simplex
        built = d.build_ess(40, 75, A8)
        assert built.n_compositions == 16536
        assert sum(l.used_count for l in built.leaves) == 1 << 75

    def test_wider_than_mpdm(self, ess216, mpdm216):
        ek = ess216.kurtosis_range()
        mk = mpdm216.kurtosis_range()
        assert ek[0] < mk[0] and ek[1] > mk[1]
