"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its measured runtime.  The reference workload is n=216,
k=349 on the {1,3,5,7} alphabet with the default link configuration; the
heavy schemes are session fixtures shared with the rest of the suite.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

import dmshape as d
from dmshape.codec import SchemeCodec
from dmshape.kernels import mc_counts
from dmshape.schemefile import scheme_to_text

from oracles import EssTrellis, enumerate_compositions

A4 = d.DEFAULT_ALPHABET
A2 = d.AmplitudeAlphabet((1, 3))


def report(criterion, elapsed, budget_s, detail):
    assert elapsed < budget_s, f"criterion {criterion} exceeded {budget_s}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_combinatorics_oracle():
    t0 = time.time()
    for m in (2, 3):
        alphabet = d.AmplitudeAlphabet(range(1, m + 1))
        for n in range(1, 9):
            total = 0
            for counts in enumerate_compositions(n, alphabet):
                mc = mc_counts(counts)
                hits = sum(
                    1 for seq in itertools.product(range(m), repeat=n)
                    if tuple(Counter(seq).get(i, 0) for i in range(m)) == counts)
                assert mc == hits
                total += mc
            assert total == m ** n
    report(1, time.time() - t0, 10,
           "sum MC == m^n and brute-force parity for n<=8, m<=3")


def test_criterion_2_codec_bijectivity(ccdm216, mpdm216, ess216):
    t0 = time.time()
    # exhaustive at small scale, m=2
    cases = [(4, 2), (5, 3), (6, 4), (7, 5), (8, 6)]
    for n, k in cases:
        for builder in (d.build_ccdm, d.build_mpdm, d.build_ess):
            codec = SchemeCodec(builder(n, k, A2))
            seen = set()
            for w in range(1 << k):
                seq = codec.encode(w)
                assert codec.decode(seq) == w
                seen.add(seq)
            assert len(seen) == 1 << k
    # randomized at the reference scale
    rng = random.Random(2024)
    splits = [(ccdm216, 40_000), (mpdm216, 30_000), (ess216, 30_000)]
    for built, trials in splits:
        codec = SchemeCodec(built)
        for _ in range(trials):
            w = rng.randrange(1 << 349)
            assert codec.decode(codec.encode(w)) == w
    report(2, time.time() - t0, 120,
           "exhaustive n<=8 m=2 and 1e5 randomized round-trips at n=216")


def test_criterion_3_ess_table1(ess216):
    t0 = time.time()
    assert abs(ess216.n_compositions - 108066) <= 0.01 * 108066
    assert ess216.rate_loss == pytest.approx(0.014, abs=0.003)
    # the scheme holds every shell inside the radius, used or not
    shell_sum = sum(map(mc_counts, ess216.leaves.counts.tolist()))
    trellis = EssTrellis.build(216, ess216.e_max, A4)
    assert trellis.total == shell_sum
    report(3, time.time() - t0, 900,
           f"{ess216.n_compositions} shells, rate loss "
           f"{ess216.rate_loss:.4f}, trellis total == shell sum exactly")


def test_criterion_4_ccdm_table1(ccdm216):
    t0 = time.time()
    assert ccdm216.n_compositions == 1
    target = ccdm216.leaves[0].counts
    assert d.input_bits(target) >= 349
    assert ccdm216.rate_loss == pytest.approx(0.053, abs=0.005)
    kurt = d.block_moments(d.pmf_of(target), A4).kurtosis_2d
    assert kurt == pytest.approx(1.82, abs=0.03)
    report(4, time.time() - t0, 60,
           f"composition {target}, rate loss {ccdm216.rate_loss:.4f}, "
           f"kurtosis {kurt:.4f}")


def test_criterion_5_mpdm_table1(mpdm216):
    t0 = time.time()
    assert sum(1 << l.payload_bits for l in mpdm216.leaves) == 1 << 349
    assert mpdm216.rate_loss == pytest.approx(0.02, abs=0.005)
    assert 1500 <= mpdm216.n_compositions <= 3000
    report(5, time.time() - t0, 600,
           f"{mpdm216.n_compositions} compositions, rate loss "
           f"{mpdm216.rate_loss:.4f}, address space exactly 2^349")


def test_criterion_6_snr_physics(config_default):
    t0 = time.time()
    link, wdm = config_default.link, config_default.wdm
    ase = d.ase_variance(link, wdm)
    oracle = 30 * 10 ** 0.5 * 1.281e-19 * (10 ** 1.6 - 1) * 45e9
    assert ase == pytest.approx(oracle, rel=0.05)
    eta0 = d.gn_eta0(link, wdm)
    p_opt = d.optimal_power(ase, eta0)
    snr = 10 * math.log10(p_opt / (ase + eta0 * p_opt ** 3))
    assert snr == pytest.approx(14.3, abs=1.0)
    report(6, time.time() - t0, 1,
           f"GN optimum {snr:.2f} dB vs reference 14.26 dB, "
           f"ASE {ase:.3e} W within 5% of hand value")


def test_criterion_7_calibrated_statistics(mpdm216, ess216, model216):
    t0 = time.time()
    rm = d.analyze(mpdm216, model216)
    assert rm.p2p_db == pytest.approx(0.41, abs=0.05)
    re_ = d.analyze(ess216, model216)
    assert re_.p2p_db == pytest.approx(3.47, abs=0.7)
    assert re_.min_db < 13.0
    report(7, time.time() - t0, 1200,
           f"MPDM p2p {rm.p2p_db:.3f} dB, ESS p2p {re_.p2p_db:.3f} dB, "
           f"ESS min {re_.min_db:.2f} dB")


def test_criterion_8_optimizer(mpdm216, opt216, model216):
    t0 = time.time()
    rm = d.analyze(mpdm216, model216)
    ro = d.analyze(opt216, model216)
    assert ro.p2p_db < rm.p2p_db
    assert ro.min_db - rm.min_db > 0
    assert ro.avg_db - rm.avg_db > 0
    assert 20 <= opt216.n_compositions <= 400
    assert opt216.n_compositions < mpdm216.n_compositions
    assert sum(1 << l.payload_bits for l in opt216.leaves) == 1 << 349
    base = d.build_mpdm(216, 350, A4)
    assert opt216.kurtosis_range()[1] <= base.kurtosis_range()[1]
    stretch_p2p = abs(ro.p2p_db - 0.13) <= 0.1
    stretch_avg = abs(ro.avg_db - 14.31) <= 0.1
    report(8, time.time() - t0, 1200,
           f"{opt216.n_compositions} compositions, p2p {ro.p2p_db:.3f} vs "
           f"{rm.p2p_db:.3f}, min +{ro.min_db - rm.min_db:.3f}, "
           f"avg +{ro.avg_db - rm.avg_db:.3f} dB; stretch targets "
           f"p2p={'hit' if stretch_p2p else 'miss'} "
           f"avg={'hit' if stretch_avg else 'miss'}")


def test_criterion_9_property_suite(ccdm216, mpdm216, ess216, opt216, model216):
    t0 = time.time()
    # Kraft equality + address conservation on every built scheme
    for built in (ccdm216, mpdm216, opt216):
        depths = [l.depth for l in built.leaves]
        dmax = max(depths)
        assert sum(1 << (dmax - dd) for dd in depths) == 1 << dmax
        assert sum(1 << l.payload_bits for l in built.leaves) == 1 << built.k
    assert sum(l.used_count for l in ess216.leaves) == 1 << ess216.k
    # kurtosis scale invariance
    pmf = (0.45, 0.3, 0.15, 0.1)
    base = d.block_moments(pmf, A4).kurtosis_2d
    for s in (0.5, 7.3):
        scaled = d.AmplitudeAlphabet(tuple(s * x for x in A4.levels))
        assert d.block_moments(pmf, scaled).kurtosis_2d == pytest.approx(
            base, rel=1e-12)
    # SNR monotone decreasing in kurtosis
    snrs = [d.snr_eff(1.0 + 0.1 * i, model216) for i in range(11)]
    assert all(a > b for a, b in zip(snrs, snrs[1:]))
    # weight conservation in every report
    for built in (ccdm216, mpdm216, ess216, opt216):
        rep = d.analyze(built, model216)
        assert sum(e.weight for e in rep.entries) == pytest.approx(1.0, abs=1e-9)
    # deterministic rebuild byte-equality
    assert scheme_to_text(d.build_ccdm(216, 349, A4)) == scheme_to_text(ccdm216)
    assert scheme_to_text(d.build_mpdm(8, 5, A2)) == \
        scheme_to_text(d.build_mpdm(8, 5, A2))
    assert scheme_to_text(d.build_ess(8, 6, A2)) == \
        scheme_to_text(d.build_ess(8, 6, A2))
    report(9, time.time() - t0, 300,
           "Kraft/address conservation, scale invariance, SNR monotonicity, "
           "weight conservation, byte-stable rebuilds")
