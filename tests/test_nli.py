import dataclasses
import math

import pytest

import dmshape as d
from dmshape.errors import CalibrationError, ModelDomainError
from dmshape.schemes import LeafTable

from oracles import w_to_dbm

LINK = d.LinkConfig()
WDM = d.WdmConfig()


def oracle_ase():
    """Hand evaluation of the closed form with h*nu = 1.281e-19 J at 1550 nm."""
    return 30 * 10 ** 0.5 * 1.281e-19 * (10 ** 1.6 - 1) * 45e9


def oracle_eta0(n_spans=30, n_channels=11):
    """Independent evaluation of the incoherent GN closed form."""
    alpha = 0.2 / (10 * math.log10(math.e)) / 1e3
    leff = (1 - math.exp(-alpha * 80e3)) / alpha
    lasym = 1 / alpha
    gamma, beta2, bw, df = 1.3e-3, 21.8e-27, 45e9, 50e9
    bracket = math.asinh(math.pi ** 2 / 2 * beta2 * lasym * bw ** 2)
    for i in range(1, (n_channels - 1) // 2 + 1):
        bracket += 2 * math.log((i * df + bw / 2) / (i * df - bw / 2))
    return n_spans * (8 / 27) * (gamma * leff) ** 2 \
        / (math.pi * beta2 * lasym * bw ** 2) * bracket


class TestAse:
    def test_against_hand_oracle(self):
        assert d.ase_variance(LINK, WDM) == pytest.approx(oracle_ase(), rel=0.05)
        assert w_to_dbm(d.ase_variance(LINK, WDM)) == pytest.approx(-16.7, abs=0.3)

    def test_linear_in_spans(self):
        double = d.LinkConfig(n_spans=60)
        assert d.ase_variance(double, WDM) == pytest.approx(
            2 * d.ase_variance(LINK, WDM), rel=1e-12)

    def test_noise_figure_scaling(self):
        bumped = d.LinkConfig(nf_db=8.0)
        assert d.ase_variance(bumped, WDM) / d.ase_variance(LINK, WDM) == \
            pytest.approx(10 ** 0.3, rel=1e-12)


class TestGnEta0:
    def test_against_independent_evaluation(self):
        assert d.gn_eta0(LINK, WDM) == pytest.approx(oracle_eta0(), rel=1e-9)
        assert d.gn_eta0(LINK, WDM) == pytest.approx(1.5e4, rel=0.1)

    def test_single_channel_is_asinh_only(self):
        solo = d.WdmConfig(n_channels=1)
        assert d.gn_eta0(LINK, solo) == pytest.approx(
            oracle_eta0(n_channels=1), rel=1e-9)
        assert d.gn_eta0(LINK, solo) < d.gn_eta0(LINK, WDM)

    def test_doubles_with_spans(self):
        double = d.LinkConfig(n_spans=60)
        assert d.gn_eta0(double, WDM) == pytest.approx(
            2 * d.gn_eta0(LINK, WDM), rel=1e-12)

    def test_narrow_spacing_rejected(self):
        with pytest.raises((ModelDomainError, ValueError)):
            d.gn_eta0(LINK, d.WdmConfig(spacing_ghz=40.0, rolloff=0.0))


class TestSnrEff:
    def model(self, eta0=1.5e4, eta1=8e3):
        ase = d.ase_variance(LINK, WDM)
        power = d.optimal_power(ase, eta0)
        return d.NliModel(eta0=eta0, eta1=eta1, ase_variance_w=ase,
                          launch_power_w=power)

    def test_gaussian_equals_baseline(self):
        m = self.model()
        p = m.launch_power_w
        baseline = 10 * math.log10(p / (m.ase_variance_w + m.eta0 * p ** 3))
        assert d.snr_eff(2.0, m) == pytest.approx(baseline, abs=1e-12)

    def test_monotone_decreasing_in_kurtosis(self):
        m = self.model()
        grid = [1.0 + 0.05 * i for i in range(21)]
        snrs = [d.snr_eff(q, m) for q in grid]
        assert all(a > b for a, b in zip(snrs, snrs[1:]))

    def test_low_kurtosis_beats_high(self):
        m = self.model()
        assert d.snr_eff(1.0, m) > d.snr_eff(1.5, m)

    def test_domain_error(self):
        # eta = 1.5e4 + 1e9 * (1.0 - 2) is negative at constant modulus
        m = d.NliModel(eta0=1.5e4, eta1=1e9,
                       ase_variance_w=2e-5, launch_power_w=1e-3)
        with pytest.raises(ModelDomainError, match="kurtosis 1.0"):
            d.snr_eff(1.0, m)

    @pytest.mark.parametrize("fields,reason", [
        (dict(eta1=-1.0), "need eta0 > 0 and eta1 >= 0, got 15000.0, -1.0"),
        (dict(launch_power_w=0.0), "ASE variance and launch power must be "
                                   "positive, got 2e-05 W and 0.0 W"),
    ])
    def test_model_outside_domain_is_refused(self, fields, reason):
        values = dict(eta0=1.5e4, eta1=8e3, ase_variance_w=2e-5,
                      launch_power_w=1e-3) | fields
        with pytest.raises(ModelDomainError) as info:
            d.NliModel(**values)
        assert str(info.value) == reason


class TestCalibrate:
    def test_two_point_exact(self):
        ase = d.ase_variance(LINK, WDM)
        power = d.optimal_power(ase, d.gn_eta0(LINK, WDM))
        m = d.calibrate([(1.82, 14.26), (1.60, 14.44)], ase, power)
        assert d.snr_eff(1.82, m) == pytest.approx(14.26, abs=1e-9)
        assert d.snr_eff(1.60, m) == pytest.approx(14.44, abs=1e-9)

    def test_duplicate_kurtosis_rejected(self):
        with pytest.raises(CalibrationError):
            d.calibrate([(1.8, 14.0), (1.8, 14.5)], 2e-5, 1e-3)

    def test_roundtrip_recovery(self):
        truth = d.NliModel(eta0=1.9e4, eta1=9e3, ase_variance_w=2.1e-5,
                           launch_power_w=9e-4)
        anchors = [(q, d.snr_eff(q, truth)) for q in (1.3, 1.7, 1.9, 2.2)]
        fit = d.calibrate(anchors, truth.ase_variance_w, truth.launch_power_w)
        assert fit.eta0 == pytest.approx(truth.eta0, rel=1e-10)
        assert fit.eta1 == pytest.approx(truth.eta1, rel=1e-10)

    def test_unphysical_rejected(self):
        # anchors demanding negative NLI power
        with pytest.raises(CalibrationError):
            d.calibrate([(1.8, 40.0), (1.6, 41.0)], 2e-5, 1e-3)

    @pytest.mark.parametrize("snr_db", [1e308, -1e308])
    def test_anchor_snr_outside_float_range(self, snr_db):
        with pytest.raises(CalibrationError) as info:
            d.calibrate([(1.8, 14.0), (1.6, snr_db)], 2e-5, 1e-3)
        assert str(info.value) == \
            f"anchor2_snr_db={snr_db!r} is outside the float range as a ratio"


class TestOptimalPower:
    def test_sweep_oracle(self):
        ase = d.ase_variance(LINK, WDM)
        eta0 = d.gn_eta0(LINK, WDM)
        p_opt = d.optimal_power(ase, eta0)

        def snr(p):
            return 10 * math.log10(p / (ase + eta0 * p ** 3))

        best = max(snr(p_opt * 10 ** (s / 100.0)) for s in range(-61, 62))
        assert snr(p_opt) == pytest.approx(best, abs=1e-4)
        assert w_to_dbm(p_opt) == pytest.approx(-0.4, abs=1.0)

    def test_cube_root_scaling(self):
        assert d.optimal_power(8 * 2e-5, 1.5e4) == pytest.approx(
            2 * d.optimal_power(2e-5, 1.5e4), rel=1e-12)

    def test_nli_is_half_ase_at_optimum(self):
        ase, eta0 = 2e-5, 1.5e4
        p = d.optimal_power(ase, eta0)
        assert eta0 * p ** 3 == pytest.approx(ase / 2, rel=1e-12)

    def test_gn_optimum_near_reference_snr(self):
        ase = d.ase_variance(LINK, WDM)
        eta0 = d.gn_eta0(LINK, WDM)
        p = d.optimal_power(ase, eta0)
        snr = 10 * math.log10(p / (ase + eta0 * p ** 3))
        assert snr == pytest.approx(14.3, abs=1.0)


class TestAnalyze:
    def toy_model(self):
        return d.NliModel(eta0=1.5e4, eta1=8e3, ase_variance_w=2e-5,
                          launch_power_w=1e-3)

    def test_report_invariants(self):
        built = d.build_mpdm(8, 5, d.AmplitudeAlphabet((1, 3)))
        rep = d.analyze(built, self.toy_model())
        assert sum(e.weight for e in rep.entries) == pytest.approx(1.0, abs=1e-9)
        assert rep.min_db <= rep.avg_db <= rep.max_db
        assert rep.p2p_db == pytest.approx(rep.max_db - rep.min_db)
        cdf_w = [w for _, w in rep.cdf()]
        assert all(a <= b for a, b in zip(cdf_w, cdf_w[1:]))
        assert cdf_w[-1] == pytest.approx(1.0, abs=1e-9)
        assert sum(w for _, w in rep.histogram(0.01)) == \
            pytest.approx(1.0, abs=1e-9)

    def test_single_leaf_degenerate(self):
        built = d.build_ccdm(4, 2, d.AmplitudeAlphabet((1, 3)))
        rep = d.analyze(built, self.toy_model())
        assert len(rep.entries) == 1
        assert rep.p2p_db == 0.0
        assert len(rep.histogram(0.01)) == 1

    def test_order_independence(self):
        built = d.build_mpdm(8, 5, d.AmplitudeAlphabet((1, 3)))
        rep = d.analyze(built, self.toy_model())
        t = built.leaves
        reversed_leaves = LeafTable(t.counts[::-1], t.weights[::-1],
                                    payload_bits=t.payload_bits[::-1],
                                    depth=t.depth[::-1])
        shuffled = dataclasses.replace(built, leaves=reversed_leaves)
        rep2 = d.analyze(shuffled, self.toy_model())
        assert rep2.min_db == pytest.approx(rep.min_db, abs=1e-12)
        assert rep2.max_db == pytest.approx(rep.max_db, abs=1e-12)
        assert rep2.avg_db == pytest.approx(rep.avg_db, abs=1e-12)
        assert sorted(rep2.histogram(0.01)) == \
            pytest.approx(sorted(rep.histogram(0.01)))

    def test_zero_weight_leaves_excluded(self, ess216, model216):
        rep = d.analyze(ess216, model216)
        carried = sum(1 for l in ess216.leaves if l.weight > 0)
        assert len(rep.entries) == carried
