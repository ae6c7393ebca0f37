import pytest

import dmshape as d
from dmshape.config import parse_config
from dmshape.errors import CalibrationError, SchemeFileError

from oracles import w_to_dbm


class TestParsing:
    def test_defaults(self):
        cfg = parse_config(None)
        assert cfg.link.gamma_per_w_km == 1.3
        assert cfg.link.beta2_ps2_per_km == -21.8
        assert cfg.link.n_spans == 30
        assert cfg.wdm.n_channels == 11
        assert cfg.wdm.symbol_rate_gbaud == 45.0
        assert cfg.anchor1_kurtosis == 1.82
        assert cfg.anchor2_snr_db == 14.44

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "n_spans = 10\n"
            "nf_db=6\n"
            "launch_power_dbm=-1\n"
            "anchor2_kurtosis=1.6\n")
        cfg = parse_config(str(path))
        assert cfg.link.n_spans == 10
        assert cfg.link.nf_db == 6.0
        assert cfg.launch_power_dbm == -1.0
        assert cfg.anchor2_kurtosis == 1.6

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus=1\n")
        with pytest.raises(SchemeFileError):
            parse_config(str(path))

    def test_invalid_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_channels=4\n")  # must be odd
        with pytest.raises(SchemeFileError):
            parse_config(str(path))


class TestModelResolution:
    def test_launch_power_default_is_gn_optimum(self):
        cfg = parse_config(None)
        ase = d.ase_variance(cfg.link, cfg.wdm)
        eta0 = d.gn_eta0(cfg.link, cfg.wdm)
        assert cfg.launch_power_w() == pytest.approx(
            d.optimal_power(ase, eta0), rel=1e-12)
        assert w_to_dbm(cfg.launch_power_w()) == pytest.approx(-0.4, abs=1.0)

    def test_eta_override_mode(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta0=15000\neta1=8000\n")
        model = parse_config(str(path)).resolve_model()
        assert model.eta0 == 15000 and model.eta1 == 8000

    def test_eta1_only_uses_gn_baseline(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta1=8000\n")
        cfg = parse_config(str(path))
        model = cfg.resolve_model()
        assert model.eta0 == pytest.approx(d.gn_eta0(cfg.link, cfg.wdm))
        assert model.eta1 == 8000

    def test_calibration_requires_second_anchor(self):
        cfg = parse_config(None)
        with pytest.raises(CalibrationError):
            cfg.resolve_model()

    def test_anchor_calibration(self):
        cfg = parse_config(None)
        model = cfg.resolve_model(anchor2_kurtosis=1.6)
        assert d.snr_eff(1.82, model) == pytest.approx(14.26, abs=1e-9)
        assert d.snr_eff(1.6, model) == pytest.approx(14.44, abs=1e-9)


class TestReferenceAnchors:
    def test_model_reproduces_both_anchors(self, mpdm216, model216):
        kmin, _ = mpdm216.kurtosis_range()
        assert d.snr_eff(1.82, model216) == pytest.approx(14.26, abs=1e-9)
        assert d.snr_eff(kmin, model216) == pytest.approx(14.44, abs=1e-9)

    def test_mpdm_average_snr(self, mpdm216, model216):
        rep = d.analyze(mpdm216, model216)
        assert rep.avg_db == pytest.approx(14.17, abs=0.15)

    def test_comparison_rows_at_reference(self, ccdm216, mpdm216, ess216,
                                          opt216, model216):
        rows = d.compare_schemes(
            216, 349, model216,
            built={"ccdm": ccdm216, "mpdm": mpdm216, "ess": ess216,
                   "opt-mpdm": opt216})
        by = {r.scheme: r for r in rows}
        assert by["ccdm"].n_compositions == 1
        assert by["ccdm"].rate_loss == pytest.approx(0.053, abs=0.005)
        assert by["ccdm"].p2p_db == 0.0
        assert by["opt-mpdm"].p2p_db < by["mpdm"].p2p_db
        assert by["ess"].min_snr_db == min(r.min_snr_db for r in rows)
        assert by["opt-mpdm"].avg_snr_db > by["mpdm"].avg_snr_db
        assert by["opt-mpdm"].min_snr_db > by["mpdm"].min_snr_db
