import bisect
import csv
import time
import warnings

import pytest

from dmshape import kernels
from dmshape.cli import main
from dmshape.combinatorics import AmplitudeAlphabet
from dmshape.mpdm import build_mpdm

TOY = ["--n", "6", "--k", "4", "--alphabet", "1,3"]


def eta_config(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("eta0=15000\neta1=8000\nlaunch_power_dbm=0\n")
    return str(cfg)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestBuild:
    def test_toy_schemes(self, tmp_path, capsys):
        for scheme in ("ccdm", "mpdm", "ess"):
            out = tmp_path / f"{scheme}.scheme"
            assert main(["build", "--scheme", scheme, *TOY,
                         "--out", str(out)]) == 0
            assert out.exists()
        assert "compositions=" in capsys.readouterr().out

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.scheme", tmp_path / "b.scheme"
        for out in (a, b):
            assert main(["build", "--scheme", "mpdm", *TOY,
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scheme", ["ccdm", "mpdm", "ess"])
    def test_zero_rate_loss_has_no_sign(self, tmp_path, capsys, scheme):
        # a k=0 scheme is one point mass, whose entropy is +0.0
        out = tmp_path / "k0.scheme"
        assert main(["build", "--scheme", scheme, "--n", "4", "--k", "0",
                     "--alphabet", "1,3", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(" rate_loss=0.0000\n")
        assert "rate_loss=0.0\n" in out.read_text()

    def test_infeasible_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.scheme"
        rc = main(["build", "--scheme", "ccdm", "--n", "4", "--k", "9",
                   "--alphabet", "1,3", "--out", str(out)])
        assert rc == 1
        assert "dmshape:" in capsys.readouterr().err

    def test_reference_ccdm_build(self, tmp_path, capsys):
        out = tmp_path / "ccdm216.scheme"
        assert main(["build", "--scheme", "ccdm", "--n", "216", "--k", "349",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "leaves=1" in text
        capsys.readouterr()

    def test_reference_ess_build(self, tmp_path, capsys):
        out = tmp_path / "ess216.scheme"
        assert main(["build", "--scheme", "ess", "--n", "216", "--k", "349",
                     "--out", str(out)]) == 0
        header = out.read_text().split("leaves=", 1)[1]
        n_leaves = int(header.splitlines()[0])
        assert abs(n_leaves - 108066) <= 0.01 * 108066
        capsys.readouterr()


class TestAnalyze:
    def test_csv_outputs(self, tmp_path, capsys):
        scheme = tmp_path / "m.scheme"
        assert main(["build", "--scheme", "mpdm", *TOY, "--out", str(scheme)]) == 0
        prefix = str(tmp_path / "report")
        assert main(["analyze", str(scheme), "--config", eta_config(tmp_path),
                     "--out", prefix]) == 0
        scatter = read_csv(prefix + "_scatter.csv")
        assert scatter[0] == ["composition", "kurtosis", "snr_db", "weight"]
        weights = [float(r[3]) for r in scatter[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        hist = read_csv(prefix + "_histogram.csv")
        assert hist[0] == ["bin_center_db", "weight"]
        cdf = read_csv(prefix + "_cdf.csv")
        assert cdf[0] == ["snr_db", "cumulative_weight"]
        assert float(cdf[-1][1]) == pytest.approx(1.0, abs=1e-9)
        agg = read_csv(prefix + "_aggregates.csv")
        assert agg[0] == ["min_snr_db", "max_snr_db", "avg_snr_db", "p2p_db"]
        mn, mx, avg, p2p = map(float, agg[1])
        assert mn <= avg <= mx and p2p == pytest.approx(mx - mn)

    def test_ccdm_single_row(self, tmp_path):
        scheme = tmp_path / "c.scheme"
        assert main(["build", "--scheme", "ccdm", *TOY, "--out", str(scheme)]) == 0
        prefix = str(tmp_path / "c")
        assert main(["analyze", str(scheme), "--config", eta_config(tmp_path),
                     "--out", prefix]) == 0
        assert len(read_csv(prefix + "_scatter.csv")) == 2
        assert len(read_csv(prefix + "_histogram.csv")) == 2
        assert float(read_csv(prefix + "_aggregates.csv")[1][3]) == 0.0

    def test_missing_scheme_file(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "no.scheme"),
                   "--out", str(tmp_path / "r")])
        assert rc == 3
        capsys.readouterr()

    def test_degenerate_anchors_exit_code(self, tmp_path, capsys):
        # both anchors at the same kurtosis: calibration is singular
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("anchor2_kurtosis=1.82\n")
        scheme = tmp_path / "c.scheme"
        main(["build", "--scheme", "ccdm", *TOY, "--out", str(scheme)])
        capsys.readouterr()
        rc = main(["analyze", str(scheme), "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "dmshape:" in capsys.readouterr().err

    def test_default_model_rebuilds_the_mpdm(self, tmp_path, capsys):
        # without --config a non-mpdm file takes its second anchor from the
        # mpdm built at the same (n, k, alphabet)
        scheme = tmp_path / "e.scheme"
        assert main(["build", "--scheme", "ess", *TOY, "--out", str(scheme)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(scheme), "--out",
                     str(tmp_path / "default")]) == 0
        out = capsys.readouterr().out
        assert out == "ess: min 14.261 max 14.559 p2p 0.298 avg 14.338 dB\n"
        kmin, _ = build_mpdm(6, 4, AmplitudeAlphabet((1, 3))).kurtosis_range()
        cfg = tmp_path / "anchor.cfg"
        cfg.write_text(f"anchor2_kurtosis={kmin!r}\n")
        assert main(["analyze", str(scheme), "--config", str(cfg), "--out",
                     str(tmp_path / "anchored")]) == 0
        assert capsys.readouterr().out == out
        assert read_csv(tmp_path / "default_aggregates.csv") == \
            read_csv(tmp_path / "anchored_aggregates.csv")


class TestCompare:
    def test_toy_table(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--n", "6", "--k", "3", "--alphabet", "1,3",
                   "--config", eta_config(tmp_path), "--out", str(out)])
        assert rc == 0
        rows = read_csv(str(out))
        assert rows[0] == ["scheme", "n_compositions", "rate_loss",
                           "max_snr_db", "min_snr_db", "p2p_db", "avg_snr_db"]
        assert [r[0] for r in rows[1:]] == ["ccdm", "ess", "mpdm", "opt-mpdm"]
        by = {r[0]: r for r in rows[1:]}
        assert by["ccdm"].__getitem__(1) == "1"
        assert float(by["ccdm"][5]) == 0.0
        assert float(by["opt-mpdm"][5]) <= float(by["mpdm"][5])
        capsys.readouterr()


class TestCodec:
    def test_roundtrip(self, tmp_path, capsys):
        scheme = tmp_path / "c.scheme"
        assert main(["build", "--scheme", "ccdm", "--n", "2", "--k", "1",
                     "--alphabet", "1,3", "--out", str(scheme)]) == 0
        capsys.readouterr()
        assert main(["codec", "encode", str(scheme), "0x0"]) == 0
        seq = capsys.readouterr().out.strip()
        assert seq == "1,3"
        assert main(["codec", "decode", str(scheme), seq]) == 0
        assert capsys.readouterr().out.strip() == "0x0"

    def test_malformed_hex_is_usage_error(self, tmp_path, capsys):
        scheme = tmp_path / "c.scheme"
        main(["build", "--scheme", "ccdm", "--n", "2", "--k", "1",
              "--alphabet", "1,3", "--out", str(scheme)])
        capsys.readouterr()
        assert main(["codec", "encode", str(scheme), "zz"]) == 2

    def test_foreign_sequence_is_data_error(self, tmp_path, capsys):
        scheme = tmp_path / "c.scheme"
        main(["build", "--scheme", "ccdm", "--n", "2", "--k", "1",
              "--alphabet", "1,3", "--out", str(scheme)])
        capsys.readouterr()
        assert main(["codec", "decode", str(scheme), "3,3"]) == 3
        capsys.readouterr()


class TestConfigErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key=1\n")
        scheme = tmp_path / "c.scheme"
        main(["build", "--scheme", "ccdm", *TOY, "--out", str(scheme)])
        capsys.readouterr()
        rc = main(["analyze", str(scheme), "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        assert rc == 3
        capsys.readouterr()


class TestHostileInput:
    """Malformed files exit 3 with one ``path:line: field`` line, no traceback."""

    def toy_scheme(self, tmp_path, capsys, edit, scheme="ccdm", args=TOY):
        good = tmp_path / "good.scheme"
        assert main(["build", "--scheme", scheme, *args,
                     "--out", str(good)]) == 0
        capsys.readouterr()
        lines = good.read_text().splitlines()
        bad = tmp_path / "bad.scheme"
        bad.write_text("\n".join(edit(lines)) + "\n")
        return str(bad)

    def assert_data_error(self, rc, capsys, where, field):
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"dmshape: {where}: {field}: ")

    @pytest.mark.parametrize("field,lineno,edit", [
        ("leaves", 8, lambda ls: ls[:7] + ["leaves=abc"] + ls[8:]),
        ("counts", 9, lambda ls: ls[:8] + ["3,x|4|0|1.0"]),
        ("counts", 9, lambda ls: ls[:8] + ["3,3,0|4|0|1.0"]),
        ("payload_bits", 9, lambda ls: ls[:8] + ["3,3|4.5|0|1.0"]),
        ("scheme", 1, lambda ls: ["scheme=zzz"] + ls[1:]),
        pytest.param("leaves", 8, lambda ls: ls[:7] + ["leaves=-3"] + ls[8:],
                     id="leaves-8-negative"),
        # analyze would overflow at the fourth power of the levels
        pytest.param("alphabet", 4,
                     lambda ls: ls[:3] + ["alphabet=1e100,3e100"] + ls[4:],
                     id="alphabet-4-huge-levels"),
        # analyze's anchor kurtosis would divide by an underflowed mu2^2
        pytest.param("alphabet", 4,
                     lambda ls: ls[:3] + ["alphabet=1e-160,3"] + ls[4:],
                     id="alphabet-4-tiny-levels"),
    ])
    def test_bad_scheme_field(self, tmp_path, capsys, field, lineno, edit):
        bad = self.toy_scheme(tmp_path, capsys, edit)
        rc = main(["analyze", bad, "--config", eta_config(tmp_path),
                   "--out", str(tmp_path / "r")])
        self.assert_data_error(rc, capsys, f"{bad}:{lineno}", field)
        assert not (tmp_path / "r_scatter.csv").exists()

    @pytest.mark.parametrize("lineno,key,reason,edit", [
        (2, "foo", "unknown header field",
         lambda ls: ls[:1] + ["foo=bar"] + ls[1:]),
        # the last value would otherwise win silently
        (4, "k", "repeated header field",
         lambda ls: ls[:2] + ["k=99"] + ls[2:]),
    ], ids=["unknown", "repeated"])
    def test_bad_header_key(self, tmp_path, capsys, lineno, key, reason, edit):
        bad = self.toy_scheme(tmp_path, capsys, edit, scheme="ess")
        rc = main(["analyze", bad, "--config", eta_config(tmp_path),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"dmshape: {bad}:{lineno}: {key}: {reason}\n"

    def test_ess_file_without_e_max(self, tmp_path, capsys):
        # an ess file states its radius, so it is refused as any other
        # missing header field is, before its leaves are read
        bad = self.toy_scheme(tmp_path, capsys,
                              self.replace_line("e_max=22.0", ""), scheme="ess")
        rc = main(["codec", "encode", bad, "0x5"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"dmshape: {bad}: missing header field 'e_max'\n")

    def test_bad_config_integer(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# link\nn_spans=abc\n")
        rc = main(["compare", "--n", "6", "--k", "3", "--alphabet", "1,3",
                   "--config", str(cfg)])
        self.assert_data_error(rc, capsys, f"{cfg}:2", "n_spans")

    def test_repeated_config_key(self, tmp_path, capsys):
        # the last value would otherwise win silently
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("launch_power_dbm=0\nlaunch_power_dbm=5\n")
        rc = main(["compare", "--n", "6", "--k", "3", "--alphabet", "1,3",
                   "--config", str(cfg)])
        assert rc == 3
        assert capsys.readouterr().err == \
            f"dmshape: {cfg}:2: launch_power_dbm: repeated key\n"

    @pytest.mark.parametrize("which", ["scheme file", "config"])
    def test_undecodable_file(self, tmp_path, capsys, which):
        # a byte that is not UTF-8 once ended in a UnicodeDecodeError traceback
        scheme = self.toy_scheme(tmp_path, capsys, lambda ls: ls)
        cfg = eta_config(tmp_path)
        bad = scheme if which == "scheme file" else cfg
        with open(bad, "ab") as fh:
            fh.write(b"\xff\n")
        rc = main(["analyze", scheme, "--config", cfg,
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"dmshape: cannot read {which} {bad}: 'utf-8' "
                              "codec can't decode byte 0xff")
        assert not (tmp_path / "r_scatter.csv").exists()

    @pytest.mark.parametrize("command", ["build", "analyze", "compare"])
    def test_unwritable_output(self, tmp_path, capsys, command):
        # a write into a missing directory once ended in a traceback
        if command == "build":
            args = ["build", "--scheme", "ccdm", *TOY]
        elif command == "analyze":
            args = ["analyze", self.toy_scheme(tmp_path, capsys, lambda ls: ls),
                    "--config", eta_config(tmp_path)]
        else:
            args = ["compare", *TOY]
        missing = tmp_path / "missing"
        rc = main([*args, "--out", str(missing / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(
            f"dmshape: [Errno 2] No such file or directory: '{missing}")
        assert not missing.exists()

    def analyze_with_config(self, tmp_path, capsys, text):
        scheme = tmp_path / "toy.scheme"
        assert main(["build", "--scheme", "mpdm", "--n", "8", "--k", "5",
                     "--alphabet", "1,3", "--out", str(scheme)]) == 0
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        rc = main(["analyze", str(scheme), "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        return rc, str(cfg)

    # a link, a run and an anchor key: each once led to a traceback
    @pytest.mark.parametrize("key,value", [
        ("launch_power_dbm", "nan"), ("gamma_per_w_km", "inf"),
        ("anchor1_kurtosis", "nan"), ("eta0", "-inf")])
    def test_non_finite_config_value(self, tmp_path, capsys, key, value):
        rc, cfg = self.analyze_with_config(tmp_path, capsys,
                                           f"# model\n{key}={value}\n")
        assert rc == 3
        assert capsys.readouterr().err == \
            f"dmshape: {cfg}:2: {key}: not a finite number\n"
        assert not (tmp_path / "r_scatter.csv").exists()

    @pytest.mark.parametrize("text,reason", [
        ("launch_power_dbm=1e308\n",
         "launch_power_dbm=1e+308 is outside the float range as a ratio"),
        ("anchor1_snr_db=1e308\n",
         "anchor1_snr_db=1e+308 is outside the float range as a ratio"),
        ("eta0=1e308\neta1=1e308\n",
         "ASE variance and launch power must be positive, got "),
        ("nf_db=1e308\n", "the ASE variance of this configuration is "
         "outside the float range"),
        ("span_km=1e308\n", "the ASE variance of this configuration is "
         "outside the float range"),
        ("span_km=1e6\n", "the ASE variance of this configuration is "
         "outside the float range"),
        ("alpha_db_per_km=1e308\n", "the GN eta0 of this configuration is "
         "outside the float range"),
        ("gamma_per_w_km=1e308\n", "the calibration of this configuration "
         "is outside the float range"),
        ("symbol_rate_gbaud=1e-308\n", "the GN eta0 of this configuration "
         "is outside the float range"),
        ("beta2_ps2_per_km=1e-308\n", "the GN eta0 of this configuration "
         "is outside the float range"),
        ("launch_power_dbm=3000\n", "the calibration of this configuration "
         "is outside the float range"),
        ("launch_power_dbm=-3205\n", "the calibration of this configuration "
         "is outside the float range"),
        # gn_eta0 returns nan: inf spacing over inf spacing
        ("spacing_ghz=1e308\n", "eta0=nan is not a finite number"),
    ], ids=["launch-power", "anchor-snr", "eta", "nf", "span", "span-1e6",
            "alpha", "gamma", "symbol-rate", "beta2", "launch-power-high",
            "launch-power-low", "spacing"])
    def test_model_overflow_is_one_line(self, tmp_path, capsys, text, reason):
        rc, _ = self.analyze_with_config(tmp_path, capsys, text)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"dmshape: {reason}")
        assert not (tmp_path / "r_scatter.csv").exists()

    @pytest.mark.parametrize("count", [10003, 1000001])
    def test_channel_count_is_bounded(self, tmp_path, capsys, count):
        # gn_eta0 loops over every neighbour: 10^7 channels took 1.5 s
        rc, _ = self.analyze_with_config(tmp_path, capsys,
                                         f"n_channels={count}\n")
        assert rc == 3
        assert capsys.readouterr().err == (
            f"dmshape: invalid configuration: n_channels={count} exceeds "
            "MAX_CHANNELS=10001\n")

    @pytest.mark.parametrize("rate", ["0", "-100.0"])
    def test_symbol_rate_must_be_positive(self, tmp_path, capsys, rate):
        # a negative rate once passed the spacing check and gn_eta0 took
        # the log of a negative ratio
        rc, _ = self.analyze_with_config(tmp_path, capsys,
                                         f"symbol_rate_gbaud={rate}\n")
        assert rc == 3
        assert capsys.readouterr().err == (
            "dmshape: invalid configuration: symbol_rate_gbaud must be "
            "positive\n")

    @pytest.mark.parametrize("args,rc,reason", [
        (["analyze", "--bins", "0"], 2,
         "argument --bins: '0' is not a finite positive number"),
        (["analyze", "--bins", "nan"], 2,
         "argument --bins: 'nan' is not a finite positive number"),
        (["analyze", "--bins", "inf"], 2,
         "argument --bins: 'inf' is not a finite positive number"),
        (["analyze", "--bins", "-0.01"], 2,
         "argument --bins: '-0.01' is not a finite positive number"),
        # every SNR over the width overflows a float
        (["analyze", "--bins", "1e-320"], 1,
         "histogram bin width 1e-320 dB is too small for an SNR of "
         "14.885800543635108 dB"),
        (["build", "--scheme", "ccdm", "--n", "0", "--k", "3"], 2,
         "argument --n: '0' is not a positive integer"),
        (["compare", "--n", "0", "--k", "0"], 2,
         "argument --n: '0' is not a positive integer"),
        (["build", "--scheme", "ess", "--n", "4", "--k", "2",
          "--alphabet", "0.1,0.3"], 1,
         "amplitude energies need a modest common denominator"),
        (["build", "--scheme", "opt-mpdm", "--n", "4", "--k", "-1",
          "--alphabet", "1,3"], 1, "k=-1 outside [0, n*log2(m)]"),
        # every builder refuses k by one rule, before 2^k is formed
        (["build", "--scheme", "ess", "--n", "6", "--k", "-1",
          "--alphabet", "1,3"], 1, "k=-1 outside [0, n*log2(m)]"),
        (["build", "--scheme", "ess", "--n", "6", "--k", "9",
          "--alphabet", "1,3"], 1, "k=9 outside [0, n*log2(m)]"),
        (["build", "--scheme", "opt-mpdm", "--n", "6", "--k", "9",
          "--alphabet", "1,3"], 1, "k=9 outside [0, n*log2(m)]"),
        # opt-mpdm builds on an MPDM at k+1, whose error names k+1
        (["build", "--scheme", "opt-mpdm", "--n", "6", "--k", "6",
          "--alphabet", "1,3"], 1,
         "opt-mpdm at k=6 needs room for k+1=7 bits: "
         "k=7 outside [0, n*log2(m)]"),
        (["build", "--scheme", "opt-mpdm", "--n", "6", "--k", "5",
          "--alphabet", "1,3"], 1,
         "opt-mpdm at k=5 needs room for k+1=6 bits: "
         "no MPDM target reaches k=6 at n=6"),
        # a fourth power of 1e200 overflows a float
        (["build", "--scheme", "ccdm", "--n", "6", "--k", "3",
          "--alphabet", "1,1e200"], 3,
         "bad alphabet '1,1e200': levels must have a finite fourth power"),
        (["build", "--scheme", "ess", "--n", "6", "--k", "3",
          "--alphabet", "1,1e200"], 3,
         "bad alphabet '1,1e200': levels must have a finite fourth power"),
        # a fourth power of 1e-300 underflows to 0, of 1e-160 to a subnormal
        # whose square (mu2^2 in the anchor kurtosis) underflows
        (["build", "--scheme", "ccdm", "--n", "2", "--k", "0",
          "--alphabet", "1e-300,3"], 3,
         "bad alphabet '1e-300,3': levels must have a fourth power of at "
         "least 2.2250738585072014e-308"),
        (["build", "--scheme", "ccdm", "--n", "2", "--k", "0",
          "--alphabet", "1e-160,3"], 3,
         "bad alphabet '1e-160,3': levels must have a fourth power of at "
         "least 2.2250738585072014e-308"),
        # refused before any build: MPDM at n=70000 runs for minutes
        (["build", "--scheme", "mpdm", "--n", "70000", "--k", "10"], 2,
         "argument --n: '70000' exceeds MAX_BLOCK_LENGTH=65536"),
        (["compare", "--n", "70000", "--k", "10"], 2,
         "argument --n: '70000' exceeds MAX_BLOCK_LENGTH=65536"),
    ], ids=["bins-0", "bins-nan", "bins-inf", "bins-negative",
            "bins-subnormal", "build-n-0",
            "compare-n-0", "ess-no-energy-grid", "opt-mpdm-negative-k",
            "ess-negative-k", "ess-k-above-capacity",
            "opt-mpdm-k-above-capacity", "opt-mpdm-k-plus-one-above-capacity",
            "opt-mpdm-k-plus-one-infeasible", "ccdm-huge-level",
            "ess-huge-level", "ccdm-zero-fourth-power",
            "ccdm-subnormal-fourth-power", "build-n-above-max",
            "compare-n-above-max"])
    def test_bad_cli_argument(self, tmp_path, capsys, args, rc, reason):
        if args[0] == "analyze":
            toy = tmp_path / "toy.scheme"
            assert main(["build", "--scheme", "ccdm", "--n", "6", "--k", "3",
                         "--alphabet", "1,3", "--out", str(toy)]) == 0
            capsys.readouterr()
            args = ["analyze", str(toy), "--config", eta_config(tmp_path),
                    "--out", str(tmp_path / "r"), *args[1:]]
        elif args[0] == "build":
            args = [*args, "--out", str(tmp_path / "x.scheme")]
        try:
            got = main(args)
        except SystemExit as exc:  # argparse refuses before main returns
            got = exc.code
        err = capsys.readouterr().err
        assert got == rc
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.endswith(f": {reason}\n")
        assert not (tmp_path / "r_scatter.csv").exists()
        assert not (tmp_path / "x.scheme").exists()

    def test_swapped_leaf_weights(self, tmp_path, capsys):
        # leaves 4,2 (payload 3) and 5,1 (payload 2) of the toy MPDM trade
        # weights: the weights still sum to 1, but neither is 2^(payload-k)
        def swap(ls):
            assert ls[8:10] == ["4,2|3|1|0.5", "5,1|2|2|0.25"]
            return ls[:8] + ["4,2|3|1|0.25", "5,1|2|2|0.5"] + ls[10:]

        bad = self.toy_scheme(tmp_path, capsys, swap, scheme="mpdm")
        rc = main(["analyze", bad, "--config", eta_config(tmp_path),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"dmshape: {bad}:9: leaf: leaf (4, 2) weight 0.25 is "
                       "not 2^(3-4)\n")
        assert not (tmp_path / "r_scatter.csv").exists()

    @staticmethod
    def replace_line(old, new):
        def edit(ls):
            assert old in ls
            return [new if ln == old else ln for ln in ls]
        return edit

    @pytest.mark.parametrize("scheme,edits,reason", [
        # the toy ESS leaves are 6,0|1, 5,1|6 and 4,2|9 out of 2^4, on lines
        # 10 to 12; a file's ESS leaf that differs from the ESS its header
        # names is named at its line, with the leaf the ESS has there
        pytest.param("ess", [("6,0|1||0.0625", "6,0|1||0.375"),
                             ("5,1|6||0.375", "5,1|6||0.0625")],
                     ":10: leaf: expected 6,0|1||0.0625, found 6,0|1||0.375",
                     id="ess-swapped-weights"),
        pytest.param("ess", [("6,0|1||0.0625", "6,0|1||nan")],
                     ":10: leaf: expected 6,0|1||0.0625, found 6,0|1||nan",
                     id="ess-nan-weight"),
        pytest.param("ess", [("e_max=22.0", "e_max=1000.0")],
                     ":8: e_max: 1000.0 is not the minimal radius 22.0",
                     id="ess-e_max"),
        pytest.param("mpdm", [("leaves=3", "e_max=22.0\nleaves=3")],
                     ":8: e_max: a tree scheme has none, found 22.0",
                     id="tree-e_max"),
        pytest.param("mpdm", [("avg_pmf=0.6666666666666666,0.3333333333333333",
                               "avg_pmf=0.9,0.1")],
                     ":7: avg_pmf: (0.9, 0.1) is not the leaves' "
                     "(0.6666666666666666, 0.3333333333333333)", id="avg_pmf"),
        pytest.param("ess", [("rate_loss=0.1446114577924662", "rate_loss=0.5")],
                     ":6: rate_loss: 0.5 is not the leaves' 0.1446114577924662",
                     id="rate_loss"),
        # a zero-weight shell of energy 30, outside the radius 22: the ball
        # holds 3 shells
        pytest.param("ess", [("leaves=3", "leaves=4"),
                             ("4,2|9||0.5625", "4,2|9||0.5625\n3,3|0||0.0")],
                     ":9: leaves: 4, the ESS of n=6, k=4 over 1,3 has 3 shells",
                     id="ess-leaf-outside-radius"),
        # the leaves are read before the stated header values are compared
        pytest.param("ess", [("e_max=22.0", "e_max=1000.0"),
                             ("leaves=3", "leaves=4"),
                             ("4,2|9||0.5625", "4,2|9||0.5625\n3,3|0||0.0")],
                     ":9: leaves: 4, the ESS of n=6, k=4 over 1,3 has 3 shells",
                     id="ess-e_max-and-leaf-outside-radius"),
        # 5,1 at payload 3 exceeds MC(5,1) = 6, after the weight at fault; a
        # tree leaf that validate refuses is named at its line
        pytest.param("mpdm", [("4,2|3|1|0.5", "4,2|3|1|0.25"),
                              ("5,1|2|2|0.25", "5,1|3|1|0.5")],
                     ":9: leaf: leaf (4, 2) weight 0.25 is not 2^(3-4)",
                     id="weight-before-later-capacity"),
        pytest.param("mpdm", [("5,1|2|2|0.25", "5,1|3|1|0.5")],
                     ":10: leaf: payload exceeds composition capacity",
                     id="tree-capacity"),
        # every leaf is consistent on its own: 8 + 2 * 2^2 != 2^4
        pytest.param("mpdm", [("4,2|3|1|0.5", "4,2|2|2|0.25")],
                     "address space is 12, expected 2^4", id="tree-total"),
        # 2^k sequences cannot exceed m^n; checked before 2^k is formed
        pytest.param("ess", [("k=4", "k=99")], "k=99 outside [0, n*log2(m)]",
                     id="k-above-capacity"),
        # two leaves at fault: the one stored first is named, as a
        # leaf-by-leaf pass names it
        pytest.param("mpdm", [("5,1|2|2|0.25", "4,2|2|2|0.25")],
                     ":10: leaf: duplicate leaf (4, 2)", id="duplicate-leaf"),
        pytest.param("mpdm", [("4,2|3|1|0.5", "4,2|3|1|0.25"),
                              ("3,3|2|2|0.25", "3,3|2|3|0.25")],
                     ":9: leaf: leaf (4, 2) weight 0.25 is not 2^(3-4)",
                     id="weight-before-later-depth"),
        pytest.param("mpdm", [("4,2|3|1|0.5", "4,2|3|2|0.5"),
                              ("3,3|2|2|0.25", "3,3|2|2|0.5")],
                     ":9: leaf: inconsistent payload/depth",
                     id="depth-before-later-weight"),
        # of two ESS leaves at fault, the first line is named
        pytest.param("ess", [("6,0|1||0.0625", "6,0|2||0.0625"),
                             ("4,2|9||0.5625", "4,2|9||0.5")],
                     ":10: leaf: expected 6,0|1||0.0625, found 6,0|2||0.0625",
                     id="capacity-before-later-weight"),
        pytest.param("ess", [("5,1|6||0.375", "6,0|6||0.375"),
                             ("4,2|9||0.5625", "7,-1|9||0.5625")],
                     ":11: leaf: expected 5,1|6||0.375, found 6,0|6||0.375",
                     id="duplicate-before-later-sign"),
        pytest.param("ess", [("5,1|6||0.375", "7,-1|6||0.375"),
                             ("4,2|9||0.5625", "6,0|9||0.5625")],
                     ":11: leaf: expected 5,1|6||0.375, found 7,-1|6||0.375",
                     id="sign-before-later-duplicate"),
        # at n=6 the count column is uint8: a cast that wrapped modulo 2^8
        # or 2^16 would read each of these leaves as the valid 3,3
        pytest.param("ccdm", [("3,3|4|0|1.0", "259,3|4|0|1.0")],
                     ":9: leaf: leaf (259, 3) is not a composition of 6 into "
                     "2 levels", id="count-beyond-uint8"),
        pytest.param("ccdm", [("3,3|4|0|1.0", "65539,3|4|0|1.0")],
                     ":9: leaf: leaf (65539, 3) is not a composition of 6 "
                     "into 2 levels", id="count-beyond-uint16"),
    ])
    def test_inconsistent_header_or_weights(self, tmp_path, capsys, scheme,
                                            edits, reason):
        def edit(ls):
            for old, new in edits:
                ls = self.replace_line(old, new)(ls)
            return ls

        bad = self.toy_scheme(tmp_path, capsys, edit, scheme=scheme)
        rc = main(["analyze", bad, "--config", eta_config(tmp_path),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 3
        if reason.startswith(":"):  # a fault that names its line
            assert err == f"dmshape: {bad}{reason}\n"
        else:
            assert err.startswith(f"dmshape: {bad}: inconsistent scheme: ")
            assert reason in err and "Traceback" not in err
        assert not (tmp_path / "r_scatter.csv").exists()

    def test_codec_refuses_wrong_e_max(self, tmp_path, capsys):
        # word 0x5 is rank 4 of leaf 5,1 (leaf 6,0 owns word 0), its lone 3
        # at position 4; e_max does not enter the mapping, so a file with a
        # wrong one must be refused
        good = tmp_path / "good.scheme"
        assert main(["build", "--scheme", "ess", *TOY, "--out", str(good)]) == 0
        capsys.readouterr()
        assert main(["codec", "encode", str(good), "0x5"]) == 0
        assert capsys.readouterr().out.strip() == "1,1,1,1,3,1"
        bad = self.toy_scheme(tmp_path, capsys,
                              self.replace_line("e_max=22.0", "e_max=1000.0"),
                              scheme="ess")
        assert main(["codec", "encode", bad, "0x5"]) == 3
        err = capsys.readouterr().err
        assert err == (f"dmshape: {bad}:8: e_max: 1000.0 is not the minimal "
                       "radius 22.0\n")

    @pytest.mark.parametrize("direction,payload,reason", [
        ("encode", "0x10", "word outside [0, 2^4)"),
        ("decode", "1,3,1,1,1,2", "amplitude 2.0 not in alphabet"),
    ], ids=["word-above-2k", "foreign-amplitude"])
    def test_codec_range(self, tmp_path, capsys, direction, payload, reason):
        toy = tmp_path / "toy.scheme"
        assert main(["build", "--scheme", "mpdm", *TOY, "--out", str(toy)]) == 0
        capsys.readouterr()
        assert main(["codec", direction, str(toy), payload]) == 3
        assert capsys.readouterr().err == f"dmshape: {reason}\n"

    BIG = 10**30

    @pytest.mark.parametrize("scheme,args,old,new,reason", [
        ("ccdm", TOY, "3,3|4|0|1.0", f"{BIG},3|4|0|1.0",
         f"9: leaf: leaf ({BIG}, 3) is not a composition of 6 into 2 levels"),
        ("ccdm", TOY, "3,3|4|0|1.0", f"-{BIG},{BIG + 6}|4|0|1.0",
         f"9: leaf: leaf (-{BIG}, {BIG + 6}) is not a composition of 6 into "
         "2 levels"),
        # two int64 maxima and an 8 sum to 6 modulo 2^64
        ("ccdm", ["--n", "6", "--k", "3", "--alphabet", "1,3,5"],
         "4,2,0|3|0|1.0", f"{2**63 - 1},{2**63 - 1},8|3|0|1.0",
         f"9: leaf: leaf ({2**63 - 1}, {2**63 - 1}, 8) is not a composition "
         "of 6 into 3 levels"),
        ("ccdm", TOY, "3,3|4|0|1.0", f"3,3|{BIG}|0|1.0",
         "9: leaf: inconsistent payload/depth"),
        ("ccdm", TOY, "3,3|4|0|1.0", f"3,3|4|-{BIG}|1.0",
         "9: leaf: inconsistent payload/depth"),
        ("ess", TOY, "4,2|9||0.5625", f"4,2|{BIG}||0.5625",
         f"12: leaf: expected 4,2|9||0.5625, found 4,2|{BIG}||0.5625"),
        # 10^400 / 2^4 is beyond a float: the share is never formed
        ("ess", TOY, "4,2|9||0.5625", f"4,2|{10**400}||0.5625",
         f"12: leaf: expected 4,2|9||0.5625, found 4,2|{10**400}||0.5625"),
        # at n=6, k=3 the leaf 4,2 uses 1 of MC(4,2) = 15: 10 fits the shell
        # but not 2^3, though its weight states the share 10/2^3
        ("ess", ["--n", "6", "--k", "3", "--alphabet", "1,3"],
         "4,2|1||0.125", "4,2|10||1.25",
         "12: leaf: expected 4,2|1||0.125, found 4,2|10||1.25"),
    ], ids=["count", "negative-count", "int64-wrap", "payload", "depth",
            "used_count", "used_count-beyond-float", "used_count-above-2k"])
    def test_integers_beyond_int64(self, tmp_path, capsys, scheme, args, old,
                                   new, reason):
        bad = self.toy_scheme(tmp_path, capsys, self.replace_line(old, new),
                              scheme=scheme, args=args)
        rc = main(["codec", "encode", bad, "0x1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"dmshape: {bad}:{reason}\n"

    def test_block_length_zero_is_one_line(self, tmp_path, capsys):
        # a k=0 file at n=0 once reached average_pmf's division by n
        bad = self.toy_scheme(
            tmp_path, capsys,
            lambda ls: [ln.replace("n=4", "n=0") for ln in ls[:8]]
            + ["0,0|0|0|1.0"],
            args=["--n", "4", "--k", "0", "--alphabet", "1,3"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["analyze", bad, "--config", eta_config(tmp_path),
                       "--out", str(tmp_path / "r")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"dmshape: {bad}: inconsistent scheme: n=0 is not a positive "
            "block length\n")

    def test_block_length_above_bound_is_refused_fast(self, tmp_path, capsys):
        # one leaf at n=10^6: forming 10^6! alone takes ~10 s
        bad = self.toy_scheme(
            tmp_path, capsys,
            lambda ls: [ln.replace("n=6", "n=1000000") for ln in ls[:8]]
            + ["500000,500000|4|0|1.0"])
        t0 = time.perf_counter()
        rc = main(["codec", "encode", bad, "0x1"])
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"dmshape: {bad}: inconsistent scheme: n=1000000 "
                       "exceeds MAX_BLOCK_LENGTH=65536\n")

    def test_ess_block_length_above_bound_is_refused_fast(self, tmp_path,
                                                          capsys):
        # the reader walks an ESS file's ball only once n is within the
        # bound: C(10^6, 5*10^5) alone takes ~12 s
        bad = self.toy_scheme(
            tmp_path, capsys,
            lambda ls: [ln.replace("n=6", "n=1000000")
                        .replace("leaves=3", "leaves=1") for ln in ls[:9]]
            + ["500000,500000|1||1.0"], scheme="ess")
        t0 = time.perf_counter()
        rc = main(["codec", "encode", bad, "0x1"])
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"dmshape: {bad}: inconsistent scheme: n=1000000 "
                       "exceeds MAX_BLOCK_LENGTH=65536\n")

    @pytest.mark.parametrize("scheme,used,depth", [("ccdm", "93", "7"),
                                                   ("ess", "1", "")])
    @pytest.mark.parametrize("apart", [1, 2])
    def test_binomial_budget_is_refused_fast(self, tmp_path, capsys, scheme,
                                             used, depth, apart):
        # 100 distinct two-level leaves near n/2 at n=2^16 (validate of a
        # ccdm file).  One apart, each binomial is one step from the one
        # before, and the file fails its own checks; two apart, each comes
        # from comb, ~6 s in all, and the first block's work passes the
        # budget before any is formed.  An ess file's leaves form no
        # binomial: its header's radius is refused before they are read
        bad = self.toy_scheme(
            tmp_path, capsys,
            lambda ls: [ln.replace("n=6", "n=65536").replace("k=4", "k=100")
                        .replace("leaves=1", "leaves=100")
                        .replace("leaves=3", "leaves=100")
                        for ln in ls if "|" not in ln]
            + [f"{32768 + apart * i},{32768 - apart * i}|{used}|{depth}|1.0"
               for i in range(100)], scheme=scheme)
        t0 = time.perf_counter()
        rc = main(["codec", "encode", bad, "0x1"])
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert rc == 3
        budget = (f"dmshape: {bad}: inconsistent scheme: the multinomials "
                  "at n=65536 need more binomial work than "
                  f"MAX_BINOMIAL_WORK={kernels.MAX_BINOMIAL_WORK}\n")
        if scheme == "ess":
            assert err == (f"dmshape: {bad}: inconsistent scheme: energy "
                           "grid of 65537 levels at n=65536 is too large\n")
        else:
            assert (err == budget) == (apart == 2), err

    @pytest.mark.parametrize("scheme", ["ccdm", "mpdm", "ess", "opt-mpdm"])
    def test_files_built_at_the_binomial_budget_read(self, tmp_path, capsys,
                                                     monkeypatch, scheme):
        # every n forms its binomials as above MAX_TABLE_N, under the least
        # budget the build passes: the file it writes reads, and one unit
        # less refuses the build in one line, opt-mpdm's too (the work is
        # no want of room for k+1 bits)
        monkeypatch.setattr(kernels, "MAX_TABLE_N", -1)
        out = tmp_path / "x.scheme"
        args = ["build", "--scheme", scheme, "--n", "24", "--k", "36",
                "--out", str(out)]

        def builds(budget):
            monkeypatch.setattr(kernels, "MAX_BINOMIAL_WORK", budget)
            return main(args) == 0

        least = bisect.bisect_left(range(1 << 20), True, key=builds)
        assert 0 < least < 1 << 20
        assert builds(least)
        capsys.readouterr()
        assert main(["codec", "encode", str(out), "0x1"]) == 0
        assert not builds(least - 1)
        assert capsys.readouterr().err == (
            "dmshape: the multinomials at n=24 need more binomial work than "
            f"MAX_BINOMIAL_WORK={least - 1}\n")

    @pytest.mark.parametrize("scheme,n,k,alphabet", [
        # over three levels a pass forms ~145,000 distinct binomials, over
        # two levels ~1,300 near the largest n the ESS radius allows
        ("ess", 1000, 1500, "1,3,5"),
        ("ess", 2800, 2790, "1,3"),
        ("mpdm", 1024, 1000, "1,3"),
    ])
    def test_program_files_above_the_table_read(self, tmp_path, capsys,
                                                scheme, n, k, alphabet):
        # at the real MAX_TABLE_N and MAX_BINOMIAL_WORK, each build's passes
        # and the read's stay within the budget
        out = tmp_path / "x.scheme"
        assert main(["build", "--scheme", scheme, "--n", str(n), "--k",
                     str(k), "--alphabet", alphabet, "--out", str(out)]) == 0
        assert main(["codec", "encode", str(out), "0x1"]) == 0
        assert capsys.readouterr().err == ""

    def test_ess_shell_budget_is_one_line(self, tmp_path, capsys):
        # 256-QAM amplitudes at n=216, k=400: the ball holds ~8.8e7 shells,
        # and the walk refuses it once its count passes the budget
        out = tmp_path / "ess8.scheme"
        t0 = time.perf_counter()
        rc = main(["build", "--scheme", "ess", "--n", "216", "--k", "400",
                   "--alphabet", "1,3,5,7,9,11,13,15", "--out", str(out)])
        assert time.perf_counter() - t0 < 10.0
        assert rc == 1
        assert capsys.readouterr().err == (
            "dmshape: the ESS ball at n=216 over 8 levels holds more than "
            "MAX_ESS_SHELLS=1048576 shells\n")
        assert not out.exists()

    def test_mpdm_pair_budget_is_one_line(self, tmp_path, capsys):
        # 256-QAM amplitudes at n=128, k=300: the first MPDM candidate's box
        # holds 129,223,323 compositions, and the walk refuses its pairs once
        # their count passes the budget (without one it grew past 7 GB here)
        out = tmp_path / "table.csv"
        t0 = time.perf_counter()
        rc = main(["compare", "--n", "128", "--k", "300",
                   "--alphabet", "1,3,5,7,9,11,13,15", "--out", str(out)])
        assert time.perf_counter() - t0 < 30.0
        assert rc == 1
        assert capsys.readouterr().err == (
            "dmshape: the MPDM pairs around (40, 34, 25, 15, 8, 4, 1, 1) "
            "number more than MAX_MPDM_PAIRS=3145728\n")
        assert not out.exists()

    def test_many_levels_mpdm_is_at_most_one_line(self, tmp_path, capsys):
        # 1,100 odd levels: the pair walk once recursed once per level and
        # ended in a RecursionError traceback
        levels = ",".join(str(2 * i + 1) for i in range(1100))
        rc = main(["build", "--scheme", "mpdm", "--n", "3", "--k", "2",
                   "--alphabet", levels, "--out", str(tmp_path / "x.scheme")])
        assert rc in (0, 1, 3)
        assert capsys.readouterr().err.count("\n") <= 1

    def test_ess_radius_power_budget_is_one_line(self, tmp_path, capsys):
        # n=3 over 1,100 odd levels packs a 58M-bit power, which took 34.9 s
        # to form; it is refused before the power (0.5 s as a CLI process)
        levels = ",".join(str(2 * i + 1) for i in range(1100))
        out = tmp_path / "ess.scheme"
        t0 = time.perf_counter()
        rc = main(["build", "--scheme", "ess", "--n", "3", "--k", "2",
                   "--alphabet", levels, "--out", str(out)])
        assert time.perf_counter() - t0 < 5.0
        assert rc == 1
        assert capsys.readouterr().err == (
            "dmshape: energy grid of 1813351 levels at n=3 needs a "
            "58027232-bit power, more than RADIUS_POWER_BITS=8388608\n")
        assert not out.exists()

    def test_tiny_levels_with_a_normal_fourth_power(self, tmp_path, capsys):
        # (1e-70)^4 = 1e-280 is a normal float: built and analyzed as before,
        # under the default calibrated model
        out = tmp_path / "tiny.scheme"
        assert main(["build", "--scheme", "ccdm", "--n", "2", "--k", "0",
                     "--alphabet", "1e-70,3", "--out", str(out)]) == 0
        assert main(["analyze", str(out), "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().err == ""
