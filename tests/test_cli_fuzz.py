"""Generated hostile input through the whole command line, in process.

Hypothesis draws small argument lists for every subcommand, config files,
and byte-mutated scheme files, and runs each through cli.main.  Whatever
the input, the run must end with a documented exit code (0 success, 1
infeasible or model error, 2 usage error, 3 data or file error) and at most
one stderr line: no traceback and no "internal error".
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from dmshape.cli import main
from dmshape.optimizer import BUILDERS

SCHEMES = sorted(BUILDERS)
ALPHABETS = ["1,3", "1,3,5", "1,3,5,7", "0.5,1.5", "0,1", "1,1", "3,1",
             "-1,1", "1", "", "1,x", "nan,1", "1,inf", "1e200,1", "1e-300,3"]
CONFIG_KEYS = ["eta0", "eta1", "launch_power_dbm", "n_spans", "n_channels",
               "span_km", "nf_db", "rolloff", "spacing_ghz",
               "symbol_rate_gbaud", "anchor1_kurtosis", "anchor2_kurtosis",
               "anchor2_snr_db", "gamma_per_w_km", "alpha_db_per_km",
               "wavelength_nm", "unknown"]
CONFIG_VALUES = ["0", "1", "-1", "2", "1e308", "-1e308", "1e-320", "nan",
                 "inf", "x", "", "15000", "8000", "1.5", "100000000"]


def run(argv):
    """(exit code, stderr) of one in-process cli.main run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses before main returns
            code = exc.code
    return code, err.getvalue()


def assert_clean(code, err):
    assert code in (0, 1, 2, 3), (code, err)
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err and "internal error" not in err, err


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding one valid n=6 scheme file of each kind."""
    path = tmp_path_factory.mktemp("cli_fuzz")
    for scheme in SCHEMES:
        assert run(["build", "--scheme", scheme, "--n", "6", "--k", "4",
                    "--alphabet", "1,3", "--out",
                    str(path / f"{scheme}.scheme")]) == (0, "")
    (path / "eta.cfg").write_text("eta0=15000\neta1=8000\n")
    return path


@st.composite
def command_lines(draw, work):
    """A small argument list for build, analyze, compare or codec."""
    n = draw(st.integers(-1, 12))
    k = str(draw(st.integers(-1, 2 * max(n, 0) + 2)))
    n = str(n) if draw(st.integers(0, 9)) else draw(st.sampled_from(
        ["x", "1.5", "", "99999999"]))
    alphabet = draw(st.one_of(st.none(), st.sampled_from(ALPHABETS)))
    extra = [] if alphabet is None else ["--alphabet", alphabet]
    scheme_file = str(work / f"{draw(st.sampled_from(SCHEMES))}.scheme")
    command = draw(st.sampled_from(["build", "analyze", "compare", "codec"]))
    if command == "build":
        return ["build", "--scheme", draw(st.sampled_from(SCHEMES)),
                "--n", n, "--k", k, *extra, "--out", str(work / "x.scheme")]
    if command == "compare":
        return ["compare", "--n", n, "--k", k, *extra]
    if command == "analyze":
        config = draw(st.sampled_from([[], ["--config",
                                            str(work / "eta.cfg")]]))
        bins = draw(st.sampled_from([[], ["--bins", "0.5"], ["--bins", "0"],
                                     ["--bins", "nan"]]))
        return ["analyze", scheme_file, *config, *bins,
                "--out", str(work / "r")]
    if draw(st.booleans()):
        word = draw(st.one_of(st.integers(-1, 1 << 20).map(hex),
                              st.sampled_from(["", "zz", "0x", "-"])))
        return ["codec", "encode", scheme_file, word]
    levels = draw(st.lists(st.sampled_from(["1", "3", "1", "3", "5", "x", "",
                                            "nan"]), min_size=4, max_size=8))
    return ["codec", "decode", scheme_file, ",".join(levels)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generated_arguments_exit_cleanly(work, data):
    assert_clean(*run(data.draw(command_lines(work))))


@st.composite
def config_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["# note", "", "no equals",
                                               "=1", "eta0 = 1 = 2"])))
        else:
            value = draw(st.one_of(st.sampled_from(CONFIG_VALUES),
                                   st.floats().map(repr)))
            lines.append(f"{draw(st.sampled_from(CONFIG_KEYS))}={value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=config_texts(), command=st.sampled_from(["analyze", "compare"]))
def test_generated_configs_exit_cleanly(work, text, command):
    config = work / "fuzz.cfg"
    config.write_text(text)
    if command == "analyze":
        argv = ["analyze", str(work / "mpdm.scheme"), "--config", str(config),
                "--out", str(work / "r")]
    else:
        argv = ["compare", "--n", "6", "--k", "4", "--alphabet", "1,3",
                "--config", str(config)]
    assert_clean(*run(argv))


@st.composite
def mutated_files(draw, work):
    """The bytes of a valid scheme file with one to four byte edits."""
    data = bytearray((work / f"{draw(st.sampled_from(SCHEMES))}.scheme")
                     .read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(b"0123456789,.|=-\n e"),
                              st.integers(0, 255)))
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        if op == "insert" or i == len(data):
            data.insert(i, byte)
        elif op == "set":
            data[i] = byte
        else:
            del data[i]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(["analyze", "encode",
                                                "decode"]))
def test_mutated_scheme_files_exit_cleanly(work, data, command):
    path = work / "mutated.scheme"
    path.write_bytes(data.draw(mutated_files(work)))
    if command == "analyze":
        argv = ["analyze", str(path), "--config", str(work / "eta.cfg"),
                "--out", str(work / "r")]
    elif command == "encode":
        argv = ["codec", "encode", str(path), "0x5"]
    else:
        argv = ["codec", "decode", str(path), "1,1,1,3,1,1"]
    assert_clean(*run(argv))
