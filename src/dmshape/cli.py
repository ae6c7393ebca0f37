"""Command-line front end.

Subcommands: ``build`` writes a scheme file, ``analyze`` turns one into
scatter/histogram/CDF/aggregate CSVs, ``compare`` emits the four-scheme
comparison table, ``codec`` encodes hex words to amplitude sequences and
back.  Exit codes: 0 success, 1 infeasible or model error, 2 usage error,
3 data or file error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import chain

from .codec import SchemeCodec
from .combinatorics import DEFAULT_ALPHABET, AmplitudeAlphabet
from .config import RunConfig, parse_config
from .errors import (
    CalibrationError,
    DecodeError,
    DmShapeError,
    ModelDomainError,
    RateInfeasibleError,
    SchemeFileError,
)
from .mpdm import build_mpdm
from .nli import NliModel, SnrReport, analyze
from .optimizer import BUILDERS, compare_schemes
from .schemefile import read_scheme, write_scheme
from .schemes import (
    MAX_BLOCK_LENGTH,
    CompositionSet,
    joined_rows,
    row_chunks,
    row_values,
)


def _parse_alphabet(text: str | None) -> AmplitudeAlphabet:
    if text is None:
        return DEFAULT_ALPHABET
    try:
        return AmplitudeAlphabet(tuple(float(x) for x in text.split(",")))
    except ValueError as exc:
        raise SchemeFileError(f"bad alphabet {text!r}: {exc}") from exc


def _resolve_model(cfg: RunConfig, built: CompositionSet) -> NliModel:
    """Model from config; the default second anchor needs the pairwise scheme."""
    if cfg.eta0 is not None or cfg.eta1 is not None \
            or cfg.anchor2_kurtosis is not None:
        return cfg.resolve_model()
    if built.scheme == "mpdm":
        reference = built
    else:
        reference = build_mpdm(built.n, built.k, built.alphabet)
    return cfg.resolve_model(anchor2_kurtosis=reference.kurtosis_range()[0])


def _write_rows(fh, header: list[str], rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, header, rows)


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def cmd_build(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    built = BUILDERS[args.scheme](args.n, args.k, alphabet)
    write_scheme(built, args.out)
    print(f"wrote {args.out}: {built.scheme} n={built.n} k={built.k} "
          f"compositions={built.n_compositions} "
          f"rate_loss={built.rate_loss:.4f}")
    return 0


def _write_report(prefix: str, report: SnrReport, bin_width_db: float) -> None:
    # the histogram first: a bin width it refuses leaves no file behind
    histogram = report.histogram(bin_width_db)
    # formatted as _write_rows would write them: the ids ("c0:c1:...") and
    # float reprs hold nothing the csv module quotes.  Every column is read
    # one chunk at a time, so no list of a whole column is formed.
    ids = chain.from_iterable(
        joined_rows(chunk, ":") for chunk in row_chunks(report.counts))
    with open(prefix + "_scatter.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("composition,kurtosis,snr_db,weight\n")
        fh.writelines(map("{},{!r},{!r},{!r}\n".format, ids,
                          row_values(report.kurtosis),
                          row_values(report.snr_db),
                          row_values(report.weights)))
    _write_csv(prefix + "_histogram.csv", ["bin_center_db", "weight"],
               ((_fmt(c), _fmt(w)) for c, w in histogram))
    _write_csv(prefix + "_cdf.csv", ["snr_db", "cumulative_weight"],
               ((_fmt(s), _fmt(w)) for s, w in report.cdf_rows()))
    _write_csv(prefix + "_aggregates.csv",
               ["min_snr_db", "max_snr_db", "avg_snr_db", "p2p_db"],
               [(_fmt(report.min_db), _fmt(report.max_db),
                 _fmt(report.avg_db), _fmt(report.p2p_db))])


def cmd_analyze(args) -> int:
    built = read_scheme(args.scheme_file)
    cfg = parse_config(args.config)
    model = _resolve_model(cfg, built)
    report = analyze(built, model)
    _write_report(args.out, report, args.bins)
    print(f"{built.scheme}: min {report.min_db:.3f} max {report.max_db:.3f} "
          f"p2p {report.p2p_db:.3f} avg {report.avg_db:.3f} dB")
    return 0


def cmd_compare(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    cfg = parse_config(args.config)
    mpdm = build_mpdm(args.n, args.k, alphabet)
    model = _resolve_model(cfg, mpdm)
    rows = compare_schemes(args.n, args.k, model, alphabet,
                           built={"mpdm": mpdm})
    header = ["scheme", "n_compositions", "rate_loss", "max_snr_db",
              "min_snr_db", "p2p_db", "avg_snr_db"]
    table = [(r.scheme, r.n_compositions, _fmt(r.rate_loss),
              _fmt(r.max_snr_db), _fmt(r.min_snr_db), _fmt(r.p2p_db),
              _fmt(r.avg_snr_db)) for r in rows]
    if args.out:
        _write_csv(args.out, header, table)
    _write_rows(sys.stdout, header, table)
    return 0


def cmd_codec(args) -> int:
    built = read_scheme(args.scheme_file)
    codec = SchemeCodec(built)
    if args.direction == "encode":
        try:
            word = int(args.payload, 16)
        except ValueError:
            print(f"codec encode: {args.payload!r} is not a hex word",
                  file=sys.stderr)
            return 2
        seq = codec.encode(word)
        print(",".join(str(int(x)) if x.is_integer() else repr(x)
                       for x in seq))
    else:
        try:
            seq = [float(x) for x in args.payload.split(",")]
        except ValueError:
            print(f"codec decode: {args.payload!r} is not an amplitude "
                  "sequence", file=sys.stderr)
            return 2
        word = codec.decode(seq)
        width = (built.k + 3) // 4
        print(f"0x{word:0{width}x}")
    return 0


def _positive(convert, what: str):
    """argparse type: convert, and refuse what is not finite and > 0."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what}")
        return value
    return parse


def _block_length(text: str) -> int:
    """argparse type of --n: a positive integer up to MAX_BLOCK_LENGTH."""
    n = _positive(int, "positive integer")(text)
    if n > MAX_BLOCK_LENGTH:
        raise argparse.ArgumentTypeError(
            f"{text!r} exceeds MAX_BLOCK_LENGTH={MAX_BLOCK_LENGTH}")
    return n


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 2, as the other errors do."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dmshape",
        description="Build finite-blocklength distribution matchers and "
                    "evaluate their per-block effective SNR.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a scheme and write it to a file")
    p_build.add_argument("--scheme", required=True, choices=sorted(BUILDERS))
    p_build.add_argument("--n", type=_block_length, required=True)
    p_build.add_argument("--k", type=int, required=True)
    p_build.add_argument("--alphabet", help="comma-separated amplitude levels")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_an = sub.add_parser("analyze", help="per-block SNR CSVs for a scheme file")
    p_an.add_argument("scheme_file")
    p_an.add_argument("--config", help="key-value config file")
    p_an.add_argument("--out", required=True, help="output CSV prefix")
    p_an.add_argument("--bins", default=0.01,
                      type=_positive(float, "finite positive number"),
                      help="histogram bin width in dB")
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="four-scheme comparison table")
    p_cmp.add_argument("--n", type=_block_length, required=True)
    p_cmp.add_argument("--k", type=int, required=True)
    p_cmp.add_argument("--alphabet")
    p_cmp.add_argument("--config")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)

    p_cod = sub.add_parser("codec", help="encode/decode against a scheme file")
    p_cod.add_argument("direction", choices=["encode", "decode"])
    p_cod.add_argument("scheme_file")
    p_cod.add_argument("payload",
                       help="hex word (encode) or comma-separated amplitudes "
                            "(decode)")
    p_cod.set_defaults(func=cmd_codec)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RateInfeasibleError, ModelDomainError, CalibrationError) as exc:
        print(f"dmshape: {exc}", file=sys.stderr)
        return 1
    # reads wrap OSError as SchemeFileError, so a bare one comes from a write
    except (SchemeFileError, DecodeError, OSError) as exc:
        print(f"dmshape: {exc}", file=sys.stderr)
        return 3
    except DmShapeError as exc:
        print(f"dmshape: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
