"""Line-oriented scheme files.

Header ``key=value`` lines, each key one of HEADER_FIELDS and given once,
then ``leaves=<count>`` followed by one line per leaf.  Tree-addressed
leaves are ``counts|payload_bits|depth|weight``; for sphere-shaped sets the
second field holds the exact used-sequence count and the depth field is
empty (``counts|used_count||weight``).  All integers are decimal and
arbitrary precision; floats use repr so files are byte-stable across runs
and platforms.  No timestamps.
"""

from __future__ import annotations

import functools
from itertools import chain, islice, repeat

import numpy as np

from . import __version__
from .combinatorics import AmplitudeAlphabet
from .errors import SchemeFileError
from .optimizer import BUILDERS
from .schemes import CompositionSet, LeafTable, int_array, is_tree_scheme

TOOL_VERSION = f"dmshape {__version__}"
HEADER_FIELDS = frozenset(("scheme", "n", "k", "alphabet", "tool_version",
                           "rate_loss", "avg_pmf", "e_max"))
LEAF_CHUNK = 4096  # leaf lines per batch read or written; bounds the strings


def _format_number(x: float) -> str:
    return repr(float(x))


def _format_level(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _leaf_lines(leaves: LeafTable, tree: bool):
    """The leaf lines of a table, formatted column by column, LEAF_CHUNK
    leaves at a time."""
    for start in range(0, len(leaves), LEAF_CHUNK):
        rows = slice(start, start + LEAF_CHUNK)
        counts = map(",".join, zip(*(map(str, col) for col
                                     in leaves.counts[rows].T.tolist())))
        if tree:
            mid = map(str, leaves.payload_bits[rows].tolist())
            depth = map(str, leaves.depth[rows].tolist())
        else:
            mid = map(str, leaves.used_counts[rows])
            depth = repeat("")
        # repr is _format_number for the Python floats tolist returns
        weights = map(repr, leaves.weights[rows].tolist())
        yield from map("|".join, zip(counts, mid, depth, weights))


def _scheme_lines(built: CompositionSet):
    header = [
        f"scheme={built.scheme}",
        f"n={built.n}",
        f"k={built.k}",
        "alphabet=" + ",".join(_format_level(x) for x in built.alphabet.levels),
        f"tool_version={TOOL_VERSION}",
        f"rate_loss={_format_number(built.rate_loss)}",
        "avg_pmf=" + ",".join(_format_number(p) for p in built.avg_pmf),
    ]
    if built.e_max is not None:
        header.append(f"e_max={_format_number(built.e_max)}")
    header.append(f"leaves={len(built.leaves)}")
    return chain(header, _leaf_lines(built.leaves, is_tree_scheme(built.scheme)))


def scheme_to_text(built: CompositionSet) -> str:
    return "\n".join(_scheme_lines(built)) + "\n"


def _counts(m: int, text: str) -> tuple[int, ...]:
    counts = tuple(int(x) for x in text.split(","))
    if len(counts) != m:
        raise ValueError(f"{len(counts)} levels, alphabet has {m}")
    return counts


def _leaf_count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise ValueError(f"negative leaf count {count}")
    return count


def _no_depth(text: str) -> str:
    if text:
        raise ValueError(f"an ess leaf has no depth, found {text!r}")
    return text


def _known_scheme(name: str) -> str:
    if name not in BUILDERS:
        raise ValueError(f"unknown scheme {name!r}")
    return name


def write_scheme(built: CompositionSet, path: str) -> None:
    """Write scheme_to_text(built), LEAF_CHUNK lines at a time."""
    lines = _scheme_lines(built)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := list(islice(lines, LEAF_CHUNK)):
            fh.write("\n".join(chunk) + "\n")


def read_scheme(path: str) -> CompositionSet:
    """Parse and validate a scheme file.

    Every malformed field is reported as a one-line SchemeFileError of the
    form ``path:line: field: reason``.  After validate, the header values the
    file states (e_max, avg_pmf, rate_loss, in that order) must equal the
    ones the scheme computes from its leaves.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc

    def parse(lineno: int, field: str, text: str, convert):
        try:
            return convert(text)
        except ValueError as exc:
            raise SchemeFileError(f"{path}:{lineno}: {field}: {exc}") from None

    header: dict[str, tuple[int, str]] = {}
    i = 0
    n_leaves = None
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.strip():
            continue
        if "=" not in line:
            raise SchemeFileError(f"{path}:{i}: malformed header line {line!r}")
        key, _, value = line.partition("=")
        if key == "leaves":
            n_leaves = parse(i, key, value, _leaf_count)
            break
        if key not in HEADER_FIELDS:
            raise SchemeFileError(f"{path}:{i}: {key}: unknown header field")
        if key in header:
            raise SchemeFileError(f"{path}:{i}: {key}: repeated header field")
        header[key] = (i, value)
    if n_leaves is None:
        raise SchemeFileError(f"{path}: missing leaves section")

    def field(key: str, convert):
        if key not in header:
            raise SchemeFileError(f"{path}: missing header field {key!r}")
        lineno, value = header[key]
        return parse(lineno, key, value, convert)

    scheme = field("scheme", _known_scheme)
    n = field("n", int)
    k = field("k", int)
    alphabet = field("alphabet", lambda v: AmplitudeAlphabet(
        tuple(float(x) for x in v.split(","))))
    rate_loss = field("rate_loss", float)
    avg_pmf = field("avg_pmf", lambda v: tuple(float(x) for x in v.split(",")))
    e_max = field("e_max", float) if "e_max" in header else None
    rows = list(filter(str.strip, lines[i:]))
    if len(rows) != n_leaves:
        raise SchemeFileError(
            f"{path}: expected {n_leaves} leaf lines, found {len(rows)}")
    tree = is_tree_scheme(scheme)
    try:
        leaves = _leaf_columns(rows, alphabet.m, tree)
    except ValueError:
        # some field is bad: name the first one as a line-by-line parse,
        # field by field, finds it
        mid = ((("payload_bits", int), ("depth", int)) if tree
               else (("used_count", int), ("depth", _no_depth)))
        for j, ln in enumerate(lines[i:], i + 1):
            parts = ln.split("|")
            if not ln.strip():
                continue
            if len(parts) != 4:
                raise SchemeFileError(f"{path}:{j}: malformed leaf line {ln!r}")
            parse(j, "counts", parts[0], functools.partial(_counts, alphabet.m))
            parse(j, "weight", parts[3], float)
            for (name, convert), text in zip(mid, parts[1:3]):
                parse(j, name, text, convert)
        raise
    del lines, rows  # the file text is done with; validate runs without it
    built = CompositionSet(scheme=scheme, n=n, k=k, alphabet=alphabet,
                           leaves=leaves)
    try:
        built.validate()
    except Exception as exc:
        raise SchemeFileError(f"{path}: inconsistent scheme: {exc}") from exc
    # the header must state what the leaves imply
    if e_max != built.e_max:
        fault = (f"tree scheme carries e_max {e_max!r}" if built.e_max is None
                 else f"e_max {e_max!r} is not the minimal radius "
                 f"{built.e_max!r}")
    elif avg_pmf != built.avg_pmf:
        fault = f"avg_pmf {avg_pmf!r} is not the leaves' {built.avg_pmf!r}"
    elif rate_loss != built.rate_loss:
        fault = f"rate_loss {rate_loss!r} is not the leaves' {built.rate_loss!r}"
    else:
        return built
    raise SchemeFileError(f"{path}: inconsistent scheme: {fault}")


def _leaf_columns(rows: list[str], m: int, tree: bool) -> LeafTable:
    """Parse leaf lines field by field into table columns.

    The conversions are those read_scheme applies line by line to name a
    bad field, so this raises ValueError exactly when some line fails there.
    """
    # counts and weights become arrays chunk by chunk, so no list of every
    # count or weight is held beside the leaf lines
    counts, weights = [np.zeros(0, np.int64)], [np.zeros(0)]
    mid, depth = [], []
    for start in range(0, len(rows), LEAF_CHUNK):
        parts = [row.split("|") for row in rows[start:start + LEAF_CHUNK]]
        if any(len(p) != 4 for p in parts):
            raise ValueError("malformed leaf line")
        c, u, d, w = zip(*parts)
        if any(x.count(",") != m - 1 for x in c):
            raise ValueError("counts of the wrong length")
        counts.append(int_array([int(x) for x in ",".join(c).split(",")]))
        weights.append(np.array([float(x) for x in w]))
        mid += map(int, u)
        if tree:
            depth += map(int, d)
        elif any(d):
            raise ValueError("depth field of an ess leaf")
    counts = np.concatenate(counts).reshape(len(rows), m)
    weights = np.concatenate(weights)
    if tree:
        return LeafTable(counts, weights, payload_bits=int_array(mid),
                         depth=int_array(depth))
    return LeafTable(counts, weights, used_counts=mid)
