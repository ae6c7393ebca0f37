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

from itertools import islice, repeat

import numpy as np

from . import __version__
from .combinatorics import AmplitudeAlphabet
from .errors import SchemeFileError
from .ess import ess_shells, ess_walk
from .kernels import chunks
from .optimizer import BUILDERS
from .schemes import (
    CompositionSet,
    LeafTable,
    count_dtype,
    int_array,
    is_tree_scheme,
    joined_rows,
    narrow_counts,
)

TOOL_VERSION = f"dmshape {__version__}"
HEADER_FIELDS = frozenset(("scheme", "n", "k", "alphabet", "tool_version",
                           "rate_loss", "avg_pmf", "e_max"))


def _format_number(x: float) -> str:
    return repr(float(x))


def _format_level(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _scheme_text(built: CompositionSet):
    """The file's text in pieces: the header, then the leaf lines of each
    kernels.CHUNK block of leaves, formatted column by column (an ESS
    block's used counts from one block of multinomials)."""
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
    yield "\n".join(header) + "\n"
    leaves, tree = built.leaves, is_tree_scheme(built.scheme)
    used = None if tree else leaves.used_counts.blocks()
    for rows in chunks(len(leaves)):
        counts = joined_rows(leaves.counts[rows], ",")
        if tree:
            mid = map(str, leaves.payload_bits[rows].tolist())
            depth = map(str, leaves.depth[rows].tolist())
        else:
            mid = map(str, next(used).tolist())
            depth = repeat("")
        # repr is _format_number for the Python floats tolist returns
        weights = map(repr, leaves.weights[rows].tolist())
        yield "\n".join(map("|".join, zip(counts, mid, depth, weights))) + "\n"


def scheme_to_text(built: CompositionSet) -> str:
    return "".join(_scheme_text(built))


def _leaf_count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise ValueError(f"negative leaf count {count}")
    return count


def _known_scheme(name: str) -> str:
    if name not in BUILDERS:
        raise ValueError(f"unknown scheme {name!r}")
    return name


def write_scheme(built: CompositionSet, path: str) -> None:
    """Write scheme_to_text(built), one kernels.CHUNK block of leaves at a
    time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_scheme_text(built))


def read_scheme(path: str) -> CompositionSet:
    """Parse and validate a scheme file.

    The file is read as a stream: the header line by line, then the leaf
    section twice, once to count its lines and once to parse them.  Every
    malformed field is reported as a one-line SchemeFileError of the form
    ``path:line: field: reason``, and so is a leaf that validate refuses,
    its line found by a third pass that runs only then.  An ESS file must
    hold the ESS its header names: its leaf count is checked against the
    ball's shells before any leaf is read, and each leaf line against the
    leaf that ess.ess_walk forms (see _ess_visit).  After that, the header
    values the file states (e_max, avg_pmf, rate_loss, in that order) must
    equal the ones the scheme computes from its leaves; the first that
    differs is named at its header line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            built, header, stated = _parse(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc
    # the header must state what the leaves imply
    e_max, avg_pmf, rate_loss = stated
    if e_max != built.e_max:
        key, fault = "e_max", (
            f"a tree scheme has none, found {e_max!r}" if built.e_max is None
            else f"{e_max!r} is not the minimal radius {built.e_max!r}")
    elif avg_pmf != built.avg_pmf:
        key, fault = ("avg_pmf",
                      f"{avg_pmf!r} is not the leaves' {built.avg_pmf!r}")
    elif rate_loss != built.rate_loss:
        key, fault = ("rate_loss",
                      f"{rate_loss!r} is not the leaves' {built.rate_loss!r}")
    else:
        return built
    raise SchemeFileError(f"{path}:{header[key][0]}: {key}: {fault}")


def _parse(fh, path: str):
    """The validated scheme an open scheme file holds, the header's (line,
    value) by key, and the (e_max, avg_pmf, rate_loss) it states."""

    def parse(lineno: int, field: str, text: str, convert):
        try:
            return convert(text)
        except ValueError as exc:
            raise SchemeFileError(f"{path}:{lineno}: {field}: {exc}") from None

    header: dict[str, tuple[int, str]] = {}
    n_leaves = None
    # readline, as iterating fh would make the tell() below fail
    for i, line in enumerate(iter(fh.readline, ""), 1):
        line = line.rstrip("\n")
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
    tree = is_tree_scheme(scheme)
    # an ess file states its radius; a tree file's e_max fails after validate
    e_max = (field("e_max", float) if "e_max" in header or not tree
             else None)
    stated = (e_max, avg_pmf, rate_loss)
    # the line count is checked before any leaf field
    start = fh.tell()
    found = sum(1 for line in fh if line.strip())
    if found != n_leaves:
        raise SchemeFileError(
            f"{path}: expected {n_leaves} leaf lines, found {found}")

    def leaf_line(index: int | None = None):
        """The numbered leaf lines that are not blank, from the start, or
        the index-th of them."""
        fh.seek(start)
        lines = ((lineno, line) for lineno, line in enumerate(fh, i + 1)
                 if line.strip())
        return lines if index is None else next(islice(lines, index, None))

    try:
        if tree:
            built = CompositionSet(scheme=scheme, n=n, k=k, alphabet=alphabet,
                                   leaves=_leaf_table(leaf_line(), n_leaves,
                                                      path, n, alphabet.m))
            built.validate()
            return built, header, stated
        # the walk's refusals (a k, radius, ball or binomial pass it cannot
        # form) are inconsistent schemes too
        shells = ess_shells(n, k, alphabet)
        if shells != n_leaves:
            raise SchemeFileError(
                f"{path}:{i}: leaves: {n_leaves}, the ESS of n={n}, k={k} "
                f"over {header['alphabet'][1]} has {shells} shells")
        visit = _ess_visit(leaf_line, path, alphabet.m)
        return ess_walk(n, k, alphabet, visit), header, stated
    except (SchemeFileError, OSError):
        raise
    except Exception as exc:
        leaf = getattr(exc, "leaf", None)
        if not tree or leaf is None:
            raise SchemeFileError(
                f"{path}: inconsistent scheme: {exc}") from exc
        raise SchemeFileError(
            f"{path}:{leaf_line(leaf)[0]}: leaf: {exc}") from None


def _leaf_fields(lines, path: str, m: int, tree: bool):
    """(counts, mids, depths, weights) of the numbered leaf lines: every
    line's counts in one flat list, m a line, and a list of its
    payload_bits or used_count, of its depth (none for an ess leaf, whose
    depth field is empty) and of its weight.  Per line the fields are
    converted counts, weight, payload_bits or used_count, then depth; the
    first that fails is the one named."""
    counts, mids, depths, weights = [], [], [], []
    for lineno, line in lines:
        line = line.rstrip("\n")
        parts = line.split("|")
        if len(parts) != 4:
            raise SchemeFileError(
                f"{path}:{lineno}: malformed leaf line {line!r}")
        counts_text, mid_text, depth_text, weight_text = parts
        field = "counts"
        try:
            row = list(map(int, counts_text.split(",")))
            if len(row) != m:
                raise ValueError(f"{len(row)} levels, alphabet has {m}")
            field = "weight"
            weights.append(float(weight_text))
            field = "payload_bits" if tree else "used_count"
            mids.append(int(mid_text))
            field = "depth"
            if tree:
                depths.append(int(depth_text))
            elif depth_text:
                raise ValueError(
                    f"an ess leaf has no depth, found {depth_text!r}")
        except ValueError as exc:
            raise SchemeFileError(f"{path}:{lineno}: {field}: {exc}") from None
        counts += row
    return counts, mids, depths, weights


def _ess_visit(leaf_line, path: str, m: int):
    """The visit for ess.ess_walk that converts the file's leaf lines of
    each block of the table the walk forms (leaf_line() numbers them) and
    compares them with the walk's leaves.  The first line that differs is
    named with the line the walk expects there, found by a second read
    (leaf_line(i)) that runs only then."""
    lines = leaf_line()

    def visit(rows: slice, counts: np.ndarray, used: np.ndarray,
              weights: np.ndarray):
        flat, mids, _, found = _leaf_fields(islice(lines, len(used)), path,
                                            m, False)
        differs = ((int_array(flat).reshape(-1, m) != counts[rows]).any(1)
                   | (np.array(mids, dtype=object) != used)
                   | (np.array(found) != weights[rows]))
        if differs.any():
            i = rows.start + int(differs.argmax())
            lineno, line = leaf_line(i)
            want = (f"{','.join(map(str, counts[i].tolist()))}|"
                    f"{used[i - rows.start]}||{float(weights[i])!r}")
            line = line.rstrip("\n")
            raise SchemeFileError(
                f"{path}:{lineno}: leaf: expected {want}, found {line}")

    return visit


def _leaf_table(lines, n_leaves: int, path: str, n: int,
                m: int) -> LeafTable:
    """A tree file's table: the numbered leaf lines, of which n_leaves are
    not blank, parsed into its columns, each line once (_leaf_fields).

    Counts and weights are written into their n_leaves-row arrays
    kernels.CHUNK leaves at a time, so no list of every count or weight,
    and no second copy of either column, is held.  The count matrix is
    count_dtype(n) for the header's n.  A block holding a count outside
    [0, n] turns it into int64, or into Python ints (int_array) for a count
    beyond int64, and validate refuses that leaf.
    """
    counts = np.zeros((n_leaves, m), dtype=count_dtype(n))
    weights = np.zeros(n_leaves)
    mid, depth = [], []
    for rows in chunks(n_leaves):
        flat, chunk_mid, chunk_depth, weights[rows] = _leaf_fields(
            islice(lines, rows.stop - rows.start), path, m, True)
        block = narrow_counts(int_array(flat).reshape(-1, m), n)
        counts = counts.astype(np.result_type(counts, block), copy=False)
        counts[rows] = block
        mid += chunk_mid
        depth += chunk_depth
    return LeafTable(counts, weights, payload_bits=int_array(mid),
                     depth=int_array(depth))
