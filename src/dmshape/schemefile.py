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
from .combinatorics import AmplitudeAlphabet, k_fits
from .errors import BinomialBudgetError, SchemeFileError
from .kernels import chunks, multinomial_blocks
from .optimizer import BUILDERS
from .schemes import (
    MAX_BLOCK_LENGTH,
    CompositionSet,
    LeafTable,
    UsedCounts,
    WordCheck,
    composition_rows,
    count_dtype,
    int_array,
    is_tree_scheme,
    joined_rows,
    narrow_counts,
    used_overrides,
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
    ``path:line: field: reason``.  After validate, the header values the
    file states (e_max, avg_pmf, rate_loss, in that order) must equal the
    ones the scheme computes from its leaves.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            built, checked, (e_max, avg_pmf, rate_loss) = _parse(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc
    try:
        built.validate(checked)
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


def _parse(fh, path: str):
    """The unvalidated scheme an open scheme file holds, the WordCheck its
    leaf pass filled for validate (or None), and the (e_max, avg_pmf,
    rate_loss) its header states."""

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
    e_max = field("e_max", float) if "e_max" in header else None
    # the line count is checked before any leaf field
    start = fh.tell()
    found = sum(1 for line in fh if line.strip())
    if found != n_leaves:
        raise SchemeFileError(
            f"{path}: expected {n_leaves} leaf lines, found {found}")
    fh.seek(start)
    leaves, checked = _leaf_table(enumerate(fh, i + 1), n_leaves, path, n, k,
                                  alphabet.m, is_tree_scheme(scheme))
    built = CompositionSet(scheme=scheme, n=n, k=k, alphabet=alphabet,
                           leaves=leaves)
    return built, checked, (e_max, avg_pmf, rate_loss)


def _leaf_table(lines, n_leaves: int, path: str, n: int, k: int, m: int,
                tree: bool) -> tuple[LeafTable, WordCheck | None]:
    """Parse the numbered leaf lines, of which n_leaves are not blank, into
    table columns, each line once, and return the table with the WordCheck
    that validate reads (None for a tree, or when no multinomial is formed).

    Per line the fields are converted counts, weight, payload_bits or
    used_count, then depth; the first that fails is the one named.  Counts
    and weights are written into their n_leaves-row arrays kernels.CHUNK
    leaves at a time, so no list of every count or weight, and no second
    copy of either column, is held.  The count matrix is count_dtype(n) for
    the header's n.  A block holding a count outside [0, n] turns it into
    int64, or into Python ints (int_array) for a count beyond int64, and
    validate refuses that leaf.

    An ESS block's used counts are compared with the multinomials of its
    rows that are compositions of n, and only the ones that differ are kept,
    as the UsedCounts' overrides.  A used count of 0 is never a multinomial,
    so its row's is not formed.  That pass runs only for an n within
    [1, MAX_BLOCK_LENGTH]; every used count of a row that is no composition,
    or of a file whose n is outside it, is kept as parsed.  The same blocks
    fill validate's WordCheck when k also lies in range (k_fits), the
    multinomials all from the file's own counts.  A pass past
    kernels.MAX_BINOMIAL_WORK is refused as an inconsistent scheme.
    """
    counts = np.zeros((n_leaves, m), dtype=count_dtype(n))
    weights = np.zeros(n_leaves)
    mid, depth = [], []  # a tree's payload and depth columns
    # the multinomials of the whole pass, or None when none may be formed
    block_multinomials = (multinomial_blocks(n) if 1 <= n <= MAX_BLOCK_LENGTH
                          and not tree else None)
    checked = (WordCheck(weights, k) if block_multinomials is not None
               and k_fits(n, k, m) else None)
    lines = ((lineno, line) for lineno, line in lines if line.strip())

    def used_blocks():
        """Parse one block of leaves at a time into the columns; yield the
        used counts and multinomials of each ESS block."""
        nonlocal counts
        for rows in chunks(n_leaves):
            chunk_counts, chunk_weights, chunk_mid = [], [], []
            for lineno, line in islice(lines, rows.stop - rows.start):
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
                        raise ValueError(
                            f"{len(row)} levels, alphabet has {m}")
                    field = "weight"
                    chunk_weights.append(float(weight_text))
                    field = "payload_bits" if tree else "used_count"
                    chunk_mid.append(int(mid_text))
                    field = "depth"
                    if tree:
                        depth.append(int(depth_text))
                    elif depth_text:
                        raise ValueError(
                            f"an ess leaf has no depth, found {depth_text!r}")
                except ValueError as exc:
                    raise SchemeFileError(
                        f"{path}:{lineno}: {field}: {exc}") from None
                chunk_counts += row
            block = narrow_counts(int_array(chunk_counts).reshape(-1, m), n)
            counts = counts.astype(np.result_type(counts, block), copy=False)
            counts[rows] = block
            weights[rows] = chunk_weights
            if tree:
                mid.extend(chunk_mid)
                continue
            used = np.array(chunk_mid, dtype=object)
            if block_multinomials is None:
                yield used, None
                continue
            mc = np.full(len(used), None, dtype=object)
            fits = composition_rows(block, n) & (used != 0)
            mc[fits] = block_multinomials(block[fits])
            yield used, mc

    blocks = used_blocks() if checked is None else checked.scan(used_blocks())
    try:
        overrides, starts = used_overrides(blocks)  # none for a tree
    except BinomialBudgetError as exc:
        raise SchemeFileError(f"{path}: inconsistent scheme: {exc}") from None
    if tree:
        return LeafTable(counts, weights, payload_bits=int_array(mid),
                         depth=int_array(depth)), None
    return LeafTable(counts, weights, used_counts=UsedCounts(
        counts, n, overrides, starts)), checked
