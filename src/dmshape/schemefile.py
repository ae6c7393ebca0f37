"""Line-oriented scheme files.

Header ``key=value`` lines, then ``leaves=<count>`` followed by one line per
leaf.  Tree-addressed leaves are ``counts|payload_bits|depth|weight``; for
sphere-shaped sets the second field holds the exact used-sequence count and
the depth field is empty (``counts|used_count||weight``).  All integers are
decimal and arbitrary precision; floats use repr so files are byte-stable
across runs and platforms.  No timestamps.
"""

from __future__ import annotations

from . import __version__
from .combinatorics import AmplitudeAlphabet
from .errors import SchemeFileError
from .optimizer import BUILDERS
from .schemes import AddressedComposition, CompositionSet, is_tree_scheme

TOOL_VERSION = f"dmshape {__version__}"


def _format_number(x: float) -> str:
    return repr(float(x))


def _format_level(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def scheme_to_text(built: CompositionSet) -> str:
    lines = [
        f"scheme={built.scheme}",
        f"n={built.n}",
        f"k={built.k}",
        "alphabet=" + ",".join(_format_level(x) for x in built.alphabet.levels),
        f"tool_version={TOOL_VERSION}",
        f"rate_loss={_format_number(built.rate_loss)}",
        "avg_pmf=" + ",".join(_format_number(p) for p in built.avg_pmf),
    ]
    if built.e_max is not None:
        lines.append(f"e_max={_format_number(built.e_max)}")
    lines.append(f"leaves={len(built.leaves)}")
    tree = built.is_tree_addressed
    for leaf in built.leaves:
        counts = ",".join(str(c) for c in leaf.counts)
        if tree:
            mid = f"{leaf.payload_bits}|{leaf.depth}"
        else:
            mid = f"{leaf.used_count}|"
        lines.append(f"{counts}|{mid}|{_format_number(leaf.weight)}")
    return "\n".join(lines) + "\n"


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scheme_to_text(built))


def read_scheme(path: str) -> CompositionSet:
    """Parse and validate a scheme file.

    Every malformed field is reported as a one-line SchemeFileError of the
    form ``path:line: field: reason``.
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
    leaf_lines = [(j, ln) for j, ln in enumerate(lines[i:], i + 1) if ln.strip()]
    if len(leaf_lines) != n_leaves:
        raise SchemeFileError(
            f"{path}: expected {n_leaves} leaf lines, found {len(leaf_lines)}")
    leaves = []
    tree = is_tree_scheme(scheme)
    for j, ln in leaf_lines:
        parts = ln.split("|")
        if len(parts) != 4:
            raise SchemeFileError(f"{path}:{j}: malformed leaf line {ln!r}")
        counts = parse(j, "counts", parts[0],
                       lambda v: tuple(int(x) for x in v.split(",")))
        if len(counts) != alphabet.m:
            raise SchemeFileError(f"{path}:{j}: counts: {len(counts)} levels, "
                                  f"alphabet has {alphabet.m}")
        weight = parse(j, "weight", parts[3], float)
        if tree:
            leaves.append(AddressedComposition(
                counts=counts, weight=weight,
                payload_bits=parse(j, "payload_bits", parts[1], int),
                depth=parse(j, "depth", parts[2], int)))
        else:
            leaves.append(AddressedComposition(
                counts=counts, weight=weight,
                used_count=parse(j, "used_count", parts[1], int)))
    built = CompositionSet(scheme=scheme, n=n, k=k, alphabet=alphabet,
                           leaves=tuple(leaves), avg_pmf=avg_pmf,
                           rate_loss=rate_loss, e_max=e_max)
    try:
        built.validate()
    except Exception as exc:
        raise SchemeFileError(f"{path}: inconsistent scheme: {exc}") from exc
    return built
