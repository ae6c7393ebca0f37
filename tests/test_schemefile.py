import dataclasses
import math
import os
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    ess_address,
    ess_leaf_fields,
    ess_verdict,
    multinomial_coefficient,
)

import dmshape as d
from dmshape import kernels, schemes
from dmshape.cli import main
from dmshape.errors import ConstructionBugError, SchemeFileError
from dmshape.optimizer import BUILDERS
from dmshape.schemefile import read_scheme, scheme_to_text, write_scheme
from dmshape.schemes import (
    AddressedComposition,
    LeafTable,
    UsedCounts,
    is_tree_scheme,
)

A2 = d.AmplitudeAlphabet((1, 3))
# TestRoundtrip covers every tag: the tree tags here, ess on its own
TREE_TAGS = [tag for tag in BUILDERS if is_tree_scheme(tag)]


def roundtrip(built, tmp_path, name="s.scheme"):
    path = tmp_path / name
    write_scheme(built, str(path))
    return read_scheme(str(path))


class TestRoundtrip:
    @pytest.mark.parametrize("builder,k", [
        (BUILDERS[tag], 2 if tag == "ccdm" else 4) for tag in TREE_TAGS])
    def test_tree_schemes(self, builder, k, tmp_path):
        built = builder(4, k, A2) if builder is d.build_ccdm else builder(6, k, A2)
        back = roundtrip(built, tmp_path)
        assert back.scheme == built.scheme
        assert back.n == built.n and back.k == built.k
        assert back.alphabet.levels == built.alphabet.levels
        assert back.leaves == built.leaves
        assert back.avg_pmf == built.avg_pmf
        assert back.rate_loss == built.rate_loss

    def test_ess_scheme(self, tmp_path):
        built = d.build_ess(6, 5, A2)
        back = roundtrip(built, tmp_path)
        assert back.e_max == built.e_max
        assert back.leaves == built.leaves
        assert all(l.payload_bits is None for l in back.leaves)

    def test_big_used_counts_survive(self, tmp_path):
        built = d.build_ess(6, 5, A2)
        text = scheme_to_text(built)
        assert str(built.leaves[1].used_count) in text

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_written_file_is_the_text(self, tmp_path, monkeypatch, chunk):
        # write_scheme and read_scheme stream kernels.CHUNK leaves at a time
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        for built in (d.build_ccdm(6, 4, A2), d.build_ess(6, 5, A2),
                      d.build_mpdm(8, 5, A2)):
            path = tmp_path / "s.scheme"
            write_scheme(built, str(path))
            text = path.read_text()
            assert text == scheme_to_text(built)
            assert read_scheme(str(path)) == built
            # a fault in the last chunk still names its line
            lines = text.splitlines()
            lines[-1] = lines[-1].rpartition("|")[0] + "|x"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(SchemeFileError) as err:
                read_scheme(str(path))
            assert str(err.value) == (f"{path}:{len(lines)}: weight: could "
                                      "not convert string to float: 'x'")

    def test_byte_determinism(self, tmp_path):
        a = scheme_to_text(d.build_mpdm(8, 5, A2))
        b = scheme_to_text(d.build_mpdm(8, 5, A2))
        assert a == b
        assert "tool_version=dmshape" in a


class TestKindRule:
    """The tag alone decides a scheme's kind; leaves must fit it."""

    @pytest.mark.parametrize("builder,tag", [(d.build_mpdm, "ess"),
                                             (d.build_ess, "mpdm")])
    def test_retagged_set_is_rejected(self, builder, tag):
        retagged = dataclasses.replace(builder(6, 4, A2), scheme=tag)
        with pytest.raises(ConstructionBugError, match="does not fit scheme"):
            retagged.validate()

    def test_table_with_both_kinds_columns_is_rejected(self):
        # the ESS toy table plus tree columns fits neither kind; the misfit
        # is named at the first leaf
        built = d.build_ess(6, 4, A2)
        t = built.leaves
        both = LeafTable(t.counts, t.weights,
                         payload_bits=np.zeros(len(t), dtype=np.int64),
                         depth=np.full(len(t), 4, dtype=np.int64),
                         used_counts=t.used_counts)
        for tag in ("mpdm", "ess"):
            mixed = dataclasses.replace(built, scheme=tag, leaves=both)
            with pytest.raises(ConstructionBugError,
                               match=r"leaf \(6, 0\) does not fit scheme"):
                mixed.validate()


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(SchemeFileError):
            read_scheme("/nonexistent/scheme.txt")

    def test_truncated_leaves(self, tmp_path):
        built = d.build_mpdm(6, 4, A2)
        text = scheme_to_text(built)
        path = tmp_path / "bad.scheme"
        path.write_text("\n".join(text.splitlines()[:-1]) + "\n")
        with pytest.raises(SchemeFileError):
            read_scheme(str(path))

    def test_tampered_address_space(self, tmp_path):
        built = d.build_mpdm(6, 4, A2)
        text = scheme_to_text(built).replace("|3|1|", "|2|2|")
        path = tmp_path / "bad.scheme"
        path.write_text(text)
        with pytest.raises(SchemeFileError):
            read_scheme(str(path))

    def test_garbage(self, tmp_path):
        path = tmp_path / "junk.scheme"
        path.write_text("not a scheme\n")
        with pytest.raises(SchemeFileError):
            read_scheme(str(path))


# -- parser fuzzing ------------------------------------------------------------

TOY_TEXTS = {name: scheme_to_text(builder(6, 4, A2)) for name, builder in
             [("ccdm", d.build_ccdm), ("mpdm", d.build_mpdm),
              ("ess", d.build_ess)]}
FUZZ_CHARS = "0123456789,.|=-+eE naif\t"


@st.composite
def edited_texts(draw):
    name = draw(st.sampled_from(sorted(TOY_TEXTS)))
    lines = TOY_TEXTS[name].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace",
                                   "char", "blank"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            key = lines[i].partition("=")[0] + "=" if "=" in lines[i] else ""
            lines[i] = key + draw(st.text(FUZZ_CHARS, max_size=12))
        elif op == "char":
            pos = draw(st.integers(0, len(lines[i])))
            ch = draw(st.sampled_from(FUZZ_CHARS))
            cut = draw(st.integers(0, 1))
            lines[i] = lines[i][:pos] + ch + lines[i][pos + cut:]
        else:
            lines.insert(i, "")
        if not lines:
            break
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "edited.scheme"


@settings(max_examples=300, deadline=None)
@given(text=edited_texts())
def test_line_edits_read_back_or_raise_scheme_file_error(fuzz_path, text):
    fuzz_path.write_text(text)
    try:
        back = read_scheme(str(fuzz_path))
    except SchemeFileError:
        return
    # accepted: a valid scheme whose text reads back to the same scheme
    back.validate()
    fuzz_path.write_text(scheme_to_text(back))
    assert read_scheme(str(fuzz_path)) == back


# -- one bad field names its line ----------------------------------------------

LEAF_FIELDS = {True: ("counts", "payload_bits", "depth", "weight"),
               False: ("counts", "used_count", "depth", "weight")}
CONVERTERS = {"counts": lambda v: tuple(int(x) for x in v.split(",")),
              "payload_bits": int, "depth": int, "used_count": int,
              "weight": float}


def converts(field, text, tree):
    if field == "depth" and not tree:
        return text == ""  # an ess leaf's depth field is empty
    try:
        value = CONVERTERS[field](text)
    except ValueError:
        return False
    return field != "counts" or len(value) == A2.m


@st.composite
def one_bad_field(draw):
    name = draw(st.sampled_from(sorted(TOY_TEXTS)))
    lines = TOY_TEXTS[name].splitlines()
    first = lines.index(next(ln for ln in lines if ln.startswith("leaves="))) + 1
    i = draw(st.integers(first, len(lines) - 1))
    tree = is_tree_scheme(name)
    fields = LEAF_FIELDS[tree]
    slot = draw(st.integers(0, len(fields) - 1))
    field = fields[slot]
    bad = draw(st.text("0123456789,.-+_ xe", max_size=8)
               .filter(lambda v: not converts(field, v, tree)))
    parts = lines[i].split("|")
    parts[slot] = bad
    lines[i] = "|".join(parts)
    return "\n".join(lines) + "\n", i + 1, field


@settings(max_examples=200, deadline=None)
@given(case=one_bad_field())
def test_bad_leaf_field_names_line_and_field(fuzz_path, case):
    text, lineno, field = case
    fuzz_path.write_text(text)
    with pytest.raises(SchemeFileError) as err:
        read_scheme(str(fuzz_path))
    assert str(err.value).startswith(f"{fuzz_path}:{lineno}: {field}: ")


@pytest.mark.parametrize("name,old,new,message", [
    ("ccdm", "3,3|4|0|1.0", "3,x|4|0|1.0",
     "9: counts: invalid literal for int() with base 10: 'x'"),
    ("ccdm", "3,3|4|0|1.0", "3,3,0|4|0|1.0",
     "9: counts: 3 levels, alphabet has 2"),
    # one count too many and one too few: the leaf section still holds
    # 2 counts per line on average
    ("mpdm", "4,2|3|1|0.5\n5,1|2|2|0.25", "4,2,1|3|1|0.5\n5|2|2|0.25",
     "9: counts: 3 levels, alphabet has 2"),
    ("mpdm", "5,1|2|2|0.25", "5,1|2|2|quarter",
     "10: weight: could not convert string to float: 'quarter'"),
    ("mpdm", "5,1|2|2|0.25", "5,1|2|2.0|0.25",
     "10: depth: invalid literal for int() with base 10: '2.0'"),
    ("ess", "5,1|6||0.375", "5,1|6e0||0.375",
     "11: used_count: invalid literal for int() with base 10: '6e0'"),
    ("ess", "5,1|6||0.375", "5,1|6|0.375",
     "11: malformed leaf line '5,1|6|0.375'"),
    ("ess", "5,1|6||0.375", "5,1|6|7|0.375",
     "11: depth: an ess leaf has no depth, found '7'"),
    ("ess", "5,1|6||0.375", "5,1|6|junk|0.375",
     "11: depth: an ess leaf has no depth, found 'junk'"),
    # lines end only at \n, \r and \r\n: a form feed is whitespace inside
    # its line, so the line numbers after it do not move
    ("mpdm", "4,2|3|1|0.5\n5,1|2|2|0.25", "4,2|3|\f1|0.5\n5,1|2|2|quarter",
     "10: weight: could not convert string to float: 'quarter'"),
])
def test_leaf_field_messages(tmp_path, name, old, new, message):
    # one pass over each line converts its fields in order and names the
    # first that fails
    text = TOY_TEXTS[name]
    assert old in text
    path = tmp_path / "bad.scheme"
    path.write_text(text.replace(old, new))
    with pytest.raises(SchemeFileError) as err:
        read_scheme(str(path))
    assert str(err.value) == f"{path}:{message}"


# -- an ESS file is the ESS its header names -------------------------------------

ESS_ALPHABETS = [A2, d.AmplitudeAlphabet((1, 3, 5)), d.DEFAULT_ALPHABET]


@st.composite
def ess_builds(draw):
    """A small ESS build: n <= 14 over 2 to 4 levels, at any k that fits."""
    alphabet = draw(st.sampled_from(ESS_ALPHABETS))
    n = draw(st.integers(1, 14))
    k = draw(st.integers(0, math.floor(n * math.log2(alphabet.m))))
    return d.build_ess(n, k, alphabet)


def leaves_line(lines):
    """Index of the leaves= line among a scheme file's lines."""
    return next(i for i, ln in enumerate(lines) if ln.startswith("leaves="))


@settings(max_examples=150, deadline=None)
@given(built=ess_builds(), chunk=st.sampled_from([1, 3, kernels.CHUNK]),
       stride=st.sampled_from([1, 3, schemes.START_STRIDE]), data=st.data())
def test_derived_used_counts_equal_the_tuple_oracle(built, chunk, stride,
                                                    data):
    # the reader forms the table by the build's walk; every read of the
    # derived column gives the file's values, full up to the crossing shell
    # and 0 after it, and the codec addresses them as a walk over the
    # file's tuple would
    text = scheme_to_text(built)
    leaves = ess_leaf_fields(text)
    used = [u for _, u, _ in leaves]
    need = 1 << built.k
    words = [0, need - 1,
             *data.draw(st.lists(st.integers(0, need - 1), max_size=12))]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(kernels, "CHUNK", chunk), \
            mock.patch.object(schemes, "START_STRIDE", stride), \
            mock.patch("dmshape.codec.START_STRIDE", stride):
        path = os.path.join(tmp, "ess.scheme")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        back = read_scheme(path)
        assert back == built
        table = back.leaves
        assert list(table.used_counts) == used
        assert table.used_counts == tuple(used)
        assert table.used_counts[1::2] == tuple(used[1::2])
        cross = table.used_counts.cross
        assert used[:cross] == [multinomial_coefficient(c)
                                for c, _, _ in leaves[:cross]]
        assert 0 < used[cross] <= multinomial_coefficient(leaves[cross][0])
        assert not any(used[cross + 1:])
        want = [AddressedComposition(c, w, used_count=u) for c, u, w in leaves]
        assert list(table) == want
        assert [table[i] for i in range(len(table))] == want
        codec = d.SchemeCodec(back)
        levels = back.alphabet.levels
        for word in words:
            counts, rank = ess_address(word, leaves)
            seq = codec.encode(word)
            assert seq == tuple(levels[t]
                                for t in kernels.cc_unrank(rank, counts))
            assert codec.decode(seq) == word


ESS_EDITS = ("swap", "delete", "move", "weight")


@st.composite
def edited_ess_files(draw):
    """A small ESS file with one edit, and the one line read_scheme says of
    it, with {path} to fill in: the first leaf line that differs from the
    ESS, with the line the ESS has there, or the leaves= line of a file
    that lost a leaf."""
    built = draw(ess_builds())
    lines = scheme_to_text(built).splitlines()
    head = leaves_line(lines)
    first, size = head + 1, len(lines) - head - 1
    kind = draw(st.sampled_from(ESS_EDITS))
    assume(size > 1 or kind in ("delete", "weight"))
    if kind == "delete":
        del lines[first + draw(st.integers(0, size - 1))]
        lines[head] = f"leaves={size - 1}"
        alphabet = next(ln for ln in lines if ln.startswith("alphabet="))
        return "\n".join(lines) + "\n", (
            f"{{path}}:{head + 1}: leaves: {size - 1}, the ESS of "
            f"n={built.n}, k={built.k} over {alphabet[9:]} has {size} shells")
    was = list(lines)
    fields = [ln.split("|") for ln in lines[first:]]
    if kind == "swap":
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2,
                             max_size=2, unique=True))
        fields[i], fields[j] = fields[j], fields[i]
    elif kind == "move":  # used sequences from one leaf to another
        i = draw(st.sampled_from([i for i, f in enumerate(fields)
                                  if int(f[1])]))
        j = draw(st.integers(0, size - 1).filter(lambda j: j != i))
        x = draw(st.integers(1, int(fields[i][1])))
        fields[i][1] = str(int(fields[i][1]) - x)
        fields[j][1] = str(int(fields[j][1]) + x)
    else:
        i = draw(st.integers(0, size - 1))
        weight = float(fields[i][3])
        fields[i][3] = repr(draw(st.floats().filter(lambda w: w != weight)))
    lines[first:] = map("|".join, fields)
    at = next(i for i in range(first, len(lines)) if lines[i] != was[i])
    return "\n".join(lines) + "\n", (
        f"{{path}}:{at + 1}: leaf: expected {was[at]}, found {lines[at]}")


@settings(max_examples=200, deadline=None)
@given(case=edited_ess_files(), chunk=st.sampled_from([1, 3, kernels.CHUNK]))
def test_one_edit_of_an_ess_file_is_one_line(fuzz_path, case, chunk):
    text, fault = case
    fuzz_path.write_text(text)
    with mock.patch.object(kernels, "CHUNK", chunk):
        with pytest.raises(SchemeFileError) as err:
            read_scheme(str(fuzz_path))
    assert str(err.value) == fault.replace("{path}", str(fuzz_path))


PROBE = ["--n", "12", "--k", "14", "--alphabet", "1,3,5,7"]


@pytest.fixture
def probe_lines(tmp_path, capsys):
    """The lines of the 21-leaf file that build writes for PROBE."""
    good = tmp_path / "good.scheme"
    assert main(["build", "--scheme", "ess", *PROBE, "--out", str(good)]) == 0
    capsys.readouterr()
    lines = good.read_text().splitlines()
    assert lines[8] == "leaves=21" and len(lines) == 30
    return lines


def refusals(path, tmp_path):
    """The exit codes of analyze and of codec encode on path, run in turn
    (each leaves its stderr to capsys)."""
    cfg = tmp_path / "eta.cfg"
    cfg.write_text("eta0=15000\neta1=8000\n")
    for argv in (["analyze", str(path), "--config", str(cfg), "--out",
                  str(tmp_path / "r")], ["codec", "encode", str(path), "0x5"]):
        yield main(argv)


@pytest.mark.parametrize("probe", ["reversed", "zero-weight-shell-deleted"])
def test_ess_probes_are_one_line(probe, probe_lines, tmp_path, capsys):
    # leaf lines in reverse order read as another scheme's words (0x5 went
    # to 1,1,1,1,1,1,3,3,3,3,3,5, not 1,1,1,1,3,1,1,1,1,1,1,1), and a ball
    # short of a shell as a scheme of 20 compositions; both were accepted
    lines, bad = probe_lines, tmp_path / "bad.scheme"
    if probe == "reversed":
        lines[9:] = lines[9:][::-1]
        want = (f"{bad}:10: leaf: expected 12,0,0,0|1||6.103515625e-05, "
                "found 9,2,0,1|0||0.0")
    else:
        lines.remove("9,2,0,1|0||0.0")
        lines[8] = "leaves=20"
        want = (f"{bad}:9: leaves: 20, the ESS of n=12, k=14 over 1,3,5,7 "
                "has 21 shells")
    bad.write_text("\n".join(lines) + "\n")
    for code in refusals(bad, tmp_path):
        assert code == 3
        assert capsys.readouterr().err == f"dmshape: {want}\n"


# Each header names a ball the walk refuses before any leaf line is read,
# in one line: at n=520, k=840 the radius takes ~0.35 s and the shell count
# refuses in ~5 ms (2-core x86-64, Python 3.11); the others take under
# 10 ms.  The bound leaves room for a slow host.
HOSTILE_HEADERS = {
    "n-520": ({"n=12": "n=520", "k=14": "k=840"},
              "the ESS ball at n=520 over 4 levels holds more than "
              f"MAX_ESS_SHELLS={kernels.MAX_ESS_SHELLS} shells"),
    "n-above-max": ({"n=12": f"n={schemes.MAX_BLOCK_LENGTH + 1}"},
                    f"n={schemes.MAX_BLOCK_LENGTH + 1} exceeds "
                    f"MAX_BLOCK_LENGTH={schemes.MAX_BLOCK_LENGTH}"),
    "n-0": ({"n=12": "n=0"}, "n=0 is not a positive block length"),
    "k-above-range": ({"k=14": "k=25"}, "k=25 outside [0, n*log2(m)]"),
    "k-negative": ({"k=14": "k=-1"}, "k=-1 outside [0, n*log2(m)]"),
    "binomial-budget": ({}, "the multinomials at n=12 need more binomial "
                        "work than MAX_BINOMIAL_WORK=1"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_HEADERS))
def test_hostile_ess_headers_are_one_line(case, probe_lines, tmp_path,
                                          capsys, monkeypatch):
    edits, reason = HOSTILE_HEADERS[case]
    if case == "binomial-budget":  # every binomial charged, one unit allowed
        monkeypatch.setattr(kernels, "MAX_TABLE_N", -1)
        monkeypatch.setattr(kernels, "MAX_BINOMIAL_WORK", 1)
    bad = tmp_path / "bad.scheme"
    bad.write_text("\n".join(edits.get(ln, ln) for ln in probe_lines) + "\n")
    t0 = time.perf_counter()
    codes = list(refusals(bad, tmp_path))
    assert time.perf_counter() - t0 < 3.0
    assert codes == [3, 3]
    want = f"dmshape: {bad}: inconsistent scheme: {reason}\n"
    assert capsys.readouterr().err == want * 2


# -- hostile used counts ---------------------------------------------------------

# The toy ESS at n=6, k=4 over {1, 3} uses (6,0) x1, (5,1) x6, (4,2) x9: its
# crossing is leaf 2, using 9.  Each hostile column moves the crossing or
# its count, or states other weights, and validate refuses the table as the
# tuple oracle says.  The first three put a block start outside [0, 2^4] at
# a stride of 1, where its one byte could not hold it: a negative count, a
# count above 2^k, and a count beyond int64; the starts are then unformed.
TOY_WEIGHTS = [1 / 16, 6 / 16, 9 / 16]
HOSTILE_USED = {
    "negative": (0, -1, TOY_WEIGHTS),
    "above-2^k": (1, 300, TOY_WEIGHTS),
    "beyond-int64": (1, 10**30, TOY_WEIGHTS),
    "crossing-early": (1, 6, TOY_WEIGHTS),
    "crossing-past-the-end": (3, 0, TOY_WEIGHTS),
    "weights-swapped": (2, 9, [6 / 16, 1 / 16, 9 / 16]),
}
UNFORMED = ["above-2^k", "beyond-int64", "negative"]


def hostile_verdict(case):
    """The toy with a hostile column: its table, the starts its column
    forms at a stride of 1, and what validate says of it."""
    built = d.build_ess(6, 4, A2)
    cross, cross_used, weights = HOSTILE_USED[case]
    counts = built.leaves.counts
    column = UsedCounts(counts, 6, cross, cross_used, None)
    with mock.patch.object(schemes, "START_STRIDE", 1):
        starts = schemes.block_starts(column.blocks(), 4)
    hostile = dataclasses.replace(built, leaves=LeafTable(
        counts, np.array(weights), used_counts=column))
    leaves = [(leaf.counts, leaf.used_count, leaf.weight)
              for leaf in hostile.leaves]
    assert [u for _, u, _ in leaves] == list(column)
    with pytest.raises(ConstructionBugError) as err:
        hostile.validate()
    assert str(err.value) == ess_verdict(6, 4, leaves)
    return starts


@pytest.mark.parametrize("case", UNFORMED)
def test_hostile_used_counts_leave_the_starts_unformed(case):
    assert hostile_verdict(case) is None


@pytest.mark.parametrize("case", sorted(set(HOSTILE_USED) - set(UNFORMED)))
def test_hostile_crossings_and_weights_are_refused(case):
    assert hostile_verdict(case).tolist() == [[0], [1], [7]]


@pytest.mark.parametrize("cross_used", [9, np.int64(9)], ids=["ints", "int64"])
def test_used_counts_of_total_2k_form_their_starts(cross_used):
    # a numpy crossing count is held as a Python int, so the derived
    # column, its starts and the codec's words are Python ints
    counts = d.build_ess(6, 4, A2).leaves.counts
    column = UsedCounts(counts, 6, 2, cross_used, None)
    assert [type(u) for u in column] == [int] * 3
    with mock.patch.object(schemes, "START_STRIDE", 1):
        starts = schemes.block_starts(column.blocks(), 4)
    assert starts.tolist() == [[0], [1], [7]]


def test_a_table_takes_only_a_used_column_over_its_own_counts():
    table = d.build_ess(6, 4, A2).leaves
    for used in ([1, 6, 9], np.array([1, 6, 9]),
                 UsedCounts(table.counts.copy(), 6, 2, 9, None)):
        with pytest.raises(ValueError, match="UsedCounts over counts"):
            LeafTable(table.counts, table.weights, used_counts=used)


# Each edit states a hostile used count on one leaf line of the toy: a
# negative count, a count above 2^k (with the total still 2^k), a count
# beyond int64.
HOSTILE_LINES = {
    "negative": ["6,0|-1||0.0625", "5,1|8||0.375", "4,2|9||0.5625"],
    "above-2^k": ["6,0|300||0.0625", "5,1|-290||0.375", "4,2|6||0.5625"],
    "beyond-int64": ["6,0|1||0.0625", f"5,1|{10**30}||0.375",
                     "4,2|6||0.5625"],
}


@pytest.mark.parametrize("case", UNFORMED)
def test_hostile_used_counts_in_a_file_are_one_line(case, tmp_path, capsys):
    # the first line that differs from the ESS is named
    lines = scheme_to_text(d.build_ess(6, 4, A2)).splitlines()
    was, lines[9:] = lines[9:], HOSTILE_LINES[case]
    line = next(i for i in range(3) if lines[9 + i] != was[i])
    path = tmp_path / "bad.scheme"
    path.write_text("\n".join(lines) + "\n")
    want = (f"{path}:{10 + line}: leaf: expected {was[line]}, "
            f"found {lines[9 + line]}")
    with pytest.raises(SchemeFileError) as err:
        read_scheme(str(path))
    assert str(err.value) == want
    capsys.readouterr()
    assert main(["codec", "encode", str(path), "0x1"]) == 3
    assert capsys.readouterr().err == f"dmshape: {want}\n"
