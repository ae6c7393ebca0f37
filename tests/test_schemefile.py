import dataclasses
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    ess_address,
    ess_leaf_fields,
    ess_verdict,
    multinomial_coefficient,
)

import dmshape as d
from dmshape import kernels, schemes
from dmshape.cli import main
from dmshape.combinatorics import rate_loss
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


# -- derived ESS used counts ----------------------------------------------------

USED_EDITS = ("text", "value", "value-and-weight", "shift", "garbage")


@st.composite
def edited_ess_files(draw):
    """A small ESS file with some used-count fields edited, and what the
    tuple oracle says of it: (text, leaves, fault, words).  fault is None
    for a file read_scheme must accept, else its message with {path} and
    {line} to fill in.  A shift moves used sequences between two leaves
    with both weights restated, and the header then states the edited
    leaves' avg_pmf and rate_loss, so such a file can pass."""
    alphabet = draw(st.sampled_from([A2, d.AmplitudeAlphabet((1, 3, 5)),
                                     d.DEFAULT_ALPHABET]))
    n = draw(st.integers(1, 14))
    k = draw(st.integers(0, math.floor(n * math.log2(alphabet.m))))
    need = 1 << k
    lines = scheme_to_text(d.build_ess(n, k, alphabet)).splitlines()
    head = lines.index(next(ln for ln in lines if ln.startswith("leaves=")))
    leaves = ess_leaf_fields("\n".join(lines))
    used = [u for _, u, _ in leaves]
    texts = list(map(str, used))
    weights = [repr(w) for _, _, w in leaves]
    for kind in draw(st.lists(st.sampled_from(USED_EDITS), max_size=3)):
        i = draw(st.integers(0, len(used) - 1))
        mc = multinomial_coefficient(leaves[i][0])
        if kind == "text" and used[i] >= 0:  # the same value, other digits
            texts[i] = draw(st.sampled_from(["+{}", "0{}", "00{}"])).format(
                used[i])
        elif kind.startswith("value"):
            x = draw(st.sampled_from([-1, 0, mc - 1, mc, mc + 1, need,
                                      need + 1, 10**30]))
            used[i], texts[i] = x, str(x)
            if kind == "value-and-weight" and 0 <= x <= need:
                weights[i] = repr(x / need)
        elif kind == "shift" and len(used) > 1:
            j = draw(st.integers(0, len(used) - 1).filter(lambda j: j != i))
            x = draw(st.integers(0, max(used[i], 0)))
            used[i] -= x
            used[j] += x
            for t in (i, j):
                texts[t] = str(used[t])
                if 0 <= used[t] <= need:
                    weights[t] = repr(used[t] / need)
        elif kind == "garbage":
            texts[i] = draw(st.sampled_from(["x", "1.5", ""]))
    leaves = [(c, u, float(w)) for (c, _, _), u, w in zip(leaves, used,
                                                          weights)]
    fault = ess_verdict(n, k, leaves)
    if fault is None:
        avg = [0.0] * alphabet.m
        for counts, _, w in leaves:
            for j, c in enumerate(counts):
                avg[j] += w * c / n
        try:
            loss = rate_loss(avg, k, n)
        except ConstructionBugError as exc:
            fault = str(exc)
        else:
            lines = [f"avg_pmf={','.join(map(repr, avg))}"
                     if ln.startswith("avg_pmf=") else
                     f"rate_loss={loss!r}" if ln.startswith("rate_loss=")
                     else ln for ln in lines]
    if fault is not None:
        fault = "{path}: inconsistent scheme: " + fault
    garbage = [i for i, t in enumerate(texts) if t in ("x", "1.5", "")]
    if garbage:
        i = garbage[0]
        fault = (f"{{path}}:{head + 2 + i}: used_count: invalid literal for "
                 f"int() with base 10: {texts[i]!r}")
    lines[head + 1:] = ["|".join((ln.split("|")[0], t, "", w)) for ln, t, w
                        in zip(lines[head + 1:], texts, weights)]
    words = draw(st.lists(st.integers(0, need - 1), max_size=12))
    return "\n".join(lines) + "\n", leaves, fault, [0, need - 1, *words]


@settings(max_examples=250, deadline=None)
@given(case=edited_ess_files(), chunk=st.sampled_from([1, 3, kernels.CHUNK]),
       stride=st.sampled_from([1, 3, schemes.START_STRIDE]))
def test_derived_used_counts_equal_the_tuple_oracle(case, chunk, stride):
    # the reader keeps only the used counts that differ from their shell's
    # multinomial; every read of the column gives the file's values, and
    # the codec addresses them as a walk over the file's tuple would
    text, leaves, fault, words = case
    used = [u for _, u, _ in leaves]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(kernels, "CHUNK", chunk), \
            mock.patch.object(schemes, "START_STRIDE", stride), \
            mock.patch("dmshape.codec.START_STRIDE", stride):
        path = os.path.join(tmp, "ess.scheme")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            built = read_scheme(path)
        except SchemeFileError as exc:
            assert str(exc) == fault.replace("{path}", path)
            return
        assert fault is None
        table = built.leaves
        assert list(table.used_counts) == used
        assert table.used_counts == tuple(used)
        assert table.used_counts[1::2] == tuple(used[1::2])
        assert dict(table.used_counts.overrides) == {
            i: u for i, (c, u, _) in enumerate(leaves)
            if u != multinomial_coefficient(c)}
        want = [AddressedComposition(c, w, used_count=u) for c, u, w in leaves]
        assert list(table) == want
        assert [table[i] for i in range(len(table))] == want
        codec = d.SchemeCodec(built)
        levels = built.alphabet.levels
        for word in words:
            counts, rank = ess_address(word, leaves)
            seq = codec.encode(word)
            assert seq == tuple(levels[t]
                                for t in kernels.cc_unrank(rank, counts))
            assert codec.decode(seq) == word


# -- hostile used counts ---------------------------------------------------------

# The toy ESS at n=6, k=4 over {1, 3} uses (6,0) x1, (5,1) x6, (4,2) x9.  Each
# edit puts a block start outside [0, 2^4] at a stride of 1, where its one
# byte could not hold it: a negative count, a count above 2^k (with the
# total still 2^k), and a count beyond int64 held in an object array.
HOSTILE_USED = {
    "negative": [-1, 8, 9],
    "above-2^k": [300, -290, 6],
    "beyond-int64": np.array([1, 10**30, 6], dtype=object),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_USED))
def test_hostile_used_counts_leave_the_starts_unformed(case):
    built = d.build_ess(6, 4, A2)
    used = HOSTILE_USED[case]
    leaves = [(c, int(u), w) for c, u, w in zip(
        (leaf.counts for leaf in built.leaves), used, built.leaves.weights)]
    with mock.patch.object(schemes, "START_STRIDE", 1):
        column = UsedCounts.of_values(built.leaves.counts, used)
        assert column.starts is None
        hostile = dataclasses.replace(built, leaves=LeafTable(
            built.leaves.counts, built.leaves.weights, used_counts=used))
        with pytest.raises(ConstructionBugError) as err:
            hostile.validate()
    assert str(err.value) == ess_verdict(6, 4, leaves)


@pytest.mark.parametrize("used", [[1, 6, 9], np.array([1, 6, 9])],
                         ids=["ints", "int64"])
def test_used_counts_of_total_2k_form_their_starts(used):
    # k is taken from the total, and numpy ints are packed as Python ints
    counts = d.build_ess(6, 4, A2).leaves.counts
    with mock.patch.object(schemes, "START_STRIDE", 1):
        column = UsedCounts.of_values(counts, used)
    assert column.starts.tolist() == [[0], [1], [7]]


@pytest.mark.parametrize("case", sorted(HOSTILE_USED))
def test_hostile_used_counts_in_a_file_are_one_line(case, tmp_path, capsys):
    lines = scheme_to_text(d.build_ess(6, 4, A2)).splitlines()
    head = lines.index(next(ln for ln in lines if ln.startswith("leaves=")))
    leaves = []
    for i, used in enumerate(HOSTILE_USED[case], head + 1):
        counts, _, depth, weight = lines[i].split("|")
        lines[i] = "|".join((counts, str(used), depth, weight))
        leaves.append((tuple(map(int, counts.split(","))), int(used),
                       float(weight)))
    path = tmp_path / "bad.scheme"
    path.write_text("\n".join(lines) + "\n")
    want = f"{path}: inconsistent scheme: {ess_verdict(6, 4, leaves)}"
    with mock.patch.object(schemes, "START_STRIDE", 1):
        with pytest.raises(SchemeFileError) as err:
            read_scheme(str(path))
        assert str(err.value) == want
        capsys.readouterr()
        assert main(["codec", "encode", str(path), "0x1"]) == 3
    assert capsys.readouterr().err == f"dmshape: {want}\n"
