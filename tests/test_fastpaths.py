"""Exactness of the pruned build paths against the full sweeps they replace.

Each fast path must return exactly what the straightforward computation
returns: MPDM target selection with the log-convexity bound against the
unpruned pair-scan sweep, the generating-polynomial ESS radius against the
cumulative kernels.energy_totals scan, and the chunked analyze against the
per-leaf block_moments + snr_eff reference (compared with ==, not approx).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import dmshape as d
from dmshape import kernels, mpdm, nli
from dmshape.ccdm import mb_composition_chain
from dmshape.combinatorics import enumerate_compositions, input_bits
from dmshape.errors import ModelDomainError, RateInfeasibleError
from dmshape.ess import _integer_radius

ALPHABETS = [
    d.AmplitudeAlphabet((1, 3)),
    d.AmplitudeAlphabet((0.5, 1.5)),  # non-unit energy scale (1/4)
    d.AmplitudeAlphabet((1, 3, 5)),
    d.DEFAULT_ALPHABET,
]

alphabets = st.sampled_from(ALPHABETS)


def max_k(n, alphabet):
    return math.floor(n * math.log2(alphabet.m))


@st.composite
def compositions(draw, max_n=12):
    alphabet = draw(alphabets)
    n = draw(st.integers(1, max_n))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=alphabet.m - 1,
                                max_size=alphabet.m - 1)))
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:])), alphabet


# -- MPDM target selection ---------------------------------------------------

def unpruned_target(n, k, alphabet):
    """The full sweep: pair-scan every chain candidate until one reaches 2^k."""
    need = 1 << k
    for _, comp in mb_composition_chain(n, alphabet):
        space = kernels.pair_capacity(comp, mpdm.min_pair_payload(comp))
        if (1 << min(input_bits(comp), k)) + space >= need:
            return comp
    return None


@settings(max_examples=40, deadline=None)
@given(alphabet=alphabets, n=st.sampled_from([6, 11]), data=st.data())
def test_pruned_target_equals_unpruned_sweep(alphabet, n, data):
    k = data.draw(st.integers(0, max_k(n, alphabet)))
    try:
        got = mpdm.select_mpdm_target(n, k, alphabet)
    except RateInfeasibleError:
        got = None
    assert got == unpruned_target(n, k, alphabet)


@settings(max_examples=150, deadline=None)
@given(compositions())
def test_pair_space_bounds_dominate(case):
    c0, alphabet = case
    # both bounds hold for every payload window, not just the default one
    full = kernels.pair_capacity(c0, 0)
    assert full >= mpdm._pair_space(c0)
    assert mpdm._pair_space_bound(c0) >= full
    # the geometric-mean bound also dominates the sum of min(MC(C), MC(C'))
    # that its proof bounds, which is looser than the payload floor
    n = sum(c0)
    min_sum = 0
    for c in enumerate_compositions(n, alphabet):
        cb = tuple(2 * a - x for a, x in zip(c0, c))
        if c != c0 and min(cb) >= 0:
            min_sum += min(kernels.mc_counts(c), kernels.mc_counts(cb))
    assert min_sum >= full
    assert mpdm._pair_space_gm_bound(c0) >= min_sum


@settings(max_examples=100, deadline=None)
@given(compositions(max_n=9))
def test_box_count_brute_force(case):
    c0, alphabet = case
    n = sum(c0)
    box = [min(2 * a, n) for a in c0]
    brute = sum(1 for c in enumerate_compositions(n, alphabet)
                if all(x <= b for x, b in zip(c, box)))
    assert mpdm._box_count(c0) == brute


def test_reference_scale_scans_at_most_two(monkeypatch):
    mpdm._pair_space.cache_clear()
    calls = []
    real = kernels.pair_capacity

    def counting(c0, min_payload):
        calls.append(c0)
        return real(c0, min_payload)

    monkeypatch.setattr(kernels, "pair_capacity", counting)
    assert d.select_mpdm_target(216, 349) == (105, 70, 31, 10)
    assert len(calls) <= 2


# -- ESS radius ----------------------------------------------------------------

def scanned_radius(n, k, alphabet):
    units, _ = alphabet.integer_energies()
    totals, _ = kernels.energy_totals(n, units)
    cum = 0
    for e, t in enumerate(totals):
        cum += t
        if t and cum >= 1 << k:
            return e
    return None


@settings(max_examples=120, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 24), data=st.data())
def test_polynomial_radius_equals_energy_scan(alphabet, n, data):
    k = data.draw(st.integers(0, max_k(n, alphabet) + 1))
    try:
        got = _integer_radius(n, k, alphabet)
    except RateInfeasibleError:
        got = None
    assert got == scanned_radius(n, k, alphabet)


@pytest.mark.parametrize("n,k", [(24, 36), (40, 70)])
def test_polynomial_radius_at_scale(n, k):
    assert _integer_radius(n, k, d.DEFAULT_ALPHABET) == \
        scanned_radius(n, k, d.DEFAULT_ALPHABET)


def test_shell_energies_match_fraction_arithmetic():
    alphabet = d.AmplitudeAlphabet((0.5, 1.5, 3.25))
    units, scale = alphabet.integer_energies()
    index = d.ess.shell_index(9, 11, alphabet)
    for counts, e, _ in index.shells:
        exact = sum(c * u for c, u in zip(counts, units))
        assert e == float(exact * scale)


# -- analyze -------------------------------------------------------------------

MODEL = d.NliModel(eta0=1.5e4, eta1=8e3, ase_variance_w=2e-5,
                   launch_power_w=1e-3, eta2=3e2)


def reference_entries(built, model):
    out = []
    for leaf in built.leaves:
        if leaf.weight <= 0:
            continue
        mom = d.block_moments(d.pmf_of(leaf.counts), built.alphabet)
        out.append((nli.composition_id(leaf.counts), mom.kurtosis_2d,
                    leaf.weight,
                    d.snr_eff(mom.kurtosis_2d, mom.psi_2d, model)))
    return out


def observed_entries(report):
    return [(e.composition_id, e.kurtosis, e.weight, e.snr_db)
            for e in report.entries]


def adhoc_set(alphabet, counts_list):
    n = sum(counts_list[0])
    leaves = tuple(d.AddressedComposition(counts=c, weight=1 / len(counts_list))
                   for c in counts_list)
    return d.CompositionSet(scheme="ess", n=n, k=0, alphabet=alphabet,
                            leaves=leaves, avg_pmf=(0.0,) * alphabet.m,
                            rate_loss=0.0)


@settings(max_examples=60, deadline=None)
@given(alphabet=alphabets, n=st.integers(1, 40), data=st.data(),
       chunk=st.sampled_from([1, 3, nli.ANALYZE_CHUNK]))
def test_chunked_analyze_equals_per_leaf(alphabet, n, data, chunk):
    comps = data.draw(st.lists(
        st.lists(st.integers(0, n), min_size=alphabet.m - 1,
                 max_size=alphabet.m - 1).map(sorted),
        min_size=1, max_size=12))
    counts_list = list(dict.fromkeys(
        tuple(b - a for a, b in zip([0] + c, c + [n])) for c in comps))
    built = adhoc_set(alphabet, counts_list)
    old = nli.ANALYZE_CHUNK
    nli.ANALYZE_CHUNK = chunk
    try:
        report = d.analyze(built, MODEL)
    finally:
        nli.ANALYZE_CHUNK = old
    assert observed_entries(report) == reference_entries(built, MODEL)


def test_chunked_analyze_equals_per_leaf_ess216(ess216, model216):
    # this scheme has leaves where mu2**2 != mu2*mu2, so a numpy square
    # in place of the scalar pow would fail here
    mu2 = [d.block_moments(d.pmf_of(leaf.counts)).mu2_1d
           for leaf in ess216.leaves if leaf.weight > 0]
    assert any(x**2 != x * x for x in mu2)
    report = d.analyze(ess216, model216)
    assert observed_entries(report) == reference_entries(ess216, model216)


def test_analyze_domain_error_matches_per_leaf():
    # eta = 1 + 2*(kurtosis - 2) is positive at kurtosis 5/3 (leaf 3,1) and
    # negative at kurtosis 1 (constant-modulus leaf 4,0)
    model = d.NliModel(eta0=1.0, eta1=2.0, ase_variance_w=1e-12,
                       launch_power_w=1e-3)
    a2 = d.AmplitudeAlphabet((1, 3))
    built = adhoc_set(a2, [(3, 1), (4, 0), (0, 4)])
    with pytest.raises(ModelDomainError) as per_leaf:
        nli._leaf_snr((4, 0), a2, model)
    with pytest.raises(ModelDomainError) as chunked:
        d.analyze(built, model)
    assert str(chunked.value) == str(per_leaf.value)
    assert "kurtosis 1.0" in str(chunked.value)


def test_analyze_wrong_length_leaf_raises_like_per_leaf():
    built = adhoc_set(d.AmplitudeAlphabet((1, 3)), [(2, 2), (1, 1, 2)])
    with pytest.raises(ValueError, match="PMF length does not match alphabet"):
        d.analyze(built, MODEL)
