"""Kurtosis-pruned multi-composition scheme and the four-way comparison.

The nonlinearity-aware construction starts from the pairwise scheme with one
extra input bit, breaks the pairwise coupling, discards compositions from
the high-kurtosis end while the remaining address space still covers 2^k,
and finally re-tightens the tree to a minimal exact cover at k bits.  The
highest-kurtosis (worst effective SNR) blocks disappear and the average
distribution is allowed to drift; rate is preserved exactly.

Once the pairs are broken each leaf can address up to its own multinomial
capacity, so the re-cover ranks survivors by min(input_bits, k) rather than
the depth the balanced k+1 tree happened to assign them; this is what
shrinks the composition count by an order of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .ccdm import build_ccdm
from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    check_k_range,
    colex_key,
    input_bits,
    kurtosis_of,
)
from .errors import RateInfeasibleError
from .ess import build_ess
from .mpdm import build_mpdm
from .nli import NliModel, analyze
from .schemes import CompositionSet, exact_cover, tree_scheme


def build_opt_mpdm(n: int, k: int,
                   alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> CompositionSet:
    """Prune a (k+1)-bit pairwise scheme down to k bits, worst kurtosis first."""
    check_k_range(n, k, alphabet.m)
    try:
        base = build_mpdm(n, k + 1, alphabet)
    except RateInfeasibleError as exc:  # it names k+1, not the caller's k
        raise RateInfeasibleError(
            f"opt-mpdm at k={k} needs room for k+1={k + 1} bits: {exc}"
        ) from None
    finally:
        # the k+1 build is the last reader of the pair list an MPDM build at
        # k leaves behind (its target is the same), so the list goes here
        kernels.scanned_pairs.cache_clear()
    need = 1 << k
    kurtosis = dict(zip(map(tuple, base.leaves.counts.tolist()),
                        kurtosis_of(base.leaves.counts, alphabet)))
    ranked = sorted(kurtosis,
                    key=lambda counts: (-kurtosis[counts], colex_key(counts)))
    # Addressability of a freed leaf is its own multinomial capacity (the
    # pairwise coupling is gone), clipped at the full input width.
    payloads = [min(input_bits(counts), k) for counts in ranked]
    capacity = sum(1 << p for p in payloads)
    first_kept = 0
    while first_kept < len(ranked):
        drop = 1 << payloads[first_kept]
        if capacity - drop < need:
            break
        capacity -= drop
        first_kept += 1
    items = [((counts,), p)
             for counts, p in zip(ranked[first_kept:], payloads[first_kept:])]
    cover = exact_cover(items, k)
    return tree_scheme("opt-mpdm", n, k, alphabet, cover)


# The one scheme registry, tag -> builder(n, k, alphabet), in compare-row order.
BUILDERS = {
    "ccdm": build_ccdm,
    "ess": build_ess,
    "mpdm": build_mpdm,
    "opt-mpdm": build_opt_mpdm,
}


@dataclass(frozen=True)
class SchemeRow:
    """One comparison row: composition count, rate loss, SNR aggregates."""

    scheme: str
    n_compositions: int
    rate_loss: float
    max_snr_db: float
    min_snr_db: float
    p2p_db: float
    avg_snr_db: float


def compare_schemes(n: int, k: int, model: NliModel,
                    alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET,
                    built: dict[str, CompositionSet] | None = None) -> list[SchemeRow]:
    """Rows for all four schemes at identical (n, k) under one model.

    ``built`` can supply pre-built schemes by tag to avoid rebuilding.
    """
    built = dict(built or {})
    # The MPDM builds run first, k then k+1: the k+1 build reuses the pair
    # list the k build leaves in kernels.scanned_pairs and then drops it, so
    # no pair list is held through the ESS build and analyze.  A failure
    # waits for its row's turn, so the first row at fault names the error.
    failed = {}
    for tag in ("mpdm", "opt-mpdm"):
        if tag not in built:
            try:
                built[tag] = BUILDERS[tag](n, k, alphabet)
            except Exception as exc:
                failed[tag] = exc
    rows = []
    for tag, builder in BUILDERS.items():
        if tag in failed:
            raise failed[tag]
        scheme = built.get(tag) or builder(n, k, alphabet)
        report = analyze(scheme, model)
        rows.append(SchemeRow(scheme=scheme.scheme,
                              n_compositions=scheme.n_compositions,
                              rate_loss=scheme.rate_loss,
                              max_snr_db=report.max_db,
                              min_snr_db=report.min_db,
                              p2p_db=report.p2p_db,
                              avg_snr_db=report.avg_db))
    return rows
