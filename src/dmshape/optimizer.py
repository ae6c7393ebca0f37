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
from itertools import accumulate, takewhile

import numpy as np

from .ccdm import build_ccdm
from .combinatorics import (
    DEFAULT_ALPHABET,
    AmplitudeAlphabet,
    check_k_range,
    kurtosis_of,
)
from .errors import BinomialBudgetError, RateInfeasibleError
from .ess import build_ess
from .kernels import multinomials
from .mpdm import build_mpdm
from .nli import NliModel, analyze
from .schemes import CompositionSet, exact_cover, row_values, tree_scheme


def build_opt_mpdm(n: int, k: int,
                   alphabet: AmplitudeAlphabet = DEFAULT_ALPHABET) -> CompositionSet:
    """Prune a (k+1)-bit pairwise scheme down to k bits, worst kurtosis first."""
    check_k_range(n, k, alphabet.m)
    try:
        base = build_mpdm(n, k + 1, alphabet)
    except BinomialBudgetError:  # a cost of the table, not of its room
        raise
    except RateInfeasibleError as exc:  # it names k+1, not the caller's k
        raise RateInfeasibleError(
            f"opt-mpdm at k={k} needs room for k+1={k + 1} bits: {exc}"
        ) from None
    counts = base.leaves.counts
    kurtosis = kurtosis_of(counts, alphabet)
    # worst kurtosis first, ties in colex order: the last key is primary
    counts = counts[np.lexsort((*counts.T, -kurtosis))]
    # Addressability of a freed leaf is its own multinomial capacity (the
    # pairwise coupling is gone), clipped at the full input width.
    payloads = np.fromiter((min(mc.bit_length() - 1, k)
                            for mcs in multinomials(counts, n) for mc in mcs),
                           dtype=np.int64, count=len(counts))
    # drop leaves from the front while what is left still reaches 2^k
    slack = sum(1 << p for p in row_values(payloads)) - (1 << k)
    dropped = accumulate(1 << p for p in row_values(payloads))
    first_kept = sum(1 for _ in takewhile(slack.__ge__, dropped))
    counts, payloads = counts[first_kept:], payloads[first_kept:]
    taken, paid = exact_cover(counts, payloads, np.ones_like(payloads), k)
    return tree_scheme("opt-mpdm", n, k, alphabet, counts[taken], paid)


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
    rows = []
    for tag, builder in BUILDERS.items():
        scheme = (built or {}).get(tag) or builder(n, k, alphabet)
        report = analyze(scheme, model)
        rows.append(SchemeRow(scheme=scheme.scheme,
                              n_compositions=scheme.n_compositions,
                              rate_loss=scheme.rate_loss,
                              max_snr_db=report.max_db,
                              min_snr_db=report.min_db,
                              p2p_db=report.p2p_db,
                              avg_snr_db=report.avg_db))
    return rows
