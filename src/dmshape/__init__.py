"""Finite-blocklength distribution matchers and per-block SNR analysis."""

__version__ = "0.1.0"

from .combinatorics import (  # noqa: F401
    AmplitudeAlphabet,
    BlockMoments,
    DEFAULT_ALPHABET,
    block_moments,
    energy,
    entropy,
    input_bits,
    pmf_of,
    rate_loss,
    select_emax,
)
from .schemes import AddressedComposition, CompositionSet  # noqa: F401
from .ccdm import build_ccdm, mb_pmf, quantize_pmf, select_ccdm  # noqa: F401
from .mpdm import build_mpdm, enumerate_pairs, select_mpdm_target  # noqa: F401
from .ess import build_ess  # noqa: F401
from .optimizer import build_opt_mpdm, compare_schemes  # noqa: F401
from .codec import SchemeCodec, cc_rank, cc_unrank  # noqa: F401
from .nli import (  # noqa: F401
    LinkConfig,
    NliModel,
    SnrReport,
    WdmConfig,
    analyze,
    ase_variance,
    calibrate,
    gn_eta0,
    optimal_power,
    snr_eff,
)
from .config import RunConfig, parse_config  # noqa: F401
from .schemefile import read_scheme, scheme_to_text, write_scheme  # noqa: F401
