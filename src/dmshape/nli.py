"""Effective-SNR model for the WDM link: ASE + kurtosis-dependent NLI.

The nonlinear interference power is eta(Phi) * P^3 with an affine
modulation correction

    eta = eta0 + eta1 * Phi,      Phi = kurtosis - 2,

so a circular-Gaussian constellation (Phi = 0) sees the baseline eta0 and
sub-Gaussian constellations generate less NLI.  eta0 can come from the
incoherent closed-form Gaussian-noise estimate below, or the (eta0, eta1)
pair can be calibrated from per-scheme SNR anchor points.  Effective SNR
of one shaped block is then

    SNR = P / (sigma_ase^2 + eta * P^3).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .combinatorics import Counts, kurtosis_of
from .errors import CalibrationError, ModelDomainError
from .kernels import chunks
from .schemes import (
    CompositionSet,
    carried_rows,
    row_chunks,
    row_values,
    running_sum,
)

# Exact by the SI definition (m/s, J s).
C_LIGHT = 299792458.0
H_PLANCK = 6.62607015e-34


@dataclass(frozen=True)
class LinkConfig:
    """Span-and-amplifier description of the fibre link."""

    gamma_per_w_km: float = 1.3
    beta2_ps2_per_km: float = -21.8
    alpha_db_per_km: float = 0.2
    span_km: float = 80.0
    n_spans: int = 30
    nf_db: float = 5.0
    wavelength_nm: float = 1550.0

    def __post_init__(self):
        if self.beta2_ps2_per_km == 0:
            raise ValueError("beta2 must be nonzero")
        for name in ("gamma_per_w_km", "alpha_db_per_km", "span_km",
                     "nf_db", "wavelength_nm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n_spans < 1:
            raise ValueError("n_spans must be >= 1")


# Most channels a comb may hold.  gn_eta0 sums one term per neighbour in
# Python, so the count bounds its cost (10^7 channels took 1.5 s); a C+L
# flex grid has under ~2,000 slots.
MAX_CHANNELS = 10_001


@dataclass(frozen=True)
class WdmConfig:
    """Comb layout; the centre channel is the one evaluated."""

    n_channels: int = 11
    spacing_ghz: float = 50.0
    symbol_rate_gbaud: float = 45.0
    rolloff: float = 0.05

    def __post_init__(self):
        if self.n_channels < 1 or self.n_channels % 2 == 0:
            raise ValueError("n_channels must be a positive odd integer")
        if self.n_channels > MAX_CHANNELS:
            raise ValueError(f"n_channels={self.n_channels} exceeds "
                             f"MAX_CHANNELS={MAX_CHANNELS}")
        if self.symbol_rate_gbaud <= 0:
            raise ValueError("symbol_rate_gbaud must be positive")
        if not 0 <= self.rolloff <= 1:
            raise ValueError("rolloff must lie in [0, 1]")
        if self.spacing_ghz < self.symbol_rate_gbaud * (1 + self.rolloff):
            raise ValueError("channel spacing below the occupied bandwidth")


@dataclass(frozen=True)
class NliModel:
    """Frozen SNR-model coefficients at a fixed launch power."""

    eta0: float
    eta1: float
    ase_variance_w: float
    launch_power_w: float

    def __post_init__(self):
        for name in ("eta0", "eta1", "ase_variance_w", "launch_power_w"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelDomainError(f"{name}={value!r} is not a finite number")
        if self.eta0 <= 0 or self.eta1 < 0:
            raise ModelDomainError(
                f"need eta0 > 0 and eta1 >= 0, got {self.eta0!r}, {self.eta1!r}")
        if self.ase_variance_w <= 0 or self.launch_power_w <= 0:
            raise ModelDomainError(
                "ASE variance and launch power must be positive, got "
                f"{self.ase_variance_w!r} W and {self.launch_power_w!r} W")


def ase_variance(link: LinkConfig, wdm: WdmConfig) -> float:
    """Closed-form amplifier noise variance in the symbol-rate bandwidth (W)."""
    noise_figure = 10 ** (link.nf_db / 10)
    gain = 10 ** (link.alpha_db_per_km * link.span_km / 10)
    photon = H_PLANCK * C_LIGHT / (link.wavelength_nm * 1e-9)
    bandwidth = wdm.symbol_rate_gbaud * 1e9
    return link.n_spans * noise_figure * photon * (gain - 1.0) * bandwidth


def gn_eta0(link: LinkConfig, wdm: WdmConfig) -> float:
    """Incoherent closed-form Gaussian-noise NLI coefficient, centre channel.

    Self-channel term through the asinh expression, cross-channel terms as a
    log sum over the co-propagating channels; spans add incoherently.
    """
    alpha = link.alpha_db_per_km * math.log(10) / 10 / 1e3  # 1/m
    span = link.span_km * 1e3
    l_eff = (1 - math.exp(-alpha * span)) / alpha
    l_asym = 1 / alpha
    gamma = link.gamma_per_w_km * 1e-3
    beta2 = abs(link.beta2_ps2_per_km) * 1e-27  # s^2/m
    bw = wdm.symbol_rate_gbaud * 1e9
    df = wdm.spacing_ghz * 1e9
    if df <= bw:
        raise ModelDomainError("channel spacing must exceed the symbol rate")
    bracket = math.asinh(math.pi**2 / 2 * beta2 * l_asym * bw**2)
    for i in range(1, (wdm.n_channels - 1) // 2 + 1):
        bracket += 2 * math.log((i * df + bw / 2) / (i * df - bw / 2))
    per_span = (8 / 27) * (gamma * l_eff) ** 2 / (math.pi * beta2 * l_asym * bw**2)
    return link.n_spans * per_span * bracket


def snr_eff(kurtosis: float, model: NliModel) -> float:
    """Effective SNR (dB) of a block with the given 2D-symbol kurtosis."""
    phi = kurtosis - 2.0
    eta = model.eta0 + model.eta1 * phi
    p = model.launch_power_w
    denom = model.ase_variance_w + eta * p**3
    if denom <= 0:
        raise ModelDomainError(
            f"non-positive noise power at kurtosis {kurtosis}")
    return 10 * math.log10(p / denom)


def optimal_power(ase_variance_w: float, eta: float) -> float:
    """Launch power maximising P/(sigma^2 + eta*P^3): (sigma^2 / 2 eta)^(1/3)."""
    if ase_variance_w <= 0 or eta <= 0:
        raise ModelDomainError("need positive ASE variance and eta")
    return (ase_variance_w / (2 * eta)) ** (1 / 3)


def db_to_ratio(value_db: float, name: str, error: type[Exception]) -> float:
    """10^(value_db/10); raises error, naming the value, when that is not a
    finite positive float."""
    try:
        ratio = 10 ** (value_db / 10)
    except OverflowError:
        ratio = math.inf
    if not 0 < ratio < math.inf:
        raise error(f"{name}={value_db!r} is outside the float range as a ratio")
    return ratio


def calibrate(anchors: Sequence[tuple[float, float]], ase_variance_w: float,
              launch_power_w: float) -> NliModel:
    """Fit (eta0, eta1) to (kurtosis, snr_db) anchor points, least squares.

    Each anchor contributes P/snr - sigma^2 = (eta0 + eta1*Phi) * P^3; two
    anchors with distinct kurtosis give the exact two-point solution.
    """
    if len(anchors) < 2:
        raise CalibrationError("need at least two anchors")
    kurts = [a[0] for a in anchors]
    if len(set(kurts)) < 2:
        raise CalibrationError("anchors must have distinct kurtosis")
    p = launch_power_w
    a = np.array([[1.0, q - 2.0] for q, _ in anchors])
    y = np.array([(p / db_to_ratio(s, f"anchor{i}_snr_db", CalibrationError)
                   - ase_variance_w) / p**3
                  for i, (_, s) in enumerate(anchors, 1)])
    (eta0, eta1), *_ = np.linalg.lstsq(a, y, rcond=None)
    if eta0 <= 0 or eta1 < 0:
        raise CalibrationError(
            f"calibration left the model domain: eta0={eta0}, eta1={eta1}")
    return NliModel(eta0=float(eta0), eta1=float(eta1),
                    ase_variance_w=ase_variance_w, launch_power_w=p)


@dataclass(frozen=True, slots=True)
class SnrEntry:
    counts: Counts
    kurtosis: float
    weight: float
    snr_db: float


@dataclass(frozen=True)
class SnrReport:
    """Per-composition SNR records with weighted aggregates.

    The records are read-only columns over the carried leaves in scheme
    order: counts is an (E, m) matrix of the table's count dtype (uint8 up
    to n=255, schemes.count_dtype), kurtosis, weights and snr_db are
    float64 arrays (8 bytes a leaf, where a list of Python floats takes
    32).  histogram and entries read them one chunk at a time as Python
    floats; cdf_rows reads them in SNR order through one stable argsort of
    snr_db (8 bytes a leaf), the only column it adds.
    """

    counts: np.ndarray
    kurtosis: np.ndarray
    weights: np.ndarray
    snr_db: np.ndarray
    min_db: float
    max_db: float
    avg_db: float

    def __post_init__(self):
        for column in (self.counts, self.kurtosis, self.weights, self.snr_db):
            column.flags.writeable = False

    @property
    def entries(self) -> SnrEntries:
        """One SnrEntry per carried leaf, built on access."""
        return SnrEntries(self)

    @property
    def p2p_db(self) -> float:
        return self.max_db - self.min_db

    def histogram(self, bin_width_db: float) -> list[tuple[float, float]]:
        """(bin centre dB, weight) over bins of the given width, ascending."""
        bins: dict[int, float] = {}
        for s, w in zip(row_values(self.snr_db), row_values(self.weights)):
            try:
                b = math.floor(s / bin_width_db)
            except OverflowError:
                raise ModelDomainError(
                    f"histogram bin width {bin_width_db!r} dB is too small "
                    f"for an SNR of {s!r} dB") from None
            bins[b] = bins.get(b, 0.0) + w
        return [((i + 0.5) * bin_width_db, bins[i]) for i in sorted(bins)]

    def cdf_rows(self) -> Iterator[tuple[float, float]]:
        """(snr dB, cumulative weight) over ascending SNR, one row per
        distinct SNR, from one walk over the columns in SNR order.

        The walk holds a stable argsort of snr_db (8 bytes a leaf) and reads
        the SNRs and weights through it one chunk at a time.  Each SNR's
        weight is summed from 0.0 in row order, and the cumulative weight
        adds those sums in ascending SNR.
        """
        order = np.argsort(self.snr_db, kind="stable")
        # -0.0 + x is x for every float x, so the first cumulative weight is
        # the first SNR's sum itself
        snr, share, total = None, 0.0, -0.0
        for chunk in row_chunks(order):
            for s, w in zip(self.snr_db[chunk].tolist(),
                            self.weights[chunk].tolist()):
                if s != snr:
                    if snr is not None:
                        total += share
                        yield snr, total
                    snr, share = s, 0.0
                share += w
        if snr is not None:
            yield snr, total + share

    def cdf(self) -> list[tuple[float, float]]:
        """The rows of cdf_rows as a list."""
        return list(self.cdf_rows())


class SnrEntries(Sequence):
    """Read-only sequence view of a report's records as SnrEntry values."""

    __slots__ = ("report",)

    def __init__(self, report: SnrReport):
        self.report = report

    def __len__(self) -> int:
        return len(self.report.weights)

    def __getitem__(self, i: int) -> SnrEntry:
        r = self.report
        return SnrEntry(tuple(r.counts[i].tolist()), float(r.kurtosis[i]),
                        float(r.weights[i]), float(r.snr_db[i]))

    def __iter__(self):
        r = self.report
        return map(SnrEntry, map(tuple, row_values(r.counts)),
                   row_values(r.kurtosis), row_values(r.weights),
                   row_values(r.snr_db))


def _snr_db(kurtoses: np.ndarray, model: NliModel) -> list[float]:
    """snr_eff over a column of kurtoses, bit-identical: the ratio in numpy,
    log10 in scalar Python (numpy rounds it differently).  A non-positive
    noise power reruns snr_eff per leaf, which raises at the same leaf."""
    p = model.launch_power_w
    eta = model.eta0 + model.eta1 * (kurtoses - 2.0)
    denom = model.ase_variance_w + eta * p**3
    if (denom <= 0).any():
        return [snr_eff(q, model) for q in kurtoses.tolist()]
    return [10 * math.log10(r) for r in (p / denom).tolist()]


def analyze(built: CompositionSet, model: NliModel) -> SnrReport:
    """Weighted per-block SNR statistics of a scheme under the model.

    Zero-weight leaves (unused boundary shells) are excluded; aggregates are
    weighted by leaf usage, min/max are unweighted extremes over the carried
    leaves.  The kurtoses (kurtosis_of) and SNRs (_snr_db, a chunk at a
    time) equal the per-leaf block_moments + snr_eff reference exactly, in
    float64 columns: no Python float per leaf is kept.  The report holds
    the carried rows of the table's counts and weights, as views of the
    table's read-only columns when they form a prefix of it
    (schemes.carried_rows, as in every table the builders make) and as
    copies otherwise, and the kurtosis and SNR columns; every other
    per-leaf value lives for one chunk of kernels.CHUNK leaves.  Kurtoses
    come first: a row that kurtosis_of refuses fails before any leaf's
    noise power is checked.
    """
    table = built.leaves
    carried = carried_rows(table)
    counts = table.counts[carried]
    weights = table.weights[carried]
    kurts = kurtosis_of(counts, built.alphabet)
    snrs = np.empty(len(weights))
    avg = 0.0
    for rows in chunks(len(weights)):
        snrs[rows] = _snr_db(kurts[rows], model)
        # avg is float_sum(snr * weight), left to right across the chunks
        avg = running_sum(avg, snrs[rows] * weights[rows])
    return SnrReport(counts=counts, kurtosis=kurts, weights=weights,
                     snr_db=snrs, min_db=float(snrs.min()),
                     max_db=float(snrs.max()), avg_db=avg)
