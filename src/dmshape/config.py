"""Flat key-value run configuration.

One ``key=value`` pair per line, ``#`` comments and blank lines ignored.
Recognised keys (defaults are the reference link of the study):

    gamma_per_w_km, beta2_ps2_per_km, alpha_db_per_km, span_km, n_spans,
    nf_db, wavelength_nm, n_channels, spacing_ghz, symbol_rate_gbaud,
    rolloff, launch_power_dbm (optional), eta0 (optional), eta1 (optional),
    anchor1_kurtosis, anchor1_snr_db, anchor2_kurtosis, anchor2_snr_db

When eta0/eta1 are absent the model is calibrated from the two anchors;
anchor2's kurtosis defaults to the minimum kurtosis of the pairwise scheme
built at the same (n, k), which is how the second reference point is
defined.  Unknown and repeated keys, and values that are not finite
numbers, are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CalibrationError, ModelDomainError, SchemeFileError
from .nli import (
    LinkConfig,
    NliModel,
    WdmConfig,
    ase_variance,
    calibrate,
    db_to_ratio,
    gn_eta0,
    optimal_power,
)

_FLOAT_KEYS = {
    "gamma_per_w_km", "beta2_ps2_per_km", "alpha_db_per_km", "span_km",
    "nf_db", "wavelength_nm", "spacing_ghz", "symbol_rate_gbaud", "rolloff",
    "launch_power_dbm", "eta0", "eta1",
    "anchor1_kurtosis", "anchor1_snr_db", "anchor2_kurtosis", "anchor2_snr_db",
}
_INT_KEYS = {"n_spans", "n_channels"}

DEFAULT_ANCHOR1 = (1.82, 14.26)
DEFAULT_ANCHOR2_SNR_DB = 14.44


@dataclass(frozen=True)
class RunConfig:
    link: LinkConfig
    wdm: WdmConfig
    launch_power_dbm: float | None = None
    eta0: float | None = None
    eta1: float | None = None
    anchor1_kurtosis: float = DEFAULT_ANCHOR1[0]
    anchor1_snr_db: float = DEFAULT_ANCHOR1[1]
    anchor2_kurtosis: float | None = None
    anchor2_snr_db: float = DEFAULT_ANCHOR2_SNR_DB

    def launch_power_w(self) -> float:
        """Configured launch power, or the GN-optimal power at Gaussian kurtosis."""
        if self.launch_power_dbm is not None:
            return db_to_ratio(self.launch_power_dbm, "launch_power_dbm",
                               ModelDomainError) * 1e-3
        ase = _computed("ASE variance", ase_variance, self.link, self.wdm)
        return optimal_power(ase, self._eta0())

    def _eta0(self) -> float:
        if self.eta0 is not None:
            return self.eta0
        return _computed("GN eta0", gn_eta0, self.link, self.wdm)

    def resolve_model(self, anchor2_kurtosis: float | None = None) -> NliModel:
        """Build the SNR model: eta overrides win, otherwise anchor calibration.

        A float overflow or a division by zero while computing the ASE
        variance, eta0, the launch power or the calibration is refused as one
        ModelDomainError that names the quantity.
        """
        ase = _computed("ASE variance", ase_variance, self.link, self.wdm)
        power = _computed("launch power", self.launch_power_w)
        if self.eta0 is not None or self.eta1 is not None:
            eta1 = self.eta1 if self.eta1 is not None else 0.0
            return NliModel(eta0=self._eta0(), eta1=eta1, ase_variance_w=ase,
                            launch_power_w=power)
        a2k = self.anchor2_kurtosis if self.anchor2_kurtosis is not None \
            else anchor2_kurtosis
        if a2k is None:
            raise CalibrationError(
                "calibration requires anchor2_kurtosis (or eta0/eta1 overrides)")
        anchors = [(self.anchor1_kurtosis, self.anchor1_snr_db),
                   (a2k, self.anchor2_snr_db)]
        return _computed("calibration", calibrate, anchors, ase, power)


def _computed(quantity: str, fn, *args):
    """fn(*args), with an ArithmeticError inside it (a float overflow or a
    division by zero) turned into one ModelDomainError naming the quantity."""
    try:
        return fn(*args)
    except ArithmeticError:
        raise ModelDomainError(f"the {quantity} of this configuration is "
                               "outside the float range") from None


def parse_config(path: str | None) -> RunConfig:
    """Read a key-value file into a RunConfig; missing file keys use defaults."""
    raw: dict[str, float | int] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemeFileError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemeFileError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _INT_KEYS:
                convert = int
            elif key in _FLOAT_KEYS:
                convert = float
            else:
                raise SchemeFileError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise SchemeFileError(f"{path}:{lineno}: {key}: repeated key")
            try:
                raw[key] = convert(value)
            except ValueError as exc:
                raise SchemeFileError(f"{path}:{lineno}: {key}: {exc}") from None
            if not math.isfinite(raw[key]):
                raise SchemeFileError(
                    f"{path}:{lineno}: {key}: not a finite number")
    link_kwargs = {k: raw.pop(k) for k in list(raw)
                   if k in LinkConfig.__dataclass_fields__}
    wdm_kwargs = {k: raw.pop(k) for k in list(raw)
                  if k in WdmConfig.__dataclass_fields__}
    try:
        link = LinkConfig(**link_kwargs)
        wdm = WdmConfig(**wdm_kwargs)
        return RunConfig(link=link, wdm=wdm, **raw)
    except ValueError as exc:
        raise SchemeFileError(f"invalid configuration: {exc}") from exc
