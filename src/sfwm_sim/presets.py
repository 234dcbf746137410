"""Built-in waveguide presets loaded from the shipped defaults file."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

import yaml

from .dispersion import DispersionModel
from .engine import WaveguideSpec
from .errors import ConfigError

PRESET_KINDS = ("strip", "shallow_ridge")


@lru_cache(maxsize=1)
def _defaults() -> dict:
    text = resources.files("sfwm_sim").joinpath("data/defaults.yaml").read_text()
    return yaml.safe_load(text)


def preset_parameters(kind: str) -> dict:
    """Raw preset dict for a waveguide kind (gamma, n_eff, dispersion...)."""
    try:
        return _defaults()["waveguides"][kind]
    except KeyError:
        raise ConfigError(
            f"no preset for waveguide kind {kind!r}; expected one of {PRESET_KINDS}"
        ) from None


def preset_waveguide(kind: str, length_m: float) -> WaveguideSpec:
    """WaveguideSpec for a preset kind, dispersion taken at the pump average."""
    params = preset_parameters(kind)
    disp = params["dispersion"]
    return WaveguideSpec(
        kind=kind,
        length_m=length_m,
        gamma_per_w_m=params["gamma_per_w_m"],
        dispersion=DispersionModel(None, (disp["beta2_s2_per_m"], disp["beta4_s4_per_m"])),
        attenuation_db_per_cm=params["attenuation_db_per_cm"],
    )


def preset_n_eff(kind: str) -> float:
    """Group effective index used for pump-delay bookkeeping."""
    return float(preset_parameters(kind)["n_eff"])
