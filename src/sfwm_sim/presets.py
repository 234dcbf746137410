"""Built-in waveguide presets: the keys of the shipped defaults file's ``waveguides``."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

import yaml

from .dispersion import DispersionModel
from .engine import WaveguideSpec
from .errors import ConfigError


@lru_cache(maxsize=1)
def _defaults() -> dict:
    text = resources.files("sfwm_sim").joinpath("data/defaults.yaml").read_text()
    return yaml.safe_load(text)


def waveguide_kinds() -> tuple[str, ...]:
    """Every accepted waveguide kind: ``custom`` and the keys of the preset table."""
    return ("custom", *_defaults()["waveguides"])


def preset_waveguide(kind: str, length_m: float) -> WaveguideSpec:
    """WaveguideSpec for a preset kind, dispersion taken at the pump average."""
    presets = _defaults()["waveguides"]
    if kind not in presets:
        raise ConfigError(f"no preset for kind {kind!r}; the kinds are {waveguide_kinds()}")
    params = presets[kind]
    disp = params["dispersion"]
    return WaveguideSpec(
        kind=kind,
        length_m=length_m,
        gamma_per_w_m=params["gamma_per_w_m"],
        dispersion=DispersionModel(None, (disp["beta2_s2_per_m"], disp["beta4_s4_per_m"])),
        attenuation_db_per_cm=params["attenuation_db_per_cm"],
        n_eff=params["n_eff"],
    )
