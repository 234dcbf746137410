"""Packaged data and the one YAML loader.

The waveguide presets are the keys of the shipped defaults file's
``waveguides``; the template circuits are the packaged ``data/<name>.yaml``
circuit configs.  Every YAML document, packaged or a user's config, is read
by ``load_yaml``.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

import yaml

from .dispersion import DispersionModel
from .engine import WaveguideSpec
from .errors import ConfigError

# libyaml's safe loader where PyYAML was built with it, the pure-Python one
# otherwise: both resolve the same documents, and libyaml's reads a circuit
# config 7-9 times faster (3.4 ms against 25 ms for app2_path).
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(text: str):
    """The YAML document ``text``, read by ``YAML_LOADER``."""
    return yaml.load(text, Loader=YAML_LOADER)


@lru_cache(maxsize=None)
def packaged_yaml(name: str):
    """The document of the packaged data file ``data/<name>.yaml``, read once.

    Every caller shares the one document, so none may change it.
    """
    return load_yaml(resources.files("sfwm_sim").joinpath(f"data/{name}.yaml").read_text())


def waveguide_kinds() -> tuple[str, ...]:
    """Every accepted waveguide kind: ``custom`` and the keys of the preset table."""
    return ("custom", *packaged_yaml("defaults")["waveguides"])


def preset_waveguide(kind: str, length_m: float) -> WaveguideSpec:
    """WaveguideSpec for a preset kind, dispersion taken at the pump average."""
    presets = packaged_yaml("defaults")["waveguides"]
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
