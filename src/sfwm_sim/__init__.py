"""SFWM photon-pair simulation toolkit for hybrid silicon waveguide circuits."""

from .circuit import (
    CircuitGraph,
    CouplerNode,
    Edge,
    PhaseShifterNode,
    PortNode,
    Pulse,
    PumpPropagation,
    SegmentContribution,
    SegmentNode,
    SplitterNode,
    photon_transmission,
    propagate_pump,
    segment_contributions,
    selection_ratio,
)
from .coincidence import (
    CoincidenceHistogram,
    RateModel,
    build_histogram,
    car_from_histogram,
    predict_rates,
    synthesize_timestamps,
)
from .dispersion import (
    DispersionModel,
    PumpConfig,
    angular_frequency_from_wavelength,
    linear_mismatch,
    wavelength_from_angular_frequency,
)
from .engine import (
    BiphotonSpectrum,
    SpectralGrid,
    WaveguideSpec,
    band_flux,
    bandwidth_3db_hz,
    biphoton_spectrum,
    detuning_band_to_omega,
    gain_from_mismatch,
    nonlinear_mismatch,
    parametric_gain,
    total_mismatch,
)
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    SfwmError,
    TopologyError,
    UsageError,
)
from .modefield import (
    MaterialConstants,
    ModeFieldGrid,
    effective_gamma,
    gamma_report,
    read_mode_field_csv,
)
from .states import (
    TwoModeState,
    analyzer_coincidence,
    fringe_visibility,
    mzi_source_state,
    path_entangled_state,
    product_rail_state,
    time_bin_state,
)
from .templates import build_template, evaluate_circuit

__version__ = "0.1.0"
