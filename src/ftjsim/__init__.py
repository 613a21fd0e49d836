"""Desk-scale simulator of a two-terminal ferroelectric analog memory.

A calibrated junction compact model (conduction, switching, variability)
composed into crossbar arrays and evaluated for neural-network inference,
with fitters that recover the physical parameters from sweep data.
"""

from .conduction import (
    ConductionParams,
    SweepRecord,
    current,
    fit_ohmic,
    fit_poole_frenkel,
    nonlinearity_ratio,
    shape_factor,
)
from .crossbar import (
    Crossbar,
    program_open_loop,
    program_write_verify,
    read_vmm,
    sneak_ratio,
    write_cells,
)
from .config import SimConfig, load_config
from .device import (
    DeviceParams,
    Direction,
    UpdateScheme,
    dc_response,
    fit_update_curve,
    hysteresis_loop,
    pulse_response,
    run_sequence,
    update_curve,
    write_energy,
)
from .errors import ConfigError, FitError
from .inference import AnalogNetwork, MLPSpec, evaluate, map_weights, program_network
from .variability import VariabilityParams

__version__ = "0.1.0"
