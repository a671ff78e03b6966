"""Simulation and training toolkit for 1T-1R memristive crossbar synapses.

The package models the data-dependent non-linearity of a transistor-gated
memristor cell, derives per-gate-voltage linear-operation cutoffs, maps
network weights onto differential conductance pairs, executes matrix-vector
products through the non-ideal cell solver, and trains small dense networks
so their weights land inside the linear window of the programmed arrays.
"""

__version__ = "0.1.0"

from .characterize import (CutoffTable, GeffCurve, PowerReport,
                           ToleranceResult, cutoff_table, default_vin_grid,
                           find_gm_cutoff, linear_vin_range,
                           power_monte_carlo, power_table, sweep_geff,
                           tolerance_metric, write_cutoff_csv)
from .crossbar import (CrossbarTileSet, MvmResult, mvm_energy,
                       mvm_energy_batch, mvm_ideal, mvm_nonideal,
                       mvm_nonideal_batch, program, readout_gain)
from .data import Dataset, make_blobs, read_dataset_csv, write_dataset_csv
from .device import (ANALYTICAL, IDEAL_SWITCH, DeviceMode, MemristorParams,
                     TransistorParams, default_device, leakage_stressed_device,
                     load_device_file, save_device_file, solve_synapse_grid,
                     transistor_current)
from .errors import (CutoffLookupError, DegenerateLayerError, DomainError,
                     ToolkitError, TrainingDivergedError)
from .mapping import (LayerScale, WcutSpec, clip_weights, layer_scale,
                      scale_from_range, wcut_from_vg, weight_to_conductance)
from .network import Adam, Dense, Model, TrainConfig, accuracy, train
from .training import (Checkpoint, ScheduleEntry, VgSchedule, clip_model,
                       crossbar_forward, evaluate, homogeneous_schedule,
                       iterative_train, linear_fraction, load_checkpoint,
                       network_energy, program_model, save_checkpoint,
                       schedule_from_dict, schedule_to_dict,
                       search_heterogeneous_vg, step_down_schedule)

__all__ = [name for name in dir() if not name.startswith("_")]
