"""Block-diagram modeling and simulation substrate (Simulink substitute).

The paper relies on Matlab Simulink for three things that this package
rebuilds:

1. **Modeling** — a graphical language of data-flow blocks with typed
   signals, sample times, hierarchical subsystems, and *function-call
   subsystems* triggered by events (the paper maps peripheral interrupts
   onto function-call ports, section 5).
2. **Simulation** — fixed-step execution of the closed controller+plant
   loop: continuous plant states are integrated (Euler / RK4), discrete
   controller blocks step at their sample times, events dispatch
   function-call subsystems synchronously.
3. **A compile step** — flattening subsystems, sorting blocks by data
   dependencies, detecting algebraic loops and unconnected ports — the same
   front-end the code generator consumes.

Public entry points: :class:`Model`, :class:`Simulator`, the block library
re-exported from :mod:`repro.model.library`.
"""

from .types import DataType, DOUBLE, BOOLEAN, INT8, INT16, INT32, UINT8, UINT16, UINT32, FixptType
from .block import Block, BlockContext, SampleTime, CONTINUOUS, INHERITED
from .graph import Model, Connection
from .compiled import CompiledModel
from .engine import Simulator, SimulationOptions
from .result import SimulationResult, BatchSimulationResult
from .batch import BatchSimulator, BatchScenario, BatchPlanError, simulate_batch
from .diagnostics import (
    ModelError,
    AlgebraicLoopError,
    UnconnectedPortError,
    TypeMismatchError,
    SampleTimeError,
)
from . import library
from .io import load_model, save_model, model_to_dict, model_from_dict

__all__ = [
    "DataType",
    "DOUBLE",
    "BOOLEAN",
    "INT8",
    "INT16",
    "INT32",
    "UINT8",
    "UINT16",
    "UINT32",
    "FixptType",
    "Block",
    "BlockContext",
    "SampleTime",
    "CONTINUOUS",
    "INHERITED",
    "Model",
    "Connection",
    "CompiledModel",
    "Simulator",
    "SimulationOptions",
    "SimulationResult",
    "BatchSimulationResult",
    "BatchSimulator",
    "BatchScenario",
    "BatchPlanError",
    "simulate_batch",
    "ModelError",
    "AlgebraicLoopError",
    "UnconnectedPortError",
    "TypeMismatchError",
    "SampleTimeError",
    "library",
    "load_model",
    "save_model",
    "model_to_dict",
    "model_from_dict",
]
