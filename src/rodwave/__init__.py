"""Minimal-mean-energy steering of a uniform elastic rod.

Synthesizes exact open-loop controls (two boundary loads plus N
piecewise-constant distributed forces) that move the rod between
prescribed states over a horizon that is a whole number of segment
transit times, by reducing the problem to a one-dimensional variational
problem over traveling-wave pieces; verifies the result with an
independent finite-difference simulation.
"""

from .errors import (
    AssemblyError,
    ConfigurationError,
    InfeasibleError,
    InvalidArgumentError,
    InvariantViolationError,
    ReconstructionError,
    RodwaveError,
    SolverError,
)
from .mesh import (
    MeshConfig,
    RodParams,
    SystemCounts,
    build_mesh,
    counts,
    nondimensionalize,
)
from .sampled import SampledFunction
from .edge import (
    BoundaryStructure,
    EdgeSystem,
    EssentialBC,
    JunctionRows,
    Parametrization,
    StateSpec,
    assemble_edge_constraints,
    assemble_vertex_conditions,
    boundary_matrices,
    boundary_structure,
    eliminate,
    feasibility_check,
)
from .energy import EnergyWeights, QuadraticProgram, assemble_qp, build_weights, mean_energy
from .solver import ELSystem, Solution, compare_solvers, solve_euler_lagrange, solve_qp
from .reconstruct import (
    ControlSet,
    FieldGrid,
    WaveTable,
    controls_from_jumps,
    fields,
    residual_Q,
    terminal_error,
    waves_from_solution,
)
from .oracle import SimConfig, SimResult, compare, simulate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
