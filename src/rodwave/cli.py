"""Configuration-driven entry point: solve, sweep, verify.

Configs are UTF-8 JSON.  Keys:

    N, M            mesh numbers (required)
    P               samples per reference piece (default 129); P = 1 mod 4,
                    so that a field grid can be aligned with the pieces
    preset          "paper_example" | "zero" | "trig"
    preset_params   for "trig": {"v0": [amp, freq], "r0": ..., "v1": ...,
                    "r1": ...}, each a list of at most two finite numbers
                    (missing profiles and entries are zero)
    profiles        {"v0": csv_path, ...}; accepts p0/p1 in place of r0/r1
                    (cumulative integration, c0 = 0)
    solver          "el" (default): the closed-form solve; "both" adds the
                    KKT program as a cross-check (verify always runs it)
    oracle          true/false (default false)
    oracle_points_per_segment, oracle_cfl
                    oracle resolution; unset, solve uses 125 and 0.9,
                    verify 500 and 1.0; a finest rung past
                    ORACLE_MAX_CELL_STEPS cells times steps or
                    ORACLE_MAX_STEPS time steps exits 2
    field_samples   samples per half-layer of the output field grid;
                    (P - 1) must be a multiple of 2 * field_samples
    out_dir         artifact directory (a non-empty path)
    dump_matrices   true/false

Exit codes: 0 success, 2 configuration error, 3 infeasible horizon,
4 invariant violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import datetime
import json
import math
import os
import pickle
import sys
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    InfeasibleError,
    InvalidArgumentError,
    InvariantViolationError,
    RodwaveError,
)
from .mesh import MeshConfig, RodParams, build_mesh, counts
from .sampled import SampledFunction
from .edge import (
    DATA_NAMES,
    BoundaryStructure,
    EdgeSystem,
    Parametrization,
    StateSpec,
    assemble_edge_constraints,
    assemble_vertex_conditions,
    boundary_matrices,
    boundary_structure,
    eliminate,
    feasibility_check,
)
from .energy import EnergyWeights, assemble_qp, build_weights, mean_energy
from .solver import ELSystem, compare_solvers, solve_euler_lagrange, solve_qp
from . import reconstruct as rec
from .oracle import (SimConfig, cell_steps, compare as oracle_compare, simulate,
                     time_steps, write_sim_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INVARIANT = 4

# (oracle_cfl, oracle_points_per_segment) for settings a config leaves unset
SOLVE_ORACLE = (0.9, 125)
VERIFY_ORACLE = (1.0, 500)   # unit Courant number, where the scheme is sharpest
# Largest oracle accepted, in cells times time steps of its finest rung
# (oracle.cell_steps); it admits the verify settings up to N = M = 32.
# solve and verify reject a larger one with exit 2 before any solve starts.
ORACLE_MAX_CELL_STEPS = 256_000_000
# Largest number of time steps of the finest rung (oracle.time_steps): the
# per-step arrays and the step loop grow with it even where few cells keep
# cells times steps small.  The verify defaults at N = M = 32 take 16,000.
ORACLE_MAX_STEPS = 1_000_000
# Largest |value| accepted in the sampled state data (v0, r0, v1, r1): the
# energy is quadratic in the data, so larger values can overflow the solve.
STATE_MAX_ABS = 1e150

_KNOWN_KEYS = {
    "N", "M", "P", "preset", "preset_params", "profiles", "solver",
    "oracle", "oracle_points_per_segment", "oracle_cfl", "field_samples",
    "out_dir", "dump_matrices",
}
_PRESETS = ("paper_example", "zero", "trig")
_SOLVERS = ("el", "both")


@dataclass
class RunConfig:
    N: int
    M: int
    P: int = 129
    preset: Optional[str] = None
    preset_params: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    solver: str = "el"
    oracle: bool = False
    oracle_points_per_segment: Optional[int] = None
    oracle_cfl: Optional[float] = None
    field_samples: Optional[int] = None
    out_dir: str = "."
    dump_matrices: bool = False


def _json_object(raw) -> dict:
    """The config mapping of a JSON text (str, or UTF-8 bytes) or a
    mapping; a text that does not parse, or a top level that is not an
    object, raises :class:`ConfigurationError`."""
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw if isinstance(raw, str) else raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError([f"not valid JSON: {exc}"]) from None
    if not isinstance(raw, Mapping):
        raise ConfigurationError(["top level must be a JSON object"])
    return dict(raw)


def validate_config(raw) -> RunConfig:
    """Schema-check a JSON text or dict; every violation is reported with
    its key path.  Feasibility of the horizon is a run-time concern, not a
    parse-time one."""
    data = _json_object(raw)
    errors = []
    for key in data:
        if key not in _KNOWN_KEYS:
            errors.append(f"{key}: unknown key")

    def geti(key, default=None, minimum=None):
        val = data.get(key, default)
        if val is None:
            errors.append(f"{key}: required")
            return default
        if not isinstance(val, int) or isinstance(val, bool):
            errors.append(f"{key}: must be an integer")
            return default
        if minimum is not None and val < minimum:
            errors.append(f"{key}: must be >= {minimum}")
            return default
        return val

    n = geti("N", minimum=1)
    m = geti("M", minimum=1)
    p = data.get("P", 129)
    if not isinstance(p, int) or p < 5 or p % 2 == 0:
        errors.append("P: must be an odd integer >= 5")
        p = 129
    elif (p - 1) % 4 != 0:
        # (P-1)/2 needs an even divisor q for an aligned field grid
        errors.append(f"P: {p} cannot align a field grid; use P = 1 mod 4")
        p = 129
    solver = data.get("solver", "el")
    if solver not in _SOLVERS:
        errors.append(f"solver: must be one of {', '.join(_SOLVERS)}")
    preset = data.get("preset")
    if preset is not None and preset not in _PRESETS:
        errors.append(f"preset: unknown preset {preset!r}")
    preset_params = data.get("preset_params", {})
    if not isinstance(preset_params, dict):
        errors.append("preset_params: must be an object")
        preset_params = {}
    for key, val in preset_params.items():
        if key not in ("v0", "r0", "v1", "r1"):
            errors.append(f"preset_params.{key}: unknown profile")
        elif (not isinstance(val, list) or len(val) > 2
              or not all(_finite_number(x) for x in val)):
            errors.append(f"preset_params.{key}: must be a list of at most "
                          f"two finite numbers [amp, freq]")
    profiles = data.get("profiles", {})
    if not isinstance(profiles, dict):
        errors.append("profiles: must be an object")
        profiles = {}
    for key, val in profiles.items():
        if key not in ("v0", "r0", "p0", "v1", "r1", "p1"):
            errors.append(f"profiles.{key}: unknown profile")
        elif not isinstance(val, str):
            errors.append(f"profiles.{key}: must be a CSV file path")
    if preset is None and not profiles:
        errors.append("preset: either a preset or profiles must be given")
    if preset is not None and profiles:
        errors.append("preset: preset and profiles are mutually exclusive")
    oracle = data.get("oracle", False)
    if not isinstance(oracle, bool):
        errors.append("oracle: must be true or false")
        oracle = False
    opps = data.get("oracle_points_per_segment")
    if opps is not None and (not isinstance(opps, int) or opps < 8):
        errors.append("oracle_points_per_segment: integer >= 8")
        opps = None
    cfl = data.get("oracle_cfl")
    if cfl is not None and (not _finite_number(cfl) or not (0 < cfl <= 1)):
        errors.append("oracle_cfl: must lie in (0, 1]")
        cfl = None
    fs = data.get("field_samples")
    if fs is not None and (not isinstance(fs, int) or fs < 2):
        errors.append("field_samples: integer >= 2")
        fs = None
    elif fs is not None and (p - 1) % (2 * fs) != 0:
        errors.append(f"field_samples: {fs} cannot align a field grid; "
                      f"(P - 1) = {p - 1} must be a multiple of {2 * fs}")
        fs = None
    out_dir = data.get("out_dir", ".")
    if not isinstance(out_dir, str):
        errors.append("out_dir: must be a string")
        out_dir = "."
    elif not out_dir:
        errors.append("out_dir: must be a non-empty path")
        out_dir = "."
    dump = data.get("dump_matrices", False)
    if not isinstance(dump, bool):
        errors.append("dump_matrices: must be true or false")
        dump = False
    if errors:
        raise ConfigurationError(errors)
    return RunConfig(N=n, M=m, P=p, preset=preset, preset_params=preset_params,
                     profiles=profiles, solver=solver, oracle=oracle,
                     oracle_points_per_segment=opps,
                     oracle_cfl=None if cfl is None else float(cfl),
                     field_samples=fs, out_dir=out_dir, dump_matrices=dump)


def _finite_number(val) -> bool:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:          # an int past the float range
        return False


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------


def _trig(params):
    amp, freq = (list(params) + [0.0, 0.0])[:2]
    return lambda x: amp * np.cos(freq * x)


def build_state(config: RunConfig, mesh: MeshConfig) -> StateSpec:
    """The state a config prescribes, sampled on the mesh's data grid.

    Every sampled value of v0, r0, v1 and r1 must be finite and at most
    ``STATE_MAX_ABS`` in magnitude; otherwise :class:`ConfigurationError`
    names the profile and its largest |value|.  Sampling does not warn
    about the overflow this check reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        state = _sample_state(config, mesh)
    for name in DATA_NAMES:
        values = getattr(state, name).values
        largest = float(np.max(np.abs(values)))      # NaN if any value is
        if not largest <= STATE_MAX_ABS:
            raise ConfigurationError([
                f"{name}: sampled state data must be finite and at most "
                f"{STATE_MAX_ABS:g} in magnitude; largest |value| is {largest:g}"])
    return state


def _sample_state(config: RunConfig, mesh: MeshConfig) -> StateSpec:
    if config.preset == "paper_example":
        return StateSpec.from_callables(
            mesh, config.P,
            v0=lambda x: np.cos(3.0 * x), r0=lambda x: -np.cos(3.0 * x),
            v1=lambda x: 0.0 * x, r1=lambda x: 0.0 * x)
    if config.preset == "zero":
        return StateSpec.zero(mesh, config.P)
    if config.preset == "trig":
        pp = config.preset_params
        return StateSpec.from_callables(
            mesh, config.P,
            v0=_trig(pp.get("v0", [0, 0])), r0=_trig(pp.get("r0", [0, 0])),
            v1=_trig(pp.get("v1", [0, 0])), r1=_trig(pp.get("r1", [0, 0])))
    return _state_from_files(config, mesh)


def _read_profile(path) -> SampledFunction:
    """(x, value) rows of a CSV file; '#' lines are comments.  A file that
    cannot be read, or a row that is not two finite numbers, raises
    :class:`ConfigurationError` naming the file."""
    rows = []
    try:
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    x, y = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    raise ConfigurationError(
                        [f"{path}: line {line} is not two numbers x,value"]) from None
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ConfigurationError(
                        [f"{path}: line {line} holds a non-finite number"])
                rows.append((x, y))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError([f"{path}: cannot read profile: {exc}"]) from None
    rows.sort()
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    if len(xs) < 2 or xs[0] > -1.0 + 1e-9 or xs[-1] < 1.0 - 1e-9:
        raise ConfigurationError([f"{path}: profile must cover [-1, 1]"])
    p = max(5, len(xs) | 1)
    grid = np.linspace(-1.0, 1.0, p)
    return SampledFunction(-1.0, 1.0, np.interp(grid, xs, ys))


def _state_from_files(config: RunConfig, mesh: MeshConfig) -> StateSpec:
    prof = {k: _read_profile(v) for k, v in config.profiles.items()}
    zero = SampledFunction.zeros(-1.0, 1.0, 5)
    v0 = prof.get("v0", zero)
    v1 = prof.get("v1", zero)
    if "p0" in prof and "r0" in prof:
        raise ConfigurationError(["profiles: give r0 or p0, not both"])
    if "p1" in prof and "r1" in prof:
        raise ConfigurationError(["profiles: give r1 or p1, not both"])
    pd = mesh.N * (config.P - 1) + 1
    grid = np.linspace(-1.0, 1.0, pd)
    onto = lambda f: SampledFunction(-1.0, 1.0, f(grid))
    v0, v1 = onto(v0), onto(v1)
    if "p0" in prof:
        p0 = onto(prof["p0"])
        r0 = p0.cumulative()
    else:
        p0 = None
        r0 = onto(prof.get("r0", zero))
    if "p1" in prof:
        p1 = onto(prof["p1"])
        r1 = p1.cumulative()
    else:
        p1 = None
        r1 = onto(prof.get("r1", zero))
    return StateSpec(v0=v0, r0=r0, v1=v1, r1=r1, p0=p0, p1=p1)


# ---------------------------------------------------------------------------
# Single solve
# ---------------------------------------------------------------------------


def _junction_report(violated) -> str:
    """Name the junction rows a solution violates, with their residuals."""
    named = ", ".join(f"{label} by {res:.3g}" for label, res in violated[:8])
    more = f" and {len(violated) - 8} more" if len(violated) > 8 else ""
    return (f"{len(violated)} junction row(s) contradict the data of the "
            f"solved vertex rows: the solution violates {named}{more}")


@dataclass
class SolveOperator:
    """Everything a solve on one (N, M, P) computes that does not depend
    on the state, built whole from the mesh by :func:`solve_operator`: the
    complete vertex rows, the edge rows, their elimination (bound to no
    state; a solve binds its own with ``par.rebind``), the essential-row
    structure (with the junction rows every solution is checked against),
    the energy weights and the factored closed-form boundary system.  Only
    ``kink_plans``, the kink plan of each field grid keyed by its
    (qt, qx), fills on first use.  The KKT cross-check of ``solver: both``
    keeps nothing here."""

    key: tuple
    mesh: MeshConfig
    vertex_rows: tuple
    system: EdgeSystem
    par: Parametrization
    boundary: BoundaryStructure
    weights: EnergyWeights
    el: ELSystem
    kink_plans: dict = field(default_factory=dict)


_operator: Optional[SolveOperator] = None    # the one cache entry: the last mesh solved


def solve_operator(n: int, m: int, p: int) -> SolveOperator:
    """The cached operator of (n, m, p); another key replaces the entry.
    The entry is stored only once its build has succeeded."""
    global _operator
    if _operator is None or _operator.key != (n, m, p):
        _operator = None           # release the old mesh's structure first
        mesh = build_mesh(n, m)
        vertex_rows = assemble_vertex_conditions(mesh)
        system = assemble_edge_constraints(mesh)
        par = eliminate(system)
        boundary = boundary_structure(par, vertex_rows)
        _operator = SolveOperator(
            key=(n, m, p), mesh=mesh, vertex_rows=vertex_rows, system=system,
            par=par, boundary=boundary, weights=build_weights(mesh, p),
            el=ELSystem(par, boundary))
    return _operator


def clear_operator_cache() -> None:
    global _operator
    _operator = None


def solve_pipeline(config: RunConfig, reconstruct: bool = True):
    """Assemble, solve, reconstruct, and collect diagnostics (no I/O).

    The closed form gives the solution (``primary``), which must satisfy
    every junction row of the mesh (``BoundaryStructure.violated_junctions``;
    a violated row is an :class:`InvariantViolationError` naming it).  With
    ``solver: both`` the KKT program is solved too and must not exceed the
    closed form's objective.  The state is built and checked first; the
    state-independent work is then done once per (N, M, P) and kept in the
    :func:`solve_operator` cache, so a repeated mesh costs only the
    state's data parts."""
    if config.solver not in _SOLVERS:
        raise ConfigurationError([f"solver: must be one of {', '.join(_SOLVERS)}"])
    feas = feasibility_check(config.N, config.M)
    if not feas.feasible:
        raise InfeasibleError(feas.reason)
    state = build_state(config, build_mesh(config.N, config.M))
    op = solve_operator(config.N, config.M, config.P)
    mesh, system, weights = op.mesh, op.system, op.weights
    par = op.par.rebind(state)
    bc = boundary_matrices(op.boundary, par)

    primary = solve_euler_lagrange(par, bc, weights, config.P, op.el)
    violated = op.boundary.violated_junctions(par, primary.y, primary.gamma)
    if violated:
        raise InvariantViolationError(_junction_report(violated))
    solutions = {"el": primary}

    comparison = None
    if config.solver == "both":
        qp = assemble_qp(par, bc, weights, config.P)
        solutions["qp"] = solve_qp(qp, par, bc, weights)
        comparison = compare_solvers(solutions["qp"], solutions["el"], bc)
        if not comparison.qp_not_worse:
            raise InvariantViolationError(
                f"QP objective {comparison.objective_qp} exceeds the "
                f"stationary path's {comparison.objective_el}")

    if not reconstruct:
        return {"mesh": mesh, "state": state, "system": system, "par": par,
                "bc": bc, "weights": weights, "solutions": solutions,
                "primary": primary, "comparison": comparison}

    entries = par.entry_values(primary.y, primary.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    steps = rec.grid_steps(config.P, config.field_samples, config.field_samples)
    fg = rec.fields(waves, controls, mesh, *steps, kink_plan=op.kink_plans.get(steps))
    op.kink_plans[steps] = fg.kink_plan
    terr = rec.terminal_error(fg, state)
    q_resid = rec.residual_Q(fg)
    e_grid = mean_energy(fg)
    return {
        "mesh": mesh, "state": state, "system": system, "par": par,
        "bc": bc, "weights": weights, "solutions": solutions,
        "primary": primary, "comparison": comparison, "waves": waves,
        "controls": controls, "fields": fg, "terminal": terr,
        "Q": q_resid, "E_grid": e_grid,
    }


def summarize(config: RunConfig, result: dict) -> dict:
    mesh = result["mesh"]
    sc = counts(config.N, config.M)
    primary = result["primary"]
    terr = result["terminal"]
    controls = result["controls"]
    fg = result["fields"]
    e_val = primary.objective
    summary = {
        "config": {k: v for k, v in asdict(config).items()},
        "feasible": True,
        "N": config.N, "M": config.M, "lambda": mesh.lam, "T": mesh.T,
        "counts": {"N_e": sc.N_e, "N_w": sc.N_w, "N_u": sc.N_u,
                   "N_v": sc.N_v, "N_s": sc.N_s, "N_b": sc.N_b},
        "boundary_rows_kept": result["bc"].rank,
        "guard_rows_kept": result["bc"].guard_rows_kept,
        "E": float(e_val),
        "TE": float(mesh.T * e_val),
        "E_grid": float(result["E_grid"]),
        "Q": float(result["Q"]),
        "terminal_errors": {
            "v0_sup": terr.v0_sup, "r0_sup": terr.r0_sup,
            "v1_sup": terr.v1_sup, "r1_sup": terr.r1_sup,
            "v0_l2": terr.v0_l2, "r0_l2": terr.r0_l2,
            "v1_l2": terr.v1_l2, "r1_l2": terr.r1_l2,
        },
        "terminal_constant": terr.r1_offset,
        "gamma": [float(g) for g in primary.gamma],
        "wave_continuity": result["waves"].continuity_max,
        "control_checks": {
            "zero_start_max": controls.zero_start_max(),
            "zero_sum_max": controls.zero_sum_max(),
            "jump_identity_max": controls.jump_identity_max(),
        },
        "interface_jumps": {"v": fg.interface_jump_v, "r": fg.interface_jump_r},
        "sizes": {
            "N_s": result["par"].n_free,
            "A_nnz": int(np.count_nonzero(result["par"].A)),
            "boundary_rank": result["bc"].rank,
            "guard_rows_kept": result["bc"].guard_rows_kept,
            "kkt_size": (result["solutions"]["qp"].diagnostics["kkt_size"]
                         if "qp" in result["solutions"] else None),
        },
        "solver": {},
    }
    for name, sol in result["solutions"].items():
        summary["solver"][name] = {
            "objective": sol.objective,
            "diagnostics": {k: (float(v) if isinstance(v, (int, float, np.floating))
                                else str(v))
                            for k, v in sol.diagnostics.items()},
        }
    if result["comparison"] is not None:
        cmp_ = result["comparison"]
        summary["solver"]["comparison"] = {
            "objective_gap": cmp_.gap, "y_diff": cmp_.y_diff,
            "feas_qp": cmp_.feas_qp, "feas_el": cmp_.feas_el,
            "qp_not_worse": cmp_.qp_not_worse,
        }
    return summary


def _oracle_ladder(config: RunConfig) -> list:
    """Points per segment of the oracle rungs, coarsest first."""
    base = config.oracle_points_per_segment
    return [max(8, base // 4), max(8, base // 2), base]


def _oracle_rung(config: RunConfig, result: dict, npts: int):
    """One oracle simulation of ``result`` at ``npts`` points per segment."""
    return simulate(result["mesh"], RodParams(1.0, 1.0, 1.0), result["controls"],
                    result["state"],
                    SimConfig(points_per_segment=npts, cfl=config.oracle_cfl))


def _oracle_summary(config: RunConfig, result: dict, sims: list, out_dir=None) -> dict:
    """The summary block of the oracle ladder ``sims``; with ``out_dir``,
    the finest rung's CSVs are written there."""
    report = oracle_compare(sims, result["fields"])
    final = sims[-1]
    if out_dir is not None:
        write_sim_csv(final, os.path.join(out_dir, "oracle_terminal.csv"),
                      os.path.join(out_dir, "oracle_energy.csv"))
    return {
        "points_per_segment": _oracle_ladder(config),
        "terminal_energy_error": final.terminal_energy_error,
        "terminal_v_sup": final.terminal_v_sup,
        "momentum_budget_max": final.momentum_budget_max,
        "energy_drift": final.energy_drift(),
        "l2_errors": list(report.l2_errors),
        "sup_errors": list(report.sup_errors),
        "convergence_orders": list(report.orders),
        "mean_order": report.mean_order,
    }


def _run_oracle(config: RunConfig, result: dict, out_dir=None) -> dict:
    sims = [_oracle_rung(config, result, npts) for npts in _oracle_ladder(config)]
    return _oracle_summary(config, result, sims, out_dir)


def dump_matrices(result: dict, out_dir: str) -> None:
    """Audit dump: integer C of the operator's edge system, exact rational
    A, and the free map."""
    system, par = result["system"], result["par"]
    c_mat = system.coefficient_matrix
    with open(os.path.join(out_dir, "edge_C.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in c_mat:
            writer.writerow([str(v) for v in row])
    with open(os.path.join(out_dir, "parametrization_A.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in par.A_frac:
            out = ["0"] * par.n_free
            for j, val in row.items():
                out[j] = str(Fraction(val))
            writer.writerow(out)
    with open(os.path.join(out_dir, "free_map.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y_index", "entry"])
        for j, key in enumerate(par.free_map):
            writer.writerow([j, repr(key)])


def _with_oracle_defaults(config: RunConfig, defaults) -> RunConfig:
    """The config with unset oracle settings taken from ``defaults``."""
    cfl, points = defaults
    return replace(
        config,
        oracle_cfl=cfl if config.oracle_cfl is None else config.oracle_cfl,
        oracle_points_per_segment=(points if config.oracle_points_per_segment is None
                                   else config.oracle_points_per_segment))


def _check_oracle_size(config: RunConfig) -> None:
    """Reject resolved oracle settings whose finest rung exceeds
    ``ORACLE_MAX_CELL_STEPS`` cells times steps or ``ORACLE_MAX_STEPS``
    time steps."""
    points, cfl = config.oracle_points_per_segment, config.oracle_cfl
    rung = (f"oracle_points_per_segment, oracle_cfl: the finest oracle rung "
            f"({points} points per segment at CFL {cfl:g}, N = {config.N}, "
            f"M = {config.M}) exceeds")
    if cell_steps(config.N, config.M, points, cfl) > ORACLE_MAX_CELL_STEPS:
        raise ConfigurationError([f"{rung} {ORACLE_MAX_CELL_STEPS:,} cell-steps"])
    if time_steps(config.M, points, cfl) > ORACLE_MAX_STEPS:
        raise ConfigurationError([f"{rung} {ORACLE_MAX_STEPS:,} time steps"])


def _error_exit(exc: RodwaveError) -> int:
    """Report a failed run on stderr and return its documented exit code."""
    if isinstance(exc, (ConfigurationError, InvalidArgumentError)):
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(exc, InfeasibleError):
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"invariant violation: {exc}", file=sys.stderr)
    return EXIT_INVARIANT


@contextlib.contextmanager
def _oracle_beside(config: RunConfig, result: dict):
    """Run the oracle ladder of ``result`` (:func:`_run_oracle`, its CSVs in
    ``config.out_dir`` included) beside the with-block; yields a function
    that waits for it and returns its summary block.

    Where more than one CPU is available and the OS can fork, the finest
    rung, about two thirds of the ladder's time, runs in a forked child
    (:func:`reconstruct._forked`), which calls BLAS and pickles the
    :class:`~rodwave.oracle.SimResult`, or the :class:`RodwaveError` it
    raised, into its temp file.  The coarser rungs run here when the
    function is called, once this process has written its CSVs; then the
    child is joined and its error, if any, raised again here, so the rungs
    fail in ladder order and the exit code and the message match an inline
    run.  A child that fails otherwise is an ``OSError`` naming its exit
    code.  On every way out, a child not yet joined is killed and reaped.
    Otherwise the whole ladder runs inline when the function is called.
    """
    if rec._available_cpus() < 2 or not hasattr(os, "fork"):
        yield lambda: _run_oracle(config, result, out_dir=config.out_dir)
        return

    ladder = _oracle_ladder(config)

    def body(tmp):
        try:
            outcome = _oracle_rung(config, result, ladder[-1])
        except RodwaveError as exc:
            outcome = exc
        pickle.dump(outcome, tmp)

    with rec._forked(body) as child:
        def join():
            sims = [_oracle_rung(config, result, npts) for npts in ladder[:-1]]
            code = child.join()
            if code != 0:
                raise OSError(f"oracle: the child running the finest oracle rung "
                              f"exited with code {code}")
            child.tmp.seek(0)
            outcome = pickle.load(child.tmp)
            if isinstance(outcome, RodwaveError):
                raise outcome
            return _oracle_summary(config, result, sims + [outcome], config.out_dir)
        yield join


def run_solve(config: RunConfig) -> int:
    """Solve one instance and emit CSV artifacts, then summary JSON.

    With ``oracle``, the oracle ladder runs beside the CSV writers
    (:func:`_oracle_beside`).  ``summary.json`` is written last on every
    path, and one left by an earlier run is removed once the directory is
    made, so a directory without it holds an incomplete or failed run.
    """
    config = _with_oracle_defaults(config, SOLVE_ORACLE)
    summary_path = os.path.join(config.out_dir, "summary.json")
    try:
        if config.oracle:
            _check_oracle_size(config)
        _make_out_dir(config.out_dir)
        with contextlib.suppress(FileNotFoundError):
            os.remove(summary_path)
        result = solve_pipeline(config)
        summary = summarize(config, result)
        oracle = (_oracle_beside(config, result) if config.oracle
                  else contextlib.nullcontext())
        with oracle as join_oracle:
            rec.write_controls_csv(result["controls"],
                                   os.path.join(config.out_dir, "controls.csv"))
            rec.write_fields_csv(result["fields"],
                                 os.path.join(config.out_dir, "fields.csv"))
            if config.dump_matrices:
                dump_matrices(result, config.out_dir)
            if join_oracle is not None:
                summary["oracle"] = join_oracle()
    except InfeasibleError as exc:
        summary = {"config": asdict(config), "feasible": False,
                   "reason": str(exc),
                   "timestamp": datetime.datetime.now().isoformat()}
        _write_json(summary_path, summary)
        return _error_exit(exc)
    except RodwaveError as exc:
        return _error_exit(exc)

    summary["timestamp"] = datetime.datetime.now().isoformat()
    _write_json(summary_path, summary)
    print(f"E = {summary['E']:.9g}  T*E = {summary['TE']:.9g}  "
          f"Q = {summary['Q']:.3g}  worst terminal error = "
          f"{max(summary['terminal_errors'].values()):.3g}")
    return EXIT_OK


def _make_out_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError([f"out_dir: {exc}"]) from None


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Parameter sweep
# ---------------------------------------------------------------------------


def _sweep_cell(args):
    """Worker: one (M, N) cell; returns a row dict (exceptions captured)."""
    config_dict, m_val, n_val = args
    config = RunConfig(**config_dict)
    config.N, config.M = n_val, m_val
    t0 = time.perf_counter()
    try:
        result = solve_pipeline(config, reconstruct=False)
        primary = result["primary"]
        mesh = result["mesh"]
        return {"M": m_val, "N": n_val, "TE": mesh.T * primary.objective,
                "E": primary.objective, "seconds": time.perf_counter() - t0,
                "status": "ok"}
    except RodwaveError as exc:
        return {"M": m_val, "N": n_val, "TE": float("nan"),
                "E": float("nan"), "seconds": time.perf_counter() - t0,
                "status": f"failed: {exc}"}


def monotonicity_report(rows, slack: float = 1e-9):
    """Check that TE is nonincreasing along each axis; list violations."""
    table = {(r["M"], r["N"]): r["TE"] for r in rows if r["status"] == "ok"}
    violations = []
    for (m_val, n_val), te in sorted(table.items()):
        for key, label in (((m_val - 1, n_val), "M"), ((m_val, n_val - 1), "N")):
            prev = table.get(key)
            if prev is not None and te > prev + slack:
                violations.append(
                    f"TE({m_val},{n_val}) = {te:.12g} exceeds "
                    f"TE{key} = {prev:.12g} (axis {label})")
    return violations


def run_sweep(config: RunConfig, m_range, n_range, workers: Optional[int] = None) -> int:
    """Solve every cell of the (M, N) grid and emit the T*E table."""
    try:
        _make_out_dir(config.out_dir)
    except ConfigurationError as exc:
        return _error_exit(exc)
    cells = [(asdict(config), m_val, n_val)
             for m_val in range(m_range[0], m_range[1] + 1)
             for n_val in range(n_range[0], n_range[1] + 1)]
    if workers is None:
        workers = min(len(cells), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r["M"], r["N"]))

    violations = monotonicity_report(rows)
    path = os.path.join(config.out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "N", "TE", "E", "seconds", "status"])
        for r in rows:
            writer.writerow([r["M"], r["N"], f"{r['TE']:.12g}",
                             f"{r['E']:.12g}", f"{r['seconds']:.3f}",
                             r["status"]])
        fh.write("# monotonicity: TE nonincreasing along M and N "
                 f"(slack 1e-09): {'OK' if not violations else 'VIOLATED'}\n")
        for v in violations:
            fh.write(f"# {v}\n")
    print(f"wrote {path} ({len(rows)} cells, "
          f"{len(violations)} monotonicity violations)")
    return EXIT_OK if all(r["status"] == "ok" for r in rows) else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Verify battery
# ---------------------------------------------------------------------------


def run_verify(config: RunConfig) -> int:
    """End-to-end verification of one instance: exact steering, energy
    consistency, constitutive residual, control structure, the KKT
    cross-check of the closed form (whatever ``solver`` says), and the
    finite-difference oracle ladder.  Oracle settings the config leaves
    unset are taken from ``VERIFY_ORACLE``."""
    config = replace(_with_oracle_defaults(config, VERIFY_ORACLE), solver="both")
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"  {'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")

    try:
        _check_oracle_size(config)
        result = solve_pipeline(config)
        oracle = _run_oracle(config, result)
    except RodwaveError as exc:
        return _error_exit(exc)
    terr = result["terminal"]
    mesh = result["mesh"]
    e_val = result["primary"].objective
    # terminal errors and control values scale with the data; data of
    # magnitude <= 1 keep the absolute tolerances
    scale = max(1.0, *(float(np.max(np.abs(values)))
                       for values in result["state"].arrays().values()))
    check("terminal states matched (sup <= 1e-8 * data scale)",
          terr.worst() <= 1e-8 * scale,
          f"worst {terr.worst():.3e}, data scale {scale:.3g}")
    check("constitutive residual Q <= 1e-6*T*E",
          result["Q"] <= 1e-6 * mesh.T * e_val, f"Q = {result['Q']:.3e}")
    rel = abs(result["E_grid"] - e_val) / max(e_val, 1e-300)
    check("grid energy within 0.5% of objective", rel <= 5e-3, f"rel {rel:.3e}")
    controls = result["controls"]
    check("control integrals start at zero (<= 1e-9 * data scale)",
          controls.zero_start_max() <= 1e-9 * scale,
          f"{controls.zero_start_max():.3e}")
    check("forces sum to zero (<= 1e-9 * data scale)",
          controls.zero_sum_max() <= 1e-9 * scale, f"{controls.zero_sum_max():.3e}")
    check("QP objective <= stationary objective + 1e-8",
          result["comparison"].qp_not_worse)
    check("oracle momentum budget exact",
          oracle["momentum_budget_max"] <= 1e-8)
    check("oracle terminal energy error <= 2%",
          oracle["terminal_energy_error"] <= 0.02,
          f"{oracle['terminal_energy_error']:.3e}")
    print(f"{sum(checks)}/{len(checks)} checks passed")
    return EXIT_OK if all(checks) else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_range(text):
    try:
        a, b = text.split(":")
        a, b = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError("range must be A:B")
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError("range must satisfy 1 <= A <= B")
    return a, b


def _load_config(args) -> RunConfig:
    if args.config:
        with open(args.config, "rb") as fh:
            raw = _json_object(fh.read())
    else:
        raw = {"N": 4, "M": 4, "preset": "paper_example"}
    if getattr(args, "out", None) is not None:
        raw["out_dir"] = args.out
    if getattr(args, "p_grid", None) is not None:
        raw["P"] = args.p_grid
    if getattr(args, "solver", None):
        raw["solver"] = args.solver
    if getattr(args, "oracle", False):
        raw["oracle"] = True
    if getattr(args, "dump_matrices", False):
        raw["dump_matrices"] = True
    return validate_config(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rodwave",
        description="Minimal-mean-energy steering of an elastic rod")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config path")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--p-grid", type=int, dest="p_grid",
                        help="samples per reference piece (odd)")
        sp.add_argument("--solver", choices=_SOLVERS,
                        help="el: closed form (default); both: add the KKT cross-check")
        sp.add_argument("--oracle", action="store_true",
                        help="run the finite-difference verification")
        sp.add_argument("--dump-matrices", action="store_true",
                        help="emit C, A and the free map as CSV")
        if name == "sweep":
            sp.add_argument("--m-range", type=_parse_range, default=(2, 6))
            sp.add_argument("--n-range", type=_parse_range, default=(2, 6))
            sp.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except ConfigurationError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "solve":
        return run_solve(config)
    if args.command == "sweep":
        return run_sweep(config, args.m_range, args.n_range, args.workers)
    return run_verify(config)


if __name__ == "__main__":
    sys.exit(main())
