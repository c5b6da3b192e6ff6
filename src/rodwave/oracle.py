"""Independent verification by direct time integration.

A staggered-grid leapfrog scheme advances the first-order system
``p_t = s_x``, ``v_t = p/rho`` with ``s = kappa v_x + f`` on cell
midpoints: displacements and momenta live on nodes, internal forces on
midpoints, so the piecewise-constant applied force is represented exactly
(interfaces coincide with cell boundaries).  The two end loads enter by
prescribing s on the boundary faces.  The scheme is second order and, at
unit Courant number on this constant-coefficient problem, propagates the
characteristic structure along grid diagonals.

Nothing here touches the traveling-wave machinery: the simulator consumes
only the synthesized forces and the prescribed states, which is what makes
it a meaningful cross-check of the analytic reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .mesh import MeshConfig, RodParams
from .reconstruct import ControlSet, FieldGrid, write_csv
from .edge import StateSpec


@dataclass(frozen=True)
class SimConfig:
    """Spatial resolution (cells per segment) and Courant number."""

    points_per_segment: int = 64
    cfl: float = 0.9

    def __post_init__(self):
        if self.points_per_segment < 8:
            raise ConfigurationError("need at least 8 points per segment")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigurationError("CFL number must lie in (0, 1]")


@dataclass(frozen=True)
class SimResult:
    """Terminal state and diagnostics of one forward run.

    ``energy_history[n]`` is the conserved staggered discrete energy
    (momentum product across the level) for interior steps; the first and
    last entries use the reconstructed integer-time momenta and differ
    from the staggered form by O(dt^2).
    """

    x: np.ndarray
    v_terminal: np.ndarray
    p_terminal: np.ndarray
    energy_history: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    momentum_budget_max: float = 0.0
    terminal_energy_error: float = 0.0     # relative energy-norm error vs target
    terminal_v_sup: float = 0.0
    dt: float = 0.0
    h: float = 0.0

    def energy_drift(self) -> float:
        """Relative drift of the conserved staggered energy."""
        core = self.energy_history[1:-1]
        if len(core) < 2:
            return 0.0
        scale = max(abs(float(core[0])), 1e-300)
        return float(np.max(np.abs(core - core[0]))) / scale


def _node_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2.0
    return w


def energy_norm(v: np.ndarray, p: np.ndarray, h: float,
                rho: float, kappa: float) -> float:
    """Discrete energy-seminorm sqrt( int kappa v_x^2/2 + p^2/(2 rho) )."""
    strain = kappa * float(np.sum(np.diff(v) ** 2)) / (2.0 * h)
    kinetic = float(_node_weights(len(v), h) @ (p ** 2)) / (2.0 * rho)
    return math.sqrt(max(strain + kinetic, 0.0))


def cell_steps(n: int, m: int, points_per_segment: int, cfl: float) -> int:
    """Cells times time steps of a :func:`simulate` run at unit wave speed:
    N·pps cells and 2M half-layers of ceil(pps / (2·cfl)) steps each.

    The running time of a run grows with this count.  It is computed in
    exact rationals, so any integer pps and any CFL number in (0, 1] give
    a count without overflow; it can differ from ``simulate``'s float step
    count only where pps / (2·cfl) lies within rounding of an integer.
    """
    return n * points_per_segment * time_steps(m, points_per_segment, cfl)


def time_steps(m: int, points_per_segment: int, cfl: float) -> int:
    """Time steps of a :func:`simulate` run at unit wave speed: 2M
    half-layers of ceil(pps / (2·cfl)) steps each, in exact rationals as
    in :func:`cell_steps`.  The per-step arrays of a run grow with it."""
    steps_per_half = max(1, math.ceil(Fraction(points_per_segment) / (2 * Fraction(cfl))))
    return 2 * m * steps_per_half


def simulate(mesh: MeshConfig, params: RodParams, controls: ControlSet,
             state: StateSpec, cfg: SimConfig) -> SimResult:
    """Drive the rod with the synthesized forces and report the terminal state.

    The step divides the half-layer duration exactly so control
    discontinuities land on step instants; forces are sampled with their
    right-sided limits inside each layer (left-sided at t = T).  The
    discrete momentum budget -- rate of change of total momentum equals
    the net boundary load -- telescopes exactly and is asserted per step.
    """
    rho, kappa = params.rho, params.kappa
    wave_speed = math.sqrt(kappa / rho)
    n_cells = mesh.N * cfg.points_per_segment
    h = mesh.lam / cfg.points_per_segment
    x = np.linspace(-1.0, 1.0, n_cells + 1)

    half_layer = mesh.lam / 2.0
    steps_per_half = max(1, math.ceil(half_layer * wave_speed / (cfg.cfl * h) - 1e-12))
    dt = half_layer / steps_per_half
    if dt * wave_speed > cfg.cfl * h * (1.0 + 1e-12):
        raise ConfigurationError("CFL violation after step alignment")
    n_steps = 2 * mesh.M * steps_per_half

    times = np.arange(n_steps + 1) * dt
    # the momentum update at step n integrates s over the half-open step
    # window around t_n; feeding it the exact window average of the force
    # (differences of the stored control integrals) keeps the quadrature
    # second order across force jumps and, at unit Courant number, avoids
    # seeding the staggered parity cone with interpolation kinks
    lo = np.clip(times - dt / 2.0, 0.0, mesh.T)
    hi = np.clip(times + dt / 2.0, 0.0, mesh.T)

    def force_series(k):
        return np.asarray(controls.force_average(k, lo, hi), dtype=float)

    f_seg = np.stack([force_series(k) for k in mesh.J_s])       # (N, n_steps+1)
    f_left = force_series(-mesh.N - 1)
    f_right = force_series(mesh.N + 1)

    # The piecewise-constant force contributes delta impulses exactly at
    # the interface nodes and the boundary faces, one row per step.  The
    # nodes are distinct, so one fancy-index add gives each a single add.
    interfaces = np.arange(1, mesh.N) * cfg.points_per_segment  # interior nodes
    impulse_nodes = np.concatenate([interfaces, [0, n_cells]])
    impulses = np.vstack([(f_seg[1:] - f_seg[:-1]) / h,
                          (f_seg[0] - f_left) / (h / 2.0),
                          (f_right - f_seg[-1]) / (h / 2.0)]).T.copy()

    # The step runs in these buffers, with the operations of the plain
    # array expressions in the same order, so the results are the same
    # bits.  ``rate`` is overwritten by every p_rate call.
    s_el = np.empty(n_cells)
    rate = np.empty(n_cells + 1)
    scratch = np.empty(n_cells + 1)

    def p_rate(dv, n_step):
        """Momentum rate s_x from the node differences ``dv`` of v: elastic
        divergence plus force impulses.

        At unit Courant number the bare node impulses reproduce the
        continuum transmission and Neumann relations node-for-node (method
        of images), so the only time-discretization error left is the
        midpoint rule on the smooth force histories.
        """
        np.multiply(kappa, dv, out=s_el)
        np.divide(s_el, h, out=s_el)
        inner = rate[1:-1]
        np.subtract(s_el[1:], s_el[:-1], out=inner)
        np.divide(inner, h, out=inner)
        rate[0] = s_el[0] / (h / 2.0)
        rate[-1] = -s_el[-1] / (h / 2.0)
        rate[impulse_nodes] += impulses[n_step]
        return rate

    def strain_energy(dv):
        squares = np.square(dv, out=scratch[:-1])
        return kappa * float(np.sum(squares)) / (2.0 * h)

    weights = _node_weights(n_cells + 1, h)
    v = np.array(state.v0(x), dtype=float)        # a copy: the loop updates v in place
    dv = v[1:] - v[:-1]
    p0 = state.momentum_initial()(x)
    p_half = p0 + (dt / 2.0) * p_rate(dv, 0)
    p_next = np.empty(n_cells + 1)

    budget_max = 0.0
    force_scale = max(1.0, float(np.max(np.abs(f_left))), float(np.max(np.abs(f_right))))
    energies = np.empty(n_steps + 1)
    energies[0] = strain_energy(dv) + float(weights @ (p0 ** 2)) / (2.0 * rho)

    p_terminal = None
    for n in range(n_steps):
        # v = v + dt * p_half / rho; dv = v[1:] - v[:-1]
        np.multiply(dt, p_half, out=scratch)
        scratch /= rho
        v += scratch
        np.subtract(v[1:], v[:-1], out=dv)
        if n < n_steps - 1:
            # p_next = p_half + dt * p_rate(dv, n + 1)
            np.multiply(dt, p_rate(dv, n + 1), out=p_next)
            np.add(p_half, p_next, out=p_next)
            lhs = float(weights @ np.subtract(p_next, p_half, out=scratch)) / dt
            rhs = float(f_right[n + 1] - f_left[n + 1])
            budget_max = max(budget_max, abs(lhs - rhs) / force_scale)
            strain = strain_energy(dv)
            energies[n + 1] = strain + float(
                weights @ np.multiply(p_half, p_next, out=scratch)) / (2.0 * rho)
            p_half, p_next = p_next, p_half
        else:
            p_terminal = p_half + (dt / 2.0) * p_rate(dv, n_steps)
            energies[n + 1] = strain_energy(dv) + float(
                weights @ (p_terminal ** 2)) / (2.0 * rho)

    v1 = state.v1(x)
    p1 = state.momentum_terminal()(x)
    err = energy_norm(v - v1, p_terminal - p1, h, rho, kappa)
    ref = max(energy_norm(state.v0(x), p0, h, rho, kappa),
              energy_norm(v1, p1, h, rho, kappa), 1e-300)
    return SimResult(
        x=x, v_terminal=v, p_terminal=p_terminal,
        energy_history=energies, times=times,
        momentum_budget_max=budget_max,
        terminal_energy_error=float(err / ref),
        terminal_v_sup=float(np.max(np.abs(v - v1))),
        dt=dt, h=h)


def write_sim_csv(sim: SimResult, terminal_path, energy_path) -> None:
    """Emit the terminal profiles (``x,v,p``) and the discrete energy
    history (``t,energy``) as ``%.12g`` CSV with CRLF line ends."""
    write_csv(terminal_path, ["x", "v", "p"], [sim.x, sim.v_terminal, sim.p_terminal])
    write_csv(energy_path, ["t", "energy"], [sim.times, sim.energy_history])


@dataclass(frozen=True)
class ConvergenceReport:
    resolutions: tuple
    sup_errors: tuple
    l2_errors: tuple
    orders: tuple
    mean_order: float


def compare(sims: Sequence[SimResult], fg: FieldGrid) -> ConvergenceReport:
    """Difference of each simulation's terminal displacement against the
    analytic reconstruction, with the empirical convergence order across
    the supplied refinement ladder."""
    sup, l2, res = [], [], []
    v_ref = fg.v[-1]
    for sim in sims:
        v_interp = np.interp(sim.x, fg.x, v_ref)
        diff = sim.v_terminal - v_interp
        sup.append(float(np.max(np.abs(diff))))
        l2.append(float(math.sqrt(sim.h * float(np.sum(diff ** 2)))))
        res.append(len(sim.x) - 1)
    orders = tuple(math.log2(max(l2[i], 1e-300) / max(l2[i + 1], 1e-300))
                   for i in range(len(l2) - 1))
    mean_order = sum(orders) / len(orders) if orders else float("nan")
    return ConvergenceReport(resolutions=tuple(res), sup_errors=tuple(sup),
                             l2_errors=tuple(l2), orders=orders,
                             mean_order=mean_order)
