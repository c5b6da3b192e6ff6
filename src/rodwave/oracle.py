"""Independent verification by direct time integration.

A staggered-grid leapfrog scheme advances the first-order system of the
dimensionless rod (unit wave speed, which the mesh's lambda = 2/N in both
space and time assumes), ``p_t = s_x``, ``v_t = p`` with ``s = v_x + f``
on cell midpoints: displacements and momenta live on nodes, internal forces on
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
from .mesh import MeshConfig
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


def energy_norm(v: np.ndarray, p: np.ndarray, h: float) -> float:
    """Discrete energy-seminorm sqrt( int v_x^2/2 + p^2/2 )."""
    strain = float(np.sum(np.diff(v) ** 2)) / (2.0 * h)
    kinetic = float(_node_weights(len(v), h) @ (p ** 2)) / 2.0
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


def simulate(mesh: MeshConfig, controls: ControlSet, state: StateSpec,
             cfg: SimConfig) -> SimResult:
    """Drive the rod with the synthesized forces and report the terminal state.

    The step divides the half-layer duration exactly so control
    discontinuities land on step instants; forces are sampled with their
    right-sided limits inside each layer (left-sided at t = T).  The
    discrete momentum budget -- rate of change of total momentum equals
    the net boundary load -- telescopes exactly; ``momentum_budget_max``
    is its largest defect over the steps relative to the end loads, and
    NaN if any step's is.
    """
    n_cells = mesh.N * cfg.points_per_segment
    h = mesh.lam / cfg.points_per_segment
    x = np.linspace(-1.0, 1.0, n_cells + 1)

    half_layer = mesh.lam / 2.0
    steps_per_half = max(1, math.ceil(half_layer / (cfg.cfl * h) - 1e-12))
    dt = half_layer / steps_per_half
    if dt > cfg.cfl * h * (1.0 + 1e-12):
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
    # the interface nodes and the boundary faces, that is at every pps-th
    # node; column k of a row is the impulse of node k * pps.
    pps = cfg.points_per_segment
    impulses = np.vstack([(f_seg[0] - f_left) / (h / 2.0),
                          (f_seg[1:] - f_seg[:-1]) / h,
                          (f_right - f_seg[-1]) / (h / 2.0)]).T.copy()

    # The step runs in these buffers and views, with the operations of the
    # plain array expressions in the same order, so the results are the
    # same bits.  ``rate`` is overwritten by every p_rate call.
    v = np.array(state.v0(x), dtype=float)        # a copy: the loop updates v in place
    dv = np.empty(n_cells)
    s_el = np.empty(n_cells)
    rate = np.empty(n_cells + 1)
    scratch = np.empty(n_cells + 1)
    v_right, v_left = v[1:], v[:-1]
    s_right, s_left = s_el[1:], s_el[:-1]
    rate_inner, rate_nodes = rate[1:-1], rate[::pps]
    squares = scratch[:-1]

    def advance_v(p_half):
        """v = v + dt * p_half, then dv = v[1:] - v[:-1]."""
        np.multiply(dt, p_half, scratch)
        np.add(v, scratch, v)
        np.subtract(v_right, v_left, dv)

    def p_rate(n_step):
        """Momentum rate s_x from ``dv``: elastic divergence plus the force
        impulses of step ``n_step``.

        At unit Courant number the bare node impulses reproduce the
        continuum transmission and Neumann relations node-for-node (method
        of images), so the only time-discretization error left is the
        midpoint rule on the smooth force histories.
        """
        np.divide(dv, h, s_el)
        np.subtract(s_right, s_left, rate_inner)
        np.divide(rate_inner, h, rate_inner)
        rate[0] = s_el[0] / (h / 2.0)
        rate[-1] = -s_el[-1] / (h / 2.0)
        np.add(rate_nodes, impulses[n_step], rate_nodes)
        return rate

    # per-step sums: of dv^2, of weights * (p_next - p_half) and of
    # weights * p_half * p_next (weights * p^2 at the two ends)
    weights = _node_weights(n_cells + 1, h)
    strain_sums = np.empty(n_steps + 1)
    kinetic_sums = np.empty(n_steps + 1)
    budget_sums = np.empty(n_steps - 1)

    np.subtract(v_right, v_left, dv)
    p0 = state.momentum_initial()(x)
    p_half = p0 + (dt / 2.0) * p_rate(0)
    p_next = np.empty(n_cells + 1)
    strain_sums[0] = np.add.reduce(np.square(dv, squares))
    kinetic_sums[0] = np.dot(weights, np.square(p0, scratch))

    for n in range(1, n_steps):
        advance_v(p_half)
        # p_next = p_half + dt * p_rate(n)
        np.multiply(dt, p_rate(n), p_next)
        np.add(p_half, p_next, p_next)
        budget_sums[n - 1] = np.dot(weights, np.subtract(p_next, p_half, scratch))
        strain_sums[n] = np.add.reduce(np.square(dv, squares))
        kinetic_sums[n] = np.dot(weights, np.multiply(p_half, p_next, scratch))
        p_half, p_next = p_next, p_half
    advance_v(p_half)
    p_terminal = p_half + (dt / 2.0) * p_rate(n_steps)
    strain_sums[n_steps] = np.add.reduce(np.square(dv, squares))
    kinetic_sums[n_steps] = np.dot(weights, np.square(p_terminal, scratch))

    energies = strain_sums / (2.0 * h) + kinetic_sums / 2.0
    # the momentum budget: net boundary load against the rate of change of
    # total momentum; a NaN step makes the maximum NaN
    force_scale = max(1.0, float(np.max(np.abs(f_left))), float(np.max(np.abs(f_right))))
    net_load = f_right[1:n_steps] - f_left[1:n_steps]
    budget = np.abs(budget_sums / dt - net_load) / force_scale
    budget_max = float(np.max(budget, initial=0.0))

    v1 = state.v1(x)
    p1 = state.momentum_terminal()(x)
    err = energy_norm(v - v1, p_terminal - p1, h)
    ref = max(energy_norm(state.v0(x), p0, h), energy_norm(v1, p1, h), 1e-300)
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
    nt = len(fg.t)
    (v_ref,), = fg.rows(nt - 1, nt, "v")
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
