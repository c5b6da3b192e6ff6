"""The closed-form solve of the one-dimensional variational problem, and
the KKT program it is cross-checked against.

``solve_euler_lagrange`` is the production path.  It follows the
stationarity route: the optimal free vector has the closed form
``y(z) = -(A^T A)^-1 A^T g(z) + alpha + beta z`` with constant vectors
alpha, beta determined by the essential boundary conditions together with
the natural conditions on the conjugate vector
``p = A^T A y' + A^T g'`` (which is constant in z along stationary
solutions).  The natural and gauge conditions leave the multipliers h
one degree of freedom, h = c z, with z the null vector of G^T (G the
essential rows' coefficients of alpha and gamma) read exactly off the
vertex row labels, and the boundary system reduces to one square system
in (alpha, gamma, c) that depends only on the mesh: :class:`ELSystem`
inverts it once, after the one solve with A^T A that it and the
particular solution need, and each state pays for its own right-hand
side only.  ``solve_qp`` minimizes the discretized weighted functional
directly via the KKT system of the equality-constrained
quadratic program; it is the reference the closed form is checked against
(``compare_solvers``).  It solves that system in the differences of
consecutive samples, where the Hessian is block-diagonal, and proves the
result by its residual in the KKT system, evaluated from the program's
kernel without assembling a matrix.  Both paths report
the objective through the same weighted evaluator so they can be
compared meaningfully.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, SolverError
from .edge import BoundaryStructure, EssentialBC, Parametrization
from .energy import EnergyWeights, QuadraticProgram, evaluate_objective

FEASIBILITY_TOL = 1e-9
BOUNDARY_RANK_TOL = 1e-10      # sigma and 1/cond_1(S), see ELSystem


@dataclass
class Solution:
    """Optimal free functions, terminal constants, and diagnostics.

    ``gamma`` holds one free terminal-potential constant per segment; the
    single constant visible in the reconstructed terminal potential is
    gamma_k plus the segment's control integral at t = T (common to all
    segments on any valid solution).
    """

    y: np.ndarray                  # (N_s, p) samples on [0, lambda]
    gamma: np.ndarray              # (N,) per-segment terminal constants
    h: np.ndarray                  # multipliers, one per essential row
    objective: float
    method: str
    diagnostics: dict = field(default_factory=dict)
    # (N_v, p) sampled values of every catalog entry, A y + C_gamma gamma + g,
    # where the solve formed them (the closed form); cli.solve_pipeline
    # takes them out of the solution it returns
    entries: Optional[np.ndarray] = field(default=None, repr=False)


def constraint_residual(bc: EssentialBC, y: np.ndarray, gamma: np.ndarray) -> float:
    r = bc.B1 @ y[:, -1] - bc.B0 @ y[:, 0] - bc.B_gamma @ gamma - bc.b0
    return float(np.max(np.abs(r)))


def check_feasible(bc: EssentialBC, y: np.ndarray, gamma: np.ndarray, method: str) -> float:
    """Essential-row residual of a solution; above FEASIBILITY_TOL * (1 + |b0|),
    or NaN, it raises :class:`SolverError`."""
    res = constraint_residual(bc, y, gamma)
    scale = 1.0 + float(np.max(np.abs(bc.b0)))
    if not res <= FEASIBILITY_TOL * scale:
        raise SolverError(f"{method}: essential boundary residual {res:.3e} "
                          f"exceeds {FEASIBILITY_TOL:.0e} * (1 + |b0|)")
    return res


def _divergence(flux: np.ndarray) -> np.ndarray:
    """Per sample s, flux[s - 1] - flux[s] of a (p - 1, n) cell array,
    with zero flux past either end: the transpose of the forward
    difference, as a (p, n) sample array."""
    padded = np.zeros((len(flux) + 2,) + flux.shape[1:])
    padded[1:-1] = flux
    return padded[:-1] - padded[1:]


def kkt_residual(qp: QuadraticProgram, bc: EssentialBC, x: np.ndarray,
                 mult: np.ndarray):
    """The KKT residual [[2H, C^T], [C, 0]] (x, m) - (-2b, d) of the
    program, evaluated matrix-free in sample space from its cell form:
    the stationarity rows (n_x, in the order of x) and the constraint rows
    (n_b).

    With d_q = y_{q+1} - y_q and flux_q = h^-2 K d_q + h^-1 l_q (half
    the gradient of the objective in d_q), the rows of sample s are
    2 (flux_{s-1} - flux_s), zero flux past either end, plus -B0^T m at the
    first sample and B1^T m at the last; the gamma rows are -B_gamma^T m,
    and the constraint rows B1 y_{p-1} - B0 y_0 - B_gamma gamma - d.
    """
    n_s, p, h = qp.n_free, qp.p, qp.h
    ys = x[:n_s * p].reshape(p, n_s)       # sample-major
    diffs = np.diff(ys, axis=0)
    flux = (1.0 / h) * qp.lin_cells.T + (diffs @ qp.kernel.T) / (h * h)
    r_y = 2.0 * _divergence(flux)
    r_y[0] -= bc.B0.T @ mult
    r_y[-1] += bc.B1.T @ mult
    r_x = np.concatenate([r_y.ravel(), -(bc.B_gamma.T @ mult)])
    r_c = bc.B1 @ ys[-1] - bc.B0 @ ys[0] - bc.B_gamma @ x[n_s * p:] - qp.d
    return r_x, r_c


def solve_qp(qp: QuadraticProgram, par: Parametrization, bc: EssentialBC,
             weights: EnergyWeights) -> Solution:
    """KKT solve of the discretized program, the cross-check of the closed
    form.

    The KKT system [[2H, C^T], [C, 0]] (x, m) = (-2b, d) is solved in the
    differences d_q = y_{q+1} - y_q, in which the objective separates by
    cell (see :class:`QuadraticProgram`).  Stationarity in d_q gives
    d_q = K^-1 (h^2 B1^T mu - h l_q) with m = -2 mu, so only
    (y_0, gamma, mu) are left, in one dense system of n_s + n_g + n_b rows:
    the essential rows, (B1 - B0)^T mu = 0 and B_gamma^T mu = 0.  y is y_0
    plus the running sum of the d_q.  The solution is then proved by its
    residual in the same KKT system (:func:`kkt_residual`, evaluated in
    sample space): a residual above 1e-8 * (1 + |rhs|), a non-finite
    solution or a failed factorization (``LinAlgError``, or any warning)
    raises :class:`SolverError`.
    """
    n_s, n_g, n_b, p = qp.n_free, qp.n_gamma, bc.n_rows, qp.p
    c_mu = n_s + n_g                       # (y_0, gamma, mu) in the reduced system
    h = qp.h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # K^-1 B1^T, and K^-1 l_q per cell
            solved = np.linalg.solve(qp.kernel, np.concatenate(
                [bc.B1.T, qp.lin_cells], axis=1))
            k_b1, k_lin = solved[:, :n_b], solved[:, n_b:]
            sum_b1 = (p - 1) * k_b1

            b_diff = bc.B1 - bc.B0
            reduced = np.zeros((c_mu + n_b, c_mu + n_b))
            reduced[:n_b] = np.concatenate(
                [b_diff, -bc.B_gamma, (h * h) * (bc.B1 @ sum_b1)], axis=1)
            reduced[n_b:, c_mu:] = np.concatenate([b_diff, bc.B_gamma], axis=1).T
            vec = np.zeros(c_mu + n_b)
            vec[:n_b] = qp.d + h * (bc.B1 @ k_lin.sum(axis=1))
            sol = np.linalg.solve(reduced, vec)
            y0, gamma, mu = sol[:n_s], sol[n_s:c_mu], sol[c_mu:]

            diffs = -h * k_lin + (h * h) * (k_b1 @ mu)[:, None]
            y = np.concatenate([y0[:, None], y0[:, None] + np.cumsum(diffs, axis=1)],
                               axis=1)
            x = np.concatenate([y.T.ravel(), gamma])
            mult = -2.0 * mu
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mult))):
                raise SolverError("singular KKT matrix (non-finite solve)")
            r_x, r_c = kkt_residual(qp, bc, x, mult)
            resid = float(max(np.max(np.abs(r_x)), np.max(np.abs(r_c), initial=0.0)))
        except (np.linalg.LinAlgError, Warning) as exc:
            raise SolverError(f"KKT factorization failed: {exc}") from exc
    b_max = np.max(np.abs(_divergence((1.0 / h) * qp.lin_cells.T)), initial=0.0)   # |b|
    rhs_max = max(2.0 * b_max, np.max(np.abs(qp.d), initial=0.0))
    if not resid <= 1e-8 * (1.0 + rhs_max):
        raise SolverError(f"KKT residual {resid:.3e}")

    res = check_feasible(bc, y, gamma, "qp")
    obj = evaluate_objective(par, weights, y)
    diagnostics = {"kkt_size": qp.n_x + n_b, "kkt_residual": resid,
                   "feasibility_residual": res,
                   "objective_quadrature": qp.objective(x)}
    return Solution(y=y, gamma=gamma, h=mult, objective=obj, method="qp",
                    diagnostics=diagnostics)


class ELSystem:
    """The state-independent part of the closed-form solve on one mesh,
    built once from the parametrization (bound to a state or not) and the
    essential-row ``structure``.  Only the wave entries ``data_rows`` have
    a data part g that is not identically zero, so ``a_data`` =
    A_w[data_rows] and ``proj`` = (A_w^T A_w)^-1 a_data^T carry every
    product of A_w^T with g; A_w^T A_w is ``par.ata``.

    The boundary unknowns (alpha, beta, gamma, h) solve the essential rows
    (B1 - B0) alpha + lambda B1 beta - B_gamma gamma = rhs, the natural
    conditions A^T A beta = B0^T h = B1^T h and the gauge B_gamma^T h = 0,
    so G^T h = 0 with G = [B1 - B0, -B_gamma].  G has n_b = n_s + n_g + 1
    rows and, when S below is nonsingular, full column rank, so h = c z
    with z the exact null vector of G^T read off the vertex labels
    (``structure.z``, unscaled; :func:`rodwave.edge.boundary_null_vector`),
    and beta = c w with w = (A^T A)^-1 B1^T z; ``proj`` and w come from one
    solve.  Left is S (alpha, gamma, c) = rhs with the n_b-square
    S = [G | lambda B1 w] (``s``, inverted in ``s_inv``).  S is
    nonsingular exactly when G has full column rank and sigma =
    lambda (B1^T z)^T w, never negative as A^T A is SPD, is positive.
    Another row count, a sigma at most ``BOUNDARY_RANK_TOL`` times
    |z| |lambda B1 w| (sigma / |z| is the component of that column along
    z, off the range of G), a singular S, or cond_1(S) = |S|_1 |S^-1|_1
    not below 1 / ``BOUNDARY_RANK_TOL`` raises :class:`SolverError`; a
    G short of full column rank makes S singular, so that bound covers it.

    A^T A is degenerate when its Cholesky factorization fails, or when the
    smallest diagonal entry of the Cholesky factor is at most 1e-6 times
    the largest.  The squares of those entries are the pivots, and every
    pivot lies between the extreme eigenvalues of A^T A, so the bound
    flags only a condition number of at least 1e12; it is cheap, not
    sharp.  A degenerate A^T A raises :class:`SolverError`.
    """

    def __init__(self, par: Parametrization, structure: BoundaryStructure):
        n_s, n_g, n_b = par.n_free, par.n_gamma, len(structure.B0)
        lam = par.mesh.lam
        ata = par.ata
        try:
            # a copy, so the n_s-square factor is freed here, not at return
            diag = np.linalg.cholesky(ata).diagonal().copy()
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"euler_lagrange: A^T A is degenerate "
                              f"(Cholesky failed: {exc})") from exc
        if not diag.min() > 1e-6 * diag.max():
            raise SolverError(f"euler_lagrange: A^T A is degenerate (Cholesky "
                              f"diagonal {diag.max():.3e} to {diag.min():.3e})")
        self.data_rows = np.flatnonzero(np.bincount(par.data_entry, minlength=par.catalog.N_v)
                                        [:par.catalog.N_w])
        self.a_data = par.A[self.data_rows]

        singular = "euler_lagrange: boundary system residual not bounded: "
        if n_b != n_s + n_g + 1:
            raise SolverError(f"{singular}{n_b} essential rows, not "
                              f"n_s + n_g + 1 = {n_s + n_g + 1}")
        self.z = structure.z
        b1z = structure.B1.T @ self.z
        solved = np.linalg.solve(ata, np.concatenate([self.a_data.T, b1z[:, None]], axis=1))
        self.proj, self.w = solved[:, :-1], solved[:, -1]
        col = lam * (structure.B1 @ self.w)
        sigma = float(b1z @ self.w) * lam
        scale = float(np.linalg.norm(self.z)) * float(np.linalg.norm(col))
        if not sigma > BOUNDARY_RANK_TOL * scale:
            raise SolverError(f"{singular}sigma = {sigma:.3e} is not positive "
                              f"against |z| lambda |B1 w| = {scale:.3e}")
        self.s = np.concatenate([structure.B1 - structure.B0, -structure.B_gamma,
                                 col[:, None]], axis=1)
        try:
            self.s_inv = np.linalg.inv(self.s)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"{singular}S is singular ({exc})") from exc
        cond = float(np.linalg.norm(self.s, 1) * np.linalg.norm(self.s_inv, 1))
        if not cond < 1.0 / BOUNDARY_RANK_TOL:
            raise SolverError(f"{singular}S is singular to working precision "
                              f"(cond_1(S) = {cond:.3e})")


def solve_euler_lagrange(par: Parametrization, bc: EssentialBC,
                         weights: EnergyWeights, p: int, el: ELSystem) -> Solution:
    """Closed-form stationary solution plus a linear boundary solve.

    The stationary free vector is y(z) = -(A^T A)^-1 A^T g(z) + alpha +
    beta z; the conjugate vector A^T A y' + A^T g' is then the constant
    A^T A beta.  The boundary unknowns are reduced once per mesh in ``el``
    to (alpha, gamma, c), with beta = c w and h = c z (see
    :class:`ELSystem`); a state solves them by one product with the stored
    inverse of S, proved by its residual S (alpha, gamma, c) - rhs: above
    1e-8 * (1 + |rhs|), or NaN, it raises :class:`SolverError`.  The
    z-grid is the weights' (``weights.z``), built once per (mesh, p).

    One product A y serves the objective, which reads the wave rows of
    A y + g (:func:`rodwave.energy.evaluate_objective`, as for the KKT
    solution; C_gamma gamma, constant in z, does not enter), and the
    sampled values of every catalog entry, (A y + C_gamma gamma) + g
    (``Solution.entries``, :meth:`Parametrization.entry_values`), which
    the junction check and the reconstruction read.
    """
    n_s, n_g = par.n_free, par.n_gamma
    if weights.p != p:
        raise InvalidArgumentError("weight grid does not match y samples")
    z = weights.z

    y_part = -el.proj @ par.g_matrix(p)[el.data_rows]
    rhs = bc.b0 - bc.B1 @ y_part[:, -1] + bc.B0 @ y_part[:, 0]
    sol = el.s_inv @ rhs
    residual = float(np.max(np.abs(el.s @ sol - rhs), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    if not residual <= 1e-8 * scale:
        raise SolverError(f"euler_lagrange: boundary system residual "
                          f"{residual:.3e} exceeds 1e-8 * (1 + |rhs|)")

    alpha = sol[:n_s]
    gamma = sol[n_s:n_s + n_g].copy()
    c = sol[-1]
    y = y_part + alpha[:, None] + (c * el.w)[:, None] * z[None, :]
    res = check_feasible(bc, y, gamma, "euler_lagrange")
    ay = par.A @ y
    obj = evaluate_objective(par, weights, y, ay)
    entries = par.entry_values(y, gamma, ay)      # in place in ay
    diag = {"feasibility_residual": res, "boundary_residual": residual}
    return Solution(y=y, gamma=gamma, h=c * el.z, objective=obj,
                    method="euler_lagrange", diagnostics=diag, entries=entries)


@dataclass(frozen=True)
class SolverComparison:
    objective_qp: float
    objective_el: float
    gap: float
    feas_qp: float
    feas_el: float
    y_diff: float
    qp_not_worse: bool


def compare_solvers(sol_qp: Solution, sol_el: Solution,
                    tol: float = 1e-8) -> SolverComparison:
    """Cross-check the two paths on identical inputs.

    The QP minimizes the weighted functional by construction, so its
    objective must not exceed the stationary path's value by more than
    tol * (1 + |E|), E the stationary objective; any remaining gap is
    reported, not asserted away.  The feasibility residuals are the ones
    each solve measured.
    """
    gap = sol_qp.objective - sol_el.objective
    scale = tol * (1.0 + abs(sol_el.objective))
    return SolverComparison(
        objective_qp=sol_qp.objective,
        objective_el=sol_el.objective,
        gap=gap,
        feas_qp=sol_qp.diagnostics["feasibility_residual"],
        feas_el=sol_el.diagnostics["feasibility_residual"],
        y_diff=float(np.max(np.abs(sol_qp.y - sol_el.y))),
        qp_not_worse=bool(gap <= scale),
    )
