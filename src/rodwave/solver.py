"""The closed-form solve of the one-dimensional variational problem, and
the KKT program it is cross-checked against.

``solve_euler_lagrange`` is the production path.  It follows the
stationarity route: the optimal free vector has the closed form
``y(z) = -(A^T A)^-1 A^T g(z) + alpha + beta z`` with constant vectors
alpha, beta determined by the essential boundary conditions together with
the natural conditions on the conjugate vector
``p = A^T A y' + A^T g'`` (which is constant in z along stationary
solutions).  That boundary system is square and depends only on the mesh;
:class:`ELSystem` factors it once from the parametrization and the
essential-row structure, and each state pays for its own right-hand side
only.  ``solve_qp`` minimizes the discretized weighted functional
directly via the KKT system of the equality-constrained
quadratic program; it is the reference the closed form is checked against
(``compare_solvers``).  It solves that system in the differences of
consecutive samples, where the Hessian is block-diagonal, and proves the
result by its residual in the KKT system, evaluated from the program's
cell kernels without assembling a matrix.  Both paths report
the objective through the same weighted evaluator so they can be
compared meaningfully.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SolverError
from .edge import BoundaryStructure, EssentialBC, Parametrization
from .energy import EnergyWeights, QuadraticProgram, evaluate_objective
from .sampled import fd_derivative

FEASIBILITY_TOL = 1e-9


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
    p_conj: Optional[np.ndarray] = None   # (N_s, p) conjugate vector (EL path)
    diagnostics: dict = field(default_factory=dict)


def constraint_residual(bc: EssentialBC, y: np.ndarray, gamma: np.ndarray) -> float:
    if bc.n_rows == 0:
        return 0.0
    r = bc.B1 @ y[:, -1] - bc.B0 @ y[:, 0] - bc.B_gamma @ gamma - bc.b0
    return float(np.max(np.abs(r)))


def check_feasible(bc: EssentialBC, y: np.ndarray, gamma: np.ndarray, method: str) -> float:
    """Essential-row residual of a solution; above FEASIBILITY_TOL * (1 + |b0|),
    or NaN, it raises :class:`SolverError`."""
    res = constraint_residual(bc, y, gamma)
    scale = 1.0 + (float(np.max(np.abs(bc.b0))) if bc.n_rows else 0.0)
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

    With d_q = y_{q+1} - y_q and flux_q = h^-2 K_{c(q)} d_q + h^-1 l_q (half
    the gradient of the objective in d_q), the rows of sample s are
    2 (flux_{s-1} - flux_s), zero flux past either end, plus -B0^T m at the
    first sample and B1^T m at the last; the gamma rows are -B_gamma^T m,
    and the constraint rows B1 y_{p-1} - B0 y_0 - B_gamma gamma - d.
    """
    n_s, p, h = qp.n_free, qp.p, qp.h
    ys = x[:n_s * p].reshape(p, n_s)       # sample-major
    diffs = np.diff(ys, axis=0)
    flux = (1.0 / h) * qp.lin_cells.T
    for c, kernel in enumerate(qp.kernels):
        cells = qp.cell_class == c
        flux[cells] += (diffs[cells] @ kernel.T) / (h * h)
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
    d_q = K_{c(q)}^-1 (h^2 B1^T mu - h l_q) with m = -2 mu, so only
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
    classes = [qp.cell_class == c for c in range(len(qp.kernels))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # K_c^-1 B1^T per kernel class, and K_c(q)^-1 l_q per cell
            k_b1 = np.empty((len(classes), n_s, n_b))
            k_lin = np.empty_like(qp.lin_cells)
            for c, cells in enumerate(classes):
                solved = np.linalg.solve(qp.kernels[c], np.concatenate(
                    [bc.B1.T, qp.lin_cells[:, cells]], axis=1))
                k_b1[c], k_lin[:, cells] = solved[:, :n_b], solved[:, n_b:]
            sum_b1 = sum(np.count_nonzero(cells) * kb for cells, kb in zip(classes, k_b1))

            b_diff = bc.B1 - bc.B0
            reduced = np.zeros((c_mu + n_b, c_mu + n_b))
            reduced[:n_b] = np.concatenate(
                [b_diff, -bc.B_gamma, (h * h) * (bc.B1 @ sum_b1)], axis=1)
            reduced[n_b:, c_mu:] = np.concatenate([b_diff, bc.B_gamma], axis=1).T
            vec = np.zeros(c_mu + n_b)
            vec[:n_b] = qp.d + h * (bc.B1 @ k_lin.sum(axis=1))
            sol = np.linalg.solve(reduced, vec)
            y0, gamma, mu = sol[:n_s], sol[n_s:c_mu], sol[c_mu:]

            diffs = -h * k_lin
            for cells, kb in zip(classes, k_b1):
                diffs[:, cells] += (h * h) * (kb @ mu)[:, None]
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
    factored once from the parametrization (bound to a state or not) and
    the essential-row ``structure``: A_w^T A_w (``ata``), the square
    boundary-system matrix ``mat``, its inverse's first n_b columns ``K`` =
    mat^-1 E (E the first n_b columns of the identity), and the rank of
    B_gamma.  Only the wave entries ``data_rows`` have a data part g that
    is not identically zero, so ``a_data`` = A_w[data_rows] and ``proj`` =
    (A_w^T A_w)^-1 a_data^T carry every product of A_w^T with g.

    Unknowns (alpha, beta, gamma, h) of the boundary system solve the
    essential rows (n_b), the natural conditions p(0) = B0^T h and
    p(lambda) = B1^T h (n_s each), and the gauge B_gamma^T h = 0 (n_g): as
    many rows as unknowns.  Only the first n_b entries of its right-hand
    side depend on the state, so a state solves as ``K @ vec[:n_b]``.

    A^T A is degenerate when its Cholesky factorization fails, or when the
    smallest diagonal entry of the Cholesky factor is at most 1e-6 times
    the largest.  The squares of those entries are the pivots, and every
    pivot lies between the extreme eigenvalues of A^T A, so the bound
    flags only a condition number of at least 1e12; it is cheap, not
    sharp.  A degenerate A^T A raises :class:`SolverError`, and so does a
    singular boundary system (``LinAlgError``, or a non-finite K).
    """

    def __init__(self, par: Parametrization, structure: BoundaryStructure):
        n_s, n_g, n_b = par.n_free, par.n_gamma, len(structure.B0)
        lam = par.mesh.lam
        a_w = par.A[:par.catalog.N_w]
        ata = a_w.T @ a_w
        try:
            diag = np.diagonal(np.linalg.cholesky(ata))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"euler_lagrange: A^T A is degenerate "
                              f"(Cholesky failed: {exc})") from exc
        if n_s and not diag.min() > 1e-6 * diag.max():
            raise SolverError(f"euler_lagrange: A^T A is degenerate (Cholesky "
                              f"diagonal {diag.max():.3e} to {diag.min():.3e})")
        self.ata = ata
        self.data_rows = np.array([e for e, expr in enumerate(par.g_exprs[:len(a_w)])
                                   if expr.terms or expr.consts], dtype=int)
        self.a_data = a_w[self.data_rows]
        self.proj = np.linalg.solve(ata, self.a_data.T)

        c_beta, c_gamma, c_h = n_s, 2 * n_s, 2 * n_s + n_g
        n = n_b + 2 * n_s + n_g
        mat = np.zeros((n, n))
        mat[:n_b, :c_beta] = structure.B1 - structure.B0
        mat[:n_b, c_beta:c_gamma] = lam * structure.B1
        mat[:n_b, c_gamma:c_h] = -structure.B_gamma
        for r, bm in ((n_b, structure.B0), (n_b + n_s, structure.B1)):
            mat[r:r + n_s, c_beta:c_gamma] = ata
            mat[r:r + n_s, c_h:] = -bm.T
        mat[n_b + 2 * n_s:, c_h:] = structure.B_gamma.T
        self.mat = mat
        e_nb = np.zeros((n, n_b))
        e_nb[np.arange(n_b), np.arange(n_b)] = 1.0
        try:
            self.K = np.linalg.solve(mat, e_nb)
            if not np.all(np.isfinite(self.K)):
                raise np.linalg.LinAlgError("non-finite inverse")
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"euler_lagrange: boundary system residual not "
                              f"bounded: the system is singular ({exc})") from exc
        self.b_gamma_rank = int(np.linalg.matrix_rank(structure.B_gamma)) if n_b else 0


def solve_euler_lagrange(par: Parametrization, bc: EssentialBC,
                         weights: EnergyWeights, p: int, el: ELSystem) -> Solution:
    """Closed-form stationary solution plus a linear boundary solve.

    The stationary free vector is y(z) = -(A^T A)^-1 A^T g(z) + alpha +
    beta z; the conjugate vector A^T A y' + A^T g' is then the constant
    A^T A beta.  Unknowns (alpha, beta, gamma, h) solve the essential
    rows together with the natural conditions p(0) = B0^T h,
    p(lambda) = B1^T h and the gauge B_gamma^T h = 0 (the projected
    one-constant form of the natural conditions is recovered from these
    by eliminating h along the gamma columns).  The square system, factored
    once per mesh in ``el``, is solved by its stored inverse columns; a
    residual above 1e-8 * (1 + |rhs|), or NaN, raises :class:`SolverError`.
    """
    mesh = par.mesh
    n_s = par.n_free
    n_g = par.n_gamma
    h_step = mesh.lam / (p - 1)
    z = np.linspace(0.0, mesh.lam, p)

    g_data = par.g_matrix(p)[el.data_rows]
    y_part = -el.proj @ g_data

    n_b = bc.n_rows
    vec = np.zeros(len(el.mat))
    vec[:n_b] = bc.b0 - bc.B1 @ y_part[:, -1] + bc.B0 @ y_part[:, 0]
    sol = el.K @ vec[:n_b]
    residual = float(np.max(np.abs(el.mat @ sol - vec), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(vec), initial=0.0))
    if not residual <= 1e-8 * scale:
        raise SolverError(f"euler_lagrange: boundary system residual "
                          f"{residual:.3e} exceeds 1e-8 * (1 + |rhs|)")

    alpha = sol[:n_s]
    beta = sol[n_s:2 * n_s]
    gamma = sol[2 * n_s:2 * n_s + n_g].copy()
    mult = sol[2 * n_s + n_g:]
    y = y_part + alpha[:, None] + beta[:, None] * z[None, :]
    res = check_feasible(bc, y, gamma, "euler_lagrange")

    g_d = fd_derivative(g_data, h_step)
    y_d = fd_derivative(y, h_step)
    p_conj = el.ata @ y_d + el.a_data.T @ g_d
    obj = evaluate_objective(par, weights, y)
    diag = {"feasibility_residual": res,
            "boundary_residual": residual,
            "boundary_rank": len(el.mat),     # the factorization proved full rank
            "ata_degenerate": False,        # a degenerate A^T A raises
            "b_gamma_rank": el.b_gamma_rank}
    return Solution(y=y, gamma=gamma, h=mult, objective=obj,
                    method="euler_lagrange", p_conj=p_conj, diagnostics=diag)


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
                    bc: EssentialBC, tol: float = 1e-8) -> SolverComparison:
    """Cross-check the two paths on identical inputs.

    The QP minimizes the weighted functional by construction, so its
    objective must not exceed the stationary path's value (up to tol);
    any remaining gap is reported, not asserted away.
    """
    gap = sol_qp.objective - sol_el.objective
    scale = tol * (1.0 + abs(sol_el.objective))
    return SolverComparison(
        objective_qp=sol_qp.objective,
        objective_el=sol_el.objective,
        gap=gap,
        feas_qp=constraint_residual(bc, sol_qp.y, sol_qp.gamma),
        feas_el=constraint_residual(bc, sol_el.y, sol_el.gamma),
        y_diff=float(np.max(np.abs(sol_qp.y - sol_el.y))),
        qp_not_worse=bool(gap <= scale),
    )
