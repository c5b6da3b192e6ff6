"""Mean-energy functional over the free functions.

On a valid solution the energy density reduces to
``(v_t^2 + v_x^2)/2 = (w_plus')^2 + (w_minus')^2`` per segment, so the
mean energy is a weighted integral of squared wave derivatives over the
reference interval: each wave piece carries the cross-characteristic
thickness of its strip as weight (the trapezoid of
:func:`rodwave.mesh.delta_z_weight`), which is lambda on all interior
layers and a linear ramp on the first/last layers.  Control-jump entries
carry zero weight.

On interior layers the sampled weight is lambda only up to rounding: the
trapezoid is evaluated from rounded domain offsets, so some pieces read a
few ulps below lambda (1 ulp at N = M = 6, up to 10 at N = 7, M = 5).
The quadratic form keeps these values as they are.

Since the first/last layer pieces are resolved purely from data, the
y-dependent part of the functional sees the (rounded) constant weight
lambda only; the ramp layers contribute a data constant that is kept so
that the reported optimum equals the true mean energy.

The discretized program (:class:`QuadraticProgram`) is kept in its cell
form only: one kernel per distinct cell weight column and a linear term
per cell.  Its Hessian in the samples is never assembled; the KKT solve
and its residual proof in :mod:`rodwave.solver` work on the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, InvalidArgumentError
from .mesh import MeshConfig, delta_z_weight
from .sampled import simpson_weights
from .edge import EssentialBC, Parametrization, build_catalog


@dataclass(frozen=True)
class EnergyWeights:
    """Diagonal weight of the stacked quadratic form: ``w_mid`` holds the
    wave entries' weights at the cell midpoints, in catalog order, as the
    midpoint-rule quadrature reads them; control entries weigh zero and
    have no row."""

    mesh: MeshConfig
    p: int
    w_mid: np.ndarray = field(repr=False, compare=False)  # (N_w, p - 1), read-only


def build_weights(mesh: MeshConfig, p: int = 129) -> EnergyWeights:
    """Per-piece restriction of the strip-thickness trapezoid.

    Piece (side, k, m) occupies offsets [m*lam/2, m*lam/2 + lam] of the
    wave domain, so its weight is z on the first layer, lam - z on the
    last, and the constant lam in between, up to the rounding of the
    offsets (a few ulps below lam on some interior pieces).  All layers
    of one wave are weighed in one call, row m of the (M + 1, p) array,
    and the rows go straight to their catalog positions.
    """
    z = np.linspace(0.0, mesh.lam, p)
    ms = np.array(mesh.J_t)
    cat = build_catalog(mesh)
    w_nodes = np.empty((cat.N_w, p))
    for k in mesh.J_s:
        for side in (+1, -1):
            lo, _ = mesh.wave_domain(k, side)
            rows = [cat.index[("w", side, k, m)] for m in mesh.J_t]
            w_nodes[rows] = delta_z_weight(mesh, k, side,
                                           (lo + ms * mesh.lam / 2.0)[:, None] + z)
    w_mid = 0.5 * (w_nodes[:, :-1] + w_nodes[:, 1:])
    w_mid.setflags(write=False)
    return EnergyWeights(mesh=mesh, p=p, w_mid=w_mid)


@dataclass(frozen=True)
class QuadraticProgram:
    """Discretized functional over x = (y samples in sample-major order,
    then the per-segment terminal constants gamma), in its cell form: with
    h the sample step and d_q = y_{q+1} - y_q,

        obj(x) = sum_q h^-2 d_q^T K_{c(q)} d_q + 2 h^-1 l_q^T d_q + c0,

    where K_c = ``kernels[c]``, c(q) = ``cell_class[q]`` and
    l_q = ``lin_cells[:, q]``; gamma does not enter.  The equality
    constraints B1 y_{p-1} - B0 y_0 - B_gamma gamma = d are the essential
    boundary rows the program was assembled with."""

    mesh: MeshConfig
    p: int
    n_free: int
    n_gamma: int
    c0: float
    d: np.ndarray = field(repr=False)
    kernels: np.ndarray = field(repr=False)      # (classes, n_free, n_free)
    cell_class: np.ndarray = field(repr=False)   # (p - 1,) kernel index per cell
    lin_cells: np.ndarray = field(repr=False)    # (n_free, p - 1)

    @property
    def n_x(self) -> int:
        return self.n_free * self.p + self.n_gamma

    @property
    def h(self) -> float:
        return self.mesh.lam / (self.p - 1)

    def objective(self, x: np.ndarray) -> float:
        diffs = np.diff(x[:self.n_free * self.p].reshape(self.p, self.n_free), axis=0)
        quad = 0.0
        for c, kernel in enumerate(self.kernels):
            dc = diffs[self.cell_class == c]
            quad += float(np.sum((dc @ kernel) * dc))
        lin = float(np.sum(self.lin_cells.T * diffs))
        return quad / (self.h * self.h) + 2.0 * lin / self.h + self.c0


def _class_kernels(a_w: np.ndarray, w_cols: np.ndarray) -> np.ndarray:
    """The kernels A_w^T diag(w_cols[:, c]) A_w, one per column c, from the
    nonzero (e, i, j) triples of A_w alone: term (a_ei * w_ec) * a_ej is
    added to entry (c, i, j) in e order by ``np.add.at``, which keeps index
    order.  These are the products and the order of addition of the dense
    ``np.einsum("ei,ep,ej->pij", a_w, w_cols, a_w)``; the zero terms it
    adds as well leave every sum as it is, so the kernels are its bits.
    A row of A_w holds few nonzeros (7 at N = M = 12, 9 at N = M = 16)."""
    rows, cols = np.nonzero(a_w)                       # row-major: e ascending
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
    row_cols = np.full((len(a_w), slot.max(initial=0) + 1), -1)
    row_cols[rows, slot] = cols                        # each row's nonzero columns
    e, i, j = np.broadcast_arrays(np.arange(len(a_w))[:, None, None],
                                  row_cols[:, :, None], row_cols[:, None, :])
    pair = (i >= 0) & (j >= 0)
    e, i, j = e[pair], i[pair], j[pair]                # in e order
    n = a_w.shape[1]
    kernels = np.zeros((w_cols.shape[1], n, n))
    for kernel, w in zip(kernels, w_cols.T):
        np.add.at(kernel, (i, j), (a_w[e, i] * w[e]) * a_w[e, j])
    return kernels


def assemble_qp(par: Parametrization, bc: EssentialBC,
                weights: EnergyWeights, p: int) -> QuadraticProgram:
    """Quadratic program in the sampled free functions and c1.

    The objective is (1/T) * sum over wave entries of the midpoint-rule
    quadrature of weight * (A_e y' + g_e')^2, with derivatives taken as
    forward differences onto cell midpoints.  The midpoint form is second
    order like the nodal stencils but strictly convex in the derivative
    seminorm: a central-difference form would be blind to grid-scale
    sawtooth modes and the KKT solution would carry them as noise.  c1 is
    constant in z and drops out of the objective, entering through the
    constraints only.

    The kernel A_w^T diag(w_q) A_w of cell q depends only on the cell's
    weight column (midpoint weight times h / T) restricted to the rows
    where A_w is nonzero, and a mesh has one to three distinct such
    columns, so one kernel is formed per distinct column.  The linear term
    ``lin_cells``, the constant c0 and the constraint data d come from the
    state ``par`` is bound to.
    """
    mesh, cat = par.mesh, par.catalog
    if p != par.bound_state.grid_p(mesh):
        raise AssemblyError(f"QP grid p={p} does not match the state grid")
    if weights.p != p:
        raise AssemblyError("weight grid does not match the QP grid")
    n_w = cat.N_w
    h = mesh.lam / (p - 1)

    a_w = par.A[:n_w]                      # wave rows of A
    g_w = par.g_matrix(p)[:n_w]
    g_d = np.diff(g_w, axis=1) / h         # midpoint derivatives, (N_w, p-1)
    w_cells = weights.w_mid * (h / mesh.T)

    # one kernel per distinct weight column over the rows A_w touches
    touched = np.any(a_w != 0.0, axis=1)
    _, first, cell_class = np.unique(w_cells[touched].T, axis=0,
                                     return_index=True, return_inverse=True)
    kernels = _class_kernels(a_w, w_cells[:, first])
    lin_cells = a_w.T @ (w_cells * g_d)    # (n_s, p-1)
    c0 = float(np.sum(w_cells * g_d * g_d))

    return QuadraticProgram(mesh=mesh, p=p, n_free=par.n_free, n_gamma=par.n_gamma,
                            c0=c0, d=bc.b0.copy() if bc.n_rows else np.zeros(0),
                            kernels=kernels, cell_class=cell_class.reshape(-1),
                            lin_cells=lin_cells)


def evaluate_objective(par: Parametrization, weights: EnergyWeights,
                       y: np.ndarray) -> float:
    """Weighted mean-energy value of a sampled free vector (any solver).

    Uses the same midpoint quadrature as :func:`assemble_qp`, so that the
    QP minimizer is guaranteed not to exceed any other feasible solution
    under this evaluator; it is the single evaluator used when comparing
    solutions from different paths.
    """
    mesh, cat = par.mesh, par.catalog
    p = y.shape[1]
    if weights.p != p:
        raise InvalidArgumentError("weight grid does not match y samples")
    n_w = cat.N_w
    h = mesh.lam / (p - 1)
    wd = np.diff(par.A[:n_w] @ y + par.g_matrix(p)[:n_w], axis=1) / h
    return float(np.sum(weights.w_mid * wd * wd) * h / mesh.T)


def blockwise_simpson_weights(n: int, h: float, splits) -> np.ndarray:
    """Weights of composite Simpson split at the given interior sample indices.

    Each smooth block is integrated separately, so jump discontinuities
    located exactly at split samples cost no accuracy when the stored
    sample value is the jump midpoint (the one-sided panel errors of the
    two adjacent blocks cancel).  Blocks with an odd interval count lose
    one Simpson panel to a trapezoid step, taken at the block start.
    """
    bounds = [0] + sorted({int(s) for s in splits if 0 < s < n - 1}) + [n - 1]
    w = np.zeros(n)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if (b - a) % 2 == 1:
            w[a:a + 2] += 0.5 * h
            a += 1
        if b > a:
            w[a:b + 1] += simpson_weights(b - a + 1, h)
    return w


def blockwise_simpson(values: np.ndarray, h: float, splits) -> float:
    """Composite Simpson integral split at the given interior sample indices
    (see :func:`blockwise_simpson_weights`)."""
    return float(blockwise_simpson_weights(len(values), h, splits) @ values)


def mean_energy(field_grid) -> float:
    """Mean mechanical energy from reconstructed fields on the (t, x) grid.

    Uses the on-solution identities v_t = p/rho and v_x = (s - f)/kappa
    (dimensionless: rho = kappa = 1), integrating (v_t^2 + v_x^2)/2 in two
    passes of blockwise Simpson: rows are split at their characteristic
    kink samples (and at interfaces, via per-segment windows), the
    resulting time profile at the instants where kink lines meet the mesh
    lines.  The density is the sector-averaged ``e_quad`` whose lattice
    samples carry jump midpoints, so the blockwise panels cancel the
    one-sided errors.

    A row's weights depend only on its kink pattern; the grid's kink plan
    holds them as one (nt, 2*qx + 1) matrix per distinct window pattern,
    so each segment is integrated row-wise in one product.
    """
    fg = field_grid
    ht = fg.t[1] - fg.t[0]
    nt = len(fg.t)
    profile = np.zeros(nt)
    for window, vals in zip(fg.kink_plan, fg.e_quad_segments):
        profile += np.einsum("ij,ij->i", vals, window.row_weights)
    t_splits = np.arange(fg.qt, nt - 1, fg.qt)
    return blockwise_simpson(profile, ht, t_splits) / fg.mesh.T
