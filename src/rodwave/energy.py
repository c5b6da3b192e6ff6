"""Mean-energy functional over the free functions.

On a valid solution the energy density reduces to
``(v_t^2 + v_x^2)/2 = (w_plus')^2 + (w_minus')^2`` per segment, so the
mean energy is a weighted integral of squared wave derivatives over the
reference interval: each wave piece carries the cross-characteristic
thickness of its strip as weight, a trapezoid over the wave domain that
is exactly lambda on all interior layers and a linear ramp on the
first/last layers.  Control-jump entries carry zero weight.

Since the first/last layer pieces are resolved purely from data, the
y-dependent part of the functional sees the constant weight lambda only;
the ramp layers contribute a data constant that is kept so that the
reported optimum equals the true mean energy.

The discretized program (:class:`QuadraticProgram`) is kept in its cell
form only: one kernel for the whole mesh and a linear term per cell.  Its
Hessian in the samples is never assembled; the KKT solve and its residual
proof in :mod:`rodwave.solver` work on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AssemblyError, InvalidArgumentError
from .mesh import MeshConfig
from .edge import EssentialBC, Parametrization


@dataclass(frozen=True)
class EnergyWeights:
    """Diagonal weight of the stacked quadratic form: ``w_mid`` holds the
    wave entries' weights at the cell midpoints, in catalog order, as the
    midpoint-rule quadrature reads them; control entries weigh zero and
    have no row."""

    mesh: MeshConfig
    p: int
    w_mid: np.ndarray = field(repr=False, compare=False)  # (N_w, p - 1), read-only
    z: np.ndarray = field(repr=False, compare=False)      # linspace(0, lam, p), read-only


def build_weights(mesh: MeshConfig, p: int = 129) -> EnergyWeights:
    """Per-piece restriction of the strip-thickness trapezoid.

    Piece (side, k, m) occupies offsets [m*lam/2, m*lam/2 + lam] of the
    wave domain, so with z = ``linspace(0, lam, p)`` its weight is z on
    the first layer, lam - z on the last, and exactly lam in between.
    The three pieces are written straight from z, not from the rounded
    domain offsets, so every interior midpoint weight is lam itself.  The
    wave entries are laid out (segment, layer, side) in catalog order, so
    the first and last layers are two slices of that layout.
    """
    z = np.linspace(0.0, mesh.lam, p)
    w_nodes = np.full((mesh.N, mesh.M + 1, 2, p), mesh.lam)
    w_nodes[:, 0] = z
    w_nodes[:, -1] = mesh.lam - z
    w_nodes = w_nodes.reshape(-1, p)
    w_mid = 0.5 * (w_nodes[:, :-1] + w_nodes[:, 1:])
    w_mid.setflags(write=False)
    z.setflags(write=False)
    return EnergyWeights(mesh=mesh, p=p, w_mid=w_mid, z=z)


@dataclass(frozen=True)
class QuadraticProgram:
    """Discretized functional over x = (y samples in sample-major order,
    then the per-segment terminal constants gamma), in its cell form: with
    h the sample step and d_q = y_{q+1} - y_q,

        obj(x) = sum_q h^-2 d_q^T K d_q + 2 h^-1 l_q^T d_q + c0,

    where K = ``kernel`` is the same for every cell and l_q =
    ``lin_cells[:, q]``; gamma does not enter.  The equality constraints
    B1 y_{p-1} - B0 y_0 - B_gamma gamma = d are the essential boundary
    rows the program was assembled with."""

    mesh: MeshConfig
    p: int
    n_free: int
    n_gamma: int
    c0: float
    d: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)       # (n_free, n_free)
    lin_cells: np.ndarray = field(repr=False)    # (n_free, p - 1)

    @property
    def n_x(self) -> int:
        return self.n_free * self.p + self.n_gamma

    @property
    def h(self) -> float:
        return self.mesh.lam / (self.p - 1)

    def objective(self, x: np.ndarray) -> float:
        diffs = np.diff(x[:self.n_free * self.p].reshape(self.p, self.n_free), axis=0)
        quad = float(np.sum((diffs @ self.kernel) * diffs))
        lin = float(np.sum(self.lin_cells.T * diffs))
        return quad / (self.h * self.h) + 2.0 * lin / self.h + self.c0


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

    Every row A_w touches must carry one and the same cell weight c
    (midpoint weight times h / T), read from ``weights``; another weight
    raises :class:`AssemblyError`.  The first/last layer pieces are
    resolved from data and their A rows are zero, so with the exact
    interior weight lambda this holds by construction.  The kernel is
    K = c (A_w^T A_w), with A_w^T A_w the exact ``par.ata`` of the mesh,
    so K is one correctly rounded product.  The linear term
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

    touched = w_cells[np.any(a_w != 0.0, axis=1)]
    c = touched.flat[0] if touched.size else 0.0
    if np.any(touched != c):
        raise AssemblyError("the rows A touches do not share one cell weight")
    lin_cells = a_w.T @ (w_cells * g_d)    # (n_s, p-1)
    c0 = float(np.sum(w_cells * g_d * g_d))

    return QuadraticProgram(mesh=mesh, p=p, n_free=par.n_free, n_gamma=par.n_gamma,
                            c0=c0, d=bc.b0.copy(),
                            kernel=c * par.ata, lin_cells=lin_cells)


def evaluate_objective(par: Parametrization, weights: EnergyWeights,
                       y: np.ndarray, ay: Optional[np.ndarray] = None) -> float:
    """Weighted mean-energy value of a sampled free vector (any solver).

    Uses the same midpoint quadrature as :func:`assemble_qp`, so that the
    QP minimizer is guaranteed not to exceed any other feasible solution
    under this evaluator; it is the single evaluator used when comparing
    solutions from different paths.  It reads the wave rows of A y + g,
    with ``ay`` the product A y where the caller has formed it.
    """
    mesh, cat = par.mesh, par.catalog
    p = y.shape[1]
    if weights.p != p:
        raise InvalidArgumentError("weight grid does not match y samples")
    n_w = cat.N_w
    h = mesh.lam / (p - 1)
    a_y = par.A[:n_w] @ y if ay is None else ay[:n_w]
    wd = np.diff(a_y + par.g_matrix(p)[:n_w], axis=1)
    wd /= h
    density = weights.w_mid * wd
    density *= wd
    return float(np.sum(density) * h / mesh.T)


def blockwise_simpson_weights(n: int, h: float, splits) -> np.ndarray:
    """Weights of composite Simpson split at the given interior sample indices.

    Each smooth block is integrated separately, so jump discontinuities
    located exactly at split samples cost no accuracy when the stored
    sample value is the jump midpoint (the one-sided panel errors of the
    two adjacent blocks cancel).  Blocks with an odd interval count lose
    one Simpson panel to a trapezoid step, taken at the block start.
    """
    mask = np.zeros((1, n), bool)
    mask[0, [int(s) for s in splits if 0 < s < n - 1]] = True
    return blockwise_simpson_rows(mask, h)[0]


def blockwise_simpson_rows(splits: np.ndarray, h: float) -> np.ndarray:
    """:func:`blockwise_simpson_weights` of every row of ``splits``, an
    (R, n) boolean array, True at each row's split samples (its first and
    last samples end a block anyway), in a fixed number of array
    operations.

    A sample inside a block [a, b] takes the Simpson weight of its place
    t in the Simpson part, which starts at a + 1 in a block of odd length
    (after the trapezoid step) and at a otherwise: 4h/3 at odd t, 2h/3 at
    even t, and h/2 + h/3 at a + 1 of an odd block.  A block end takes h/3
    or h/2 from the block it ends (h/2 when that block is one step) and
    from the block it starts (h/2 when that block is of odd length).  No
    sample takes more than two terms, whose sum does not depend on their
    order, so every weight has the bits of the block-by-block sum."""
    n = splits.shape[-1]
    k = np.arange(n)
    bound = splits.copy()
    bound[:, [0, -1]] = True
    # the last block end at or before each sample, and the first at or after
    prev = np.maximum.accumulate(np.where(bound, k, 0), axis=1)
    nxt = np.minimum.accumulate(np.where(bound, k, n - 1)[:, ::-1], axis=1)[:, ::-1]
    half, third = 0.5 * h, h / 3.0
    odd = (nxt - prev) % 2 == 1
    t = k - prev - odd
    inner = np.where(t % 2 == 1, 4.0, 2.0) * third
    inner[odd & (t == 0)] = half + third
    ends = np.zeros(bound.shape)
    ends[:, 1:] = np.where(k[1:] - prev[:, :-1] == 1, half, third)
    ends[:, :-1] += np.where((nxt[:, 1:] - k[:-1]) % 2 == 1, half, third)
    return np.where(bound, ends, inner)


def mean_energy(field_grid) -> float:
    """Mean mechanical energy from reconstructed fields on the (t, x) grid.

    Uses the on-solution identities v_t = p and v_x = s - f of the
    dimensionless rod, integrating (v_t^2 + v_x^2)/2 in two passes of
    blockwise Simpson: rows are split at their characteristic kink samples
    (and at interfaces, via per-segment windows), the resulting time
    profile at the instants where kink lines meet the mesh lines.  The
    density is sector-averaged: on the characteristic lattice each squared
    wave derivative is the mean of its late and early line, so lattice
    samples carry jump midpoints.  That does not cancel every one-sided
    error: for N >= 3 the gap between E_grid and the objective falls at
    most at first order in the field step 1/q (relative 3.3e-4, 1.9e-4
    and 1.1e-4 at q = 8, 32 and 64 on the paper example at N = M = 6,
    P = 129), and for N <= 2 not at all at fixed P.  ROADMAP item 4 is
    finding and mending that term.

    The integrand is separable.  With v_t = w+' + w-' and
    v_x = w+' - w-', the density is (w+')^2 + (w-')^2, and its sector
    average at sample (i, j) of a segment window is
    ((w+'_late)^2 + (w+'_early)^2)/2 at line sample (i + j)*s plus the
    same of w-' at (P - 1) + (i - j)*s, s wave samples a grid step
    (``FieldGrid.s``).  So the quadrature is a dot product of the squared
    derivative lines with per-line weights d+ and d-, the quadrature
    weights of the samples that read each line sample:
    ``window_kinks(fg).energy_weights``, built once per mesh and field
    step (:func:`rodwave.reconstruct.window_kinks`).  E is
    (1/2T) * sum over segments of
    ((w+'_late)^2 + (w+'_early)^2) . d+ + ((w-'_late)^2 + (w-'_early)^2) . d-.
    """
    from .reconstruct import _DWP, window_kinks     # reconstruct imports this module

    fg = field_grid
    # (late, early) x (w+', w-') x segment x line sample
    slopes = fg.lines[_DWP:].reshape((2, 2) + fg.lines.shape[1:])
    total = np.einsum("epsk,epsk,pk->", slopes, slopes, window_kinks(fg).energy_weights)
    return 0.5 * float(total) / fg.mesh.T
