"""Physical reconstruction: waves, controls, fields, and residuals.

The solved parametrization yields every wave and jump piece on
``[0, lambda]``.  This module concatenates them into traveling waves and
control histories, resolves the zero-sum chain for the individual control
integrals and forces, evaluates the displacement/potential/momentum/force
fields on a mesh-aligned rectangular grid, and computes the diagnostic
residuals (constitutive residual Q, terminal errors).

Grid alignment.  Field grids place samples so that interfaces, layer
instants, and the characteristic lattice all fall exactly on sample
points; wave and control pieces are then indexed exactly (no
interpolation).  Each wave is read once per segment as a strided view of
its assembled line: the plus wave at grid sample (i, j) is line sample
``i*st + j*sx + c``, the minus wave ``i*st - j*sx + c'``.  At a junction
of two pieces the "late" line holds the following piece (the upwind,
right limit) and the "early" line the preceding one; the domain ends
belong to the existing piece either way.  A view whose first or last
sample would fall outside its line is a ``ReconstructionError``, so no
view reads past its buffer.

Characteristic kinks thus sit on known sample diagonals and all finite
differencing is done blockwise between kinks, one-sided at the kink
samples themselves (right limit, except at domain ends).  A window shift
of 2*qx columns moves the lattice residue by a whole period, so every
segment window normally has one kink pattern; its stencil sets, the
samples Q leaves out and the quadrature weights (``FieldGrid.kink_plan``)
are shared by :func:`residual_Q` and :func:`rodwave.energy.mean_energy`.
The plan depends only on (N, M, qt, qx), so a caller that solves many
states on one mesh builds it once and hands it to :func:`fields`; a grid
given none builds its own on first use.  The energy density ``e`` is not
stored: only the fields CSV reads it, and it follows from p, s and the
force.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgumentError, ReconstructionError
from .mesh import MeshConfig, RodParams
from .sampled import SampledFunction, fd_derivative, simpson_weights
from .energy import blockwise_simpson_weights
from .edge import Parametrization, StateSpec, jump_key, wave_key

CONTINUITY_ERROR = 1e-6


# ---------------------------------------------------------------------------
# Traveling-wave table
# ---------------------------------------------------------------------------


def _late_line(pieces: np.ndarray) -> np.ndarray:
    """Concatenate (n_pieces, p) pieces into one line; the later piece
    supplies each junction sample and the last piece the end sample."""
    n, p = pieces.shape
    line = np.empty(n * (p - 1) + 1)
    line[:-1].reshape(n, p - 1)[...] = pieces[:, :-1]
    line[-1] = pieces[-1, -1]
    return line


def _early_line(pieces: np.ndarray) -> np.ndarray:
    """Concatenate (n_pieces, p) pieces into one line; the earlier piece
    supplies each junction sample and the first piece sample 0."""
    n, p = pieces.shape
    line = np.empty(n * (p - 1) + 1)
    line[0] = pieces[0, 0]
    line[1:].reshape(n, p - 1)[...] = pieces[:, 1:]
    return line


@dataclass(frozen=True)
class WaveTable:
    """Per-piece samples of every traveling wave, plus concatenations."""

    mesh: MeshConfig
    p: int
    pieces: Dict[Tuple[int, int], np.ndarray] = field(repr=False)   # (side,k) -> (M+1, p)
    dpieces: Dict[Tuple[int, int], np.ndarray] = field(repr=False)  # per-piece derivative
    continuity_max: float = 0.0

    def assembled(self, side: int, k: int) -> SampledFunction:
        """Full-domain wave on [z_side_k, T - z_otherside_k]."""
        lo, hi = self.mesh.wave_domain(k, side)
        return SampledFunction(lo, hi, _late_line(self.pieces[(side, k)]))


def waves_from_solution(par: Parametrization, entries: np.ndarray) -> WaveTable:
    """Stitch the wave pieces of a solution from the sampled values of
    every catalog entry, ``entries`` = ``par.entry_values(sol.y, sol.gamma)``.

    Adjacent pieces must agree at their junction to ``CONTINUITY_ERROR``
    relative to the largest piece sample, ``1e-6 * (1 + max|piece|)``, so
    the check holds at any data scale; ``continuity_max`` stays absolute.
    """
    mesh, cat = par.mesh, par.catalog
    p = entries.shape[1]
    h = mesh.lam / (p - 1)
    pieces, dpieces = {}, {}
    cont = 0.0
    scale = 0.0
    for k in mesh.J_s:
        for side in (+1, -1):
            arr = np.stack([entries[cat.index[wave_key(side, k, m)]]
                            for m in mesh.J_t])
            jump = np.max(np.abs(arr[:-1, -1] - arr[1:, 0])) if len(arr) > 1 else 0.0
            cont = max(cont, float(jump))
            scale = max(scale, float(np.max(np.abs(arr))))
            pieces[(side, k)] = arr
            dpieces[(side, k)] = fd_derivative(arr, h)
    if not cont <= CONTINUITY_ERROR * (1.0 + scale):
        raise ReconstructionError(
            f"traveling-wave pieces disagree at junctions by {cont:.3e} "
            f"(tolerance {CONTINUITY_ERROR:g} * (1 + {scale:.3e})); "
            f"the solver output violates vertex continuity")
    return WaveTable(mesh=mesh, p=p, pieces=pieces, dpieces=dpieces,
                     continuity_max=cont)


def jump_pieces_from_solution(par: Parametrization,
                              entries: np.ndarray) -> Dict[int, np.ndarray]:
    """Per-piece samples of the control-integral jumps u_n, n in J_x, from
    the sampled values of every catalog entry (see
    :func:`waves_from_solution`)."""
    mesh, cat = par.mesh, par.catalog
    return {n: np.stack([entries[cat.index[jump_key(n, m)]]
                         for m in mesh.J_t[:-1]])
            for n in mesh.J_x}


# ---------------------------------------------------------------------------
# Control recovery
# ---------------------------------------------------------------------------


def resolve_zero_sum_chain(jumps: np.ndarray) -> np.ndarray:
    """Solve u_{n+1} - u_{n-1} = jump_n (consecutive chain) with zero sum.

    ``jumps`` has the N+1 jump values along axis 0 (any trailing shape);
    returns the N+2 resolved values along axis 0.
    """
    n_j = jumps.shape[0]
    partial = np.zeros((n_j + 1,) + jumps.shape[1:])
    np.cumsum(jumps, axis=0, out=partial[1:])
    return partial - partial.mean(axis=0, keepdims=True)


@dataclass(frozen=True)
class ControlSet:
    """Jump, integral, and force histories on the piecewise time grid.

    Pieces are indexed by layer pairs: piece j covers
    ``t in [j*lam, (j+1)*lam]`` with p samples; forces are derivatives per
    piece, discontinuous at the junctions (stored one-sided per piece).
    """

    mesh: MeshConfig
    p: int
    jumps: Dict[int, np.ndarray] = field(repr=False)      # n in J_x -> (M, p)
    integrals: Dict[int, np.ndarray] = field(repr=False)  # k in J_c -> (M, p)
    forces: Dict[int, np.ndarray] = field(repr=False)     # k in J_c -> (M, p)

    @property
    def n_pieces(self) -> int:
        return self.mesh.M

    def piece_times(self, j: int) -> np.ndarray:
        return j * self.mesh.lam + np.linspace(0.0, self.mesh.lam, self.p)

    def integral_at(self, k: int, t):
        """Control integral u_k at time(s) t (continuous; linear interp)."""
        t = np.asarray(t, dtype=float)
        lam = self.mesh.lam
        piece = np.clip(np.floor(t / lam).astype(int), 0, self.mesh.M - 1)
        local = (t - piece * lam) / lam * (self.p - 1)
        i0 = np.clip(np.floor(local).astype(int), 0, self.p - 2)
        frac = np.clip(local - i0, 0.0, 1.0)
        arr = self.integrals[k]
        vals = arr[piece, i0] * (1 - frac) + arr[piece, i0 + 1] * frac
        return vals if vals.ndim else float(vals)

    def force_average(self, k: int, t0, t1):
        """Exact mean of f_k over [t0, t1], via the stored integrals."""
        t0 = np.asarray(t0, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        return (self.integral_at(k, t1) - self.integral_at(k, t0)) / (t1 - t0)

    # -- invariant helpers (used by tests and run summaries) -----------

    def zero_start_max(self) -> float:
        return max(abs(float(self.integrals[k][0, 0])) for k in self.mesh.J_c)

    def zero_sum_max(self) -> float:
        total = sum(self.forces[k] for k in self.mesh.J_c)
        return float(np.max(np.abs(total)))

    def jump_identity_max(self) -> float:
        worst = 0.0
        for n in self.mesh.J_x:
            fj = self.forces[n + 1] - self.forces[n - 1]
            dj = fd_derivative(self.jumps[n], self.mesh.lam / (self.p - 1))
            worst = max(worst, float(np.max(np.abs(fj - dj))))
        return worst


def controls_from_jumps(mesh: MeshConfig, jump_pieces: Dict[int, np.ndarray]) -> ControlSet:
    """Recover all N+2 control integrals and forces from the N+1 jumps.

    At every time sample the chain system {u_{n+1} - u_{n-1} = jump_n,
    sum over controls = 0} is square and nonsingular; forces follow by
    per-piece differentiation (never across a junction).
    """
    if set(jump_pieces) != set(mesh.J_x):
        raise InvalidArgumentError("need exactly one jump history per interface")
    stacked = np.stack([jump_pieces[n] for n in mesh.J_x])     # (N+1, M, p)
    resolved = resolve_zero_sum_chain(stacked)                 # (N+2, M, p)
    p = stacked.shape[-1]
    h = mesh.lam / (p - 1)
    integrals = {k: resolved[i] for i, k in enumerate(mesh.J_c)}
    forces = {k: fd_derivative(integrals[k], h) for k in mesh.J_c}
    return ControlSet(mesh=mesh, p=p, jumps=dict(jump_pieces),
                      integrals=integrals, forces=forces)


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


def grid_steps(p: int, qt: Optional[int] = None,
               qx: Optional[int] = None) -> Tuple[int, int]:
    """The (qt, qx) of a field grid on pieces of p samples: one given
    step serves both directions, and with neither given both are the
    largest even divisor of (p - 1)/2 up to 32, so every characteristic
    kink lies on a sample.  A step that does not divide the piece grid
    raises :class:`InvalidArgumentError`."""
    if qt is None and qx is None:
        qt = qx = _pick_q(p, 32)
    elif qt is None:
        qt = qx
    elif qx is None:
        qx = qt
    for q, name in ((qt, "qt"), (qx, "qx")):
        if (p - 1) % (2 * q) != 0:
            raise InvalidArgumentError(f"{name}={q} does not divide the piece grid")
    return qt, qx


def _energy_density(p: np.ndarray, s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """0.5 * ((s - f)**2 + p**2), elementwise, in a new array."""
    e = np.subtract(s, f)
    np.square(e, out=e)
    e += np.square(p)
    e *= 0.5
    return e


def _pick_q(p: int, target: int) -> int:
    """Largest even divisor of (p-1)//2 that does not exceed target."""
    half = (p - 1) // 2
    best = None
    for q in range(2, half + 1, 2):
        if half % q == 0 and q <= target:
            best = q
    if best is None:
        raise InvalidArgumentError(
            f"cannot align a field grid with p={p}; no even divisor")
    return best


@dataclass(frozen=True)
class FieldGrid:
    """Rectangular (t, x) samples of all reconstructed fields.

    v displacement, r dynamic potential, p momentum density, s internal
    force, and (computed on each access) e energy density.  ``qt``/``qx``
    are samples per half-layer in each direction; interfaces sit at ``x``
    indices that are multiples of ``2*qx``.

    Every wave value is read from a strided view of the wave's assembled
    line (see the module docstring).  Derivative quantities are stored as
    the upwind trace: the late line, i.e. the later piece at kink samples
    and the earlier one at the domain ends.  Quantities that jump at
    interfaces are kept per segment: ``e_quad_segments`` holds the energy
    density with sector-averaged values on the characteristic lattice
    (the mean over the late and early lines of both wave families, so
    jump midpoints; blockwise quadrature keeps its cancellation), and
    ``f_seg`` the applied force, one history per segment (it is constant
    in x within a segment); ``e`` carries the right-segment trace at
    interface columns, as p and s do.

    ``kink_plan`` is the plan given as ``plan`` (built for the same N, M,
    qt and qx), else one built on first use and kept with the grid; the
    segment windows share it.
    """

    mesh: MeshConfig
    qt: int
    qx: int
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    r: np.ndarray
    p: np.ndarray
    s: np.ndarray
    e_quad_segments: tuple       # per segment (nt, 2*qx+1); e jumps at interfaces
    f_seg: np.ndarray            # (N, nt) applied force history per segment
    interface_jump_v: float
    interface_jump_r: float
    plan: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def e(self) -> np.ndarray:
        """Energy density 0.5 * ((s - f)**2 + p**2) on the whole grid, with
        each column's force taken from the segment whose trace p and s
        hold there; a new array on every access."""
        return _energy_density(self.p, self.s, self.f_seg[self.column_segments()].T)

    def column_segments(self) -> np.ndarray:
        """Per x column, the segment whose traces the column holds: the
        right one at an interface."""
        return np.minimum(np.arange(len(self.x)) // (2 * self.qx), self.mesh.N - 1)

    def segment_windows(self):
        """Column windows [j0, j1] of each segment (interfaces repeated)."""
        return [(i * 2 * self.qx, (i + 1) * 2 * self.qx)
                for i in range(self.mesh.N)]

    def kink_masks(self):
        """Boolean masks of the two characteristic-lattice families."""
        # t + x and t - x in units of the grid; lattice step = lam/2.  A
        # sample is on a line when the t and x residues cancel modulo it.
        step = self.qt * self.qx
        t_res = (np.arange(len(self.t)) * self.qx % step)[:, None]
        x_res = ((np.arange(len(self.x)) - self.mesh.N * self.qx) * self.qt % step)[None, :]
        return t_res == (-x_res) % step, t_res == x_res

    @cached_property
    def kink_plan(self) -> tuple:
        """Per segment window, its :class:`WindowKinks`."""
        return self.plan if self.plan is not None else build_kink_plan(self)


def _line_view(line: np.ndarray, start: int, step_t: int, step_x: int,
               shape: Tuple[int, int]) -> np.ndarray:
    """Read-only view ``out[i, j] = line[start + i*step_t + j*step_x]``.

    ``as_strided`` does no bounds checking, so the extreme samples are
    checked against the line first."""
    nt, nx = shape
    ends = (start, start + (nt - 1) * step_t)
    ends += tuple(e + (nx - 1) * step_x for e in ends)
    if min(ends) < 0 or max(ends) >= len(line):
        raise ReconstructionError(
            f"field grid reads wave samples {min(ends)}..{max(ends)} "
            f"outside a line of {len(line)}")
    item = line.itemsize
    return as_strided(line[start:], shape=shape,
                      strides=(step_t * item, step_x * item), writeable=False)


def fields(waves: WaveTable, controls: ControlSet, mesh: MeshConfig,
           qt: Optional[int] = None, qx: Optional[int] = None,
           kink_plan: Optional[tuple] = None) -> FieldGrid:
    """Evaluate v, r, p, s on an aligned rectangular grid (steps as in
    :func:`grid_steps`).  ``kink_plan``, if given, must be the plan of a
    grid with the same N, M, qt and qx; the grid keeps it."""
    p = waves.p
    qt, qx = grid_steps(p, qt, qx)
    st = (p - 1) // (2 * qt)      # wave samples per t-grid step
    sx = (p - 1) // (2 * qx)      # wave samples per x-grid step
    nt, nx = 2 * mesh.M * qt + 1, 2 * mesh.N * qx + 1
    tgrid = np.linspace(0.0, mesh.T, nt)
    xgrid = np.linspace(-1.0, 1.0, nx)
    shape = (nt, 2 * qx + 1)
    # Three blocks (fields, per-segment energy, window scratch) rather than
    # ~20 arrays: fresh memory costs page faults on every state.  Every
    # column lies in a segment window, so every sample is written.
    v, r, pm, s = np.empty((4, nt, nx))
    e_quad = np.empty((mesh.N,) + shape)
    wp, wm, dwp, dwm, term = np.empty((5,) + shape)
    jump_v = 0.0
    jump_r = 0.0
    half_units = (p - 1) // 2                   # lam/2 in wave sample units

    # control integrals / forces on the time grid, per segment control
    u_time = {k: _late_line(controls.integrals[k])[::st] for k in mesh.J_c}
    f_time = {k: _late_line(controls.forces[k])[::st] for k in mesh.J_c}
    f_seg = np.stack([f_time[k] for k in mesh.J_s])

    for seg, k in enumerate(mesh.J_s):
        j0, j1 = seg * 2 * qx, (seg + 1) * 2 * qx
        cols = slice(j0, j1 + 1)
        x0 = (j0 - mesh.N * qx) * sx              # window start in wave units
        plus0 = x0 - (k - 1) * half_units
        minus0 = -x0 + (k + 1) * half_units
        dplus, dminus = waves.dpieces[(+1, k)], waves.dpieces[(-1, k)]
        # contiguous copies of the views that are read more than once
        np.copyto(wp, _line_view(_late_line(waves.pieces[(+1, k)]), plus0, st, sx, shape))
        np.copyto(wm, _line_view(_late_line(waves.pieces[(-1, k)]), minus0, st, -sx, shape))
        np.copyto(dwp, _line_view(_late_line(dplus), plus0, st, sx, shape))
        np.copyto(dwm, _line_view(_late_line(dminus), minus0, st, -sx, shape))
        u_k = u_time[k][:, None]
        f_k = f_time[k][:, None]

        if seg > 0:
            # column j0 still holds the left segment's trace
            jump_v = max(jump_v, float(np.max(np.abs(
                v[:, j0] - (wp[:, 0] + wm[:, 0])))))
            jump_r = max(jump_r, float(np.max(np.abs(
                r[:, j0] - (wp[:, 0] - wm[:, 0] + u_time[k])))))
        np.add(wp, wm, out=v[:, cols])
        np.subtract(wp, wm, out=term)
        term += u_k
        r[:, cols] = term
        np.add(dwp, dwm, out=pm[:, cols])
        np.subtract(dwp, dwm, out=term)
        term += f_k
        s[:, cols] = term

        # sector-averaged energy density: both junction resolutions of
        # each wave family, so kink samples carry the jump midpoint;
        # summed as ((a + b) + (a + be)) + (ae + b) + (ae + be)
        a, b = np.square(dwp, out=dwp), np.square(dwm, out=dwm)
        ae = np.square(_line_view(_early_line(dplus), plus0, st, sx, shape), out=wp)
        be = np.square(_line_view(_early_line(dminus), minus0, st, -sx, shape), out=wm)
        e_seg = np.add(a, b, out=e_quad[seg])
        e_seg += np.add(a, be, out=term)
        e_seg += np.add(ae, b, out=term)
        e_seg += np.add(ae, be, out=term)
        e_seg *= 0.25

    return FieldGrid(mesh=mesh, qt=qt, qx=qx, t=tgrid, x=xgrid,
                     v=v, r=r, p=pm, s=s,
                     e_quad_segments=tuple(e_quad), f_seg=f_seg,
                     interface_jump_v=jump_v, interface_jump_r=jump_r,
                     plan=kink_plan)


# ---------------------------------------------------------------------------
# Kink-aware finite differences
# ---------------------------------------------------------------------------


class _BlockStencils:
    """Where :func:`blockwise_derivative` uses which stencil, for one kink
    mask and axis; the stencil sets are flat indices into a C-ordered
    array of the mask's shape."""

    def __init__(self, kinks: np.ndarray, axis: int):
        self.axis = axis
        last = self._at(-1)
        # block bounds: sample 0, the interior kinks, the final sample
        bound = np.moveaxis(kinks, axis, -1).copy()
        bound[..., 0] = True
        bound[..., -1] = True
        start = bound[..., :-1]
        short = start & bound[..., 1:]          # block of one interval
        order = list(range(kinks.ndim - 1))
        order.insert(axis, kinks.ndim - 1)      # moved-axis coordinates back

        def flat(mask):
            coords = np.nonzero(mask)
            return np.ravel_multi_index(tuple(coords[i] for i in order), kinks.shape)

        step = int(np.prod(kinks.shape[axis + 1:]))   # one sample along axis
        self.fwd = flat(start & ~short)
        self.fwd1, self.fwd2 = self.fwd + step, self.fwd + 2 * step
        self.one = flat(short)
        self.one1 = self.one + step
        self.last_short = start[..., -1]
        self.valid = np.ones(kinks.shape, dtype=bool)
        self.valid.ravel()[self.one] = False
        self.valid[last] = ~self.last_short

    def _at(self, i) -> tuple:
        """Index of sample(s) ``i`` along the axis."""
        return (slice(None),) * self.axis + (i,)

    def derivative(self, v: np.ndarray, h: float,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """The blockwise derivative of ``v`` along the axis, written to
        ``out`` (C-ordered, the shape of ``v``) if given."""
        at = self._at
        deriv = np.empty(v.shape) if out is None else out
        flat_v, flat_d = v.ravel(), deriv.ravel()
        inner = np.subtract(v[at(slice(2, None))], v[at(slice(None, -2))],
                            out=deriv[at(slice(1, -1))])
        inner /= 2.0 * h
        flat_d[self.fwd] = (-3.0 * flat_v[self.fwd] + 4.0 * flat_v[self.fwd1]
                            - flat_v[self.fwd2]) / (2.0 * h)
        flat_d[self.one] = (flat_v[self.one1] - flat_v[self.one]) / h
        # final sample: backward stencil, or the short block's first-order value
        deriv[at(-1)] = np.where(
            self.last_short, (v[at(-1)] - v[at(-2)]) / h,
            (3.0 * v[at(-1)] - 4.0 * v[at(-2)] + v[at(-3)]) / (2.0 * h))
        return deriv


def blockwise_derivative(values: np.ndarray, h: float, kink_mask: np.ndarray,
                         axis: int = -1):
    """Differentiate along ``axis`` between kink samples.

    ``kink_mask`` (same shape as ``values``) marks samples where the
    derivative jumps; every 1D slice along ``axis`` is split into smooth
    blocks at its interior kinks.  Within each block the stencils are
    second order: central differences inside, the forward three-point
    formula at the block start (the right-sided limit at a kink), and the
    backward three-point formula at the final sample.  Blocks of fewer than
    three samples cannot support a second-order stencil: a first-order
    value is returned there and the accompanying mask marks it invalid.
    """
    v = np.ascontiguousarray(values, dtype=float)
    kinks = np.ascontiguousarray(kink_mask, dtype=bool)
    axis = axis % v.ndim
    if v.shape[axis] < 3:
        raise InvalidArgumentError("need at least 3 samples to differentiate")
    stencils = _BlockStencils(kinks, axis)
    return stencils.derivative(v, h), stencils.valid


class WindowKinks:
    """Stencil sets, dropped samples and quadrature weights of one
    window's kink mask."""

    def __init__(self, kinks: np.ndarray, hx: float):
        self.t_stencils = _BlockStencils(kinks, 0)
        self.x_stencils = _BlockStencils(kinks, 1)
        # samples left out of the Q quadrature
        self.drop = ~(self.t_stencils.valid & self.x_stencils.valid & ~kinks)
        self.wx = simpson_weights(kinks.shape[1], hx)
        # blockwise Simpson weights of each row, split at its kinks, built
        # once per distinct row pattern
        by_pattern: dict = {}
        rows = []
        for row in kinks:
            key = row.tobytes()
            if key not in by_pattern:
                by_pattern[key] = blockwise_simpson_weights(len(row), hx,
                                                            np.flatnonzero(row))
            rows.append(by_pattern[key])
        self.row_weights = np.stack(rows)


def build_kink_plan(fg) -> tuple:
    """The :class:`WindowKinks` of each segment window of a field grid.

    A shift of 2*qx columns moves the x residue by 2*qx*qt, a multiple of
    the lattice period qt*qx, so the windows normally share one kink
    pattern.  That is checked, not assumed: windows are keyed by their
    mask bytes, and each distinct pattern is planned once.
    """
    plus, minus = fg.kink_masks()
    kinks = plus | minus
    hx = fg.x[1] - fg.x[0]
    by_mask: dict = {}
    plan = []
    for j0, j1 in fg.segment_windows():
        mask = np.ascontiguousarray(kinks[:, j0:j1 + 1])
        key = (mask.shape, mask.tobytes())
        if key not in by_mask:
            by_mask[key] = WindowKinks(mask, hx)
        plan.append(by_mask[key])
    return tuple(plan)


def residual_Q(fg: FieldGrid, params: Optional[RodParams] = None) -> float:
    """Constitutive residual: Q = integral of g^2/(4 rho) + h^2/(4 kappa).

    The residual functions g = rho*v_t - p and h = kappa*v_x - s + f are
    formed from block-aware finite differences of the displacement array
    against the stored momentum/force arrays, segment by segment (the
    applied force is the segment's own history, never the neighbor's).
    Samples on the characteristic lattice itself are excluded from the
    quadrature: there the stored derivative traces are one-sided and the
    difference of one-sided limits is not a discretization error.  On
    exact solutions the retained integrand is O(h^4).  Every temporary is
    the size of one segment window; the stencil sets and the samples left
    out come from the grid's kink plan.
    """
    rho = params.rho if params is not None else 1.0
    kappa = params.kappa if params is not None else 1.0
    ht = fg.t[1] - fg.t[0]
    hx = fg.x[1] - fg.x[0]

    wt = simpson_weights(len(fg.t), ht)
    # window-sized work arrays, reused for every segment
    v_seg, g_sq, q = np.empty((3, len(fg.t), 2 * fg.qx + 1))
    total = 0.0
    for seg, ((j0, j1), window) in enumerate(zip(fg.segment_windows(), fg.kink_plan)):
        cols = slice(j0, j1 + 1)
        np.copyto(v_seg, fg.v[:, cols])
        # g**2 / (4 rho) into g_sq, h**2 / (4 kappa) into q, then their sum
        window.t_stencils.derivative(v_seg, ht, out=g_sq)
        g_sq *= rho
        g_sq -= fg.p[:, cols]
        np.square(g_sq, out=g_sq)
        g_sq /= 4.0 * rho
        window.x_stencils.derivative(v_seg, hx, out=q)
        q *= kappa
        q -= fg.s[:, cols]
        q += fg.f_seg[seg][:, None]
        np.square(q, out=q)
        q /= 4.0 * kappa
        q += g_sq
        np.copyto(q, 0.0, where=window.drop)
        total += float(wt @ q @ window.wx)
    return total


# ---------------------------------------------------------------------------
# Terminal errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalError:
    v0_sup: float
    v0_l2: float
    r0_sup: float
    r0_l2: float
    v1_sup: float
    v1_l2: float
    r1_sup: float
    r1_l2: float
    r1_offset: float

    def worst(self) -> float:
        return max(self.v0_sup, self.r0_sup, self.v1_sup, self.r1_sup)


def terminal_error(fg: FieldGrid, state: StateSpec) -> TerminalError:
    """Sup and L2 mismatch of the first/last field rows against the data.

    The terminal potential is prescribed only up to the free constant c1,
    so the r-error at t = T is taken modulo the best additive constant
    (reported as ``r1_offset``).
    """
    mesh = fg.mesh
    p = state.grid_p(mesh)
    stride = (p - 1) // (2 * fg.qx)
    if stride * 2 * fg.qx != p - 1:
        raise InvalidArgumentError("field grid is not aligned with the data grid")
    pick = np.arange(len(fg.x)) * stride

    hx = fg.x[1] - fg.x[0]
    wx = simpson_weights(len(fg.x), hx)

    def norms(err):
        return float(np.max(np.abs(err))), float(math.sqrt(max(wx @ err ** 2, 0.0)))

    ev0 = fg.v[0] - state.v0.values[pick]
    er0 = fg.r[0] - state.r0.values[pick]
    ev1 = fg.v[-1] - state.v1.values[pick]
    dr1 = fg.r[-1] - state.r1.values[pick]
    offset = float(np.mean(dr1))
    er1 = dr1 - offset

    v0s, v0l = norms(ev0)
    r0s, r0l = norms(er0)
    v1s, v1l = norms(ev1)
    r1s, r1l = norms(er1)
    return TerminalError(v0_sup=v0s, v0_l2=v0l, r0_sup=r0s, r0_l2=r0l,
                         v1_sup=v1s, v1_l2=v1l, r1_sup=r1s, r1_l2=r1l,
                         r1_offset=offset)


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


# Every CSV value is the text of ``"%.12g" % value``, made by one array
# kernel, :func:`_format_values`.  Each value becomes a 24-byte record of
# three little-endian words, NUL padded:
#
#   bytes 0-1   the separator before the value: "\r\n" on the first column
#               (it ends the row before), else NUL and ","
#   bytes 2-7   sign, integer digits, and "." when a fraction follows
#               (one entry of a 40,000-entry table)
#   bytes 8-23  16 fraction digits, 4 per 4-digit table entry, with the
#               trailing zeros cleared; in exponent form bytes 20-23 hold
#               the exponent, "e-05" to "e-11"
#
# Dropping the NULs (``bytes.translate``) leaves the CSV text.
#
# Exactness rule.  A finite x takes the fast path only when all of these
# hold; any other value (NaN, +-inf, ties, other exponents) is formatted
# with ``%`` one by one, and its text (at most 19 bytes) fills bytes 2-23.
#   (a) e = floor(log10|x|) lies in [_E_MIN, _E_MAX]: fixed notation for
#       e >= -4, exponent form below;
#   (b) s = |x| * 10**(11 - e), one correctly rounded product with an
#       exact power of ten (11 - e <= 22), has 1e11 <= s and
#       1e11 <= rint(s) < 1e12;
#   (c) |s - rint(s)| < 0.5 - 2**-12.
# The product's error is below 1e12 * 2**-53 (about 1.1e-4), so by (c) no
# tie is near and rint(s) is the correctly rounded 12-digit significand.
# log10 only proposes e: if it is one too high, s >= 1e11 holds only when
# x rounds up to 10**e anyway, and one too low gives rint(s) >= 1e12.  So
# under (b) the exponent after rounding is e, and %g's choice between fixed
# and exponent notation follows.  Zeros take the fast path too.
_E_MIN, _E_MAX = -11, 3
_NEAR_TIE = 0.5 - 2.0 ** -12
_U64, _U32 = np.dtype("<u8"), np.dtype("<u4")
_COMMA = np.uint64(ord(",") << 8)
_CRLF = np.uint64(ord("\r") | ord("\n") << 8)

# Values formatted per kernel call: memory stays at one block (a few MB of
# temporaries) whatever the table or grid size.
CSV_BLOCK_VALUES = 1 << 14


@functools.cache
def _format_tables() -> tuple:
    """The lookup tables of :func:`_format_values`, built on first use.

    ``head[i + 10000*(neg + 2*has_fraction)]`` is the word of bytes 0-7 of
    a value with integer part i < 10**4; ``group_words[g + 10000*more]``
    the four characters of fraction group g, with its trailing zeros
    cleared unless ``more`` (a later group is nonzero), and
    ``group_words[20000 + j]`` the exponent "e-%02d" % (j + 5).  Per
    exponent index k = e - _E_MIN: ``scale[k]`` = 10**(11 - e),
    ``unit[k]`` = 10**q for q fraction digits, ``widen[k]`` =
    10**(16 - q), and ``last[k]`` the offset of the last group's entry
    (the exponent's in exponent form).
    """
    n = np.arange(10_000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    chars = (digits + ord("0")).astype(np.uint8)
    kept = np.flip(np.logical_or.accumulate(np.flip(digits != 0, 1), 1), 1)
    minus = np.arange(5, 1 - _E_MIN)
    exponents = np.stack([np.full_like(minus, ord("e")), np.full_like(minus, ord("-")),
                          ord("0") + minus // 10, ord("0") + minus % 10], axis=1)
    groups = np.concatenate([np.where(kept, chars, 0), chars, exponents])
    group_words = groups.astype(np.uint8).view(_U32).ravel()

    n_digits = 1 + (n >= 10) + (n >= 100) + (n >= 1000)
    # drop the leading zero characters (the low bytes of the word)
    numbers = chars.view(_U32).ravel().astype(_U64) >> (8 * (4 - n_digits)).astype(_U64)
    heads = []
    for has_fraction in (0, 1):
        for neg in (0, 1):
            head = numbers << np.uint64(8 * (2 + neg))
            if neg:
                head |= np.uint64(ord("-") << 16)
            if has_fraction:
                head |= np.uint64(ord(".")) << (8 * (2 + neg + n_digits)).astype(_U64)
            heads.append(head)

    e = np.arange(_E_MIN, _E_MAX + 1)
    q = np.where(e < -4, 11, 11 - e)
    last = np.where(e < -4, 20_000 - 5 - e, 0)
    return (np.concatenate(heads).astype(_U64), group_words,
            10.0 ** (11 - e), 10.0 ** q, 10.0 ** (16 - q), last.astype(np.intp))


def _format_values(values: np.ndarray, out: np.ndarray, sep) -> int:
    """Write the record of each of ``values`` (see the comment above)
    into ``out``, a ``<u8`` array of shape ``values.shape + (3,)`` whose
    last axis is contiguous; ``sep`` (``_COMMA``, ``_CRLF``, or an array of
    them broadcast against ``values``) fills bytes 0-1.  Returns the number
    of values formatted with ``%``."""
    head, group_words, scale, unit, widen, last = _format_tables()
    x = np.asarray(values, dtype=float)
    mag = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.log10(mag)
        np.floor(k, out=k)
        k -= _E_MIN
        np.fmax(k, 0, out=k)                    # also NaN -> 0
        np.fmin(k, _E_MAX - _E_MIN, out=k)
        k = k.astype(np.intp)
        s = np.multiply(mag, scale.take(k))
        sig = np.rint(s)
        fast = np.abs(s - sig) < _NEAR_TIE     # (c); false for NaN
        fast &= s >= 1e11
        fast &= sig < 1e12
    slow = ~fast
    # zeros and slow values go through with significand 0 in fixed form
    np.copyto(sig, 0.0, where=slow)
    np.copyto(k, -_E_MIN, where=slow)
    slow &= mag != 0

    step = unit.take(k)
    whole = np.floor(sig / step)
    fraction = sig - whole * step
    fraction *= widen.take(k)                  # 16 digits, exact: even and < 2**54
    f = fraction.astype(np.int64)
    hi = f // 100_000_000
    lo = f - hi * 100_000_000
    g0 = hi // 10_000
    g1 = hi - g0 * 10_000
    g2 = lo // 10_000
    g3 = lo - g2 * 10_000
    more = lo != 0
    g2 += 10_000 * (g3 != 0)
    g1 += 10_000 * more
    more |= g1 != 0
    g0 += 10_000 * more
    g3 += last.take(k)
    index = whole.astype(np.intp)
    index += 10_000 * np.signbit(x)
    index += 20_000 * (f != 0)
    np.bitwise_or(head.take(index), sep, out=out[..., 0])
    words = out.view(_U32)
    for col, group in enumerate((g0, g1, g2, g3), start=2):
        words[..., col] = group_words.take(group)

    if not slow.any():
        return 0
    at = np.nonzero(slow)
    text = np.array(["%.12g" % v for v in x[at].tolist()], dtype="S22")
    out.view(np.uint8)[at + (slice(2, None),)] = text.view(np.uint8).reshape(-1, 22)
    return len(text)


def _csv_text(records: np.ndarray) -> bytes:
    """The CSV text of C-ordered records whose rows start with the CRLF
    separator: the NULs dropped and the leading CRLF moved to the end."""
    text = records.tobytes().translate(None, b"\0")
    return text[2:] + text[:2]


def write_csv(path, header, columns) -> None:
    """Write ``header`` and then one row per sample of the equal-length
    1-D ``columns``: ``%.12g`` values, comma separated, CRLF line ends.
    These are the bytes ``csv.writer`` gives for the same values (no value
    needs quoting) and ``np.savetxt`` with ``fmt="%.12g", delimiter=",",
    newline="\\r\\n"``."""
    table = np.column_stack(columns)
    n_rows, n_cols = table.shape
    rows = max(1, CSV_BLOCK_VALUES // n_cols)
    records = np.empty((rows, n_cols, 3), _U64)
    sep = np.full(n_cols, _COMMA, _U64)
    sep[0] = _CRLF
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode("ascii") + b"\r\n")
        for lo in range(0, n_rows, rows):
            block = table[lo:lo + rows]
            _format_values(block, records[:len(block)], sep)
            fh.write(_csv_text(records[:len(block)]))


# A forked helper formats at least this many grid points; a grid with
# fewer points per available CPU uses fewer helpers, down to none.  On a
# 2-core host one process writes about 1,150 grid points a millisecond,
# and a helper costs 8 to 10 ms to fork, reap and copy, the time of 10,000
# to 12,000 points: at 20,000 points two processes took 17-20 ms against
# 17-19 ms for one, at 30,000 points 23-24 ms against 26-28 ms.
MIN_HELPER_POINTS = 15_000


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _row_chunks(n_rows: int, n_cols: int) -> list:
    """Contiguous [lo, hi) t-row ranges, one per formatting process: one
    per available CPU, at most one per t-row, each of at least
    MIN_HELPER_POINTS grid points where there is more than one, and one
    where the OS cannot fork."""
    n = min(_available_cpus(), n_rows, max(1, n_rows * n_cols // MIN_HELPER_POINTS))
    if not hasattr(os, "fork"):
        n = 1
    bounds = [n_rows * k // n for k in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _write_field_rows(fg: FieldGrid, lo: int, hi: int, fh) -> None:
    """Write t-rows [lo, hi) of the fields CSV to the binary file ``fh``.

    The rows go in blocks of about CSV_BLOCK_VALUES field values.  The
    records of x are made once per call and those of t once per block;
    the five field values of a block are copied into one array, with e
    computed as :attr:`FieldGrid.e` computes it, and formatted in one
    kernel call.  Memory stays at one block whatever the grid size.
    """
    nx = len(fg.x)
    rows = max(1, CSV_BLOCK_VALUES // (5 * nx))
    block = np.empty((rows, nx, 5))
    records = np.empty((rows, nx, 7, 3), _U64)
    _format_values(fg.x, records[0, :, 1], _COMMA)
    records[1:, :, 1] = records[0, :, 1]
    owner = fg.column_segments()
    for i in range(lo, hi, rows):
        n = min(rows, hi - i)
        for col, arr in enumerate((fg.v, fg.r, fg.p, fg.s)):
            block[:n, :, col] = arr[i:i + n]
        block[:n, :, 4] = _energy_density(fg.p[i:i + n], fg.s[i:i + n],
                                          fg.f_seg[owner, i:i + n].T)
        _format_values(fg.t[i:i + n, None], records[:n, :1, 0], _CRLF)
        records[:n, 1:, 0] = records[:n, :1, 0]
        _format_values(block[:n], records[:n, :, 2:], _COMMA)
        fh.write(_csv_text(records[:n]))


class _Child:
    """A forked process (``pid``: None before the fork and once reaped)
    and the anonymous temp file it writes its output into."""

    def __init__(self):
        self.pid: Optional[int] = None
        self.tmp = tempfile.TemporaryFile()

    def join(self) -> int:
        """Wait for the process and return its exit code (the negated
        signal number if a signal ended it)."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


def _child_main(body, tmp) -> None:
    """Body of a forked child: ``body(tmp)``, then leave through
    ``os._exit`` (0 on success, 1 with the traceback on fd 2), so no
    atexit handler runs and no inherited buffer is flushed a second time.
    Never returns."""
    code = 1
    try:
        body(tmp)
        tmp.flush()
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


@contextlib.contextmanager
def _forked(body):
    """Run ``body(tmp)`` in a forked child while the with-block runs;
    yields the :class:`_Child`, whose ``tmp`` both processes share.

    Signals are blocked around the fork, so none can arrive before the pid
    is stored.  On every way out of the with-block a child not yet joined
    is killed and reaped, and the temp file is closed.
    """
    import signal       # here: no other code path needs it at import time

    child = _Child()
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            child.pid = os.fork()
            if child.pid == 0:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                _child_main(body, child.tmp)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield child
    finally:
        if child.pid is not None:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
        child.tmp.close()


def write_fields_csv(fg: FieldGrid, path) -> None:
    """One row per grid sample, t-major: header ``t,x,v,r,p,s,e``, then
    ``%.12g`` values, comma separated, CRLF line ends.  The bytes are those
    of :func:`write_csv` on the (t, x, v, r, p, s, e) columns.

    The t-rows are split into contiguous chunks (:func:`_row_chunks`), one
    per available CPU.  Each chunk after the first goes to a helper made by
    :func:`_forked` before ``path`` is opened; it writes its rows into its
    anonymous temp file and calls no BLAS.  This process writes the header
    and chunk 0 to ``path``, then reaps the helpers in order and appends
    their temp files, so the bytes do not depend on the number of chunks.
    A helper that fails is an ``OSError`` naming its rows and exit code.
    On every way out, helpers still running are killed and reaped and the
    temp files closed; the call returns once the whole file is at ``path``.
    """
    chunks = _row_chunks(len(fg.t), len(fg.x))
    with contextlib.ExitStack() as stack:
        helpers = [stack.enter_context(_forked(partial(_write_field_rows, fg, lo, hi)))
                   for lo, hi in chunks[1:]]
        with open(path, "wb") as fh:
            fh.write(b"t,x,v,r,p,s,e\r\n")
            _write_field_rows(fg, *chunks[0], fh)
            for helper, (lo, hi) in zip(helpers, chunks[1:]):
                code = helper.join()
                if code != 0:
                    raise OSError(f"fields.csv: the helper formatting t-rows "
                                  f"[{lo}, {hi}) exited with code {code}")
                helper.tmp.seek(0)
                shutil.copyfileobj(helper.tmp, fh)


def write_controls_csv(controls: ControlSet, path) -> None:
    """Per-piece rows: junction instants appear twice (left then right).

    Header ``t,u_jump_<n>…,u_<k>…,f_<k>…``, then ``%.12g`` values, comma
    separated, CRLF line ends (see :func:`write_csv`).
    """
    mesh = controls.mesh
    header = (["t"] + [f"u_jump_{n}" for n in mesh.J_x]
              + [f"u_{k}" for k in mesh.J_c] + [f"f_{k}" for k in mesh.J_c])
    columns = [np.concatenate([controls.piece_times(j)
                               for j in range(controls.n_pieces)])]
    columns += [controls.jumps[n].ravel() for n in mesh.J_x]
    columns += [controls.integrals[k].ravel() for k in mesh.J_c]
    columns += [controls.forces[k].ravel() for k in mesh.J_c]
    write_csv(path, header, columns)
