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
interpolation).  Characteristic kinks thus sit on known sample diagonals
and all finite differencing is done blockwise between kinks, one-sided at
the kink samples themselves (right limit, except at domain ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError, ReconstructionError
from .mesh import MeshConfig, RodParams
from .sampled import SampledFunction, fd_derivative, simpson_weights
from .edge import Parametrization, StateSpec, jump_key, wave_key
from .solver import Solution

CONTINUITY_ERROR = 1e-6


# ---------------------------------------------------------------------------
# Traveling-wave table
# ---------------------------------------------------------------------------


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
        arr = self.pieces[(side, k)]
        n_pieces, p = arr.shape
        out = np.empty(n_pieces * (p - 1) + 1)
        for j in range(n_pieces):
            out[j * (p - 1):(j + 1) * (p - 1) + 1] = arr[j]
        return SampledFunction(lo, hi, out)


def waves_from_solution(par: Parametrization, sol: Solution) -> WaveTable:
    """Evaluate every catalog entry and stitch the wave pieces."""
    mesh, cat = par.mesh, par.catalog
    w_all = par.entry_values(sol.y, sol.gamma)
    p = w_all.shape[1]
    h = mesh.lam / (p - 1)
    pieces, dpieces = {}, {}
    cont = 0.0
    for k in mesh.J_s:
        for side in (+1, -1):
            arr = np.stack([w_all[cat.index[wave_key(side, k, m)]]
                            for m in mesh.J_t])
            jump = np.max(np.abs(arr[:-1, -1] - arr[1:, 0])) if len(arr) > 1 else 0.0
            cont = max(cont, float(jump))
            pieces[(side, k)] = arr
            dpieces[(side, k)] = fd_derivative(arr, h)
    if cont > CONTINUITY_ERROR:
        raise ReconstructionError(
            f"traveling-wave pieces disagree at junctions by {cont:.3e}; "
            f"the solver output violates vertex continuity")
    return WaveTable(mesh=mesh, p=p, pieces=pieces, dpieces=dpieces,
                     continuity_max=cont)


def jump_pieces_from_solution(par: Parametrization, sol: Solution) -> Dict[int, np.ndarray]:
    """Per-piece samples of the control-integral jumps u_n, n in J_x."""
    mesh, cat = par.mesh, par.catalog
    w_all = par.entry_values(sol.y, sol.gamma)
    return {n: np.stack([w_all[cat.index[jump_key(n, m)]]
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

    def force_at(self, k: int, t, side: str = "right"):
        """Force f_k at time(s) t; one-sided limit at piece junctions."""
        t = np.asarray(t, dtype=float)
        lam, m_max = self.mesh.lam, self.mesh.M - 1
        piece = np.floor(t / lam).astype(int)
        if side == "left":
            on_junction = np.isclose(t, np.round(t / lam) * lam)
            piece = np.where(on_junction, np.round(t / lam).astype(int) - 1, piece)
        piece = np.clip(piece, 0, m_max)
        local = (t - piece * lam) / lam * (self.p - 1)
        i0 = np.clip(np.floor(local).astype(int), 0, self.p - 2)
        frac = local - i0
        arr = self.forces[k]
        vals = arr[piece, i0] * (1 - frac) + arr[piece, i0 + 1] * frac
        return vals if vals.ndim else float(vals)

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

    def junction_discontinuities(self, k: int) -> np.ndarray:
        """|f_k(t_j^+) - f_k(t_j^-)| at the interior piece junctions."""
        arr = self.forces[k]
        return np.abs(arr[1:, 0] - arr[:-1, -1])

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
    force, f applied force (piecewise constant per segment), e energy
    density.  ``qt``/``qx`` are samples per half-layer in each direction;
    interfaces sit at ``x`` indices that are multiples of ``2*qx``.

    Derivative quantities are stored as the upwind trace (later piece at
    kink samples, earlier at the domain ends).  Quantities that jump at
    interfaces are kept per segment: ``e_quad_segments`` holds the energy
    density with sector-averaged values on the characteristic lattice
    (jump midpoints, so blockwise quadrature keeps its cancellation), and
    ``f_seg`` the per-segment force history; the merged ``f`` and ``e``
    arrays carry the right-segment trace at interface columns.
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
    f: np.ndarray
    e: np.ndarray
    e_quad_segments: tuple       # per segment (nt, 2*qx+1); e jumps at interfaces
    f_seg: np.ndarray            # (N, nt) force history per segment
    interface_jump_v: float
    interface_jump_r: float

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


def _gather(piece_arr: np.ndarray, units: np.ndarray, per_piece: int,
            resolve: str = "late") -> np.ndarray:
    """Index (n_pieces, p) piece stacks at absolute domain units.

    ``resolve`` picks the piece at exact junction units: "late" takes the
    following piece (upwind/right limit), "early" the preceding one;
    domain ends clamp to the existing piece either way.
    """
    if resolve == "late":
        m_idx = np.minimum(units // per_piece, piece_arr.shape[0] - 1)
    else:
        m_idx = np.maximum((units - 1) // per_piece, 0)
    inner = units - m_idx * per_piece
    return piece_arr[m_idx, inner]


def fields(waves: WaveTable, controls: ControlSet, mesh: MeshConfig,
           qt: Optional[int] = None, qx: Optional[int] = None) -> FieldGrid:
    """Evaluate v, r, p, s, e on an aligned rectangular grid."""
    p = waves.p
    if qt is None and qx is None:
        # isotropic steps keep every characteristic kink on sample points
        qt = qx = _pick_q(p, 32)
    elif qt is None:
        qt = qx
    elif qx is None:
        qx = qt
    for q, name in ((qt, "qt"), (qx, "qx")):
        if (p - 1) % (2 * q) != 0:
            raise InvalidArgumentError(f"{name}={q} does not divide the piece grid")
    st = (p - 1) // (2 * qt)      # wave samples per t-grid step
    sx = (p - 1) // (2 * qx)      # wave samples per x-grid step
    nt, nx = 2 * mesh.M * qt + 1, 2 * mesh.N * qx + 1
    tgrid = np.linspace(0.0, mesh.T, nt)
    xgrid = np.linspace(-1.0, 1.0, nx)

    v = np.zeros((nt, nx))
    r = np.zeros((nt, nx))
    pm = np.zeros((nt, nx))
    s = np.zeros((nt, nx))
    f_arr = np.zeros((nt, nx))
    e_segs = []
    jump_v = 0.0
    jump_r = 0.0

    iu = np.arange(nt)[:, None] * st            # t in wave sample units
    half_units = (p - 1) // 2                   # lam/2 in wave sample units
    per = 2 * half_units

    # control integrals / forces on the time grid, per segment control
    t_units = np.arange(nt) * st
    u_time = {k: _gather(controls.integrals[k], t_units, per) for k in mesh.J_c}
    f_time = {k: _gather(controls.forces[k], t_units, per) for k in mesh.J_c}
    f_seg = np.stack([f_time[k] for k in mesh.J_s])

    for seg, k in enumerate(mesh.J_s):
        j0, j1 = seg * 2 * qx, (seg + 1) * 2 * qx
        ju = (np.arange(j0, j1 + 1) - mesh.N * qx)[None, :] * sx  # x units
        plus_units = iu + ju - (k - 1) * half_units
        minus_units = iu - ju - (-(k + 1)) * half_units

        wp = _gather(waves.pieces[(+1, k)], plus_units, per)
        wm = _gather(waves.pieces[(-1, k)], minus_units, per)
        dwp = _gather(waves.dpieces[(+1, k)], plus_units, per)
        dwm = _gather(waves.dpieces[(-1, k)], minus_units, per)
        dwp_e = _gather(waves.dpieces[(+1, k)], plus_units, per, resolve="early")
        dwm_e = _gather(waves.dpieces[(-1, k)], minus_units, per, resolve="early")

        v_seg = wp + wm
        r_seg = wp - wm + u_time[k][:, None]
        p_seg = dwp + dwm
        s_seg = dwp - dwm + f_time[k][:, None]
        # sector-averaged energy density: both junction resolutions of
        # each wave family, so kink samples carry the jump midpoint
        e_seg = 0.25 * sum((a ** 2 + b ** 2)
                           for a in (dwp, dwp_e) for b in (dwm, dwm_e))

        if seg > 0:
            jump_v = max(jump_v, float(np.max(np.abs(v[:, j0] - v_seg[:, 0]))))
            jump_r = max(jump_r, float(np.max(np.abs(r[:, j0] - r_seg[:, 0]))))
        v[:, j0:j1 + 1] = v_seg
        r[:, j0:j1 + 1] = r_seg
        pm[:, j0:j1 + 1] = p_seg
        s[:, j0:j1 + 1] = s_seg
        f_arr[:, j0:j1 + 1] = f_time[k][:, None]
        e_segs.append(e_seg)

    e = 0.5 * (pm ** 2 + (s - f_arr) ** 2)
    return FieldGrid(mesh=mesh, qt=qt, qx=qx, t=tgrid, x=xgrid,
                     v=v, r=r, p=pm, s=s, f=f_arr, e=e,
                     e_quad_segments=tuple(e_segs), f_seg=f_seg,
                     interface_jump_v=jump_v, interface_jump_r=jump_r)


# ---------------------------------------------------------------------------
# Kink-aware finite differences
# ---------------------------------------------------------------------------


def _shifted(index: tuple, k: int) -> tuple:
    """An ``np.nonzero`` index moved k samples along the last axis."""
    return index[:-1] + (index[-1] + k,)


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
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    kinks = np.moveaxis(np.asarray(kink_mask, dtype=bool), axis, -1)
    if v.shape[-1] < 3:
        raise InvalidArgumentError("need at least 3 samples to differentiate")
    deriv = np.empty_like(v)
    valid = np.ones(v.shape, dtype=bool)
    deriv[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)

    # block bounds: sample 0, the interior kinks, the final sample
    bound = kinks.copy()
    bound[..., 0] = True
    bound[..., -1] = True
    start = bound[..., :-1]
    short = start & bound[..., 1:]          # block of one interval

    fwd = np.nonzero(start & ~short)
    deriv[fwd] = (-3.0 * v[fwd] + 4.0 * v[_shifted(fwd, 1)]
                  - v[_shifted(fwd, 2)]) / (2.0 * h)
    one = np.nonzero(short)
    deriv[one] = (v[_shifted(one, 1)] - v[one]) / h
    valid[one] = False

    # final sample: backward stencil, or the short block's first-order value
    last_short = start[..., -1]
    deriv[..., -1] = np.where(
        last_short, (v[..., -1] - v[..., -2]) / h,
        (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h))
    valid[..., -1] = ~last_short
    return np.moveaxis(deriv, -1, axis), np.moveaxis(valid, -1, axis)


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
    the size of one segment window.
    """
    rho = params.rho if params is not None else 1.0
    kappa = params.kappa if params is not None else 1.0
    ht = fg.t[1] - fg.t[0]
    hx = fg.x[1] - fg.x[0]
    plus, minus = fg.kink_masks()
    kinks = plus | minus

    wt = simpson_weights(len(fg.t), ht)
    total = 0.0
    for seg, (j0, j1) in enumerate(fg.segment_windows()):
        cols = slice(j0, j1 + 1)
        vseg = fg.v[:, cols]
        kseg = kinks[:, cols]
        vt, ok_t = blockwise_derivative(vseg, ht, kseg, axis=0)
        vx, ok_x = blockwise_derivative(vseg, hx, kseg, axis=1)
        g_res = rho * vt - fg.p[:, cols]
        h_res = kappa * vx - fg.s[:, cols] + fg.f_seg[seg][:, None]
        q = g_res ** 2 / (4.0 * rho) + h_res ** 2 / (4.0 * kappa)
        q = np.where(ok_t & ok_x & ~kseg, q, 0.0)
        wx = simpson_weights(j1 - j0 + 1, hx)
        total += float(wt @ q @ wx)
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


def csv_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV text: ``%.12g`` values, comma
    separated, CRLF line ends.  These are the bytes ``csv.writer`` gives
    for the same values (no value needs quoting) and ``np.savetxt`` with
    ``fmt="%.12g", delimiter=",", newline="\\r\\n"``."""
    n_rows, n_cols = block.shape
    line = ",".join(["%.12g"] * n_cols) + "\r\n"
    return line * n_rows % tuple(block.ravel().tolist())


def write_fields_csv(fg: FieldGrid, path) -> None:
    """One row per grid sample, t-major: header ``t,x,v,r,p,s,e``, then
    ``%.12g`` values, comma separated, CRLF line ends.

    x is formatted once per file and t once per t-row.  Each t-row is one
    ``%`` of a line template (t joined with the x strings) over the row's
    five field values, copied into a reused (nx, 5) block, so memory stays
    at one grid row whatever the grid size.  The bytes are those of
    :func:`csv_rows` on the full (t, x, v, r, p, s, e) rows.
    """
    values = "%.12g,%.12g,%.12g,%.12g,%.12g\r\n"
    tails = [",%.12g," % x + values for x in fg.x.tolist()]
    block = np.empty((len(fg.x), 5))
    with open(path, "w", newline="") as fh:
        fh.write("t,x,v,r,p,s,e\r\n")
        for i, t in enumerate(fg.t.tolist()):
            for col, arr in enumerate((fg.v, fg.r, fg.p, fg.s, fg.e)):
                block[:, col] = arr[i]
            t_text = "%.12g" % t
            template = t_text + t_text.join(tails)
            fh.write(template % tuple(block.ravel().tolist()))


def write_controls_csv(controls: ControlSet, path) -> None:
    """Per-piece rows: junction instants appear twice (left then right).

    Header ``t,u_jump_<n>…,u_<k>…,f_<k>…``, then ``%.12g`` values, comma
    separated, CRLF line ends (see :func:`csv_rows`).
    """
    mesh = controls.mesh
    header = (["t"] + [f"u_jump_{n}" for n in mesh.J_x]
              + [f"u_{k}" for k in mesh.J_c] + [f"f_{k}" for k in mesh.J_c])
    columns = [np.concatenate([controls.piece_times(j)
                               for j in range(controls.n_pieces)])]
    columns += [controls.jumps[n].ravel() for n in mesh.J_x]
    columns += [controls.integrals[k].ravel() for k in mesh.J_c]
    columns += [controls.forces[k].ravel() for k in mesh.J_c]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(csv_rows(np.column_stack(columns)))
