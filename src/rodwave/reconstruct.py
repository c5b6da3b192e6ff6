"""Physical reconstruction: waves, controls, fields, and residuals.

The solved parametrization yields every wave and jump piece on
``[0, lambda]``.  This module concatenates them into traveling waves and
control histories, resolves the zero-sum chain for the individual control
integrals and forces, evaluates the displacement/potential/momentum/force
fields on a mesh-aligned rectangular grid, and computes the diagnostic
residuals (constitutive residual Q, terminal errors).

Every stage of a state works on whole-mesh stacks, with a fixed number of
array operations whatever N and M: the wave pieces are one gather of the
sampled entries into a (2, N, M + 1, p) stack (side, segment, piece), the
jump pieces one gather into (N + 1, M, p), the control integrals and
forces one (N + 2, M, p) stack each, and the wave lines and control
histories of the field grid reshapes of those stacks.  Keyed access
(``WaveTable.pieces[(side, k)]``, ``ControlSet.integrals[k]``) is a dict
of views into them, so a negative index k is a key, never a position.

Grid alignment.  A field grid has one step, h = lam/(2q), in t and in x:
q samples per half-layer either way, s = (P - 1)/(2q) wave samples per
grid step.  The fields are traveling waves along t + x and t - x at unit
speed, so interfaces, layer instants and the characteristic lattice all
fall exactly on sample points; wave and control pieces are then indexed
exactly (no interpolation).  Each wave is read as a strided view of its
assembled line: the plus wave at grid sample (i, j) of a segment window
is line sample ``(i + j)*s``, the minus wave ``(P - 1) + (i - j)*s``,
because the window start cancels the segment's wave-domain offset.  At a
junction of two pieces the "late" line holds the following piece (the
upwind, right limit) and the "early" line the preceding one; the domain
ends belong to the existing piece either way.

Characteristic kinks thus sit on known sample diagonals.  Q differentiates
the displacement with the plain second-order stencils of
:func:`rodwave.sampled.fd_derivative`, central inside a segment window and
one-sided at its edges, and leaves out the samples where a stencil spans
a kink: the kinks themselves and an end sample next to one; every stencil
it keeps lies in one smooth block.  Every segment window always has the
same kinks.  In grid steps from the rod center, t-row i lies at i and
grid column J at J - N*q, and the characteristic lines t + x and t - x
fall every lam/2, that is every q steps.  Column j of segment seg's
window is grid column 2*q*seg + j, at j + (2*seg - N)*q: j plus whole
periods.  So window sample (i, j) is a kink exactly when i + j or i - j
is a multiple of q, whatever N and the segment.  The samples Q leaves
out and the quadrature weights of that one window (:func:`window_kinks`)
serve every segment of :func:`residual_Q` and
:func:`rodwave.energy.mean_energy`.

Both quadratures integrate on the wave lines, because their integrands
are separable: v, p and s - f are sums or differences of a plus wave read
at t + x and a minus wave read at t - x.  The sector-averaged energy
density is a sum of squared derivative lines, so E_grid is a dot product
of those lines with per-line-sample weights, the window's quadrature
weights folded onto the line samples each window sample reads.  Q reads
each segment window from the segment's own lines only, since v and r are
continuous across an interface (:func:`fields` checks it): at every window
sample g and h are sums or differences of 1-D residual lines, one stencil
of a wave less its late derivative line, read at the same two places.  On
the interior, t-rows 1..nt-2 and columns 1..2q-1, every stencil is
central, and the t and x stencils are one stencil of the line, so g and h
are g+[a] + g-[b] and g+[a] - g-[b] of one residual pair g±, and
g^2 + h^2 = 2*(g+[a]^2 + g-[b]^2): Q is, like E_grid, a dot product of
squared residual lines with folded weights.  The ring around it, columns
0 and 2q and t-rows 0 and nt-1, takes its one-sided stencils at its own
samples only, from strided views of the wave lines, and its central ones
from the interior's residual lines.  The weights depend only on the mesh
and the field step, (N, M, q, s), and the last set built is kept, with
the grid's coordinates, so many states solved on one mesh build it once.

A :class:`FieldGrid` holds the wave lines, stacked per family into (N, L)
arrays, and the control histories on the t grid: O(N*M*P) floats, never
an (nt, nx) array.  Every field sample is one add or subtract of two line
samples (plus a control value), so the grid evaluates fields on demand,
with a fixed number of numpy calls per block: blocks of t-rows
(:meth:`FieldGrid.rows`) for the terminal rows, the oracle comparison and
the fields CSV.  Whole (nt, nx) arrays of v, r, p, s and the per-segment
energy windows would take 23.7 MB at N = M = 12, P = 129 and 168 MB at
N = M = 32; the lines take 0.96 MB and 6.5 MB.  A view whose first or
last sample would fall outside its line is a ``ReconstructionError``, so
no view reads past its buffer.
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
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError, ReconstructionError
from .mesh import MeshConfig
from .sampled import fd_derivative, simpson_weights
from .energy import blockwise_simpson_rows, blockwise_simpson_weights
from .edge import DATA_NAMES, Parametrization, StateSpec

CONTINUITY_ERROR = 1e-6


# ---------------------------------------------------------------------------
# Traveling-wave table
# ---------------------------------------------------------------------------


def _late_line(pieces: np.ndarray, out: np.ndarray, step: int = 1) -> None:
    """Concatenate (..., n_pieces, p) pieces into lines along the last
    axis of ``out`` (C contiguous), every ``step``-th sample
    ((p - 1) % step == 0); the later piece supplies each junction sample
    and the last piece the end sample."""
    *lead, n, p = pieces.shape
    per = (p - 1) // step
    # splits only the contiguous last axis, so always a view of out
    out[..., :-1].reshape(*lead, n, per)[...] = pieces[..., :-1:step]
    out[..., -1] = pieces[..., -1, -1]


def _early_line(pieces: np.ndarray, out: np.ndarray) -> None:
    """Concatenate (..., n_pieces, p) pieces into lines along the last
    axis of ``out`` (C contiguous); the earlier piece supplies each
    junction sample and the first piece sample 0."""
    *lead, n, p = pieces.shape
    out[..., 0] = pieces[..., 0, 0]
    out[..., 1:].reshape(*lead, n, p - 1)[...] = pieces[..., 1:]


@dataclass(frozen=True)
class WaveTable:
    """Per-piece samples of every traveling wave and of its derivative.

    ``piece_stack[side, seg, piece]`` holds the p samples of wave piece
    (side + then -, segment ``J_s[seg]``, layer ``J_t[piece]``), a
    (2, N, M + 1, p) array, and ``dpiece_stack`` their per-piece
    derivatives.  ``pieces[(side, k)]`` and ``dpieces[(side, k)]`` (side
    +1 or -1, k in ``J_s``) are (M + 1, p) views into them."""

    mesh: MeshConfig
    piece_stack: np.ndarray = field(repr=False)
    dpiece_stack: np.ndarray = field(repr=False)
    continuity_max: float = 0.0

    @property
    def p(self) -> int:
        return self.piece_stack.shape[-1]

    def _keyed(self, stack: np.ndarray) -> Dict[Tuple[int, int], np.ndarray]:
        return {(side, k): stack[i, seg] for i, side in enumerate((+1, -1))
                for seg, k in enumerate(self.mesh.J_s)}

    @functools.cached_property
    def pieces(self) -> Dict[Tuple[int, int], np.ndarray]:
        return self._keyed(self.piece_stack)

    @functools.cached_property
    def dpieces(self) -> Dict[Tuple[int, int], np.ndarray]:
        return self._keyed(self.dpiece_stack)


def _largest_abs(a: np.ndarray) -> float:
    """max|a|, NaN if any value is, without an |a| temporary."""
    return float(np.maximum(a.max(), -a.min()))


def waves_from_solution(par: Parametrization, entries: np.ndarray) -> WaveTable:
    """Stitch the wave pieces of a solution from the sampled values of
    every catalog entry, ``entries`` = ``par.entry_values(sol.y, sol.gamma)``:
    one gather through ``par.wave_index`` and one derivative of the stack.

    Adjacent pieces must agree at their junction to ``CONTINUITY_ERROR``
    relative to the largest piece sample, ``1e-6 * (1 + max|piece|)``, so
    the check holds at any data scale; ``continuity_max`` stays absolute.
    """
    stack = entries[par.wave_index]                  # (2, N, M + 1, p)
    p = stack.shape[-1]
    cont = float(np.max(np.abs(stack[..., :-1, -1] - stack[..., 1:, 0]), initial=0.0))
    scale = _largest_abs(stack)
    if not cont <= CONTINUITY_ERROR * (1.0 + scale):
        raise ReconstructionError(
            f"traveling-wave pieces disagree at junctions by {cont:.3e} "
            f"(tolerance {CONTINUITY_ERROR:g} * (1 + {scale:.3e})); "
            f"the solver output violates vertex continuity")
    return WaveTable(mesh=par.mesh, piece_stack=stack,
                     dpiece_stack=fd_derivative(stack, par.mesh.lam / (p - 1)),
                     continuity_max=cont)


def jump_pieces_from_solution(par: Parametrization, entries: np.ndarray) -> np.ndarray:
    """Per-piece samples of the control-integral jumps u_n from the sampled
    values of every catalog entry (see :func:`waves_from_solution`): one
    gather through ``par.jump_index`` into an (N+1, M, p) stack, row i
    the jump of interface ``J_x[i]``."""
    return entries[par.jump_index]


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

    ``jump_stack[i]`` holds the (M, p) jump pieces of interface
    ``J_x[i]``; ``integral_stack[i]`` and ``force_stack[i]`` those of
    control ``J_c[i]``, whose entries 1..N are the segments ``J_s``.
    ``jumps[n]``, ``integrals[k]`` and ``forces[k]`` are views into them
    keyed by interface and control index (negative ones included).
    """

    mesh: MeshConfig
    jump_stack: np.ndarray = field(repr=False)       # (N+1, M, p)
    integral_stack: np.ndarray = field(repr=False)   # (N+2, M, p)
    force_stack: np.ndarray = field(repr=False)      # (N+2, M, p)

    @property
    def p(self) -> int:
        return self.jump_stack.shape[-1]

    @functools.cached_property
    def jumps(self) -> Dict[int, np.ndarray]:
        return dict(zip(self.mesh.J_x, self.jump_stack))

    @functools.cached_property
    def integrals(self) -> Dict[int, np.ndarray]:
        return dict(zip(self.mesh.J_c, self.integral_stack))

    @functools.cached_property
    def forces(self) -> Dict[int, np.ndarray]:
        return dict(zip(self.mesh.J_c, self.force_stack))

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
        return float(np.max(np.abs(self.integral_stack[:, 0, 0])))

    def zero_sum_max(self) -> float:
        return float(np.max(np.abs(np.sum(self.force_stack, axis=0))))

    def jump_identity_max(self) -> float:
        """The largest gap of f_{n+1} - f_{n-1} against the derivative of
        jump n; for interface ``J_x[i]`` controls n - 1 and n + 1 are
        ``J_c[i]`` and ``J_c[i + 1]``."""
        fj = self.force_stack[1:] - self.force_stack[:-1]
        dj = fd_derivative(self.jump_stack, self.mesh.lam / (self.p - 1))
        return float(np.max(np.abs(fj - dj)))


def controls_from_jumps(mesh: MeshConfig, jump_stack: np.ndarray) -> ControlSet:
    """Recover all N+2 control integrals and forces from the (N+1, M, p)
    stack of jump pieces (:func:`jump_pieces_from_solution`), which the
    returned set keeps as its ``jump_stack``.

    At every time sample the chain system {u_{n+1} - u_{n-1} = jump_n,
    sum over controls = 0} is square and nonsingular; forces follow by
    per-piece differentiation (never across a junction), one derivative
    of the (N+2, M, p) stack.  A stack of another shape raises
    :class:`InvalidArgumentError`.
    """
    jump_stack = np.asarray(jump_stack)
    if jump_stack.ndim != 3 or jump_stack.shape[:2] != (mesh.N + 1, mesh.M):
        raise InvalidArgumentError(
            f"jump pieces of shape {jump_stack.shape}; need (N+1, M, p) = "
            f"({mesh.N + 1}, {mesh.M}, p)")
    resolved = resolve_zero_sum_chain(jump_stack)              # (N+2, M, p)
    h = mesh.lam / (jump_stack.shape[-1] - 1)
    return ControlSet(mesh=mesh, jump_stack=jump_stack, integral_stack=resolved,
                      force_stack=fd_derivative(resolved, h))


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


def grid_step(p: int, q: Optional[int] = None) -> int:
    """The step q of a field grid on pieces of p samples, in samples per
    half-layer in t and in x: by default the largest even divisor of
    (p - 1)/2 up to 32, so every characteristic kink lies on a sample.  A
    q that is not a positive integer, or does not divide the piece grid,
    raises :class:`InvalidArgumentError`."""
    if q is None:
        return _pick_q(p, 32)
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 1:
        raise InvalidArgumentError(f"field step q={q!r} is not a positive integer")
    if (p - 1) % (2 * q) != 0:
        raise InvalidArgumentError(f"field step q={q} does not divide the piece grid")
    return int(q)


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


# The lines of FieldGrid.lines, by family: the late lines of w+, w-, w+'
# and w-', then the early lines of w+' and w-'.  Even families are plus
# waves.
_WP, _WM, _DWP, _DWM, _DWP_EARLY, _DWM_EARLY = range(6)

# field name -> (first family, second family, how they combine, the
# per-segment history added to the result, if any)
_FIELD_FORMS = {"v": (_WP, _WM, np.add, None),
                "r": (_WP, _WM, np.subtract, "u_seg"),
                "p": (_DWP, _DWM, np.add, None),
                "s": (_DWP, _DWM, np.subtract, "f_seg")}

# A whole-grid pass (the fields CSV) evaluates about this many samples of
# each field per block of t-rows.
FIELD_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class FieldGrid:
    """Rectangular (t, x) samples of all reconstructed fields, evaluated
    from the traveling-wave lines on demand.

    v displacement, r dynamic potential, p momentum density, s internal
    force, e energy density.  ``q`` is samples per half-layer in t and in
    x, ``h`` the one step; interfaces sit at ``x`` indices that are
    multiples of ``2*q``.

    ``lines[family, seg]`` holds one assembled line of segment seg (see
    the module docstring and ``_WP``); ``u_seg`` and ``f_seg`` the
    control integral and applied force of each segment on the t grid (both
    constant in x within a segment), and ``s`` the wave samples per grid
    step.  ``interface_jump_v`` and ``interface_jump_r`` are the largest
    jumps of v and r across an interior interface, taken once by
    :func:`fields`.  The grid stores no (nt, nx) array:
    :meth:`rows` gives v, r, p and s, or some of them, on a block of
    t-rows in a new array, an interface column holding the right segment's
    trace and the columns at x = -1 and 1 the outer segments' own.
    :func:`residual_Q` and :func:`rodwave.energy.mean_energy` integrate on
    the lines themselves, with the weights of :func:`window_kinks`.
    """

    mesh: MeshConfig
    q: int
    s: int
    t: np.ndarray
    x: np.ndarray
    lines: np.ndarray = field(repr=False)    # (6, N, L) wave lines
    u_seg: np.ndarray = field(repr=False)    # (N, nt) control integral per segment
    f_seg: np.ndarray = field(repr=False)    # (N, nt) applied force per segment
    interface_jump_v: float
    interface_jump_r: float

    @property
    def h(self) -> float:
        """The step in t and in x, lam/(2*q), which ``t[1] - t[0]`` and
        ``x[1] - x[0]`` need not be (they may differ by an ulp)."""
        return self.mesh.lam / (2 * self.q)

    def column_segments(self) -> np.ndarray:
        """Per x column, the segment whose traces the column holds: the
        right one at an interface."""
        return np.minimum(np.arange(len(self.x)) // (2 * self.q), self.mesh.N - 1)

    def _wave(self, lines: np.ndarray, plus: bool, lo: int, n: int, seg: int,
              n_seg: int, col: int, width: int, step: int = 1) -> np.ndarray:
        """Read-only view ``out[i, c, j]`` of line ``seg + c`` of the
        (N, L) stack ``lines``, read as a plus (``plus``) or minus wave, at
        t-row ``lo + i*step`` and window column ``col + j``.

        The plus wave at window column jj of segment seg is line sample
        ``(i + jj)*s``, the minus wave ``(P - 1) + (i - jj)*s``: the
        window start x0 = (2*seg - N)*(P - 1)/2 cancels the segment's
        wave-domain offset.  A segment outside the stack, or a sample
        outside its line (:func:`_line_view`), is a
        ``ReconstructionError``."""
        if n and not 0 <= seg <= seg + n_seg <= len(lines):
            raise ReconstructionError(
                f"field grid reads lines {seg}..{seg + n_seg - 1} outside {len(lines)} lines")
        step_x = self.s if plus else -self.s
        first = lo * self.s + (0 if plus else 2 * self.q * self.s) + col * step_x
        return _line_view(lines[seg:seg + n_seg], first, (n, width),
                          (step * self.s, step_x)).transpose(1, 0, 2)

    def rows(self, lo: int, hi: int, names: str = "vrps", step: int = 1) -> np.ndarray:
        """The fields ``names`` (letters of "vrps") on every ``step``-th
        t-row of [lo, hi): a new C-ordered (len(names), n, nx) array.  An
        interface column holds the trace of the segment to its right, and
        the column at x = 1 the last segment's own.  Elementwise,
        v = w+ + w-, r = (w+ - w-) + u, p = w+' + w-' and s = (w+' - w-') + f."""
        if not (0 <= lo <= hi <= len(self.t) and step >= 1):
            raise InvalidArgumentError(f"t-rows [{lo}, {hi}) by {step} outside a grid "
                                       f"of {len(self.t)}")
        n, n_seg, two_q = len(range(lo, hi, step)), self.mesh.N, 2 * self.q
        out = np.empty((len(names), n, len(self.x)))
        for name, arr in zip(names, out):
            a, b, combine, history = _FIELD_FORMS[name]
            a, b = self.lines[a], self.lines[b]
            # splits only the contiguous last axis, so always a view of arr
            body = arr[:, :-1].reshape(n, n_seg, two_q)
            tail = arr[:, -1]
            combine(self._wave(a, True, lo, n, 0, n_seg, 0, two_q, step),
                    self._wave(b, False, lo, n, 0, n_seg, 0, two_q, step), out=body)
            combine(self._wave(a, True, lo, n, n_seg - 1, 1, two_q, 1, step)[:, 0, 0],
                    self._wave(b, False, lo, n, n_seg - 1, 1, two_q, 1, step)[:, 0, 0],
                    out=tail)
            if history is not None:
                values = getattr(self, history)[:, lo:hi:step]
                body += values.T[:, :, None]
                tail += values[-1]
        return out


def fields(waves: WaveTable, controls: ControlSet, mesh: MeshConfig,
           q: Optional[int] = None) -> FieldGrid:
    """The field grid of v, r, p, s on an aligned square grid, q samples
    per half-layer (:func:`grid_step`): the wave lines of every segment,
    evaluated on demand (:class:`FieldGrid`).  A wave line too short for
    the grid is a ``ReconstructionError``, and so is a jump of v or r
    across an interface above ``CONTINUITY_ERROR`` relative to the largest
    w± or u sample, ``1e-6 * (1 + max|w±, u|)``, as in
    :func:`waves_from_solution`: Q reads each window's own traces only.
    The grid's t and x are those of its :func:`window_kinks` entry, made
    once per mesh and field step, read-only."""
    p = waves.p
    q = grid_step(p, q)
    s = (p - 1) // (2 * q)        # wave samples per grid step
    nt = 2 * mesh.M * q + 1
    length = (mesh.M + 1) * (p - 1) + 1     # line samples the grid reads
    pieces, dpieces = waves.piece_stack, waves.dpiece_stack
    n_pieces = min(pieces.shape[-2], dpieces.shape[-2])
    if n_pieces < mesh.M + 1:
        raise ReconstructionError(
            f"field grid reads wave samples 0..{length - 1} "
            f"outside a line of {n_pieces * (p - 1) + 1}")
    pieces, dpieces = pieces[..., :mesh.M + 1, :], dpieces[..., :mesh.M + 1, :]
    # families _WP, _WM, _DWP, _DWM, _DWP_EARLY, _DWM_EARLY; the stacks'
    # first axis is the side, + then -
    lines = np.empty((6, mesh.N, length))
    _late_line(pieces, lines[_WP:_DWP])
    _late_line(dpieces, lines[_DWP:_DWP_EARLY])
    _early_line(dpieces, lines[_DWP_EARLY:])
    # the segments are controls 1..N of J_c
    u_seg, f_seg = np.empty((mesh.N, nt)), np.empty((mesh.N, nt))
    _late_line(controls.integral_stack[1:-1], u_seg, s)
    _late_line(controls.force_stack[1:-1], f_seg, s)
    jump_v, jump_r = _interface_jumps(lines, u_seg, s, nt, p)
    scale = max(_largest_abs(lines[_WP:_DWP]), _largest_abs(u_seg))
    if not max(jump_v, jump_r) <= CONTINUITY_ERROR * (1.0 + scale):
        raise ReconstructionError(
            f"v and r jump across an interface by {jump_v:.3e} and {jump_r:.3e} "
            f"(tolerance {CONTINUITY_ERROR:g} * (1 + {scale:.3e})); the waves and "
            f"controls violate interface continuity")
    kinks = _window_kinks_of(mesh, q, s)
    return FieldGrid(mesh=mesh, q=q, s=s, t=kinks.t, x=kinks.x,
                     lines=lines, u_seg=u_seg, f_seg=f_seg,
                     interface_jump_v=jump_v, interface_jump_r=jump_r)


def _interface_jumps(lines: np.ndarray, u_seg: np.ndarray, s: int, nt: int,
                     p: int) -> Tuple[float, float]:
    """The largest jumps of v and r across an interior interface: the
    left segment's last column against the right one's first.  On t-row i
    the left segment reads w+ at line sample i*s + (P - 1) and w- at
    i*s, the right one the other way round."""
    from_0, from_p = (slice(first, first + (nt - 1) * s + 1, s) for first in (0, p - 1))
    lp, lm = lines[_WP, :-1, from_p], lines[_WM, :-1, from_0]
    rp, rm = lines[_WP, 1:, from_0], lines[_WM, 1:, from_p]
    jump_v = np.max(np.abs((lp + lm) - (rp + rm)), axis=1)
    jump_r = np.max(np.abs(((lp - lm) + u_seg[:-1]) - ((rp - rm) + u_seg[1:])), axis=1)
    # folded segment by segment from 0.0, as max(jump, next) would
    return max([0.0] + jump_v.tolist()), max([0.0] + jump_r.tolist())


# ---------------------------------------------------------------------------
# Kink window and constitutive residual
# ---------------------------------------------------------------------------


def drop_mask(kinks: np.ndarray) -> np.ndarray:
    """The samples of a window with kink mask ``kinks`` that Q leaves out:
    the kinks, and on each axis an end sample next to a kink, whose
    one-sided stencil spans it."""
    drop = kinks.copy()
    drop[0] |= kinks[1]
    drop[-1] |= kinks[-2]
    drop[:, 0] |= kinks[:, 1]
    drop[:, -1] |= kinks[:, -2]
    return drop


@dataclass(frozen=True, eq=False)
class WindowKinks:
    """The kink window every segment window of a field grid shares and
    the quadrature weights that follow from it (see :func:`window_kinks`).

    ``q_weights[i, j]`` is the weight of window sample (i, j) in Q: a
    quarter of the composite Simpson t-weight times x-weight, and 0 where
    ``drop`` (:func:`drop_mask`) is set.  ``q_line_weights[0][k]`` is the
    sum of ``q_weights`` over the interior samples (t-rows 1..nt-2,
    columns 1..2q-1, where every stencil of Q is central) that read
    plus-wave line sample k, ``q_line_weights[1]`` the same for the minus
    wave.
    ``energy_weights`` folds the blockwise Simpson weights of
    :func:`rodwave.energy.mean_energy` over the whole window onto the line
    samples the same way.  ``ring_weights`` holds the Q weights of the
    ring's four blocks as :func:`residual_Q` reads them: columns 0 and 2q
    (2, nt), t-rows 0 and nt-1 (2, 2q + 1), columns 0 and 2q of t-rows
    1..nt-2, and t-rows 0 and nt-1 of columns 1..2q-1.  ``t`` and ``x``
    are the sample coordinates of the field grid, and ``x_weights`` the
    composite Simpson weights over x that :func:`terminal_error` takes its
    L2 norms with: they depend on the same key, so they are kept here,
    read-only, and every field grid of that key shares them."""

    kinks: np.ndarray = field(repr=False)
    drop: np.ndarray = field(repr=False)
    q_weights: np.ndarray = field(repr=False)
    q_line_weights: np.ndarray = field(repr=False)
    energy_weights: np.ndarray = field(repr=False)
    ring_weights: tuple = field(repr=False)
    t: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    x_weights: np.ndarray = field(repr=False)


# the one cache entry of window_kinks: (N, M, q, s) and its WindowKinks
_window_kinks: Optional[tuple] = None


def window_kinks(fg) -> WindowKinks:
    """The :class:`WindowKinks` every segment window of field grid ``fg``
    shares: row i and window column j is a kink when i + j or i - j is a
    multiple of q (see the module docstring), on 2*M*q + 1 rows and the
    grid's step ``fg.h``; the line weights fold the window onto line
    samples (i + j)*s (plus wave) and (P - 1) + (i - j)*s (minus wave).
    One entry is kept, for the last (N, M, q, s) asked for; another key
    replaces it, and a build that fails leaves none."""
    return _window_kinks_of(fg.mesh, fg.q, fg.s)


def _window_kinks_of(mesh: MeshConfig, q: int, s: int) -> WindowKinks:
    """:func:`window_kinks` of the grid with step q on ``mesh``, s wave
    samples a step.

    Whether row i has a kink at column j depends on i mod q only, so the
    kink rows repeat with period q: the kinks and the blockwise Simpson
    weights of each row are built for one period, in one pass
    (:func:`rodwave.energy.blockwise_simpson_rows`), and gathered for the
    rest."""
    global _window_kinks
    key = (mesh.N, mesh.M, q, s)
    if _window_kinks is None or _window_kinks[0] != key:
        _window_kinks = None
        nt, width = 2 * mesh.M * q + 1, 2 * q + 1
        h = mesh.lam / (2 * q)
        i = np.arange(q)[:, None]
        j = np.arange(width)
        one_period = ((i + j) % q == 0) | ((i - j) % q == 0)
        in_period = np.arange(nt) % q
        kinks = one_period[in_period]
        drop = drop_mask(kinks)

        q_weights = np.outer(simpson_weights(nt, h), simpson_weights(width, h))
        q_weights *= 0.25
        q_weights[drop] = 0.0

        # blockwise Simpson weights of each row of the period, split at its
        # kinks, times those of the time profile, split at the t-rows where
        # kink lines meet the mesh lines
        weights = blockwise_simpson_rows(one_period, h)[in_period]
        weights *= blockwise_simpson_weights(nt, h, np.arange(q, nt - 1, q))[:, None]
        plus = np.arange(nt)[:, None] * s + np.arange(width) * s
        minus = plus[:, ::-1]               # (P - 1) + (i - j)*s
        length = plus[-1, -1] + 1

        def fold(w, rows=slice(None), cols=slice(None)):
            return np.stack([np.bincount(index[rows, cols].ravel(), w[rows, cols].ravel(), length)
                             for index in (plus, minus)])

        nx = 2 * mesh.N * q + 1
        grid = (np.linspace(0.0, mesh.T, nt), np.linspace(-1.0, 1.0, nx),
                simpson_weights(nx, h))
        for arr in grid:
            arr.setflags(write=False)
        ring = (q_weights[:, [0, -1]].T.copy(), q_weights[[0, -1]],
                q_weights[1:-1, [0, -1]].T.copy(), q_weights[[0, -1], 1:-1])
        _window_kinks = (key, WindowKinks(
            kinks=kinks, drop=drop, q_weights=q_weights,
            q_line_weights=fold(q_weights, slice(1, -1), slice(1, -1)),
            energy_weights=fold(weights), ring_weights=ring,
            t=grid[0], x=grid[1], x_weights=grid[2]))
    return _window_kinks[1]


# The one-sided second-order stencils of a first derivative at a window
# edge, those of fd_derivative, as coefficients of three consecutive
# samples over twice the step: forward at the first sample (row 0) and
# backward at the last (row 1)
_ONE_SIDED = np.array([[-3.0, 4.0, -1.0], [1.0, -4.0, 3.0]])


def _line_view(lines: np.ndarray, first: int, shape: tuple, steps: tuple) -> np.ndarray:
    """Read-only view ``out[..., i_1, ..., i_d]`` of every line of the
    stack ``lines`` (..., L), C-ordered in its last axis: line sample
    ``first + i_1*steps[0] + ... + i_d*steps[-1]``.  The view is made on the
    stack's buffer with the strides given, which numpy checks only against
    the whole buffer, so the extreme samples are checked against one line
    first: a view reaching outside it is a ``ReconstructionError``."""
    length = lines.shape[-1]
    low = high = first
    for n, step in zip(shape, steps):
        span = (n - 1) * step
        low, high = low + min(span, 0), high + max(span, 0)
    if not (all(shape) and lines.size):
        view = np.empty(lines.shape[:-1] + tuple(shape))      # reads no sample
    elif low < 0 or high >= length:
        raise ReconstructionError(
            f"field grid reads wave samples {low}..{high} outside a line of {length}")
    else:
        lines = np.ascontiguousarray(lines)
        item = lines.itemsize
        view = np.ndarray(lines.shape[:-1] + tuple(shape), lines.dtype, lines, first * item,
                          lines.strides[:-1] + tuple(step * item for step in steps))
    view.flags.writeable = False
    return view


def _one_sided(samples: np.ndarray, h: float) -> np.ndarray:
    """The one-sided derivative of three consecutive samples (the last
    axis of ``samples``) at step h, in a new array: forward where the
    third-last axis is 0, backward where it is 1 (``_ONE_SIDED``), summed
    in sample order, then divided by 2h."""
    out = samples[..., 0] * _ONE_SIDED[:, 0:1]
    out += samples[..., 1] * _ONE_SIDED[:, 1:2]
    out += samples[..., 2] * _ONE_SIDED[:, 2:3]
    out /= 2.0 * h
    return out


def _residual_lines(fg: FieldGrid) -> np.ndarray:
    """The central residual lines of every segment, g+ and g-, in a new
    (2, N, L) array: g±[k] = (w±[k + s] - w±[k - s]) / (2*h) - w±'[k] from
    the late lines.  The samples where the stencil would leave the line
    are NaN."""
    # the plus and minus lines end to end, one flat array per family; every
    # line at once, and the samples whose stencil reaches into the next
    # line are then set NaN
    waves, slopes = (np.ascontiguousarray(fg.lines[fams]).reshape(-1)
                     for fams in (slice(_WP, _WM + 1), slice(_DWP, _DWM + 1)))
    s = fg.s
    out = np.empty((2,) + fg.lines.shape[1:])
    n = waves.size - 2 * s
    mid = out.reshape(-1)[s:s + n]
    np.subtract(waves[2 * s:], waves[:n], out=mid)
    mid /= 2.0 * fg.h
    mid -= slopes[s:s + n]
    out[..., :s] = np.nan
    out[..., out.shape[-1] - s:] = np.nan
    return out


def residual_Q(fg: FieldGrid) -> float:
    """Constitutive residual: Q = integral of (g^2 + h^2)/4.

    The residual functions g = v_t - p and h = v_x - s + f are formed from
    second-order differences of the displacement against the momentum and
    force, segment by segment on the grid's segment windows (columns
    2*q*seg .. 2*q*(seg + 1) of the grid), each window from its own lines
    only: v and r are continuous across an interface, which
    :func:`fields` checks.  Samples on the characteristic lattice are
    excluded from the quadrature: there the stored derivative traces are
    one-sided and the difference of one-sided limits is not a
    discretization error.  So is an end sample next to a kink, whose
    one-sided stencil spans it; every other stencil lies in one smooth
    block.  On exact solutions the retained integrand is O(h^4).  The
    samples left out and the Simpson weights of the rest are those of
    :func:`window_kinks`, the same in every window, and the step is
    ``fg.h``.

    Since v = w+ + w-, p = w+' + w-' and s - f = w+' - w-', at window
    sample (i, j) g and h are sums and differences of 1-D residual lines,
    a stencil of a wave less its late derivative line, read at plus-line
    sample a = (i + j)*s and minus-line sample b = (P - 1) + (i - j)*s.
    The t stencil is forward on t-row 0, backward on t-row nt-1 and
    central elsewhere; the x stencil is central on columns 1..2q-1, and on
    column 0 (2q) forward (backward) in j, which is forward (backward)
    along the plus line and backward (forward) along the minus line.

    * t-rows 1..nt-2 on columns 1..2q-1, the interior: both stencils are
      the central one of the line, so g = g+[a] + g-[b] and
      h = g+[a] - g-[b] with the central lines g± (:func:`_residual_lines`,
      the one set of whole lines Q builds), and g^2 + h^2 = 2*(g+[a]^2 +
      g-[b]^2).  That sums, as E_grid does, to dot products of the
      squared central lines with the line weights W±
      (``window_kinks(fg).q_line_weights``).
    * The ring, columns 0 and 2q on every t-row and t-rows 0 and nt-1 on
      columns 1..2q-1, in four blocks of strided views
      (:func:`_line_view`): its one-sided stencils are taken only at its
      own samples, from the wave and derivative lines (columns 0 and 2q
      read the plus line at i*s and (P - 1) + i*s and the minus line the
      other way round; t-rows 0 and nt-1 read the plus line at column j
      where the minus line reads column 2q - j), and its central ones are
      read from the central lines.

    Every temporary is O(N*M*P), like the lines; none is (nt, nx).
    """
    kinks = window_kinks(fg)
    nt, two_q, s = len(fg.t), 2 * fg.q, fg.s
    reach = two_q * s                   # P - 1
    w_cols, w_rows, w_central_cols, w_central_rows = kinks.ring_weights
    waves, slopes = fg.lines[_WP:_WM + 1], fg.lines[_DWP:_DWM + 1]
    central = _residual_lines(fg)
    # (family, segment, column 0 | 2q, t-row, stencil sample): the x
    # stencil forward at line sample i*s, backward at (P - 1) + i*s; h
    # at column 0 is plus forward less minus backward, at 2q the reverse
    res = _one_sided(_line_view(waves, 0, (2, nt, 3), (reach - 2 * s, s, s)), fg.h)
    res -= _line_view(slopes, 0, (2, nt), (reach, s))
    h = res[0] - res[1, :, ::-1]
    total = np.einsum("sci,sci,ci->", h, h, w_cols)
    # (family, segment, t-row 0 | nt-1, column, stencil sample): the t
    # stencil forward on t-row 0, backward on nt-1
    res = _one_sided(_line_view(waves, 0, (2, two_q + 1, 3), ((nt - 3) * s, s, s)), fg.h)
    res -= _line_view(slopes, 0, (2, two_q + 1), ((nt - 1) * s, s))
    g = res[0] + res[1, ..., ::-1]
    total += np.einsum("srj,srj,rj->", g, g, w_rows)
    # the central stencils of the ring: g on columns 0 and 2q of t-rows
    # 1..nt-2, h on t-rows 0 and nt-1 of columns 1..2q-1
    g = _line_view(central, s, (2, nt - 2), (reach, s))
    g = g[0] + g[1, :, ::-1]
    total += np.einsum("sci,sci,ci->", g, g, w_central_cols)
    h = _line_view(central, s, (2, two_q - 1), ((nt - 1) * s, s))
    h = h[0] - h[1, ..., ::-1]
    total += np.einsum("srj,srj,rj->", h, h, w_central_rows)
    # the interior: the squared central lines dotted with W+ and W-, which
    # are 0 beyond the samples the interior reads, so the NaN ends of each
    # line are left out
    mid = slice(s, -s)
    interior = np.einsum("fsk,fsk,fk->", central[..., mid], central[..., mid],
                         kinks.q_line_weights[:, mid])
    return float(total) + 2.0 * float(interior)


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
    so the r-error at t = T is taken after subtracting the plain mean of
    the difference over the grid columns (reported as ``r1_offset``).
    Only v and r are evaluated, on t-rows 0 and nt - 1; the errors of the
    four profiles are one (4, nx) array, and the Simpson x-weights of the
    L2 norms are the grid's (``window_kinks(fg).x_weights``).
    """
    mesh = fg.mesh
    p = state.grid_p(mesh)
    stride = (p - 1) // (2 * fg.q)
    if stride * 2 * fg.q != p - 1:
        raise InvalidArgumentError("field grid is not aligned with the data grid")

    nt = len(fg.t)
    # v and r on t-rows 0 and nt - 1, as v0, r0, v1, r1, less the data
    err = fg.rows(0, nt, "vr", nt - 1).transpose(1, 0, 2).reshape(4, -1)
    err -= np.stack([getattr(state, name).values[::stride] for name in DATA_NAMES])
    offset = float(np.mean(err[3]))
    err[3] -= offset
    sup = np.max(np.abs(err), axis=1).tolist()
    wx = window_kinks(fg).x_weights
    (v0s, r0s, v1s, r1s), (v0l, r0l, v1l, r1l) = sup, [
        float(math.sqrt(max(wx @ squared, 0.0))) for squared in np.square(err)]
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

# Bytes of the one chunk _write_field_rows frees before its first block.
# glibc's malloc serves a request of at least its mmap threshold (128 KiB
# at process start) with a fresh mapping, and returns the free top of its
# heap beyond twice that threshold; freeing a mapped chunk raises the
# threshold to that chunk's size.  Below such a raise the few MB of
# temporaries of every block are mapped or faulted in anew: on a 2-core
# host the fields CSV of N = M = 12, P = 129 took 141-144 ms that way and
# 123-126 ms after the raise.  Other allocators just free the chunk.
HEAP_RAISE_BYTES = 4 << 20


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
    # np.nonzero scans the mask once per axis; unravelling the few flat
    # indices is cheaper
    at = np.unravel_index(np.flatnonzero(slow), slow.shape)
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

    The grid's rows are evaluated (:meth:`FieldGrid.rows`) in blocks of
    about FIELD_BLOCK_VALUES samples a field, with e the energy density
    0.5 * ((s - f)**2 + p**2) and each column's force f taken from the
    segment whose traces p and s hold there
    (:meth:`FieldGrid.column_segments`); each block is formatted in blocks
    of about CSV_BLOCK_VALUES field values.  The records of x are made once
    per call and those of t once per formatting block; the five field
    values of a formatting block are copied into one array and formatted
    in one kernel call.  Memory stays at one block of each kind whatever
    the grid size.
    """
    np.empty(HEAP_RAISE_BYTES, np.uint8)      # freed at once; see HEAP_RAISE_BYTES
    nx = len(fg.x)
    rows = max(1, CSV_BLOCK_VALUES // (5 * nx))
    eval_rows = rows * max(1, FIELD_BLOCK_VALUES // (rows * nx))
    block = np.empty((rows, nx, 5))
    records = np.empty((rows, nx, 7, 3), _U64)
    _format_values(fg.x, records[0, :, 1], _COMMA)
    records[1:, :, 1] = records[0, :, 1]
    owner = fg.column_segments()
    for b_lo in range(lo, hi, eval_rows):
        b_hi = min(hi, b_lo + eval_rows)
        v, r, p, s = fg.rows(b_lo, b_hi)
        e = _energy_density(p, s, fg.f_seg[owner, b_lo:b_hi].T)
        for i in range(0, b_hi - b_lo, rows):
            n = min(rows, b_hi - b_lo - i)
            for col, arr in enumerate((v, r, p, s, e)):
                block[:n, :, col] = arr[i:i + n]
            _format_values(fg.t[b_lo + i:b_lo + i + n, None], records[:n, :1, 0], _CRLF)
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
