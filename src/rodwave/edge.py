"""Edge-constraint system over traveling waves and control jumps.

Every function-valued unknown lives on the reference interval
``[0, lambda]``: wave pieces ``w(side, k, m)`` for each segment k, side
(+1/-1) and even layer m, and jump pieces ``u(n, m)`` of the control
integrals at each interface n.  Matching the pieces across initial,
terminal, boundary and interelement mesh edges yields a linear system
whose coefficients are small integers and whose right-hand sides are
compositions of the prescribed state profiles with affine arguments.
The rows are index arrays built from the mesh formulas
(:class:`EdgeSystem`); a right-hand side names data keys
(:func:`data_keys`: a profile window of a segment, forward or reflected,
or a boundary constant) and free terminal constants, never data.

The system is eliminated exactly down to the affine parametrization
``w(z) = A y(z) + C_gamma gamma + g(z)`` in the surviving free functions
y and the per-segment free terminal constants gamma:

* Characteristic rows.  The sum and the difference of each interelement
  pair are transport relations along the two characteristics,
  ``2 w+(n-1, m+2) - 2 w+(n+1, m) = u(n, m)`` and
  ``2 w-(n-1, m) - 2 w-(n+1, m+2) = -u(n, m)``; the boundary rows have
  that form already, and the initial and terminal pairs give each data
  wave alone.
* Free set.  The paper's resolution scheme, in closed form
  (:func:`free_columns`): the interior jumps of layers 2..2M-4, and the
  central waves of layers 2..2M-2 for odd N, or for even N the '-' wave
  of k = +1 on layers 2..2M-2, the '+' wave of k = -1 on layers
  4..2M-2 and the '-' wave of k = -1 on layer 2M-2.
* Level substitution.  Every other entry is solved by one triangular
  substitution: a level takes every unused row with exactly one unsolved
  entry and solves all of them at once, with pivots +-1 or +-2.  At
  N = M there are N/2 + 3 levels (9 at N = 12, 35 at N = 64), and N + 2
  when M = 2.
* Proof on every build.  No two rows of a level solve one entry, no row
  or entry is left unsolved, every pivot is a power of two, every final
  coefficient is a multiple of 1/2, and the given rows hold exactly
  (W X - R is 0.0); any failure is an :class:`AssemblyError`.  Every
  value met is then a small dyadic rational, so the floats are exact.
* g's terms.  Each entry's data terms are the nonzeros of its row of
  data coefficients; :meth:`Parametrization.g_matrix` adds them up in
  the canonical key order of :func:`data_keys`, windows before
  constants.

Mesh-vertex continuity then becomes the two-point boundary condition
``B1 y(lambda) - B0 y(0) = B_gamma gamma + b0`` on the free functions,
with the vertex rows index arrays too (:class:`JunctionRows`).

Only the data parts depend on the state: the edge rows, their elimination
and :func:`boundary_structure` are built once per mesh, a state is bound by
:meth:`Parametrization.rebind`, and :func:`boundary_matrices` gathers its b0.

Sign conventions.  The dynamic potential is reconstructed as
``r = w_plus + (-1)*w_minus + u_k(t)`` on segment k, which is the choice
consistent with the constitutive split ``s = v_x + f`` and with the
interelement jump definition ``u_n = u_{n+1} - u_{n-1}``.  Under it the
left-boundary rows carry the additive constant ``-r0(-1)`` and the
right-boundary rows ``+r0(+1)``.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AssemblyError,
    ConfigurationError,
    InfeasibleError,
    InvalidArgumentError,
)
from .mesh import MeshConfig, counts
from .sampled import SampledFunction

DATA_NAMES = ("v0", "r0", "v1", "r1")


# ---------------------------------------------------------------------------
# Prescribed states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSpec:
    """Initial pair (v0, r0) and terminal pair (v1, r1) on [-1, 1].

    ``r1`` holds the terminal potential up to its free additive constants,
    which are always carried separately as optimization variables.
    Momentum profiles may be kept alongside for the finite-difference
    oracle.
    """

    v0: SampledFunction
    r0: SampledFunction
    v1: SampledFunction
    r1: SampledFunction
    p0: Optional[SampledFunction] = None
    p1: Optional[SampledFunction] = None

    def __post_init__(self):
        ref = self.v0
        for name in ("r0", "v1", "r1"):
            f = getattr(self, name)
            if f.p != ref.p or f.a != ref.a or f.b != ref.b:
                raise ConfigurationError(
                    f"state profile {name} is not on the same grid as v0"
                )
        if not (math.isclose(ref.a, -1.0) and math.isclose(ref.b, 1.0)):
            raise ConfigurationError("state profiles must live on [-1, 1]")

    @classmethod
    def from_callables(cls, mesh: MeshConfig, p: int, v0, r0, v1, r1,
                       grid: Optional[np.ndarray] = None) -> "StateSpec":
        """The four profiles sampled on one data grid of N*(p - 1) + 1
        samples of [-1, 1]: ``grid`` where the caller holds it (the
        per-mesh ``cli.SolveOperator.data_grid``), else
        ``linspace(-1, 1, N*(p - 1) + 1)``.  A profile may return a
        scalar; each value is f(x) + 0.0, so -0.0 is stored as 0.0."""
        pd = mesh.N * (p - 1) + 1
        x = np.linspace(-1.0, 1.0, pd) if grid is None else grid
        values = np.empty((len(DATA_NAMES), pd))
        for out, f in zip(values, (v0, r0, v1, r1)):
            np.add(f(x), 0.0, out=out)
        return cls(*(SampledFunction(-1.0, 1.0, row) for row in values))

    @classmethod
    def zero(cls, mesh: MeshConfig, p: int) -> "StateSpec":
        pd = mesh.N * (p - 1) + 1
        z = SampledFunction.zeros(-1.0, 1.0, pd)
        return cls(v0=z, r0=z, v1=z, r1=z, p0=z, p1=z)

    def grid_p(self, mesh: MeshConfig) -> int:
        """Per-piece sample count implied by the profile resolution."""
        pd = self.v0.p
        if (pd - 1) % mesh.N != 0:
            raise ConfigurationError(
                f"profile sample count {pd} does not align with N={mesh.N} segments"
            )
        p = (pd - 1) // mesh.N + 1
        if p < 5 or p % 2 == 0:
            raise ConfigurationError(
                f"per-piece sample count {p} must be odd and >= 5"
            )
        return p

    def arrays(self) -> dict:
        return {name: getattr(self, name).values for name in DATA_NAMES}

    def momentum_initial(self) -> SampledFunction:
        return self.p0 if self.p0 is not None else self.r0.derivative()

    def momentum_terminal(self) -> SampledFunction:
        return self.p1 if self.p1 is not None else self.r1.derivative()


# ---------------------------------------------------------------------------
# Unknown catalog and data keys
# ---------------------------------------------------------------------------


def wave_key(side: int, k: int, m: int):
    return ("w", side, k, m)


def jump_key(n: int, m: int):
    return ("u", n, m)


@dataclass(frozen=True)
class UnknownCatalog:
    """Deterministic bijection between function unknowns and column indices.

    Wave entries come first (k ascending, m ascending, '+' before '-'),
    then the control-jump entries (n ascending, m ascending).
    """

    mesh: MeshConfig
    entries: tuple
    index: dict = field(repr=False)

    @property
    def N_w(self) -> int:
        return 2 * (self.mesh.M + 1) * self.mesh.N

    @property
    def N_u(self) -> int:
        return self.mesh.M * (self.mesh.N + 1)

    @property
    def N_v(self) -> int:
        return len(self.entries)


def build_catalog(mesh: MeshConfig) -> UnknownCatalog:
    entries = []
    for k in mesh.J_s:
        for m in mesh.J_t:
            entries.append(wave_key(+1, k, m))
            entries.append(wave_key(-1, k, m))
    for n in mesh.J_x:
        for m in mesh.J_t[:-1]:
            entries.append(jump_key(n, m))
    index = {key: i for i, key in enumerate(entries)}
    return UnknownCatalog(mesh=mesh, entries=tuple(entries), index=index)


def _layout(mesh: MeshConfig) -> tuple:
    """The catalog columns as arrays: the waves [segment, layer, side
    (+ then -)] and the jumps [interface, layer], layers in ``J_t``
    order."""
    n_w = 2 * (mesh.M + 1) * mesh.N
    return (np.arange(n_w).reshape(mesh.N, mesh.M + 1, 2),
            np.arange(n_w, n_w + (mesh.N + 1) * mesh.M).reshape(mesh.N + 1, mesh.M))


# The boundary constants the edge rows read: r0 at x = -1 and at x = +1.
CONST_KEYS = (("r0", -1), ("r0", +1))


def data_keys(mesh: MeshConfig) -> tuple:
    """The data keys of the mesh in canonical order: the columns of the
    data coefficients, and the order in which g adds its terms up.

    Key (name, orient, shift) stands for ``name(orient*z + shift*lam/2)``,
    the window of segment k = shift + orient read forward (orient +1,
    shift k - 1) or reflected (orient -1, shift k + 1); key (name, end)
    stands for ``name(end)``.  For each profile of ``DATA_NAMES`` come the
    forward windows of every segment, k ascending, then the reflected
    ones; the boundary constants ``CONST_KEYS`` come last.  Reflecting
    z -> lambda - z swaps the two windows of a segment and keeps a
    constant."""
    return tuple((name, orient, k - orient) for name in DATA_NAMES
                 for orient in (+1, -1) for k in mesh.J_s) + CONST_KEYS


def _n_windows(mesh: MeshConfig) -> int:
    """The number of window keys of :func:`data_keys`; the constants follow."""
    return 2 * len(DATA_NAMES) * mesh.N


# ---------------------------------------------------------------------------
# Edge rows and system
# ---------------------------------------------------------------------------

EDGE_KINDS = ("initial_v", "initial_r", "terminal_v", "terminal_r",
              "boundary_left", "boundary_right", "inter_v", "inter_r")
# eliminate adds and subtracts the i-th row of the first kind of a pair
# and the i-th row of the second, which share their waves
_PAIRED_KINDS = (("initial_v", "initial_r"), ("terminal_v", "terminal_r"),
                 ("inter_v", "inter_r"))


@dataclass(frozen=True, eq=False)
class EdgeSystem:
    """The edge rows of one mesh as index arrays; they hold no state.

    Term t is ``coef[t] * entry[t](z)`` in row ``row[t]``, read at the
    reflected argument lambda - z where ``orient[t]`` is -1 (the '-'
    waves of the initial and terminal rows); the terms are sorted by row,
    each row's in its own order.  Row r is of kind ``EDGE_KINDS[kind[r]]``.
    The right-hand side of row ``rhs_row[i]`` holds ``rhs_coef[i]`` times
    column ``rhs_col[i]``: column j < N is the free terminal constant of
    segment ``J_s[j]``, column N + q the data key q of :func:`data_keys`.
    """

    mesh: MeshConfig
    catalog: UnknownCatalog
    kind: np.ndarray = field(repr=False)
    row: np.ndarray = field(repr=False)
    entry: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    orient: np.ndarray = field(repr=False)
    rhs_row: np.ndarray = field(repr=False)
    rhs_col: np.ndarray = field(repr=False)
    rhs_coef: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return len(self.kind)

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """Integer coefficient matrix C (orientations not represented)."""
        c = np.zeros((self.n_rows, self.catalog.N_v), dtype=int)
        c[self.row, self.entry] = self.coef
        return c


def assemble_edge_constraints(mesh: MeshConfig) -> EdgeSystem:
    """Build all N_e edge rows of the mesh, straight from the mesh
    formulas, in this order: per segment k an initial_v and an initial_r
    row, then per segment a terminal_v and a terminal_r row, per layer
    m < 2M a boundary_left and a boundary_right row, and per interior
    interface n and layer m < 2M an inter_v and an inter_r row::

        initial_v    w+(k, 0)(z) + w-(k, 0)(lam - z) = v0(z + (k-1) lam/2)
        initial_r    w+(k, 0)(z) - w-(k, 0)(lam - z) = r0(z + (k-1) lam/2)
        terminal_v   the same at layer 2M with v1
        terminal_r   the same at layer 2M with r1, plus gamma_k
        boundary_l   w-(1-N, m+2) - w+(1-N, m) - u(-N, m) = -r0(-1)
        boundary_r   w+(N-1, m+2) - w-(N-1, m) - u(N, m)  = r0(+1)
        inter_v      w+(n-1, m+2) + w-(n-1, m) - w+(n+1, m) - w-(n+1, m+2) = 0
        inter_r      w+(n-1, m+2) - w-(n-1, m) - w+(n+1, m) + w-(n+1, m+2)
                     - u(n, m) = 0

    Each term's entries are a slice of the catalog layout: waves
    [segment, layer, side], jumps [interface, layer].
    """
    N, M = mesh.N, mesh.M
    cat = build_catalog(mesh)
    wave, jump = _layout(mesh)
    n_rows = counts(N, M).N_e
    kind = np.zeros(n_rows, np.intp)
    ents, coefs = np.zeros((n_rows, 5), np.intp), np.zeros((n_rows, 5), np.intp)
    orients = np.ones((n_rows, 5), np.intp)
    rhs_cols, rhs_coefs = np.zeros((n_rows, 2), np.intp), np.zeros((n_rows, 2), np.intp)

    def rows(first: int, name: str, terms, rhs=()) -> None:
        """Write rows first, first + 2, ... of kind ``name`` from
        ``terms`` (entries, coef, orient) and ``rhs`` (columns, coef)."""
        block = slice(first, first + 2 * len(terms[0][0]), 2)
        kind[block] = EDGE_KINDS.index(name)
        for j, (ent, coef, orient) in enumerate(terms):
            ents[block, j], coefs[block, j], orients[block, j] = ent, coef, orient
        for j, (col, coef) in enumerate(rhs):
            rhs_cols[block, j], rhs_coefs[block, j] = col, coef

    def forward(name):
        """The right-hand-side columns of the forward windows of ``name``."""
        return N + 2 * N * DATA_NAMES.index(name) + np.arange(N)

    for start, layer, names, kinds in (
            (0, 0, ("v0", "r0"), ("initial_v", "initial_r")),
            (2 * N, M, ("v1", "r1"), ("terminal_v", "terminal_r"))):
        plus, minus = wave[:, layer, 0], wave[:, layer, 1]
        rows(start, kinds[0], [(plus, 1, +1), (minus, 1, -1)], [(forward(names[0]), 1)])
        rows(start + 1, kinds[1], [(plus, 1, +1), (minus, -1, -1)],
             [(forward(names[1]), 1)] + ([(np.arange(N), 1)] if layer else []))
    r0_left = N + _n_windows(mesh)                # the columns of CONST_KEYS
    rows(4 * N, "boundary_left", [(wave[0, 1:, 1], 1, +1), (wave[0, :-1, 0], -1, +1),
                                  (jump[0], -1, +1)], [(r0_left, -1)])
    rows(4 * N + 1, "boundary_right", [(wave[-1, 1:, 0], 1, +1), (wave[-1, :-1, 1], -1, +1),
                                       (jump[-1], -1, +1)], [(r0_left + 1, 1)])
    # interface n = J_x[i] lies between segments i - 1 and i
    waves = [a.ravel() for a in (wave[:-1, 1:, 0], wave[:-1, :-1, 1],
                                 wave[1:, :-1, 0], wave[1:, 1:, 1])]
    start = 4 * N + 2 * M
    rows(start, "inter_v", [(e, c, +1) for e, c in zip(waves, (1, 1, -1, -1))])
    rows(start + 1, "inter_r", [(e, c, +1) for e, c in zip(waves, (1, -1, -1, 1))]
         + [(jump[1:-1].ravel(), -1, +1)])
    keep, rhs_keep = coefs.ravel() != 0, rhs_coefs.ravel() != 0
    return EdgeSystem(
        mesh=mesh, catalog=cat, kind=kind,
        row=np.repeat(np.arange(n_rows), 5)[keep], entry=ents.ravel()[keep],
        coef=coefs.ravel()[keep], orient=orients.ravel()[keep],
        rhs_row=np.repeat(np.arange(n_rows), 2)[rhs_keep],
        rhs_col=rhs_cols.ravel()[rhs_keep], rhs_coef=rhs_coefs.ravel()[rhs_keep])


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    reason: Optional[str] = None


def feasibility_check(N: int, M: int) -> Feasibility:
    """M = 1 cannot steer arbitrary states: T = lambda is below the minimal
    controllability time, and the interelement rows then tie functions that
    are already fixed by the initial and terminal data.

    ``tests/test_solvability.py`` checks the rule on the rows, N in 1..32:
    full row rank for M = 2 and 3, contradictory rows for M = 1."""
    if N < 1 or M < 1:
        raise InvalidArgumentError("N and M must be >= 1")
    if M == 1:
        return Feasibility(False, (
            "horizon T = lambda (M = 1) is shorter than the minimal "
            "controllability time; generic initial/terminal pairs admit "
            "no solution (variable surplus N_s = N*M + M - 2N <= 0 "
            "for N > 1)"))
    return Feasibility(True)


# ---------------------------------------------------------------------------
# Exact elimination to the affine parametrization
# ---------------------------------------------------------------------------


class Parametrization:
    """Affine map w(z) = A y(z) + C_gamma gamma + g(z) over all entries.

    ``gamma`` collects one free terminal-potential constant per segment
    (the terminal state fixes the potential only up to such constants).
    A and C_gamma are exact: every entry is a multiple of 1/2, held as a
    float.  g is the data part: entry ``data_entry[i]`` holds
    ``data_coef[i]`` times the data key ``data_keys(mesh)[data_key[i]]``
    (:func:`data_keys`), the nonzero data coefficients entry by entry, an
    entry's keys ascending.  g is sampled against the bound state profiles
    by one gather of every term (:meth:`g_matrix`), whose indices depend
    only on the mesh and p.

    ``wave_index[side, seg, piece]`` is the catalog entry of wave piece
    (side + then -, segment ``J_s[seg]``, layer ``J_t[piece]``) and
    ``jump_index[i, piece]`` that of jump piece (``J_x[i]``,
    ``J_t[piece]``), so one gather of the sampled entries gives every wave
    or every jump piece of a state as one stack.

    :func:`eliminate` returns the map bound to no state (``state`` is
    None); :meth:`rebind` binds one, and only a bound map has a data part
    (:attr:`bound_state`).
    """

    def __init__(self, mesh, catalog, free_map, A, C_gamma, data):
        self.mesh = mesh
        self.catalog = catalog
        self.state: Optional[StateSpec] = None
        self.free_map = tuple(free_map)       # y index -> catalog key
        self.gamma_map = tuple(mesh.J_s)      # gamma index -> segment k
        self.A = _read_only(A)                # shared by every rebound copy
        self.C_gamma = _read_only(C_gamma)
        self.data_entry, self.data_key, self.data_coef = (_read_only(a) for a in data)
        # every data term, slot-major: slot s holds the s-th term (in key
        # order) of every entry that has one, the entries ordered by their
        # number of terms, most first, so that slot s is the first n_s
        # entries of slot 0 (see g_matrix)
        place = np.arange(len(self.data_entry)) - np.searchsorted(self.data_entry,
                                                                  self.data_entry)
        count = np.bincount(self.data_entry, minlength=catalog.N_v)
        by_count = np.argsort(-count, kind="stable")
        rank = np.empty_like(by_count)
        rank[by_count] = np.arange(len(by_count))
        order = np.lexsort((rank[self.data_entry], place))
        keys = self.data_key[order]
        n_win = _n_windows(mesh)
        win = keys < n_win
        q = np.minimum(keys, n_win - 1)
        # window terms: profile, orientation and shift of the key; constant
        # terms: orientation 0, and shift the index into CONST_KEYS
        orients = np.where(win, np.where(q // mesh.N % 2, -1, 1), 0)
        self._g_terms = [
            np.where(win, q // (2 * mesh.N), 0), orients,
            np.where(win, 2 * (q % mesh.N) + 1 - mesh.N - orients, keys - n_win),
            _read_only(self.data_coef[order, None])]
        self._g_target = _read_only(by_count[:np.count_nonzero(count)])
        self._g_widths = tuple(np.bincount(place).tolist())
        wave, jump = _layout(mesh)
        self.wave_index = _read_only(wave.transpose(2, 0, 1))
        self.jump_index = _read_only(jump)
        # p -> the data indices of g's slots (_g_gathers): one dict,
        # shared by every rebound copy, whenever that copy is made
        self._g_indices: dict = {}
        self._g_cache: dict = {}

    def rebind(self, state: StateSpec) -> "Parametrization":
        """The same parametrization bound to ``state``, a state on its mesh.

        A, C_gamma and the data coefficients depend only on the mesh, so
        they are shared; the data part g is evaluated afresh for ``state``.
        A state whose samples do not align with the mesh's segments raises
        :class:`ConfigurationError` (:meth:`StateSpec.grid_p`).
        """
        state.grid_p(self.mesh)
        par = copy.copy(self)
        par.state = state
        par._g_cache = {}
        return par

    @property
    def bound_state(self) -> StateSpec:
        """The state this map is bound to; an unbound map raises
        :class:`InvalidArgumentError`."""
        if self.state is None:
            raise InvalidArgumentError(
                "the parametrization is bound to no state; bind one with rebind(state)")
        return self.state

    @property
    def n_free(self) -> int:
        return len(self.free_map)

    @property
    def n_gamma(self) -> int:
        return len(self.gamma_map)

    @functools.cached_property
    def ata(self) -> np.ndarray:
        """A_w^T A_w, A_w the wave rows of A, read-only.  A has entries in
        1/2 Z, so every sum is exact in any order and the product has the
        same bits at any BLAS thread count.  Formed once per mesh: a copy
        made by :meth:`rebind` after the first use shares it."""
        a_w = self.A[:self.catalog.N_w]
        ata = a_w.T @ a_w
        ata.setflags(write=False)
        return ata

    def g_matrix(self, p: int) -> np.ndarray:
        """Data part g(z) for every entry, sampled on the p-point z-grid.

        A term reads p consecutive samples of one profile, forward or
        reflected, or p copies of a boundary constant, so every term is a
        row of one sliding-window view of the state's data laid out by
        :meth:`_g_gathers`: one gather of every term's row, scaled by its
        coefficient, in slot-major order.  Every entry then adds its terms
        up from 0.0 in key order (:func:`data_keys`: windows before
        constants), as a term-by-term loop over the entry's keys would:
        the entries are ordered by their number of terms, so slot s is a
        leading block of the entries that have data, added in place.  A
        mesh with many more terms than entries is gathered a few slots at
        a time, so the gathered terms stay within twice the size of g.
        """
        if p not in self._g_cache:
            state = self.bound_state
            pd = self.mesh.N * (p - 1) + 1
            if state.v0.p != pd:
                raise ConfigurationError(
                    f"state resolution {state.v0.p} does not match grid p={p}")
            rows, chunks, const_at = self._g_indices.get(p) or self._g_gathers(p)
            length = len(DATA_NAMES) * pd
            data = np.empty(2 * length + len(const_at) * p)
            np.concatenate([getattr(state, name).values for name in DATA_NAMES],
                           out=data[:length])
            data[length:2 * length] = data[length - 1::-1]
            data[2 * length:].reshape(len(const_at), p)[...] = data[const_at, None]
            # row r is data[r:r + p]
            windows = np.ndarray((len(data) - p + 1, p), data.dtype, data, 0, 2 * data.strides)
            coefs = self._g_terms[3]
            sums = np.zeros((len(self._g_target), p))
            for lo, hi, widths in chunks:
                terms = windows[rows[lo:hi]]
                terms *= coefs[lo:hi]
                at = 0
                for width in widths:
                    sums[:width] += terms[at:at + width]
                    at += width
            g = np.zeros((self.catalog.N_v, p))
            g[self._g_target] = sums
            self._g_cache[p] = g
        return self._g_cache[p]

    def _g_gathers(self, p: int) -> tuple:
        """The gathers of g on the p-point z-grid: the data row of every
        term, slot-major (``_g_terms``), the chunks the terms are gathered
        in, as (first term, end, entries per slot), and the data index of
        each boundary constant of ``CONST_KEYS``.

        The data are the four profiles of N*(p - 1) + 1 samples laid end to
        end in ``DATA_NAMES`` order, L samples, then the same reversed, so a
        reflected window (orient -1) starting at sample i is the forward
        one starting at 2L - 1 - i, then p copies of each boundary
        constant.  They depend only on the mesh and p, so they are built
        and bounds-checked once and shared by every rebound copy; a window
        that leaves its profile raises :class:`AssemblyError`."""
        if p not in self._g_indices:
            names, orients, shifts, _ = self._g_terms
            pd = self.mesh.N * (p - 1) + 1
            length = len(DATA_NAMES) * pd
            half = (p - 1) // 2                  # lam/2 in data samples
            center = self.mesh.N * (p - 1) // 2  # x = 0 in data samples
            win = orients != 0
            starts = center + shifts * half
            ends = starts + orients * (p - 1)
            bad = win & ((np.minimum(starts, ends) < 0) | (np.maximum(starts, ends) > pd - 1))
            if np.any(bad):
                raise AssemblyError("data window out of range for "
                                    f"{DATA_NAMES[names[np.argmax(bad)]]}")
            first = names * pd + starts
            rows = np.where(win, np.where(orients > 0, first, 2 * length - 1 - first),
                            2 * length + shifts * p)
            # whole slots, at most max(2 * N_v, one slot) terms a chunk
            budget = max([2 * self.catalog.N_v] + list(self._g_widths))
            chunks, lo, widths = [], 0, []
            for width in self._g_widths:
                if sum(widths) + width > budget:
                    chunks.append((lo, lo + sum(widths), tuple(widths)))
                    lo, widths = lo + sum(widths), []
                widths.append(width)
            chunks.append((lo, lo + sum(widths), tuple(widths)))
            const_at = [DATA_NAMES.index(name) * pd + (0 if end < 0 else pd - 1)
                        for name, end in CONST_KEYS]
            self._g_indices[p] = (_read_only(rows), tuple(chunks), _read_only(np.array(const_at)))
        return self._g_indices[p]

    def entry_values(self, y: np.ndarray, gamma: np.ndarray,
                     ay: Optional[np.ndarray] = None) -> np.ndarray:
        """Sampled values of every catalog entry for free samples y (N_s, p):
        (A y + C_gamma gamma) + g, summed in place in the product A y, which
        is ``ay`` where the caller has formed it (and is then overwritten)."""
        p = y.shape[1]
        gamma = np.asarray(gamma, dtype=float)
        out = self.A @ y if ay is None else ay
        out += (self.C_gamma @ gamma)[:, None]
        out += self.g_matrix(p)
        return out


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: per-mesh data every state shares."""
    arr.setflags(write=False)
    return arr


def _by_place(ids: np.ndarray, *fields) -> list:
    """The items in slots: slot s holds the s-th item of every run of
    equal ``ids`` (sorted ids), as ``ids`` and each of ``fields`` sliced."""
    place = np.arange(len(ids)) - np.searchsorted(ids, ids)
    order = np.argsort(place, kind="stable")
    bounds = np.searchsorted(place[order], np.arange(place.max(initial=-1) + 2))
    cols = [ids[order]] + [f[order] for f in fields]
    return [[c[lo:hi] for c in cols] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _combine(keys: np.ndarray, vals: np.ndarray) -> tuple:
    """The sums of ``vals`` over equal ``keys``: the keys whose sum is not
    0, ascending, and their sums."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    if not len(keys):
        return keys, vals
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(vals, starts)
    nonzero = sums != 0
    return keys[starts][nonzero], sums[nonzero]


def free_columns(mesh: MeshConfig) -> np.ndarray:
    """Catalog columns of the free functions y, ascending: the paper's
    resolution scheme, in ``J_t`` layer indices.

    Every interior jump u(n, m) for m = 2..2M-4 is free.  For odd N so are
    the central waves w+(0, m) and w-(0, m) for m = 2..2M-2; for even N
    the waves w-(+1, m) for m = 2..2M-2, w+(-1, m) for m = 4..2M-2 and
    w-(-1, 2M-2).  That is N_s = N*M + M - 2N functions."""
    N, M = mesh.N, mesh.M
    wave, jump = _layout(mesh)
    c = N // 2                      # the segment of k = 0 (odd N) or k = +1
    if N % 2:
        waves = [wave[c, 1:M].ravel()]
    else:
        waves = [wave[c, 1:M, 1], wave[c - 1, 2:M, 0], wave[c - 1, M - 1:M, 1]]
    return np.sort(np.concatenate([jump[1:-1, 1:M - 1].ravel()] + waves))


def _characteristic_rows(system: EdgeSystem) -> tuple:
    """The rows :func:`eliminate` solves: for each pair of
    ``_PAIRED_KINDS``, the sum of the i-th rows of the two kinds (in the
    place of the first) and their difference (in the place of the second),
    and every other row as it is.  On the interior pairs they are the
    transport relations along the two characteristics,

        2 w+(n-1, m+2) - 2 w+(n+1, m) = u(n, m)
        2 w-(n-1, m) - 2 w-(n+1, m+2) = -u(n, m),

    and on the initial and terminal pairs 2 w+ and 2 w-(lam - z) equal
    the sum and the difference of the data.  Returns (row, entry, coef,
    orient) of the terms, sorted by row, and (row, column, coef) of the
    right-hand sides, the coefficients as floats and the terms that
    cancel dropped."""
    n_v = system.catalog.N_v
    by_kind = np.argsort(system.kind, kind="stable")
    bounds = np.cumsum([0] + np.bincount(system.kind, minlength=len(EDGE_KINDS)).tolist())
    sum_row = np.arange(system.n_rows)         # each row's copy with sign +1
    diff_row = np.zeros(system.n_rows, np.intp)
    diff_sign = np.zeros(system.n_rows)        # and its copy with this sign
    for first, second in _PAIRED_KINDS:
        i, j = EDGE_KINDS.index(first), EDGE_KINDS.index(second)
        a, b = by_kind[bounds[i]:bounds[i + 1]], by_kind[bounds[j]:bounds[j + 1]]
        if len(a) != len(b):
            raise AssemblyError(f"{len(a)} {first} rows do not pair with "
                                f"{len(b)} {second} rows")
        sum_row[b] = a
        diff_row[a] = diff_row[b] = b
        diff_sign[a], diff_sign[b] = 1.0, -1.0

    def copies(rows, cols, coefs):
        """The key (new row, column) and coefficient of every copy."""
        two = np.flatnonzero(diff_sign[rows])
        return (np.concatenate([sum_row[rows], diff_row[rows[two]]]),
                np.concatenate([cols, cols[two]]),
                np.concatenate([coefs, coefs[two] * diff_sign[rows[two]]]))

    rows, cols, coefs = copies(system.row, 2 * system.entry + (system.orient < 0),
                               system.coef.astype(float))
    keys, coefs = _combine(rows * 2 * n_v + cols, coefs)
    n_cols = system.mesh.N + _n_windows(system.mesh) + len(CONST_KEYS)
    rows, cols, rhs = copies(system.rhs_row, system.rhs_col, system.rhs_coef.astype(float))
    rhs_keys, rhs = _combine(rows * n_cols + cols, rhs)
    return (keys // (2 * n_v), keys // 2 % n_v, coefs, 1 - 2 * (keys % 2),
            rhs_keys // n_cols, rhs_keys % n_cols, rhs)


def _reflected(cols: np.ndarray, vals: np.ndarray, n_s: int, N: int) -> np.ndarray:
    """The columns (free functions, gamma, data keys) of row terms read at
    lambda - z: a window key becomes the other window of its segment, a
    constant or gamma stays, and a free function raises."""
    if np.any((cols < n_s) & (vals != 0.0)):
        raise AssemblyError("a free function is read at the reflected argument")
    q = cols - (n_s + N)
    return np.where((q >= 0) & (q < 8 * N), cols + np.where(q // N % 2, -N, N), cols)


def _schedule(n_v: int, free: np.ndarray, row: np.ndarray, entry: np.ndarray) -> tuple:
    """Levels of the substitution: level l takes every row not yet used
    with exactly one unsolved entry, its pivot.  Returns the entries each
    level solves (its rows ascending), and each row's level, pivot term
    and place in its level.  Two rows of a level with one pivot entry, or
    rows and entries left unsolved, raise :class:`AssemblyError`."""
    n_rows = int(row[-1]) + 1 if len(row) else 0
    unsolved = np.ones(n_v, bool)
    unsolved[free] = False
    n_unsolved = n_v - len(free)
    waiting = np.ones(n_rows, bool)
    level, pivot, place = (np.zeros(n_rows, np.intp) for _ in range(3))
    targets = []
    while n_unsolved:
        is_open = unsolved[entry]
        ready = waiting & (np.bincount(row, is_open, n_rows) == 1)
        piv = np.flatnonzero(is_open & ready[row])     # one term per ready row
        if not len(piv):
            break
        ents = entry[piv]
        unsolved[ents] = False
        n_unsolved -= len(ents)
        if np.count_nonzero(unsolved) != n_unsolved:
            raise AssemblyError("two edge rows of one level solve the same entry")
        rows = row[piv]
        waiting[rows] = False
        level[rows], pivot[rows], place[rows] = len(targets), piv, np.arange(len(piv))
        targets.append(ents)
    if n_unsolved or waiting.any():
        raise AssemblyError(
            f"the edge rows are not triangular over the free functions: "
            f"{np.count_nonzero(waiting)} rows and {n_unsolved} entries are left unsolved")
    return targets, level, pivot, place


def eliminate(system: EdgeSystem) -> Parametrization:
    """Resolve the edge system exactly, returning the parametrization,
    bound to no state.

    The free functions are the closed-form set of :func:`free_columns`.
    Every other entry is solved by one triangular substitution over the
    rows of :func:`_characteristic_rows`, level by level
    (:func:`_schedule`): each level solves all of its pivots at once,
    pivot = (R - the other terms) / pivot coefficient.  An entry's
    solution is a sparse row over the columns (free functions, gamma,
    data keys), held padded to a common width while the levels run; a
    row read at the reflected argument lambda - z maps each window key to
    the other window of its segment (:func:`_reflected`).

    The arithmetic is in floats, and every build proves it exact: a level
    in which two rows solve one entry, rows or entries left unsolved (the
    rows are not triangular over the free set), a pivot whose magnitude
    is not a power of two, a final coefficient of A, C_gamma or the data
    that is not a multiple of 1/2, and an edge row of ``system`` that the
    solution does not satisfy exactly (:func:`_check_rows`) each raise
    :class:`AssemblyError`.
    """
    mesh = system.mesh
    if mesh.M == 1:
        raise InfeasibleError(feasibility_check(mesh.N, mesh.M).reason)
    cat = system.catalog
    n_v, N = cat.N_v, mesh.N
    free = free_columns(mesh)
    n_s = len(free)
    data0 = n_s + N                       # the first data-key column
    width = data0 + _n_windows(mesh) + len(CONST_KEYS)
    ents, cols, vals = _solve_levels(system, free, width)
    off = np.flatnonzero(np.mod(2.0 * vals, 1.0) != 0.0)      # NaN and inf too
    if len(off):
        col = cols[off[0]]
        what = "A" if col < n_s else "C_gamma" if col < data0 else "data"
        raise AssemblyError(f"{what} coefficient {float(vals[off[0]])!r} is not a multiple "
                            f"of 1/2; the float elimination would not be exact")
    _check_rows(system, ents, cols, vals, n_s, width)
    in_a, in_data = cols < n_s, cols >= data0
    in_c = ~in_a & ~in_data
    a_mat = np.zeros((n_v, n_s))
    a_mat[ents[in_a], cols[in_a]] = vals[in_a]
    c_mat = np.zeros((n_v, N))
    c_mat[ents[in_c], cols[in_c] - n_s] = vals[in_c]
    free_map = [cat.entries[c] for c in free]
    return Parametrization(mesh, cat, free_map, a_mat, c_mat,
                           (ents[in_data], cols[in_data] - data0, vals[in_data]))


def _solve_levels(system: EdgeSystem, free: np.ndarray, width: int) -> tuple:
    """Every entry's row over the columns (free functions, then gamma,
    then data keys) by the level substitution of :func:`eliminate`: the
    nonzeros (entry, column, value), entries ascending and each entry's
    columns ascending."""
    n_v, N, n_s = system.catalog.N_v, system.mesh.N, len(free)
    row, entry, coef, orient, rhs_row, rhs_col, rhs_coef = _characteristic_rows(system)
    targets, level, pivot, place = _schedule(n_v, free, row, entry)
    p_coef, p_orient = coef[pivot], orient[pivot]
    bad = np.frexp(np.abs(p_coef))[0] != 0.5
    if bad.any():
        raise AssemblyError(f"pivot {float(p_coef[bad][0])!r} is not a power of two; "
                            f"the float elimination would not be exact")

    # the other terms and the right-hand sides, level by level, keyed by
    # (place, column) and scaled by 1 / pivot coefficient
    known = np.flatnonzero(np.arange(len(row)) != pivot[row])
    known = known[np.argsort(level[row[known]], kind="stable")]
    known_ents = entry[known]
    known_base = (place[row[known]] * width)[:, None]
    known_factor = (-coef[known] / p_coef[row[known]])[:, None]
    known_flip = orient[known] != p_orient[row[known]]
    rhs = np.argsort(level[rhs_row], kind="stable")
    rhs_keys = rhs_col[rhs] + n_s
    flip = p_orient[rhs_row[rhs]] < 0
    rhs_keys[flip] = _reflected(rhs_keys[flip], rhs_coef[rhs][flip], n_s, N)
    rhs_keys += place[rhs_row[rhs]] * width
    rhs_vals = rhs_coef[rhs] / p_coef[rhs_row[rhs]]
    steps = np.arange(len(targets) + 1)
    bounds = np.searchsorted(level[row[known]], steps).tolist()
    rhs_bounds = np.searchsorted(level[rhs_row[rhs]], steps).tolist()
    flips = (np.bincount(level[row[known[known_flip]]], minlength=len(targets)) > 0).tolist()

    x_cols = np.zeros((n_v, 16), np.intp)
    x_vals = np.zeros((n_v, 16))
    x_cols[free, 0], x_vals[free, 0] = np.arange(n_s), 1.0
    for lev, ents in enumerate(targets):
        k = slice(bounds[lev], bounds[lev + 1])
        r = slice(rhs_bounds[lev], rhs_bounds[lev + 1])
        cols, vals = x_cols[known_ents[k]], x_vals[known_ents[k]] * known_factor[k]
        if flips[lev]:
            flip = known_flip[k]
            cols[flip] = _reflected(cols[flip], vals[flip], n_s, N)
        sums = np.bincount(np.concatenate([(cols + known_base[k]).ravel(), rhs_keys[r]]),
                           np.concatenate([vals.ravel(), rhs_vals[r]]), len(ents) * width)
        keys = np.flatnonzero(sums)
        at, cols = np.divmod(keys, width)
        slot = np.arange(len(keys)) - np.searchsorted(at, at)
        if slot.max(initial=0) >= x_cols.shape[1]:
            grow = max(x_cols.shape[1], int(slot.max()) + 1 - x_cols.shape[1])
            x_cols = np.concatenate([x_cols, np.zeros((n_v, grow), np.intp)], axis=1)
            x_vals = np.concatenate([x_vals, np.zeros((n_v, grow))], axis=1)
        x_cols[ents[at], slot], x_vals[ents[at], slot] = cols, sums[keys]
    ents, slot = np.nonzero(x_vals)
    return ents, x_cols[ents, slot], x_vals[ents, slot]


def _check_rows(system: EdgeSystem, ents: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                n_s: int, width: int) -> None:
    """Raise unless the edge rows of ``system`` hold exactly for the
    solved rows (entry, column, value), entries ascending: W X - R is 0.0
    in every column of every row.  Every value is a multiple of 1/2, so
    the sums are exact."""
    start = np.searchsorted(ents, np.arange(system.catalog.N_v + 1))
    lens = np.diff(start)[system.entry]
    term = np.repeat(np.arange(len(lens)), lens)
    idx = np.arange(len(term)) + np.repeat(start[system.entry] - np.cumsum(lens) + lens, lens)
    term_cols, term_vals = cols[idx], vals[idx] * system.coef[term]
    flip = system.orient[term] < 0
    term_cols[flip] = _reflected(term_cols[flip], term_vals[flip], n_s, system.mesh.N)
    keys, sums = _combine(
        np.concatenate([system.row[term] * width + term_cols,
                        system.rhs_row * width + system.rhs_col + n_s]),
        np.concatenate([term_vals, -system.rhs_coef.astype(float)]))
    if len(keys):
        bad = int(keys[0] // width)
        raise AssemblyError(f"edge row {bad} ({EDGE_KINDS[system.kind[bad]]}) does not hold "
                            f"exactly: residual {float(sums[0])!r}")


# ---------------------------------------------------------------------------
# Vertex conditions and essential boundary matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JunctionRows:
    """Junction rows ``sum coef * entry(at) = 0`` as index arrays.

    Term t is ``coef[t]`` times the value of catalog entry ``entry[t]``
    at z = 0 (``at[t]`` 0) or at z = lambda (``at[t]`` 1), in row
    ``row[t]``; the terms are sorted by row, a row's z = 0 term first.
    ``labels[r]`` names row r."""

    labels: tuple
    row: np.ndarray = field(repr=False)
    entry: np.ndarray = field(repr=False)
    at: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.labels)


def _junctions(labels: list, starts: list, ends: list) -> JunctionRows:
    """The rows ``start(0) - end(lambda) = 0`` of the catalog entries in
    ``starts`` and ``ends`` (lists of arrays); an end of -1 leaves the row
    ``start(0) = 0``."""
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    n = len(labels)
    keep = np.stack([np.ones(n, bool), ends >= 0], 1).ravel()
    return JunctionRows(
        labels=tuple(labels), row=np.repeat(np.arange(n), 2)[keep],
        entry=np.stack([starts, ends], 1).ravel()[keep],
        at=np.tile([0, 1], n)[keep], coef=np.tile([1, -1], n)[keep])


def assemble_vertex_conditions(mesh: MeshConfig) -> JunctionRows:
    """The complete vertex continuity rows: ``counts(N, M).N_r`` rows,
    independent, that span every junction of :func:`guard_rows` once the
    edge rows are eliminated.

    Odd N (N_b rows, as the paper prints them): junctions of the interior
    jump pieces plus all junctions of the central-segment waves (including
    the tie to the terminal data pieces).
    Even N (N_b + 1 rows): junctions of the interior jump pieces, the zero
    anchor of the central jump, and the junctions of the two
    central-adjacent free wave families, '+' on k = -1 and '-' on k = +1.
    The paper takes those families at m = 2..2M-2, but both m = 2 rows
    depend on the other rows, and that list spans three junctions short.
    Here the families take m = 4..2M (up to their ties to the terminal
    data pieces), and the terminal tie of the '-' wave on k = -1 is added:
    the three rows at m = 2M replace the two at m = 2.  That row count
    equals both the rank of these rows and the rank they reach with every
    junction row stacked behind them, for N in 1..16 x M in 2..10 (the
    tests) and at (24, 24), (32, 8) and (32, 32).
    """
    N, M, M2 = mesh.N, mesh.M, 2 * mesh.M
    wave, jump = _layout(mesh)
    labels = [("u", n, m) for n in mesh.interior_interfaces() for m in range(2, M2 - 1, 2)]
    starts, ends = [jump[1:-1, 1:].ravel()], [jump[1:-1, :-1].ravel()]
    c = N // 2                      # the segment of k = 0 (odd N) or k = +1
    if N % 2:
        labels += [("w", side, 0, m) for side in (+1, -1) for m in range(2, M2 + 1, 2)]
        starts.append(wave[c, 1:].T.ravel())
        ends.append(wave[c, :-1].T.ravel())
    else:
        labels.append(("u0",))
        labels += [("w", side, k, m) for side, k in ((+1, -1), (-1, +1))
                   for m in range(4, M2 + 1, 2)] + [("w", -1, -1, M2)]
        starts += [[jump[c, 0]], wave[c - 1, 2:, 0], wave[c, 2:, 1], [wave[c - 1, M, 1]]]
        ends += [[-1], wave[c - 1, 1:-1, 0], wave[c, 1:-1, 1], [wave[c - 1, M - 1, 1]]]
    rows = _junctions(labels, starts, ends)
    expected = counts(mesh.N, mesh.M).N_r
    if len(rows) != expected:
        raise AssemblyError(f"assembled {len(rows)} vertex rows, expected {expected}")
    return rows


def boundary_null_vector(vertex_rows: JunctionRows) -> np.ndarray:
    """The null vector z of G^T, G = [B1 - B0, -B_gamma] the coefficients
    of (alpha, gamma) in the essential rows of ``vertex_rows``
    (:func:`assemble_vertex_conditions`), read off the row labels: 1 on
    every wave junction row, +1/2 on the central zero anchor ``("u0",)``,
    -1/2 on every central jump junction ``("u", 0, m)``, 0 elsewhere.
    Odd N has neither jump label, and its wave rows are those of the
    central segment.  The entries are dyadic, so G^T z is exact in floats:
    :func:`boundary_structure` proves it 0 on every mesh it builds."""
    return np.array([1.0 if label[0] == "w" else 0.5 if label == ("u0",)
                     else -0.5 if label[:2] == ("u", 0) else 0.0
                     for label in vertex_rows.labels])


def guard_rows(mesh: MeshConfig) -> JunctionRows:
    """Every junction of every wave, every jump junction, and the zero
    start of every jump.

    The complete vertex rows span them all, so they are not solved:
    :meth:`BoundaryStructure.violated_junctions` checks them on each
    solution, where a violated one names data that contradict the solved
    rows.
    """
    M2 = 2 * mesh.M
    wave, jump = _layout(mesh)
    wave = wave.transpose(0, 2, 1)          # [segment, side, layer]
    labels = ([("guard_w", side, k, m) for k in mesh.J_s for side in (+1, -1)
               for m in range(2, M2 + 1, 2)]
              + [("guard_u", n, m) if m else ("guard_u0", n)
                 for n in mesh.J_x for m in range(0, M2 - 1, 2)])
    first = np.arange(jump.size) % mesh.M == 0
    return _junctions(labels, [wave[:, :, 1:].ravel(), jump.ravel()],
                      [wave[:, :, :-1].ravel(), np.where(first, -1, jump.ravel() - 1)])


# A junction row whose residual on a solution exceeds JUNCTION_TOL times the
# largest |end value| of any entry (at least 1) contradicts the solved rows.
JUNCTION_TOL = 1e-8




@dataclass(frozen=True)
class EssentialBC:
    """Boundary condition B1 y(lambda) - B0 y(0) = B_gamma gamma + b0 on
    the free functions, one row per complete vertex row.  The rows are
    independent by construction, so ``rank`` is their number, ``n_rows``;
    ``solver.ELSystem`` proves it once per mesh by a bounded condition
    number of the reduced system S, and a singular S raises there.
    ``B_gamma`` carries the coefficients of the per-segment free
    terminal constants.  ``n_assembled`` counts the solved rows plus the
    junction rows checked on the solution, and ``guard_rows_kept`` the
    solved rows outside the paper's printed vertex list (3 for even N, 0
    for odd N)."""

    B0: np.ndarray
    B1: np.ndarray
    b0: np.ndarray
    B_gamma: np.ndarray
    n_assembled: int
    guard_rows_kept: int

    @property
    def n_rows(self) -> int:
        return len(self.b0)

    @property
    def rank(self) -> int:
        return self.n_rows


@dataclass(frozen=True)
class BoundaryStructure:
    """The state-independent part of the essential rows of one mesh.

    ``B0``, ``B1`` and ``B_gamma`` are the homogeneous part of the solved
    rows, and ``z`` the null vector of G^T = [B1 - B0, -B_gamma]^T
    (:func:`boundary_null_vector`, unscaled).  ``slots`` gathers their
    data part: for each term slot, the rows that have a term there, its
    catalog entry, its end sample (0 or -1) and its coefficient.  ``checks`` gathers the rows of
    :func:`guard_rows` in the same form, and ``check_labels`` names them.
    """

    slots: tuple = field(repr=False)
    checks: tuple = field(repr=False)
    check_labels: tuple = field(repr=False)
    B0: np.ndarray = field(repr=False)
    B1: np.ndarray = field(repr=False)
    B_gamma: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)

    def violated_junctions(self, entries: np.ndarray) -> tuple:
        """(label, residual) of every junction row a solution violates, in
        :func:`guard_rows` order, from ``entries``, the sampled values of
        every catalog entry (:meth:`Parametrization.entry_values`).

        The rows are evaluated at the entry end values, columns 0 and -1
        of ``entries`` (z = 0 and z = lambda).  The solved rows span every
        junction, so a solution of consistent data satisfies them all to
        rounding; a row is violated when its |residual| exceeds
        ``JUNCTION_TOL`` * max(1, largest |end value| of any entry), or is
        NaN.
        """
        ends = entries[:, [0, -1]]
        res = np.zeros(len(self.check_labels))
        for rows, ents, at, coefs in self.checks:
            res[rows] += coefs * ends[ents, at]
        tol = JUNCTION_TOL * max(1.0, float(np.max(np.abs(ends))))
        return tuple((self.check_labels[i], float(res[i]))
                     for i in np.flatnonzero(~(np.abs(res) <= tol)))


def _end_slots(rows: JunctionRows) -> list:
    """Term slots of junction rows, the first and the second terms of the
    rows: (rows, entries, end sample 0 or -1, float coefficients)."""
    return _by_place(rows.row, rows.entry, -rows.at, rows.coef.astype(float))


def _end_gather(a: np.ndarray, rows: JunctionRows, at: int) -> np.ndarray:
    """coef * a[entry] of each row's term at end ``at`` (0 on a row with
    none), gathered straight into the result."""
    t = np.flatnonzero(rows.at == at)
    if np.bincount(rows.row[t], minlength=len(rows)).max(initial=0) > 1:
        raise AssemblyError(f"a junction row has two terms at z = {at} * lambda")
    src = np.zeros(len(rows), np.intp)
    coef = np.zeros(len(rows))
    src[rows.row[t]] = rows.entry[t]
    coef[rows.row[t]] = rows.coef[t]
    out = a.take(src, axis=0)
    out *= coef[:, None]
    return out


def boundary_structure(par: Parametrization, vertex_rows: JunctionRows) -> BoundaryStructure:
    """Rewrite the vertex rows through the parametrization, and gather the
    junction rows of :func:`guard_rows` that each solution is checked
    against.  Nothing here reads the state's data.

    A vertex row has one term at each end at most, so B0 and B1 are one
    gather of A's rows each, scaled in place: sum coef*entry(at) = 0 is
    B1 y(lam) - B0 y(0) = B_gamma gamma + b0, B1 = 0 + coef*A[entry at
    lambda] and B0 = 0 - coef*A[entry at 0], the bits of a sum that
    starts from 0.  G^T z, z the null vector of the rows' labels, is a
    sum of multiples of 1/4, so exact; an entry other than 0 raises
    :class:`AssemblyError`."""
    B1 = _end_gather(par.A, vertex_rows, 1)
    np.add(B1, 0.0, out=B1)                 # -0.0 + 0.0 is 0.0
    B0 = _end_gather(par.A, vertex_rows, 0)
    np.subtract(0.0, B0, out=B0)
    Bg = np.zeros((len(vertex_rows), par.n_gamma))
    slots = _end_slots(vertex_rows)
    for rows, ents, _, coefs in slots:
        Bg[rows] -= coefs[:, None] * par.C_gamma[ents]
    z = boundary_null_vector(vertex_rows)
    gtz = np.concatenate([B1.T @ z - B0.T @ z, -(Bg.T @ z)])
    if np.any(gtz != 0.0):
        col = int(np.flatnonzero(gtz != 0.0)[0])
        raise AssemblyError(f"column {col} of G^T z is {float(gtz[col])!r}, not 0, "
                            f"for the null vector z of the vertex labels")
    for mat in (B0, B1, Bg, z):
        mat.setflags(write=False)       # shared by the rows of every state
    checks = guard_rows(par.mesh)
    return BoundaryStructure(
        slots=tuple(slots), checks=tuple(_end_slots(checks)),
        check_labels=checks.labels, B0=B0, B1=B1, B_gamma=Bg, z=z)


def boundary_matrices(structure: BoundaryStructure, par: Parametrization) -> EssentialBC:
    """Essential rows of the state ``par`` is bound to: the matrices of
    ``structure`` (:func:`boundary_structure`) and the data part b0 of its
    solved rows, gathered from the state's g."""
    g = par.g_matrix(par.bound_state.grid_p(par.mesh))
    data = np.zeros(len(structure.B0))
    for rows, ents, ends, coefs in structure.slots:
        data[rows] += coefs * g[ents, ends]
    return EssentialBC(
        B0=structure.B0,
        B1=structure.B1,
        B_gamma=structure.B_gamma,
        b0=-data,
        n_assembled=len(data) + len(structure.check_labels),
        guard_rows_kept=0 if par.mesh.N % 2 else 3,   # see assemble_vertex_conditions
    )
