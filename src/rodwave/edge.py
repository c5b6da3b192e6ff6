"""Edge-constraint system over traveling waves and control jumps.

Every function-valued unknown lives on the reference interval
``[0, lambda]``: wave pieces ``w(side, k, m)`` for each segment k, side
(+1/-1) and even layer m, and jump pieces ``u(n, m)`` of the control
integrals at each interface n.  Matching the pieces across initial,
terminal, boundary and interelement mesh edges yields a linear system
whose coefficients are small integers and whose right-hand sides are
compositions of the prescribed state profiles with affine arguments.

The system is eliminated exactly down to the affine parametrization
``w(z) = A y(z) + C_gamma gamma + g(z)`` in the surviving free functions
y and the per-segment free terminal constants gamma (every coefficient
met on the way is a small dyadic rational, so the elimination runs in
floats without rounding; see :func:`eliminate` for the guards);
mesh-vertex continuity then becomes the two-point boundary condition
``B1 y(lambda) - B0 y(0) = B_gamma gamma + b0`` on the free functions.

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
    def from_callables(cls, mesh: MeshConfig, p: int, v0, r0, v1, r1) -> "StateSpec":
        pd = mesh.N * (p - 1) + 1
        make = lambda f: SampledFunction.from_vectorized(
            lambda x: np.asarray(f(x), dtype=float) + np.zeros_like(x), -1.0, 1.0, pd)
        return cls(v0=make(v0), r0=make(r0), v1=make(v1), r1=make(r1))

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
# Unknown catalog
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


# ---------------------------------------------------------------------------
# Data expressions (right-hand sides and eliminated entries)
# ---------------------------------------------------------------------------


class DataExpr:
    """Affine combination of data windows, boundary constants, and the
    free terminal constants.

    ``terms[(name, orient, shift)] = coef`` stands for
    ``coef * name(orient*z + shift*lam/2)``; ``consts[(name, end)] = coef``
    stands for ``coef * name(end)`` with end = +/-1; ``gammas[k]`` is the
    coefficient of segment k's free terminal-potential constant (the
    terminal potential is prescribed only up to a constant, and each
    segment carries its own because the control integrals shift it
    segment-wise at t = T).

    Coefficients are floats holding small dyadic rationals, so sums and
    products of them are exact.  The insertion order of each dict is the
    order in which :meth:`Parametrization.g_matrix` adds the terms up.
    """

    __slots__ = ("terms", "consts", "gammas")

    def __init__(self, terms=None, consts=None, gammas=None):
        self.terms = dict(terms or {})
        self.consts = dict(consts or {})
        self.gammas = dict(gammas or {})

    def copy(self) -> "DataExpr":
        return DataExpr(self.terms, self.consts, self.gammas)

    def add_scaled(self, other: "DataExpr", coef: float) -> None:
        if coef == 0:
            return
        for mine, theirs in ((self.terms, other.terms), (self.consts, other.consts),
                             (self.gammas, other.gammas)):
            for key, c in theirs.items():
                new = mine.get(key, 0.0) + coef * c
                if new == 0:
                    mine.pop(key, None)
                else:
                    mine[key] = new


# ---------------------------------------------------------------------------
# Edge rows and system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeRow:
    """One edge constraint: sum of coef * entry(orient*z ...) = rhs(z).

    ``terms`` holds (column, integer coef, orient); orient = -1 means the
    unknown is evaluated at the reflected argument lambda - z (this occurs
    only in initial and terminal rows, on the '-' wave).
    """

    kind: str
    label: tuple
    terms: tuple
    rhs: DataExpr


@dataclass(frozen=True)
class EdgeSystem:
    """The edge rows of one mesh.  Their right-hand sides are symbolic
    (:class:`DataExpr`), so the system holds no state."""

    mesh: MeshConfig
    catalog: UnknownCatalog
    rows: tuple

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """Integer coefficient matrix C (orientations not represented)."""
        c = np.zeros((len(self.rows), self.catalog.N_v), dtype=int)
        for i, row in enumerate(self.rows):
            for col, coef, _ in row.terms:
                c[i, col] = coef
        return c


def assemble_edge_constraints(mesh: MeshConfig) -> EdgeSystem:
    """Build all N_e edge rows of the mesh."""
    cat = build_catalog(mesh)
    ix = cat.index
    M2 = 2 * mesh.M
    rows = []

    one = 1.0
    for k in mesh.J_s:
        rows.append(EdgeRow(
            kind="initial_v", label=(k,),
            terms=((ix[wave_key(+1, k, 0)], 1, +1),
                   (ix[wave_key(-1, k, 0)], 1, -1)),
            rhs=DataExpr({("v0", +1, k - 1): one})))
        rows.append(EdgeRow(
            kind="initial_r", label=(k,),
            terms=((ix[wave_key(+1, k, 0)], 1, +1),
                   (ix[wave_key(-1, k, 0)], -1, -1)),
            rhs=DataExpr({("r0", +1, k - 1): one})))
    for k in mesh.J_s:
        rows.append(EdgeRow(
            kind="terminal_v", label=(k,),
            terms=((ix[wave_key(+1, k, M2)], 1, +1),
                   (ix[wave_key(-1, k, M2)], 1, -1)),
            rhs=DataExpr({("v1", +1, k - 1): one})))
        rows.append(EdgeRow(
            kind="terminal_r", label=(k,),
            terms=((ix[wave_key(+1, k, M2)], 1, +1),
                   (ix[wave_key(-1, k, M2)], -1, -1)),
            rhs=DataExpr({("r1", +1, k - 1): one}, gammas={k: one})))
    kl, kr = 1 - mesh.N, mesh.N - 1
    for m in mesh.J_t[:-1]:
        rows.append(EdgeRow(
            kind="boundary_left", label=(m,),
            terms=((ix[wave_key(-1, kl, m + 2)], 1, +1),
                   (ix[wave_key(+1, kl, m)], -1, +1),
                   (ix[jump_key(-mesh.N, m)], -1, +1)),
            rhs=DataExpr(consts={("r0", -1): -one})))
        rows.append(EdgeRow(
            kind="boundary_right", label=(m,),
            terms=((ix[wave_key(+1, kr, m + 2)], 1, +1),
                   (ix[wave_key(-1, kr, m)], -1, +1),
                   (ix[jump_key(mesh.N, m)], -1, +1)),
            rhs=DataExpr(consts={("r0", +1): one})))
    for n in mesh.interior_interfaces():
        for m in mesh.J_t[:-1]:
            rows.append(EdgeRow(
                kind="inter_v", label=(n, m),
                terms=((ix[wave_key(+1, n - 1, m + 2)], 1, +1),
                       (ix[wave_key(-1, n - 1, m)], 1, +1),
                       (ix[wave_key(+1, n + 1, m)], -1, +1),
                       (ix[wave_key(-1, n + 1, m + 2)], -1, +1)),
                rhs=DataExpr()))
            rows.append(EdgeRow(
                kind="inter_r", label=(n, m),
                terms=((ix[wave_key(+1, n - 1, m + 2)], 1, +1),
                       (ix[wave_key(-1, n - 1, m)], -1, +1),
                       (ix[wave_key(+1, n + 1, m)], -1, +1),
                       (ix[wave_key(-1, n + 1, m + 2)], 1, +1),
                       (ix[jump_key(n, m)], -1, +1)),
                rhs=DataExpr()))

    sc = counts(mesh.N, mesh.M)
    if len(rows) != sc.N_e:
        raise AssemblyError(f"assembled {len(rows)} rows, expected {sc.N_e}")
    return EdgeSystem(mesh=mesh, catalog=cat, rows=tuple(rows))


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
    float.  g is a per-entry :class:`DataExpr` sampled against the bound
    state profiles by a gather over term slots that depends only on the
    mesh.

    ``wave_index[side, seg, piece]`` is the catalog entry of wave piece
    (side + then -, segment ``J_s[seg]``, layer ``J_t[piece]``) and
    ``jump_index[i, piece]`` that of jump piece (``J_x[i]``,
    ``J_t[piece]``), so one gather of the sampled entries gives every wave
    or every jump piece of a state as one stack.

    :func:`eliminate` returns the map bound to no state (``state`` is
    None); :meth:`rebind` binds one, and only a bound map has a data part
    (:attr:`bound_state`).
    """

    def __init__(self, mesh, catalog, free_map, a_rows, g_exprs):
        self.mesh = mesh
        self.catalog = catalog
        self.state: Optional[StateSpec] = None
        self.free_map = tuple(free_map)       # y index -> catalog key
        self.g_exprs = tuple(g_exprs)
        self.gamma_map = tuple(mesh.J_s)      # gamma index -> segment k
        gamma_pos = {k: i for i, k in enumerate(self.gamma_map)}
        n_v, n_s = catalog.N_v, len(self.free_map)
        a_mat = np.zeros((n_v, n_s))
        c_mat = np.zeros((n_v, len(self.gamma_map)))
        for e, row in enumerate(a_rows):
            for j, c in row.items():
                a_mat[e, j] = c
            for k, c in g_exprs[e].gammas.items():
                c_mat[e, gamma_pos[k]] = c
        a_mat.setflags(write=False)           # shared by every rebound copy
        c_mat.setflags(write=False)
        self.A = a_mat
        self.C_gamma = c_mat
        name_pos = {name: i for i, name in enumerate(DATA_NAMES)}
        self._term_slots = _slots([
            [(name_pos[name], orient, shift, c)
             for (name, orient, shift), c in e.terms.items()] for e in self.g_exprs])
        self._const_slots = _slots([
            [(name_pos[name], 0 if end < 0 else -1, c)
             for (name, end), c in e.consts.items()] for e in self.g_exprs])
        # the catalog's order: waves (k, m, + before -), then jumps (n, m)
        n_w = catalog.N_w
        self.wave_index = _read_only(
            np.arange(n_w).reshape(mesh.N, mesh.M + 1, 2).transpose(2, 0, 1))
        self.jump_index = _read_only(np.arange(n_w, n_v).reshape(mesh.N + 1, mesh.M))
        # p -> the data indices of g's slots (_g_gathers): one dict,
        # shared by every rebound copy, whenever that copy is made
        self._g_indices: dict = {}
        self._g_cache: dict = {}

    def rebind(self, state: StateSpec) -> "Parametrization":
        """The same parametrization bound to ``state``, a state on its mesh.

        A, C_gamma and the data expressions depend only on the mesh, so
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

        Term slot by term slot, then const slot by const slot, one gather
        each: a term reads p consecutive samples of one profile, forward
        or reflected, so each slot gathers its terms' windows as rows of
        one sliding-window view of the four profiles laid end to end,
        then the same reversed (:meth:`_g_gathers`).  Every entry adds its
        terms up in its own dict order, as a term-by-term loop over the
        entry would.
        """
        if p not in self._g_cache:
            state = self.bound_state
            pd = self.mesh.N * (p - 1) + 1
            if state.v0.p != pd:
                raise ConfigurationError(
                    f"state resolution {state.v0.p} does not match grid p={p}")
            terms, consts = self._g_gathers(p)
            arrays = state.arrays()
            data = np.concatenate([arrays[name] for name in DATA_NAMES])
            data = np.concatenate([data, data[::-1]])
            # row r is data[r:r + p]
            windows = np.ndarray((len(data) - p + 1, p), data.dtype, data, 0, 2 * data.strides)
            g = np.zeros((self.catalog.N_v, p))
            for ents, rows, coefs in terms:
                g[ents] += coefs * windows[rows]
            for ents, flat, coefs in consts:
                g[ents] += (coefs * data[flat])[:, None]
            self._g_cache[p] = g
        return self._g_cache[p]

    def _g_gathers(self, p: int) -> tuple:
        """The term slots and the const slots of g on the p-point z-grid:
        (entries, first data index of each term's window, coefficients)
        and (entries, data index, coefficients).  The data are the four
        profiles of N*(p - 1) + 1 samples laid end to end in
        ``DATA_NAMES`` order, L samples, then the same reversed, so a
        reflected window (orient -1) starting at sample i is the forward
        one starting at 2L - 1 - i.  They depend only on the mesh and p,
        so they are built and bounds-checked once and shared by every
        rebound copy; a window that leaves its profile raises
        :class:`AssemblyError`."""
        if p not in self._g_indices:
            pd = self.mesh.N * (p - 1) + 1
            length = len(DATA_NAMES) * pd
            half = (p - 1) // 2                  # lam/2 in data samples
            center = self.mesh.N * (p - 1) // 2  # x = 0 in data samples
            terms = []
            for ents, names, orients, shifts, coefs in self._term_slots:
                starts = center + shifts * half
                ends = starts + orients * (p - 1)
                bad = (np.minimum(starts, ends) < 0) | (np.maximum(starts, ends) > pd - 1)
                if np.any(bad):
                    raise AssemblyError("data window out of range for "
                                        f"{DATA_NAMES[names[np.argmax(bad)]]}")
                first = names * pd + starts
                rows = np.where(orients > 0, first, 2 * length - 1 - first)
                terms.append((ents, _read_only(rows), _read_only(coefs[:, None])))
            consts = [(ents, _read_only(names * pd + ends % pd), coefs)
                      for ents, names, ends, coefs in self._const_slots]
            self._g_indices[p] = (tuple(terms), tuple(consts))
        return self._g_indices[p]

    def entry_values(self, y: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """Sampled values of every catalog entry for free samples y (N_s, p)."""
        p = y.shape[1]
        gamma = np.asarray(gamma, dtype=float)
        return (self.A @ y + (self.C_gamma @ gamma)[:, None]
                + self.g_matrix(p))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: per-mesh data every state shares."""
    arr.setflags(write=False)
    return arr


def _slots(item_lists) -> list:
    """Slot s gathers the s-th item of every list that has one: one array
    of the lists' positions, then one array per field of the items."""
    hits: list = []
    for i, items in enumerate(item_lists):
        for s, item in enumerate(items):
            if s == len(hits):
                hits.append([])
            hits[s].append((i, *item))
    return [[np.array(col) for col in zip(*slot)] for slot in hits]


def _pivot_priority(mesh: MeshConfig, catalog: UnknownCatalog) -> list:
    """Column order for pivot selection, mirroring the resolution scheme:
    boundary jumps, then first/last-layer interior jumps, then waves from
    the outermost segments inward, leaving central waves and middle-layer
    interior jumps free."""
    M2 = 2 * mesh.M
    order = []
    for m in mesh.J_t[:-1]:
        order.append(jump_key(-mesh.N, m))
        order.append(jump_key(mesh.N, m))
    for n in mesh.interior_interfaces():
        for m in dict.fromkeys((0, M2 - 2)):
            order.append(jump_key(n, m))
    mids = [m for m in mesh.J_t if m not in (0, M2)]
    for k in sorted(mesh.J_s, key=lambda k: (-abs(k), -k)):
        if k == 0:
            continue
        sides = (+1, -1) if k > 0 else (-1, +1)
        if abs(k) == 1 and mesh.N % 2 == 0:
            sides = (+1,) if k > 0 else (-1,)
        for side in sides:
            for m in mids:
                order.append(wave_key(side, k, m))
    # fallback tiers: central-adjacent waves, then middle interior jumps
    seen = set(order)
    for key in catalog.entries:
        if key not in seen and key[0] == "w" and key[3] not in (0, M2):
            order.append(key)
            seen.add(key)
    for key in catalog.entries:
        if key not in seen and key[0] == "u":
            order.append(key)
            seen.add(key)
    return [catalog.index[k] for k in order]


def _dyadic(values, what: str) -> None:
    """Raise unless every value is a multiple of 1/2, as every final
    coefficient of the elimination is."""
    vals = np.fromiter(values, dtype=float)
    off = vals[np.mod(2.0 * vals, 1.0) != 0.0]      # NaN and inf too
    if len(off):
        raise AssemblyError(f"{what} coefficient {float(off[0])!r} is not a multiple "
                            f"of 1/2; the float elimination would not be exact")


def eliminate(system: EdgeSystem) -> Parametrization:
    """Resolve the edge system exactly, returning the parametrization,
    bound to no state.

    Initial and terminal rows are solved in closed form first (half-sum /
    half-difference of the data, with the '-' waves reflected); the
    remaining rows couple unknowns at equal arguments only and are reduced
    by Gauss-Jordan elimination with a deterministic pivot order: each
    column of :func:`_pivot_priority` pivots on the first unpivoted row
    that holds it.  A column-to-rows index finds that row and the rows to
    update without a scan.

    The arithmetic is in floats, and it is exact: every pivot is +/-1/2,
    +/-1 or +/-2, and every value met is a small dyadic rational.  Two
    guards keep it so: a pivot whose magnitude is not a power of two, and
    a final coefficient of A, C_gamma or a data term that is not a
    multiple of 1/2, raise :class:`AssemblyError`.
    """
    mesh = system.mesh
    if mesh.M == 1:
        raise InfeasibleError(feasibility_check(mesh.N, mesh.M).reason)
    cat = system.catalog
    M2 = 2 * mesh.M
    half = 0.5

    solved: dict = {}
    for k in mesh.J_s:
        solved[cat.index[wave_key(+1, k, 0)]] = DataExpr(
            {("v0", +1, k - 1): half, ("r0", +1, k - 1): half})
        solved[cat.index[wave_key(-1, k, 0)]] = DataExpr(
            {("v0", -1, k + 1): half, ("r0", -1, k + 1): -half})
        solved[cat.index[wave_key(+1, k, M2)]] = DataExpr(
            {("v1", +1, k - 1): half, ("r1", +1, k - 1): half},
            gammas={k: half})
        solved[cat.index[wave_key(-1, k, M2)]] = DataExpr(
            {("v1", -1, k + 1): half, ("r1", -1, k + 1): -half},
            gammas={k: -half})

    # Working rows: data-resolved entries substituted into the rhs.
    lins, rhss = [], []
    for row in system.rows:
        if row.kind.startswith(("initial", "terminal")):
            continue
        lin: dict = {}
        rhs = row.rhs.copy()
        for col, coef, orient in row.terms:
            if orient != +1:
                raise AssemblyError("unexpected reflected unknown outside "
                                    "initial/terminal rows")
            if col in solved:
                rhs.add_scaled(solved[col], float(-coef))
            else:
                lin[col] = lin.get(col, 0.0) + coef
        lins.append(lin)
        rhss.append(rhs)

    holders: dict = {}               # column -> rows with a nonzero entry there
    for i, lin in enumerate(lins):
        for col, v in lin.items():
            if v:
                holders.setdefault(col, set()).add(i)
    pivots = [None] * len(lins)
    for col in _pivot_priority(mesh, cat):
        open_rows = [i for i in holders.get(col, ()) if pivots[i] is None]
        if not open_rows:
            continue
        t = min(open_rows)
        pivot = lins[t][col]
        if math.frexp(abs(pivot))[0] != 0.5:
            raise AssemblyError(f"pivot {pivot!r} is not a power of two; the "
                                f"float elimination would not be exact")
        inv = 1.0 / pivot
        if inv != 1:
            lins[t] = {c: v * inv for c, v in lins[t].items()}
            scaled = DataExpr()
            scaled.add_scaled(rhss[t], inv)
            rhss[t] = scaled
        pivots[t] = col
        target = lins[t]
        for i in holders[col] - {t}:
            lin = lins[i]
            c = lin[col]
            for cc, v in target.items():
                old = lin.get(cc)
                new = (0.0 if old is None else old) - c * v
                if new == 0:
                    if old is not None:
                        del lin[cc]
                        holders[cc].discard(i)
                else:
                    if old is None:
                        holders.setdefault(cc, set()).add(i)
                    lin[cc] = new
            rhss[i].add_scaled(rhss[t], -c)

    unpivoted = pivots.count(None)
    if unpivoted:
        raise AssemblyError(
            f"{unpivoted} edge rows could not be pivoted; the coefficient "
            f"matrix is rank-deficient (assembly bug or infeasible mesh)")

    resolved_cols = set(solved) | set(pivots)
    free_cols = [c for c in range(cat.N_v) if c not in resolved_cols]
    sc = counts(mesh.N, mesh.M)
    if len(free_cols) != sc.N_s:
        raise AssemblyError(
            f"elimination left {len(free_cols)} free functions, "
            f"expected N_s = {sc.N_s}")
    free_pos = {c: j for j, c in enumerate(free_cols)}

    a_rows = [{} for _ in range(cat.N_v)]
    g_exprs = [None] * cat.N_v
    for col, expr in solved.items():
        g_exprs[col] = expr
    for j, col in enumerate(free_cols):
        a_rows[col] = {j: 1.0}
        g_exprs[col] = DataExpr()
    for col, lin, rhs in zip(pivots, lins, rhss):
        # pivot entry = rhs - sum(lin over free columns)
        coeffs = {}
        for cc, v in lin.items():
            if cc == col:
                continue
            if cc not in free_pos:
                raise AssemblyError("non-free column survived elimination")
            coeffs[free_pos[cc]] = -v
        a_rows[col] = coeffs
        g_exprs[col] = rhs
    _dyadic((c for row in a_rows for c in row.values()), "A")
    _dyadic((c for e in g_exprs for c in e.gammas.values()), "C_gamma")
    _dyadic((c for e in g_exprs for part in (e.terms, e.consts) for c in part.values()),
            "data")

    free_map = [cat.entries[c] for c in free_cols]
    return Parametrization(mesh, cat, free_map, a_rows, g_exprs)


# ---------------------------------------------------------------------------
# Vertex conditions and essential boundary matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexRow:
    """Continuity condition at a mesh vertex: sum coef*entry(at) = 0.

    ``at`` is 0 for the piece value at z = 0 and 1 for the value at
    z = lambda.
    """

    label: tuple
    terms: tuple  # ((key, at, coef), ...)


def assemble_vertex_conditions(mesh: MeshConfig) -> tuple:
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
    M2 = 2 * mesh.M
    rows = []
    interior = mesh.interior_interfaces()
    for n in interior:
        for m in range(2, M2 - 1, 2):
            rows.append(VertexRow(
                label=("u", n, m),
                terms=((jump_key(n, m), 0, 1), (jump_key(n, m - 2), 1, -1))))
    if mesh.N % 2 == 1:
        waves = [(side, 0, m) for side in (+1, -1) for m in range(2, M2 + 1, 2)]
    else:
        rows.append(VertexRow(label=("u0",), terms=((jump_key(0, 0), 0, 1),)))
        waves = [(side, k, m) for side, k in ((+1, -1), (-1, +1))
                 for m in range(4, M2 + 1, 2)] + [(-1, -1, M2)]
    for side, k, m in waves:
        rows.append(VertexRow(
            label=("w", side, k, m),
            terms=((wave_key(side, k, m), 0, 1), (wave_key(side, k, m - 2), 1, -1))))
    expected = counts(mesh.N, mesh.M).N_r
    if len(rows) != expected:
        raise AssemblyError(f"assembled {len(rows)} vertex rows, expected {expected}")
    return tuple(rows)


def boundary_null_vector(vertex_rows) -> np.ndarray:
    """The null vector z of G^T, G = [B1 - B0, -B_gamma] the coefficients
    of (alpha, gamma) in the essential rows of ``vertex_rows``
    (:func:`assemble_vertex_conditions`), read off the row labels: 1 on
    every wave junction row, +1/2 on the central zero anchor ``("u0",)``,
    -1/2 on every central jump junction ``("u", 0, m)``, 0 elsewhere.
    Odd N has neither jump label, and its wave rows are those of the
    central segment.  The entries are dyadic, so G^T z is exact in floats:
    :func:`boundary_structure` proves it 0 on every mesh it builds."""
    def entry(label) -> float:
        if label[0] == "w":
            return 1.0
        if label == ("u0",):
            return 0.5
        return -0.5 if label[:2] == ("u", 0) else 0.0
    return np.array([entry(row.label) for row in vertex_rows])


def guard_rows(mesh: MeshConfig) -> tuple:
    """Every junction of every wave, every jump junction, and the zero
    start of every jump.

    The complete vertex rows span them all, so they are not solved:
    :meth:`BoundaryStructure.violated_junctions` checks them on each
    solution, where a violated one names data that contradict the solved
    rows.
    """
    M2 = 2 * mesh.M
    rows = []
    for k in mesh.J_s:
        for side in (+1, -1):
            for m in range(2, M2 + 1, 2):
                rows.append(VertexRow(
                    label=("guard_w", side, k, m),
                    terms=((wave_key(side, k, m), 0, 1),
                           (wave_key(side, k, m - 2), 1, -1))))
    for n in mesh.J_x:
        rows.append(VertexRow(label=("guard_u0", n),
                              terms=((jump_key(n, 0), 0, 1),)))
        for m in range(2, M2 - 1, 2):
            rows.append(VertexRow(
                label=("guard_u", n, m),
                terms=((jump_key(n, m), 0, 1), (jump_key(n, m - 2), 1, -1))))
    return tuple(rows)


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

    def violated_junctions(self, par: Parametrization, y: np.ndarray,
                           gamma: np.ndarray) -> tuple:
        """(label, residual) of every junction row the solution (y, gamma)
        violates, in :func:`guard_rows` order.

        The rows are evaluated at the entry end values
        A y + C_gamma gamma + g at z = 0 and z = lambda.  The solved rows
        span every junction, so a solution of consistent data satisfies
        them all to rounding; a row is violated when its |residual|
        exceeds ``JUNCTION_TOL`` * max(1, largest |end value| of any
        entry), or is NaN.
        """
        ends = (par.A @ y[:, [0, -1]] + (par.C_gamma @ gamma)[:, None]
                + par.g_matrix(y.shape[1])[:, [0, -1]])
        res = np.zeros(len(self.check_labels))
        for rows, ents, at, coefs in self.checks:
            res[rows] += coefs * ends[ents, at]
        tol = JUNCTION_TOL * max(1.0, float(np.max(np.abs(ends))))
        return tuple((self.check_labels[i], float(res[i]))
                     for i in np.flatnonzero(~(np.abs(res) <= tol)))


def _row_slots(cat: UnknownCatalog, rows) -> list:
    """Term slots of vertex rows: (rows, entries, end sample 0 or -1,
    float coefficients), each row's terms in its own order."""
    return [(r, ents, np.where(ats == 1, -1, 0), coefs.astype(float))
            for r, ents, ats, coefs in _slots(
                [[(cat.index[key], at, coef) for key, at, coef in row.terms]
                 for row in rows])]


def boundary_structure(par: Parametrization, vertex_rows) -> BoundaryStructure:
    """Rewrite the vertex rows through the parametrization, and gather the
    junction rows of :func:`guard_rows` that each solution is checked
    against.  Nothing here reads the state's data.  G^T z, z the null
    vector of the rows' labels, is a sum of multiples of 1/4, so exact;
    an entry other than 0 raises :class:`AssemblyError`."""
    n_rows = len(vertex_rows)
    # sum coef*entry(at) = 0  <=>  B1 y(lam) - B0 y(0) = B_gamma gamma + b0,
    # accumulated term slot by term slot in each row's own term order
    B1 = np.zeros((n_rows, par.n_free))
    B0 = np.zeros((n_rows, par.n_free))
    Bg = np.zeros((n_rows, par.n_gamma))
    slots = _row_slots(par.catalog, vertex_rows)
    for rows, ents, ends, coefs in slots:
        end = ends == -1
        B1[rows[end]] += coefs[end, None] * par.A[ents[end]]
        B0[rows[~end]] -= coefs[~end, None] * par.A[ents[~end]]
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
        slots=tuple(slots), checks=tuple(_row_slots(par.catalog, checks)),
        check_labels=tuple(row.label for row in checks),
        B0=B0, B1=B1, B_gamma=Bg, z=z)


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
