"""Scalar loop forms of the vectorized kernels and per-mesh assembly.

These are the slice-by-slice implementations the package used before its
kernels became whole-array code; tests compare the array kernels against
them (bit for bit where the arithmetic is unchanged).  The module also
holds the helpers only tests use (one-sided force lookups, the per-piece
energy-weight table, state resampling, sample reflection, a field grid
held as whole arrays), the program
assembled in sample space with its sparse H and C, the sparse-LU KKT
solve the difference-variable solve replaced, and the least-squares
closed form the once-per-mesh factorization replaced.  The edge, vertex
and junction rows are kept here as row objects, assembled one row at a
time, with the Gauss-Jordan elimination over Fractions that the
characteristic substitution replaced; ``edge_rows`` and ``junction_rows``
read the array forms of ``rodwave.edge`` into the same objects.  The data
part slot by slot (``g_slots``) and the kink window row by row
(``window_kinks``) are the loop forms of the one-pass builds.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import lil_matrix

from rodwave.edge import (CONST_KEYS, DATA_NAMES, EDGE_KINDS, EssentialBC, StateSpec,
                          _by_place, build_catalog, data_keys, guard_rows, jump_key,
                          wave_key)
from rodwave.energy import evaluate_objective
from rodwave.errors import AssemblyError, ConfigurationError, InfeasibleError, SolverError
from rodwave.mesh import counts
from rodwave.oracle import SimResult, _node_weights
from rodwave.reconstruct import _DWM, _DWM_EARLY, _DWP, _DWP_EARLY, _pick_q, drop_mask
from rodwave.sampled import SampledFunction, fd_derivative, simpson_weights
from rodwave.solver import Solution, check_feasible


class DataExpr:
    """Affine combination of data windows, boundary constants, and the
    free terminal constants: ``terms[(name, orient, shift)] = coef``
    stands for ``coef * name(orient*z + shift*lam/2)``,
    ``consts[(name, end)] = coef`` for ``coef * name(end)`` and
    ``gammas[k]`` is the coefficient of segment k's free terminal
    constant.  ``evaluate`` adds the terms up in dict order."""

    __slots__ = ("terms", "consts", "gammas")

    def __init__(self, terms=None, consts=None, gammas=None):
        self.terms = dict(terms or {})
        self.consts = dict(consts or {})
        self.gammas = dict(gammas or {})


@dataclass(frozen=True)
class EdgeRow:
    """One edge constraint: sum of coef * entry(orient*z ...) = rhs(z);
    ``terms`` holds (column, integer coef, orient)."""

    kind: str
    label: tuple
    terms: tuple
    rhs: DataExpr


@dataclass(frozen=True)
class JunctionRow:
    """sum coef * entry(at) = 0, at 0 for z = 0 and 1 for z = lambda;
    ``terms`` holds (key, at, coef)."""

    label: tuple
    terms: tuple


def assemble_edge_rows(mesh):
    """The edge rows, one row at a time, in the order of
    ``rodwave.edge.assemble_edge_constraints``."""
    ix = build_catalog(mesh).index
    M2 = 2 * mesh.M
    rows = []
    for k in mesh.J_s:
        rows.append(EdgeRow("initial_v", (k,), ((ix[wave_key(+1, k, 0)], 1, +1),
                                               (ix[wave_key(-1, k, 0)], 1, -1)),
                            DataExpr({("v0", +1, k - 1): 1.0})))
        rows.append(EdgeRow("initial_r", (k,), ((ix[wave_key(+1, k, 0)], 1, +1),
                                               (ix[wave_key(-1, k, 0)], -1, -1)),
                            DataExpr({("r0", +1, k - 1): 1.0})))
    for k in mesh.J_s:
        rows.append(EdgeRow("terminal_v", (k,), ((ix[wave_key(+1, k, M2)], 1, +1),
                                                (ix[wave_key(-1, k, M2)], 1, -1)),
                            DataExpr({("v1", +1, k - 1): 1.0})))
        rows.append(EdgeRow("terminal_r", (k,), ((ix[wave_key(+1, k, M2)], 1, +1),
                                                (ix[wave_key(-1, k, M2)], -1, -1)),
                            DataExpr({("r1", +1, k - 1): 1.0}, gammas={k: 1.0})))
    kl, kr = 1 - mesh.N, mesh.N - 1
    for m in mesh.J_t[:-1]:
        rows.append(EdgeRow("boundary_left", (m,), ((ix[wave_key(-1, kl, m + 2)], 1, +1),
                                                   (ix[wave_key(+1, kl, m)], -1, +1),
                                                   (ix[jump_key(-mesh.N, m)], -1, +1)),
                            DataExpr(consts={("r0", -1): -1.0})))
        rows.append(EdgeRow("boundary_right", (m,), ((ix[wave_key(+1, kr, m + 2)], 1, +1),
                                                    (ix[wave_key(-1, kr, m)], -1, +1),
                                                    (ix[jump_key(mesh.N, m)], -1, +1)),
                            DataExpr(consts={("r0", +1): 1.0})))
    for n in mesh.interior_interfaces():
        for m in mesh.J_t[:-1]:
            rows.append(EdgeRow("inter_v", (n, m), (
                (ix[wave_key(+1, n - 1, m + 2)], 1, +1), (ix[wave_key(-1, n - 1, m)], 1, +1),
                (ix[wave_key(+1, n + 1, m)], -1, +1), (ix[wave_key(-1, n + 1, m + 2)], -1, +1)),
                DataExpr()))
            rows.append(EdgeRow("inter_r", (n, m), (
                (ix[wave_key(+1, n - 1, m + 2)], 1, +1), (ix[wave_key(-1, n - 1, m)], -1, +1),
                (ix[wave_key(+1, n + 1, m)], -1, +1), (ix[wave_key(-1, n + 1, m + 2)], 1, +1),
                (ix[jump_key(n, m)], -1, +1)), DataExpr()))
    return rows


def edge_rows(system):
    """The rows of an array ``EdgeSystem`` as ``EdgeRow`` objects (labels
    empty), each row's terms in array order."""
    keys = data_keys(system.mesh)
    gamma_map = system.mesh.J_s
    rows = [EdgeRow(EDGE_KINDS[kind], (), [], DataExpr()) for kind in system.kind.tolist()]
    for r, e, c, o in zip(system.row.tolist(), system.entry.tolist(), system.coef.tolist(),
                          system.orient.tolist()):
        rows[r].terms.append((e, c, o))
    for r, col, c in zip(system.rhs_row.tolist(), system.rhs_col.tolist(),
                         system.rhs_coef.tolist()):
        rhs = rows[r].rhs
        if col < len(gamma_map):
            rhs.gammas[gamma_map[col]] = float(c)
        else:
            key = keys[col - len(gamma_map)]
            (rhs.consts if len(key) == 2 else rhs.terms)[key] = float(c)
    return [EdgeRow(row.kind, row.label, tuple(row.terms), row.rhs) for row in rows]


def vertex_rows_loop(mesh):
    """The complete vertex rows, one row at a time, in the order of
    ``rodwave.edge.assemble_vertex_conditions``."""
    M2 = 2 * mesh.M
    rows = []
    for n in mesh.interior_interfaces():
        for m in range(2, M2 - 1, 2):
            rows.append(JunctionRow(("u", n, m), ((jump_key(n, m), 0, 1),
                                                  (jump_key(n, m - 2), 1, -1))))
    if mesh.N % 2 == 1:
        waves = [(side, 0, m) for side in (+1, -1) for m in range(2, M2 + 1, 2)]
    else:
        rows.append(JunctionRow(("u0",), ((jump_key(0, 0), 0, 1),)))
        waves = [(side, k, m) for side, k in ((+1, -1), (-1, +1))
                 for m in range(4, M2 + 1, 2)] + [(-1, -1, M2)]
    for side, k, m in waves:
        rows.append(JunctionRow(("w", side, k, m), ((wave_key(side, k, m), 0, 1),
                                                    (wave_key(side, k, m - 2), 1, -1))))
    return rows


def guard_rows_loop(mesh):
    """Every junction of every wave and jump and every jump's zero start,
    one row at a time, in the order of ``rodwave.edge.guard_rows``."""
    M2 = 2 * mesh.M
    rows = []
    for k in mesh.J_s:
        for side in (+1, -1):
            for m in range(2, M2 + 1, 2):
                rows.append(JunctionRow(("guard_w", side, k, m), (
                    (wave_key(side, k, m), 0, 1), (wave_key(side, k, m - 2), 1, -1))))
    for n in mesh.J_x:
        rows.append(JunctionRow(("guard_u0", n), ((jump_key(n, 0), 0, 1),)))
        for m in range(2, M2 - 1, 2):
            rows.append(JunctionRow(("guard_u", n, m), (
                (jump_key(n, m), 0, 1), (jump_key(n, m - 2), 1, -1))))
    return rows


def junction_rows(rows, catalog):
    """The rows of an array ``JunctionRows`` as ``JunctionRow`` objects."""
    terms = [[] for _ in rows.labels]
    for r, e, at, c in zip(rows.row.tolist(), rows.entry.tolist(), rows.at.tolist(),
                           rows.coef.tolist()):
        terms[r].append((catalog.entries[e], at, c))
    return [JunctionRow(label, tuple(t)) for label, t in zip(rows.labels, terms)]


def data_exprs(par):
    """Each entry's data part as a ``DataExpr``, its terms and constants in
    the parametrization's key order and its gammas from C_gamma."""
    exprs = [DataExpr() for _ in range(par.catalog.N_v)]
    keys = data_keys(par.mesh)
    for e, q, c in zip(par.data_entry.tolist(), par.data_key.tolist(),
                       par.data_coef.tolist()):
        key = keys[q]
        (exprs[e].consts if len(key) == 2 else exprs[e].terms)[key] = c
    for e, i in zip(*np.nonzero(par.C_gamma)):
        exprs[e].gammas[par.gamma_map[i]] = float(par.C_gamma[e, i])
    return exprs


def pivot_priority(mesh, catalog):
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


def blockwise_derivative_1d(values, h, kink_mask):
    """Differentiate a 1D slice between kink samples, one block at a time."""
    n = len(values)
    bounds = [0] + [i for i in range(1, n - 1) if kink_mask[i]] + [n - 1]
    deriv = np.empty(n)
    valid = np.ones(n, dtype=bool)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a >= 2:
            seg = fd_derivative(values[a:b + 1], h)
            deriv[a:b] = seg[:-1]
            if b == n - 1:
                deriv[b] = seg[-1]
        else:
            d1 = (values[b] - values[a]) / h
            deriv[a] = d1
            valid[a] = False
            if b == n - 1:
                deriv[b] = d1
                valid[b] = False
    return deriv, valid


def axis_derivative(arr, h, kinks, axis):
    """:func:`blockwise_derivative_1d` applied to every slice along ``axis``."""
    out = np.empty_like(arr)
    ok = np.empty(arr.shape, dtype=bool)
    if axis == 0:
        for j in range(arr.shape[1]):
            out[:, j], ok[:, j] = blockwise_derivative_1d(arr[:, j], h, kinks[:, j])
    else:
        for i in range(arr.shape[0]):
            out[i], ok[i] = blockwise_derivative_1d(arr[i], h, kinks[i])
    return out, ok


def residual_Q(fg):
    """Constitutive residual (rho = kappa = 1) from the loop derivatives."""
    ht, hx = fg.ht, fg.hx
    plus, minus = kink_masks(fg)
    kinks = plus | minus
    v, p, s = fg.v, fg.p, fg.s
    vt, ok_t = axis_derivative(v, ht, kinks, axis=0)
    g_res = vt - p
    wt = simpson_weights(len(fg.t), ht)
    total = 0.0
    for seg, (j0, j1) in enumerate(fg.segment_windows()):
        cols = slice(j0, j1 + 1)
        kseg = kinks[:, cols]
        vx, ok_x = axis_derivative(v[:, cols], hx, kseg, axis=1)
        h_res = vx - s[:, cols] + fg.f_seg[seg][:, None]
        q = g_res[:, cols] ** 2 / 4.0 + h_res ** 2 / 4.0
        q = np.where(ok_t[:, cols] & ok_x & ~kseg, q, 0.0)
        wx = simpson_weights(j1 - j0 + 1, hx)
        total += float(wt @ q @ wx)
    return total


def kink_masks(fg):
    """The two characteristic-lattice masks from full-grid residues."""
    iu = np.arange(len(fg.t))[:, None]
    ju = np.arange(len(fg.x))[None, :]
    step = fg.qt * fg.qx
    plus = (iu * fg.qx + (ju - fg.mesh.N * fg.qx) * fg.qt) % step
    minus = (iu * fg.qx - (ju - fg.mesh.N * fg.qx) * fg.qt) % step
    return plus == 0, minus == 0


def blockwise_simpson_weights(n, h, splits):
    """Composite Simpson weights split at interior sample indices, block by
    block, as ``energy.blockwise_simpson_weights`` once summed them."""
    bounds = [0] + sorted({int(s) for s in splits if 0 < s < n - 1}) + [n - 1]
    w = np.zeros(n)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if (b - a) % 2 == 1:
            w[a:a + 2] += 0.5 * h
            a += 1
        if b > a:
            w[a:b + 1] += simpson_weights(b - a + 1, h)
    return w


def blockwise_simpson(values, h, splits):
    """Composite Simpson split at interior sample indices, block by block."""
    n = len(values)
    bounds = [0] + sorted({int(s) for s in splits if 0 < s < n - 1}) + [n - 1]
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        m = b - a
        if m == 0:
            continue
        start = a
        if m % 2 == 1:
            total += 0.5 * h * (values[a] + values[a + 1])
            start = a + 1
            if start == b:
                continue
        total += float(simpson_weights(b - start + 1, h) @ values[start:b + 1])
    return total


def write_fields_csv(fg, path):
    """The fields CSV written cell by cell through ``csv.writer``, with e
    from :func:`energy_density`."""
    e = energy_density(fg)
    v, r, p, s = fg.v, fg.r, fg.p, fg.s
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "v", "r", "p", "s", "e"])
        for i, t in enumerate(fg.t):
            for j, x in enumerate(fg.x):
                writer.writerow([f"{val:.12g}" for val in
                                 (t, x, v[i, j], r[i, j], p[i, j], s[i, j], e[i, j])])


def write_controls_csv(controls, path):
    """The controls CSV written row by row through ``csv.writer``."""
    mesh = controls.mesh
    header = (["t"] + [f"u_jump_{n}" for n in mesh.J_x]
              + [f"u_{k}" for k in mesh.J_c] + [f"f_{k}" for k in mesh.J_c])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(controls.n_pieces):
            times = controls.piece_times(j)
            for i, t in enumerate(times):
                row = [t]
                row += [controls.jumps[n][j, i] for n in mesh.J_x]
                row += [controls.integrals[k][j, i] for k in mesh.J_c]
                row += [controls.forces[k][j, i] for k in mesh.J_c]
                writer.writerow([f"{val:.12g}" for val in row])


def write_sim_csv(sim, terminal_path, energy_path):
    """The oracle CSVs written row by row through ``csv.writer``."""
    with open(terminal_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "v", "p"])
        for x, v, p in zip(sim.x, sim.v_terminal, sim.p_terminal):
            writer.writerow([f"{x:.12g}", f"{v:.12g}", f"{p:.12g}"])
    with open(energy_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "energy"])
        for t, e in zip(sim.times, sim.energy_history):
            writer.writerow([f"{t:.12g}", f"{e:.12g}"])


def energy_norm(v, p, h, rho, kappa):
    """Discrete energy-seminorm sqrt( int kappa v_x^2/2 + p^2/(2 rho) )."""
    strain = kappa * float(np.sum(np.diff(v) ** 2)) / (2.0 * h)
    kinetic = float(_node_weights(len(v), h) @ (p ** 2)) / (2.0 * rho)
    return math.sqrt(max(strain + kinetic, 0.0))


def simulate(mesh, params, controls, state, cfg):
    """The leapfrog oracle with one impulse add per interface node and
    ``np.diff`` taken separately for the force and the strain energy, for
    a rod of any density and stiffness (``params``); the package runs the
    dimensionless rod, ``RodParams(1, 1, 1)``."""
    rho, kappa = params.rho, params.kappa
    wave_speed = math.sqrt(kappa / rho)
    n_cells = mesh.N * cfg.points_per_segment
    h = mesh.lam / cfg.points_per_segment
    x = np.linspace(-1.0, 1.0, n_cells + 1)

    half_layer = mesh.lam / 2.0
    steps_per_half = max(1, math.ceil(half_layer * wave_speed / (cfg.cfl * h) - 1e-12))
    dt = half_layer / steps_per_half
    if dt * wave_speed > cfg.cfl * h * (1.0 + 1e-12):
        raise ConfigurationError("CFL violation after step alignment")
    n_steps = 2 * mesh.M * steps_per_half

    times = np.arange(n_steps + 1) * dt
    lo = np.clip(times - dt / 2.0, 0.0, mesh.T)
    hi = np.clip(times + dt / 2.0, 0.0, mesh.T)

    def force_series(k):
        return np.asarray(controls.force_average(k, lo, hi), dtype=float)

    f_seg = np.stack([force_series(k) for k in mesh.J_s])
    f_left = force_series(-mesh.N - 1)
    f_right = force_series(mesh.N + 1)

    interfaces = np.arange(1, mesh.N) * cfg.points_per_segment

    def p_rate(vv, n_step):
        s_el = kappa * (vv[1:] - vv[:-1]) / h
        rate = np.empty_like(vv)
        rate[1:-1] = (s_el[1:] - s_el[:-1]) / h
        rate[0] = s_el[0] / (h / 2.0)
        rate[-1] = -s_el[-1] / (h / 2.0)

        f_cells = f_seg[:, n_step]
        for node, jump in zip(interfaces, f_cells[1:] - f_cells[:-1]):
            rate[node] += jump / h
        rate[0] += (f_cells[0] - f_left[n_step]) / (h / 2.0)
        rate[-1] += (f_right[n_step] - f_cells[-1]) / (h / 2.0)
        return rate

    def strain_energy(vv):
        return kappa * float(np.sum(np.diff(vv) ** 2)) / (2.0 * h)

    weights = _node_weights(n_cells + 1, h)
    v = state.v0(x)
    p0 = state.momentum_initial()(x)
    p_half = p0 + (dt / 2.0) * p_rate(v, 0)

    budget_max = 0.0
    force_scale = max(1.0, float(np.max(np.abs(f_left))), float(np.max(np.abs(f_right))))
    energies = np.empty(n_steps + 1)
    energies[0] = strain_energy(v) + float(weights @ (p0 ** 2)) / (2.0 * rho)

    p_terminal = None
    for n in range(n_steps):
        v = v + dt * p_half / rho
        if n < n_steps - 1:
            p_next = p_half + dt * p_rate(v, n + 1)
            lhs = float(weights @ (p_next - p_half)) / dt
            rhs = float(f_right[n + 1] - f_left[n + 1])
            budget_max = max(budget_max, abs(lhs - rhs) / force_scale)
            energies[n + 1] = strain_energy(v) + float(
                weights @ (p_half * p_next)) / (2.0 * rho)
            p_half = p_next
        else:
            p_terminal = p_half + (dt / 2.0) * p_rate(v, n_steps)
            energies[n + 1] = strain_energy(v) + float(
                weights @ (p_terminal ** 2)) / (2.0 * rho)

    v1 = state.v1(x)
    p1 = state.momentum_terminal()(x)
    err = energy_norm(v - v1, p_terminal - p1, h, rho, kappa)
    ref = max(energy_norm(state.v0(x), p0, h, rho, kappa),
              energy_norm(v1, p1, h, rho, kappa), 1e-300)
    return SimResult(
        x=x, v_terminal=v, p_terminal=p_terminal,
        energy_history=energies, times=times,
        momentum_budget_max=budget_max,
        terminal_energy_error=float(err / ref),
        terminal_v_sup=float(np.max(np.abs(v - v1))),
        dt=dt, h=h)


def boundary_matrices(par, vertex_rows, include_guards=True):
    """Essential rows by a row-by-row Gram-Schmidt sweep (threshold
    1e-12 * largest row norm) over the vertex rows, with the rows of
    ``guard_rows`` stacked behind them unless ``include_guards`` is false:
    the rows independent of the rows kept before them."""
    mesh, cat = par.mesh, par.catalog
    p = par.state.grid_p(mesh)
    g = par.g_matrix(p)
    n_s = par.n_free
    n_g = par.n_gamma

    all_rows = junction_rows(vertex_rows, cat)
    n_vertex = len(all_rows)
    if include_guards:
        all_rows.extend(junction_rows(guard_rows(mesh), cat))

    raw = []
    for vrow in all_rows:
        b1r = np.zeros(n_s)
        b0r = np.zeros(n_s)
        gr = np.zeros(n_g)
        data = 0.0
        for key, at, coef in vrow.terms:
            e = cat.index[key]
            if at == 1:
                b1r += coef * par.A[e]
            else:
                b0r -= coef * par.A[e]
            gr -= coef * par.C_gamma[e]
            data += coef * g[e, -1 if at == 1 else 0]
        # sum coef*entry(at) = 0  <=>  B1 y(lam) - B0 y(0) = B_gamma gamma + b0
        raw.append((b1r, b0r, gr, -data))

    norms = [np.linalg.norm(np.concatenate([r[0], -r[1], -r[2]])) for r in raw]
    tol = 1e-12 * max(max(norms), 1.0)

    basis: list = []          # orthonormal rows over (B1, -B0, -B_gamma)
    kept: list = []
    for i, (b1r, b0r, gr, _) in enumerate(raw):
        w = np.concatenate([b1r, -b0r, -gr])
        for q in basis:
            w -= (q @ w) * q
        for q in basis:
            w -= (q @ w) * q
        nrm = np.linalg.norm(w)
        if nrm > tol:
            basis.append(w / nrm)
            kept.append(i)

    return EssentialBC(
        B0=np.array([raw[i][1] for i in kept]).reshape(len(kept), n_s),
        B1=np.array([raw[i][0] for i in kept]).reshape(len(kept), n_s),
        B_gamma=np.array([raw[i][2] for i in kept]).reshape(len(kept), n_g),
        b0=np.array([raw[i][3] for i in kept]),
        n_assembled=len(all_rows),
        guard_rows_kept=sum(i >= n_vertex for i in kept),
    )


def junction_residuals(par, y, gamma):
    """Residual of every row of ``guard_rows`` on the solution (y, gamma),
    one row at a time from the sampled catalog entries, and the scale
    max(1, largest |end value| of any entry)."""
    w_all = par.entry_values(y, gamma)
    ends = w_all[:, [0, -1]]
    res = []
    for row in junction_rows(guard_rows(par.mesh), par.catalog):
        total = 0.0
        for key, at, coef in row.terms:
            total += coef * w_all[par.catalog.index[key], -1 if at == 1 else 0]
        res.append((row.label, total))
    return res, max(1.0, float(np.max(np.abs(ends))))


@dataclass(frozen=True)
class AssembledQP:
    """The discretized program assembled in sample space:
    obj(x) = x^T H x + 2 b^T x + c0 subject to C x = d, with H and C sparse
    and b in sample form, together with the per-cell kernels and linear
    terms H and b were built from."""

    mesh: object
    p: int
    n_free: int
    n_gamma: int
    H: object = field(repr=False)
    b: np.ndarray = field(repr=False)
    c0: float
    C: object = field(repr=False)
    d: np.ndarray = field(repr=False)
    kernels: np.ndarray = field(repr=False)     # (p - 1, n_free, n_free)
    lin_cells: np.ndarray = field(repr=False)

    @property
    def n_x(self):
        return self.n_free * self.p + self.n_gamma

    def objective(self, x):
        return float(x @ (self.H @ x) + 2.0 * (self.b @ x) + self.c0)


def assemble_qp(par, bc, weights, p):
    """Quadratic program with one kernel per cell, H accumulated as a dict
    of blocks and written through a LIL matrix."""
    mesh, cat = par.mesh, par.catalog
    if p != par.state.grid_p(mesh):
        raise AssemblyError(f"QP grid p={p} does not match the state grid")
    if weights.p != p:
        raise AssemblyError("weight grid does not match the QP grid")
    n_s = par.n_free
    n_w = cat.N_w
    h = mesh.lam / (p - 1)

    a_w = par.A[:n_w]                      # wave rows of A
    g_w = par.g_matrix(p)[:n_w]
    g_d = np.diff(g_w, axis=1) / h         # midpoint derivatives, (N_w, p-1)
    w_nodes = weight_matrix(mesh, p, cat)[:n_w]
    w_mid = 0.5 * (w_nodes[:, :-1] + w_nodes[:, 1:])

    # per-cell quadratic kernels over the free vector
    scale = np.full(p - 1, h / mesh.T)
    kernels = np.einsum("ei,ep,ej->pij", a_w, w_mid * scale[None, :], a_w)
    lin_cells = a_w.T @ (w_mid * scale[None, :] * g_d)     # (n_s, p-1)
    c0 = float(np.sum(w_mid * scale[None, :] * g_d * g_d))

    n_gamma = par.n_gamma
    n_x = n_s * p + n_gamma
    blocks: dict = {}
    lin = np.zeros(n_x)
    for q in range(p - 1):
        stencil = ((q, -1.0 / h), (q + 1, 1.0 / h))
        kq = kernels[q]
        lq = lin_cells[:, q]
        for p1, c1v in stencil:
            lin[p1 * n_s:(p1 + 1) * n_s] += c1v * lq
            for p2, c2v in stencil:
                key = (p1, p2)
                if key in blocks:
                    blocks[key] = blocks[key] + (c1v * c2v) * kq
                else:
                    blocks[key] = (c1v * c2v) * kq

    hmat = lil_matrix((n_x, n_x))
    for (p1, p2), block in blocks.items():
        hmat[p1 * n_s:(p1 + 1) * n_s, p2 * n_s:(p2 + 1) * n_s] = block
    hmat = hmat.tocsr()

    n_c = bc.n_rows
    cmat = lil_matrix((n_c, n_x))
    if n_c:
        cmat[:, (p - 1) * n_s:p * n_s] = bc.B1
        cmat[:, 0:n_s] += -bc.B0
        cmat[:, n_s * p:] = -bc.B_gamma
    return AssembledQP(mesh=mesh, p=p, n_free=n_s, n_gamma=n_gamma,
                       H=hmat, b=lin, c0=c0, C=cmat.tocsr(),
                       d=bc.b0.copy() if n_c else np.zeros(0),
                       kernels=kernels,
                       lin_cells=lin_cells)


def add_scaled(expr, other, coef):
    """``expr += coef * other`` over Fractions, dropping terms that cancel."""
    if coef == 0:
        return
    for mine, theirs in ((expr.terms, other.terms), (expr.consts, other.consts),
                         (expr.gammas, other.gammas)):
        for key, c in theirs.items():
            new = mine.get(key, Fraction(0)) + coef * c
            if new == 0:
                mine.pop(key, None)
            else:
                mine[key] = new


def eliminate(system):
    """Gauss-Jordan elimination of the edge system over Fractions, scanning
    every row for each pivot column.  Returns (free_map, a_rows, g_exprs):
    the free entries' keys, A row by row (dict free_j -> Fraction) and each
    entry's data part (a DataExpr with Fraction coefficients)."""
    mesh, cat = system.mesh, system.catalog
    if mesh.M == 1:
        raise InfeasibleError("M = 1")
    M2 = 2 * mesh.M
    half = Fraction(1, 2)

    solved = {}
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

    work = []
    for row in edge_rows(system):
        if row.kind.startswith(("initial", "terminal")):
            continue
        lin = {}
        rhs = DataExpr({key: Fraction(c) for key, c in row.rhs.terms.items()},
                       {key: Fraction(c) for key, c in row.rhs.consts.items()},
                       {key: Fraction(c) for key, c in row.rhs.gammas.items()})
        for col, coef, orient in row.terms:
            assert orient == +1
            if col in solved:
                add_scaled(rhs, solved[col], Fraction(-coef))
            else:
                lin[col] = lin.get(col, Fraction(0)) + coef
        work.append({"lin": lin, "rhs": rhs, "pivot": None})

    for col in pivot_priority(mesh, cat):
        target = None
        for row in work:
            if row["pivot"] is None and row["lin"].get(col):
                target = row
                break
        if target is None:
            continue
        inv = Fraction(1) / target["lin"][col]
        if inv != 1:
            target["lin"] = {c: v * inv for c, v in target["lin"].items()}
            scaled = DataExpr()
            add_scaled(scaled, target["rhs"], inv)
            target["rhs"] = scaled
        target["pivot"] = col
        for row in work:
            if row is target:
                continue
            c = row["lin"].get(col)
            if not c:
                continue
            for cc, v in target["lin"].items():
                new = row["lin"].get(cc, Fraction(0)) - c * v
                if new == 0:
                    row["lin"].pop(cc, None)
                else:
                    row["lin"][cc] = new
            add_scaled(row["rhs"], target["rhs"], -c)
    if any(r["pivot"] is None for r in work):
        raise AssemblyError("rank-deficient edge system")

    resolved = set(solved) | {r["pivot"] for r in work}
    free_cols = [c for c in range(cat.N_v) if c not in resolved]
    assert len(free_cols) == counts(mesh.N, mesh.M).N_s
    free_pos = {c: j for j, c in enumerate(free_cols)}
    a_rows = [dict() for _ in range(cat.N_v)]
    g_exprs = [DataExpr() for _ in range(cat.N_v)]
    for col, expr in solved.items():
        g_exprs[col] = expr
    for j, col in enumerate(free_cols):
        a_rows[col] = {j: Fraction(1)}
    for row in work:
        col = row["pivot"]
        a_rows[col] = {free_pos[cc]: -v for cc, v in row["lin"].items() if cc != col}
        g_exprs[col] = row["rhs"]
    return [cat.entries[c] for c in free_cols], a_rows, g_exprs


def evaluate(expr, state, mesh, p, gamma=None):
    """One entry's data part on the p-point z-grid, term by term; with
    ``gamma`` (segment -> value) the terminal constants are added too."""
    arrays = state.arrays()
    pd = mesh.N * (p - 1) + 1
    if state.v0.p != pd:
        raise ConfigurationError(
            f"state resolution {state.v0.p} does not match grid p={p}")
    half = (p - 1) // 2
    center = mesh.N * (p - 1) // 2
    out = np.zeros(p)
    idx = np.arange(p)
    for (name, orient, shift), c in expr.terms.items():
        window = center + shift * half + orient * idx
        if window[0] < 0 or window[-1] < 0 or window.max() > pd - 1:
            raise AssemblyError(f"data window out of range for {name}")
        out += float(c) * arrays[name][window]
    for (name, end), c in expr.consts.items():
        out += float(c) * arrays[name][0 if end < 0 else pd - 1]
    if gamma is not None:
        for k, c in expr.gammas.items():
            out += float(c) * gamma[k]
    return out


def g_matrix(g_exprs, state, mesh, p):
    """The data part of every entry, evaluated entry by entry."""
    return np.array([evaluate(expr, state, mesh, p) for expr in g_exprs])


def g_slots(par, p):
    """The data part g of the state ``par`` is bound to, slot by slot, as
    ``Parametrization.g_matrix`` once formed it: term slot s gathers the
    s-th window term of every entry that has one as rows of a sliding-window
    view of the four profiles laid end to end, then the same reversed, and
    adds them into g; then the constant slots likewise."""
    mesh = par.mesh
    n_win = 2 * len(DATA_NAMES) * mesh.N
    q = np.arange(n_win)
    names, orients = q // (2 * mesh.N), np.where(q // mesh.N % 2, -1, 1)
    shifts = 2 * (q % mesh.N) + 1 - mesh.N - orients
    win = par.data_key < n_win
    keys = par.data_key[win]
    term_slots = _by_place(par.data_entry[win], names[keys], orients[keys], shifts[keys],
                           par.data_coef[win])
    const_names = np.array([DATA_NAMES.index(name) for name, _ in CONST_KEYS])
    const_ends = np.array([0 if end < 0 else -1 for _, end in CONST_KEYS])
    keys = par.data_key[~win] - n_win
    const_slots = _by_place(par.data_entry[~win], const_names[keys], const_ends[keys],
                            par.data_coef[~win])
    pd = mesh.N * (p - 1) + 1
    length = len(DATA_NAMES) * pd
    half, center = (p - 1) // 2, mesh.N * (p - 1) // 2
    arrays = par.bound_state.arrays()
    data = np.concatenate([arrays[name] for name in DATA_NAMES])
    data = np.concatenate([data, data[::-1]])
    windows = np.ndarray((len(data) - p + 1, p), data.dtype, data, 0, 2 * data.strides)
    g = np.zeros((par.catalog.N_v, p))
    for ents, names, orients, shifts, coefs in term_slots:
        first = names * pd + center + shifts * half
        rows = np.where(orients > 0, first, 2 * length - 1 - first)
        g[ents] += coefs[:, None] * windows[rows]
    for ents, names, ends, coefs in const_slots:
        g[ents] += (coefs * data[names * pd + ends % pd])[:, None]
    return g


def window_kinks(fg):
    """The kink window of the field grid ``fg`` built row by row, as
    ``reconstruct.window_kinks`` once built it: (kinks, drop, q_weights,
    q_line_weights, energy_weights), each row's blockwise Simpson weights
    looked up by its pattern of kinks and summed block by block."""
    nt, width = 2 * fg.mesh.M * fg.qt + 1, 2 * fg.qx + 1
    ht, hx = fg.ht, fg.hx
    period = fg.qt * fg.qx
    t_res = (np.arange(nt) * fg.qx % period)[:, None]
    x_res = np.arange(width) * fg.qt % period
    kinks = (t_res == -x_res % period) | (t_res == x_res)
    drop = drop_mask(kinks)
    q_weights = np.outer(simpson_weights(nt, ht), simpson_weights(width, hx))
    q_weights *= 0.25
    q_weights[drop] = 0.0
    by_pattern = {}
    for row in kinks:
        key_row = row.tobytes()
        if key_row not in by_pattern:
            by_pattern[key_row] = blockwise_simpson_weights(width, hx, np.flatnonzero(row))
    weights = np.stack([by_pattern[row.tobytes()] for row in kinks])
    weights *= blockwise_simpson_weights(nt, ht, np.arange(fg.qt, nt - 1, fg.qt))[:, None]
    plus = np.arange(nt)[:, None] * fg.st + np.arange(width) * fg.sx
    minus = plus[:, ::-1]
    length = plus[-1, -1] + 1

    def fold(w, rows=slice(None), cols=slice(None)):
        return np.stack([np.bincount(index[rows, cols].ravel(), w[rows, cols].ravel(), length)
                         for index in (plus, minus)])

    return (kinks, drop, q_weights, fold(q_weights, slice(1, -1), slice(1, -1)),
            fold(weights))


def gamma_dict(par, gamma):
    """Segment k -> its free terminal constant."""
    return {k: float(g) for k, g in zip(par.gamma_map, gamma)}


def edge_residuals(system, state, entry_values, gamma, p):
    """Max-abs residual of every edge row given the state, sampled entry
    values and the terminal constants (segment -> value)."""
    rows = edge_rows(system)
    res = np.zeros(len(rows))
    for i, row in enumerate(rows):
        acc = np.zeros(p)
        for col, coef, orient in row.terms:
            vals = entry_values[col]
            acc += coef * (vals if orient == +1 else vals[::-1])
        acc -= evaluate(row.rhs, state, system.mesh, p, gamma=gamma)
        res[i] = np.max(np.abs(acc))
    return res


def partition(system):
    """Row count per edge-row kind."""
    out = {}
    for kind in system.kind.tolist():
        out[EDGE_KINDS[kind]] = out.get(EDGE_KINDS[kind], 0) + 1
    return out


def build_weights(mesh, p):
    """Energy weights one piece at a time: (table of wave key -> weight
    samples, midpoint weights in catalog order).  A piece weighs z on the
    first layer, lam - z on the last and lam on every layer between."""
    z = np.linspace(0.0, mesh.lam, p)
    table = {}
    for k in mesh.J_s:
        for side in (+1, -1):
            for m in mesh.J_t:
                if m == mesh.J_t[0]:
                    w = z.copy()
                elif m == mesh.J_t[-1]:
                    w = mesh.lam - z
                else:
                    w = np.full(p, mesh.lam)
                table[("w", side, k, m)] = w
    w_nodes = np.array([table[("w", side, k, m)] for k in mesh.J_s
                        for m in mesh.J_t for side in (+1, -1)])
    return table, 0.5 * (w_nodes[:, :-1] + w_nodes[:, 1:])


def weight_matrix(mesh, p, catalog):
    """(N_v, p) weight samples in catalog order; control entries weigh zero."""
    table, _ = build_weights(mesh, p)
    out = np.zeros((catalog.N_v, p))
    for e, key in enumerate(catalog.entries):
        if key[0] == "w":
            out[e] = table[key]
    return out


def weight_values(table, p, key):
    """One entry's weight samples: its table row, or zeros for a control."""
    if key[0] == "u":
        return np.zeros(p)
    return table[key]


def force_at(controls, k, t, side="right"):
    """Force f_k at time(s) t; one-sided limit at piece junctions."""
    t = np.asarray(t, dtype=float)
    lam, m_max = controls.mesh.lam, controls.mesh.M - 1
    piece = np.floor(t / lam).astype(int)
    if side == "left":
        on_junction = np.isclose(t, np.round(t / lam) * lam)
        piece = np.where(on_junction, np.round(t / lam).astype(int) - 1, piece)
    piece = np.clip(piece, 0, m_max)
    local = (t - piece * lam) / lam * (controls.p - 1)
    i0 = np.clip(np.floor(local).astype(int), 0, controls.p - 2)
    frac = local - i0
    arr = controls.forces[k]
    vals = arr[piece, i0] * (1 - frac) + arr[piece, i0 + 1] * frac
    return vals if vals.ndim else float(vals)


def junction_discontinuities(controls, k):
    """|f_k(t_j^+) - f_k(t_j^-)| at the interior piece junctions."""
    arr = controls.forces[k]
    return np.abs(arr[1:, 0] - arr[:-1, -1])


def wave_pieces(par, entries):
    """The wave pieces of a solution key by key, as ``waves_from_solution``
    once stitched them: dicts (side, k) -> (M+1, p) of the pieces and of
    their derivatives, and the largest gap between adjacent pieces."""
    mesh, cat = par.mesh, par.catalog
    h = mesh.lam / (entries.shape[1] - 1)
    pieces, dpieces, gap = {}, {}, 0.0
    for k in mesh.J_s:
        for side in (+1, -1):
            arr = np.stack([entries[cat.index[wave_key(side, k, m)]] for m in mesh.J_t])
            for m in range(len(arr) - 1):
                gap = max(gap, float(np.max(np.abs(arr[m, -1] - arr[m + 1, 0]))))
            pieces[(side, k)] = arr
            dpieces[(side, k)] = fd_derivative(arr, h)
    return pieces, dpieces, gap


def jump_pieces(par, entries):
    """Interface n -> its (M, p) jump pieces, piece by piece."""
    mesh, cat = par.mesh, par.catalog
    return {n: np.stack([entries[cat.index[jump_key(n, m)]] for m in mesh.J_t[:-1]])
            for n in mesh.J_x}


def control_histories(mesh, jumps):
    """Control k -> its integral and force pieces, control by control:
    u of the first control starts the chain at 0, u_{n+1} = u_{n-1} +
    jump_n, the mean over the controls is subtracted, and each force is
    the per-piece derivative of its integral."""
    first = jumps[mesh.J_x[0]]
    h = mesh.lam / (first.shape[-1] - 1)
    chain = [np.zeros_like(first), first.copy()]
    for n in mesh.J_x[1:]:
        chain.append(chain[-1] + jumps[n])
    total = chain[0]
    for u in chain[1:]:
        total = total + u
    mean = total / len(chain)
    integrals = {k: u - mean for k, u in zip(mesh.J_c, chain)}
    forces = {k: fd_derivative(u, h) for k, u in integrals.items()}
    return integrals, forces


def _late(pieces):
    """Pieces joined sample by sample; the later piece supplies each
    junction sample."""
    line = [x for piece in pieces for x in piece[:-1]]
    return np.array(line + [pieces[-1][-1]])


def _early(pieces):
    """Pieces joined sample by sample; the earlier piece supplies each
    junction sample."""
    return np.array([pieces[0][0]] + [x for piece in pieces for x in piece[1:]])


def field_lines(pieces, dpieces, integrals, forces, mesh, st):
    """The wave lines of a field grid, segment by segment and family by
    family (late w+, w-, w+', w-', early w+', w-'), and the control
    integral and force of each segment on the t grid (every st-th sample
    of its late line)."""
    lines = np.array([[join(table[(side, k)]) for k in mesh.J_s]
                      for join, table, side in ((_late, pieces, +1), (_late, pieces, -1),
                                                (_late, dpieces, +1), (_late, dpieces, -1),
                                                (_early, dpieces, +1), (_early, dpieces, -1))])
    u_seg = np.array([_late(integrals[k])[::st] for k in mesh.J_s])
    f_seg = np.array([_late(forces[k])[::st] for k in mesh.J_s])
    return lines, u_seg, f_seg


def _gather(piece_arr, units, per_piece, resolve="late"):
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


@dataclass(frozen=True)
class ArrayGrid:
    """A field grid held as whole (nt, nx) arrays, as ``FieldGrid`` once
    stored it, serving the row evaluators of ``FieldGrid`` by slicing; tests
    build it to hand the fields CSV writer arrays of their own, and the
    references below read it whole.  Fields a test does not need may be
    None."""

    mesh: object
    qt: int
    qx: int
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    r: np.ndarray
    p: np.ndarray
    s: np.ndarray
    e_quad_segments: tuple
    f_seg: np.ndarray
    interface_jump_v: float = 0.0
    interface_jump_r: float = 0.0

    @property
    def ht(self):
        """The t step as ``FieldGrid`` takes it, lam/(2*qt), not t[1] - t[0]."""
        return self.mesh.lam / (2 * self.qt)

    @property
    def hx(self):
        """The x step, lam/(2*qx): equal to ``ht`` when qt == qx."""
        return self.mesh.lam / (2 * self.qx)

    def segment_windows(self):
        """Column windows [j0, j1] of each segment (interfaces repeated)."""
        return [(i * 2 * self.qx, (i + 1) * 2 * self.qx) for i in range(self.mesh.N)]

    def column_segments(self):
        """Per x column, the segment whose traces it holds: the right one
        at an interface."""
        owner = np.zeros(len(self.x), dtype=int)
        for seg, (j0, j1) in enumerate(self.segment_windows()):
            owner[j0:j1 + 1] = seg
        return owner

    def rows(self, lo, hi):
        return self.v[lo:hi], self.r[lo:hi], self.p[lo:hi], self.s[lo:hi]


def energy_windows(fg):
    """The sector-averaged energy density of each segment window of the
    ``FieldGrid`` ``fg``, gathered from its derivative lines by fancy
    index and combined as :func:`fields` combines its gathers."""
    nt, width = len(fg.t), 2 * fg.qx + 1
    plus = np.arange(nt)[:, None] * fg.st + np.arange(width) * fg.sx
    minus = plus[:, ::-1]
    windows = []
    for seg in range(fg.mesh.N):
        dwp, dwp_e = (fg.lines[f, seg][plus] for f in (_DWP, _DWP_EARLY))
        dwm, dwm_e = (fg.lines[f, seg][minus] for f in (_DWM, _DWM_EARLY))
        windows.append(0.25 * sum((a ** 2 + b ** 2) for a in (dwp, dwp_e) for b in (dwm, dwm_e)))
    return tuple(windows)


def array_grid(fg, **changes):
    """The ``FieldGrid`` ``fg``, read whole through its row evaluator and
    with the energy windows of :func:`energy_windows`, as an
    :class:`ArrayGrid`, with ``changes`` replacing some of its arrays."""
    v, r, p, s = fg.rows(0, len(fg.t))
    grid = dict(mesh=fg.mesh, qt=fg.qt, qx=fg.qx, t=fg.t, x=fg.x, v=v, r=r, p=p, s=s,
                e_quad_segments=energy_windows(fg),
                f_seg=fg.f_seg, interface_jump_v=fg.interface_jump_v,
                interface_jump_r=fg.interface_jump_r)
    return ArrayGrid(**{**grid, **changes})


def fields(waves, controls, mesh, qt=None, qx=None):
    """The field grid with six fancy-index gathers per segment."""
    p = waves.p
    if qt is None and qx is None:
        qt = qx = _pick_q(p, 32)
    elif qt is None:
        qt = qx
    elif qx is None:
        qx = qt
    st = (p - 1) // (2 * qt)
    sx = (p - 1) // (2 * qx)
    nt, nx = 2 * mesh.M * qt + 1, 2 * mesh.N * qx + 1
    tgrid = np.linspace(0.0, mesh.T, nt)
    xgrid = np.linspace(-1.0, 1.0, nx)

    v = np.zeros((nt, nx))
    r = np.zeros((nt, nx))
    pm = np.zeros((nt, nx))
    s = np.zeros((nt, nx))
    e_segs = []
    jump_v = 0.0
    jump_r = 0.0

    iu = np.arange(nt)[:, None] * st
    half_units = (p - 1) // 2
    per = 2 * half_units

    t_units = np.arange(nt) * st
    u_time = {k: _gather(controls.integrals[k], t_units, per) for k in mesh.J_c}
    f_time = {k: _gather(controls.forces[k], t_units, per) for k in mesh.J_c}
    f_seg = np.stack([f_time[k] for k in mesh.J_s])

    for seg, k in enumerate(mesh.J_s):
        j0, j1 = seg * 2 * qx, (seg + 1) * 2 * qx
        ju = (np.arange(j0, j1 + 1) - mesh.N * qx)[None, :] * sx
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
        e_seg = 0.25 * sum((a ** 2 + b ** 2)
                           for a in (dwp, dwp_e) for b in (dwm, dwm_e))

        if seg > 0:
            jump_v = max(jump_v, float(np.max(np.abs(v[:, j0] - v_seg[:, 0]))))
            jump_r = max(jump_r, float(np.max(np.abs(r[:, j0] - r_seg[:, 0]))))
        v[:, j0:j1 + 1] = v_seg
        r[:, j0:j1 + 1] = r_seg
        pm[:, j0:j1 + 1] = p_seg
        s[:, j0:j1 + 1] = s_seg
        e_segs.append(e_seg)

    return ArrayGrid(mesh=mesh, qt=qt, qx=qx, t=tgrid, x=xgrid,
                     v=v, r=r, p=pm, s=s,
                     e_quad_segments=tuple(e_segs), f_seg=f_seg,
                     interface_jump_v=jump_v, interface_jump_r=jump_r)


def energy_density(fg):
    """The energy density as ``fields`` stored it before it was computed
    on access: 0.5 * (p**2 + (s - f)**2) over the whole grid, with the
    force array written segment by segment, so an interface column holds
    the right segment's force."""
    p, s = fg.p, fg.s
    f_arr = np.zeros(s.shape)
    for seg, (j0, j1) in enumerate(fg.segment_windows()):
        f_arr[:, j0:j1 + 1] = fg.f_seg[seg][:, None]
    return 0.5 * (p ** 2 + (s - f_arr) ** 2)


def blockwise_derivative(values, h, kink_mask, axis=-1):
    """The whole-array blockwise derivative with its stencil sets taken by
    ``np.nonzero`` on every call, along the moved axis."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    kinks = np.moveaxis(np.asarray(kink_mask, dtype=bool), axis, -1)
    deriv = np.empty_like(v)
    valid = np.ones(v.shape, dtype=bool)
    deriv[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)

    def shifted(index, k):
        return index[:-1] + (index[-1] + k,)

    bound = kinks.copy()
    bound[..., 0] = True
    bound[..., -1] = True
    start = bound[..., :-1]
    short = start & bound[..., 1:]
    fwd = np.nonzero(start & ~short)
    deriv[fwd] = (-3.0 * v[fwd] + 4.0 * v[shifted(fwd, 1)]
                  - v[shifted(fwd, 2)]) / (2.0 * h)
    one = np.nonzero(short)
    deriv[one] = (v[shifted(one, 1)] - v[one]) / h
    valid[one] = False
    last_short = start[..., -1]
    deriv[..., -1] = np.where(
        last_short, (v[..., -1] - v[..., -2]) / h,
        (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h))
    valid[..., -1] = ~last_short
    return np.moveaxis(deriv, -1, axis), np.moveaxis(valid, -1, axis)


def residual_Q_windows(fg):
    """Constitutive residual with the blockwise stencil sets rebuilt per
    window."""
    ht, hx = fg.ht, fg.hx
    plus, minus = kink_masks(fg)
    kinks = plus | minus
    v, p, s = fg.v, fg.p, fg.s

    wt = simpson_weights(len(fg.t), ht)
    total = 0.0
    for seg, (j0, j1) in enumerate(fg.segment_windows()):
        cols = slice(j0, j1 + 1)
        vseg = v[:, cols]
        kseg = kinks[:, cols]
        vt, ok_t = blockwise_derivative(vseg, ht, kseg, axis=0)
        vx, ok_x = blockwise_derivative(vseg, hx, kseg, axis=1)
        g_res = vt - p[:, cols]
        h_res = vx - s[:, cols] + fg.f_seg[seg][:, None]
        q = g_res ** 2 / 4.0 + h_res ** 2 / 4.0
        q = np.where(ok_t & ok_x & ~kseg, q, 0.0)
        wx = simpson_weights(j1 - j0 + 1, hx)
        total += float(wt @ q @ wx)
    return total


def mean_energy(fg):
    """Grid mean energy with row weights looked up row by row per window."""
    ht, hx = fg.ht, fg.hx
    plus, minus = kink_masks(fg)
    kinks = plus | minus
    nt = len(fg.t)
    profile = np.zeros(nt)
    row_weights = {}
    for (j0, j1), vals in zip(fg.segment_windows(), fg.e_quad_segments):
        rows = []
        for pattern in kinks[:, j0:j1 + 1]:
            key = pattern.tobytes()
            if key not in row_weights:
                row_weights[key] = blockwise_simpson_weights(
                    len(pattern), hx, np.flatnonzero(pattern))
            rows.append(row_weights[key])
        profile += np.einsum("ij,ij->i", vals, np.stack(rows))
    t_splits = np.arange(fg.qt, nt - 1, fg.qt)
    return blockwise_simpson(profile, ht, t_splits) / fg.mesh.T


def solve_qp(qp, par, bc, weights):
    """The KKT solve as the package ran it before the difference-variable
    form: [[2H, C^T], [C, 0]] of an :class:`AssembledQP`, assembled sparse
    and factored by SuperLU."""
    kkt = sp.bmat([[2.0 * qp.H, qp.C.T], [qp.C, None]], format="csc")
    n_x = qp.n_x
    rhs = np.concatenate([-2.0 * qp.b, qp.d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = spla.splu(kkt).solve(rhs)
            if not np.all(np.isfinite(sol)):
                raise SolverError("singular KKT matrix (non-finite solve)")
            resid = np.max(np.abs(kkt @ sol - rhs))
        except (RuntimeError, ValueError, Warning) as exc:
            raise SolverError(f"KKT factorization failed: {exc}") from exc
    if resid > 1e-8 * (1.0 + np.max(np.abs(rhs))):
        raise SolverError(f"KKT residual {resid:.3e}")

    n_y = qp.n_free * qp.p                 # samples in sample-major order, then gamma
    y = sol[:n_y].reshape(qp.p, qp.n_free).T.copy()
    gamma = sol[n_y:n_x].copy()
    mult = sol[n_x:]
    res = check_feasible(bc, y, gamma, "qp")
    obj = evaluate_objective(par, weights, y)
    diagnostics = {"kkt_size": kkt.shape[0], "feasibility_residual": res,
                   "objective_quadrature": qp.objective(sol[:n_x])}
    return Solution(y=y, gamma=gamma, h=mult, objective=obj, method="qp",
                    diagnostics=diagnostics)


def solve_euler_lagrange(par, bc, weights, p):
    """The closed form as the package ran it before the boundary system
    was factored once per mesh: (A^T A)^+ by ``pinv`` after an SVD
    degeneracy test, and the boundary system solved per state by
    ``lstsq``.  Returns the solution with the ``lstsq`` rank and residual
    as diagnostics."""
    mesh, n_s, n_g, n_b = par.mesh, par.n_free, par.n_gamma, bc.n_rows
    lam = mesh.lam
    a_w = par.A[:par.catalog.N_w]
    ata = a_w.T @ a_w
    svals = np.linalg.svd(ata, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SolverError("euler_lagrange: A^T A is degenerate")
    ata_inv = np.linalg.pinv(ata, rcond=1e-12)

    c_beta, c_gamma, c_h = n_s, 2 * n_s, 2 * n_s + n_g
    mat = np.zeros((n_b + 2 * n_s + n_g, 2 * n_s + n_g + n_b))
    mat[:n_b, :c_beta] = bc.B1 - bc.B0
    mat[:n_b, c_beta:c_gamma] = lam * bc.B1
    mat[:n_b, c_gamma:c_h] = -bc.B_gamma
    for r, bm in ((n_b, bc.B0), (n_b + n_s, bc.B1)):
        mat[r:r + n_s, c_beta:c_gamma] = ata
        mat[r:r + n_s, c_h:] = -bm.T
    mat[n_b + 2 * n_s:, c_h:] = bc.B_gamma.T

    g_w = par.g_matrix(p)[:par.catalog.N_w]
    y_part = -ata_inv @ (a_w.T @ g_w)
    vec = np.zeros(len(mat))
    for i in range(n_b):
        vec[i] = bc.b0[i] - bc.B1[i] @ y_part[:, -1] + bc.B0[i] @ y_part[:, 0]
    sol, _, rank, _ = np.linalg.lstsq(mat, vec, rcond=None)
    residual = float(np.max(np.abs(mat @ sol - vec)))
    if not residual <= 1e-8 * (1.0 + float(np.max(np.abs(vec)))):
        raise SolverError(f"euler_lagrange: boundary system residual {residual:.3e}")

    z = np.linspace(0.0, lam, p)
    y = y_part + sol[:n_s, None] + sol[n_s:2 * n_s, None] * z[None, :]
    gamma = sol[2 * n_s:2 * n_s + n_g].copy()
    res = check_feasible(bc, y, gamma, "euler_lagrange")
    obj = evaluate_objective(par, weights, y)
    return Solution(y=y, gamma=gamma, h=sol[2 * n_s + n_g:], objective=obj,
                    method="euler_lagrange",
                    diagnostics={"feasibility_residual": res,
                                 "boundary_lstsq_residual": residual,
                                 "boundary_rank": int(rank)})


def resample(state, mesh, p):
    """Linear-interpolate all profiles of a state onto the canonical grid
    for p."""
    grid = np.linspace(-1.0, 1.0, mesh.N * (p - 1) + 1)

    def onto(f):
        return None if f is None else SampledFunction(-1.0, 1.0, f(grid))

    return StateSpec(*[onto(getattr(state, n)) for n in
                       ("v0", "r0", "v1", "r1", "p0", "p1")])


def reflect(f):
    """The function z -> f(a + b - z); exact sample-index reversal."""
    return SampledFunction(f.a, f.b, f.values[::-1].copy())
