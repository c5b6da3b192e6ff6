"""The closed form factored once per mesh against the least-squares closed
form it replaced (``loop_reference.solve_euler_lagrange``: ``pinv`` of
A^T A and a per-state ``lstsq`` of the whole bordered boundary system),
the structure that lets the boundary system be reduced to one
n_b-square system S = [G | lambda B1 w] (see ``solver.ELSystem``), and
that reduction against the bordered system refined in long double.

Both forms solve the same well-conditioned system, so they agree to
rounding.  Every output is compared by max|new - old| / max(1, max|old|),
relative to the data's unit scale where an array is smaller: the
multipliers h are about 1e-3 of the data, and the least-squares solve
leaves a boundary residual about ten times that of the LU solve, so h
judged on its own scale would measure the reference's rounding.
"""

import numpy as np
import pytest

import loop_reference as ref
from conftest import assemble_all, solve_closed_form, structure_of
from rodwave.edge import (
    assemble_edge_constraints,
    assemble_vertex_conditions,
    boundary_structure,
    eliminate,
)
from rodwave.mesh import build_mesh, counts
from rodwave.solver import ELSystem
from test_edge import random_state

P = 129
CELLS = [(n, m) for n in range(2, 9) for m in range(2, 9)]


def rel(new, old) -> float:
    new, old = np.asarray(new), np.asarray(old)
    return float(np.max(np.abs(new - old), initial=0.0)
                 / max(1.0, float(np.max(np.abs(old), initial=0.0))))


@pytest.mark.parametrize("state", ["paper_example", "trig"])
@pytest.mark.parametrize("n,m", CELLS)
def test_matches_least_squares_closed_form(n, m, state):
    mesh = build_mesh(n, m)
    data = None if state == "paper_example" else random_state(mesh, P, seed=100 * n + m)
    _, _, _, par, bc, weights = assemble_all(n, m, P, data)
    new = solve_closed_form(par, bc, weights, P)
    old = ref.solve_euler_lagrange(par, bc, weights, P)
    for name in ("y", "gamma", "h"):
        assert rel(getattr(new, name), getattr(old, name)) <= 1e-12, name
    assert abs(new.objective - old.objective) <= 1e-12 * abs(old.objective)
    # the reference's lstsq proves the bordered system full rank
    assert old.diagnostics["boundary_rank"] == bc.n_rows + 2 * par.n_free + par.n_gamma


@pytest.mark.parametrize("n", range(1, 13))
def test_boundary_system_is_nonsingular(n):
    # G has one more row than columns, z is dyadic and G^T z is exactly 0,
    # sigma is positive, and cond_1(S) stays below 1e4 (at most 1.27e3 on
    # N <= 12 x M 2..12, 1.71e3 at (32, 8)): S is nonsingular, so G has
    # full column rank and z spans the null space of G^T
    for m in range(2, 11):
        _, _, _, par, bc, _ = assemble_all(n, m, 9)
        structure = structure_of(par)
        el = ELSystem(par, structure)
        g = np.concatenate([structure.B1 - structure.B0, -structure.B_gamma], axis=1)
        assert g.shape == (bc.n_rows, bc.n_rows - 1) == (par.n_free + par.n_gamma + 1,
                                                        par.n_free + par.n_gamma)
        assert set(el.z.tolist()) <= {0.0, 0.5, -0.5, 1.0}
        assert np.all(g.T @ el.z == 0.0)
        assert el.s.shape == el.s_inv.shape == (bc.n_rows, bc.n_rows)
        assert par.mesh.lam * (structure.B1.T @ el.z) @ el.w > 0.0
        assert np.linalg.norm(el.s, 1) * np.linalg.norm(el.s_inv, 1) < 1e4


def label_rule_z(mesh, vertex_rows) -> np.ndarray:
    """The null vector of G^T by the parity of N: for odd N, 1 on every
    central-wave junction row ("w", side, 0, m); for even N, 1 on every
    wave junction row, +1/2 on the zero anchor ("u0",) and -1/2 on every
    jump junction ("u", 0, m) of the central interface."""
    z = np.zeros(len(vertex_rows))
    for i, label in enumerate(vertex_rows.labels):
        if mesh.N % 2:
            z[i] = 1.0 if label[0] == "w" and label[2] == 0 else 0.0
        elif label[0] == "w":
            z[i] = 1.0
        elif label == ("u0",):
            z[i] = 0.5
        elif label[:2] == ("u", 0):
            z[i] = -0.5
    return z


@pytest.mark.parametrize("n", range(1, 17))
def test_null_vector_follows_the_label_rule(n):
    for m in range(2, 11):
        mesh = build_mesh(n, m)
        rows = assemble_vertex_conditions(mesh)
        par = eliminate(assemble_edge_constraints(mesh))
        structure = boundary_structure(par, rows)
        z = label_rule_z(mesh, rows)
        assert np.array_equal(structure.z, z), (n, m)
        assert np.all((structure.B1 - structure.B0).T @ z == 0.0), (n, m)
        assert np.all(structure.B_gamma.T @ z == 0.0), (n, m)


def bordered_solution(par, bc, rhs):
    """(alpha, beta, gamma, h) of the unreduced boundary system: the
    essential rows (B1 - B0) alpha + lambda B1 beta - B_gamma gamma = rhs,
    A^T A beta - B0^T h = 0, A^T A beta - B1^T h = 0 and B_gamma^T h = 0,
    solved by LU and refined with residuals in long double."""
    n_s, n_g, n_b = par.n_free, par.n_gamma, bc.n_rows
    c_beta, c_gamma, c_h = n_s, 2 * n_s, 2 * n_s + n_g
    mat = np.zeros((n_b + 2 * n_s + n_g, c_h + n_b))
    mat[:n_b, :c_beta] = bc.B1 - bc.B0
    mat[:n_b, c_beta:c_gamma] = par.mesh.lam * bc.B1
    mat[:n_b, c_gamma:c_h] = -bc.B_gamma
    for r, bm in ((n_b, bc.B0), (n_b + n_s, bc.B1)):
        mat[r:r + n_s, c_beta:c_gamma] = par.ata
        mat[r:r + n_s, c_h:] = -bm.T
    mat[n_b + 2 * n_s:, c_h:] = bc.B_gamma.T
    vec = np.zeros(len(mat))
    vec[:n_b] = rhs
    x = np.linalg.solve(mat, vec).astype(np.longdouble)
    mat_ld, vec_ld = mat.astype(np.longdouble), vec.astype(np.longdouble)
    for _ in range(4):
        x += np.linalg.solve(mat, (vec_ld - mat_ld @ x).astype(float))
    x = x.astype(float)
    return x[:c_beta], x[c_beta:c_gamma], x[c_gamma:c_h], x[c_h:]


@pytest.mark.parametrize("seed", [1, 2])
def test_boundary_unknowns_match_refined_bordered_system(seed):
    # the per-mesh reduction loses no accuracy against the bordered system
    # it replaces: alpha, beta = c w, gamma and h = c z to 1e-14 relative
    n = m = 16
    p = 33
    _, _, _, par, bc, weights = assemble_all(n, m, p, random_state(build_mesh(n, m), p, seed))
    el = ELSystem(par, structure_of(par))
    sol = solve_closed_form(par, bc, weights, p, el)
    y_part = -el.proj @ par.g_matrix(p)[el.data_rows]
    rhs = bc.b0 - bc.B1 @ y_part[:, -1] + bc.B0 @ y_part[:, 0]
    alpha, beta, gamma, h = bordered_solution(par, bc, rhs)
    c = float(sol.h @ el.z) / float(el.z @ el.z)
    for name, new, ref in (("alpha", sol.y[:, 0] - y_part[:, 0], alpha),
                           ("beta", c * el.w, beta), ("gamma", sol.gamma, gamma),
                           ("h", sol.h, h)):
        err = np.max(np.abs(new - ref)) / np.max(np.abs(ref))
        assert err <= 1e-14, (name, err)


def test_row_count_leaves_one_free_multiplier():
    # N_r = N_s + N + 1: G = [B1 - B0, -B_gamma] (N_r rows, N_s + N
    # columns) has exactly one more row than columns on every mesh
    for n in range(1, 65):
        for m in range(2, 65):
            c = counts(n, m)
            assert c.N_r == c.N_s + n + 1, (n, m)
