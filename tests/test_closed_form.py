"""The closed form factored once per mesh against the least-squares closed
form it replaced (``loop_reference.solve_euler_lagrange``: ``pinv`` of
A^T A and a per-state ``lstsq`` of the whole bordered boundary system),
and the structure that lets the boundary system be reduced to one
n_b-square system S = [G | lambda B1 w] (see ``solver.ELSystem``).

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
    # G has one more row than columns and full column rank (min |diag R|
    # over max is at least 0.047 on this grid), sigma is positive, and
    # cond(S) stays below 1.5e3
    for m in range(2, 11):
        _, _, _, par, bc, _ = assemble_all(n, m, 9)
        structure = structure_of(par)
        el = ELSystem(par, structure)
        g = np.concatenate([structure.B1 - structure.B0, -structure.B_gamma], axis=1)
        assert g.shape == (bc.n_rows, bc.n_rows - 1) == (par.n_free + par.n_gamma + 1,
                                                        par.n_free + par.n_gamma)
        r_diag = np.abs(np.diagonal(np.linalg.qr(g, mode="r")))
        assert r_diag.min() >= 1e-2 * r_diag.max()
        assert el.s.shape == el.s_inv.shape == (bc.n_rows, bc.n_rows)
        assert np.max(np.abs(g.T @ el.z)) <= 1e-12 and abs(el.z @ el.z - 1.0) <= 1e-12
        assert par.mesh.lam * (structure.B1.T @ el.z) @ el.w > 0.0
        assert np.linalg.cond(el.s) < 1e4


def test_row_count_leaves_one_free_multiplier():
    # N_r = N_s + N + 1: G = [B1 - B0, -B_gamma] (N_r rows, N_s + N
    # columns) has exactly one more row than columns on every mesh
    for n in range(1, 65):
        for m in range(2, 65):
            c = counts(n, m)
            assert c.N_r == c.N_s + n + 1, (n, m)
