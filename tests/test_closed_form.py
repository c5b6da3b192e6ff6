"""The closed form factored once per mesh against the least-squares closed
form it replaced (``loop_reference.solve_euler_lagrange``: ``pinv`` of
A^T A and a per-state ``lstsq``), and the nonsingularity of the boundary
system that makes the factorization possible.

Both forms solve the same square, well-conditioned system, so they agree
to rounding.  Every output is compared by max|new - old| / max(1, max|old|),
relative to the data's unit scale where an array is smaller: the
multipliers h are about 1e-3 of the data, and the least-squares solve
leaves a boundary residual about ten times that of the LU solve, so h
judged on its own scale would measure the reference's rounding.
"""

import numpy as np
import pytest

import loop_reference as ref
from conftest import assemble_all, solve_closed_form, structure_of
from rodwave.mesh import build_mesh
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
    assert new.diagnostics["boundary_rank"] == old.diagnostics["boundary_rank"]


@pytest.mark.parametrize("n", range(1, 13))
def test_boundary_system_is_nonsingular(n):
    # the factorization raises on a singular system; cond(mat) stays below
    # 3e3 on this grid
    for m in range(2, 11):
        _, _, _, par, bc, _ = assemble_all(n, m, 9)
        el = ELSystem(par, structure_of(par))
        size = bc.n_rows + 2 * par.n_free + par.n_gamma
        assert el.mat.shape == (size, size)
        assert el.K.shape == (size, bc.n_rows) and np.all(np.isfinite(el.K))
        assert el.b_gamma_rank == par.n_gamma
        assert np.linalg.cond(el.mat) < 1e4
