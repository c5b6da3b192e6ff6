"""The difference-variable KKT solve against the sparse-LU solve of the
assembled KKT matrix it replaced (``loop_reference.solve_qp`` on
``loop_reference.assemble_qp``).

Both solve the same system, so the objectives agree to rounding and the
solutions to the conditioning of the KKT matrix; the production residual,
evaluated from the cell kernels, must be within its tolerance of the
assembled right-hand side on every cell.
"""

import numpy as np
import pytest

import loop_reference as ref
from conftest import assemble_all, solve_closed_form
from rodwave.energy import assemble_qp
from rodwave.mesh import build_mesh
from rodwave.solver import compare_solvers, solve_qp
from test_edge import random_state

P = 129
# (N, M)
CELLS = ([(n, m) for n in range(2, 9) for m in range(2, 9)]
         + [(1, 5), (9, 2), (12, 12)])


@pytest.mark.parametrize("state", ["paper_example", "trig"])
@pytest.mark.parametrize("n,m", CELLS)
def test_matches_sparse_lu(n, m, state):
    mesh = build_mesh(n, m)
    data = None if state == "paper_example" else random_state(mesh, P, seed=100 * n + m)
    _, _, _, par, bc, weights = assemble_all(n, m, P, data)
    qp = assemble_qp(par, bc, weights, P)
    sol = solve_qp(qp, par, bc, weights)
    assembled = ref.assemble_qp(par, bc, weights, P)
    old = ref.solve_qp(assembled, par, bc, weights)

    rhs_max = max(2.0 * np.max(np.abs(assembled.b)),
                  np.max(np.abs(assembled.d), initial=0.0))
    assert sol.diagnostics["kkt_residual"] <= 1e-8 * (1.0 + rhs_max)
    assert sol.diagnostics["kkt_size"] == old.diagnostics["kkt_size"]
    assert abs(sol.objective - old.objective) <= 1e-10 * abs(old.objective)
    x, x_old = (np.concatenate([s.y.ravel(), s.gamma]) for s in (sol, old))
    assert np.max(np.abs(x - x_old)) <= 1e-8 * (1.0 + np.max(np.abs(x_old)))
    assert compare_solvers(sol, solve_closed_form(par, bc, weights, P)).qp_not_worse
