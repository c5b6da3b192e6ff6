import numpy as np
import pytest

from rodwave import cli
from rodwave.mesh import build_mesh
from rodwave.edge import (
    StateSpec,
    assemble_edge_constraints,
    assemble_vertex_conditions,
    boundary_matrices,
    eliminate,
)
from rodwave.energy import assemble_qp, build_weights
from rodwave.solver import solve_euler_lagrange, solve_qp


@pytest.fixture(autouse=True)
def fresh_operator_cache():
    """Every test starts and ends with an empty solve-operator cache, so no
    test reuses structure built under another test's monkeypatches."""
    cli.clear_operator_cache()
    yield
    cli.clear_operator_cache()


def example_state(mesh, p):
    """The worked example's data: v0 = cos 3x, r0 = -cos 3x, rest target."""
    return StateSpec.from_callables(
        mesh, p,
        v0=lambda x: np.cos(3.0 * x), r0=lambda x: -np.cos(3.0 * x),
        v1=lambda x: 0.0 * x, r1=lambda x: 0.0 * x)


def assemble_all(n, m, p, state=None):
    mesh = build_mesh(n, m)
    if state is None:
        state = example_state(mesh, p)
    system = assemble_edge_constraints(mesh, state)
    par = eliminate(system)
    bc = boundary_matrices(par, assemble_vertex_conditions(mesh))
    weights = build_weights(mesh, p)
    return mesh, state, system, par, bc, weights


@pytest.fixture(scope="session")
def worked_example():
    """Solved (N=4, M=4) worked example at P=129, both solvers."""
    mesh, state, system, par, bc, weights = assemble_all(4, 4, 129)
    qp = assemble_qp(par, bc, weights, 129)
    sol_qp = solve_qp(qp, par, bc, weights)
    sol_el = solve_euler_lagrange(par, bc, weights, 129)
    return {
        "mesh": mesh, "state": state, "system": system, "par": par,
        "bc": bc, "weights": weights, "qp": qp,
        "sol_qp": sol_qp, "sol_el": sol_el,
    }
