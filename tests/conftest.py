import numpy as np
import pytest

from rodwave import cli
from rodwave.mesh import build_mesh
from rodwave.edge import (
    StateSpec,
    assemble_edge_constraints,
    assemble_vertex_conditions,
    boundary_matrices,
    boundary_structure,
    eliminate,
)
from rodwave.energy import assemble_qp, build_weights
from rodwave.solver import ELSystem, solve_euler_lagrange, solve_qp


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
    """The mesh, the state, the edge system, the parametrization bound to
    the state, its essential rows and the energy weights."""
    mesh = build_mesh(n, m)
    if state is None:
        state = example_state(mesh, p)
    system = assemble_edge_constraints(mesh)
    par = eliminate(system).rebind(state)
    bc = boundary_matrices(structure_of(par), par)
    weights = build_weights(mesh, p)
    return mesh, state, system, par, bc, weights


def structure_of(par):
    """The essential-row structure of the complete vertex rows of par's mesh."""
    return boundary_structure(par, assemble_vertex_conditions(par.mesh))


def solve_closed_form(par, bc, weights, p):
    """``solve_euler_lagrange`` with the boundary system factored here."""
    return solve_euler_lagrange(par, bc, weights, p, ELSystem(par, structure_of(par)))


@pytest.fixture(scope="session")
def worked_example():
    """Solved (N=4, M=4) worked example at P=129, both solvers."""
    mesh, state, system, par, bc, weights = assemble_all(4, 4, 129)
    qp = assemble_qp(par, bc, weights, 129)
    sol_qp = solve_qp(qp, par, bc, weights)
    sol_el = solve_closed_form(par, bc, weights, 129)
    return {
        "mesh": mesh, "state": state, "system": system, "par": par,
        "bc": bc, "weights": weights, "qp": qp,
        "sol_qp": sol_qp, "sol_el": sol_el,
    }
