import os

import numpy as np
import pytest

from rodwave import cli
from rodwave import reconstruct as rec
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
from rodwave.sampled import fd_derivative
from rodwave.solver import ELSystem, solve_euler_lagrange, solve_qp


@pytest.fixture(autouse=True)
def fresh_operator_cache():
    """Every test starts and ends with an empty solve-operator cache, so no
    test reuses structure built under another test's monkeypatches."""
    cli.clear_operator_cache()
    yield
    cli.clear_operator_cache()


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count that ``solve`` and the fields writer see, with
    every grid point enough for a fields helper; returns the list of forks
    made.  With one CPU, a fork raises."""
    forks, real_fork = [], os.fork

    def set_cpus(n):
        def counting_fork():
            if n == 1:
                raise AssertionError("forked with one CPU")
            forks.append(os.getpid())
            return real_fork()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(rec, "MIN_HELPER_POINTS", 1)
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks
    return set_cpus


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


def solve_closed_form(par, bc, weights, p, el=None):
    """``solve_euler_lagrange`` with the boundary system factored here,
    unless ``el`` is given."""
    el = ELSystem(par, structure_of(par)) if el is None else el
    return solve_euler_lagrange(par, bc, weights, p, el)


def conjugate_vector(par, el, y):
    """The conjugate vector A^T A y' + A^T g' of a closed-form solution y
    on the state par is bound to, (N_s, p) by finite differences; it is
    constant in z on a stationary solution."""
    h = par.mesh.lam / (y.shape[1] - 1)
    g_data = par.g_matrix(y.shape[1])[el.data_rows]
    return par.ata @ fd_derivative(y, h) + el.a_data.T @ fd_derivative(g_data, h)


@pytest.fixture(scope="session")
def worked_example():
    """Solved (N=4, M=4) worked example at P=129, both solvers."""
    mesh, state, system, par, bc, weights = assemble_all(4, 4, 129)
    qp = assemble_qp(par, bc, weights, 129)
    sol_qp = solve_qp(qp, par, bc, weights)
    el = ELSystem(par, structure_of(par))
    sol_el = solve_closed_form(par, bc, weights, 129, el)
    return {
        "mesh": mesh, "state": state, "system": system, "par": par,
        "bc": bc, "weights": weights, "qp": qp, "el": el,
        "sol_qp": sol_qp, "sol_el": sol_el,
    }
