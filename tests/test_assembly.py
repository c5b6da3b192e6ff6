"""Array-wide per-mesh assembly against the loop forms it replaced.

``boundary_matrices`` (one gather per term slot, every vertex row solved)
and ``assemble_qp`` (one kernel per distinct weight column) must return
the same bits as the row-by-row sweep, which keeps every vertex row, and
the per-cell kernels of the dict-of-blocks LIL assembly kept in
``loop_reference``.  The junction rows a solution violates must be those
a row-by-row evaluation flags.  The KKT rows and the objective the solver
evaluates from the kernels must equal those of the assembled H, C and b.
"""

import numpy as np
import pytest

import loop_reference as ref
from conftest import assemble_all, solve_closed_form
from rodwave.edge import assemble_vertex_conditions, boundary_matrices, boundary_structure
from rodwave.energy import assemble_qp
from rodwave.mesh import build_mesh
from rodwave.solver import kkt_residual
from test_edge import random_state


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_bc(new, old):
    for name in ("B0", "B1", "B_gamma", "b0"):
        assert_bits(getattr(new, name), getattr(old, name))
    assert new.rank == old.rank == new.n_rows


def assert_same_qp(new, old):
    # the reference keeps one kernel per cell
    assert_bits(new.kernels[new.cell_class], old.kernels[old.cell_class])
    assert_bits(new.lin_cells, old.lin_cells)
    assert_bits(new.d, old.d)
    assert new.c0.hex() == old.c0.hex()


def distinct_weight_columns(par, weights, p):
    """Distinct scaled cell weight columns over the wave rows A touches."""
    n_w = par.catalog.N_w
    w_cells = weights.w_mid * (par.mesh.lam / (p - 1) / par.mesh.T)
    touched = np.any(par.A[:n_w] != 0.0, axis=1)
    return len(np.unique(w_cells[touched].T, axis=0))


def check_both(par, weights, p, vertex_rows, include_guards=False):
    # the sweep keeps every vertex row, also with the junction rows of
    # every wave and jump stacked behind them
    bc = boundary_matrices(boundary_structure(par, vertex_rows), par)
    assert_same_bc(bc, ref.boundary_matrices(par, vertex_rows,
                                             include_guards=include_guards))
    assert_same_qp(assemble_qp(par, bc, weights, p),
                   ref.assemble_qp(par, bc, weights, p))
    return bc


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (5, 3), (6, 3), (7, 2)])
def test_odd_and_even_n(n, m):
    mesh, _, _, par, _, weights = assemble_all(n, m, 17)
    check_both(par, weights, 17, assemble_vertex_conditions(mesh))


@pytest.mark.parametrize("n,m,columns", [(4, 4, 1), (3, 7, 2), (6, 6, 3)])
def test_distinct_weight_columns(n, m, columns):
    mesh, _, _, par, _, weights = assemble_all(n, m, 129)
    assert distinct_weight_columns(par, weights, 129) == columns
    check_both(par, weights, 129, assemble_vertex_conditions(mesh))


@pytest.mark.parametrize("n,m", [(12, 12), (16, 16), (4, 4), (3, 7), (6, 6)])
def test_kernels_match_dense_einsum(n, m):
    # the kernels summed over A_w's nonzero triples are the bits of the
    # dense three-operand einsum over every row, also on meshes where it
    # takes another inner path (it runs 30x longer at N=12 than at N=8)
    mesh, _, _, par, bc, weights = assemble_all(n, m, 129)
    qp = assemble_qp(par, bc, weights, 129)
    a_w = par.A[:par.catalog.N_w]
    w_cells = weights.w_mid * (mesh.lam / 128 / mesh.T)
    first = [np.flatnonzero(qp.cell_class == c)[0] for c in range(len(qp.kernels))]
    assert_bits(qp.kernels, np.einsum("ei,ep,ej->pij", a_w, w_cells[:, first], a_w))


@pytest.mark.parametrize("n,m", [(3, 3), (4, 4)])
def test_without_guards(n, m):
    # the solve needs no junction row beyond the vertex rows: the sweep
    # over vertex and junction rows keeps the vertex rows and nothing else
    mesh, _, _, par, _, weights = assemble_all(n, m, 17)
    check_both(par, weights, 17, assemble_vertex_conditions(mesh),
               include_guards=True)


def test_random_state():
    mesh = build_mesh(5, 3)
    _, _, _, par, _, weights = assemble_all(5, 3, 33, random_state(mesh, 33, seed=4))
    check_both(par, weights, 33, assemble_vertex_conditions(mesh))


@pytest.mark.parametrize("n,m,entry,flagged", [
    # ("w", 1, -3, 0): only the junction through its end sees it
    (4, 4, 0, (("guard_w", 1, -3, 2),)),
    # ("w", 1, -1, 0): its junction is no longer a vertex row
    (4, 4, 10, (("guard_w", 1, -1, 2),)),
    # ("w", 1, 0, 4): a solved central-segment row moves the solution
    (3, 3, 12, (("guard_w", -1, -2, 6), ("guard_w", 1, 2, 4), ("guard_u", -3, 4),
                ("guard_u", 3, 2))),
    # ("w", -1, -1, 2): a solved terminal tie moves the solution
    (2, 2, 3, (("guard_w", 1, 1, 4), ("guard_u", -2, 2), ("guard_u", 2, 2))),
])
def test_perturbed_data_flags_rows(n, m, entry, flagged):
    # a shifted end sample of one entry's data part contradicts the solved
    # rows; the junction rows the solution violates are those a row-by-row
    # evaluation flags
    mesh, _, _, par, clean, weights = assemble_all(n, m, 9)
    structure = boundary_structure(par, assemble_vertex_conditions(mesh))
    sol = solve_closed_form(par, clean, weights, 9)
    assert structure.violated_junctions(par, sol.y, sol.gamma) == ()
    par.g_matrix(9)[entry, -1] += 0.5      # the cached data part, in place
    bc = check_both(par, weights, 9, assemble_vertex_conditions(mesh))
    sol = solve_closed_form(par, bc, weights, 9)
    violated = structure.violated_junctions(par, sol.y, sol.gamma)
    res, scale = ref.junction_residuals(par, sol.y, sol.gamma)
    assert [label for label, r in violated] == [
        label for label, r in res if abs(r) > 1e-8 * scale]
    assert tuple(label for label, _ in violated) == flagged


@pytest.mark.parametrize("n,m,p", [(2, 2, 17), (3, 2, 17), (4, 2, 17), (5, 3, 17),
                                   (6, 3, 17), (7, 2, 17), (3, 3, 17), (4, 4, 129),
                                   (3, 7, 129), (6, 6, 129), (5, 3, 33)])
def test_matrix_free_kkt_against_assembled(n, m, p):
    # random (x, m): the residual rows and the objective of the cell form
    # equal 2Hx + C^T m + 2b, Cx - d and x^T H x + 2 b^T x + c0
    mesh, _, _, par, bc, weights = assemble_all(n, m, p)
    qp = assemble_qp(par, bc, weights, p)
    old = ref.assemble_qp(par, bc, weights, p)
    rng = np.random.default_rng(1000 * n + 10 * m + p)
    for _ in range(3):
        x = rng.standard_normal(qp.n_x)
        mult = rng.standard_normal(bc.n_rows)
        r_x, r_c = kkt_residual(qp, bc, x, mult)
        want_x = 2.0 * (old.H @ x) + old.C.T @ mult + 2.0 * old.b
        want_c = old.C @ x - old.d
        assert r_x.shape == want_x.shape and r_c.shape == want_c.shape
        assert np.max(np.abs(r_x - want_x)) <= 1e-13 * np.max(np.abs(want_x))
        assert np.max(np.abs(r_c - want_c)) <= 1e-13 * np.max(np.abs(want_c))
        want = old.objective(x)
        assert abs(qp.objective(x) - want) <= 1e-13 * abs(want)
