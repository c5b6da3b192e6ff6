"""Array-wide per-mesh assembly against the loop forms it replaced.

``boundary_matrices`` (one gather per term slot, every vertex row solved)
and ``assemble_qp`` (one kernel per mesh) must return the same bits as
the row-by-row sweep, which keeps every vertex row, and the dict-of-blocks
LIL assembly kept in ``loop_reference``, whose per-cell einsum kernels lie
within 2 ulps of the one kernel.  The junction rows a solution violates
must be those a row-by-row evaluation flags.  The KKT rows and the
objective the solver evaluates from the kernel must equal those of the
assembled H, C and b.
"""

from dataclasses import replace

import numpy as np
import pytest

import loop_reference as ref
from conftest import assemble_all, solve_closed_form
from rodwave import cli
from rodwave.edge import (assemble_vertex_conditions, boundary_matrices, boundary_structure,
                          build_catalog, wave_key)
from rodwave.energy import assemble_qp
from rodwave.errors import AssemblyError
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
    # the reference keeps one einsum kernel per cell, sum_e (a_ei c) a_ej
    # rounded term by term: each entry lies within 2 ulps of c (A_w^T A_w)
    # rounded once, and the zero entries agree
    assert old.kernels.shape == (new.p - 1,) + new.kernel.shape
    assert np.all((old.kernels == 0.0) == (new.kernel == 0.0))
    assert np.all(np.abs(old.kernels - new.kernel) <= 2 * np.spacing(np.abs(new.kernel)))
    assert_bits(new.lin_cells, old.lin_cells)
    assert_bits(new.d, old.d)
    assert new.c0.hex() == old.c0.hex()


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


@pytest.mark.parametrize("n,m", [(4, 4), (3, 7), (6, 6), (7, 5), (12, 12)])
def test_one_weight_on_touched_rows(n, m):
    # every wave row A touches is an interior piece, weighed exactly lambda
    # in every cell; the ramp pieces have zero rows
    mesh, _, _, par, _, weights = assemble_all(n, m, 129)
    touched = np.any(par.A[:par.catalog.N_w] != 0.0, axis=1)
    assert np.all(weights.w_mid[touched] == mesh.lam)
    cat = build_catalog(mesh)
    ramps = [cat.index[wave_key(side, k, layer)] for k in mesh.J_s
             for side in (+1, -1) for layer in (mesh.J_t[0], mesh.J_t[-1])]
    assert not np.any(touched[ramps])
    check_both(par, weights, 129, assemble_vertex_conditions(mesh))


@pytest.mark.parametrize("n,m", [(12, 12), (16, 16), (4, 4), (3, 7), (6, 6)])
def test_kernels_match_dense_einsum(n, m):
    # K is c (A_w^T A_w), c = lambda h / T the one cell weight: every entry
    # of A_w^T A_w is a multiple of 1/4 (A has entries in 1/2 Z), so the
    # dense einsum sums it exactly and K is one rounded product, bit for bit
    mesh, _, _, par, bc, weights = assemble_all(n, m, 129)
    qp = assemble_qp(par, bc, weights, 129)
    a_w = par.A[:par.catalog.N_w]
    ata = np.einsum("ei,ej->ij", a_w, a_w)
    assert np.all(4.0 * ata == np.round(4.0 * ata))
    assert_bits(qp.kernel, (mesh.lam * (mesh.lam / 128 / mesh.T)) * ata)
    assert_bits(qp.kernel, qp.kernel.T)


def test_mixed_touched_weights_raise(tmp_path, capsys, monkeypatch):
    # one cell of one touched row weighed 1 ulp below lambda: the rows A
    # touches no longer share one weight, and the assembly refuses the
    # program, as the CLI's exit 4 (its default mesh is N = M = 4)
    mesh, _, _, par, bc, weights = assemble_all(4, 4, 17)
    e = int(np.flatnonzero(np.any(par.A[:par.catalog.N_w] != 0.0, axis=1))[0])
    with pytest.raises(AssemblyError, match="do not share one cell weight"):
        assemble_qp(par, bc, one_ulp_off(weights, e), 17)
    # a ramp row A does not touch may weigh anything
    ramp = par.catalog.index[wave_key(+1, mesh.J_s[0], 0)]
    assert not np.any(par.A[ramp])
    assemble_qp(par, bc, one_ulp_off(weights, ramp), 17)

    real = cli.build_weights
    monkeypatch.setattr(cli, "build_weights",
                        lambda mesh, p: one_ulp_off(real(mesh, p), e))
    code = cli.main(["solve", "--solver", "both", "--p-grid", "17",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_INVARIANT
    assert "do not share one cell weight" in capsys.readouterr().err


def one_ulp_off(weights, row):
    w_mid = weights.w_mid.copy()
    w_mid[row, 3] = np.nextafter(w_mid[row, 3], 0.0)
    return replace(weights, w_mid=w_mid)


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
    assert structure.violated_junctions(sol.entries) == ()
    par.g_matrix(9)[entry, -1] += 0.5      # the cached data part, in place
    bc = check_both(par, weights, 9, assemble_vertex_conditions(mesh))
    sol = solve_closed_form(par, bc, weights, 9)
    violated = structure.violated_junctions(sol.entries)
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
