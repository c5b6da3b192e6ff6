"""Float elimination, slot-ordered data gather and whole-array energy
weights against the loop forms they replaced.

``eliminate`` runs Gauss-Jordan in floats with a column-to-rows index;
``loop_reference.eliminate`` runs the same pivot order over Fractions with
a scan of every row per pivot.  Every coefficient is a small dyadic
rational, so the two must agree exactly: A, C_gamma, the free map, A read
as Fractions, each entry's data terms in insertion order, and the data part
g, which ``Parametrization.g_matrix`` gathers slot by slot and
``loop_reference.g_matrix`` evaluates entry by entry.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import loop_reference as ref
from conftest import example_state
from rodwave.edge import assemble_edge_constraints, build_catalog, eliminate, jump_key
from rodwave.energy import build_weights
from rodwave.errors import AssemblyError
from rodwave.mesh import build_mesh
from test_assembly import assert_bits
from test_edge import random_state

P = 17
SWEEP = [(n, m) for m in range(2, 9) for n in range(2, 9)]


def reference_arrays(par, a_rows, g_exprs):
    """A and C_gamma written from the Fraction elimination."""
    a_mat = np.zeros_like(par.A)
    c_mat = np.zeros_like(par.C_gamma)
    gamma_pos = {k: i for i, k in enumerate(par.gamma_map)}
    for e, row in enumerate(a_rows):
        for j, c in row.items():
            a_mat[e, j] = float(c)
        for k, c in g_exprs[e].gammas.items():
            c_mat[e, gamma_pos[k]] = float(c)
    return a_mat, c_mat


def check_parametrization(system, state, p):
    par = eliminate(system).rebind(state)
    free_map, a_rows, g_exprs = ref.eliminate(system)
    a_mat, c_mat = reference_arrays(par, a_rows, g_exprs)
    assert par.free_map == tuple(free_map)
    assert_bits(par.A, a_mat)
    assert_bits(par.C_gamma, c_mat)
    # every nonzero of A, read as a Fraction, is the exact rational entry
    assert [{j: Fraction(c) for j, c in enumerate(row.tolist()) if c}
            for row in par.A] == a_rows
    for new, old in zip(par.g_exprs, g_exprs, strict=True):
        for part in ("terms", "consts", "gammas"):
            got = list(getattr(new, part).items())
            assert got == list(getattr(old, part).items())
            assert all(type(c) is float for _, c in got)
    assert_bits(par.g_matrix(p), ref.g_matrix(g_exprs, state, system.mesh, p))
    return par, g_exprs


@pytest.mark.parametrize("n,m", SWEEP + [(1, 5), (9, 2), (12, 12), (16, 16)])
def test_float_elimination_matches_fractions(n, m):
    mesh = build_mesh(n, m)
    check_parametrization(assemble_edge_constraints(mesh), example_state(mesh, P), P)


@pytest.mark.parametrize("n,m,seeds", [(2, 2, (1, 2)), (4, 4, (3, 4)), (5, 3, (5,)),
                                       (6, 6, (6, 7)), (7, 8, (8,))])
def test_gather_matches_loop_on_random_states(n, m, seeds):
    mesh = build_mesh(n, m)
    par, g_exprs = check_parametrization(
        assemble_edge_constraints(mesh), random_state(mesh, P, seed=0), P)
    for seed in seeds:
        state = random_state(mesh, 33, seed=seed)
        assert_bits(par.rebind(state).g_matrix(33), ref.g_matrix(g_exprs, state, mesh, 33))


def with_coefficient(system, coef):
    """The system with the first left-boundary row's jump coefficient
    replaced; that jump is the first column of the pivot order."""
    jump = system.catalog.index[jump_key(-system.mesh.N, 0)]
    rows = list(system.rows)
    i = next(i for i, row in enumerate(rows) if row.kind == "boundary_left")
    terms = tuple((col, coef if col == jump else c, o) for col, c, o in rows[i].terms)
    rows[i] = dataclasses.replace(rows[i], terms=terms)
    return dataclasses.replace(system, rows=tuple(rows))


def test_pivot_not_a_power_of_two_raises():
    mesh = build_mesh(4, 4)
    system = with_coefficient(assemble_edge_constraints(mesh), 3)
    # over Fractions the pivot 3 leaves thirds, which floats would round
    _, _, g_exprs = ref.eliminate(system)
    assert any(c.denominator == 3 for e in g_exprs for c in e.consts.values())
    with pytest.raises(AssemblyError, match="pivot 3.0 is not a power of two"):
        eliminate(system)


def test_coefficient_off_the_half_grid_raises():
    # a pivot of 4 divides exactly, but leaves quarters and eighths behind
    mesh = build_mesh(4, 4)
    system = with_coefficient(assemble_edge_constraints(mesh), 4)
    with pytest.raises(AssemblyError,
                       match=r"coefficient -?0\.[0-9]+ is not a multiple of 1/2"):
        eliminate(system)


@pytest.mark.parametrize("n,m,p", [(n, m, 17) for n, m in SWEEP]
                         + [(1, 5, 9), (4, 4, 129), (6, 6, 129), (7, 5, 129)])
def test_weights_match_loop(n, m, p):
    mesh = build_mesh(n, m)
    weights = build_weights(mesh, p)
    table, w_mid = ref.build_weights(mesh, p)
    assert_bits(weights.w_mid, w_mid)
    # w_mid is written a layer kind at a time; row by row it is the
    # midpoint of the reference's per-piece weight, in catalog order
    cat = build_catalog(mesh)
    assert set(table) == set(cat.entries[:cat.N_w])
    for row, key in zip(weights.w_mid, cat.entries[:cat.N_w], strict=True):
        assert_bits(row, 0.5 * (table[key][:-1] + table[key][1:]))
