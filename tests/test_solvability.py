"""Solvability of the state-free edge rows plus the vertex rows, for
N in 1..32 and M in 1..3: M = 1 admits no solution for generic data, and
M >= 2 admits one for all data.  This backs the cheap rule of
``edge.feasibility_check`` (infeasible exactly when M = 1) with the rows
themselves, independently of the elimination.

The edge rows hold pointwise in z on [0, lambda]; the initial and terminal
rows also read the '-' waves at the reflected argument lambda - z, and the
vertex rows tie entries' values at z = 0 and z = lambda.  So the samples at
the two ends, with the terminal constants gamma, form one block that holds
every vertex row.  Every other pair (z, lambda - z) carries the edge rows
alone, with the same coefficients as the end block's edge rows; at the
midpoint z = lambda / 2 the two samples of a pair are one.  The test
assembles the end block as a dense matrix G (two samples of every edge
row, then the vertex rows; columns are the two end samples of every
catalog entry, then gamma).  For M >= 2 it shows that G has full row
rank, and so do its edge rows without the gamma columns, also with the
two samples merged: every block is then solvable for any data, whatever
gamma the end block takes.  For M = 1 it shows dependent rows that the
data of a seeded random state contradict.
"""

import numpy as np
import pytest

import loop_reference as ref
from rodwave.edge import (
    DATA_NAMES,
    assemble_edge_constraints,
    assemble_vertex_conditions,
    feasibility_check,
)
from rodwave.mesh import build_mesh

P = 5                        # samples per piece of the random state's grid


def end_block(mesh, data):
    """G and b of the end samples (s = 0 at z = 0, s = 1 at z = lambda),
    and the number of edge rows in G."""
    system = assemble_edge_constraints(mesh)
    cat = system.catalog
    rows = ref.edge_rows(system)
    vertex_rows = ref.junction_rows(assemble_vertex_conditions(mesh), cat)
    n_v = cat.N_v
    gamma_col = {k: 2 * n_v + i for i, k in enumerate(mesh.J_s)}
    g = np.zeros((2 * len(rows) + len(vertex_rows), 2 * n_v + mesh.N))
    b = np.zeros(len(g))
    half, center = (P - 1) // 2, mesh.N * (P - 1) // 2
    for i, row in enumerate(rows):
        for s in (0, 1):
            r = 2 * i + s
            for col, coef, orient in row.terms:
                g[r, 2 * col + (s if orient == +1 else 1 - s)] += coef
            for k, coef in row.rhs.gammas.items():
                g[r, gamma_col[k]] -= coef
            for (name, orient, shift), coef in row.rhs.terms.items():
                b[r] += coef * data[name][center + shift * half + orient * s * (P - 1)]
            for (name, end), coef in row.rhs.consts.items():
                b[r] += coef * data[name][0 if end < 0 else -1]
    for i, row in enumerate(vertex_rows):
        for key, at, coef in row.terms:
            g[2 * len(rows) + i, 2 * cat.index[key] + at] += coef
    return g, b, 2 * len(rows)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_m1_unsolvable_and_m2_up_solvable(m):
    rng = np.random.default_rng(m)
    for n in range(1, 33):
        mesh = build_mesh(n, m)
        data = {name: rng.standard_normal(n * (P - 1) + 1) for name in DATA_NAMES}
        g, b, n_edge = end_block(mesh, data)
        rank = np.linalg.matrix_rank(g)
        if m == 1:
            # dependent rows, and the random data contradict them
            assert rank < len(g), (n, rank, len(g))
            assert np.linalg.matrix_rank(np.column_stack([g, b])) == rank + 1, n
        else:
            # full row rank: solvable for all data; this data's solution
            # has the residual of rounding
            assert rank == len(g), (n, m, rank, len(g))
            pairs = g[:n_edge, :-n]
            midpoint = pairs[::2, ::2] + pairs[::2, 1::2]
            assert np.linalg.matrix_rank(pairs) == n_edge, (n, m)
            assert np.linalg.matrix_rank(midpoint) == n_edge // 2, (n, m)
            x = g.T @ np.linalg.solve(g @ g.T, b)
            assert np.max(np.abs(g @ x - b)) <= 1e-10 * np.max(np.abs(b)), (n, m)
        assert feasibility_check(n, m).feasible == (m >= 2)
