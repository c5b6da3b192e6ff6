"""End-to-end randomized runs across mesh parities and sizes."""

import numpy as np
import pytest

from rodwave.mesh import build_mesh
from rodwave.edge import StateSpec
from rodwave.energy import assemble_qp, mean_energy
from rodwave.solver import compare_solvers, solve_qp
from rodwave import reconstruct as rec
from conftest import assemble_all, solve_closed_form

P = 33


@pytest.mark.parametrize("n,m,seed", [
    (1, 2, 0), (1, 4, 1), (2, 3, 2), (3, 2, 3), (3, 4, 4),
    (4, 2, 5), (5, 3, 6), (6, 2, 7),
])
def test_random_data_steered_exactly(n, m, seed):
    mesh = build_mesh(n, m)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((4, 4))
    mk = lambda row: (lambda x: row[0] * np.cos(row[1] * x)
                      + row[2] * np.sin(row[3] * x))
    state = StateSpec.from_callables(mesh, P, v0=mk(c[0]), r0=mk(c[1]),
                                     v1=mk(c[2]), r1=mk(c[3]))
    _, _, _, par, bc, weights = assemble_all(n, m, P, state)
    sol_qp = solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)
    sol_el = solve_closed_form(par, bc, weights, P)
    rep = compare_solvers(sol_qp, sol_el)
    assert rep.qp_not_worse

    entries = par.entry_values(sol_qp.y, sol_qp.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    fg = rec.fields(waves, controls, mesh)
    terr = rec.terminal_error(fg, state)
    assert terr.worst() <= 1e-9
    assert waves.continuity_max <= 1e-9
    assert fg.interface_jump_v <= 1e-9
    assert fg.interface_jump_r <= 1e-9
    assert controls.zero_sum_max() <= 1e-9
    assert controls.zero_start_max() <= 1e-9
    if sol_qp.objective > 1e-10:
        assert mean_energy(fg) == pytest.approx(sol_qp.objective, rel=5e-3)
