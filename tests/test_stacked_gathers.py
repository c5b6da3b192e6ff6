"""Whole-mesh gathers of a state's waves, controls and data part against
their loop forms, and the separation of per-mesh data.

``waves_from_solution``, ``jump_pieces_from_solution`` and
``controls_from_jumps`` gather every piece of a state through the index
arrays of its ``Parametrization`` into one stack each; ``fields`` builds
the wave lines and control histories by reshaping those stacks, and
``Parametrization.g_matrix`` reads each term slot through flat data
indices built once per (mesh, P).  ``tests/loop_reference.py`` does the
same work key by key, piece by piece and entry by entry: every array and
every diagnostic must match it bit for bit, and keyed access must read
the right stack row for every index, negative ones included.
"""

import numpy as np
import pytest

import loop_reference as ref
from rodwave import cli
from rodwave import reconstruct as rec
from rodwave.edge import StateSpec, assemble_edge_constraints, eliminate
from rodwave.errors import AssemblyError
from rodwave.mesh import build_mesh
from test_assembly import assert_bits
from test_field_views import trig_params

CASES = [(n, m, p) for n in (1, 2, 3, 6, 12) for m in (2, 3, 7) for p in (17, 129)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "N%d-M%d-P%d" % c)
def solved(request):
    n, m, p = request.param
    config = cli.validate_config({"N": n, "M": m, "P": p, "preset": "trig",
                                  "preset_params": trig_params(11 * n + m)})
    out = cli.solve_pipeline(config, reconstruct=False)
    par, sol, mesh = out["par"], out["primary"], out["mesh"]
    entries = par.entry_values(sol.y, sol.gamma)
    jumps = rec.jump_pieces_from_solution(par, entries)
    return dict(par=par, mesh=mesh, state=out["state"], entries=entries, p=p,
                waves=rec.waves_from_solution(par, entries), jumps=jumps,
                controls=rec.controls_from_jumps(mesh, jumps))


def test_waves_match_loop_form(solved):
    waves, mesh = solved["waves"], solved["mesh"]
    pieces, dpieces, gap = ref.wave_pieces(solved["par"], solved["entries"])
    assert waves.piece_stack.shape == (2, mesh.N, mesh.M + 1, solved["p"])
    assert waves.continuity_max.hex() == gap.hex()
    assert set(waves.pieces) == set(waves.dpieces) == set(pieces)
    for key in pieces:
        assert_bits(waves.pieces[key], pieces[key])
        assert_bits(waves.dpieces[key], dpieces[key])
        assert np.shares_memory(waves.pieces[key], waves.piece_stack)
        assert np.shares_memory(waves.dpieces[key], waves.dpiece_stack)


def test_controls_match_loop_form(solved):
    controls, mesh = solved["controls"], solved["mesh"]
    jumps = ref.jump_pieces(solved["par"], solved["entries"])
    integrals, forces = ref.control_histories(mesh, jumps)
    assert list(solved["jumps"]) == list(mesh.J_x)
    assert list(controls.jumps) == list(mesh.J_x)
    for n in mesh.J_x:
        assert_bits(solved["jumps"][n], jumps[n])
        assert_bits(controls.jumps[n], jumps[n])
    # every control, the end loads -N-1 and N+1 and the negative segments
    # among them, reads its own row
    assert list(controls.integrals) == list(controls.forces) == list(mesh.J_c)
    lam = mesh.lam
    for k in mesh.J_c:
        assert_bits(controls.integrals[k], integrals[k])
        assert_bits(controls.forces[k], forces[k])
        assert np.shares_memory(controls.integrals[k], controls.integral_stack)
        # t = 0 and lam are the first samples of pieces 0 and 1
        want = (integrals[k][1, 0] - integrals[k][0, 0]) / lam
        assert controls.force_average(k, 0.0, lam) == want
    assert controls.zero_start_max() == max(abs(float(u[0, 0])) for u in integrals.values())
    assert controls.zero_sum_max() == float(np.max(np.abs(sum(forces.values()))))
    h = mesh.lam / (solved["p"] - 1)
    assert controls.jump_identity_max() == max(
        float(np.max(np.abs(forces[n + 1] - forces[n - 1] - ref.fd_derivative(jumps[n], h))))
        for n in mesh.J_x)


def test_field_lines_match_loop_form(solved):
    waves, controls, mesh = solved["waves"], solved["controls"], solved["mesh"]
    pieces, dpieces, _ = ref.wave_pieces(solved["par"], solved["entries"])
    integrals, forces = ref.control_histories(
        mesh, ref.jump_pieces(solved["par"], solved["entries"]))
    fg = rec.fields(waves, controls, mesh)
    lines, u_seg, f_seg = ref.field_lines(pieces, dpieces, integrals, forces, mesh, fg.st)
    assert_bits(fg.lines, lines)
    assert_bits(fg.u_seg, u_seg)
    assert_bits(fg.f_seg, f_seg)
    want = ref.fields(waves, controls, mesh)
    assert fg.interface_jump_v.hex() == want.interface_jump_v.hex()
    assert fg.interface_jump_r.hex() == want.interface_jump_r.hex()


def test_g_matrix_matches_loop_form(solved):
    par, mesh, p = solved["par"], solved["mesh"], solved["p"]
    assert_bits(par.g_matrix(p), ref.g_matrix(ref.data_exprs(par), solved["state"], mesh, p))


# --- per-mesh data ------------------------------------------------------------

def _solve(n, m, p, seed):
    config = cli.validate_config({"N": n, "M": m, "P": p, "preset": "trig",
                                  "preset_params": trig_params(seed)})
    out = cli.solve_pipeline(config)
    terminal = out["terminal"]
    return {"g": out["par"].g_matrix(p).tobytes(), "Q": out["Q"].hex(),
            "E_grid": out["E_grid"].hex(),
            "terminal": [getattr(terminal, name).hex() for name in terminal.__dataclass_fields__]}


def test_meshes_keep_their_own_data():
    # A, then B, then A again in one process, against solves that each
    # start from an empty operator cache
    sequence = [((3, 3, 33), 1), ((4, 2, 17), 2), ((3, 3, 33), 3), ((3, 3, 65), 4),
                ((3, 3, 33), 1)]
    got = [_solve(*mesh, seed) for mesh, seed in sequence]
    fresh = []
    for mesh, seed in sequence:
        cli.clear_operator_cache()
        fresh.append(_solve(*mesh, seed))
    assert got == fresh
    assert got[0] == got[-1]


def test_rebound_copies_share_the_index_arrays():
    mesh = build_mesh(3, 3)
    par = eliminate(assemble_edge_constraints(mesh))
    states = [StateSpec.from_callables(mesh, p, lambda x, a=a: np.sin(a * x), np.cos,
                                       lambda x: x ** 2, np.sin)
              for a, p in ((1.0, 33), (2.0, 33), (3.0, 17))]
    # both copies made before the first g_matrix call
    first, second, coarse = (par.rebind(state) for state in states)
    for bound, p in ((first, 33), (second, 33), (coarse, 17)):
        assert_bits(bound.g_matrix(p), ref.g_matrix(ref.data_exprs(par), bound.state, mesh, p))
    assert first._g_gathers(33) is second._g_gathers(33) is par._g_gathers(33)
    assert coarse._g_gathers(17) is par._g_gathers(17)
    assert first._g_gathers(33) is not first._g_gathers(17)
    for (_, f1, c1), (_, f2, c2) in zip(first._g_gathers(33)[0], second._g_gathers(33)[0]):
        assert f1 is f2 and c1 is c2 and not f1.flags.writeable
    assert first.wave_index is second.wave_index is par.wave_index
    assert first.jump_index is par.jump_index
    # the data parts themselves stay per state
    assert not np.array_equal(first.g_matrix(33), second.g_matrix(33))



@pytest.mark.parametrize("shift", [-1, 1])
def test_a_window_outside_its_profile_raises_on_every_call(shift):
    # one term slot moved half a rod past either end of the profiles
    mesh = build_mesh(3, 3)
    par = eliminate(assemble_edge_constraints(mesh))
    ents, names, orients, shifts, coefs = par._term_slots[0]
    par._term_slots[0] = [ents, names, orients, shifts + shift * 2 * mesh.N, coefs]
    bound = par.rebind(StateSpec.from_callables(mesh, 33, np.sin, np.cos, np.sin, np.cos))
    for _ in range(2):
        with pytest.raises(AssemblyError, match="data window out of range for [vr][01]$"):
            bound.g_matrix(33)
    assert par._g_indices == {} and bound._g_cache == {}
