import csv
import dataclasses

import numpy as np
import pytest

from rodwave.mesh import build_mesh
from rodwave.edge import StateSpec
from rodwave.energy import assemble_qp, mean_energy
from rodwave.errors import ReconstructionError
from rodwave.sampled import fd_derivative, simpson_weights
from rodwave.solver import solve_qp
from rodwave import reconstruct as rec
from conftest import assemble_all, solve_closed_form
import loop_reference as ref
from loop_reference import force_at, junction_discontinuities

P = 33


@pytest.fixture(scope="module")
def solved(worked_example):
    # the sparse-LU KKT solve of the assembled program in loop_reference:
    # TestPinnedDiagnostics pins Q on these fields bit for bit, and the
    # difference-variable solve rounds y differently
    par = worked_example["par"]
    mesh = worked_example["mesh"]
    bc, weights = worked_example["bc"], worked_example["weights"]
    sol = ref.solve_qp(ref.assemble_qp(par, bc, weights, weights.p), par, bc, weights)
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    fg = rec.fields(waves, controls, mesh)
    return {"mesh": mesh, "par": par, "sol": sol, "waves": waves,
            "controls": controls, "fg": fg,
            "state": worked_example["state"]}


def zero_case(n=2, m=2):
    mesh = build_mesh(n, m)
    state = StateSpec.zero(mesh, P)
    _, _, _, par, bc, weights = assemble_all(n, m, P, state)
    sol = solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    return mesh, state, waves, controls


class TestWaveTable:
    def test_zero_data_zero_table(self):
        _, _, waves, _ = zero_case()
        for arr in waves.pieces.values():
            assert np.max(np.abs(arr)) <= 1e-12

    def test_continuity(self, solved):
        assert solved["waves"].continuity_max <= 1e-9

    def test_initial_pieces_are_half_sum_half_difference(self, solved):
        # w+(k,0) = (v0+r0)/2 shifted; here v0 = -r0 so the '+' piece dies
        # and the '-' piece equals v0 reflected about the segment
        mesh, waves = solved["mesh"], solved["waves"]
        for k in mesh.J_s:
            plus0 = waves.pieces[(+1, k)][0]
            assert np.max(np.abs(plus0)) <= 1e-12
            z = np.linspace(0.0, mesh.lam, waves.p)
            minus0 = waves.pieces[(-1, k)][0]
            assert np.allclose(minus0, np.cos(3 * (mesh.x(k + 1) - z)),
                               atol=1e-12)

    def test_edge_rows_hold_on_table(self, worked_example):
        from loop_reference import edge_residuals, gamma_dict

        par = worked_example["par"]
        sol = worked_example["sol_qp"]
        w_all = par.entry_values(sol.y, sol.gamma)
        res = edge_residuals(worked_example["system"], worked_example["state"], w_all,
                             gamma_dict(par, sol.gamma), w_all.shape[1])
        assert res.max() <= 1e-9


class TestControls:
    def test_zero_sum_chain_worked_example(self):
        # N=2 chain with constant jumps (1, 0, -1): solve the 4x4 system
        # {u_{n+1} - u_{n-1} = jump_n, sum u = 0} directly
        jumps = np.array([1.0, 0.0, -1.0])[:, None]
        resolved = rec.resolve_zero_sum_chain(jumps)[:, 0]
        assert resolved == pytest.approx([-0.5, 0.5, 0.5, -0.5])
        # verify the defining relations
        assert resolved[1] - resolved[0] == pytest.approx(1.0)
        assert resolved[2] - resolved[1] == pytest.approx(0.0)
        assert resolved[3] - resolved[2] == pytest.approx(-1.0)
        assert resolved.sum() == pytest.approx(0.0)

    def test_zero_jumps_zero_controls(self):
        _, _, _, controls = zero_case()
        assert controls.zero_sum_max() <= 1e-12
        for k in controls.mesh.J_c:
            assert np.max(np.abs(controls.forces[k])) <= 1e-9

    def test_invariants_on_worked_example(self, solved):
        controls = solved["controls"]
        assert controls.zero_start_max() <= 1e-9
        assert controls.zero_sum_max() <= 1e-9
        assert controls.jump_identity_max() <= 1e-9

    def test_integral_of_force_recovers_integral(self):
        # u_k(t) - int_0^t f_k dtau <= 1e-6 in sup norm; the trapezoid of
        # the differentiated samples is O(h^2), so check on a fine grid
        mesh, _, _, par, bc, weights = assemble_all(4, 4, 1025)
        sol = solve_closed_form(par, bc, weights, 1025)
        entries = par.entry_values(sol.y, sol.gamma)
        controls = rec.controls_from_jumps(
            mesh, rec.jump_pieces_from_solution(par, entries))
        h = mesh.lam / (controls.p - 1)
        worst = 0.0
        for k in mesh.J_c:
            offset = 0.0
            for j in range(mesh.M):
                cum = offset + np.concatenate(
                    [[0.0], np.cumsum(0.5 * h * (controls.forces[k][j, 1:]
                                                 + controls.forces[k][j, :-1]))])
                worst = max(worst, float(np.max(np.abs(
                    cum - controls.integrals[k][j]))))
                offset = cum[-1]
        assert worst <= 1e-6

    def test_force_discontinuities_at_layer_junctions_only(self, solved):
        controls = solved["controls"]
        for k in controls.mesh.J_c:
            jumps = junction_discontinuities(controls, k)
            assert np.all(jumps > 1e-6)
            # smooth inside pieces: second differences at truncation level
            arr = controls.forces[k]
            d2 = np.abs(np.diff(arr, 2, axis=1)).max()
            assert d2 <= 1e-2   # O(h^2 f''), far below the O(1) jumps

    def test_force_at_one_sided_limits(self, solved):
        mesh, controls = solved["mesh"], solved["controls"]
        t_j = mesh.lam   # first junction
        for k in mesh.J_c:
            left = force_at(controls, k, t_j, side="left")
            right = force_at(controls, k, t_j, side="right")
            assert abs(left - controls.forces[k][0, -1]) <= 1e-12
            assert abs(right - controls.forces[k][1, 0]) <= 1e-12


class TestFields:
    def test_zero_fields(self):
        mesh, state, waves, controls = zero_case()
        whole = ref.array_grid(rec.fields(waves, controls, mesh))
        for arr in (whole.v, whole.r, whole.p, whole.s, ref.energy_density(whole)):
            assert np.max(np.abs(arr)) <= 1e-12

    def test_terminal_rows_match_data(self, solved):
        fg, state = solved["fg"], solved["state"]
        err = rec.terminal_error(fg, state)
        assert err.v0_sup <= 1e-8
        assert err.v1_sup <= 1e-8
        assert err.r0_sup <= 1e-8
        assert err.r1_sup <= 1e-8

    def test_interface_continuity(self, solved):
        assert solved["fg"].interface_jump_v <= 1e-8
        assert solved["fg"].interface_jump_r <= 1e-8

    def test_wave_equation_in_segment_interiors(self, solved):
        # v_tt - v_xx = 0 away from interfaces and characteristic kinks
        fg = solved["fg"]
        ht = fg.t[1] - fg.t[0]
        hx = fg.x[1] - fg.x[0]
        plus, minus = ref.kink_masks(fg)
        kinks = plus | minus
        v = fg.rows(0, len(fg.t))[0]
        vtt = (v[2:, :] - 2 * v[1:-1, :] + v[:-2, :]) / ht ** 2
        vxx = (v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / hx ** 2
        resid = vtt[:, 1:-1] - vxx[1:-1, :]
        # exclude any stencil touching a kink or interface column
        clean = np.ones_like(resid, dtype=bool)
        for di in (-1, 0, 1):
            clean &= ~kinks[1 + di:resid.shape[0] + 1 + di, 1:-1]
            clean &= ~kinks[1:-1, 1 + di:resid.shape[1] + 1 + di]
        cols = np.arange(1, len(fg.x) - 1)
        clean[:, cols % (2 * fg.q) == 0] = False
        assert np.max(np.abs(resid[clean])) <= 1e-6

    def test_boundary_condition_on_internal_force(self, solved):
        # s(t, +-1) equals the corresponding end load
        fg, controls, mesh = solved["fg"], solved["controls"], solved["mesh"]
        t = fg.t
        left = np.asarray(force_at(controls, -mesh.N - 1, t, side="right"))
        right = np.asarray(force_at(controls, mesh.N + 1, t, side="right"))
        left[-1] = force_at(controls, -mesh.N - 1, mesh.T, side="left")
        right[-1] = force_at(controls, mesh.N + 1, mesh.T, side="left")
        # the final row holds the terminal-side corner trace, so the
        # boundary identity is checked on [0, T)
        s = fg.rows(0, len(t))[3]
        assert np.max(np.abs(s[:-1, 0] - left[:-1])) <= 1e-6
        assert np.max(np.abs(s[:-1, -1] - right[:-1])) <= 1e-6

    def test_momentum_consistent_with_fd_of_r(self, solved):
        # p = r_x to O(h^2) on clean stencils
        fg = solved["fg"]
        hx = fg.x[1] - fg.x[0]
        plus, minus = ref.kink_masks(fg)
        kinks = plus | minus
        _, r, p, _ = fg.rows(0, len(fg.t))
        rx = (r[:, 2:] - r[:, :-2]) / (2 * hx)
        clean = ~(kinks[:, :-2] | kinks[:, 1:-1] | kinks[:, 2:])
        cols = np.arange(1, len(fg.x) - 1)
        clean[:, cols % (2 * fg.q) == 0] = False
        diff = np.abs(rx - p[:, 1:-1])[clean]
        assert np.max(diff) <= 5e-3     # O(h^2 r''') at this resolution

    def test_energy_consistency(self, solved):
        val = mean_energy(solved["fg"])
        assert val == pytest.approx(solved["sol"].objective, rel=5e-3)


class TestResidualQ:
    def test_zero_case(self):
        mesh, state, waves, controls = zero_case()
        fg = rec.fields(waves, controls, mesh)
        assert rec.residual_Q(fg) <= 1e-14

    def test_worked_example_budget(self, solved):
        fg, sol, mesh = solved["fg"], solved["sol"], solved["mesh"]
        assert rec.residual_Q(fg) <= 1e-6 * mesh.T * sol.objective

    def test_refinement_order(self, solved):
        qs = (8, 16, 32)
        vals = [rec.residual_Q(rec.fields(solved["waves"], solved["controls"],
                                          solved["mesh"], q))
                for q in qs]
        assert vals[0] / vals[1] > 8     # around fourth order
        assert vals[1] / vals[2] > 8

    def test_corruption_raises_q_quadratically(self, solved):
        # adding 0.1 to the first half of every segment's w+' line moves p
        # and s by 0.1 wherever they read it, so g and h both move by
        # -0.1 there: Q rises by about 2 * 0.1^2 / 4 times the retained
        # quadrature weight of those samples
        fg = solved["fg"]
        base = rec.residual_Q(fg)
        lines = fg.lines.copy()
        half = lines.shape[-1] // 2
        lines[rec._DWP, :, :half] += 0.1
        raised = rec.residual_Q(dataclasses.replace(fg, lines=lines))
        expected = 2 * 0.1 ** 2 / 4.0 * _reached_measure(fg, half)
        assert raised - base == pytest.approx(expected, rel=0.01)

    def test_corrupted_controls_detected(self, solved):
        # Q reads each window's own traces, so a control history out of
        # step with the waves shows as a jump of r across an interface,
        # which fields() refuses
        controls = solved["controls"]
        scaled = dataclasses.replace(controls, integral_stack=1.1 * controls.integral_stack,
                                     force_stack=1.1 * controls.force_stack)
        with pytest.raises(ReconstructionError, match="interface continuity"):
            rec.fields(solved["waves"], scaled, solved["mesh"])

    def test_reads_only_the_four_late_lines(self, solved):
        # the applied force, the control integral and the early w+-'
        # lines are NaN; Q keeps its bits
        fg = solved["fg"]
        lines = fg.lines.copy()
        lines[rec._DWP_EARLY:] = np.nan
        blind = dataclasses.replace(fg, lines=lines, u_seg=np.full_like(fg.u_seg, np.nan),
                                    f_seg=np.full_like(fg.f_seg, np.nan))
        assert rec.residual_Q(blind).hex() == rec.residual_Q(fg).hex()


class TestPinnedDiagnostics:
    # values of the slice-by-slice kernels the array code replaced (Q is
    # loop_reference.residual_Q's on the fields of the complete vertex
    # rows, which residual_Q sums in another order; it was
    # 1.0186399260719786e-08 on those of the swept rows, which round the
    # KKT solve differently)
    Q = 1.0186399258146917e-08
    E_GRID = 2.1500877735834076

    def test_residual_q_unchanged(self, solved):
        assert rec.residual_Q(solved["fg"]) == pytest.approx(self.Q, rel=1e-9)

    def test_grid_energy_unchanged(self, solved):
        assert mean_energy(solved["fg"]) == pytest.approx(self.E_GRID, rel=1e-14)


def _reached_measure(fg, n_samples):
    """Simpson weight of the samples Q keeps, over every segment window,
    whose p and s read one of the first ``n_samples`` samples of a w+'
    line: window sample (i, j) reads sample (i + j)*s of its own line."""
    nt, width = len(fg.t), 2 * fg.q + 1
    weights = np.outer(simpson_weights(nt, fg.h), simpson_weights(width, fg.h))
    weights[rec.window_kinks(fg).drop] = 0.0
    own = (np.arange(nt)[:, None] + np.arange(width)) * fg.s
    return fg.mesh.N * float(weights[own < n_samples].sum())


def read_fields_csv(path):
    """Parse a fields CSV back into coordinate and value arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    t = np.unique(rows[:, 0])
    x = np.unique(rows[:, 1])
    out = {}
    for col, name in enumerate(header[2:], start=2):
        out[name] = rows[:, col].reshape(len(t), len(x))
    return t, x, out


class TestCsvRoundTrip:
    def test_fields_round_trip(self, solved, tmp_path):
        path = tmp_path / "fields.csv"
        rec.write_fields_csv(solved["fg"], path)
        t, x, arrays = read_fields_csv(path)
        whole = ref.array_grid(solved["fg"])
        assert np.allclose(t, whole.t, atol=1e-10)
        assert np.allclose(arrays["v"], whole.v, rtol=1e-11, atol=1e-11)
        assert np.allclose(arrays["e"], ref.energy_density(whole), rtol=1e-11, atol=1e-11)

    def test_controls_csv_has_one_sided_junctions(self, solved, tmp_path):
        path = tmp_path / "controls.csv"
        rec.write_controls_csv(solved["controls"], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        times = [float(r[0]) for r in rows[1:]]
        lam = solved["mesh"].lam
        # junction instants appear twice (left then right limits)
        assert sum(1 for t in times if abs(t - lam) < 1e-12) == 2


def test_corner_lines_follow_characteristics(solved):
    # the displacement's curvature concentrates on the characteristic
    # lattice (the visible corner lines of the optimal motion)
    fg = solved["fg"]
    plus, minus = ref.kink_masks(fg)
    kinks = plus | minus
    v = fg.rows(0, len(fg.t))[0]
    d2 = np.abs(v[2:] - 2 * v[1:-1] + v[:-2])
    on = d2[kinks[1:-1]].mean()
    off = d2[~(kinks[:-2] | kinks[1:-1] | kinks[2:])].mean()
    assert on > 5.0 * off


def test_terminal_rows_hold_for_any_free_vector(solved):
    # the prescribed states are eliminated constraints, not objectives:
    # even a random (infeasible-for-vertex-continuity) free vector keeps
    # the first and last field rows on the data
    par, mesh, state = solved["par"], solved["mesh"], solved["state"]
    rng = np.random.default_rng(17)
    y = rng.standard_normal((par.n_free, 129))
    gamma = rng.standard_normal(par.n_gamma)
    w_all = par.entry_values(y, gamma)
    from rodwave.edge import wave_key
    for k in mesh.J_s:
        v_row = (w_all[par.catalog.index[wave_key(+1, k, 0)]]
                 + w_all[par.catalog.index[wave_key(-1, k, 0)]][::-1])
        lo = mesh.N * (129 - 1) // 2 + (k - 1) * (129 - 1) // 2
        data = state.v0.values[lo:lo + 129]
        assert np.allclose(v_row, data, atol=1e-9)
