from fractions import Fraction

import numpy as np
import pytest

from rodwave.errors import ConfigurationError, InfeasibleError
from rodwave.mesh import build_mesh, counts
from rodwave.edge import (
    StateSpec,
    assemble_edge_constraints,
    assemble_vertex_conditions,
    build_catalog,
    eliminate,
    feasibility_check,
    guard_rows,
    jump_key,
    wave_key,
)
from conftest import assemble_all, example_state, structure_of
import loop_reference as ref
from loop_reference import edge_residuals, gamma_dict, partition, resample

P = 17


def random_state(mesh, p, seed=0):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((4, 4))

    def trig(c):
        return lambda x: (c[0] * np.cos(c[1] * x) + c[2] * np.sin(c[3] * x))

    return StateSpec.from_callables(mesh, p, v0=trig(coef[0]), r0=trig(coef[1]),
                                    v1=trig(coef[2]), r1=trig(coef[3]))


class TestCatalogAndAssembly:
    def test_catalog_sizes(self):
        for n, m in ((1, 2), (2, 2), (4, 4), (5, 3)):
            mesh = build_mesh(n, m)
            cat = build_catalog(mesh)
            sc = counts(n, m)
            assert cat.N_v == sc.N_v
            assert cat.N_w == sc.N_w
            assert cat.N_u == sc.N_u
            # waves first, controls after
            assert cat.entries[0][0] == "w"
            assert cat.entries[cat.N_w][0] == "u"

    def test_row_partition_worked_example(self):
        mesh = build_mesh(4, 4)
        system = assemble_edge_constraints(mesh)
        assert system.n_rows == 48
        part = partition(system)
        assert part["initial_v"] + part["initial_r"] == 8
        assert part["terminal_v"] + part["terminal_r"] == 8
        assert part["boundary_left"] + part["boundary_right"] == 8
        assert part["inter_v"] + part["inter_r"] == 24

    def test_single_segment_has_no_interelement_rows(self):
        mesh = build_mesh(1, 2)
        system = assemble_edge_constraints(mesh)
        part = partition(system)
        assert "inter_v" not in part and "inter_r" not in part

    def test_rows_have_at_most_five_terms(self):
        # interelement r-rows carry four waves plus one jump
        mesh = build_mesh(4, 3)
        system = assemble_edge_constraints(mesh)
        widths = np.bincount(system.row)
        assert max(widths) == 5
        assert all(w <= 5 for w in widths)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 2), (4, 4), (5, 3), (8, 2)])
    def test_rows_match_row_by_row_assembly(self, n, m):
        # the index arrays are the rows of the row-by-row loop, in order,
        # each row's terms and right-hand side as the loop writes them
        mesh = build_mesh(n, m)
        loop = ref.assemble_edge_rows(mesh)
        got = ref.edge_rows(assemble_edge_constraints(mesh))
        assert [(r.kind, r.terms) for r in got] == [(r.kind, r.terms) for r in loop]
        for new, old in zip(got, loop, strict=True):
            for part in ("terms", "consts", "gammas"):
                assert getattr(new.rhs, part) == getattr(old.rhs, part)
        cat = build_catalog(mesh)
        for rows, want in ((assemble_vertex_conditions(mesh), ref.vertex_rows_loop(mesh)),
                           (guard_rows(mesh), ref.guard_rows_loop(mesh))):
            assert ref.junction_rows(rows, cat) == want

    def test_coefficients_are_unit(self):
        mesh = build_mesh(3, 2)
        system = assemble_edge_constraints(mesh)
        c = system.coefficient_matrix
        assert set(np.unique(c)) <= {-1, 0, 1}

    def test_misaligned_state_rejected(self):
        mesh = build_mesh(4, 2)
        from rodwave.sampled import SampledFunction
        bad = SampledFunction.zeros(-1.0, 1.0, 51)   # 50 not divisible by 4
        par = eliminate(assemble_edge_constraints(mesh))
        with pytest.raises(ConfigurationError, match="does not align with N=4"):
            par.rebind(StateSpec(v0=bad, r0=bad, v1=bad, r1=bad))

    def test_initial_rows_closed_form(self):
        # w+(k,0)(z) = (v0+r0)(z_k+z)/2 and w-(k,0)(lam-z) = (v0-r0)(z_k+z)/2
        # satisfy both initial rows identically.
        mesh = build_mesh(4, 4)
        state = example_state(mesh, P)
        system = assemble_edge_constraints(mesh)
        par = eliminate(system).rebind(state)
        zeros = np.zeros((par.n_free, P))
        w_all = par.entry_values(zeros, np.zeros(par.n_gamma))
        x = np.linspace(-1.0, 1.0, mesh.N * (P - 1) + 1)
        for k in mesh.J_s:
            lo = mesh.z_plus(k)
            zgrid = lo + np.linspace(0, mesh.lam, P)
            expected_plus = 0.5 * (np.cos(3 * zgrid) - np.cos(3 * zgrid))
            got_plus = w_all[system.catalog.index[wave_key(+1, k, 0)]]
            assert np.allclose(got_plus, expected_plus, atol=1e-12)
            # the '-' piece holds (v0-r0)(x_{k+1} - z)/2 = cos(3(x_{k+1}-z))
            zs = np.linspace(0, mesh.lam, P)
            expected_minus = np.cos(3 * (mesh.x(k + 1) - zs))
            got_minus = w_all[system.catalog.index[wave_key(-1, k, 0)]]
            assert np.allclose(got_minus, expected_minus, atol=1e-12)


class TestElimination:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 4), (5, 3), (1, 3)])
    def test_soundness_random_draws(self, n, m):
        mesh = build_mesh(n, m)
        state = random_state(mesh, P, seed=n * 10 + m)
        system = assemble_edge_constraints(mesh)
        par = eliminate(system).rebind(state)
        assert par.n_free == counts(n, m).N_s
        rng = np.random.default_rng(42)
        for _ in range(20):
            y = rng.standard_normal((par.n_free, P))
            gamma = rng.standard_normal(par.n_gamma)
            res = edge_residuals(system, state, par.entry_values(y, gamma),
                                 gamma_dict(par, gamma), P)
            assert res.max() <= 1e-10

    def test_homogeneous_data_gives_zero(self):
        mesh = build_mesh(3, 3)
        system = assemble_edge_constraints(mesh)
        par = eliminate(system).rebind(StateSpec.zero(mesh, P))
        w_all = par.entry_values(np.zeros((par.n_free, P)), np.zeros(par.n_gamma))
        assert np.max(np.abs(w_all)) == 0.0

    def test_infeasible_horizon(self):
        mesh = build_mesh(4, 1)
        system = assemble_edge_constraints(mesh)
        with pytest.raises(InfeasibleError):
            eliminate(system)

    def test_exact_dyadic_entries(self):
        mesh = build_mesh(4, 3)
        par = eliminate(assemble_edge_constraints(mesh))
        for coef in par.A[par.A != 0].tolist():
            assert Fraction(coef).denominator in (1, 2)   # a multiple of 1/2

    def test_deterministic_free_map(self):
        mesh = build_mesh(5, 3)
        par1 = eliminate(assemble_edge_constraints(mesh))
        par2 = eliminate(assemble_edge_constraints(mesh))
        assert par1.free_map == par2.free_map
        assert par1.A.tobytes() == par2.A.tobytes()

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (4, 4), (6, 5), (8, 8)])
    def test_count_identities_through_elimination(self, n, m):
        mesh = build_mesh(n, m)
        system = assemble_edge_constraints(mesh)
        sc = counts(n, m)
        assert system.n_rows == sc.N_e
        assert system.catalog.N_v == sc.N_v
        assert eliminate(system).n_free == sc.N_s

    def test_full_column_rank(self):
        _, _, _, par, _, _ = assemble_all(4, 4, P)
        assert np.linalg.matrix_rank(par.A) == par.n_free


class TestVertexConditions:
    @pytest.mark.parametrize("n,m", [(4, 4), (3, 2), (5, 3), (2, 2), (6, 4)])
    def test_counts(self, n, m):
        mesh = build_mesh(n, m)
        sc = counts(n, m)
        assert len(assemble_vertex_conditions(mesh)) == sc.N_r == sc.N_b + (n % 2 == 0)

    def test_four_by_four_row_count(self):
        # the paper's N_b = 16, plus the one row that completes even N
        assert len(assemble_vertex_conditions(build_mesh(4, 4))) == 17

    def test_odd_formula(self):
        assert len(assemble_vertex_conditions(build_mesh(3, 2))) == 6

    def test_pure_continuity_rows_have_zero_rhs(self):
        # vertex rows are homogeneous: with zero data and zero frees all
        # entries vanish, so every row holds with zero right-hand side.
        mesh, _, _, par, bc, _ = assemble_all(3, 3, P, StateSpec.zero(build_mesh(3, 3), P))
        assert np.max(np.abs(bc.b0)) == 0.0

    def test_no_inconsistent_rows_on_worked_example(self, worked_example):
        par, bc = worked_example["par"], worked_example["bc"]
        for sol in (worked_example["sol_el"], worked_example["sol_qp"]):
            assert structure_of(par).violated_junctions(par.entry_values(sol.y, sol.gamma)) == ()


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("n", range(1, 17))
def test_complete_rows_have_full_rank(n, m):
    # the vertex rows are independent, and they reach the rank of the whole
    # junction space: the rank the row-by-row sweep reaches over the vertex
    # rows with every junction of every wave and jump stacked behind them
    mesh, _, _, par, bc, _ = assemble_all(n, m, 9)
    rows = assemble_vertex_conditions(mesh)
    hom = np.concatenate([bc.B1, -bc.B0, -bc.B_gamma], axis=1)
    assert bc.n_rows == bc.rank == len(rows) == counts(n, m).N_r
    assert np.linalg.matrix_rank(hom) == len(rows)
    assert ref.boundary_matrices(par, rows, include_guards=True).rank == len(rows)


class TestFeasibility:
    def test_m1_infeasible(self):
        result = feasibility_check(4, 1)
        assert not result.feasible
        assert "controllability" in result.reason

    def test_worked_configuration_feasible(self):
        assert feasibility_check(4, 4).feasible

    def test_two_two_feasible(self):
        assert feasibility_check(2, 2).feasible


class TestBoundaryMatricesThroughReconstruction:
    def test_feasible_point_gives_continuous_controls(self, worked_example):
        # any (y, gamma) honoring the essential conditions concatenates to
        # continuous control histories
        from rodwave import reconstruct as rec

        par, bc = worked_example["par"], worked_example["bc"]
        mesh = worked_example["mesh"]
        rng = np.random.default_rng(7)
        # build a feasible point: start from the QP solution and move along
        # a constraint null-space direction
        sol = worked_example["sol_qp"]
        hom = np.concatenate([bc.B1, -bc.B0, -bc.B_gamma], axis=1)
        null = _nullspace(hom)
        for j in range(min(3, null.shape[1])):
            direction = null[:, j]
            n_s = par.n_free
            y = sol.y.copy()
            y[:, -1] += direction[:n_s]
            y[:, 0] += direction[n_s:2 * n_s]
            gamma = sol.gamma + direction[2 * n_s:]
            # interpolate the interior so endpoints move smoothly
            z = np.linspace(0, 1, y.shape[1])
            y = sol.y + np.outer(direction[n_s:2 * n_s], 1 - z) \
                + np.outer(direction[:n_s], z)
            pieces = rec.jump_pieces_from_solution(par, par.entry_values(y, gamma))
            controls = rec.controls_from_jumps(mesh, pieces)
            for k in mesh.J_c:
                arr = controls.integrals[k]
                gaps = np.abs(arr[1:, 0] - arr[:-1, -1])
                assert gaps.max() <= 1e-9


def _nullspace(a, tol=1e-10):
    _, s, vt = np.linalg.svd(a)
    rank = int((s > tol * s[0]).sum()) if len(s) else 0
    return vt[rank:].T


def test_state_resample_onto_canonical_grid():
    mesh = build_mesh(3, 2)
    coarse = random_state(mesh, 9, seed=1)
    fine = resample(coarse, mesh, 17)
    assert fine.grid_p(mesh) == 17
    # values agree at shared abscissas (linear interpolation is exact there)
    assert np.allclose(fine.v0.values[::2], coarse.v0.values, atol=1e-12)
