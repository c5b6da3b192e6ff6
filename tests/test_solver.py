import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from rodwave import cli, solver
from rodwave.cli import EXIT_INVARIANT, RunConfig, main, run_sweep
from rodwave.errors import SolverError
from rodwave.mesh import build_mesh
from rodwave.edge import StateSpec
from rodwave.energy import assemble_qp, evaluate_objective
from rodwave.sampled import SampledFunction, fd_derivative
from rodwave.solver import (
    compare_solvers,
    constraint_residual,
    solve_qp,
)
from conftest import assemble_all, conjugate_vector, solve_closed_form, structure_of

P = 33


def random_trig_state(mesh, p, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((4, 4))
    mk = lambda row: (lambda x: row[0] * np.cos(row[1] * x)
                      + row[2] * np.sin(row[3] * x))
    return StateSpec.from_callables(mesh, p, v0=mk(c[0]), r0=mk(c[1]),
                                    v1=mk(c[2]), r1=mk(c[3]))


class TestZeroData:
    def test_qp(self):
        mesh = build_mesh(2, 3)
        _, _, _, par, bc, weights = assemble_all(2, 3, P, StateSpec.zero(mesh, P))
        sol = solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)
        assert sol.objective <= 1e-14
        assert np.max(np.abs(sol.y)) <= 1e-9

    def test_euler_lagrange(self):
        mesh = build_mesh(2, 3)
        _, _, _, par, bc, weights = assemble_all(2, 3, P, StateSpec.zero(mesh, P))
        el = solver.ELSystem(par, structure_of(par))
        sol = solve_closed_form(par, bc, weights, P, el)
        assert np.max(np.abs(sol.y)) <= 1e-9
        assert np.max(np.abs(conjugate_vector(par, el, sol.y))) <= 1e-9

    def test_identical_zero_solutions(self):
        mesh = build_mesh(3, 2)
        _, _, _, par, bc, weights = assemble_all(3, 2, P, StateSpec.zero(mesh, P))
        sq = solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)
        se = solve_closed_form(par, bc, weights, P)
        report = compare_solvers(sq, se)
        assert report.y_diff <= 1e-9
        assert report.qp_not_worse


class TestWorkedExample:
    def test_finite_positive_energy(self, worked_example):
        assert worked_example["sol_qp"].objective > 0.0

    def test_both_satisfy_essential_conditions(self, worked_example):
        bc = worked_example["bc"]
        for key in ("sol_qp", "sol_el"):
            sol = worked_example[key]
            res = constraint_residual(bc, sol.y, sol.gamma)
            assert res <= 1e-9 * (1.0 + np.max(np.abs(bc.b0)))

    def test_qp_not_worse_and_small_gap(self, worked_example):
        report = compare_solvers(worked_example["sol_qp"], worked_example["sol_el"])
        assert report.qp_not_worse
        assert abs(report.gap) <= 1e-8 * (1 + report.objective_el)

    def test_conjugate_vector_constant(self, worked_example):
        p_conj = conjugate_vector(worked_example["par"], worked_example["el"],
                                  worked_example["sol_el"].y)
        spread = np.max(np.abs(p_conj - p_conj[:, :1]))
        assert spread <= 1e-8 * (1.0 + np.max(np.abs(p_conj[:, 0])))

    def test_el_stationarity(self, worked_example):
        # A^T A y'' + A^T g'' = 0 pointwise away from the grid ends
        par = worked_example["par"]
        sol = worked_example["sol_el"]
        n_w = par.catalog.N_w
        p = sol.y.shape[1]
        h = par.mesh.lam / (p - 1)
        a_w = par.A[:n_w]
        ydd = fd_derivative(fd_derivative(sol.y, h), h)
        gdd = fd_derivative(fd_derivative(par.g_matrix(p)[:n_w], h), h)
        resid = a_w.T @ a_w @ ydd + a_w.T @ gdd
        interior = resid[:, 3:-3]
        scale = max(1.0, np.max(np.abs(a_w.T @ gdd)))
        assert np.max(np.abs(interior)) <= 1e-7 * scale

    def test_qp_local_optimality(self, worked_example):
        # feasible perturbations never decrease the objective
        par, bc = worked_example["par"], worked_example["bc"]
        weights = worked_example["weights"]
        sol = worked_example["sol_qp"]
        base = evaluate_objective(par, weights, sol.y)
        hom = np.concatenate([bc.B1, -bc.B0, -bc.B_gamma], axis=1)
        _, s, vt = np.linalg.svd(hom)
        null = vt[int((s > 1e-10 * s[0]).sum()):].T
        rng = np.random.default_rng(11)
        n_s = par.n_free
        p = sol.y.shape[1]
        z = np.linspace(0.0, 1.0, p)
        count = 0
        for _ in range(10):
            if null.shape[1] == 0:
                break
            coef = rng.standard_normal(null.shape[1])
            d = null @ coef
            d /= max(np.linalg.norm(d), 1e-12)
            bump = rng.standard_normal((n_s, p)) * (z * (1 - z))[None, :]
            dy = np.outer(d[n_s:2 * n_s], 1 - z) + np.outer(d[:n_s], z) + bump * 0.0
            y_pert = sol.y + 1e-3 * dy
            val = evaluate_objective(par, weights, y_pert)
            assert val >= base - 1e-10
            count += 1
        assert count > 0

    def test_interior_perturbations_increase_objective(self, worked_example):
        par, weights = worked_example["par"], worked_example["weights"]
        sol = worked_example["sol_qp"]
        base = evaluate_objective(par, weights, sol.y)
        rng = np.random.default_rng(3)
        p = sol.y.shape[1]
        z = np.linspace(0.0, 1.0, p)
        for _ in range(5):
            bump = rng.standard_normal((par.n_free, p)) * (z * (1 - z))[None, :]
            val = evaluate_objective(par, weights, sol.y + 1e-3 * bump)
            assert val >= base - 1e-10


class TestLinearity:
    def test_superposition(self):
        # the data enters the constraints affinely, so the solution map on
        # sampled profiles is linear
        mesh = build_mesh(3, 2)
        state_a = random_trig_state(mesh, P, 5)
        state_b = random_trig_state(mesh, P, 6)
        state_ab = StateSpec(**{
            name: SampledFunction(-1.0, 1.0, values + state_b.arrays()[name])
            for name, values in state_a.arrays().items()})

        def solve(state):
            _, _, _, par, bc, weights = assemble_all(3, 2, P, state)
            return solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)

        s1, s2, s12 = solve(state_a), solve(state_b), solve(state_ab)
        scale = 1.0 + np.max(np.abs(s12.y))
        assert np.max(np.abs(s12.y - s1.y - s2.y)) <= 1e-8 * scale
        assert np.max(np.abs(s12.gamma - s1.gamma - s2.gamma)) <= 1e-8 * scale


class TestRandomData:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solvers_agree(self, seed):
        mesh = build_mesh(3, 3)
        state = random_trig_state(mesh, P, seed)
        _, _, _, par, bc, weights = assemble_all(3, 3, P, state)
        sq = solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)
        se = solve_closed_form(par, bc, weights, P)
        report = compare_solvers(sq, se)
        assert report.qp_not_worse
        assert report.feas_qp <= 1e-9 * (1 + np.max(np.abs(bc.b0)))
        assert report.feas_el <= 1e-9 * (1 + np.max(np.abs(bc.b0)))
        assert report.y_diff <= 1e-7 * (1 + np.max(np.abs(se.y)))


def test_optimal_controls_are_trig_plus_polynomial(worked_example):
    # for cos-3x data the stationary solution makes every control-integral
    # piece an exact combination of {1, t, cos 3t, sin 3t}
    from rodwave import reconstruct as rec

    par = worked_example["par"]
    mesh = worked_example["mesh"]
    sol_el = worked_example["sol_el"]
    entries = par.entry_values(sol_el.y, sol_el.gamma)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    worst = 0.0
    for n in mesh.J_x:
        for j in range(mesh.M):
            t = controls.piece_times(j)
            basis = np.stack([np.ones_like(t), t,
                              np.cos(3 * t), np.sin(3 * t)], axis=1)
            vals = controls.jumps[n][j]
            coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
            rel = (np.linalg.norm(vals - basis @ coef)
                   / max(np.linalg.norm(vals), 1e-12))
            worst = max(worst, rel)
    assert worst < 1e-2      # qualitative claim; measured ~1e-15


class TestSolverErrors:
    """A failed solve raises SolverError, which the CLI reports as exit 4."""

    def run_solve(self, tmp_path, capsys, solver):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "N": 3, "M": 3, "preset": "paper_example", "P": P, "solver": solver,
            "out_dir": str(tmp_path / "out")}))
        code = main(["solve", "--config", str(cfgfile)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "fields.csv").exists()
        return code, err

    def test_singular_kkt_factor(self, monkeypatch, tmp_path, capsys):
        # the KKT factorizations are the dense LAPACK solves (np.linalg.solve)
        # of solve_qp; the closed form's once-per-mesh solves still run
        real = np.linalg.solve

        def singular(matrix, rhs):
            if sys._getframe(1).f_code.co_name == "solve_qp":
                raise np.linalg.LinAlgError("Factor is exactly singular")
            return real(matrix, rhs)

        monkeypatch.setattr(solver.np.linalg, "solve", singular)
        code, err = self.run_solve(tmp_path, capsys, "both")
        assert code == EXIT_INVARIANT
        assert "KKT factorization failed: Factor is exactly singular" in err

        cfg = RunConfig(N=2, M=2, preset="paper_example", P=P,
                        out_dir=str(tmp_path / "sweep"), solver="both")
        assert run_sweep(cfg, (2, 3), (2, 2), workers=1) == EXIT_INVARIANT
        text = (tmp_path / "sweep" / "sweep.csv").read_text()
        assert text.count(",failed: KKT factorization failed") == 2

    def test_singular_reduced_system(self, monkeypatch, tmp_path, capsys):
        # a terminal constant no essential row reads: gamma_0 is free, so
        # the closed form's boundary system and the KKT matrix each have a
        # zero column
        def unread_gamma(rows):
            b_gamma = rows.B_gamma.copy()
            b_gamma[:, 0] = 0.0
            return replace(rows, B_gamma=b_gamma)

        _, _, _, par, bc, weights = assemble_all(3, 3, P)
        bc = unread_gamma(bc)
        with pytest.raises(SolverError, match="KKT factorization failed: Singular matrix"):
            solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)

        real = cli.boundary_structure

        def unread_gamma_rows(par, vertex_rows):
            return unread_gamma(real(par, vertex_rows))

        monkeypatch.setattr(cli, "boundary_structure", unread_gamma_rows)
        code, err = self.run_solve(tmp_path, capsys, "el")
        assert code == EXIT_INVARIANT
        assert "euler_lagrange: boundary system residual not bounded: S is singular" in err

    def test_singular_kernel(self, monkeypatch, tmp_path, capsys):
        # zero energy weights: every cell kernel, and so H, is zero; the
        # closed form does not read the weights to solve
        real = cli.build_weights

        def unweighted(mesh, p):
            weights = real(mesh, p)
            return replace(weights, w_mid=np.zeros_like(weights.w_mid))

        monkeypatch.setattr(cli, "build_weights", unweighted)
        code, err = self.run_solve(tmp_path, capsys, "both")
        assert code == EXIT_INVARIANT
        assert "KKT factorization failed: Singular matrix" in err

    def test_infeasible_solution(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(solver, "constraint_residual", lambda bc, y, gamma: 1.0)
        for method in ("both", "el"):
            code, err = self.run_solve(tmp_path, capsys, method)
            assert code == EXIT_INVARIANT
            assert "essential boundary residual 1.000e+00 exceeds 1e-09" in err
        # the closed form fails first under "both"; the KKT path checks too
        _, _, _, par, bc, weights = assemble_all(3, 3, P)
        with pytest.raises(SolverError, match="qp: essential boundary residual"):
            solve_qp(assemble_qp(par, bc, weights, P), par, bc, weights)

    def test_inconsistent_boundary_system(self, monkeypatch, tmp_path, capsys):
        # a kept row repeated, its copy reading no data: the boundary
        # system is singular, and no (alpha, beta, gamma, h) fits both rows
        # where the last row's data are not zero
        real = cli.boundary_structure

        def doubled(par, vertex_rows):
            structure = real(par, vertex_rows)
            twice = lambda a: np.concatenate([a, a[-1:]])
            return replace(structure, B0=twice(structure.B0), B1=twice(structure.B1),
                           B_gamma=twice(structure.B_gamma))

        monkeypatch.setattr(cli, "boundary_structure", doubled)
        code, err = self.run_solve(tmp_path, capsys, "el")
        assert code == EXIT_INVARIANT
        assert "euler_lagrange: boundary system residual" in err

    def test_degenerate_ata(self, monkeypatch):
        # 0: a free function no wave entry sees, and the Cholesky
        # factorization fails; 1e-7: one almost unseen, caught by the
        # bound on the Cholesky diagonal; A^T A is cached on par, so it is
        # set along with A
        _, _, _, par, bc, weights = assemble_all(3, 3, P)
        base = par.A
        for scale, reason in ((0.0, "Cholesky failed"), (1e-7, "Cholesky diagonal")):
            a = base.copy()
            a[:, 0] *= scale
            a_w = a[:par.catalog.N_w]
            monkeypatch.setattr(par, "A", a)
            monkeypatch.setattr(par, "ata", a_w.T @ a_w)
            with pytest.raises(SolverError, match=f"A\\^T A is degenerate \\({reason}"):
                solve_closed_form(par, bc, weights, P)
