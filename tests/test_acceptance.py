"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with the measured quantity at its stated tolerance.

Criterion 7 (the N = 2 energy plateau at 1e-8) is marked as an expected
failure: the true optimal values genuinely differ across horizons at the
1e-5 level (confirmed by an independent direct-transcription optimizer and
by near-exact forward simulation of both optima; see the companion test
that pins the actual behavior, and test_criterion_7_n2_law for the law
T*E(M,2) = T*E(2,2) + b*(M - 2)/(M - 1) it follows).  All other criteria
pass.
"""

import json
import time

import numpy as np
import pytest

from rodwave.errors import InfeasibleError
from rodwave.mesh import build_mesh, counts
from rodwave.edge import (
    StateSpec,
    assemble_edge_constraints,
    assemble_vertex_conditions,
    boundary_matrices,
    eliminate,
    feasibility_check,
)
from rodwave.energy import assemble_qp, build_weights, mean_energy
from rodwave.solver import compare_solvers, constraint_residual, solve_qp
from rodwave import reconstruct as rec
from rodwave.oracle import SimConfig, compare as oracle_compare, simulate
from rodwave.cli import (EXIT_INFEASIBLE, EXIT_OK, RunConfig, run_solve, solve_pipeline,
                         validate_config)
from conftest import (assemble_all, conjugate_vector, example_state, solve_closed_form,
                      structure_of)
from loop_reference import edge_residuals, gamma_dict, junction_discontinuities
from test_field_views import trig_params


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_counting_identities():
    """Integer count identities for all (N, M) in {1..8}^2, under 1 s."""
    t0 = time.perf_counter()
    for n in range(1, 9):
        for m in range(1, 9):
            sc = counts(n, m)
            assert sc.N_e == 2 * m * n + 4 * n
            assert sc.N_w == 2 * (m + 1) * n
            assert sc.N_u == m * (n + 1)
            assert sc.N_v == sc.N_w + sc.N_u
            assert sc.N_s == m * n + m - 2 * n
            expected_b = m * n + m - n + (1 if n % 2 else 0)
            assert sc.N_b == expected_b
            assert sc.N_r == expected_b + (0 if n % 2 else 1)
            mesh = build_mesh(n, m)
            system = assemble_edge_constraints(mesh)
            assert system.n_rows == sc.N_e
            assert system.catalog.N_v == sc.N_v
            assert len(assemble_vertex_conditions(mesh)) == sc.N_r
    elapsed = time.perf_counter() - t0
    assert report(1, elapsed < 1.0,
                  f"all identities hold for (N,M) in 1..8 squared "
                  f"({elapsed:.2f}s)")


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 4), (5, 3)])
def test_criterion_2_parametrization_soundness(n, m):
    """20 random free draws satisfy every edge row pointwise to 1e-10."""
    p = 17
    mesh = build_mesh(n, m)
    state = example_state(mesh, p)
    system = assemble_edge_constraints(mesh)
    par = eliminate(system).rebind(state)
    rng = np.random.default_rng(n * 100 + m)
    worst = 0.0
    for _ in range(20):
        y = rng.standard_normal((par.n_free, p))
        gamma = rng.standard_normal(par.n_gamma)
        res = edge_residuals(system, state, par.entry_values(y, gamma),
                             gamma_dict(par, gamma), p)
        worst = max(worst, float(res.max()))
    assert report(2, worst <= 1e-10,
                  f"(N={n},M={m}) worst residual {worst:.3e} <= 1e-10")


def test_criterion_3_worked_example_exact_steering(worked_example):
    """N = M = 4 data steered exactly; residual Q within budget at P=129."""
    par = worked_example["par"]
    mesh = worked_example["mesh"]
    state = worked_example["state"]
    sol = worked_example["sol_qp"]
    t0 = time.perf_counter()
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    fg = rec.fields(waves, controls, mesh)
    terr = rec.terminal_error(fg, state)
    q_val = rec.residual_Q(fg)
    elapsed = time.perf_counter() - t0
    budget = 1e-6 * mesh.T * sol.objective
    ok = (terr.v0_sup <= 1e-8 and terr.v1_sup <= 1e-8
          and terr.r0_sup <= 1e-8 and terr.r1_sup <= 1e-8
          and q_val <= budget and elapsed < 5.0)
    assert report(3, ok,
                  f"v errors ({terr.v0_sup:.2e}, {terr.v1_sup:.2e}), "
                  f"r errors ({terr.r0_sup:.2e}, {terr.r1_sup:.2e} mod c1), "
                  f"Q = {q_val:.2e} <= {budget:.2e} ({elapsed:.1f}s)")


def test_criterion_4_independent_verification():
    """Finite-difference oracle reaches the target within 2% at 500
    points/segment and converges at order >= 1.8 over three refinements."""
    t0 = time.perf_counter()
    # fine synthesis so the stored controls do not floor the oracle error
    mesh, state, system, par, bc, weights = assemble_all(4, 4, 1025)
    sol = solve_closed_form(par, bc, weights, 1025)
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    fg = rec.fields(waves, controls, mesh, qt=256, qx=256)
    sims = [simulate(mesh, controls, state,
                     SimConfig(points_per_segment=nper, cfl=1.0))
            for nper in (125, 250, 500)]
    rep = oracle_compare(sims, fg)
    elapsed = time.perf_counter() - t0
    final = sims[-1]
    ok = (final.terminal_energy_error <= 0.02
          and all(o >= 1.8 for o in rep.orders)
          and elapsed < 60.0)
    assert report(4, ok,
                  f"energy-norm error {final.terminal_energy_error:.2e} "
                  f"<= 2%, orders {[f'{o:.2f}' for o in rep.orders]} >= 1.8 "
                  f"({elapsed:.1f}s)")


def test_criterion_5_minimal_controllability_time(tmp_path):
    """M = 1 exits with code 3; M = 2 solves the same data."""
    cfg1 = RunConfig(N=4, M=1, preset="paper_example",
                     out_dir=str(tmp_path / "m1"))
    code1 = run_solve(cfg1)
    cfg2 = RunConfig(N=4, M=2, preset="paper_example", P=65, solver="both",
                     out_dir=str(tmp_path / "m2"))
    code2 = run_solve(cfg2)
    summary = json.loads((tmp_path / "m2" / "summary.json").read_text())
    ok = (code1 == EXIT_INFEASIBLE and code2 == EXIT_OK
          and summary["terminal_errors"]["v1_sup"] <= 1e-8)
    assert report(5, ok, f"M=1 exit {code1} (infeasible), M=2 exit {code2} "
                         f"with exact steering")
    assert not feasibility_check(4, 1).feasible


@pytest.fixture(scope="module")
def sweep_table():
    values = {}
    for n in range(2, 7):
        for m in range(2, 7):
            mesh, state, system, par, bc, weights = assemble_all(n, m, 129)
            qp = assemble_qp(par, bc, weights, 129)
            sol = solve_qp(qp, par, bc, weights)
            values[(m, n)] = mesh.T * sol.objective
    return values


def test_criterion_6_monotonicity_of_TE(sweep_table):
    """T*E nonincreasing along both axes over M, N in {2..6}."""
    t0 = time.perf_counter()
    violations = []
    for (m, n), te in sorted(sweep_table.items()):
        if (m - 1, n) in sweep_table and te > sweep_table[(m - 1, n)] + 1e-9:
            violations.append(((m, n), "M"))
        if (m, n - 1) in sweep_table and te > sweep_table[(m, n - 1)] + 1e-9:
            violations.append(((m, n), "N"))
    # the isochrone M = N declines monotonically as well
    iso = [sweep_table[(k, k)] for k in range(2, 7)]
    iso_ok = all(iso[i + 1] <= iso[i] + 1e-9 for i in range(len(iso) - 1))
    elapsed = time.perf_counter() - t0
    ok = not violations and iso_ok
    assert report(6, ok,
                  f"no violations over 25 cells (slack 1e-9); isochrone "
                  f"T*E(N,N) = {[f'{v:.4f}' for v in iso]} ({elapsed:.1f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "The exact plateau claimed for N = 2 does not hold for the true optima: "
    "T*E(M,2) decreases by up to 2e-5 as M grows (grid-independent), which "
    "an independent direct-transcription optimizer and near-exact forward "
    "simulation of the synthesized controls both confirm.  The literal "
    "plateau is a property of the under-stitched vertex system, whose "
    "solutions have discontinuous traveling waves.  See the decisions "
    "ledger and test_criterion_7_actual_behavior."))
def test_criterion_7_n2_plateau_as_stated(sweep_table):
    """|T*E(M,2) - T*E(2,2)| <= 1e-8 for M in {3..6} (as specified)."""
    base = sweep_table[(2, 2)]
    deviations = {m: abs(sweep_table[(m, 2)] - base) for m in range(3, 7)}
    report(7, max(deviations.values()) <= 1e-8,
           f"deviations from T*E(2,2): "
           f"{ {m: f'{d:.2e}' for m, d in deviations.items()} }")
    assert max(deviations.values()) <= 1e-8


def test_criterion_7_actual_behavior(sweep_table):
    """What is actually true at N = 2: a monotone approach to a plateau,
    flat to a few parts per million of T*E."""
    base = sweep_table[(2, 2)]
    tes = [sweep_table[(m, 2)] for m in range(2, 7)]
    assert all(tes[i + 1] <= tes[i] for i in range(len(tes) - 1))
    spread = tes[0] - tes[-1]
    assert spread <= 3e-5            # flat to ~3 ppm of the value
    assert spread >= 1e-6            # and measurably not an exact plateau
    report("7b", True,
           f"T*E(M,2) spread over M in 2..6 is {spread:.2e} "
           f"(monotone, {spread / base:.1e} relative)")


N2_LAW_STATES = {"paper_example": {"preset": "paper_example"},
                 "trig-3": {"preset": "trig", "preset_params": trig_params(3)},
                 "trig-6": {"preset": "trig", "preset_params": trig_params(6)}}


@pytest.mark.parametrize("p", [33, 129])
@pytest.mark.parametrize("state", sorted(N2_LAW_STATES))
def test_criterion_7_n2_law(state, p):
    """The law behind the N = 2 deviation: T*E(M,2) = T*E(2,2) +
    b*(M - 2)/(M - 1), so b(M) = (T*E(M,2) - T*E(2,2))*(M - 1)/(M - 2)
    is one constant over M = 3..12, to 1e-12 absolute."""
    te = {}
    for m in range(2, 13):
        config = validate_config({"N": 2, "M": m, "P": p, **N2_LAW_STATES[state]})
        out = solve_pipeline(config, reconstruct=False)
        te[m] = out["mesh"].T * out["primary"].objective
    b = [(te[m] - te[2]) * (m - 1) / (m - 2) for m in range(3, 13)]
    spread = max(b) - min(b)
    report("7c", spread <= 1e-12,
           f"{state}, P = {p}: b = {b[0]:.7e}, spread over M in 3..12 {spread:.1e}")
    assert spread <= 1e-12


def test_criterion_8_force_discontinuity_pattern():
    """Forces jump only at t in {1/2, 1, 3/2} for the worked example."""
    p_fine = 2049
    mesh, state, system, par, bc, weights = assemble_all(4, 4, p_fine)
    sol = solve_closed_form(par, bc, weights, p_fine)
    entries = par.entry_values(sol.y, sol.gamma)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    junction_ok = True
    interior_worst = 0.0
    for k in mesh.J_c:
        jumps = junction_discontinuities(controls, k)
        junction_ok &= bool(np.all(jumps > 1e-6))
        for j in range(mesh.M):
            piece = controls.forces[k][j]
            n = len(piece)
            # jump estimate at sample i: mismatch of the one-sided
            # quadratic extrapolations, O(h^3 f''') when smooth; samples
            # within reach of the per-piece endpoint stencils are skipped
            # (the one-sided/central stencil switch is not a jump)
            i = np.arange(4, n - 4)
            left = 3 * piece[i - 1] - 3 * piece[i - 2] + piece[i - 3]
            right = 3 * piece[i + 1] - 3 * piece[i + 2] + piece[i + 3]
            interior_worst = max(interior_worst,
                                 float(np.abs(left - right).max()))
    junction_times = [round((j + 1) * mesh.lam, 6) for j in range(mesh.M - 1)]
    ok = junction_ok and interior_worst <= 1e-8
    assert report(8, ok,
                  f"jumps > 1e-6 at t = {junction_times}; largest "
                  f"within-layer jump estimate {interior_worst:.2e} <= 1e-8")


def test_criterion_9_trivial_null_case():
    """Zero data produce zero controls, fields, and energy."""
    p = 33
    mesh = build_mesh(3, 2)
    state = StateSpec.zero(mesh, p)
    par = eliminate(assemble_edge_constraints(mesh)).rebind(state)
    bc = boundary_matrices(structure_of(par), par)
    weights = build_weights(mesh, p)
    sol = solve_qp(assemble_qp(par, bc, weights, p), par, bc, weights)
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    fg = rec.fields(waves, controls, mesh)
    force_max = max(float(np.max(np.abs(controls.forces[k])))
                    for k in mesh.J_c)
    field_max = float(np.max(np.abs(fg.rows(0, len(fg.t)))))
    ok = (abs(sol.objective) <= 1e-12 and force_max <= 1e-12
          and field_max <= 1e-12)
    assert report(9, ok,
                  f"E = {sol.objective:.1e}, max force {force_max:.1e}, "
                  f"max field {field_max:.1e} (<= 1e-12)")


def test_criterion_10_solver_cross_check(worked_example):
    """Both paths feasible to 1e-9; QP objective not above the stationary
    path's; conjugate vector constant; gap reported."""
    bc = worked_example["bc"]
    sol_qp = worked_example["sol_qp"]
    sol_el = worked_example["sol_el"]
    rep = compare_solvers(sol_qp, sol_el)
    scale = 1e-9 * (1.0 + float(np.max(np.abs(bc.b0))))
    feas_ok = rep.feas_qp <= scale and rep.feas_el <= scale
    p_conj = conjugate_vector(worked_example["par"], worked_example["el"], sol_el.y)
    const_ok = (np.max(np.abs(p_conj - p_conj[:, :1]))
                <= 1e-8 * (1.0 + np.max(np.abs(p_conj[:, 0]))))
    ok = feas_ok and rep.qp_not_worse and const_ok
    assert report(10, ok,
                  f"feasibility ({rep.feas_qp:.1e}, {rep.feas_el:.1e}), "
                  f"objective gap {rep.gap:+.2e} (QP not worse: "
                  f"{rep.qp_not_worse}), conjugate constant: {const_ok}")
