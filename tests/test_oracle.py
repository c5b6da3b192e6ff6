import math

import numpy as np
import pytest

from rodwave.errors import ConfigurationError
from rodwave.mesh import RodParams, build_mesh
from rodwave.edge import StateSpec
from rodwave import reconstruct as rec
from rodwave.oracle import SimConfig, cell_steps, compare, simulate

# the loop form takes the rod constants; the package runs the dimensionless rod
PARAMS = RodParams(1.0, 1.0, 1.0)


def zero_controls(mesh, p=33):
    return rec.controls_from_jumps(mesh, np.zeros((mesh.N + 1, mesh.M, p)))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(points_per_segment=4)
        with pytest.raises(ConfigurationError):
            SimConfig(cfl=0.0)
        with pytest.raises(ConfigurationError):
            SimConfig(cfl=1.2)


class TestFreeMotion:
    def test_zero_state_stays_zero(self):
        mesh = build_mesh(2, 2)
        state = StateSpec.zero(mesh, 33)
        sim = simulate(mesh, zero_controls(mesh), state,
                       SimConfig(points_per_segment=32))
        assert np.max(np.abs(sim.v_terminal)) == 0.0
        assert np.max(np.abs(sim.p_terminal)) == 0.0

    def test_standing_mode_returns_after_full_period(self):
        # free-free mode cos(pi x) over one period (T = 2); the state is
        # sampled finely so representation error does not floor the check
        mesh = build_mesh(2, 2)
        state = StateSpec.from_callables(
            mesh, 513,
            v0=lambda x: np.cos(np.pi * x), r0=lambda x: 0.0 * x,
            v1=lambda x: np.cos(np.pi * x), r1=lambda x: 0.0 * x)
        errs = []
        for nper in (64, 128):
            sim = simulate(mesh, zero_controls(mesh, p=513), state,
                           SimConfig(points_per_segment=nper, cfl=0.8))
            errs.append(np.max(np.abs(sim.v_terminal - np.cos(np.pi * sim.x))))
        assert errs[0] > 3.0 * errs[1]
        assert errs[1] < 1e-6

    def test_energy_conserved_without_control(self):
        mesh = build_mesh(4, 4)
        state = StateSpec.from_callables(
            mesh, 33,
            v0=lambda x: np.cos(np.pi * x), r0=lambda x: 0.0 * x,
            v1=lambda x: 0.0 * x, r1=lambda x: 0.0 * x)
        for cfl in (0.9, 1.0):
            sim = simulate(mesh, zero_controls(mesh), state,
                           SimConfig(points_per_segment=64, cfl=cfl))
            assert sim.energy_drift() <= 1e-6


@pytest.fixture(scope="module")
def synthesis():
    # higher-resolution synthesis so control interpolation does not
    # floor the oracle error
    from conftest import assemble_all, solve_closed_form

    mesh, state, system, par, bc, weights = assemble_all(4, 4, 513)
    sol = solve_closed_form(par, bc, weights, 513)
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    fg = rec.fields(waves, controls, mesh, 64)
    return mesh, state, controls, fg


class TestDrivenRuns:
    def test_momentum_budget_telescopes_exactly(self, synthesis):
        mesh, state, controls, _ = synthesis
        sim = simulate(mesh, controls, state,
                       SimConfig(points_per_segment=64, cfl=1.0))
        assert sim.momentum_budget_max <= 1e-8

    def test_reaches_terminal_state(self, synthesis):
        mesh, state, controls, _ = synthesis
        sim = simulate(mesh, controls, state,
                       SimConfig(points_per_segment=250, cfl=1.0))
        assert sim.terminal_energy_error <= 0.02

    def test_convergence_order(self, synthesis):
        mesh, state, controls, fg = synthesis
        sims = [simulate(mesh, controls, state,
                         SimConfig(points_per_segment=nper, cfl=1.0))
                for nper in (125, 250, 500)]
        report = compare(sims, fg)
        assert all(o >= 1.8 for o in report.orders)
        assert report.l2_errors[-1] < report.l2_errors[0]

    def test_corrupted_control_detected(self, synthesis):
        # scaling the forces by 1.1 leaves a terminal residual well above
        # the uncorrupted one
        mesh, state, controls, _ = synthesis
        scaled = rec.ControlSet(
            mesh=mesh, jump_stack=controls.jump_stack,
            integral_stack=1.1 * controls.integral_stack,
            force_stack=1.1 * controls.force_stack)
        good = simulate(mesh, controls, state,
                        SimConfig(points_per_segment=124, cfl=1.0))
        bad = simulate(mesh, scaled, state,
                       SimConfig(points_per_segment=124, cfl=1.0))
        assert bad.terminal_energy_error > 5.0 * good.terminal_energy_error

    def test_cfl_alignment(self, synthesis):
        mesh, state, controls, _ = synthesis
        sim = simulate(mesh, controls, state,
                       SimConfig(points_per_segment=50, cfl=0.73))
        # the step divides the half-layer duration exactly
        ratio = (mesh.lam / 2.0) / sim.dt
        assert ratio == pytest.approx(round(ratio), abs=1e-12)
        assert sim.dt <= 0.73 * sim.h * (1 + 1e-12)


def test_misaligned_grids_stay_accurate_for_odd_segments():
    # an odd-N run whose sim grid does not divide the control sample grid:
    # the window-averaged forcing keeps grid-scale parity modes unseeded
    # (point-sampled forcing leaves an h-independent 1e-1 energy residual)
    from conftest import assemble_all, solve_closed_form

    mesh, state, system, par, bc, weights = assemble_all(
        5, 4, 257, StateSpec.from_callables(
            build_mesh(5, 4), 257,
            v0=lambda x: np.sin(2 * x), r0=lambda x: 0.3 * x,
            v1=lambda x: 0.0 * x, r1=lambda x: 0.0 * x))
    sol = solve_closed_form(par, bc, weights, 257)
    entries = par.entry_values(sol.y, sol.gamma)
    controls = rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))
    for nper in (200, 256):      # misaligned and aligned
        sim = simulate(mesh, controls, state,
                       SimConfig(points_per_segment=nper, cfl=1.0))
        assert sim.terminal_energy_error <= 5e-3, nper


@pytest.fixture(scope="module")
def driven():
    """Synthesized controls of the worked-example data at N = 1, 2, 3."""
    from conftest import assemble_all, solve_closed_form

    runs = {}
    for n in (1, 2, 3):
        mesh, state, system, par, bc, weights = assemble_all(n, 2, 33)
        sol = solve_closed_form(par, bc, weights, 33)
        entries = par.entry_values(sol.y, sol.gamma)
        controls = rec.controls_from_jumps(
            mesh, rec.jump_pieces_from_solution(par, entries))
        runs[n] = (mesh, state, controls)
    return runs


@pytest.mark.parametrize("cfl", [0.9, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])     # no interface, one, an odd count
def test_simulate_matches_loop_form_bit_for_bit(driven, n, cfl):
    import loop_reference as ref

    mesh, state, controls = driven[n]
    cfg = SimConfig(points_per_segment=16, cfl=cfl)
    got = simulate(mesh, controls, state, cfg)
    want = ref.simulate(mesh, PARAMS, controls, state, cfg)
    for name in ("x", "v_terminal", "p_terminal", "energy_history", "times"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("momentum_budget_max", "terminal_energy_error",
                 "terminal_v_sup", "dt", "h"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.max(np.abs(controls.forces[mesh.J_s[0]])) > 0.0


def assert_same_run(got, want):
    for name in ("x", "v_terminal", "p_terminal", "energy_history", "times"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("momentum_budget_max", "terminal_energy_error",
                 "terminal_v_sup", "dt", "h"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.fixture(scope="module")
def driven_n12():
    """Synthesized controls of the worked-example data at N = M = 12."""
    from conftest import assemble_all, solve_closed_form

    mesh, state, system, par, bc, weights = assemble_all(12, 12, 33)
    sol = solve_closed_form(par, bc, weights, 33)
    entries = par.entry_values(sol.y, sol.gamma)
    return mesh, state, rec.controls_from_jumps(
        mesh, rec.jump_pieces_from_solution(par, entries))


@pytest.mark.parametrize("points, cfl", [(16, 0.9), (16, 1.0), (125, 1.0)])
def test_interface_impulses_match_loop_form_bit_for_bit(driven_n12, points, cfl):
    # 11 interfaces and both faces take their impulses through the strided
    # view of every pps-th node; 125 points at CFL 1 is verify's coarse rung
    import loop_reference as ref

    mesh, state, controls = driven_n12
    cfg = SimConfig(points_per_segment=points, cfl=cfl)
    got = simulate(mesh, controls, state, cfg)
    assert_same_run(got, ref.simulate(mesh, PARAMS, controls, state, cfg))
    assert got.momentum_budget_max <= 1e-8


def with_nan_right_load(controls):
    """``controls`` with one sample of the right end load's integral NaN."""
    integrals = controls.integral_stack.copy()
    integrals[-1, 1, 5] = np.nan                   # control N + 1
    return rec.ControlSet(mesh=controls.mesh, jump_stack=controls.jump_stack,
                          integral_stack=integrals, force_stack=controls.force_stack)


def test_nan_step_reaches_momentum_budget(driven):
    mesh, state, controls = driven[3]
    sim = simulate(mesh, with_nan_right_load(controls), state,
                   SimConfig(points_per_segment=16, cfl=1.0))
    assert np.isnan(sim.energy_history).any()
    assert np.isnan(sim.momentum_budget_max)


def test_verify_fails_budget_check_on_nan_step(monkeypatch, capsys):
    from rodwave import cli

    real = cli.simulate

    def corrupted(mesh, controls, state, sim_config):
        return real(mesh, with_nan_right_load(controls), state, sim_config)

    monkeypatch.setattr(cli, "simulate", corrupted)
    cfg = cli.validate_config({"N": 3, "M": 3, "P": 33, "preset": "paper_example",
                               "oracle_points_per_segment": 16})
    assert cli.run_verify(cfg) == cli.EXIT_INVARIANT
    assert "  FAIL  oracle momentum budget <= 1e-8: nan\n" in capsys.readouterr().out


@pytest.mark.parametrize("points, cfl", [(8, 1.0), (16, 0.9), (50, 0.73), (125, 0.9)])
def test_cell_steps_counts_the_run(driven, points, cfl):
    mesh, state, controls = driven[3]
    sim = simulate(mesh, controls, state,
                   SimConfig(points_per_segment=points, cfl=cfl))
    assert cell_steps(mesh.N, mesh.M, points, cfl) == (
        (len(sim.x) - 1) * (len(sim.times) - 1))
