import math

import numpy as np
import pytest

from rodwave.mesh import build_mesh
from rodwave.edge import StateSpec, build_catalog, wave_key
from rodwave.energy import (
    assemble_qp,
    blockwise_simpson_weights,
    build_weights,
    evaluate_objective,
    mean_energy,
)
from rodwave.sampled import SampledFunction
from rodwave.solver import solve_qp
from rodwave import reconstruct as rec
from conftest import assemble_all, example_state
import loop_reference as ref
from test_assembly import assert_bits

P = 33


def weight_table(mesh, p):
    """Per-piece weights (wave key -> SampledFunction on [0, lambda]).

    ``build_weights`` keeps only their cell midpoints, ``w_mid``; it is
    checked here to equal the table's midpoints bit for bit."""
    table, w_mid = ref.build_weights(mesh, p)
    assert_bits(build_weights(mesh, p).w_mid, w_mid)
    return {key: SampledFunction(0.0, mesh.lam, vals) for key, vals in table.items()}


class TestWeights:
    def test_first_layer_vanishes_at_origin(self):
        mesh = build_mesh(3, 3)
        weights = weight_table(mesh, P)
        for k in mesh.J_s:
            assert weights[wave_key(+1, k, 0)].values[0] == pytest.approx(0.0)

    def test_interior_layers_are_flat(self):
        # every interior midpoint weight is lambda itself, not a few ulps
        # below it as a trapezoid of rounded domain offsets would give
        for n, m in ((4, 4), (6, 6), (7, 5), (3, 7), (12, 12)):
            mesh = build_mesh(n, m)
            weights = weight_table(mesh, 129)
            w_mid = build_weights(mesh, 129).w_mid
            cat = build_catalog(mesh)
            for k in mesh.J_s:
                for side in (+1, -1):
                    for layer in mesh.J_t[1:-1]:
                        key = wave_key(side, k, layer)
                        assert np.all(weights[key].values == mesh.lam)
                        assert np.all(w_mid[cat.index[key]] == mesh.lam)

    @pytest.mark.parametrize("n,m", [(3, 2), (1, 1), (7, 5)])
    def test_ramp_pieces_are_midpoints(self, n, m):
        # the first layer weighs z and the last lambda - z: their midpoint
        # weights are the midpoints of those samples, bit for bit
        mesh = build_mesh(n, m)
        w_mid = build_weights(mesh, P).w_mid
        cat = build_catalog(mesh)
        z = np.linspace(0.0, mesh.lam, P)
        down = mesh.lam - z
        for k in mesh.J_s:
            for side in (+1, -1):
                assert_bits(w_mid[cat.index[wave_key(side, k, 0)]],
                            0.5 * (z[:-1] + z[1:]))
                assert_bits(w_mid[cat.index[wave_key(side, k, 2 * mesh.M)]],
                            0.5 * (down[:-1] + down[1:]))

    def test_matches_strip_thickness(self):
        # the trapezoid min(offset, lambda, length - offset) over the wave
        # domain, at offset m*lambda/2 + z of piece m
        mesh = build_mesh(3, 2)
        weights = weight_table(mesh, P)
        z = np.linspace(0.0, mesh.lam, P)
        length = (mesh.M + 1) * mesh.lam
        for k in mesh.J_s:
            for side in (+1, -1):
                for m in mesh.J_t:
                    offset = m * mesh.lam / 2 + z
                    expected = np.minimum(np.minimum(offset, mesh.lam), length - offset)
                    got = weights[wave_key(side, k, m)].values
                    assert np.allclose(got, expected, atol=1e-14)

    def test_total_weight_integral(self):
        # sum over all wave entries of the weight integral equals twice the
        # domain area: each strip contributes lam*T per traveling direction
        mesh = build_mesh(4, 4)
        weights = weight_table(mesh, P)
        total = sum(f.integral() for f in weights.values())
        assert total == pytest.approx(2 * mesh.N * mesh.lam * mesh.T, rel=1e-12)

    def test_control_entries_weigh_zero(self):
        mesh = build_mesh(2, 2)
        table, _ = ref.build_weights(mesh, P)
        assert np.all(ref.weight_values(table, P, ("u", 0, 0)) == 0.0)
        # build_weights weighs the wave entries only: they lead the catalog
        # and w_mid has one row each, so no control entry carries a weight
        cat = build_catalog(mesh)
        assert build_weights(mesh, P).w_mid.shape == (cat.N_w, P - 1)
        assert all(key[0] == "u" for key in cat.entries[cat.N_w:])


class TestQuadraticProgram:
    def test_zero_data_minimum_is_zero(self):
        mesh, state, system, par, bc, weights = assemble_all(
            3, 2, P, StateSpec.zero(build_mesh(3, 2), P))
        qp = assemble_qp(par, bc, weights, P)
        sol = solve_qp(qp, par, bc, weights)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(sol.y)) <= 1e-9
        assert np.max(np.abs(sol.gamma)) <= 1e-9

    def test_objective_nonnegative_at_particular_solution(self):
        mesh, state, system, par, bc, weights = assemble_all(4, 4, P)
        y0 = np.zeros((par.n_free, P))
        assert evaluate_objective(par, weights, y0) >= 0.0

    def test_quadratic_form_positive_semidefinite(self):
        # the form is sum_q h^-2 d_q^T K d_q in the sample differences, so
        # it is PSD exactly when the kernel is
        for n, m in ((2, 2), (3, 3), (4, 4), (6, 6)):
            mesh, state, system, par, bc, weights = assemble_all(n, m, 17)
            k = assemble_qp(par, bc, weights, 17).kernel
            assert np.allclose(k, k.T, atol=1e-12)
            assert np.linalg.eigvalsh(k).min() >= -1e-10 * np.abs(k).max()

    def test_scaling_covariance(self):
        # scaling all data by s scales the optimal energy by s^2
        mesh = build_mesh(3, 2)
        s = 2.5

        def solve_for(scale):
            state = StateSpec.from_callables(
                mesh, P,
                v0=lambda x: scale * np.cos(3 * x),
                r0=lambda x: -scale * np.cos(3 * x),
                v1=lambda x: 0.0 * x, r1=lambda x: 0.0 * x)
            _, _, _, par, bc, weights = assemble_all(3, 2, P, state)
            qp = assemble_qp(par, bc, weights, P)
            return solve_qp(qp, par, bc, weights).objective

        e1, es = solve_for(1.0), solve_for(s)
        assert es == pytest.approx(s ** 2 * e1, rel=1e-8)

    def test_qp_optimum_matches_reconstructed_energy(self, worked_example):
        par = worked_example["par"]
        mesh = worked_example["mesh"]
        sol = worked_example["sol_qp"]
        entries = par.entry_values(sol.y, sol.gamma)
        waves = rec.waves_from_solution(par, entries)
        controls = rec.controls_from_jumps(
            mesh, rec.jump_pieces_from_solution(par, entries))
        fg = rec.fields(waves, controls, mesh)
        assert mean_energy(fg) == pytest.approx(sol.objective, rel=5e-3)


class TestMeanEnergy:
    def test_zero_fields(self):
        mesh, state, system, par, bc, weights = assemble_all(
            2, 2, P, StateSpec.zero(build_mesh(2, 2), P))
        qp = assemble_qp(par, bc, weights, P)
        sol = solve_qp(qp, par, bc, weights)
        entries = par.entry_values(sol.y, sol.gamma)
        waves = rec.waves_from_solution(par, entries)
        controls = rec.controls_from_jumps(
            mesh, rec.jump_pieces_from_solution(par, entries))
        fg = rec.fields(waves, controls, mesh)
        assert mean_energy(fg) == pytest.approx(0.0, abs=1e-12)

    def test_free_standing_wave_closed_form(self):
        # v = cos(pi t) cos(pi x) = (cos pi(t + x) + cos pi(t - x)) / 2:
        # free-rod mode; hand integration of (v_t^2 + v_x^2)/2 over one
        # period gives E = pi^2/2.
        mesh = build_mesh(4, 4)   # T = 2: one full period
        fake = _wave_grid(mesh, 32, lambda z: 0.5 * np.cos(math.pi * z),
                          lambda z: -0.5 * math.pi * np.sin(math.pi * z))
        exact = math.pi ** 2 / 2
        assert mean_energy(fake) == pytest.approx(exact, abs=1e-6)

    def test_rigid_translation_has_zero_energy(self):
        mesh = build_mesh(2, 2)
        fake = _wave_grid(mesh, 8, np.zeros_like, np.zeros_like)
        assert mean_energy(fake) == 0.0


def _wave_grid(mesh, q, wave, slope):
    """A field grid on ``mesh`` with q samples per half-layer in t and x
    on pieces of P = 2*q + 1 samples, whose segments all carry the plus
    wave wave(t + x) and the minus wave wave(t - x), ``slope`` the
    derivative of ``wave`` on both the late and the early lines; no
    controls."""
    n_seg, nt = mesh.N, 2 * mesh.M * q + 1
    z = np.arange((mesh.M + 1) * 2 * q + 1) * (mesh.lam / (2 * q))
    lines = np.empty((6, n_seg, len(z)))
    for seg in range(n_seg):
        # line sample k of the window at x0 lies at t + x = z + x0 (plus
        # wave) and t - x = z - lam - x0 (minus wave)
        x0 = -1.0 + seg * mesh.lam
        z_plus, z_minus = z + x0, z - mesh.lam - x0
        lines[rec._WP, seg], lines[rec._WM, seg] = wave(z_plus), wave(z_minus)
        for plus, minus in ((rec._DWP, rec._DWM), (rec._DWP_EARLY, rec._DWM_EARLY)):
            lines[plus, seg], lines[minus, seg] = slope(z_plus), slope(z_minus)
    return rec.FieldGrid(mesh=mesh, qt=q, qx=q, st=1, sx=1,
                         t=np.linspace(0.0, mesh.T, nt),
                         x=np.linspace(-1.0, 1.0, 2 * n_seg * q + 1), lines=lines,
                         u_seg=np.zeros((n_seg, nt)), f_seg=np.zeros((n_seg, nt)),
                         interface_jump_v=0.0, interface_jump_r=0.0)


class TestBlockwiseSimpson:
    def test_step_with_midpoint_sample_is_exact(self):
        n, h = 65, 1.0 / 64
        f = np.where(np.arange(n) < 32, 1.0, 3.0)
        f[32] = 2.0
        assert blockwise_simpson_weights(n, h, [32]) @ f == pytest.approx(2.0, abs=1e-12)

    def test_smooth_integrand(self):
        # odd-length blocks fall back to one trapezoid step (O(h^3) local)
        n = 129
        x = np.linspace(0, 1, n)
        f = np.sin(np.pi * x) ** 2
        val = blockwise_simpson_weights(n, 1 / (n - 1), [31, 64]) @ f
        assert val == pytest.approx(0.5, abs=2e-6)
        val_even = blockwise_simpson_weights(n, 1 / (n - 1), [32, 64]) @ f
        assert val_even == pytest.approx(0.5, abs=1e-12)
