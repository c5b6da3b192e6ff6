import math

import numpy as np
import pytest

from rodwave.errors import InvalidArgumentError
from rodwave.mesh import (
    RodParams,
    build_mesh,
    counts,
    nondimensionalize,
)
from rodwave.edge import build_catalog, wave_key
from rodwave.energy import build_weights


class TestBuildMesh:
    def test_worked_configuration(self):
        mesh = build_mesh(4, 4)
        assert mesh.lam == pytest.approx(0.5)
        assert mesh.T == pytest.approx(2.0)
        assert mesh.J_s == (-3, -1, 1, 3)
        assert mesh.x(4) == pytest.approx(1.0)

    def test_smallest_mesh(self):
        mesh = build_mesh(1, 1)
        assert mesh.lam == pytest.approx(2.0)
        assert mesh.T == pytest.approx(2.0)
        assert mesh.J_s == (0,)
        assert mesh.J_x == (-1, 1)

    def test_three_segment_instants(self):
        # evaluate the defining formula t_m = m*lam/2 for every mesh instant
        mesh = build_mesh(3, 2)
        instants = [mesh.t(m) for m in range(0, 2 * mesh.M + 1)]
        assert instants == pytest.approx([0, 1 / 3, 2 / 3, 1, 4 / 3])
        assert mesh.z_plus(-2) == pytest.approx(-1.0)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            build_mesh(0, 3)
        with pytest.raises(InvalidArgumentError):
            build_mesh(3, 0)

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("m", range(1, 17))
    def test_index_set_sizes(self, n, m):
        mesh = build_mesh(n, m)
        assert len(mesh.J_s) == n
        assert len(mesh.J_x) == n + 1
        assert len(mesh.J_c) == n + 2
        assert len(mesh.J_t) == m + 1
        assert mesh.t(2 * m) == pytest.approx(mesh.T)
        for k in mesh.J_s:
            assert mesh.z_plus(k) + mesh.z_minus(k) == pytest.approx(-mesh.lam)


class TestCounts:
    def test_worked_example_counts(self):
        sc = counts(4, 4)
        assert (sc.N_e, sc.N_w, sc.N_u, sc.N_v, sc.N_s, sc.N_b) == \
            (48, 40, 20, 60, 12, 16)

    def test_surplus_two_two(self):
        assert counts(2, 2).N_s == 2

    def test_odd_branch(self):
        assert counts(5, 3).N_b == 14

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("m", range(1, 17))
    def test_identities(self, n, m):
        sc = counts(n, m)
        assert sc.N_e == 2 * m * n + 4 * n
        assert sc.N_w == 2 * (m + 1) * n
        assert sc.N_u == m * (n + 1)
        assert sc.N_v == sc.N_w + sc.N_u
        assert sc.N_s == sc.N_v - sc.N_e == m * n + m - 2 * n
        if n % 2 == 1:
            assert sc.N_b == m * n + m - n + 1
        else:
            assert sc.N_b == m * n + m - n

    def test_every_solved_mesh_has_boundary_rows(self):
        # eliminate refuses M = 1, and every mesh it admits has free
        # functions and essential rows, so no solve meets an empty boundary
        # system: N_s = M(N+1) - 2N >= 2 and N_r >= N + 3, both at M = 2
        for n in range(1, 65):
            for m in range(2, 65):
                sc = counts(n, m)
                assert sc.N_s >= 2 and sc.N_r >= n + 3
            assert counts(n, 2).N_s == 2 and counts(n, 2).N_r == n + 3


class TestNondimensionalize:
    def test_unit_scales(self):
        params = RodParams(1.0, 1.0, 1.0)
        assert nondimensionalize(params, 2.0, 1.0) == pytest.approx((2.0, 1.0))

    def test_heavy_rod(self):
        params = RodParams(4.0, 1.0, 1.0)   # tau* = 2
        assert nondimensionalize(params, 2.0, 0.0) == pytest.approx((1.0, 0.0))

    def test_stiff_long_rod(self):
        params = RodParams(1.0, 4.0, 2.0)   # tau* = 1
        assert nondimensionalize(params, 1.0, -2.0) == pytest.approx((1.0, -1.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            RodParams(0.0, 1.0, 1.0)


def wave_domain(mesh, k, side):
    """Closed domain of the traveling wave w^side_k (side +1 or -1): the
    '+' wave lives on [z_plus_k, T - z_minus_k], the '-' wave on
    [z_minus_k, T - z_plus_k]."""
    lo = mesh.z_plus(k) if side == +1 else mesh.z_minus(k)
    hi = mesh.T - (mesh.z_minus(k) if side == +1 else mesh.z_plus(k))
    return lo, hi


def measured_strip_thickness(mesh, k, side, zeta, resolution=200_001):
    """Geometric oracle: half the measure of conjugate characteristic
    coordinates pairing with zeta inside the strip Omega_k, by direct grid
    measure of the inequalities 0 < t < T, x_{k-1} < x < x_{k+1}."""
    lo_other, hi_other = wave_domain(mesh, k, -side)
    conj = np.linspace(lo_other - mesh.lam, hi_other + mesh.lam, resolution)
    if side == +1:
        z_plus, z_minus = zeta, conj
    else:
        z_plus, z_minus = conj, zeta
    t = (z_plus + z_minus) / 2.0
    x = (z_plus - z_minus) / 2.0
    inside = (t > 0) & (t < mesh.T) & (x > mesh.x(k - 1)) & (x < mesh.x(k + 1))
    step = conj[1] - conj[0]
    return 0.5 * inside.sum() * step


def wave_weights(mesh, k, side, p=129):
    """The strip-thickness weights ``build_weights`` gives the M + 1 pieces
    of the wave w^side_k, end to end: (domain coordinate of each cell
    midpoint, its midpoint weight)."""
    lo, _ = wave_domain(mesh, k, side)
    z = np.linspace(0.0, mesh.lam, p)
    z_mid = 0.5 * (z[:-1] + z[1:])
    w_mid = build_weights(mesh, p).w_mid
    cat = build_catalog(mesh)
    zeta = np.concatenate([lo + m * mesh.lam / 2 + z_mid for m in mesh.J_t])
    w = np.concatenate([w_mid[cat.index[wave_key(side, k, m)]] for m in mesh.J_t])
    return zeta, w


class TestDeltaZWeight:
    """The strip thickness Delta z as ``build_weights`` samples it: a
    trapezoid over each wave domain, 0 -> lambda over the first lambda,
    lambda in the middle and back to 0 over the last lambda."""

    def test_zero_at_left_endpoint(self):
        mesh = build_mesh(4, 4)
        lo, _ = wave_domain(mesh, 1, +1)
        zeta, w = wave_weights(mesh, 1, +1)
        first = slice(0, 128)           # the first layer's cells
        slope, intercept = np.polyfit(zeta[first] - lo, w[first], 1)
        assert slope == pytest.approx(1.0)
        assert intercept == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n,m,k,side", [(4, 4, 1, +1), (4, 4, -3, -1),
                                            (3, 2, 0, +1), (2, 3, -1, -1)])
    def test_against_geometric_oracle(self, n, m, k, side):
        mesh = build_mesh(n, m)
        lo, hi = wave_domain(mesh, k, side)
        zeta, w = wave_weights(mesh, k, side)
        for frac in (0.1, 0.25, 0.5, 0.77, 0.9):
            q = int(np.argmin(np.abs(zeta - (lo + frac * (hi - lo)))))
            oracle = measured_strip_thickness(mesh, k, side, zeta[q])
            assert w[q] == pytest.approx(oracle, abs=2e-4)

    def test_midpoint_plateau(self):
        mesh = build_mesh(4, 4)          # M >= 2
        lo, hi = wave_domain(mesh, -1, +1)
        zeta, w = wave_weights(mesh, -1, +1)
        q = int(np.argmin(np.abs(zeta - (lo + hi) / 2)))
        assert w[q] == mesh.lam

    def test_ramp_midpoint(self):
        # the two first-layer cells on either side of offset lambda/2
        mesh = build_mesh(3, 3)
        _, w = wave_weights(mesh, 0, -1)
        assert 0.5 * (w[63] + w[64]) == pytest.approx(mesh.lam / 2, abs=1e-15)

    def test_symmetric_about_midpoint(self):
        mesh = build_mesh(5, 3)
        _, w = wave_weights(mesh, 2, +1)
        assert np.allclose(w, w[::-1], atol=1e-15)

    def test_full_domain_integral_is_lam_T(self):
        # the midpoint rule integrates the trapezoid exactly, its corners
        # on cell boundaries: half the characteristic-coordinate area of
        # the strip, lam*T, for every wave
        for n, m in ((4, 4), (3, 2), (2, 5)):
            mesh = build_mesh(n, m)
            for k in mesh.J_s:
                for side in (+1, -1):
                    _, w = wave_weights(mesh, k, side)
                    assert np.sum(w) * mesh.lam / 128 == pytest.approx(
                        mesh.lam * mesh.T, abs=1e-12)
