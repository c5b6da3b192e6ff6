"""Array kernels against their scalar loop forms (see loop_reference.py)."""

import dataclasses
import os
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rodwave import cli
from rodwave import reconstruct as rec
from rodwave.energy import blockwise_simpson, blockwise_simpson_weights
from rodwave.errors import InvalidArgumentError
from rodwave.mesh import RodParams
from rodwave.oracle import SimConfig, simulate, write_sim_csv

import loop_reference as ref


@st.composite
def masked_grids(draw):
    """(values, kink mask) of shape (rows, n); kinks are dense enough that
    length-1 blocks, adjacent kinks and kinks on the end samples occur."""
    rows = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=3, max_value=24))
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 0.9, 1.0)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, n)), rng.random((rows, n)) < density


def _assert_same_derivative(values, kinks, h):
    for axis, v, k in ((1, values, kinks), (0, values.T, kinks.T)):
        got, ok = rec.blockwise_derivative(v, h, k, axis=axis)
        want, want_ok = ref.axis_derivative(v, h, k, axis=axis)
        assert np.array_equal(got, want)       # bit for bit, no tolerance
        assert np.array_equal(ok, want_ok)


@settings(max_examples=200, deadline=None)
@given(masked_grids(), st.sampled_from((1.0, 0.1, 1.0 / 3.0)))
def test_derivative_matches_loop_bit_for_bit(grid, h):
    values, kinks = grid
    _assert_same_derivative(values, kinks, h)


@pytest.mark.parametrize("mask", [
    [1, 0, 0, 0, 0, 0, 1],      # kinks on the first and last samples only
    [0, 1, 1, 0, 0, 0, 0],      # adjacent kinks: a length-1 block
    [0, 0, 0, 0, 0, 1, 0],      # kink next to the end: short final block
    [0, 1, 0, 1, 0, 1, 0],      # every block of length 2
    [1, 1, 1, 1, 1, 1, 1],      # every block of length 1
    [0, 0, 0],                  # the shortest slice
    [0, 1, 0],
])
def test_derivative_edge_masks(mask):
    kinks = np.array([mask], dtype=bool)
    values = np.random.default_rng(len(mask)).standard_normal(kinks.shape)
    _assert_same_derivative(values, kinks, 0.25)


def test_derivative_one_dimensional_and_too_short():
    values = np.sin(np.linspace(0.0, 1.0, 9))
    kinks = np.zeros(9, dtype=bool)
    kinks[4] = True
    got, ok = rec.blockwise_derivative(values, 0.125, kinks)
    want, want_ok = ref.blockwise_derivative_1d(values, 0.125, kinks)
    assert np.array_equal(got, want) and np.array_equal(ok, want_ok)
    with pytest.raises(InvalidArgumentError):
        rec.blockwise_derivative(values[:2], 0.125, kinks[:2])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=60),
       st.lists(st.integers(min_value=-2, max_value=62), max_size=12),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(65, [32], 0)
@example(5, [1, 2, 3], 1)
@example(2, [], 2)
def test_simpson_weights_match_loop(n, splits, seed):
    values = np.random.default_rng(seed).standard_normal(n)
    h = 1.0 / 7.0
    got = blockwise_simpson(values, h, splits)
    want = ref.blockwise_simpson(values, h, splits)
    scale = ref.blockwise_simpson(np.abs(values), h, splits)
    assert abs(got - want) <= 1e-14 * max(scale, 1e-300)
    weights = blockwise_simpson_weights(n, h, splits)
    assert weights.sum() == pytest.approx((n - 1) * h, rel=1e-14, abs=1e-300)


@pytest.fixture(scope="module")
def field_grid(worked_example):
    """Field grid of the worked example at (qt, qx) samples per half-layer."""
    par, mesh, sol = (worked_example[k] for k in ("par", "mesh", "sol_qp"))
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(mesh, rec.jump_pieces_from_solution(par, entries))
    return lambda qt, qx: rec.fields(waves, controls, mesh, qt=qt, qx=qx)


@pytest.fixture(scope="module")
def small_grid(field_grid):
    return field_grid(2, 2)


@pytest.mark.parametrize("qt, qx", [(2, 2), (4, 2), (2, 8), (32, 32)])
def test_kink_masks_match_full_grid_residues(field_grid, qt, qx):
    fg = field_grid(qt, qx)
    for got, want in zip(fg.kink_masks(), ref.kink_masks(fg)):
        assert np.array_equal(got, want)


def test_residual_q_matches_loop_form(small_grid):
    assert rec.residual_Q(small_grid) == ref.residual_Q(small_grid)


# special values exercise the %.12g formatting: not-a-number, infinities,
# signed zero, tiny, huge and integral magnitudes, and exponent boundaries
SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300,
           -123456789012345.0, 1e16, 1e-5, 0.1 + 0.2, -2.5]


def _with_special(arr):
    out = np.array(arr, dtype=float)
    out.flat[:len(SPECIAL)] = SPECIAL
    return out


@pytest.fixture
def special_grid(small_grid):
    """The worked-example grid with special values in v and s (e is
    computed from p, s and the force, so they enter it through s); 17
    t-rows, so no split into 2 or 3 chunks is even."""
    assert len(small_grid.t) % 2 and len(small_grid.t) % 3
    return dataclasses.replace(small_grid, v=_with_special(small_grid.v),
                               s=_with_special(small_grid.s[::-1]))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_both(grid, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    with np.errstate(over="ignore"):        # 1e300 squared
        rec.write_fields_csv(grid, got)
        ref.write_fields_csv(grid, want)
    return got.read_bytes(), want.read_bytes()


def test_fields_csv_bytes_match_csv_writer(special_grid, tmp_path):
    got, want = write_both(special_grid, tmp_path)
    assert got == want
    assert got.startswith(b"t,x,v,r,p,s,e\r\n0,-1,nan,")


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_fields_csv_split_bytes(special_grid, cpus, n_cpus, tmp_path):
    forks = cpus(n_cpus)
    got, want = write_both(special_grid, tmp_path)
    assert got == want
    assert len(forks) == n_cpus - 1
    assert_no_child_left()


def test_fields_csv_fewer_rows_than_cpus(special_grid, cpus, tmp_path):
    rows = 2
    grid = dataclasses.replace(
        special_grid, t=special_grid.t[:rows], v=special_grid.v[:rows],
        r=special_grid.r[:rows], p=special_grid.p[:rows], s=special_grid.s[:rows],
        f_seg=special_grid.f_seg[:, :rows])
    forks = cpus(3)
    got, want = write_both(grid, tmp_path)
    assert got == want and got.count(b"\r\n") == 1 + rows * len(grid.x)
    assert len(forks) == rows - 1
    assert_no_child_left()


@pytest.mark.parametrize("failing, error", [
    (lambda lo: lo > 0, OSError),               # a helper's chunk
    (lambda lo: lo == 0, KeyboardInterrupt),    # this process's chunk
])
def test_fields_csv_failure_leaves_no_child(special_grid, cpus, monkeypatch,
                                            tmp_path, failing, error):
    forks = cpus(3)
    real = rec._write_field_rows

    def kernel(fg, lo, hi, fh):
        if failing(lo):
            raise error("row kernel failed")
        real(fg, lo, hi, fh)
    monkeypatch.setattr(rec, "_write_field_rows", kernel)
    match = r"helper formatting t-rows \[5, 11\) exited with code 1" if error is OSError else None
    with pytest.raises(error, match=match), np.errstate(over="ignore"):
        rec.write_fields_csv(special_grid, tmp_path / "got.csv")
    assert len(forks) == 2
    assert_no_child_left()


def test_controls_csv_bytes_match_csv_writer(worked_example, tmp_path):
    par, mesh, sol = (worked_example[k] for k in ("par", "mesh", "sol_qp"))
    entries = par.entry_values(sol.y, sol.gamma)
    controls = rec.controls_from_jumps(mesh, rec.jump_pieces_from_solution(par, entries))
    special = dataclasses.replace(
        controls,
        forces={k: (_with_special(f) if k == mesh.J_c[0] else f)
                for k, f in controls.forces.items()},
        jumps={n: (_with_special(j) if n == mesh.J_x[-1] else j)
               for n, j in controls.jumps.items()})
    for case in (controls, special):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        rec.write_controls_csv(case, got)
        ref.write_controls_csv(case, want)
        assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().startswith(b"t,u_jump_")
    assert b",nan," in got.read_bytes() and b",-inf," in got.read_bytes()


def test_sim_csv_bytes_match_csv_writer(worked_example, tmp_path):
    par, mesh, sol = (worked_example[k] for k in ("par", "mesh", "sol_qp"))
    entries = par.entry_values(sol.y, sol.gamma)
    controls = rec.controls_from_jumps(mesh, rec.jump_pieces_from_solution(par, entries))
    sim = simulate(mesh, RodParams(1.0, 1.0, 1.0), controls, worked_example["state"],
                   SimConfig(points_per_segment=8, cfl=1.0))
    special = dataclasses.replace(sim, v_terminal=_with_special(sim.v_terminal),
                                  energy_history=_with_special(sim.energy_history))
    for case in (sim, special):
        paths = [tmp_path / name for name in ("t_got", "e_got", "t_want", "e_want")]
        write_sim_csv(case, paths[0], paths[1])
        ref.write_sim_csv(case, paths[2], paths[3])
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()
    assert paths[0].read_bytes().startswith(b"x,v,p\r\n-1,nan,")
    assert paths[1].read_bytes().startswith(b"t,energy\r\n0,nan\r\n")


# ---------------------------------------------------------------------------
# The %.12g kernel against Python's % operator
# ---------------------------------------------------------------------------


def kernel_text(values):
    """The kernel's text of ``values``, each after a comma, and the number
    of values it formatted with ``%``."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape + (3,), "<u8")
    slow = rec._format_values(values, out, rec._COMMA)
    return out.tobytes().translate(None, b"\0"), slow


def percent_text(values):
    return "".join("," + "%.12g" % v for v in np.ravel(values).tolist()).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_kernel_matches_percent(values):
    assert kernel_text(values)[0] == percent_text(values)


# exactly representable values whose 13th significant digit is a final 5:
# ties of the 12-digit rounding, in exponent form and fixed notation
TIES = [3.814697265625e-06, 8.392333984375e-05, 0.0004730224609375, 0.008575439453125,
        0.04083251953125, 0.8685302734375, 6.757568359375, 11.19775390625,
        12345678901.25, 123456789012.5]


def test_ties_are_exact_and_go_through_percent():
    for value in TIES:
        digits = Decimal(value).as_tuple().digits
        assert len(digits) == 13 and digits[-1] == 5
    values = np.array(TIES + [-v for v in TIES])
    got, slow = kernel_text(values)
    assert got == percent_text(values)
    assert slow == len(values)


def test_kernel_edge_values():
    values = [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
              float("nan"), float("inf"), -float("inf"),
              9.9999999999995e-5, 1e-4, -9.9999999999995e-5, 9.99999999999949e-5,
              999999999999.5, 1e12, 9999.99999999995, 9999.9999999995]
    for k in range(-6, 14):
        for toward in (-np.inf, np.inf):
            values += [np.nextafter(10.0 ** k, toward), -np.nextafter(10.0 ** k, toward)]
    got, slow = kernel_text(values)
    assert got == percent_text(values)
    assert 0 < slow < len(values)


def test_kernel_seeded_sweep_over_all_exponents():
    rng = np.random.default_rng(12)
    values = np.concatenate([
        rng.integers(-2 ** 63, 2 ** 63 - 1, 100_000, dtype=np.int64).view(np.float64),
        rng.standard_normal(50_000) * 10.0 ** rng.integers(-13, 6, 50_000),
        np.round(rng.standard_normal(20_000), 6)])                     # trailing zeros
    assert kernel_text(values)[0] == percent_text(values)


def test_fast_path_covers_paper_fields():
    """At most 1 % of the N = 12 paper-example field values go through %."""
    config = cli.validate_config({"N": 12, "M": 12, "P": 129, "preset": "paper_example"})
    fg = cli.solve_pipeline(config)["fields"]
    total = slow = 0
    for arr in (fg.t, fg.x, fg.v, fg.r, fg.p, fg.s, fg.e):
        text, n = kernel_text(arr)
        assert text == percent_text(arr)
        total, slow = total + arr.size, slow + n
    assert total == 769 * 769 * 5 + 2 * 769
    assert slow <= 0.01 * total


@pytest.mark.parametrize("block_values", [1, 7, 40])
def test_csv_bytes_across_blocks(special_grid, worked_example, monkeypatch, tmp_path,
                                 block_values):
    """Small blocks split the rows of every writer; the bytes do not change."""
    monkeypatch.setattr(rec, "CSV_BLOCK_VALUES", block_values)
    got, want = write_both(special_grid, tmp_path)
    assert got == want
    par, mesh, sol = (worked_example[k] for k in ("par", "mesh", "sol_qp"))
    entries = par.entry_values(sol.y, sol.gamma)
    controls = rec.controls_from_jumps(mesh, rec.jump_pieces_from_solution(par, entries))
    rec.write_controls_csv(controls, tmp_path / "got.csv")
    ref.write_controls_csv(controls, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
