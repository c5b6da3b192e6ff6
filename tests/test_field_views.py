"""Strided-view field reconstruction and the line quadratures against
the gather forms they replaced.

``reconstruct.fields`` reads every wave through a strided view of its
assembled line; ``loop_reference.fields`` is the fancy-index gather form,
so every field array read whole, every energy window gathered from the
lines (``loop_reference.energy_windows``) and the interface jumps must be
byte-equal.  ``residual_Q`` and ``mean_energy`` integrate on the wave
lines with the one kink window of ``reconstruct.window_kinks``;
``residual_Q_windows`` and ``mean_energy`` of ``loop_reference`` take
the same quadrature of the same samples from whole per-window arrays,
with the per-window blockwise stencil sets on full-grid kink masks and
row-by-row weights, and with the grid's step ``h``.  The
sums run in another order, so Q must agree to ``Q_REL`` and E_grid to
``E_REL``, relative.
"""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from rodwave import cli
from rodwave import reconstruct as rec
from rodwave.cli import EXIT_INVARIANT, EXIT_OK, main
from rodwave.energy import mean_energy
from rodwave.errors import InvalidArgumentError, ReconstructionError
from test_assembly import assert_bits

ARRAYS = ("t", "x", "v", "r", "p", "s", "f_seg")
CELLS = [(n, m) for n in range(2, 9) for m in range(2, 9)] + [(1, 5), (9, 2), (12, 12)]
# relative agreement of Q and E_grid with the whole-array references
Q_REL, E_REL = 1e-9, 1e-13


def assert_close(got, want, rel):
    assert abs(got - want) <= rel * abs(want), (got, want)


def trig_params(seed):
    """Seeded trig data: amplitude in +-[0.25, 1], frequency in [0.5, 4]."""
    rng = random.Random(seed)
    return {key: [rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.0), rng.uniform(0.5, 4.0)]
            for key in ("v0", "r0", "v1", "r1")}


def solved(n, m, p, params):
    """Waves, controls and mesh of one closed-form solve."""
    config = cli.validate_config({"N": n, "M": m, "P": p, "preset": "trig",
                                  "preset_params": params})
    out = cli.solve_pipeline(config, reconstruct=False)
    par, sol, mesh = out["par"], out["primary"], out["mesh"]
    entries = par.entry_values(sol.y, sol.gamma)
    waves = rec.waves_from_solution(par, entries)
    controls = rec.controls_from_jumps(mesh, rec.jump_pieces_from_solution(par, entries))
    return waves, controls, mesh


def check_grid(waves, controls, mesh, q=None):
    new = rec.fields(waves, controls, mesh, q)
    old = ref.fields(waves, controls, mesh, q)
    assert new.q == old.q
    whole = ref.array_grid(new)
    for name in ARRAYS:
        assert_bits(getattr(whole, name), getattr(old, name))
    assert len(whole.e_quad_segments) == len(old.e_quad_segments) == mesh.N
    for got, want in zip(whole.e_quad_segments, old.e_quad_segments):
        assert_bits(got, want)
    assert new.interface_jump_v.hex() == old.interface_jump_v.hex()
    assert new.interface_jump_r.hex() == old.interface_jump_r.hex()
    assert_close(rec.residual_Q(new), ref.residual_Q_windows(old), Q_REL)
    assert_close(mean_energy(new), ref.mean_energy(old), E_REL)
    return new


@pytest.mark.parametrize("n,m", CELLS)
def test_fields_match_gathers_on_sweep_cells(n, m):
    check_grid(*solved(n, m, 129, trig_params(100 * n + m)))


def step_ids(cases):
    """Test ids of cases whose last value is the field step q, naming q
    twice, for t and for x; a case may be q alone."""
    cases = [case if isinstance(case, tuple) else (case,) for case in cases]
    return ["-".join(map(str, case + case[-1:])) for case in cases]


STEPS = [8, 1, 2, 64]


# q = 1 puts a kink on every sample, q = 64 makes a window of 129 columns
# at P = 129
@pytest.mark.parametrize("q", STEPS, ids=step_ids(STEPS))
def test_fields_match_gathers_at_other_samplings(q):
    n, m = (6, 6) if q == 8 else (5, 4)
    check_grid(*solved(n, m, 129, trig_params(q * 101)), q)


@pytest.mark.parametrize("p", [17, 33, 129])
@pytest.mark.parametrize("q", [2, 4, 8])
def test_field_samples_setting_matches_gathers(q, p):
    config = cli.validate_config({"N": 6, "M": 6, "P": p, "preset": "trig",
                                  "preset_params": trig_params(q), "field_samples": q})
    out = cli.solve_pipeline(config)
    want = ref.fields(out["waves"], out["controls"], out["mesh"], q)
    whole = ref.array_grid(out["fields"])
    for name in ARRAYS:
        assert_bits(getattr(whole, name), getattr(want, name))
    assert_close(out["Q"], ref.residual_Q_windows(want), Q_REL)
    assert_close(out["E_grid"], ref.mean_energy(want), E_REL)


# a step that is not a positive integer, or whose 2q does not divide
# P - 1 = 32
@pytest.mark.parametrize("q, match", [(0, "positive integer"), (-2, "positive integer"),
                                      (2.0, "positive integer"), (True, "positive integer"),
                                      ("2", "positive integer"), (3, "does not divide"),
                                      (32, "does not divide")])
def test_field_step_is_checked(q, match):
    waves, controls, mesh = solved(2, 2, 33, trig_params(1))
    with pytest.raises(InvalidArgumentError, match=match):
        rec.fields(waves, controls, mesh, q)
    assert rec.grid_step(33, np.int64(4)) == 4 and rec.grid_step(33) == 16


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(2, 4), p=st.sampled_from([17, 33, 65]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fields_match_gathers_on_random_states(n, m, p, seed):
    check_grid(*solved(n, m, p, trig_params(seed)))


def test_windows_share_one_kink_plan():
    # every segment window of the full-grid masks is the one kink window,
    # and a second grid on the same (N, M, q) reuses it
    fg = check_grid(*solved(6, 6, 129, trig_params(1)))
    kinks = rec.window_kinks(fg)
    plus, minus = ref.kink_masks(fg)
    for seg in range(6):
        cols = slice(2 * fg.q * seg, 2 * fg.q * (seg + 1) + 1)
        assert np.array_equal((plus | minus)[:, cols], kinks.kinks)
    assert rec.window_kinks(rec.fields(*solved(6, 6, 129, trig_params(2)))) is kinks


@pytest.mark.parametrize("q", STEPS + [32], ids=step_ids(STEPS + [32]))
def test_line_weights_fold_the_interior_weights(q):
    # W+ and W- each carry the whole interior of q_weights (t-rows
    # 1..nt-2, columns 1..2q-1), and none of it within 2s of a line end,
    # where the residual lines are NaN
    fg = rec.fields(*solved(5, 4, 129, trig_params(2 * q)), q)
    assert rec._residual_lines(fg).shape == (2,) + fg.lines.shape[1:]
    kinks = rec.window_kinks(fg)
    line_weights = kinks.q_line_weights
    assert line_weights.shape == (2, fg.lines.shape[-1])
    for w in line_weights:
        assert w.sum() == pytest.approx(kinks.q_weights[1:-1, 1:-1].sum(), rel=1e-14)
        reach = 2 * fg.s
        assert not w[:reach].any() and not w[-reach:].any()


@pytest.mark.parametrize("q", [2, 8, 32])
def test_line_weights_equal_the_window_sum_at_one_step(q):
    # the t and x stencils are one stencil of the line: the interior of Q
    # summed window sample by window sample, g = g+[a] + g-[b] and
    # h = g+[a] - g-[b], equals twice the squared lines dotted with W+-
    fg = rec.fields(*solved(6, 6, 129, trig_params(q)), q)
    kinks = rec.window_kinks(fg)
    lines = rec._residual_lines(fg)
    nt, width = len(fg.t), 2 * fg.q + 1
    plus = (np.arange(nt)[:, None] + np.arange(width)) * fg.s
    a, b = plus[1:-1, 1:-1], plus[:, ::-1][1:-1, 1:-1]
    w = kinks.q_weights[1:-1, 1:-1]
    by_window = sum(float(np.sum(w * ((gp[a] + gm[b]) ** 2 + (gp[a] - gm[b]) ** 2)))
                    for gp, gm in zip(*lines))
    squared = np.nan_to_num(lines) ** 2
    by_line = 2.0 * float(np.einsum("fsk,fk->", squared, kinks.q_line_weights))
    assert by_window > 0.0
    assert_close(by_line, by_window, 1e-13)


@pytest.mark.parametrize("table, side", [("pieces", +1), ("pieces", -1),
                                         ("dpieces", +1), ("dpieces", -1)])
def test_truncated_pieces_raise_instead_of_reading_past_the_line(table, side):
    # the stack holds one piece too few, so every line of that table, the
    # line of (side, k) among them, is short
    waves, controls, mesh = solved(3, 3, 33, trig_params(3))
    key = (side, mesh.J_s[1])
    stack = f"{table[:-1]}_stack"
    short = dataclasses.replace(waves, **{stack: getattr(waves, stack)[..., :-1, :]})
    assert getattr(short, table)[key].shape == (mesh.M, 33)
    with pytest.raises(ReconstructionError, match="outside a line"):
        rec.fields(short, controls, mesh)


# --- wave continuity at large data --------------------------------------------

def solve_main(tmp_path, capsys, params):
    config = {"N": 3, "M": 3, "P": 17, "preset": "trig", "preset_params": params,
              "out_dir": str(tmp_path / "out")}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = main(["solve", "--config", str(tmp_path / "cfg.json")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("amplitude", [1e9, 1e20, cli.STATE_MAX_ABS])
def test_large_data_solves(tmp_path, capsys, amplitude):
    # wave continuity is checked relative to the size of the wave pieces
    code, err = solve_main(tmp_path, capsys, {"v0": [amplitude, 1.0]})
    assert code == EXIT_OK, err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["wave_continuity"] <= 1e-12 * amplitude


@pytest.mark.parametrize("amplitude", [1.0, 1e9])
def test_junction_mismatch_still_exits_4(tmp_path, capsys, monkeypatch, amplitude):
    waves_from_solution = rec.waves_from_solution

    def mismatched(par, entries):
        # move the first interior junction sample of one wave by 1e-3 of
        # the largest wave sample, in the entries the waves are stitched from
        out = entries.copy()
        key = ("w", +1, par.mesh.J_s[0], 2)
        waves = out[:par.catalog.N_w]
        out[par.catalog.index[key], 0] += 1e-3 * np.max(np.abs(waves))
        return waves_from_solution(par, out)

    monkeypatch.setattr(rec, "waves_from_solution", mismatched)
    code, err = solve_main(tmp_path, capsys, {"v0": [amplitude, 1.0]})
    assert code == EXIT_INVARIANT
    assert "traveling-wave pieces disagree at junctions" in err
