"""The field grid's evaluators against the arrays it once stored.

``FieldGrid`` holds the traveling-wave lines and evaluates fields on
demand: t-row blocks (``rows``), and the segment windows that
``residual_Q`` reads through ``_wave``, each from its own lines.
Concatenated blocks and the window columns must equal, bit for bit, the
whole-grid arrays of the fancy-index gather form (``loop_reference.fields``),
but for the last column of an inner window, the segment's own trace at an
interface where the grid holds the next segment's; no production path
may evaluate all t-rows in one block, and the quadratures of Q and E_grid
no t-row block at all.
"""

import numpy as np
import pytest

import loop_reference as ref
from rodwave import cli
from rodwave import reconstruct as rec
from rodwave.cli import EXIT_OK, RunConfig, run_solve, run_verify
from rodwave.energy import mean_energy
from rodwave.errors import InvalidArgumentError
from test_assembly import assert_bits
from test_field_views import E_REL, Q_REL, assert_close, solved, trig_params

# (N, M, qt, qx); None is the default step
GRIDS = [(n, m, q, q) for n, m in ((1, 3), (6, 6), (12, 12)) for q in (2, 8, None)]
GRIDS += [(5, 4, 16, 4), (3, 2, 4, 1)]


@pytest.fixture(scope="module", params=GRIDS, ids=lambda g: "N%d-M%d-qt%s-qx%s" % g)
def grids(request):
    n, m, qt, qx = request.param
    waves, controls, mesh = solved(n, m, 129, trig_params(7 * n + m))
    return (rec.fields(waves, controls, mesh, qt=qt, qx=qx),
            ref.fields(waves, controls, mesh, qt=qt, qx=qx))


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_row_blocks_concatenate_to_the_grid(grids, block):
    fg, want = grids
    nt = len(fg.t)
    step = nt if block is None else block
    blocks = [fg.rows(lo, min(nt, lo + step)) for lo in range(0, nt, step)]
    for got, name in zip(np.concatenate(blocks, axis=1), "vrps"):
        assert_bits(got, getattr(want, name))


def test_windows_are_the_grid_columns(grids):
    # every segment window read through FieldGrid._wave, as residual_Q
    # reads it: columns 0..2qx-1 are the grid's; column 2qx is the
    # segment's own trace, the last column of the grid for the last
    # segment and within the interface jump of the next segment's trace
    # (the grid's interface column) for the others
    fg, want = grids
    nt, width, n_seg = len(fg.t), 2 * fg.qx + 1, fg.mesh.N
    for name in "vrps":
        a, b, combine, history = rec._FIELD_FORMS[name]
        windows = combine(fg._wave(fg.lines[a], True, 0, nt, 0, n_seg, 0, width),
                          fg._wave(fg.lines[b], False, 0, nt, 0, n_seg, 0, width))
        if history is not None:
            windows += getattr(fg, history).T[:, :, None]
        grid = getattr(want, name)
        for seg, (j0, j1) in enumerate(want.segment_windows()):
            assert_bits(windows[:, seg, :-1], grid[:, j0:j1])
            if seg == n_seg - 1:
                assert_bits(windows[:, seg, -1], grid[:, j1])
            elif name in "vr":
                jump = getattr(fg, "interface_jump_" + name)
                assert np.max(np.abs(windows[:, seg, -1] - grid[:, j1])) <= jump


def test_whole_grid_properties_match(grids):
    fg, want = grids
    for name in ("t", "x", "f_seg"):
        assert_bits(getattr(fg, name), getattr(want, name))
    assert np.array_equal(fg.column_segments(), want.column_segments())
    assert fg.interface_jump_v.hex() == want.interface_jump_v.hex()
    assert fg.interface_jump_r.hex() == want.interface_jump_r.hex()


def test_row_ranges_are_checked(grids):
    fg, _ = grids
    nt = len(fg.t)
    assert fg.rows(nt, nt).shape == (4, 0, len(fg.x))
    for lo, hi in ((-1, 2), (3, 2), (0, nt + 1)):
        with pytest.raises(InvalidArgumentError, match="outside a grid"):
            fg.rows(lo, hi)


@pytest.mark.parametrize("n, m, p, qt, qx", [(1, 3, 33, None, None), (6, 6, 33, None, None),
                                           (5, 4, 129, 16, 4)])
def test_fields_csv_matches_the_whole_arrays(n, m, p, qt, qx, tmp_path):
    # e included: the CSV writer's energy density against the one
    # loop_reference computes from the whole arrays
    waves, controls, mesh = solved(n, m, p, trig_params(n + m))
    rec.write_fields_csv(rec.fields(waves, controls, mesh, qt, qx), tmp_path / "got.csv")
    ref.write_fields_csv(ref.fields(waves, controls, mesh, qt, qx), tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# --- no whole grid on the production paths ---------------------------------

@pytest.fixture
def no_whole_grid(monkeypatch):
    """Make FieldGrid.rows refuse a block of all t-rows, here and in
    forked children."""
    rows = rec.FieldGrid.rows

    def guarded(self, lo, hi, names="vrps", step=1):
        if (lo, hi, step) == (0, len(self.t), 1):
            raise AssertionError("a whole-grid block of FieldGrid on a production path")
        return rows(self, lo, hi, names, step)

    monkeypatch.setattr(rec.FieldGrid, "rows", guarded)


def test_guard_refuses_a_whole_grid_block(no_whole_grid):
    fg = rec.fields(*solved(2, 3, 33, trig_params(4)))
    nt = len(fg.t)
    with pytest.raises(AssertionError, match="whole-grid block"):
        fg.rows(0, nt)
    assert fg.rows(0, nt - 1).shape == (4, nt - 1, len(fg.x))


def test_solve_with_oracle_reads_no_whole_grid(no_whole_grid, cpus, tmp_path):
    forks = cpus(2)
    cfg = RunConfig(N=4, M=4, preset="paper_example", oracle=True,
                    oracle_points_per_segment=32, out_dir=str(tmp_path))
    assert run_solve(cfg) == EXIT_OK
    assert len(forks) == 2      # the oracle child and one fields helper
    assert (tmp_path / "summary.json").exists()


def test_verify_reads_no_whole_grid(no_whole_grid, tmp_path):
    cfg = RunConfig(N=3, M=3, preset="paper_example", oracle_points_per_segment=32,
                    out_dir=str(tmp_path))
    assert run_verify(cfg) == EXIT_OK


def test_pipeline_reads_no_whole_grid(no_whole_grid):
    config = cli.validate_config({"N": 6, "M": 6, "P": 129, "preset": "trig",
                                  "preset_params": trig_params(5)})
    out = cli.solve_pipeline(config)
    assert out["Q"] > 0.0 and out["E_grid"] > 0.0


@pytest.fixture
def no_row_blocks(monkeypatch):
    """Make FieldGrid.rows refuse every call."""
    def refused(self, lo, hi, names="vrps", step=1):
        raise AssertionError(f"a block of t-rows [{lo}, {hi}) of FieldGrid")

    monkeypatch.setattr(rec.FieldGrid, "rows", refused)


# (N, M, qt, qx): at qx = 2 the own-line columns of a window are 2 wide,
# at qx = 1 none; at N = 1 the last window column is the grid's own
@pytest.mark.parametrize("n, m, qt, qx", [(6, 6, 2, 2), (1, 3, None, None), (1, 4, 2, 2),
                                          (3, 2, 4, 1)])
def test_quadratures_read_no_rows(no_row_blocks, n, m, qt, qx):
    waves, controls, mesh = solved(n, m, 129, trig_params(11 * n + m))
    fg = rec.fields(waves, controls, mesh, qt, qx)
    want = ref.fields(waves, controls, mesh, qt, qx)
    with pytest.raises(AssertionError, match="t-rows"):
        fg.rows(0, 1)
    assert_close(rec.residual_Q(fg), ref.residual_Q_windows(want), Q_REL)
    assert_close(mean_energy(fg), ref.mean_energy(want), E_REL)
