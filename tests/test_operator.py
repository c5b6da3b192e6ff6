"""The one-entry solve-operator cache of ``cli.solve_pipeline``.

The operator of an (N, M, P) is built whole, from the mesh alone, and only
once that build succeeds is it stored.  A repeated (N, M, P) reuses the edge
rows, the elimination, the essential-row structure, the weights and the
factored closed-form boundary system, and ``reconstruct.window_kinks`` keeps
the field grid's kink window; a state is bound to a copy of the
parametrization, never to the operator's.
Every output must carry the same bits as a cold run with an empty cache.
The KKT cross-check keeps nothing between solves.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import conjugate_vector
from rodwave import cli, edge, energy, sampled
from rodwave import reconstruct as rec
from rodwave.edge import Parametrization, boundary_matrices
from rodwave.energy import assemble_qp
from rodwave.errors import InvalidArgumentError, SolverError
from rodwave.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main, solve_pipeline,
                         validate_config)

P = 33


def trig_config(n, m, seed, solver="both"):
    rng = np.random.default_rng(seed)
    params = {key: [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 4.0))]
              for key in ("v0", "r0", "v1", "r1")}
    return validate_config({"N": n, "M": m, "P": P, "preset": "trig",
                            "preset_params": params, "solver": solver})


def cold(config, reconstruct=True):
    cli.clear_operator_cache()
    return solve_pipeline(config, reconstruct=reconstruct)


def bits(a):
    a = np.asarray(a)
    return (a.dtype.str, a.shape, a.tobytes())


def same_solution(new, old):
    for name in ("y", "gamma", "h"):
        assert bits(getattr(new, name)) == bits(getattr(old, name))
    assert new.objective.hex() == old.objective.hex()
    assert new.method == old.method
    assert new.diagnostics.keys() == old.diagnostics.keys()
    for key, val in new.diagnostics.items():
        assert repr(val) == repr(old.diagnostics[key])


def same_result(new, old):
    assert new["solutions"].keys() == old["solutions"].keys()
    for name in new["solutions"]:
        same_solution(new["solutions"][name], old["solutions"][name])
    el = cli.solve_operator(new["mesh"].N, new["mesh"].M, P).el
    assert bits(conjugate_vector(new["par"], el, new["primary"].y)) == bits(
        conjugate_vector(old["par"], el, old["primary"].y))
    for name in ("B0", "B1", "B_gamma", "b0"):
        assert bits(getattr(new["bc"], name)) == bits(getattr(old["bc"], name))
    for name in ("rank", "n_assembled", "guard_rows_kept"):
        assert getattr(new["bc"], name) == getattr(old["bc"], name)
    if "Q" in old:
        assert float(new["Q"]).hex() == float(old["Q"]).hex()
        assert float(new["E_grid"]).hex() == float(old["E_grid"]).hex()
        rows = [out["fields"].rows(0, len(out["fields"].t)) for out in (new, old)]
        assert bits(rows[0]) == bits(rows[1])


@pytest.fixture
def eliminations(monkeypatch):
    """Number of exact eliminations run through ``cli``."""
    calls = []
    real = cli.eliminate

    def counting(system):
        calls.append((system.mesh.N, system.mesh.M))
        return real(system)

    monkeypatch.setattr(cli, "eliminate", counting)
    return calls


def test_states_on_one_mesh_match_cold_runs(eliminations):
    configs = [trig_config(4, 4, seed) for seed in range(5)]
    warm = [solve_pipeline(c) for c in configs]
    assert eliminations == [(4, 4)]
    for config, result in zip(configs, warm):
        same_result(result, cold(config))
    assert eliminations == [(4, 4)] * 6


def test_cache_hit_factors_nothing(monkeypatch):
    solve_pipeline(trig_config(4, 4, 1, "el"))

    def per_mesh(*args, **kwargs):
        raise AssertionError("per-mesh work on a cache hit")

    for name in ("lstsq", "svd", "pinv", "matrix_rank", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, per_mesh)
    monkeypatch.setattr(rec, "WindowKinks", per_mesh)
    warm = solve_pipeline(trig_config(4, 4, 2, "el"))
    monkeypatch.undo()
    same_result(warm, cold(trig_config(4, 4, 2, "el")))


def test_cache_hit_builds_no_operator(monkeypatch):
    first = solve_pipeline(trig_config(4, 4, 1))
    op = cli.solve_operator(4, 4, P)

    def per_mesh(*args, **kwargs):
        raise AssertionError("per-mesh build on a cache hit")

    for name in ("assemble_edge_constraints", "eliminate", "boundary_structure",
                 "ELSystem"):
        monkeypatch.setattr(cli, name, per_mesh)
    warm = solve_pipeline(trig_config(4, 4, 2))
    monkeypatch.undo()
    assert cli.solve_operator(4, 4, P) is op
    assert op.par.state is None
    assert first["par"].state is first["state"] and warm["par"].state is warm["state"]
    assert warm["system"] is op.system
    same_result(warm, cold(trig_config(4, 4, 2)))


def refuse_per_mesh_arrays(monkeypatch):
    """Make every build of a per-mesh array refuse, as no_row_blocks does
    for FieldGrid.rows: np.linspace (the data grid, the z-grid, the field
    grid's t and x), the Simpson weights of the quadratures and of the
    terminal L2 norms, and the gathers of g.  Returns the field grids
    _residual_lines builds lines for, one entry per call."""
    def refused(*args, **kwargs):
        raise AssertionError("a per-mesh array built again for a repeated mesh")

    for owner, name in ((np, "linspace"), (sampled, "simpson_weights"),
                        (rec, "simpson_weights"), (energy, "blockwise_simpson_weights"),
                        (rec, "blockwise_simpson_weights"), (energy, "blockwise_simpson_rows"),
                        (rec, "blockwise_simpson_rows"), (Parametrization, "_g_gathers")):
        monkeypatch.setattr(owner, name, refused)
    calls = []
    lines = rec._residual_lines
    monkeypatch.setattr(rec, "_residual_lines", lambda fg: calls.append(fg) or lines(fg))
    return calls


@pytest.mark.parametrize("n, m, field_samples, solver", [
    (6, 6, None, "el"), (1, 3, 2, "el"), (4, 4, 8, "both"), (3, 2, 16, "el")])
def test_repeated_mesh_builds_no_per_mesh_array(monkeypatch, n, m, field_samples, solver):
    def config(seed):
        rng = np.random.default_rng(seed)
        params = {key: [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 4.0))]
                  for key in ("v0", "r0", "v1", "r1")}
        raw = {"N": n, "M": m, "P": P, "preset": "trig", "preset_params": params,
               "solver": solver}
        if field_samples is not None:
            raw["field_samples"] = field_samples
        return validate_config(raw)

    solve_pipeline(config(1))
    grids = refuse_per_mesh_arrays(monkeypatch)
    with pytest.raises(AssertionError, match="built again"):
        np.linspace(0.0, 1.0, 3)
    warm = solve_pipeline(config(2))
    # one set of residual lines
    assert len(grids) == 1 and grids[0] is warm["fields"]
    monkeypatch.undo()
    same_result(warm, cold(config(2)))


def test_failed_build_stores_no_entry(monkeypatch, tmp_path, capsys):
    solve_pipeline(trig_config(3, 3, 1, "el"))       # the entry of another mesh

    def singular(par, structure):
        raise SolverError("euler_lagrange: boundary system residual not bounded")

    monkeypatch.setattr(cli, "ELSystem", singular)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": 4, "M": 4, "P": P, "preset": "paper_example",
                                   "out_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfgfile)]) == EXIT_INVARIANT
    assert "invariant violation: euler_lagrange" in capsys.readouterr().err
    assert cli._operator is None
    monkeypatch.undo()
    config = validate_config(json.loads(cfgfile.read_text()))
    after = solve_pipeline(config)
    assert cli.solve_operator(4, 4, P).par.state is None
    same_result(after, cold(config))


def zero_column(structure, scale=0.0):
    """The free column 0 of B0 and B1 scaled by ``scale``, 0 by default:
    a zero column of G."""
    b0, b1 = structure.B0.copy(), structure.B1.copy()
    b0[:, 0] *= scale
    b1[:, 0] *= scale
    return replace(structure, B0=b0, B1=b1)


def tiny_column(structure):
    """Column 0 of G scaled by 1e-12: S is nonsingular, but cond_1(S) is
    past 1e10."""
    return zero_column(structure, 1e-12)


def project_out_null_vector(structure):
    """B0 and B1 less their component along the null vector z of G^T:
    G and z are unchanged, and B1^T z, so sigma, is zero to rounding."""
    z = structure.z / np.linalg.norm(structure.z)
    return replace(structure, B0=structure.B0 - np.outer(z, z @ structure.B0),
                   B1=structure.B1 - np.outer(z, z @ structure.B1))


@pytest.mark.parametrize("broken,reason", [(zero_column, "S is singular"),
                                           (tiny_column, "S is singular to working"),
                                           (project_out_null_vector, "sigma = ")])
def test_singular_boundary_system_stores_no_entry(monkeypatch, tmp_path, capsys,
                                                  broken, reason):
    real = cli.boundary_structure
    monkeypatch.setattr(cli, "boundary_structure",
                        lambda par, rows: broken(real(par, rows)))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": 4, "M": 4, "P": P, "preset": "paper_example",
                                   "out_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfgfile)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "euler_lagrange: boundary system residual not bounded: " + reason in err
    assert cli._operator is None


def test_wrong_null_vector_stores_no_entry(monkeypatch, tmp_path, capsys):
    # a label rule whose z is not in the null space of G^T: the exact check
    # in boundary_structure stops the build with exit 4
    real = edge.boundary_null_vector
    monkeypatch.setattr(edge, "boundary_null_vector",
                        lambda rows: np.where(real(rows) == 0.5, 1.0, real(rows)))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": 4, "M": 4, "P": P, "preset": "paper_example",
                                   "out_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfgfile)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "of G^T z is 1.0, not 0, for the null vector z of the vertex labels" in err
    assert "Traceback" not in err
    assert cli._operator is None


def test_bad_state_data_builds_no_operator(tmp_path, capsys):
    # the state is checked before any per-mesh work
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": 4, "M": 4, "P": P, "preset": "trig",
                                   "preset_params": {"v0": [1e308, 0]},
                                   "out_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert "config error: v0: sampled state data" in capsys.readouterr().err
    assert cli._operator is None


@pytest.mark.parametrize("n,m", [(4, 4), (5, 3)])
def test_cold_solve_sweeps_no_rows(monkeypatch, n, m):
    # the complete vertex rows are solved as assembled: no least-squares
    # solve sorts dependent rows out, and every row is kept
    def no_lstsq(*args, **kwargs):
        raise AssertionError("least-squares solve on the solve path")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    bc = solve_pipeline(trig_config(n, m, 3, "el"))["bc"]
    assert bc.n_rows == bc.rank == len(cli.solve_operator(n, m, P).boundary.vertex_rows)


def test_mesh_change_evicts_the_entry(eliminations):
    first = solve_pipeline(trig_config(4, 4, 1), reconstruct=False)
    other = solve_pipeline(trig_config(5, 3, 2), reconstruct=False)
    again = solve_pipeline(trig_config(4, 4, 1), reconstruct=False)
    assert eliminations == [(4, 4), (5, 3), (4, 4)]
    same_result(again, first)
    same_result(other, cold(trig_config(5, 3, 2), reconstruct=False))


def test_solver_paths_share_the_operator(eliminations):
    both_first = solve_pipeline(trig_config(3, 3, 7, "both"))
    op = cli.solve_operator(3, 3, P)
    assert op.el is not None
    el_only = solve_pipeline(trig_config(3, 3, 7, "el"))
    both = solve_pipeline(trig_config(3, 3, 7, "both"))
    assert cli.solve_operator(3, 3, P) is op
    assert eliminations == [(3, 3)]
    assert el_only["primary"] is el_only["solutions"]["el"]
    assert both["primary"] is both["solutions"]["el"]
    same_solution(both["solutions"]["qp"], both_first["solutions"]["qp"])
    same_solution(both["solutions"]["el"], el_only["solutions"]["el"])
    same_result(both, cold(trig_config(3, 3, 7, "both")))


def test_inconsistent_data_fail_on_a_cache_hit(monkeypatch, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "N": 4, "M": 4, "preset": "paper_example", "P": 17,
        "out_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfgfile)]) == EXIT_OK
    op = cli.solve_operator(4, 4, 17)
    assert op.boundary is not None

    original = Parametrization.g_matrix

    def g_matrix(self, p):
        g = original(self, p).copy()
        g[0, -1] += 0.5
        return g

    monkeypatch.setattr(Parametrization, "g_matrix", g_matrix)
    assert main(["verify", "--config", str(cfgfile)]) == EXIT_INVARIANT
    assert cli.solve_operator(4, 4, 17) is op
    err = capsys.readouterr().err
    assert ("invariant violation: 1 junction row(s) contradict the data of the "
            "solved vertex rows: the solution violates ('guard_w', 1, -3, 2) by -0.5") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("call", ["boundary_matrices", "g_matrix", "entry_values",
                                  "assemble_qp"])
def test_unbound_parametrization_names_rebind(call):
    bc = solve_pipeline(trig_config(3, 3, 0), reconstruct=False)["bc"]
    op = cli.solve_operator(3, 3, P)
    par = op.par
    assert par.state is None
    calls = {
        "boundary_matrices": lambda: boundary_matrices(op.boundary, par),
        "g_matrix": lambda: par.g_matrix(P),
        "entry_values": lambda: par.entry_values(np.zeros((par.n_free, P)),
                                                 np.zeros(par.n_gamma)),
        "assemble_qp": lambda: assemble_qp(par, bc, op.weights, P),
    }
    with pytest.raises(InvalidArgumentError, match=r"bound to no state.*rebind\(state\)"):
        calls[call]()
