import csv
import json
import os
import time

import numpy as np
import pytest

from rodwave import cli
from rodwave import reconstruct as rec
from rodwave.edge import Parametrization
from rodwave.errors import ConfigurationError, SolverError
from rodwave.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_INVARIANT,
    EXIT_OK,
    RunConfig,
    main,
    monotonicity_report,
    run_solve,
    run_sweep,
    run_verify,
    validate_config,
)


class TestValidateConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = validate_config('{"N": 4, "M": 4, "preset": "paper_example"}')
        assert cfg.P == 129
        assert cfg.solver == "el"
        assert cfg.oracle is False

    def test_zero_n_rejected_by_name(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config('{"N": 0, "M": 2, "preset": "zero"}')
        assert any(msg.startswith("N:") for msg in err.value.messages)

    def test_m_equal_one_parses(self):
        # infeasibility is a run-time concern, not a parse-time one
        cfg = validate_config('{"N": 4, "M": 1, "preset": "paper_example"}')
        assert cfg.M == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config('{"N": 2, "M": 2, "preset": "zero", "bogus": 1}')
        assert any("bogus" in msg for msg in err.value.messages)

    def test_even_p_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config('{"N": 2, "M": 2, "preset": "zero", "P": 10}')
        assert any(msg.startswith("P:") for msg in err.value.messages)

    def test_qp_solver_rejected(self, tmp_path, capsys):
        # the KKT program only cross-checks; it never solves alone
        with pytest.raises(ConfigurationError) as err:
            validate_config({"N": 2, "M": 2, "preset": "zero", "solver": "qp"})
        assert err.value.messages == ["solver: must be one of el, both"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"N": 2, "M": 2, "preset": "zero",
                                       "solver": "qp", "out_dir": str(tmp_path)}))
        assert main(["solve", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: solver:")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--solver", "qp", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "--solver: invalid choice: 'qp'" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_preset_and_profiles_conflict(self):
        with pytest.raises(ConfigurationError):
            validate_config('{"N": 2, "M": 2, "preset": "zero", '
                            '"profiles": {"v0": "x.csv"}}')


def canonical_summary(out) -> str:
    """summary.json of ``out`` without its run-specific keys, as sorted JSON
    text: equal texts hold the same floats, NaN included."""
    data = json.loads((out / "summary.json").read_text())
    data.pop("timestamp")
    data["config"].pop("out_dir")
    return json.dumps(data, sort_keys=True)


class TestRunSolve:
    def test_worked_example_artifacts(self, tmp_path):
        cfg = RunConfig(N=4, M=4, preset="paper_example", solver="both",
                        out_dir=str(tmp_path), dump_matrices=True)
        assert run_solve(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["T"] == pytest.approx(2.0)
        assert summary["lambda"] == pytest.approx(0.5)
        assert summary["counts"]["N_s"] == 12
        assert summary["terminal_errors"]["v1_sup"] <= 1e-8
        assert (tmp_path / "controls.csv").exists()
        assert (tmp_path / "fields.csv").exists()
        assert (tmp_path / "edge_C.csv").exists()
        assert (tmp_path / "parametrization_A.csv").exists()
        sizes = summary["sizes"]
        assert sizes["N_s"] == 12
        assert set(sizes) == {"N_s", "A_nnz", "kkt_size"}
        assert "boundary_rows_kept" not in summary and "guard_rows_kept" not in summary
        # x holds N_s * P samples and N gammas; the N_s + N + 1 essential rows follow
        assert sizes["kkt_size"] == 12 * 129 + 4 + (12 + 4 + 1)
        with open(tmp_path / "parametrization_A.csv") as fh:
            assert sizes["A_nnz"] == sum(cell != "0" for line in fh
                                         for cell in line.strip().split(","))

    def test_sizes_without_the_kkt_path(self, tmp_path):
        cfg = RunConfig(N=3, M=2, preset="paper_example", P=33, solver="el",
                        out_dir=str(tmp_path))
        assert run_solve(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sizes"]["kkt_size"] is None
        assert summary["sizes"]["N_s"] == summary["counts"]["N_s"]

    def test_default_solve_runs_no_kkt(self, tmp_path, monkeypatch):
        import rodwave.cli as cli

        calls = []
        monkeypatch.setattr(cli, "solve_qp", lambda *a: calls.append(a))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"N": 3, "M": 2, "P": 33,
                                       "preset": "paper_example",
                                       "out_dir": str(tmp_path)}))
        assert main(["solve", "--config", str(cfgfile)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert calls == []
        assert summary["config"]["solver"] == "el"
        assert summary["sizes"]["kkt_size"] is None
        assert list(summary["solver"]) == ["el"]

    def test_both_keeps_the_closed_form_solution(self, tmp_path):
        out = {}
        for solver in ("el", "both"):
            out[solver] = tmp_path / solver
            cfg = RunConfig(N=3, M=2, preset="paper_example", P=33,
                            solver=solver, out_dir=str(out[solver]))
            assert run_solve(cfg) == EXIT_OK
        for name in ("controls.csv", "fields.csv"):
            assert (out["el"] / name).read_bytes() == (out["both"] / name).read_bytes()
        el, both = (json.loads((out[s] / "summary.json").read_text())
                    for s in ("el", "both"))
        for key in ("E", "TE", "Q", "E_grid", "gamma", "terminal_errors"):
            assert both[key] == el[key]
        assert both["solver"]["el"] == el["solver"]["el"]
        assert set(both["solver"]) == {"el", "qp", "comparison"}
        assert both["solver"]["comparison"]["qp_not_worse"] is True

    def test_zero_preset_zero_energy(self, tmp_path):
        cfg = RunConfig(N=2, M=2, preset="zero", P=17, out_dir=str(tmp_path))
        assert run_solve(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["E"]) <= 1e-12

    def test_infeasible_exit_code(self, tmp_path):
        cfg = RunConfig(N=4, M=1, preset="paper_example", out_dir=str(tmp_path))
        assert run_solve(cfg) == EXIT_INFEASIBLE
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["feasible"] is False

    def test_reproducible_summary(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = RunConfig(N=3, M=2, preset="paper_example", P=33,
                            out_dir=str(out))
            assert run_solve(cfg) == EXIT_OK

        assert canonical_summary(out1) == canonical_summary(out2)

    def test_oracle_summary(self, tmp_path):
        cfg = RunConfig(N=2, M=2, preset="paper_example", P=65,
                        oracle=True, oracle_points_per_segment=64,
                        oracle_cfl=1.0, out_dir=str(tmp_path))
        assert run_solve(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "oracle" in summary
        assert "convergence_orders" in summary["oracle"]
        assert summary["oracle"]["terminal_energy_error"] < 0.1

    def test_profiles_from_csv(self, tmp_path):
        xs = np.linspace(-1, 1, 257)
        for name, vals in (("v0", np.cos(3 * xs)), ("p0", 3 * np.sin(3 * xs)),
                           ("v1", 0 * xs), ("p1", 0 * xs)):
            with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                for x, v in zip(xs, vals):
                    writer.writerow([f"{x:.12g}", f"{v:.12g}"])
        cfg = validate_config(json.dumps({
            "N": 2, "M": 2, "P": 33,
            "profiles": {name: str(tmp_path / f"{name}.csv")
                         for name in ("v0", "p0", "v1", "p1")},
            "out_dir": str(tmp_path / "out")}))
        assert run_solve(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["E"] > 0.1
        assert summary["terminal_errors"]["v1_sup"] <= 1e-6

    def test_bad_profile_exits_2(self, tmp_path, capsys):
        # a profile short of [-1, 1] is found only while solving
        (tmp_path / "v0.csv").write_text("-1,0\n0.5,1\n")
        cfg = validate_config({"N": 2, "M": 2, "P": 33,
                               "profiles": {"v0": str(tmp_path / "v0.csv")},
                               "out_dir": str(tmp_path / "out")})
        assert run_solve(cfg) == EXIT_CONFIG
        assert run_verify(cfg) == EXIT_CONFIG
        assert "must cover [-1, 1]" in capsys.readouterr().err


class TestSplitFieldsWriter:
    """fields.csv formatted by helpers: same bytes, no child left."""

    def run(self, tmp_path, name):
        cfg = RunConfig(N=4, M=4, preset="paper_example", out_dir=str(tmp_path / name))
        try:
            return run_solve(cfg)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_same_bytes_and_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rec, "MIN_HELPER_POINTS", 1)
        for n in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=n: set(range(n)), raising=False)
            assert self.run(tmp_path, str(n)) == EXIT_OK
        for name in ("fields.csv", "controls.csv"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

        real = rec._write_field_rows

        def kernel(fg, lo, hi, fh):
            if lo > 0:
                raise RuntimeError("row kernel failed")
            real(fg, lo, hi, fh)
        monkeypatch.setattr(rec, "_write_field_rows", kernel)
        with pytest.raises(OSError, match="exited with code 1"):
            self.run(tmp_path, "failed")


class TestOracleChild:
    """solve --oracle runs the oracle ladder in a forked child beside the
    CSV writers: the same artifacts and errors as inline, no child left."""

    ARTIFACTS = ("fields.csv", "controls.csv", "oracle_terminal.csv", "oracle_energy.csv")

    def run(self, tmp_path, name):
        cfg = RunConfig(N=4, M=4, preset="paper_example", oracle=True,
                        oracle_points_per_segment=32, out_dir=str(tmp_path / name))
        try:
            return run_solve(cfg)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_same_artifacts_on_one_and_two_cpus(self, tmp_path, cpus):
        for n in (1, 2):        # a fork with one CPU raises
            forks = cpus(n)
            assert self.run(tmp_path, str(n)) == EXIT_OK
        assert len(forks) == 2      # the oracle child and one fields helper
        for name in self.ARTIFACTS:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())
        inline, child = (canonical_summary(tmp_path / str(n)) for n in (1, 2))
        assert inline == child
        assert json.loads(inline)["oracle"]["points_per_segment"] == [8, 16, 32]

    @pytest.mark.parametrize("error, code, line", [
        (ConfigurationError(["oracle_cfl: refused", "second"]), EXIT_CONFIG,
         "config error: oracle_cfl: refused; second\n"),
        (SolverError("ladder diverged"), EXIT_INVARIANT,
         "invariant violation: ladder diverged\n"),
    ])
    def test_oracle_error_matches_inline(self, tmp_path, cpus, monkeypatch, capsys,
                                         error, code, line):
        def simulate(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "simulate", simulate)
        for n in (1, 2):
            cpus(n)
            assert self.run(tmp_path, str(n)) == code
            assert capsys.readouterr().err == line
            assert (tmp_path / str(n) / "fields.csv").exists()
            assert not (tmp_path / str(n) / "summary.json").exists()

    def finest_rung(self, monkeypatch, action):
        """Make the finest rung (32 points per segment), the only one the
        child runs, call ``action`` instead."""
        real = cli._oracle_rung
        monkeypatch.setattr(cli, "_oracle_rung", lambda config, result, npts: (
            action() if npts == 32 else real(config, result, npts)))

    def test_failed_child_names_its_exit_code(self, tmp_path, cpus, monkeypatch):
        cpus(2)
        self.finest_rung(monkeypatch, lambda: os._exit(3))
        with pytest.raises(OSError, match="oracle: .* exited with code 3"):
            self.run(tmp_path, "failed")
        assert not (tmp_path / "failed" / "summary.json").exists()

    def test_interrupt_kills_the_child(self, tmp_path, cpus, monkeypatch):
        cpus(2)
        self.finest_rung(monkeypatch, lambda: time.sleep(600))
        real = rec._write_field_rows

        def kernel(fg, lo, hi, fh):
            if lo == 0:
                raise KeyboardInterrupt
            real(fg, lo, hi, fh)
        monkeypatch.setattr(rec, "_write_field_rows", kernel)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.run(tmp_path, "interrupted")
        assert time.monotonic() - start < 60      # killed, not waited for
        assert not (tmp_path / "interrupted" / "summary.json").exists()


class TestReusedOutDir:
    """A solve into a directory an earlier run wrote leaves no summary.json
    unless it succeeds."""

    def solve(self, tmp_path, **config):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(dict(
            {"N": 2, "M": 2, "P": 33, "out_dir": str(tmp_path / "out")}, **config)))
        return main(["solve", "--config", str(cfgfile)])

    def test_failed_solve_leaves_no_summary(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert self.solve(tmp_path, preset="paper_example") == EXIT_OK
        assert (out / "summary.json").exists()

        short = tmp_path / "short.csv"
        short.write_text("-0.5,0\n1,0\n")
        assert self.solve(tmp_path, profiles={"v0": str(short)}) == EXIT_CONFIG
        assert "profile must cover [-1, 1]" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

        assert self.solve(tmp_path, preset="paper_example") == EXIT_OK
        before = {name: (out / name).read_bytes()
                  for name in ("fields.csv", "controls.csv")}
        (out / "fields.csv").write_bytes(b"stale")

        def simulate(*args, **kwargs):
            raise ConfigurationError(["oracle_cfl: refused"])
        monkeypatch.setattr(cli, "simulate", simulate)
        assert self.solve(tmp_path, preset="paper_example", oracle=True,
                          oracle_points_per_segment=32) == EXIT_CONFIG
        assert capsys.readouterr().err.endswith("config error: oracle_cfl: refused\n")
        assert {name: (out / name).read_bytes() for name in before} == before
        assert not (out / "summary.json").exists()


class TestSweep:
    def test_small_sweep(self, tmp_path):
        cfg = RunConfig(N=2, M=2, preset="paper_example", P=33,
                        out_dir=str(tmp_path), solver="both")
        assert run_sweep(cfg, (2, 3), (2, 3), workers=1) == EXIT_OK
        with open(tmp_path / "sweep.csv") as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]
                if line and not line.startswith("#")]
        assert len(rows) == 4
        assert all(row[-1] == "ok" for row in rows)
        assert any("monotonicity" in line for line in lines)

    def test_monotonicity_report_flags_violations(self):
        rows = [{"M": 2, "N": 2, "TE": 1.0, "status": "ok"},
                {"M": 3, "N": 2, "TE": 1.5, "status": "ok"}]
        violations = monotonicity_report(rows)
        assert len(violations) == 1
        assert "axis M" in violations[0]


class TestMainEntry:
    def test_config_error_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"N": 0}')
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

    def test_solve_via_main(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "N": 2, "M": 2, "preset": "paper_example", "P": 33,
            "out_dir": str(tmp_path / "out")}))
        assert main(["solve", "--config", str(cfgfile)]) == EXIT_OK

    # (7 - 1)/2 = 3 has no even divisor, and 2*5 does not divide 129 - 1:
    # no field grid fits the wave pieces
    @pytest.mark.parametrize("extra, key", [({"P": 7}, "P"),
                                            ({"P": 129, "field_samples": 5},
                                             "field_samples")])
    def test_unalignable_grid_exits_2(self, tmp_path, capsys, extra, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(dict(
            {"N": 2, "M": 2, "preset": "paper_example",
             "out_dir": str(tmp_path / "out")}, **extra)))
        assert main(["solve", "--config", str(cfgfile)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:")
        assert "Traceback" not in err

    def test_missing_config_file(self):
        assert main(["solve", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("p_grid", ["0", "7"])
    def test_bad_p_grid_flag_exits_2(self, tmp_path, capsys, p_grid):
        # --p-grid 0 overrides the config's P like any other value
        code = main(["solve", "--p-grid", p_grid, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        if p_grid == "0":
            assert err == "config error: P: must be an odd integer >= 5\n"
        assert not (tmp_path / "out").exists()

    def test_p_grid_help_states_the_rule(self, capsys):
        # validate_config admits P = 1 mod 4, at least 5; P = 7 is odd and
        # exits 2
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--p-grid P_GRID samples per reference piece: P = 1 mod 4, at least 5" in help_text

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_empty_out_dir_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        config = {"N": 2, "M": 2, "preset": "zero", "P": 17, "out_dir": "out"}
        # the flag overrides the config's out_dir like any other value
        cfgfile.write_text(json.dumps(config))
        assert main([command, "--config", str(cfgfile), "--out", ""]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: out_dir: must be a non-empty path\n"
        cfgfile.write_text(json.dumps(dict(config, out_dir="")))
        assert main([command, "--config", str(cfgfile)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: out_dir: must be a non-empty path\n"
        assert os.listdir(tmp_path) == ["cfg.json"]


class TestParallelSweep:
    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = RunConfig(N=2, M=2, preset="paper_example", P=33,
                        out_dir=str(tmp_path / "par"), solver="both")
        assert run_sweep(cfg, (2, 3), (2, 2), workers=2) == EXIT_OK
        cfg2 = RunConfig(N=2, M=2, preset="paper_example", P=33,
                         out_dir=str(tmp_path / "ser"), solver="both")
        assert run_sweep(cfg2, (2, 3), (2, 2), workers=1) == EXIT_OK

        def table(path):
            with open(path / "sweep.csv") as fh:
                return [line.split(",")[:4] for line in fh.read().splitlines()[1:]
                        if line and not line.startswith("#")]

        assert table(tmp_path / "par") == table(tmp_path / "ser")

    def test_default_workers_follow_the_affinity_set(self, tmp_path, monkeypatch):
        # one CPU in the affinity set of a 4-CPU host: no process pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool on one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = RunConfig(N=2, M=2, preset="paper_example", P=17, out_dir=str(tmp_path))
        assert run_sweep(cfg, (2, 3), (2, 3)) == EXIT_OK

    @pytest.mark.parametrize("workers, cells, pool", [
        (500, (2, 2), None),       # one cell: no pool at all
        (500, (2, 3), 2),
        (2, (2, 4), 2),
        (None, (2, 4), 2),         # the two available CPUs
    ])
    def test_pool_never_exceeds_the_cells(self, tmp_path, monkeypatch, workers, cells, pool):
        # a stub executor that records its size and runs the cells here,
        # so no process starts whatever size is asked for
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(rec, "_available_cpus", lambda: 2)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = RunConfig(N=2, M=2, preset="paper_example", P=17, out_dir=str(tmp_path))
        assert run_sweep(cfg, cells, (2, 2), workers=workers) == EXIT_OK
        assert sizes == ([] if pool is None else [pool])
        with open(tmp_path / "sweep.csv") as fh:
            assert len([line for line in fh if line[0].isdigit()]) == cells[1] - cells[0] + 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool for a rejected worker count")

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        code = main(["sweep", "--m-range", "2:3", "--n-range", "2:2",
                     "--workers", workers, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: workers: must be at least 1, got {workers}\n")
        assert not out.exists()


def test_dumped_parametrization_matrix_is_exact(tmp_path):
    from fractions import Fraction

    cfg = RunConfig(N=3, M=2, preset="paper_example", P=17,
                    out_dir=str(tmp_path), dump_matrices=True)
    assert run_solve(cfg) == EXIT_OK
    with open(tmp_path / "parametrization_A.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    values = [Fraction(cell) for row in rows for cell in row]
    denominators = {v.denominator for v in values}
    assert all(d & (d - 1) == 0 for d in denominators)   # dyadic
    with open(tmp_path / "edge_C.csv") as fh:
        entries = {int(c) for line in fh.read().splitlines()
                   for c in line.split(",")}
    assert entries <= {-1, 0, 1}


def test_sweep_continues_past_failed_cells(tmp_path):
    # an infeasible cell is marked failed and the sweep keeps going
    cfg = RunConfig(N=2, M=2, preset="paper_example", P=33,
                    out_dir=str(tmp_path), solver="both")
    code = run_sweep(cfg, (1, 2), (2, 2), workers=1)
    with open(tmp_path / "sweep.csv") as fh:
        lines = [l for l in fh.read().splitlines()[1:]
                 if l and not l.startswith("#")]
    statuses = [l.split(",")[-1] for l in lines]
    assert any(s.startswith("failed") for s in statuses)
    assert any(s == "ok" for s in statuses)
    assert code != EXIT_OK


class TestInconsistentBoundaryData:
    """Data that contradict the solved vertex rows stop the run."""

    @pytest.fixture
    def perturbed(self, monkeypatch):
        # shift the end sample of the first wave entry's data part: the
        # solution violates the junction through it
        original = Parametrization.g_matrix

        def g_matrix(self, p):
            g = original(self, p).copy()
            g[0, -1] += 0.5
            return g

        monkeypatch.setattr(Parametrization, "g_matrix", g_matrix)

    def test_solve_and_verify_exit_4(self, perturbed, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "N": 4, "M": 4, "preset": "paper_example", "P": 17,
            "out_dir": str(tmp_path / "out")}))
        assert main(["solve", "--config", str(cfgfile)]) == EXIT_INVARIANT
        assert main(["verify", "--config", str(cfgfile)]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        # the first junction row at (4, 4) joins that entry to the next layer
        assert err.count("invariant violation: 1 junction row(s) contradict the data "
                         "of the solved vertex rows: the solution violates "
                         "('guard_w', 1, -3, 2) by -0.5") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "fields.csv").exists()

    def test_sweep_rows_fail(self, perturbed, tmp_path):
        cfg = RunConfig(N=2, M=2, preset="paper_example", P=17,
                        out_dir=str(tmp_path), solver="el")
        assert run_sweep(cfg, (2, 3), (2, 3), workers=1) == EXIT_INVARIANT
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        assert len(rows) == 4
        assert all(r["status"].startswith("failed: ") and "contradict" in r["status"]
                   for r in rows)


class TestOracleSettings:
    @pytest.fixture
    def seen(self, monkeypatch):
        """(cfl, points per segment) of every oracle simulation run."""
        import rodwave.cli as cli

        calls = []
        real = cli.simulate

        def spy(mesh, controls, state, sim_config):
            calls.append((sim_config.cfl, sim_config.points_per_segment))
            return real(mesh, controls, state, sim_config)

        monkeypatch.setattr(cli, "simulate", spy)
        return calls

    def test_verify_keeps_explicit_cfl(self, seen):
        cfg = validate_config({"N": 2, "M": 2, "P": 33, "preset": "paper_example",
                               "oracle_cfl": 0.9, "oracle_points_per_segment": 32})
        run_verify(cfg)
        assert seen == [(0.9, 8), (0.9, 16), (0.9, 32)]

    def test_verify_always_cross_checks(self, seen, capsys):
        cfg = validate_config({"N": 2, "M": 2, "P": 33, "preset": "paper_example",
                               "oracle_points_per_segment": 32})
        assert cfg.solver == "el"
        assert run_verify(cfg) == EXIT_OK
        out = capsys.readouterr().out
        assert "  PASS  QP objective <= stationary objective + 1e-8 * (1 + |E|): gap " in out
        assert cfg.solver == "el"

    def test_unset_settings_resolve_per_command(self, seen, tmp_path, monkeypatch):
        raw = {"N": 2, "M": 2, "P": 33, "preset": "paper_example"}
        assert validate_config(raw).oracle_cfl is None
        run_verify(validate_config(raw))
        assert seen[-1] == (1.0, 2000)           # max(500, ceil(4000 / N)) at N = 2
        seen.clear()
        # one CPU: solve runs the ladder in this process, where the spy sees it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_solve(validate_config(dict(raw, oracle=True,
                                              out_dir=str(tmp_path)))) == EXIT_OK
        assert seen[-1] == (0.9, 125)


@pytest.mark.parametrize("n,m,cfl,points", [
    (1, 2, None, 4000), (2, 2, None, 2000), (3, 3, None, 1334), (7, 5, None, 572),
    (8, 8, None, 500), (32, 32, None, 500),
    # lowered to the most that fits: 1 * p * 128 * ceil(p / 2) <= 256e6
    (1, 64, None, 2000), (2, 64, None, 1414), (1, 64, 0.5, 1414),
    # never below 500, where the size check then refuses the oracle
    (64, 64, None, 500)])
def test_verify_oracle_points_scale_with_the_segments(n, m, cfl, points):
    config = cli.RunConfig(N=n, M=m, oracle_cfl=cfl)
    got_cfl, got = cli._verify_oracle_defaults(config)
    assert (got_cfl, got) == (1.0 if cfl is None else cfl, points)
    size = lambda p: (cli.cell_steps(n, m, p, got_cfl) <= cli.ORACLE_MAX_CELL_STEPS
                      and cli.time_steps(m, p, got_cfl) <= cli.ORACLE_MAX_STEPS)
    assert size(got) == (n < 64)
    assert got == max(500, -(-4000 // n)) or not size(got + 1)


class TestVerifyDataScale:
    """Terminal and control tolerances of ``verify`` scale with the largest
    |state value|, as ``solve`` admits data up to ``STATE_MAX_ABS``."""

    SCALED = ("terminal states matched", "control integrals start at zero",
              "forces sum to zero")

    def verify_lines(self, amplitude, capsys):
        cfg = validate_config({"N": 3, "M": 3, "P": 17, "preset": "trig",
                               "preset_params": {"v0": [amplitude, 1.0]},
                               "oracle_points_per_segment": 32})
        run_verify(cfg)
        out = capsys.readouterr().out
        return {name: line for line in out.splitlines()
                for name in self.SCALED if name in line}

    @pytest.mark.parametrize("amplitude", [1e9, 1e20])
    def test_large_data_pass(self, amplitude, capsys):
        lines = self.verify_lines(amplitude, capsys)
        assert sorted(lines) == sorted(self.SCALED)
        assert all(line.startswith("  PASS  ") for line in lines.values())
        assert f"data scale {amplitude:.3g}" in lines["terminal states matched"]

    def test_unit_data_keep_absolute_tolerance(self, capsys):
        lines = self.verify_lines(0.5, capsys)
        assert lines["terminal states matched"].endswith(", data scale 1")


def test_commands_run_on_numpy_alone(tmp_path):
    # the package needs numpy only: solve, sweep and the KKT cross-check
    # import no scipy module, and the closed-form solve and the sweep do
    # not pull in numpy.ma (which np.setdiff1d imports lazily)
    import subprocess
    import sys

    import rodwave

    src = os.path.dirname(os.path.dirname(os.path.abspath(rodwave.__file__)))
    probe = f"""
import sys
from rodwave.cli import main
out = {str(tmp_path)!r}

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

assert main(["solve", "--solver", "el", "--out", out + "/el"]) == 0
print("modules el", loaded("scipy"), loaded("numpy.ma"))
assert main(["sweep", "--m-range", "2:3", "--n-range", "2:3", "--workers", "1",
             "--out", out + "/sweep"]) == 0
print("modules sweep", loaded("scipy"), loaded("numpy.ma"))
assert main(["solve", "--solver", "both", "--out", out + "/both"]) == 0
print("modules both", loaded("scipy"))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    modules = [line for line in out.splitlines() if line.startswith("modules ")]
    assert modules == ["modules el [] []", "modules sweep [] []", "modules both []"]
