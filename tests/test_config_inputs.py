"""Bad config inputs end in exit 2 naming the key or file, never a traceback.

Every config that validates either solves or ends with a documented exit
code (2 configuration, 3 infeasible, 4 invariant violation); the
hypothesis test draws configs over the known keys on small meshes.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from rodwave.cli import (EXIT_CONFIG, MESH_MAX, ORACLE_MAX_CELL_STEPS,
                         ORACLE_MAX_STEPS, SAMPLES_MAX, STATE_MAX_ABS, RunConfig,
                         build_state, main)
from rodwave.errors import ConfigurationError
from rodwave.mesh import build_mesh

SMALL = {"N": 2, "M": 2, "P": 17}


def run_main(path, config, capsys, command="solve"):
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("params, key", [
    ({"v0": 5}, "v0"),
    ({"v0": ["a", 1]}, "v0"),
    ({"q9": [1, 2]}, "q9"),
    ({"r1": [1, 2, 3]}, "r1"),
    ({"v1": [True, 1]}, "v1"),
    ({"r0": [1, math.nan]}, "r0"),
    ({"v0": [1, math.inf]}, "v0"),
    ({"v0": [10 ** 400, 1]}, "v0"),
    ({"p0": [1, 2]}, "p0"),
])
def test_bad_preset_params_exit_2(tmp_path, capsys, params, key):
    config = dict(SMALL, preset="trig", preset_params=params,
                  out_dir=str(tmp_path / "out"))
    code, err = run_main(tmp_path / "cfg.json", config, capsys)
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: preset_params.{key}:")


@pytest.mark.parametrize("cfl", [True, False, "0.5", math.nan, 10 ** 400])
def test_bad_oracle_cfl_exits_2(tmp_path, capsys, cfl):
    # a JSON boolean is no Courant number, though Python's bool is an int
    config = dict(SMALL, preset="zero", oracle=True, oracle_cfl=cfl,
                  out_dir=str(tmp_path / "out"))
    code, err = run_main(tmp_path / "cfg.json", config, capsys)
    assert code == EXIT_CONFIG
    assert err == "config error: oracle_cfl: must lie in (0, 1]\n"


def test_short_preset_params_solve(tmp_path, capsys):
    config = dict(SMALL, preset="trig", preset_params={"v0": [0.5], "r0": []},
                  out_dir=str(tmp_path / "out"))
    assert run_main(tmp_path / "cfg.json", config, capsys)[0] == 0


@pytest.mark.parametrize("value", [5, ["v0.csv"], None, {"path": "v0.csv"}])
def test_profile_path_must_be_a_string(tmp_path, capsys, value):
    config = dict(SMALL, profiles={"v0": value}, out_dir=str(tmp_path / "out"))
    code, err = run_main(tmp_path / "cfg.json", config, capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: profiles.v0: must be a CSV file path")


@pytest.mark.parametrize("name, content, message", [
    ("missing.csv", None, "cannot read profile"),
    ("a_directory", "dir", "cannot read profile"),
    ("header.csv", "x,value\n-1,0\n1,1\n", "line 1 is not two numbers"),
    ("one_column.csv", "-1,0\n0\n1,1\n", "line 2 is not two numbers"),
    ("nan.csv", "-1,0\n0,nan\n1,1\n", "line 2 holds a non-finite number"),
    ("binary.csv", b"\xff\xfe-1,0\n", "cannot read profile"),
])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_unreadable_profile_exits_2(tmp_path, capsys, name, content, message,
                                    command):
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    config = dict(SMALL, profiles={"v0": str(path)}, out_dir=str(tmp_path / "out"))
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {path}: {message}")


@pytest.mark.parametrize("content, extra, message", [
    (b"{", [], "not valid JSON: "),
    (b"[1, 2]", [], "top level must be a JSON object"),
    (b'"N"', ["--out", "out"], "top level must be a JSON object"),
    (b'{"N": "\xff\xfe"}', [], "not valid JSON: "),
])
@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_malformed_config_file_exits_2(tmp_path, capsys, monkeypatch, content, extra,
                                       message, command):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    code = main([command, "--config", str(path), *extra])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {message}")


def test_unusable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for command in ("solve", "sweep"):
        config = dict(SMALL, preset="zero", out_dir=str(blocker / "out"))
        code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
        assert code == EXIT_CONFIG
        assert err.startswith("config error: out_dir:")


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Configs that reach the solve; the solve itself fails at once with
    exit 4, so no setting here allocates or runs anything."""
    from rodwave import cli
    from rodwave.errors import SolverError

    calls = []

    def stop(config, reconstruct=True):
        calls.append((config.N, config.M))
        raise SolverError("stopped before the solve")

    monkeypatch.setattr(cli, "solve_pipeline", stop)
    return calls


@pytest.mark.parametrize("command, settings", [
    ("solve", {"oracle": True, "oracle_cfl": 1e-9}),
    ("solve", {"oracle": True, "oracle_points_per_segment": 10 ** 9}),
    ("solve", {"oracle": True, "oracle_points_per_segment": 10 ** 400}),
    ("solve", {"oracle": True, "oracle_cfl": 5e-324}),
    ("verify", {"oracle_cfl": 1e-9}),
    ("verify", {"oracle_points_per_segment": 10 ** 9}),
    ("verify", {"N": 33, "M": 33}),          # verify defaults, one past N = M = 32
])
def test_oversized_oracle_exits_2_before_the_solve(tmp_path, capsys, pipeline_calls,
                                                   command, settings):
    config = dict(SMALL, preset="zero", out_dir=str(tmp_path / "out"), **settings)
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: oracle_points_per_segment, oracle_cfl: "
                          "the finest oracle rung")
    assert f"exceeds {ORACLE_MAX_CELL_STEPS:,} cell-steps" in err
    assert pipeline_calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, settings", [
    ("verify", {"N": 32, "M": 32}),          # verify defaults (1.0, 500)
    ("solve", {"N": 32, "M": 32, "oracle": True}),     # solve defaults (0.9, 125)
    ("solve", {"N": 12, "M": 12, "oracle": True,       # the benchmark's solve
               "oracle_cfl": 1.0, "oracle_points_per_segment": 500}),
    ("solve", {"oracle_cfl": 1e-9, "oracle_points_per_segment": 10 ** 9}),  # no oracle
])
def test_oracle_size_bound_admits(tmp_path, capsys, pipeline_calls, command, settings):
    config = dict(SMALL, preset="zero", out_dir=str(tmp_path / "out"), **settings)
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code == 4 and "stopped before the solve" in err
    assert pipeline_calls == [(config["N"], config["M"])]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("cfl", [3e-7, 7.99999e-6])     # 26,666,668 and 1,000,002 steps
def test_oracle_step_bound_exits_2_before_the_solve(tmp_path, capsys, pipeline_calls,
                                                    command, cfl):
    # one segment keeps cells times steps under ORACLE_MAX_CELL_STEPS
    # (213,333,344 at CFL 3e-7); the step count alone is over its bound
    config = dict(SMALL, N=1, M=1, preset="zero", out_dir=str(tmp_path / "out"),
                  oracle=True, oracle_points_per_segment=8, oracle_cfl=cfl)
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: oracle_points_per_segment, oracle_cfl: "
                          "the finest oracle rung")
    assert f"exceeds {ORACLE_MAX_STEPS:,} time steps" in err
    assert pipeline_calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_oracle_step_bound_admits_its_limit(tmp_path, capsys, pipeline_calls, command):
    # 2 * ceil(8 / (2 * 8.000001e-6)) = 1,000,000 steps
    config = dict(SMALL, N=1, M=1, preset="zero", out_dir=str(tmp_path / "out"),
                  oracle=True, oracle_points_per_segment=8, oracle_cfl=8.000001e-6)
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code == 4 and "stopped before the solve" in err
    assert pipeline_calls == [(1, 1)]


@pytest.mark.parametrize("command, n, m, p, bound", [
    ("solve", 3, 189264, 9, "N, M <= 64"),  # a drawn config that once took all memory
    ("solve", MESH_MAX + 1, 2, 5, "N, M <= 64"),
    ("verify", 2, MESH_MAX + 1, 5, "N, M <= 64"),
    ("solve", 2, 2, SAMPLES_MAX // 4 + 1, f"N * M * P <= {SAMPLES_MAX:,}"),
    ("verify", MESH_MAX, MESH_MAX, 133, f"N * M * P <= {SAMPLES_MAX:,}"),
])
def test_oversized_mesh_exits_2_before_the_solve(tmp_path, capsys, monkeypatch,
                                                 command, n, m, p, bound):
    from rodwave import cli
    built = []
    monkeypatch.setattr(cli, "build_mesh", lambda *args: built.append(args))
    config = dict(N=n, M=m, P=p, preset="zero", out_dir=str(tmp_path / "out"),
                  oracle_points_per_segment=8, oracle_cfl=1.0)
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code == EXIT_CONFIG
    assert err == (f"config error: N, M, P: the mesh (N = {n}, M = {m}, P = {p}) "
                   f"exceeds {bound}\n")
    assert built == []


@pytest.mark.parametrize("n, m, p", [
    (MESH_MAX, MESH_MAX, 129),
    (1, MESH_MAX, 129),
    (2, 2, SAMPLES_MAX // 4 - 3),      # the largest P = 1 mod 4 within the bound
])
def test_mesh_size_bound_admits(tmp_path, capsys, monkeypatch, n, m, p):
    from rodwave import cli
    from rodwave.errors import SolverError

    def stop(*args):
        raise SolverError("stopped after the mesh check")

    monkeypatch.setattr(cli, "build_mesh", stop)
    config = dict(N=n, M=m, P=p, preset="zero", out_dir=str(tmp_path / "out"))
    code, err = run_main(tmp_path / "cfg.json", config, capsys)
    assert code == 4 and "stopped after the mesh check" in err


def test_oversized_mesh_fails_its_sweep_cell(tmp_path, capsys):
    config = dict(SMALL, preset="zero", out_dir=str(tmp_path / "out"))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = main(["sweep", "--config", str(tmp_path / "cfg.json"), "--workers", "1",
                 "--m-range", "2:2", "--n-range", f"{MESH_MAX + 1}:{MESH_MAX + 1}"])
    assert code == 4
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[1].startswith(f"2,{MESH_MAX + 1},nan,nan,")
    assert f"failed: N, M, P: the mesh (N = {MESH_MAX + 1}, M = 2, P = 17)" in rows[1]


HUGE = {"N": 3, "M": 3, "P": 17}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("source, name, largest", [
    ({"preset": "trig", "preset_params": {"v0": [1e308, 1e308]}}, "v0", "1e+308"),
    ({"preset": "trig", "preset_params": {"r1": [-1e151, 2]}}, "r1", "1e+151"),
    ({"profiles": {"v0": "huge.csv"}}, "v0", "inf"),
    ({"profiles": {"p0": "huge.csv"}}, "r0", "nan"),      # its integral overflows
])
def test_overflowing_state_data_exits_2(tmp_path, capsys, recwarn, command, source,
                                        name, largest):
    (tmp_path / "huge.csv").write_text("-1,1e308\n0,-1e308\n1,1e308\n")
    if "profiles" in source:
        source = {"profiles": {k: str(tmp_path / v) for k, v in source["profiles"].items()}}
    config = dict(HUGE, out_dir=str(tmp_path / "out"), **source)
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code == EXIT_CONFIG
    assert err == (f"config error: {name}: sampled state data must be finite and at "
                   f"most 1e+150 in magnitude; largest |value| is {largest}\n")
    assert len(recwarn) == 0


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_state_data_at_the_bound_passes_the_check(tmp_path, capsys, recwarn, command):
    # cos(0 x) = 1, so v0 is STATE_MAX_ABS everywhere; the data check
    # admits it and the solve runs
    config = dict(HUGE, preset="trig", preset_params={"v0": [STATE_MAX_ABS, 0]},
                  out_dir=str(tmp_path / "out"))
    code, err = run_main(tmp_path / "cfg.json", config, capsys, command)
    assert code != EXIT_CONFIG and "config error" not in err
    assert len(recwarn) == 0


def test_state_data_bound_is_inclusive():
    mesh = build_mesh(2, 2)
    at = RunConfig(N=2, M=2, P=17, preset="trig", preset_params={"v1": [-STATE_MAX_ABS, 0]})
    assert build_state(at, mesh).v1.values.min() == -STATE_MAX_ABS
    past = RunConfig(N=2, M=2, P=17, preset="trig",
                     preset_params={"v1": [-math.nextafter(STATE_MAX_ABS, math.inf), 0]})
    with pytest.raises(ConfigurationError, match="v1: sampled state data"):
        build_state(past, mesh)


# --- random configs -----------------------------------------------------------

# any JSON value; floats include NaN, infinities and huge values
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
odd_numbers = st.floats() | st.booleans() | st.just(10 ** 400) | st.text(max_size=2)
odd_keys = st.sampled_from(["p0", "q9", ""]) | st.text(max_size=3)


def odd(*values):
    """Some known-bad values of a key, or any JSON value."""
    return st.sampled_from(values) | json_values


@st.composite
def mostly(draw, plausible, odd_values=json_values):
    """A plausible value 19 times in 20, an odd one otherwise (the odd
    branch is the larger integer, as hypothesis favours small ones)."""
    return draw(plausible if draw(st.integers(0, 19)) < 19 else odd_values)


@st.composite
def configs(draw, files):
    """Configs over the known keys, each value mostly plausible, so that
    about half of them validate."""
    raw = {
        "N": draw(mostly(st.integers(1, 3))),
        "M": draw(mostly(st.integers(1, 3))),
        "P": draw(mostly(st.sampled_from([17, 9, 5]), odd(7, 16, 3, "17", 17.0))),
        "out_dir": draw(mostly(st.just(files["out"]), odd(files["blocker"], ""))),
    }
    source = draw(mostly(st.sampled_from(["preset", "preset", "profiles"]),
                         st.sampled_from(["both", "neither"])))
    if source in ("preset", "both"):
        raw["preset"] = draw(mostly(st.sampled_from(["paper_example", "zero", "trig"])))
        if draw(st.booleans()):
            number = mostly(st.floats(-4.0, 4.0) | st.integers(-5, 5), odd_numbers)
            raw["preset_params"] = draw(mostly(st.dictionaries(
                mostly(st.sampled_from(["v0", "r0", "v1", "r1"]), odd_keys),
                mostly(st.lists(number, max_size=2), odd([1, 2, 3])),
                max_size=4)))
    if source in ("profiles", "both"):
        raw["profiles"] = draw(mostly(st.dictionaries(
            mostly(st.sampled_from(["v0", "r0", "v1", "r1", "p0", "p1"]), odd_keys),
            mostly(st.sampled_from(files["good"]), odd(*files["bad"])),
            min_size=1, max_size=4)))
    optional = {
        "solver": mostly(st.sampled_from(["el", "both"]), odd("qp")),
        "oracle": mostly(st.booleans()),
        # plausible oracle settings stay small; the odd ones include sizes
        # past ORACLE_MAX_CELL_STEPS, which exit 2 before any solve
        "oracle_points_per_segment": mostly(st.sampled_from([8, 16]), odd(4, 10 ** 9)),
        "oracle_cfl": mostly(st.sampled_from([1.0, 0.5]), odd(0, 2, 1e-12)),
        "field_samples": mostly(st.sampled_from([2, 4, 8]), odd(3, 1)),
        "dump_matrices": mostly(st.booleans()),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(values)
    if draw(st.integers(0, 19)) == 19:
        raw["bogus"] = 1
    return raw


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    good = {
        "cos.csv": "\n".join(f"{x / 8},{math.cos(3 * x / 8)}" for x in range(-8, 9)),
        "sin.csv": "\n".join(f"{x / 8},{math.sin(x / 8)}" for x in range(-8, 9)),
    }
    bad = {
        "short.csv": "-1,0\n0.5,1",
        "header.csv": "x,v\n-1,0\n1,1",
        "huge.csv": "-1,1e308\n0,-1e308\n1,1e308",
    }
    for name, text in {**good, **bad}.items():
        (root / name).write_text(text + "\n")
    (root / "blocker").write_text("")
    return {"root": root, "out": str(root / "out"), "blocker": str(root / "blocker"),
            "good": [str(root / n) for n in good],
            "bad": [str(root / n) for n in bad] + [str(root / "missing.csv"), str(root)]}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_random_configs_exit_with_a_documented_code(files, capsys, monkeypatch, data):
    # a drawn out_dir may be any relative name: it lands under the temp root
    monkeypatch.chdir(files["root"])
    config = data.draw(configs(files))
    path = files["root"] / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["solve", "--config", str(path)])
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (config, code, err)
    assert "Traceback" not in err
