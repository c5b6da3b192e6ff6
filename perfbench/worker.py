"""One benchmark iteration, run in a fresh interpreter.

    python3 worker.py ROOT SPAWN_TIME

ROOT holds ``spec.json`` (written by run.py; absent for a set-up probe)
and receives ``result.json``.  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, ``import rodwave`` and the per-process set-up
before the first timed call.  The caller runs this process with an empty
cwd and empty output, temp and cache directories.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import sys
import time
import traceback

# Output checks of the paper's invariants, with their tolerances.
TOLERANCES = {
    "terminal_sup": 1e-8,          # worst sup mismatch of the four terminal profiles
    "Q_over_TE": 1e-6,             # constitutive residual Q <= 1e-6 * T * E
    "E_grid_rel": 5e-3,            # |E_grid - E| / E
    "zero_start": 1e-9,            # control integrals start at zero
    "zero_sum": 1e-9,              # forces sum to zero
    "oracle_momentum": 1e-8,       # leapfrog momentum budget
    "oracle_energy": 0.02,         # leapfrog terminal-energy error
    "reference_rel": 1e-9,         # E / T*E against the values in reference.json
}


def _check(failures: list, label: str, value, limit) -> None:
    if not (value <= limit):       # NaN fails too
        failures.append(f"{label}: {value!r} exceeds {limit!r}")


def check_solution(values: dict, tol: dict, label: str) -> list:
    """Invariants every reconstructed solve must meet."""
    failures: list = []
    e_val, t_val = values["E"], values["T"]
    _check(failures, f"{label} terminal sup", values["terminal_sup"], tol["terminal_sup"])
    _check(failures, f"{label} Q", values["Q"], tol["Q_over_TE"] * t_val * e_val)
    _check(failures, f"{label} E_grid rel",
           abs(values["E_grid"] - e_val) / max(abs(e_val), 1e-300), tol["E_grid_rel"])
    _check(failures, f"{label} zero start", values["zero_start"], tol["zero_start"])
    _check(failures, f"{label} zero sum", values["zero_sum"], tol["zero_sum"])
    if values["qp_not_worse"] not in (True, None):     # None: one solver ran
        failures.append(f"{label} qp_not_worse: {values['qp_not_worse']!r}")
    return failures


def _relative(value, reference) -> float:
    return abs(value - reference) / abs(reference)


def _values_from_summary(summary: dict) -> dict:
    return {
        "E": summary["E"], "T": summary["T"], "Q": summary["Q"],
        "E_grid": summary["E_grid"],
        "terminal_sup": max(v for k, v in summary["terminal_errors"].items()
                            if k.endswith("_sup")),
        "zero_start": summary["control_checks"]["zero_start_max"],
        "zero_sum": summary["control_checks"]["zero_sum_max"],
        "qp_not_worse": summary["solver"]["comparison"]["qp_not_worse"],
    }


def _values_from_pipeline(result: dict) -> dict:
    e_val = result["primary"].objective
    return {
        "E": e_val, "T": result["mesh"].T, "Q": result["Q"],
        "E_grid": result["E_grid"], "terminal_sup": result["terminal"].worst(),
        "zero_start": result["controls"].zero_start_max(),
        "zero_sum": result["controls"].zero_sum_max(),
        "qp_not_worse": (None if result["comparison"] is None
                         else result["comparison"].qp_not_worse),
    }


def _exception(label: str) -> str:
    return f"{label}: {traceback.format_exc(limit=-1).strip().splitlines()[-1]}"


# Each workload function returns (solves attempted, one description per
# failed solve, first_solve_s).  Everything it does is inside the timed region.

def workload_solve(cli, spec: dict, root: str):
    """One ``rodwave solve`` through the CLI entry point, artifacts included."""
    out = os.path.join(root, "out")
    tol = spec["tolerances"]
    t0 = time.perf_counter()
    try:
        code = cli.main(["solve", "--config", os.path.join(root, "config.json"),
                         "--out", out])
    except Exception:
        return 1, [_exception("solve")], time.perf_counter() - t0
    first = time.perf_counter() - t0
    if code != 0:
        return 1, [f"solve: exit code {code}"], first
    try:
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        failures = check_solution(_values_from_summary(summary), tol, "solve")
        oracle = summary["oracle"]
        _check(failures, "oracle momentum budget", oracle["momentum_budget_max"],
               tol["oracle_momentum"])
        _check(failures, "oracle terminal energy error",
               oracle["terminal_energy_error"], tol["oracle_energy"])
        _check(failures, "E against reference",
               _relative(summary["E"], spec["reference_E"]), tol["reference_rel"])
        for name in ("controls.csv", "fields.csv"):
            with open(os.path.join(out, name)) as fh:
                if not fh.readline().startswith("t,"):
                    failures.append(f"{name}: no header row")
    except Exception:
        failures = [_exception("solve outputs")]
    return 1, ["; ".join(failures)] if failures else [], first


def workload_batch(cli, spec: dict, root: str):
    """Many states on one mesh through ``cli.solve_pipeline``, in one process."""
    failures: list = []
    first = None
    t0 = time.perf_counter()
    for i, params in enumerate(spec["states"]):
        label = f"state {i}"
        try:
            config = cli.validate_config(dict(spec["config"], preset_params=params))
            result = cli.solve_pipeline(config)
        except Exception:
            failures.append(_exception(label))
            continue
        finally:
            if first is None:
                first = time.perf_counter() - t0
        try:
            found = check_solution(_values_from_pipeline(result), spec["tolerances"], label)
        except Exception:
            found = [_exception(label)]
        if found:
            failures.append("; ".join(found))
    return len(spec["states"]), failures, first


def workload_sweep(cli, spec: dict, root: str):
    """``cli.run_sweep`` over an (M, N) grid; T*E checked cell by cell."""
    out = os.path.join(root, "out")
    (m_lo, m_hi), (n_lo, n_hi) = spec["m_range"], spec["n_range"]
    cells = [(m, n) for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1)]
    t0 = time.perf_counter()
    try:
        config = cli.validate_config(dict(spec["config"], out_dir=out))
        cli.run_sweep(config, (m_lo, m_hi), (n_lo, n_hi), workers=1)
    except Exception:
        return len(cells), [_exception("sweep")] * len(cells), time.perf_counter() - t0
    first = time.perf_counter() - t0   # a sweep returns no cell before the last
    failures = []
    try:
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = {(int(r["M"]), int(r["N"])): r for r in
                    csv.DictReader(line for line in fh if not line.startswith("#"))}
    except Exception:
        return len(cells), [_exception("sweep.csv")] * len(cells), first
    reference = spec["reference_TE"]
    for m, n in cells:
        row = rows.get((m, n))
        if row is None:
            failures.append(f"cell {m},{n}: missing")
        elif row["status"] != "ok":
            failures.append(f"cell {m},{n}: {row['status']}")
        else:
            _check(failures, f"cell {m},{n} T*E against reference",
                   _relative(float(row["TE"]), reference[f"{m},{n}"]),
                   spec["tolerances"]["reference_rel"])
    return len(cells), failures, first


WORKLOADS = {"solve": workload_solve, "batch": workload_batch, "sweep": workload_sweep}


def prepare(spec: dict, root: str) -> None:
    """Per-process set-up before the first timed call."""
    os.makedirs(os.path.join(root, "out"), exist_ok=True)
    if spec["kind"] == "solve":
        with open(os.path.join(root, "config.json"), "w") as fh:
            json.dump(spec["config"], fh)


def run_workload(cli, spec: dict, root: str, tracer=None) -> dict:
    """Run one iteration of ``spec`` and check its outputs.

    With a tracer, the tracer must already be installed; its spans and
    per-layer metrics for this iteration are returned with the result.
    """
    if tracer is not None:
        tracer.reset(spec.get("run_id"))
    t0 = time.perf_counter()
    attempted, failures, first = WORKLOADS[spec["kind"]](cli, spec, root)
    wall = time.perf_counter() - t0
    result = {"attempted": attempted, "failed": len(failures),
              "failures": failures[:20], "wall_s": wall, "first_solve_s": first,
              "solves_per_s": (attempted - len(failures)) / wall}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = list(tracer.missing)
        result["spans"] = tracer.spans
    return result


def environment() -> dict:
    """Library versions and BLAS build of this interpreter."""
    import numpy
    import scipy
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:       # older numpy has no dict form
        env["blas"] = None
    env["blas_threads"] = {k: os.environ.get(k) for k in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return env


def main(argv) -> int:
    root, spawned = argv[1], float(argv[2])
    from rodwave import cli       # set-up: the package with numpy and scipy
    spec_path = os.path.join(root, "spec.json")
    spec = None
    if os.path.exists(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        prepare(spec, root)
    setup_s = time.monotonic() - spawned

    if spec is None:
        result = {"environment": environment()}
    elif spec["trace"]:
        from spans import Tracer      # beside this file, first on sys.path
        with Tracer() as tracer:
            result = run_workload(cli, spec, root, tracer)
    else:
        result = run_workload(cli, spec, root)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(root, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
