"""rodwave benchmark: cold runs of three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports rodwave from ``src/``.  Each
iteration is a fresh interpreter (worker.py) with an empty cwd, output,
temp and cache directory, all under ``.perfbench/tmp`` and removed
afterwards.  A few processes that only import rodwave come first, to
measure set-up time.  Then iterations run one after the other while the
next one, taking as long as the slowest so far, still ends within S
seconds of the start (at least one; at least two with --trace 1, which alternates
untraced and traced iterations).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit.  A record of the run (environment, the
generated inputs, every iteration) goes to ``.perfbench/results/`` and
the spans of a traced run to ``.perfbench/traces/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import worker  # noqa: E402

WORKLOADS = ("solve-n12", "state-batch", "mesh-sweep")
SETUP_PROBES = 4       # import-only processes per run, after one uncounted warm-up
BATCH_STATES = 12
TIME_LIMIT_S = 170     # no iteration starts that could end after this
# One BLAS thread: on a shared 2-core host, two threads made boundary_matrices
# at N=12 take 2.8-4.1 s against 1.8-2.2 s with one, and vary twice as much.
BLAS_THREADS = 1
END_TO_END_UNITS = {"wall_s": "s", "solves_per_s": "1/s", "first_solve_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def make_spec(workload: str, seed: int) -> dict:
    """The inputs of one run; the same workload and seed give the same spec."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    spec = {"workload": workload, "seed": seed, "tolerances": dict(worker.TOLERANCES)}
    if workload == "solve-n12":
        # oracle at verify settings: at CFL 0.9 and 125 points this cell's
        # terminal-energy error is 6.2%, above the 2% check
        spec.update(kind="solve", reference_E=reference["solve_n12_E"], config={
            "N": 12, "M": 12, "P": 129, "preset": "paper_example", "solver": "both",
            "oracle": True, "oracle_cfl": 1.0, "oracle_points_per_segment": 500})
    elif workload == "state-batch":
        rng = random.Random(seed)

        def profile():
            amp = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.0)
            return [round(amp, 6), round(rng.uniform(0.5, 4.0), 6)]

        states = [{key: profile() for key in ("v0", "r0", "v1", "r1")}
                  for _ in range(BATCH_STATES)]
        spec.update(kind="batch", states=states,
                    config={"N": 6, "M": 6, "P": 129, "preset": "trig"})
    elif workload == "mesh-sweep":
        spec.update(kind="sweep", m_range=[2, 8], n_range=[2, 8],
                    reference_TE=reference["sweep_TE"],
                    config={"N": 2, "M": 2, "P": 129, "preset": "paper_example"})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


def solves_in(spec: dict) -> int:
    if spec["kind"] == "batch":
        return len(spec["states"])
    if spec["kind"] == "sweep":
        (m_lo, m_hi), (n_lo, n_hi) = spec["m_range"], spec["n_range"]
        return (m_hi - m_lo + 1) * (n_hi - n_lo + 1)
    return 1


def spawn(base: str, index: int, spec, env: dict, timeout: float):
    """Run worker.py once in fresh directories; return (result or None, error)."""
    root = os.path.join(base, f"iteration-{index}")
    dirs = {name: os.path.join(root, name) for name in ("work", "out", "tmp", "cache")}
    for path in dirs.values():
        os.makedirs(path)
    if spec is not None:
        with open(os.path.join(root, "spec.json"), "w") as fh:
            json.dump(spec, fh)
    child_env = dict(env, TMPDIR=dirs["tmp"], TMP=dirs["tmp"], TEMP=dirs["tmp"],
                     XDG_CACHE_HOME=dirs["cache"])
    log_path = os.path.join(root, "log.txt")
    try:
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.run([sys.executable, WORKER, root, repr(spawned)],
                                  cwd=dirs["work"], env=child_env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        result_path = os.path.join(root, "result.json")
        if proc.returncode == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                return json.load(fh), None
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        return None, f"exit code {proc.returncode}: {tail}"
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(root, ignore_errors=True)


def git_rev(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None          # an exported checkout has no history to name
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(iterations: list, setups: list) -> dict:
    """Medians over the untraced iterations; set-up over every process."""
    untraced = [it for it in iterations if not it["traced"] and "wall_s" in it]
    if not untraced:
        return {}
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    metrics = {name: statistics.median(it[name] for it in untraced)
               for name in ("wall_s", "solves_per_s", "first_solve_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["pass_rate"] = (attempted - failed) / attempted
    return metrics


def per_layer(iterations: list) -> dict:
    """Medians over the traced iterations, plus the tracing overhead."""
    traced = [it for it in iterations if it["traced"] and "layers" in it]
    untraced = [it for it in iterations if not it["traced"] and "wall_s" in it]
    if not traced or not untraced:
        return {}
    names = set.intersection(*(set(it["layers"]) for it in traced))
    metrics = {name: statistics.median(it["layers"][name] for it in traced)
               for name in sorted(names)}
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    untraced_wall = statistics.median(it["wall_s"] for it in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)     # unwinds: children killed, tmp removed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    started = time.monotonic()
    checkout = os.getcwd()
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "rodwave", "__init__.py")):
        print(f"perfbench: no rodwave package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    state_dir = os.path.join(checkout, ".perfbench")
    os.makedirs(os.path.join(state_dir, "tmp"), exist_ok=True)
    base = tempfile.mkdtemp(prefix="run-", dir=os.path.join(state_dir, "tmp"))

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # an installed package has its bytecode
    spec = make_spec(args.workload, args.seed)
    iterations, setups, durations = [], [], []
    try:
        # the uncounted warm-up fills the bytecode and file caches that an
        # installed rodwave has filled before any later command
        for index in range(SETUP_PROBES + 1):
            probe, error = spawn(base, index, None, env, timeout=60)
            if probe is None:
                print(f"perfbench: set-up probe failed: {error}", file=sys.stderr)
                return 1
            if index == 0:
                environment = probe["environment"]
            else:
                setups.append(probe["setup_s"])

        deadline = started + min(args.seconds, TIME_LIMIT_S)
        index = SETUP_PROBES + 1
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            run_spec = dict(spec, trace=traced,
                            run_id=f"{args.workload}-{args.seed}-{len(iterations)}")
            t0 = time.monotonic()
            remaining = TIME_LIMIT_S - (t0 - started)
            result, error = spawn(base, index, run_spec, env, timeout=max(remaining, 1))
            index += 1
            if result is None:
                n = solves_in(spec)
                result = {"attempted": n, "failed": n, "failures": [f"worker: {error}"]}
            else:
                setups.append(result["setup_s"])
            result["traced"] = traced
            iterations.append(result)
            durations.append(time.monotonic() - t0)
            if "wall_s" not in result:
                break
            next_end = time.monotonic() + max(durations)
            if args.trace and len(iterations) < 2:
                if next_end - started > TIME_LIMIT_S:
                    break
            elif next_end > deadline:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    if args.trace:
        metrics = per_layer(iterations)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(iterations, setups)
        units = END_TO_END_UNITS

    environment.update(git_rev=git_rev(checkout), nproc=nproc, cpu_count=os.cpu_count(),
                       seed=args.seed, iterations=len(iterations),
                       setup_samples=len(setups))
    spans = [it.pop("spans") for it in iterations if "spans" in it]
    if spans:
        _write_json(os.path.join(state_dir, "traces", f"{args.workload}-seed{args.seed}.json"),
                    spans)
    _write_json(os.path.join(state_dir, "results",
                             f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "environment": environment, "spec": spec,
                 "setup_samples_s": setups, "iterations": iterations,
                 "metrics": metrics, "attempted": attempted, "failed": failed})

    for it in iterations:
        for failure in it.get("failures", []):
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(iterations)} iterations, "
          f"{attempted} solves attempted, {failed} failed, "
          f"error_rate {failed / max(attempted, 1):.4g}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
