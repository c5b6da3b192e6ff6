"""Spans around rodwave's public functions, recorded from outside the package.

Each wrap point replaces a module attribute at the name its caller looks
up (``rodwave.cli.boundary_matrices`` for the names ``cli`` imports,
``rodwave.reconstruct.fields`` for the ``rec.*`` calls), so no file of the
package changes.  A span is (name, start, end, parent, run id); spans stay
in memory until the benchmark run ends.  Counts are read from the objects
the wrapped calls return.

A wrap point whose attribute is missing is skipped and reported: every
metric that depends on it is dropped, and the run still completes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import warnings
from collections import defaultdict

# (module, attribute, layer, metric stem or None).  A metric stem gives
# "<stem>_s" (self time) and "<stem>_calls"; points that share a stem are
# summed.  Every point counts toward "<layer>.self_s".  The helpers in
# rodwave.mesh and rodwave.sampled get no spans: their time is their
# callers' self time.
WRAP_POINTS = (
    ("rodwave.cli", "main", "cli", None),
    ("rodwave.cli", "run_solve", "cli", None),
    ("rodwave.cli", "run_sweep", "cli", None),
    ("rodwave.cli", "_sweep_cell", "cli", None),
    ("rodwave.cli", "solve_pipeline", "cli", "cli.solve_pipeline"),
    ("rodwave.cli", "build_state", "cli", "cli.build_state"),
    ("rodwave.cli", "summarize", "cli", "cli.summarize"),
    ("rodwave.cli", "_run_oracle", "cli", None),
    ("rodwave.cli", "feasibility_check", "edge", None),
    ("rodwave.cli", "assemble_edge_constraints", "edge", "edge.assemble_edge_constraints"),
    ("rodwave.cli", "eliminate", "edge", "edge.eliminate"),
    ("rodwave.cli", "assemble_vertex_conditions", "edge", None),
    ("rodwave.cli", "boundary_matrices", "edge", "edge.boundary_matrices"),
    ("rodwave.cli", "build_weights", "energy", "energy.build_weights"),
    ("rodwave.cli", "assemble_qp", "energy", "energy.assemble_qp"),
    ("rodwave.cli", "mean_energy", "energy", "energy.mean_energy"),
    ("rodwave.cli", "solve_qp", "solver", "solver.solve_qp"),
    ("rodwave.cli", "solve_euler_lagrange", "solver", "solver.solve_euler_lagrange"),
    ("rodwave.cli", "compare_solvers", "solver", "solver.compare_solvers"),
    ("rodwave.reconstruct", "waves_from_solution", "reconstruct", "reconstruct.waves_controls"),
    ("rodwave.reconstruct", "jump_pieces_from_solution", "reconstruct", "reconstruct.waves_controls"),
    ("rodwave.reconstruct", "controls_from_jumps", "reconstruct", "reconstruct.waves_controls"),
    ("rodwave.reconstruct", "fields", "reconstruct", "reconstruct.fields"),
    ("rodwave.reconstruct", "terminal_error", "reconstruct", "reconstruct.terminal_error"),
    ("rodwave.reconstruct", "residual_Q", "reconstruct", "reconstruct.residual_Q"),
    ("rodwave.reconstruct", "write_fields_csv", "reconstruct", "reconstruct.write_fields_csv"),
    ("rodwave.reconstruct", "write_controls_csv", "reconstruct", "reconstruct.write_controls_csv"),
    ("rodwave.cli", "simulate", "oracle", "oracle.simulate"),
    ("rodwave.cli", "oracle_compare", "oracle", "oracle.compare"),
    ("rodwave.cli", "write_sim_csv", "oracle", None),
)


def _nnz(matrix) -> int:
    nnz = getattr(matrix, "nnz", None)     # scipy.sparse, should A become sparse
    if nnz is not None:
        return int(nnz)
    import numpy as np
    return int(np.count_nonzero(matrix))


# attribute -> (count names, function(result, args) giving their increments).
# The counts are read from what the call returns, so a missing call drops them.
COUNTERS = {
    "boundary_matrices": (
        ("edge.boundary_rows_assembled", "edge.boundary_rows_kept", "edge.guard_rows_kept"),
        lambda bc, args: (bc.n_assembled, bc.rank, bc.guard_rows_kept)),
    "eliminate": (
        ("edge.n_free", "edge.A_nnz"),
        lambda par, args: (par.n_free, _nnz(par.A))),
    "solve_qp": (
        ("solver.kkt_size", "solver.dense_fallbacks"),
        lambda sol, args: (int(sol.diagnostics["kkt_size"]),
                           int("dense_fallback" in sol.diagnostics))),
    "fields": (
        ("reconstruct.grid_points",),
        lambda fg, args: (len(fg.t) * len(fg.x),)),
    "write_fields_csv": (
        ("reconstruct.fields_csv_bytes",),
        lambda _, args: (os.path.getsize(args[1]),)),
    "simulate": (
        ("oracle.cell_steps",),
        lambda sim, args: ((len(sim.x) - 1) * (len(sim.times) - 1),)),
}


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.lstrip('_')}"


class Tracer:
    """Wrap every wrap point present while the ``with`` block runs.

    ``reset(run_id)`` starts a new run: spans and counts of the previous
    one are dropped, the wraps stay.
    """

    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.missing: list = []          # "module.attribute" not found
        self._installed: list = []
        self._stack: list = []
        self.reset(None)

    def reset(self, run_id) -> None:
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.broken_counts: set = set()  # counts whose extraction failed
        self.warnings = 0

    def __enter__(self):
        for module_name, attr, layer, _ in self.points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, attr, layer))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        return False

    def _wrap(self, fn, attr, layer):
        name = span_name(layer, attr)
        counter = COUNTERS.get(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            caught = []
            try:
                if layer == "solver":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            for w in caught:     # count them, then warn again as the program did
                self.warnings += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if counter is not None:
                names, extract = counter
                try:
                    for key, value in zip(names, extract(result, args)):
                        self.counts[key] += value
                except (AttributeError, KeyError, TypeError, IndexError, OSError):
                    self.broken_counts.update(names)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics of the current run; see ``layer_metrics``."""
        return layer_metrics(self.spans, self.points, self.missing,
                             self.counts, self.broken_counts, self.warnings)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, points, missing, counts, broken_counts, n_warnings) -> dict:
    """Self time and calls per metric stem, self time per layer, and counts.

    A metric that depends on a missing wrap point, or whose count could not
    be read, is left out.  A function or layer that was not called reports
    0 calls, 0 s and zero counts, so every workload reports the same names.
    """
    missing_attrs = {m.rsplit(".", 1)[1] for m in missing}
    own_s = defaultdict(float)
    calls = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        own_s[s["name"]] += t
        calls[s["name"]] += 1

    out = {}
    layers = defaultdict(list)
    stems = defaultdict(list)
    for _, attr, layer, stem in points:
        layers[layer].append((attr, span_name(layer, attr)))
        if stem is not None:
            stems[stem].append((attr, span_name(layer, attr)))
    for layer, members in layers.items():
        present = [name for attr, name in members if attr not in missing_attrs]
        if present:
            out[f"{layer}.self_s"] = sum(own_s[n] for n in present)
    for stem, members in stems.items():
        if all(attr not in missing_attrs for attr, _ in members):
            out[f"{stem}_calls"] = sum(calls[n] for _, n in members)
            out[f"{stem}_s"] = sum(own_s[n] for _, n in members)
    for attr, (names, _) in COUNTERS.items():
        if attr not in missing_attrs:
            out.update((n, counts.get(n, 0)) for n in names if n not in broken_counts)
    if "edge.boundary_rows_kept" in out and "edge.boundary_rows_assembled" in out:
        assembled = out["edge.boundary_rows_assembled"]
        out["edge.boundary_keep_ratio"] = (
            out["edge.boundary_rows_kept"] / assembled if assembled else 0.0)
    if "solver.self_s" in out:
        out["solver.warnings"] = n_warnings
    out["trace.spans"] = len(spans)
    return out
