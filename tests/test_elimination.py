"""Float elimination, slot-ordered data gather and whole-array energy
weights against the loop forms they replaced.

``eliminate`` solves the characteristic rows by a level-scheduled
triangular substitution in floats over the closed-form free set;
``loop_reference.eliminate`` runs Gauss-Jordan over Fractions, with its
own pivot order and a scan of every row per pivot.  Every coefficient is a
small dyadic rational, so the two must agree exactly: the free map, A and
C_gamma bit for bit, A read as Fractions, and each entry's data terms as
an exact mapping.  The data part g, which ``Parametrization.g_matrix``
gathers slot by slot, has the bits of ``loop_reference.g_matrix``, which
adds each entry's terms one by one in the parametrization's key order.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import loop_reference as ref
from conftest import example_state
from rodwave import cli, edge
from rodwave.edge import (EDGE_KINDS, assemble_edge_constraints, build_catalog, data_keys,
                          eliminate, free_columns, jump_key, wave_key)
from rodwave.energy import build_weights
from rodwave.errors import AssemblyError
from rodwave.mesh import build_mesh, counts
from test_assembly import assert_bits
from test_edge import random_state

P = 17
SWEEP = [(n, m) for m in range(2, 9) for n in range(2, 9)]


def reference_arrays(par, a_rows, g_exprs):
    """A and C_gamma written from the Fraction elimination."""
    a_mat = np.zeros_like(par.A)
    c_mat = np.zeros_like(par.C_gamma)
    gamma_pos = {k: i for i, k in enumerate(par.gamma_map)}
    for e, row in enumerate(a_rows):
        for j, c in row.items():
            a_mat[e, j] = float(c)
        for k, c in g_exprs[e].gammas.items():
            c_mat[e, gamma_pos[k]] = float(c)
    return a_mat, c_mat


def check_parametrization(system, state, p):
    par = eliminate(system).rebind(state)
    free_map, a_rows, g_exprs = ref.eliminate(system)
    a_mat, c_mat = reference_arrays(par, a_rows, g_exprs)
    assert par.free_map == tuple(free_map)
    assert_bits(par.A, a_mat)
    assert_bits(par.C_gamma, c_mat)
    # every nonzero of A, read as a Fraction, is the exact rational entry
    assert [{j: Fraction(c) for j, c in enumerate(row.tolist()) if c}
            for row in par.A] == a_rows
    # each entry's data terms, as an exact mapping, in the key order
    exprs, keys = ref.data_exprs(par), data_keys(system.mesh)
    for new, old in zip(exprs, g_exprs, strict=True):
        for part in ("terms", "consts", "gammas"):
            got = getattr(new, part)
            assert got == getattr(old, part)
            assert all(type(c) is float for c in got.values())
        order = [keys.index(key) for key in list(new.terms) + list(new.consts)]
        assert order == sorted(order)
    assert_bits(par.g_matrix(p), ref.g_matrix(exprs, state, system.mesh, p))
    return par, exprs


@pytest.mark.parametrize("n,m", SWEEP + [(1, 5), (9, 2), (12, 12), (13, 2), (16, 16),
                                         (24, 24), (32, 32)])
def test_float_elimination_matches_fractions(n, m):
    mesh = build_mesh(n, m)
    check_parametrization(assemble_edge_constraints(mesh), example_state(mesh, P), P)


def closed_form_free_set(mesh):
    """The free functions by the rule of the resolution scheme, as keys."""
    M2 = 2 * mesh.M
    keys = [jump_key(n, m) for n in mesh.interior_interfaces() for m in range(2, M2 - 3, 2)]
    if mesh.N % 2:
        keys += [wave_key(side, 0, m) for side in (+1, -1) for m in range(2, M2 - 1, 2)]
    else:
        keys += ([wave_key(-1, +1, m) for m in range(2, M2 - 1, 2)]
                 + [wave_key(+1, -1, m) for m in range(4, M2 - 1, 2)]
                 + [wave_key(-1, -1, M2 - 2)])
    return keys


@pytest.mark.parametrize("m", [2, 3, 4])
def test_free_set_is_the_closed_form_rule(m):
    # every interior jump of layers 2..2M-4; the central waves of layers
    # 2..2M-2 for odd N; for even N w-(+1) on 2..2M-2, w+(-1) on 4..2M-2
    # and w-(-1, 2M-2): the free map the Fraction Gauss-Jordan leaves
    for n in range(1, 25):
        mesh = build_mesh(n, m)
        cat = build_catalog(mesh)
        rule = closed_form_free_set(mesh)
        assert len(rule) == counts(n, m).N_s
        assert [cat.entries[c] for c in free_columns(mesh)] == sorted(rule, key=cat.index.get)
        free_map, _, _ = ref.eliminate(assemble_edge_constraints(mesh))
        assert tuple(free_map) == eliminate(assemble_edge_constraints(mesh)).free_map
        assert set(free_map) == set(rule), (n, m)


@pytest.mark.parametrize("n,m,seeds", [(2, 2, (1, 2)), (4, 4, (3, 4)), (5, 3, (5,)),
                                       (6, 6, (6, 7)), (7, 8, (8,))])
def test_gather_matches_loop_on_random_states(n, m, seeds):
    mesh = build_mesh(n, m)
    par, g_exprs = check_parametrization(
        assemble_edge_constraints(mesh), random_state(mesh, P, seed=0), P)
    for seed in seeds:
        state = random_state(mesh, 33, seed=seed)
        assert_bits(par.rebind(state).g_matrix(33), ref.g_matrix(g_exprs, state, mesh, 33))


def with_coefficient(system, coef):
    """The system with the first left-boundary row's jump coefficient
    replaced; that row is the only one with the jump, so it pivots there."""
    jump = system.catalog.index[jump_key(-system.mesh.N, 0)]
    first = np.flatnonzero(system.kind == EDGE_KINDS.index("boundary_left"))[0]
    coefs = system.coef.copy()
    coefs[(system.row == first) & (system.entry == jump)] = coef
    return dataclasses.replace(system, coef=coefs)


def test_pivot_not_a_power_of_two_raises():
    mesh = build_mesh(4, 4)
    system = with_coefficient(assemble_edge_constraints(mesh), 3)
    # over Fractions the pivot 3 leaves thirds, which floats would round
    _, _, g_exprs = ref.eliminate(system)
    assert any(c.denominator == 3 for e in g_exprs for c in e.consts.values())
    with pytest.raises(AssemblyError, match="pivot 3.0 is not a power of two"):
        eliminate(system)


def test_coefficient_off_the_half_grid_raises():
    # a pivot of 4 divides exactly, but leaves quarters and eighths behind
    mesh = build_mesh(4, 4)
    system = with_coefficient(assemble_edge_constraints(mesh), 4)
    with pytest.raises(AssemblyError,
                       match=r"coefficient -?0\.[0-9]+ is not a multiple of 1/2"):
        eliminate(system)


def not_triangular(system):
    """The system with the first boundary_left row's jump replaced by the
    right jump u(N, 0): two rows of one level then solve it, and no row
    holds u(-N, 0)."""
    mesh, cat = system.mesh, system.catalog
    first = np.flatnonzero(system.kind == EDGE_KINDS.index("boundary_left"))[0]
    entries = system.entry.copy()
    entries[(system.row == first)
            & (entries == cat.index[jump_key(-mesh.N, 0)])] = cat.index[jump_key(mesh.N, 0)]
    return dataclasses.replace(system, entry=entries)


def with_cycle(system):
    """The system with the data wave of each first boundary row replaced by
    the other side's jump: both rows then hold u(-N, 0) and u(N, 0), and
    no other row does."""
    mesh, cat = system.mesh, system.catalog
    entries = system.entry.copy()
    for kind, wave, jump in (("boundary_left", wave_key(+1, 1 - mesh.N, 0), mesh.N),
                             ("boundary_right", wave_key(-1, mesh.N - 1, 0), -mesh.N)):
        first = np.flatnonzero(system.kind == EDGE_KINDS.index(kind))[0]
        entries[(system.row == first) & (entries == cat.index[wave])] = \
            cat.index[jump_key(jump, 0)]
    return dataclasses.replace(system, entry=entries)


@pytest.mark.parametrize("corrupt,message", [
    (not_triangular, "two edge rows of one level solve the same entry"),
    (with_cycle, "not triangular over the free functions: 2 rows and 2 entries "
                 "are left unsolved")])
def test_rows_not_triangular_raise(corrupt, message):
    with pytest.raises(AssemblyError, match=message):
        eliminate(corrupt(assemble_edge_constraints(build_mesh(4, 4))))


def test_rows_not_triangular_exit_4(monkeypatch, tmp_path, capsys):
    real = cli.assemble_edge_constraints
    monkeypatch.setattr(cli, "assemble_edge_constraints",
                        lambda mesh: not_triangular(real(mesh)))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": 4, "M": 4, "P": 17, "preset": "paper_example",
                                   "out_dir": str(tmp_path / "out")}))
    assert cli.main(["solve", "--config", str(cfgfile)]) == cli.EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "two edge rows of one level solve the same entry" in err
    assert "Traceback" not in err
    assert cli._operator is None


def test_rows_hold_exactly(monkeypatch):
    # characteristic rows whose boundary constant has the wrong sign: the
    # substitution solves them, and the residual W X - R of the given rows
    # finds the row they no longer hold
    real = edge._characteristic_rows

    def flipped(system):
        *rows, rhs_coef = real(system)
        right = np.flatnonzero(system.kind == EDGE_KINDS.index("boundary_right"))[0]
        return (*rows, np.where(rows[-2] == right, -rhs_coef, rhs_coef))

    monkeypatch.setattr(edge, "_characteristic_rows", flipped)
    system = assemble_edge_constraints(build_mesh(3, 3))
    with pytest.raises(AssemblyError, match=r"edge row \d+ \(boundary_right\) does not "
                                            r"hold exactly: residual"):
        eliminate(system)


@pytest.mark.parametrize("n,m,p", [(n, m, 17) for n, m in SWEEP]
                         + [(1, 5, 9), (4, 4, 129), (6, 6, 129), (7, 5, 129)])
def test_weights_match_loop(n, m, p):
    mesh = build_mesh(n, m)
    weights = build_weights(mesh, p)
    table, w_mid = ref.build_weights(mesh, p)
    assert_bits(weights.w_mid, w_mid)
    # w_mid is written a layer kind at a time; row by row it is the
    # midpoint of the reference's per-piece weight, in catalog order
    cat = build_catalog(mesh)
    assert set(table) == set(cat.entries[:cat.N_w])
    for row, key in zip(weights.w_mid, cat.entries[:cat.N_w], strict=True):
        assert_bits(row, 0.5 * (table[key][:-1] + table[key][1:]))
