"""Characteristic mesh, index sets, and counting formulas.

The rod occupies ``x in [-1, 1]`` after nondimensionalization and is split
into N equal segments of length ``lambda = 2/N``.  The horizon is
``T = M*lambda``.  Index conventions:

* ``J_s``  segment indices, step 2, centered: segment k spans
  ``(x_{k-1}, x_{k+1})``;
* ``J_x``  interface indices (N+1 of them), ``x_n = n*lambda/2``;
* ``J_c``  control indices: segments plus the two end loads;
* ``J_t``  even time-layer indices 0..2M, ``t_m = m*lambda/2``.

Traveling-wave domains attach to each segment: the '+' wave of segment k
lives on ``[z_plus_k, T - z_minus_k]`` and the '-' wave on
``[z_minus_k, T - z_plus_k]``, both of length ``(M+1)*lambda``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class RodParams:
    """Physical rod constants: linear density, tension stiffness, half-length."""

    rho: float
    kappa: float
    L: float

    def __post_init__(self):
        if not (self.rho > 0 and self.kappa > 0 and self.L > 0):
            raise InvalidArgumentError("rho, kappa and L must all be positive")

    @property
    def time_scale(self) -> float:
        """tau* with tau*^2 = L^2 rho / kappa; maps t_phys -> t = t_phys/tau*."""
        return self.L * math.sqrt(self.rho / self.kappa)


def nondimensionalize(params: RodParams, t_phys: float, x_phys: float):
    """Map physical (time, position) to dimensionless (t, x), rod -> [-1, 1]."""
    return t_phys / params.time_scale, x_phys / params.L


@dataclass(frozen=True)
class MeshConfig:
    """All index sets and geometry of the characteristic mesh for (N, M)."""

    N: int
    M: int
    lam: float
    T: float
    J_s: tuple
    J_x: tuple
    J_c: tuple
    J_t: tuple

    def x(self, n: int) -> float:
        """Interface abscissa x_n = n*lambda/2."""
        return n * self.lam / 2.0

    def t(self, m: int) -> float:
        """Mesh instant t_m = m*lambda/2 for 0 <= m <= 2M."""
        return m * self.lam / 2.0

    def z_plus(self, k: int) -> float:
        return (k - 1) * self.lam / 2.0

    def z_minus(self, k: int) -> float:
        return -(k + 1) * self.lam / 2.0

    def interior_interfaces(self) -> tuple:
        return tuple(n for n in self.J_x if abs(n) != self.N)


def build_mesh(N: int, M: int) -> MeshConfig:
    """Construct the mesh and index sets for N segments and M time layers."""
    if not (isinstance(N, (int, np.integer)) and isinstance(M, (int, np.integer))):
        raise InvalidArgumentError("N and M must be integers")
    if N < 1 or M < 1:
        raise InvalidArgumentError(f"N and M must be >= 1, got N={N}, M={M}")
    lam = 2.0 / N
    return MeshConfig(
        N=int(N),
        M=int(M),
        lam=lam,
        T=M * lam,
        J_s=tuple(range(1 - N, N, 2)),
        J_x=tuple(range(-N, N + 1, 2)),
        J_c=(-N - 1,) + tuple(range(1 - N, N, 2)) + (N + 1,),
        J_t=tuple(range(0, 2 * M + 1, 2)),
    )


@dataclass(frozen=True)
class SystemCounts:
    """Sizes of the edge-constraint system for a given (N, M).

    ``N_b`` is the paper's vertex-row count; ``N_r`` is the rank of the
    complete vertex system, the number of rows
    :func:`rodwave.edge.assemble_vertex_conditions` assembles: N_b for
    odd N, N_b + 1 for even N.
    """

    N_e: int
    N_w: int
    N_u: int
    N_v: int
    N_s: int
    N_b: int
    N_r: int


def counts(N: int, M: int) -> SystemCounts:
    """Edge/variable/vertex counts; N_b and N_r branch on the parity of N."""
    if N < 1 or M < 1:
        raise InvalidArgumentError(f"N and M must be >= 1, got N={N}, M={M}")
    N_e = 2 * M * N + 4 * N
    N_w = 2 * (M + 1) * N
    N_u = M * (N + 1)
    N_v = N_w + N_u
    N_s = N_v - N_e
    if N % 2 == 1:
        N_b = N_r = M * N + M - N + 1
    else:
        N_b = M * N + M - N
        N_r = N_b + 1
    return SystemCounts(N_e=N_e, N_w=N_w, N_u=N_u, N_v=N_v, N_s=N_s, N_b=N_b, N_r=N_r)
