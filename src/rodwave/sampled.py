"""Uniformly sampled scalar functions on a closed interval.

``SampledFunction`` is the single currency for every function of one
variable in the package: state profiles on the rod, traveling-wave pieces
on ``[0, lambda]``, and control histories on ``[0, T]``.  The sample count
is kept odd so that composite Simpson quadrature applies directly and so
that the reflection ``z -> a + b - z`` is an exact permutation of sample
indices.

Derivatives use second-order stencils everywhere: central differences in
the interior and one-sided three-point formulas at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

MIN_SAMPLES = 5


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite-difference derivative of uniform samples."""
    v = np.asarray(values, dtype=float)
    if v.shape[-1] < 3:
        raise InvalidArgumentError("need at least 3 samples to differentiate")
    d = np.empty_like(v)
    np.subtract(v[..., 2:], v[..., :-2], out=d[..., 1:-1])
    d[..., 1:-1] /= 2.0 * h
    d[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    d[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    return d


def simpson_weights(p: int, h: float) -> np.ndarray:
    """Composite Simpson weights for p uniform samples (p odd)."""
    if p < 3 or p % 2 == 0:
        raise InvalidArgumentError("Simpson rule needs an odd sample count >= 3")
    w = np.ones(p)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def cumulative_integral(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid integral starting from zero at the left end."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    np.cumsum(0.5 * h * (v[1:] + v[:-1]), out=out[1:])
    return out


@dataclass(frozen=True)
class SampledFunction:
    """A scalar function on [a, b] stored as P uniform samples, P odd."""

    a: float
    b: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise InvalidArgumentError("values must be one-dimensional")
        if len(vals) < MIN_SAMPLES or len(vals) % 2 == 0:
            raise InvalidArgumentError(
                f"sample count must be odd and >= {MIN_SAMPLES}, got {len(vals)}"
            )
        if not self.b > self.a:
            raise InvalidArgumentError("domain must satisfy b > a")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_vectorized(cls, f: Callable, a: float, b: float, p: int) -> "SampledFunction":
        return cls(a, b, np.asarray(f(np.linspace(a, b, p)), dtype=float))

    @classmethod
    def zeros(cls, a: float, b: float, p: int) -> "SampledFunction":
        return cls(a, b, np.zeros(p))

    # -- basic queries -----------------------------------------------

    @property
    def p(self) -> int:
        return len(self.values)

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.p - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.p)

    def __call__(self, x) -> np.ndarray:
        """Evaluate by linear interpolation between samples."""
        x = np.asarray(x, dtype=float)
        eps = 1e-12 * (self.b - self.a)
        if np.any(x < self.a - eps) or np.any(x > self.b + eps):
            raise InvalidArgumentError("evaluation point outside the domain")
        return np.interp(np.clip(x, self.a, self.b), self.grid, self.values)

    # -- calculus ----------------------------------------------------

    def derivative(self) -> "SampledFunction":
        return SampledFunction(self.a, self.b, fd_derivative(self.values, self.h))

    def integral(self) -> float:
        """Composite Simpson integral over the whole domain."""
        return float(simpson_weights(self.p, self.h) @ self.values)

    def cumulative(self) -> "SampledFunction":
        return SampledFunction(self.a, self.b, cumulative_integral(self.values, self.h))
