import numpy as np
import pytest
from hypothesis import given, strategies as st

from rodwave.errors import InvalidArgumentError
from rodwave.sampled import (
    SampledFunction,
    cumulative_integral,
    simpson_weights,
)
from loop_reference import reflect


def test_rejects_even_or_tiny_sample_counts():
    with pytest.raises(InvalidArgumentError):
        SampledFunction(0.0, 1.0, np.zeros(4))
    with pytest.raises(InvalidArgumentError):
        SampledFunction(0.0, 1.0, np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        SampledFunction(1.0, 0.0, np.zeros(5))


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10 ** 6))
def test_reflection_twice_is_identity(half, seed):
    p = 2 * half + 1
    rng = np.random.default_rng(seed)
    f = SampledFunction(0.0, 1.0, rng.standard_normal(p))
    back = reflect(reflect(f))
    assert np.array_equal(back.values, f.values)


def test_reflection_is_exact_sample_reversal():
    f = SampledFunction(0.0, 2.0, np.arange(7.0))
    assert np.array_equal(reflect(f).values, np.arange(7.0)[::-1])


def test_derivative_second_order():
    errs = []
    for p in (33, 65, 129):
        f = SampledFunction.from_vectorized(np.sin, 0.0, 2.0, p)
        d = f.derivative()
        errs.append(np.max(np.abs(d.values - np.cos(f.grid))))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_simpson_is_exact_for_cubics():
    p = 9
    grid = np.linspace(0.0, 1.0, p)
    f = SampledFunction(0.0, 1.0, grid ** 3)
    assert f.integral() == pytest.approx(0.25, abs=1e-14)


def test_simpson_weights_sum_to_length():
    w = simpson_weights(11, 0.1)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_cumulative_matches_antiderivative():
    p = 201
    f = SampledFunction.from_vectorized(np.cos, 0.0, 1.5, p)
    cum = f.cumulative()
    assert np.max(np.abs(cum.values - np.sin(cum.grid))) < 1e-5


def test_interpolation_and_domain_error():
    f = SampledFunction.from_vectorized(lambda x: x, -1.0, 1.0, 9)
    assert f(0.125) == pytest.approx(0.125)
    with pytest.raises(InvalidArgumentError):
        f(1.5)


def test_cumulative_integral_starts_at_zero():
    out = cumulative_integral(np.ones(6), 0.5)
    assert out[0] == 0.0
    assert out[-1] == pytest.approx(2.5)
