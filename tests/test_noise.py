"""The receiver noise draw (``channel._noise_parts``): Box–Muller with a
float64 radius and a float32 angle. It must equal the oracle's whole-array
statement bit for bit, be complex Gaussian of power ``scale**2`` within
sampling bounds, and stay within 1e-6 of |z| of the same uniforms through
float64 sin and cos."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

import oracles
from mars_jcas.channel import NOISE_PASS, _complex_noise, _noise_parts

SEEDS = (0, 1, 2)
CAR_BLOCK = (64, 2048)   # one car chirp symbol: 131072 samples
# Largest value Generator.random returns, 1 - 2^-53: the largest radius.
LARGEST_U = float(np.nextafter(1.0, 0.0))


def draw(seed, scale=1.0, shape=CAR_BLOCK):
    re, im = _noise_parts(np.random.default_rng(seed), scale, np.empty((2,) + shape))
    return re.ravel() + 1j * im.ravel()


class FixedUniforms:
    """A generator whose ``random`` hands out the given uniforms."""

    def __init__(self, u0, u1):
        self.values = np.array([u0, u1], dtype=float)

    def random(self, *, out):
        out[...] = self.values.reshape(out.shape)
        return out


@pytest.mark.parametrize("shape", [CAR_BLOCK, (16, 512), (3, 7), (1,), (NOISE_PASS + 1,),
                                   (2, NOISE_PASS - 3)])
@pytest.mark.parametrize("scale", [1.0, 3.7e-7])
def test_parts_equal_the_oracle_bit_for_bit(shape, scale):
    # The passes over NOISE_PASS samples give the whole-array values, and
    # the draw takes exactly 2 x size uniforms from its generator.
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = _noise_parts(rng, scale, np.empty((2,) + shape))
    want = oracles.complex_noise(ref, scale, shape)
    assert np.array_equal(got[0], want.real) and np.array_equal(got[1], want.imag)
    assert rng.random() == ref.random()
    assert np.array_equal(_complex_noise(np.random.default_rng(5), scale, shape).view(float),
                          want.view(float))


@pytest.mark.parametrize("seed", SEEDS)
def test_moments_within_sampling_bounds(seed):
    # Components N(0, 1/2) at scale 1: each bound is five standard errors of
    # the statistic over n samples.
    z = draw(seed)
    n = z.size
    re, im = z.real, z.imag
    se = 1.0 / math.sqrt(n)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 5 * se        # |z|^2 ~ Exp(1)
    assert abs(np.mean(re)) < 5 * math.sqrt(0.5) * se
    assert abs(np.mean(im)) < 5 * math.sqrt(0.5) * se
    assert abs(np.mean(re**2) - np.mean(im**2)) < 5 * se      # Var(re^2) = 1/2 each
    assert abs(np.mean(re * im)) < 5 * 0.5 * se               # Var(re im) = 1/4


@pytest.mark.parametrize("seed", SEEDS)
def test_kolmogorov_smirnov(seed):
    scale = 2.5
    z = draw(seed, scale) / scale
    assert stats.kstest(np.abs(z) ** 2, "expon").pvalue > 0.01
    assert stats.kstest(np.mod(np.angle(z) / (2.0 * np.pi), 1.0), "uniform").pvalue > 0.01
    assert stats.kstest(z.real * math.sqrt(2.0), "norm").pvalue > 0.01
    assert stats.kstest(z.imag * math.sqrt(2.0), "norm").pvalue > 0.01


@pytest.mark.parametrize("seed", SEEDS)
def test_float32_angle_within_1e_6_of_float64(seed):
    scale = 0.8
    z = draw(seed, scale)
    u0, u1 = np.random.default_rng(seed).random((2,) + CAR_BLOCK).reshape(2, -1)
    exact = scale * np.sqrt(-np.log1p(-u0)) * np.exp(2j * np.pi * u1)
    assert np.all(np.abs(z - exact) <= 1e-6 * np.abs(exact))
    # The float64 radius caps |z| at sqrt(53 ln 2) scale.
    assert np.max(np.abs(z)) < scale * math.sqrt(53 * math.log(2.0)) * (1 + 1e-6)


@pytest.mark.parametrize("u1", [0.0, 0.25, LARGEST_U])
def test_smallest_and_largest_radius(u1):
    scale = 1.5
    zero = _noise_parts(FixedUniforms(0.0, u1), scale, np.empty((2, 1)))
    assert np.array_equal(zero, np.zeros((2, 1)))
    re, im = _noise_parts(FixedUniforms(LARGEST_U, u1), scale, np.empty((2, 1)))
    cap = scale * math.sqrt(53 * math.log(2.0))    # -ln(2^-53)
    assert np.isfinite(re[0]) and np.isfinite(im[0])
    assert math.hypot(re[0], im[0]) == pytest.approx(cap, rel=1e-6)
    if u1 == 0.0:
        # Angle 0: the real part is the radius.
        assert re[0] == pytest.approx(cap, rel=1e-15) and im[0] == 0.0
