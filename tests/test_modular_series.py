import math
import random
from fractions import Fraction

import pytest

from alphacf.modular_series import _sin_2pi, divisor_sigma, fourier_Fk_partial


def test_divisor_sigma_examples():
    assert divisor_sigma(6, 1) == 12
    assert divisor_sigma(1, 7) == 1
    assert divisor_sigma(2, 3) == 9
    assert divisor_sigma(12, 0) == 6


def _sigma_brute(n, e):
    return sum(d ** e for d in range(1, n + 1) if n % d == 0)


def test_divisor_sigma_matches_brute_force():
    for n in (1, 2, 17, 360, 499):
        assert divisor_sigma(n, 2) == _sigma_brute(n, 2)


def test_fourier_matches_brute_force_sigma():
    x, k, N = Fraction(1, 7), 2, 100
    total = 0.0
    for n in range(1, N + 1):
        coeff = _sigma_brute(n, k - 1) / n ** (k + 1)
        total += coeff * _sin_2pi(x * n)
    assert fourier_Fk_partial(x, k, N).value == total


def test_sigma_multiplicative_on_coprime_pairs():
    rng = random.Random(1234)
    checked = 0
    while checked < 1000:
        m = rng.randrange(2, 4000)
        n = rng.randrange(2, 4000)
        if math.gcd(m, n) != 1:
            continue
        e = rng.choice([0, 1, 2, 3])
        assert divisor_sigma(m * n, e) == divisor_sigma(m, e) * divisor_sigma(n, e)
        checked += 1


def test_fourier_lattice_zeros_exact():
    for N in (0, 1, 7, 50):
        assert fourier_Fk_partial(Fraction(0), 2, N).value == 0.0
        assert fourier_Fk_partial(Fraction(1, 2), 4, N).value == 0.0
    # n=1 term sin(pi/2) = 1 exactly; n=2 term vanishes
    got = fourier_Fk_partial(Fraction(1, 4), 2, 2)
    assert got.value == 1.0


def test_fourier_oddness():
    rng = random.Random(5)
    for _ in range(20):
        x = Fraction(rng.randrange(1, 300), 301)
        a = fourier_Fk_partial(x, 2, 60).value
        b = fourier_Fk_partial(1 - x, 2, 60).value
        assert a == pytest.approx(-b, abs=1e-15)
    a = fourier_Fk_partial(0.371, 2, 60).value
    b = fourier_Fk_partial(1 - 0.371, 2, 60).value
    assert a == pytest.approx(-b, abs=1e-12)


def test_fourier_partial_sums_cauchy():
    x = 2 ** 0.5 - 1
    for N in (50, 100, 200):
        s1 = fourier_Fk_partial(x, 2, N)
        s2 = fourier_Fk_partial(x, 2, 2 * N)
        assert abs(s2.value - s1.value) <= s1.tail_bound
    assert s1.tail_bound == pytest.approx(4 / math.sqrt(200))

