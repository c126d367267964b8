import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from zetadet import kernels
from zetadet.config import em_num_terms

from helpers import direct_hurwitz_sum


def _eval(impl, s, q):
    return impl.hurwitz_zeta_raw(s, q, em_num_terms(s, q))


# the one kernel module is pure Python
KERNELS = [pytest.param(kernels, id="py")]

# B_2, B_4, ..., B_26
BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
             Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
             Fraction(-174611, 330), Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6)]


def test_coefficient_tables_are_the_rounded_fractions():
    assert [Fraction(p, q) for p, q in kernels._BERNOULLI] == BERNOULLI
    assert kernels._EM_COEF == tuple(float(b / math.factorial(2 * k)) for k, b in enumerate(BERNOULLI, 1))
    assert kernels._STIRLING_COEF == tuple(float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(BERNOULLI, 1))


@pytest.mark.parametrize("impl", KERNELS)
class TestHurwitzKernel:
    def test_basel_value(self, impl):
        value, err = _eval(impl, 2.0, 1.0)
        assert value == pytest.approx(math.pi**2 / 6, abs=1e-12)
        assert err < 1e-12

    def test_matches_direct_summation(self, impl):
        for s in (2.5, 3.0 + 0.7j, 4.2 - 1.1j):
            for q in (0.1, 1.0, 0.4 + 0.8j, 2.0 - 1.0j):
                direct = direct_hurwitz_sum(s, q, 20_000)
                value, _ = _eval(impl, s, q)
                assert abs(value - direct) < 1e-10

    def test_value_and_estimate_consistency(self, impl):
        # doubling the shift must not move the value beyond the estimate
        s, q = 0.3 + 2.0j, 0.2 + 0.9j
        v1, e1 = impl.hurwitz_zeta_raw(s, q, 24)
        v2, e2 = impl.hurwitz_zeta_raw(s, q, 48)
        assert abs(v1 - v2) <= max(e1 + e2, 1e-13)

    def test_zero_value_identity(self, impl):
        # zeta_H(0, q) = 1/2 - q, exactly reproduced by the assembly
        for q in (0.3, 1.7, 0.25 + 0.6j, 1.0 - 0.9j):
            value, _ = _eval(impl, 0.0, q)
            assert value == pytest.approx(0.5 - q, abs=1e-12)


@pytest.mark.parametrize("impl", KERNELS)
class TestLogGammaKernel:
    def test_known_values(self, impl):
        assert impl.log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert impl.log_gamma(2.0) == pytest.approx(0.0, abs=1e-13)
        assert impl.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_recursion(self, impl):
        for z in (0.3, 0.7 + 0.4j, 1.9 - 1.2j):
            lhs = impl.log_gamma(z + 1)
            rhs = impl.log_gamma(z) + cmath.log(z)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_reflection(self, impl):
        # Gamma(z) Gamma(1-z) = pi / sin(pi z) for z in the strip
        for z in (0.25, 0.5 + 0.3j, 0.8 - 0.2j):
            total = impl.log_gamma(z) + impl.log_gamma(1 - z)
            expected = cmath.log(math.pi / cmath.sin(math.pi * z))
            assert cmath.exp(total) == pytest.approx(cmath.exp(expected), rel=1e-12)

    def test_against_mpmath_on_random_points(self, impl):
        # two regions: near the shift recursion, Re z in (0, 2] with |Im z| <= 7.5,
        # and the wider Re z in (0, 40] with |Im z| <= 60
        rng = random.Random(29)
        worst = 0.0
        with mpmath.workdps(30):
            for _ in range(3000):
                for width, height in ((2.0, 7.5), (40.0, 60.0)):
                    z = complex(width * (1.0 - rng.random()), rng.uniform(-height, height))
                    ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
                    worst = max(worst, float(abs(impl.log_gamma(z) - ref) / max(1, abs(ref))))
        assert worst <= 2e-14
