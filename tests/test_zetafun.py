import math
import random
import time

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from zetadet import (
    DirectSum,
    DomainError,
    Eigenvalue,
    Finite,
    HermQuadLattice,
    Lattice,
    NotAgmonError,
    PoleError,
    QuadLattice,
    Restricted,
    eta_function,
    eta_invariant,
    hurwitz_zeta,
    hurwitz_zeta_ds0,
    ldet,
    negate_spectrum,
    spectral_zeta,
    zeta_at_zero,
    zeta_ds_at_zero,
)
from zetadet.complexcut import log_cut, pow_cut
from zetadet.config import IMAG_AXIS

from helpers import direct_hurwitz_sum

PI = math.pi


class TestHurwitzZeta:
    def test_pole_detected(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1, 0.5)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2, -0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_ds0(0)

    def test_basel(self):
        assert hurwitz_zeta(2, 1).value == pytest.approx(math.pi**2 / 6, abs=1e-10)

    def test_zero_value(self):
        assert hurwitz_zeta(0, 1 / 3).value == pytest.approx(1 / 6, abs=1e-12)

    def test_derivative_at_zero(self):
        assert hurwitz_zeta_ds0(1) == pytest.approx(-0.5 * math.log(2 * PI), abs=1e-12)
        assert hurwitz_zeta_ds0(0.5) == pytest.approx(-0.5 * math.log(2), abs=1e-12)
        assert hurwitz_zeta_ds0(2) == pytest.approx(-0.5 * math.log(2 * PI), abs=1e-12)

    def test_derivative_against_finite_difference(self):
        # independent route: Euler-Maclaurin values near 0 vs the log-Gamma form
        h = 1e-6
        for q in (0.3, 1.2, 0.4 + 0.5j, 1.1 - 0.8j):
            fd = (hurwitz_zeta(h, q).value - hurwitz_zeta(-h, q).value) / (2 * h)
            assert fd == pytest.approx(hurwitz_zeta_ds0(q), abs=5e-9)

    def test_direct_summation_grid(self):
        rng = random.Random(11)
        for _ in range(25):
            q = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
            s = complex(rng.uniform(2.1, 5.0), rng.uniform(-2.0, 2.0))
            direct = direct_hurwitz_sum(s, q, 20_000)
            assert abs(hurwitz_zeta(s, q).value - direct) < 1e-10

    def test_zero_identity_grid(self):
        rng = random.Random(12)
        for _ in range(25):
            q = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
            assert abs(hurwitz_zeta(0, q).value + q - 0.5) < 1e-10


class TestSpectralZeta:
    def test_half_lattice_at_two(self):
        # sum over Z of (n + 1/2)^{-2}: two one-sided direct sums, equals pi^2
        res = spectral_zeta(Lattice(0.5), -PI / 2, 2)
        direct = 2 * direct_hurwitz_sum(2.0, 0.5, 50_000)
        assert abs(res.value - direct) < 1e-9
        assert res.value == pytest.approx(PI**2, abs=1e-9)

    def test_finite_inverse(self):
        assert spectral_zeta(Finite.of(2), -PI, 1).value == pytest.approx(0.5)

    def test_finite_at_zero_counts_multiplicity(self):
        spec = Finite((Eigenvalue(1j, 2), Eigenvalue(-1j, 3)))
        assert zeta_at_zero(spec, -0.4) == pytest.approx(5)

    def test_finite_zero_independent_of_angle(self):
        spec = Finite.of(1 + 1j, -2, 0.5j)
        vals = [zeta_at_zero(spec, th) for th in (-0.3, -1.2, 2.0, -2.9)]
        for v in vals:
            assert v == pytest.approx(3, abs=1e-12)

    def test_lattice_zero(self):
        assert zeta_at_zero(Lattice(0.25), -PI / 2) == pytest.approx(0, abs=1e-12)

    def test_quad_lattice_zero(self):
        assert zeta_at_zero(QuadLattice(0.25), -PI / 2) == pytest.approx(0, abs=1e-12)

    def test_lattice_pole(self):
        with pytest.raises(PoleError):
            spectral_zeta(Lattice(0.5), -PI / 2, 1)
        with pytest.raises(PoleError):
            spectral_zeta(QuadLattice(0.5), -PI / 2, 0.5)
        with pytest.raises(PoleError):
            spectral_zeta(HermQuadLattice(0.5 + 0.1j), -PI, -0.5)

    @pytest.mark.parametrize(
        "spec, s",
        [
            pytest.param(Lattice(0.3 + 1e9j), 1, id="lattice-s1"),
            pytest.param(HermQuadLattice(0.3 + 1e9j), 0.5, id="herm-s0.5"),
            pytest.param(HermQuadLattice(0.3 + 1e9j), -0.5, id="herm-s-0.5"),
        ],
    )
    def test_pole_found_before_tails_are_sized(self, spec, s):
        # the tail buffers of these families exceed the term cap; a pole is still a pole
        with pytest.raises(PoleError):
            spectral_zeta(spec, -PI / 4, s)

    def test_not_agmon_propagates(self):
        with pytest.raises(NotAgmonError):
            spectral_zeta(Lattice(0.5), 0.0, 2)

    def test_lattice_angle_consistency(self):
        # same branch gap: values agree across admissible cuts at s = 2
        res1 = spectral_zeta(Lattice(0.3 + 0.2j), -PI / 2, 2).value
        res2 = spectral_zeta(Lattice(0.3 + 0.2j), -2.0, 2).value
        assert res1 == pytest.approx(res2, abs=1e-10)

    def test_direct_sum_adds(self):
        s1 = Lattice(0.25)
        s2 = Finite.of(2)
        total = spectral_zeta(DirectSum((s1, s2)), -PI / 2, 2).value
        assert total == pytest.approx(
            spectral_zeta(s1, -PI / 2, 2).value + spectral_zeta(s2, -PI / 2, 2).value
        )

    def test_lattice_general_s_against_brute_force(self):
        # Re s large: continuation must agree with the raw branch-aware sum
        a = 0.35 + 0.25j
        theta = -1.1
        s = 3.0 + 0.5j
        from zetadet.complexcut import log_cut, pow_cut

        brute = sum(pow_cut(a + n, s, theta) for n in range(-30_000, 30_001))
        res = spectral_zeta(Lattice(a), theta, s).value
        assert abs(res - brute) < 1e-8


class TestHermitianZeta:
    @staticmethod
    def _chowla_selberg(a: complex, s: complex):
        """sum over Z of |a + n|^{-2s} from its Bessel expansion, to 30 digits (Im a != 0)."""
        with mpmath.workdps(30):
            x, y, s = mpmath.mpf(a.real), abs(mpmath.mpf(a.imag)), mpmath.mpc(s)
            nu = s - mpmath.mpf(1) / 2
            series = sum(
                m**nu * mpmath.cos(2 * mpmath.pi * m * x) * mpmath.besselk(nu, 2 * mpmath.pi * m * y)
                for m in range(1, 60)
            )
            value = mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu) / mpmath.gamma(s) * y ** (1 - 2 * s)
            return complex(value + 4 * mpmath.pi**s / mpmath.gamma(s) * y ** (-nu) * series)

    # Re s >= 0.5: further left the Hurwitz error estimates are not yet honest bounds
    @pytest.mark.parametrize("s", [3, 0.6, 0.75 + 2j, 1.5 - 0.5j])
    @pytest.mark.parametrize("a", [0.4 + 0.3j, 0.25 - 1.2j, 0.7 + 2.5j])
    def test_value_against_bessel_expansion(self, a, s):
        ref = self._chowla_selberg(a, s)
        res = spectral_zeta(HermQuadLattice(a), -PI, s)
        assert abs(res.value - ref) <= 1e-14 * abs(ref)


class TestZetaDerivative:
    def test_finite_log(self):
        assert zeta_ds_at_zero(Finite.of(2), -PI) == pytest.approx(-math.log(2))

    def test_imaginary_pair(self):
        val = zeta_ds_at_zero(Finite.of(1j, -1j), -0.4)
        assert val == pytest.approx(-2j * PI)

    def test_quad_lattice_reflection(self):
        # zeta'_{2theta}(0, D^2) = -2 log(2 sin(pi a)) for real a in (0,1)
        for a in (0.1, 0.25, 0.5, 0.8):
            val = zeta_ds_at_zero(QuadLattice(a), -PI / 2)
            assert val == pytest.approx(-2 * math.log(2 * math.sin(PI * a)), abs=1e-11)

    def test_herm_quad_real_matches_quad(self):
        # for real a the Hermitian family coincides with the squared lattice,
        # which has no pole at s = -1/2
        for a in (0.3, 0.65):
            herm = zeta_ds_at_zero(HermQuadLattice(a), -PI)
            quad = zeta_ds_at_zero(QuadLattice(a), -PI)
            assert herm == pytest.approx(quad, abs=1e-11)
            herm = spectral_zeta(HermQuadLattice(a), -PI, -0.5).value
            quad = spectral_zeta(QuadLattice(a), -PI, -0.5).value
            assert herm == pytest.approx(quad, abs=1e-12)

    def test_complex_reflection_against_mpmath(self):
        # zeta'(0) of {|a + n|^2} is -2 log|2 sin(pi a)|, and the lattice
        # determinant is 1 - exp(2*pi*i*a) below the real axis, 1 - exp(-2*pi*i*a) above
        mpmath.mp.dps = 30
        rng = random.Random(41)
        for _ in range(40):
            a = complex(rng.uniform(0.02, 0.98) + rng.randint(-2, 2), rng.uniform(-3.0, 3.0))
            am = mpmath.mpc(a.real, a.imag)
            ref = float(-2 * mpmath.log(abs(2 * mpmath.sin(mpmath.pi * am))))
            assert abs(zeta_ds_at_zero(HermQuadLattice(a), -PI) - ref) <= 1e-12 * max(1.0, abs(ref))
            theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, PI - 0.3)
            det = complex(1 - mpmath.exp((2j if theta < 0 else -2j) * mpmath.pi * am))
            assert abs(ldet(Lattice(a), theta).det - det) <= 1e-12 * abs(det)

    def test_herm_quad_against_brute_force_zeta(self):
        # independent check at s=3: binomial-series continuation vs direct sum
        a = 0.4 + 0.3j
        spec = HermQuadLattice(a)
        res = spectral_zeta(spec, -PI, 3).value
        brute = sum(
            (abs(a + n) ** 2) ** -3.0 for n in range(-20_000, 20_001)
        )
        assert abs(res - brute) < 1e-10


class TestEta:
    def test_cancelling_pair(self):
        for s in (0, 1.3, 0.5 + 0.5j):
            assert eta_function(Finite.of(1, -1), -0.4, s) == pytest.approx(0)

    def test_imaginary_excluded(self):
        assert eta_function(Finite.of(1j), -0.4, 2.0) == 0

    def test_lattice_eta_at_zero(self):
        assert eta_function(Lattice(0.25), -PI / 2, 0) == pytest.approx(0.5)

    def test_lattice_eta_is_hurwitz_difference(self):
        a = 0.3 + 0.1j
        for s in (0.7, 2.0 - 1.0j):
            lhs = eta_function(Lattice(a), -PI / 2, s)
            rhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, 1 - a).value
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_eta_invariant_examples(self):
        assert eta_invariant(Finite.of(1j)) == pytest.approx(0.5)
        assert eta_invariant(Lattice(0.25)) == pytest.approx(0.25)
        spec = Finite((Eigenvalue(1, 2), Eigenvalue(-2, 1)))
        assert eta_invariant(spec) == pytest.approx(0.5)

    def test_eta_antisymmetric_under_negation(self):
        rng = random.Random(5)
        for _ in range(20):
            vals = []
            for _ in range(rng.randint(1, 5)):
                v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if abs(v) > 0.1:
                    vals.append(v)
            if not vals:
                continue
            try:
                spec = Finite.of(*vals)
            except ValueError:
                continue
            assert eta_invariant(negate_spectrum(spec)) == pytest.approx(
                -eta_invariant(spec)
            )

    def test_eta_lattice_negation(self):
        a = 0.3 + 0.2j
        assert eta_invariant(negate_spectrum(Lattice(a))) == pytest.approx(
            -eta_invariant(Lattice(a))
        )

    def test_restricted_lattice_eta(self):
        base = Lattice(0.25, 2)
        sub = Restricted(base, {0: 1})  # eigenvalue 1/4 loses one copy
        assert eta_invariant(sub) == pytest.approx(eta_invariant(base) - 0.5)

    def test_eta_at_zero_independent_of_cut(self):
        specs = [
            Finite.of(1 + 1j, -2, 0.5j),
            Lattice(0.3 + 0.2j),
            Lattice(1 - 0.25j),
        ]
        for spec in specs:
            vals = []
            for th in (-0.4, -1.3, -2.8, 2.5):
                try:
                    vals.append(eta_function(spec, th, 0))
                except NotAgmonError:
                    continue
            assert len(vals) >= 2
            for v in vals[1:]:
                assert v == pytest.approx(vals[0], abs=1e-11)


class TestRestrictedSquareZeta:
    def test_restricted_square_nonzero_at_origin(self):
        from zetadet import square_spectrum

        base = Lattice(0.25)
        sub = Restricted(base, {0: 0})
        sq = square_spectrum(sub)
        val = zeta_at_zero(sq, -PI / 2)
        # dropping one eigenvalue shifts zeta(0) by -1 from the lattice value 0
        assert val == pytest.approx(-1, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.05, 0.95),
    st.floats(-0.45, 0.45),
    st.sampled_from([-0.7, -1.2, -2.2, -2.9]),
)
def test_lattice_zeta_at_zero_vanishes(re_a, im_a, theta):
    a = complex(re_a, im_a)
    try:
        val = zeta_at_zero(Lattice(a), theta)
    except NotAgmonError:
        return
    assert abs(val) < 1e-11


class TestExplicitTermCap:
    """Jobs that would sum an unbounded number of terms one by one are refused."""

    @pytest.mark.parametrize(
        "compute",
        [
            # about 0.5 / tan(9e-9) = 5.6e7 head terms next to the tail
            pytest.param(lambda: zeta_ds_at_zero(Lattice(0.3 + 0.5j), -1e-8), id="cut-beside-tail"),
            pytest.param(lambda: zeta_ds_at_zero(Lattice(0.3 + 1e9j), -PI / 4), id="far-lattice"),
            # the Euler-Maclaurin shift grows with |Im s|
            pytest.param(lambda: spectral_zeta(Lattice(0.3), -4.0, 0.5 + 1e9j), id="large-im-s"),
            pytest.param(lambda: spectral_zeta(Lattice(2 + 6.07e242j), -PI / 4, 0.0), id="huge-im-a"),
        ],
    )
    def test_refused_promptly(self, compute):
        started = time.perf_counter()
        with pytest.raises(DomainError, match="cap"):
            compute()
        assert time.perf_counter() - started < 2.0


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "compute, name",
    [
        pytest.param(lambda: hurwitz_zeta(_NAN, 1), "s", id="hurwitz-s"),
        pytest.param(lambda: hurwitz_zeta(2, complex(1, _INF)), "q", id="hurwitz-q"),
        pytest.param(lambda: hurwitz_zeta_ds0(_NAN), "q", id="hurwitz-ds0-nan"),
        pytest.param(lambda: hurwitz_zeta_ds0(_INF), "q", id="hurwitz-ds0-inf"),
        pytest.param(lambda: pow_cut(2, _NAN, 0.3), "s", id="pow-cut-s"),
        pytest.param(lambda: log_cut(complex(_NAN, 1), 0.3), "lam", id="log-cut-nan"),
        pytest.param(lambda: log_cut(complex(_INF, 1), 0.3), "lam", id="log-cut-inf"),
        pytest.param(lambda: spectral_zeta(Lattice(0.3 + 0.1j), -0.7, _INF), "s", id="zeta-inf"),
        pytest.param(lambda: spectral_zeta(Lattice(0.3 + 0.1j), -0.7, _NAN), "s", id="zeta-nan"),
        pytest.param(lambda: eta_function(Lattice(0.3 + 0.1j), -0.7, complex(1, _NAN)), "s", id="eta-nan"),
    ],
)
def test_non_finite_input_is_refused_by_name(compute, name):
    with pytest.raises(ValueError, match=rf"^{name} .* is not finite$"):
        compute()



def _bits(z: complex) -> tuple:
    """The exact bits of z; float.hex tells -0.0 from 0.0."""
    return z.real.hex(), z.imag.hex()


class TestEvaluatorBitRules:
    """The order in which the evaluator sums, pinned bit for bit."""

    def test_finite_ldet_keeps_positive_zeros(self):
        # zeta'(0) of {1} is -sum(m * log), negated once: log_cut(1, -0.7) = 0 + 0i
        z = ldet(Finite.of(1), -0.7).ldet
        assert z == 0
        assert (math.copysign(1.0, z.real), math.copysign(1.0, z.imag)) == (1.0, 1.0)

    @pytest.mark.parametrize("theta", [-PI / 4, -0.7, 2.0])
    def test_direct_sum_adds_its_parts_left_to_right(self, theta):
        lat, fin = Lattice(0.25), Finite.of(1, 2)
        spec = DirectSum((lat, fin))
        assert _bits(zeta_ds_at_zero(spec, theta)) == _bits(zeta_ds_at_zero(lat, theta) + zeta_ds_at_zero(fin, theta))
        s = 0.5 + 0.3j
        whole = spectral_zeta(spec, theta, s).value
        assert _bits(whole) == _bits(spectral_zeta(lat, theta, s).value + spectral_zeta(fin, theta, s).value)

    @pytest.mark.parametrize("theta", [-PI / 4, -0.7, 2.0])
    @pytest.mark.parametrize("s", [0.0, 1.3, 0.5 + 0.3j, -1.5 - 2.0j])
    def test_finite_eta_is_the_signed_sum(self, theta, s):
        values = [2, -3, 1j, -2j, 0.5 + 0.5j, -0.7 + 0.2j, 1e-13 + 4j, -1e-13 - 1j]
        mults = [1, 2, 3, 1, 2, 1, 5, 2]
        expected = 0j
        for v, m in zip(map(complex, values), mults):
            if v.real > IMAG_AXIS:
                expected += m * pow_cut(v, s, theta)
            elif v.real < -IMAG_AXIS:
                expected -= m * pow_cut(-v, s, theta)
        spec = Finite.of(*values, multiplicities=mults)
        assert _bits(eta_function(spec, theta, s)) == _bits(expected)
