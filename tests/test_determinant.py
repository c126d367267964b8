import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from zetadet import (
    CircleModel,
    CutAngle,
    DirectSum,
    Eigenvalue,
    Finite,
    GradedSpectrum,
    HypothesisViolatedError,
    InfiniteCrossingError,
    Lattice,
    NotAgmonError,
    NotSymmetricError,
    QuadLattice,
    Restricted,
    angle_shift_count,
    graded_ldet,
    ldet,
    pick_det_eta_cut,
    symmetric_spectrum_det,
    is_symmetric_about_real_axis,
    verify_det_eta,
    verify_det_eta_upper,
    verify_spectrum,
    zeta_at_zero,
)
from zetadet.complexcut import as_cut, phase
from zetadet.config import AGMON_EPSILON, CUT_PICK_WIDTH
from zetadet.determinant import _check_hypothesis_sectors
from zetadet.spectrum import AgmonCertificate, certify_agmon, square_spectrum
from zetadet.zetafun import spectral_zeta

from helpers import (
    brute_is_agmon,
    clear_radius,
    pick_agmon_angle,
    random_det_eta_spectrum,
    random_symmetric_spectrum,
    tail_angle_bound,
)
from test_spectrum import LATTICE_FAMILIES, LOG_PARAMS

PI = math.pi


class TestLdet:
    def test_single_positive(self):
        r = ldet(Finite.of(2), -PI)
        assert r.ldet == pytest.approx(math.log(2))
        assert r.det == pytest.approx(2)

    def test_single_imaginary(self):
        r = ldet(Finite.of(1j), -PI / 2)
        assert r.ldet == pytest.approx(1j * PI / 2)
        assert r.det == pytest.approx(1j)

    def test_half_lattice_closed_form(self):
        r = ldet(Lattice(0.5), -PI / 2)
        assert r.det == pytest.approx(2, abs=1e-12)

    def test_det_is_exp_of_ldet(self):
        rng = random.Random(2)
        for _ in range(20):
            spec = random_det_eta_spectrum(rng, -PI / 4)
            r = ldet(spec, -PI / 4)
            assert r.det == cmath.exp(r.ldet)
            assert r.det != 0

    def test_restricted(self):
        # dropping the eigenvalue 1/2 of {1/2 + n} divides its determinant 2 by 1/2
        r = ldet(Restricted(Lattice(0.5), {0: 0}), -PI / 2)
        assert r.det == pytest.approx(4, abs=1e-12)

    def test_full_restriction_matches_base(self):
        base = Lattice(0.3 + 0.2j, 2)
        sub = Restricted(base, {0: 2, 1: 2})
        assert ldet(sub, -PI / 4).ldet == pytest.approx(
            ldet(base, -PI / 4).ldet
        )


class TestGradedLdet:
    def test_single_component_reduces_to_ldet(self):
        g = GradedSpectrum(((0, Finite.of(2)),))
        assert graded_ldet(g, -PI).det == pytest.approx(2)

    def test_two_identical_components(self):
        g = GradedSpectrum(((0, Finite.of(2)), (1, Finite.of(2))))
        r = graded_ldet(g, -PI / 2)
        assert r.ldet == pytest.approx(-1j * PI)
        assert r.det == pytest.approx(-1)

    def test_positive_spectrum_pure_phase(self):
        # identical components of opposite parity: det = exp(-i*pi*zeta(0))
        rng = random.Random(4)
        for _ in range(10):
            vals = sorted({rng.uniform(0.3, 4.0) for _ in range(rng.randint(1, 5))})
            mults = [rng.randint(1, 3) for _ in vals]
            spec = Finite(tuple(Eigenvalue(v, m) for v, m in zip(vals, mults)))
            g = GradedSpectrum(((0, spec), (1, spec)))
            r = graded_ldet(g, -PI / 2)
            z0 = zeta_at_zero(spec, -PI / 2)
            assert r.det == pytest.approx(cmath.exp(-1j * PI * z0), abs=1e-10)

    def test_not_agmon_reports_component(self):
        # component 1 negated has eigenvalue +1j, which sits on the ray at pi/2
        g = GradedSpectrum(((0, Finite.of(2)), (1, Finite.of(-1j))))
        graded_ldet(g, -PI / 2)  # fine: neither component touches this ray
        with pytest.raises(NotAgmonError) as exc:
            graded_ldet(g, PI / 2)
        assert exc.value.component == 1


class TestVerifyDetEta:
    def test_imaginary_pair(self):
        rep = verify_det_eta(Finite.of(1j, -1j), -PI / 4)
        assert rep.lhs == pytest.approx(2j * PI)
        assert rep.residual < 1e-12

    def test_single_one(self):
        rep = verify_det_eta(Finite.of(1), -PI / 4)
        assert rep.residual < 1e-12
        assert rep.eta == pytest.approx(0.5)
        assert rep.zeta_zero_square == pytest.approx(1)

    def test_lattice(self):
        rep = verify_det_eta(Lattice(0.25), -PI / 4)
        assert rep.residual < 1e-9

    def test_report_invariant(self):
        rep = verify_det_eta(Lattice(0.3 + 0.2j), -1.2)
        reconstructed = rep.rhs_half_square - 1j * PI * (
            rep.eta - 0.5 * rep.zeta_zero_square
        )
        assert rep.residual == pytest.approx(abs(rep.lhs - reconstructed))

    def test_hypothesis_violation_raises(self):
        # eigenvalue with argument in (-pi/2, theta]
        bad = Finite.of(cmath.exp(-1.3j))
        with pytest.raises(HypothesisViolatedError) as info:
            verify_det_eta(bad, -PI / 4)
        assert info.value.sector == (-PI / 2, -PI / 4)
        assert str(info.value).endswith(f"lies in the hypothesis sector ({-PI / 2}, {-PI / 4}]")

    def test_sign_flag_reports_observed_sign(self):
        bad = Finite.of(cmath.exp(-1.3j))
        rep = verify_det_eta(bad, -PI / 4, allow_sign_flip=True)
        assert rep.observed_sign in (-1, 1)
        assert rep.residual < 1e-9

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            verify_det_eta(Finite.of(1), -2.0)

    def test_random_suite(self):
        rng = random.Random(101)
        for _ in range(50):
            spec = random_det_eta_spectrum(rng, -PI / 4)
            rep = verify_det_eta(spec, -PI / 4)
            assert rep.residual < 1e-9

    def test_upper_variant_examples(self):
        assert verify_det_eta_upper(Finite.of(1), -PI / 4).residual < 1e-12
        assert verify_det_eta_upper(Finite.of(1j, -1j), -PI / 4).residual < 1e-12
        assert verify_det_eta_upper(Lattice(0.25), -PI / 4).residual < 1e-9

    def test_upper_random_suite(self):
        rng = random.Random(77)
        for _ in range(50):
            spec = random_det_eta_spectrum(rng, -PI / 4)
            rep = verify_det_eta_upper(spec, -PI / 4)
            assert rep.residual < 1e-9


class TestVerifySpectrum:
    """One pass gives the reports, and the errors, of the three verifiers."""

    @staticmethod
    def _agrees(spec, theta):
        lower, upper, sym = verify_spectrum(spec, theta)
        assert lower == verify_det_eta(spec, theta)
        assert upper == verify_det_eta_upper(spec, theta)
        if is_symmetric_about_real_axis(spec):
            assert sym == symmetric_spectrum_det(spec, theta)
        else:
            assert sym is None
        # zeta_{2theta}(0, D^2) is the evaluator's value, signed zeros included
        z0 = spectral_zeta(square_spectrum(spec), as_cut(theta).doubled(), 0.0).value
        for got in (lower.zeta_zero_square, upper.zeta_zero_square):
            assert got == z0
            assert math.copysign(1, got.real) == math.copysign(1, z0.real)
            assert math.copysign(1, got.imag) == math.copysign(1, z0.imag)
        return sym is not None

    def test_det_eta_suite(self):
        rng = random.Random(4242)
        for _ in range(40):
            self._agrees(random_det_eta_spectrum(rng, -PI / 4), -PI / 4)
        for a in (0.25, 0.3 + 0.2j, 0.7 - 0.4j):
            self._agrees(Lattice(a), pick_det_eta_cut(Lattice(a)))

    def test_symmetric_suite(self):
        rng = random.Random(1111)
        for i in range(30):
            spec = random_symmetric_spectrum(rng, i % 3)
            assert self._agrees(spec, pick_det_eta_cut(spec))

    @pytest.mark.parametrize(
        "spec, theta, error",
        [
            (Finite.of(1), -2.0, ValueError),
            (Finite.of(cmath.exp(-1.3j)), -PI / 4, HypothesisViolatedError),
            # beside the upper cut: D^2 fails its certificate before LDet_{theta-pi}
            (Finite.of(2 * cmath.exp(1j * (0.75 * PI + 3e-10))), -PI / 4, NotAgmonError),
            # not Agmon just above the cut, but outside both sectors: the later
            # eigenvalue inside a sector is reported first
            (Finite.of(2 * cmath.exp(1j * (-PI / 4 + 5e-10)), 3, cmath.exp(-1.3j)), -PI / 4,
             HypothesisViolatedError),
        ],
    )
    def test_raises_what_the_lower_verifier_raises(self, spec, theta, error):
        with pytest.raises(error) as one_pass:
            verify_spectrum(spec, theta)
        with pytest.raises(error) as lower:
            verify_det_eta(spec, theta)
        assert str(one_pass.value) == str(lower.value)


class TestSquareZetaAtZero:
    """zeta_{2theta}(0, D^2) is the finite multiplicity: each family's two half-lines add exactly 0."""

    def test_lattice_verify_makes_no_hurwitz_call(self, monkeypatch):
        import zetadet.zetafun as zetafun

        calls = []

        def counted(*args):
            calls.append(args)
            return hurwitz(*args)

        hurwitz = zetafun.hurwitz_zeta_raw
        monkeypatch.setattr(zetafun, "hurwitz_zeta_raw", counted)
        spec = Lattice(0.3 + 0.2j)
        verify_spectrum(spec, pick_det_eta_cut(spec))
        assert calls == []

    def test_finite_multiplicity_beside_a_lattice(self):
        spec = DirectSum((Lattice(0.3 + 0.2j), Finite.of(2, 3)))
        cut = pick_det_eta_cut(spec)
        lower, upper, _ = verify_spectrum(spec, cut)
        assert lower.zeta_zero_square == upper.zeta_zero_square == 2.0
        # the evaluator's zeta(0), to its rounding
        assert spectral_zeta(square_spectrum(spec), cut.doubled(), 0.0).value == pytest.approx(2.0, abs=1e-12)


class TestAngleShift:
    def test_counts_imaginary_pair(self):
        spec = Finite((Eigenvalue(1j, 2),))
        assert angle_shift_count(spec, -PI / 4, 3 * PI / 4) == 2

    def test_empty_sweep(self):
        assert angle_shift_count(Finite.of(1), -PI / 4, -PI / 3) == 0

    def test_point_swept_twice_counts_twice(self):
        # the sweep [-1.9 pi, 1.9 pi] passes the direction pi/2 at -3 pi/2 and at pi/2
        assert angle_shift_count(Finite.of(2j), -1.9 * PI, 1.9 * PI) == 2

    def test_sweep_wider_than_a_turn(self):
        # [-0.6 pi, 1.6 pi] passes -pi/2 twice (at -pi/2 and 3 pi/2) and pi/2 once
        assert angle_shift_count(Finite.of(2j, -2j), -0.6 * PI, 1.6 * PI) == 3

    def test_lattice_no_crossing(self):
        assert angle_shift_count(Lattice(0.5), -PI / 4, -3 * PI / 4) == 0

    def test_lattice_tail_in_sector(self):
        with pytest.raises(InfiniteCrossingError):
            angle_shift_count(Lattice(0.5), -PI / 4, PI / 4)

    def test_random_angle_independence(self):
        rng = random.Random(55)
        for _ in range(20):
            spec = random_det_eta_spectrum(rng, -PI / 4)
            th1 = pick_agmon_angle(spec, -3.0, -0.1, radius=4.0)
            th2 = pick_agmon_angle(spec, 0.1, 3.0, radius=4.0)
            k = angle_shift_count(spec, th1, th2)
            l1 = ldet(spec, th1)
            l2 = ldet(spec, th2)
            lo_first = th1 < th2
            diff = (l1.ldet - l2.ldet) if lo_first else (l2.ldet - l1.ldet)
            assert diff == pytest.approx(-2j * PI * k, abs=1e-10)
            assert abs(l1.det - l2.det) < 1e-10 * (1 + abs(l1.det))


def _in_swept_sector(d: float, lo: float, hi: float, lo_open: bool = False) -> bool:
    """Whether direction d lies in [lo, hi], or (lo, hi] with ``lo_open``, up to whole turns."""
    t = lo + math.fmod(d - lo, 2.0 * PI)
    if t < lo:
        t += 2.0 * PI
    return (t > lo or not lo_open) and t <= hi


class TestExactLatticeGeometry:
    """Cut picking, sector checks and crossing counts against exhaustive scans."""

    @settings(max_examples=200, deadline=None)
    @given(spec=LATTICE_FAMILIES)
    def test_pick_det_eta_cut_matches_brute_force(self, spec):
        radius = clear_radius(spec, 0.05)
        assume(radius is not None)
        upper = 0.0
        for v, m in spec.points_within(radius):
            d = phase(v)
            if m > 0 and -PI / 2 < d < 0.0:
                upper = min(upper, d)
            elif m > 0 and PI / 2 < d < PI:
                upper = min(upper, d - PI)
        # beyond the radius every direction lies within the deviation of 0 or pi
        dev = tail_angle_bound(spec, radius)
        assume(dev == 0.0 or upper <= -dev)
        if upper + PI / 2 <= CUT_PICK_WIDTH:
            with pytest.raises(NotAgmonError):
                pick_det_eta_cut(spec)
        else:
            expected = CutAngle(0.5 * (upper - PI / 2))
            assert pick_det_eta_cut(spec).normalized == expected.normalized

    @settings(max_examples=200, deadline=None)
    @given(spec=LATTICE_FAMILIES, theta=st.floats(-PI / 2 + 1e-3, -1e-3))
    def test_sector_check_matches_brute_force(self, spec, theta):
        # the tails lie |theta| away from both sectors
        radius = clear_radius(spec, abs(theta))
        assume(radius is not None)
        sectors = ((-PI / 2, theta), (PI / 2, theta + PI))
        expected = not any(
            _in_swept_sector(phase(v), lo, hi, lo_open=True)
            for v, m in spec.points_within(radius)
            if m > 0
            for lo, hi in sectors
        )
        try:
            _check_hypothesis_sectors(spec, theta)
        except HypothesisViolatedError:
            assert not expected
        else:
            assert expected

    @settings(max_examples=80, deadline=None)
    @given(
        a=LOG_PARAMS,
        quad=st.booleans(),
        sub=st.dictionaries(st.integers(-8, 8), st.integers(0, 1), max_size=6),
        lower=st.booleans(),
        ends=st.lists(st.floats(0.05, PI - 0.05), min_size=2, max_size=2),
    )
    def test_angle_shift_count_matches_brute_force(self, a, quad, sub, lower, ends):
        # sweeps that keep 0.05 away from the tails: within one half-plane for
        # a lattice, anywhere off the positive axis for a squared lattice
        spec = Restricted(QuadLattice(a) if quad else Lattice(a), sub)
        lo, hi = sorted(2.0 * t if quad else t for t in ends)
        if lower:
            shift = 2.0 * PI if quad else PI
            lo, hi = lo - shift, hi - shift
        radius = clear_radius(spec, 0.05)
        assume(brute_is_agmon(spec, lo, 1e-9, radius) and brute_is_agmon(spec, hi, 1e-9, radius))
        expected = sum(
            m for v, m in spec.points_within(radius) if _in_swept_sector(phase(v), lo, hi)
        )
        assert angle_shift_count(spec, lo, hi) == expected

    def test_tail_in_sweep_still_diverges(self):
        with pytest.raises(InfiniteCrossingError):
            angle_shift_count(QuadLattice(0.3 + 0.5j), -0.5, 0.5)

    def test_cut_near_the_tail_of_an_upper_lattice(self):
        # every eigenvalue lies in the upper half-plane, so the cut at -0.03 is
        # Agmon; a tail-deviation bound at a fixed radius used to reject it
        a = 0.3 + 1.5j
        res = ldet(Lattice(a), -0.03)
        expected = 1.0 - cmath.exp(2j * PI * a)
        assert abs(res.det - expected) <= 1e-12 * abs(expected)


def _wedge_param(rng: random.Random) -> complex:
    """A log parameter whose cut-picking wedge, (-pi/2, upper) with upper + pi/2 = delta / y,
    is thinner than the picker's old 1e-6: a point delta - iy, or its mirror -delta + iy, whose
    normalized point 1 - delta + iy has the neighbour -delta + iy just left of i*R+."""
    y = rng.uniform(1.0, 200.0)
    delta = y * 10.0 ** rng.uniform(math.log10(2e-9), -6.0)
    return complex(delta, -y) if rng.random() < 0.5 else complex(-delta, y)


class TestPickedCertificate:
    """The picked cut is an AgmonCertificate, which certify_agmon accepts for D and D^2."""

    def test_certify_agmon_accepts_every_issued_certificate(self):
        rng = random.Random(3217)
        issued = refused = 0
        for _ in range(3000):
            params = []
            for _ in range(rng.randint(1, 3)):
                a = _wedge_param(rng) if rng.random() < 0.3 else complex(rng.uniform(-3.0, 3.0), rng.uniform(-200, 200))
                if abs(a - round(a.real)) > 1e-8:
                    params.append((a, rng.randint(1, 2)))
            if not params:
                continue
            spec = CircleModel(params).spectrum()
            try:
                cut = pick_det_eta_cut(spec)
            except NotAgmonError:
                refused += 1
                continue
            issued += 1
            assert type(cut) is AgmonCertificate and cut.spectrum is spec and cut.line
            assert cut.epsilon == AGMON_EPSILON
            # the margin is wider than 2 * epsilon, on both rays of the line through the cut
            certify_agmon(spec, cut, 2.0 * cut.epsilon)
            certify_agmon(spec, cut.shifted(PI), 2.0 * cut.epsilon)
            square = cut.squared()
            assert square.spectrum == square_spectrum(spec)
            assert square.normalized == cut.doubled().normalized
            certify_agmon(square.spectrum, square, square.epsilon)
        assert issued > 2000 and refused > 50

    def test_wedge_edge(self):
        # a = delta - i: the wedge below the cut is delta wide; at most CUT_PICK_WIDTH it is refused
        for delta in (5e-6 / 10, 1e-7, 2e-8, 1.01 * CUT_PICK_WIDTH):
            cut = pick_det_eta_cut(Lattice(complex(delta, -1.0)))
            certify_agmon(cut.spectrum, cut, cut.epsilon)
            certify_agmon(cut.squared().spectrum, cut.squared(), AGMON_EPSILON)
        with pytest.raises(NotAgmonError):
            pick_det_eta_cut(Lattice(complex(0.99 * CUT_PICK_WIDTH, -1.0)))

    def test_only_a_line_certificate_squares(self):
        spec = Lattice(0.3 + 0.2j)
        with pytest.raises(ValueError):
            certify_agmon(spec, -PI / 4, AGMON_EPSILON).squared()
        assert pick_det_eta_cut(spec).squared().spectrum == square_spectrum(spec)

    def test_certificate_is_the_cut(self):
        spec = Lattice(0.3 + 0.2j)
        cut = pick_det_eta_cut(spec)
        plain = CutAngle(cut.normalized)
        assert cut == plain and hash(cut) == hash(plain) and float(cut) == float(plain)
        assert ldet(spec, cut) == ldet(spec, plain)
        assert repr(certify_agmon(spec, -0.5, 1e-3)) == (
            f"AgmonCertificate(raw=-0.5, normalized=-0.5, spectrum={spec!r}, epsilon=0.001, line=False)"
        )


class TestSymmetricSpectrumDet:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            symmetric_spectrum_det(Finite.of(1 + 1j), -PI / 4)

    def test_real_pair(self):
        rep = symmetric_spectrum_det(Finite.of(1, -2), -PI / 4)
        assert rep.m_minus == 0
        assert rep.residual < 1e-10
        assert rep.ldet_result.det == pytest.approx(-2)

    def test_imaginary_pair_sign(self):
        rep = symmetric_spectrum_det(Finite.of(1j, -1j), -PI / 4)
        assert rep.m_minus == 1
        assert rep.residual < 1e-10
        # the (-1)^{m_-} factor is what makes the identity close
        assert rep.ldet_result.det == pytest.approx(1)
        assert rep.factored == pytest.approx(1)

    def test_conjugate_pair_reality(self):
        rep = symmetric_spectrum_det(Finite.of(1 + 1j, 1 - 1j), -PI / 3)
        assert abs(rep.eta.imag) < 1e-12
        assert abs(rep.zeta_zero_square.imag) < 1e-12
        assert rep.residual < 1e-10

    def test_squared_zeta_derivative_phase_structure(self):
        # Im zeta'_{2theta}(0, D^2) = -2*pi*m_minus modulo 2*pi for symmetric
        # spectra (the phase is what the (-1)^{m_-} sign factors out)
        from zetadet import pick_det_eta_cut, square_spectrum
        from zetadet.zetafun import zeta_ds_at_zero

        rng = random.Random(909)
        for _ in range(20):
            m_minus = rng.choice((0, 1, 2))
            spec = random_symmetric_spectrum(rng, m_minus)
            cut = pick_det_eta_cut(spec)
            dz = zeta_ds_at_zero(square_spectrum(spec), cut.doubled())
            turns = (dz.imag + 2 * PI * m_minus) / (2 * PI)
            assert abs(turns - round(turns)) < 1e-10

    def test_reality_enforced(self):
        from zetadet import RealityViolatedError
        from zetadet.config import DEFAULT_TOLERANCES

        strict = DEFAULT_TOLERANCES.with_overrides(reality=0.0)
        with pytest.raises(RealityViolatedError):
            # floating noise in the assembled eta exceeds a zero tolerance
            symmetric_spectrum_det(
                Finite.of(0.5 + 1.7j, 0.5 - 1.7j, 2.0), -1.1, strict
            )

    def test_engineered_m_minus_suite(self):
        rng = random.Random(303)
        seen = set()
        for _ in range(30):
            m_minus = rng.choice((0, 1, 2))
            spec = random_symmetric_spectrum(rng, m_minus)
            theta = pick_agmon_angle(spec, -PI / 2 + 0.01, -0.01, radius=4.0)
            rep = symmetric_spectrum_det(spec, theta)
            assert rep.m_minus == m_minus
            scale = 1.0 + abs(rep.ldet_result.det)
            assert rep.residual < 1e-10 * scale
            seen.add(m_minus)
        assert seen == {0, 1, 2}
