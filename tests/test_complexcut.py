import cmath
import math
import re

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from zetadet import CutAngle, Finite, OnCutError, ZeroInputError, ldet, log_cut, pow_cut
from zetadet.complexcut import TAU, ang_dist, branch_angle, phase

PI = math.pi


class TestCutAngle:
    def test_normalization_window(self):
        assert CutAngle(-PI / 2).normalized == -PI / 2
        assert CutAngle(3 * PI / 2).normalized == 3 * PI / 2
        assert CutAngle(-2 * PI).normalized == -2 * PI

    def test_theta_and_theta_plus_two_pi_are_distinct(self):
        assert CutAngle(-PI / 2) != CutAngle(-PI / 2 + TAU)

    def test_equality_by_normalized_value(self):
        assert CutAngle(0.25) == CutAngle(0.25 + 2 * TAU)
        assert hash(CutAngle(0.25)) == hash(CutAngle(0.25 + 2 * TAU))

    @settings(max_examples=500)
    @given(st.floats(-(2.0**23), 2.0**23, exclude_min=True, exclude_max=True))
    # quotients that round up to the next window: just below 2*pi, and just below 2*pi + 40 windows
    @example(math.nextafter(TAU, 0.0))
    @example(508.9380098815464)
    def test_reduction_into_the_window(self, theta):
        t = CutAngle(theta).normalized
        assert -TAU <= t < TAU
        with mpmath.workprec(200):
            moved = mpmath.mpf(theta) - mpmath.mpf(t)
            window = 4 * mpmath.pi
            off = abs(moved - window * mpmath.nint(moved / window))
        assert off <= 2 * math.ulp(theta)

    @given(st.one_of(st.floats(min_value=2.0**23), st.floats(max_value=-(2.0**23)), st.just(math.nan)))
    @example(2.0**23)
    @example(1.7e308)
    @example(math.inf)
    def test_angle_the_floats_cannot_resolve_is_refused(self, theta):
        with pytest.raises(ValueError, match=re.escape(f"cut angle {theta}:")):
            CutAngle(theta)


class TestLogCut:
    def test_principal_of_one(self):
        assert log_cut(1, -PI) == 0

    def test_imaginary_unit(self):
        assert log_cut(1j, -PI / 2) == pytest.approx(1j * PI / 2)

    def test_on_cut_raises(self):
        with pytest.raises(OnCutError):
            log_cut(-1, -PI)

    def test_zero_raises(self):
        with pytest.raises(ZeroInputError):
            log_cut(0, -PI)

    def test_overflowing_modulus_as_a_finite_spectrum_takes_it(self):
        # |lam| overflows the float range: log|lam/2| + log 2, the rule of Finite's polar form
        lam = 1.5e308 + 1.5e308j
        assert log_cut(lam, 0.3) == ldet(Finite.of(lam), -0.7).ldet
        assert pow_cut(lam, 0.0, 0.3) == 1

    def test_branch_shift_across_the_ray(self):
        # same ray direction, windows one turn apart: logs differ by 2*pi*i
        low = log_cut(1.0, -PI / 2)
        high = log_cut(1.0, 3 * PI / 2)
        assert high - low == pytest.approx(2j * PI)


class TestPowCut:
    def test_inverse_of_i(self):
        assert pow_cut(1j, 1, -PI / 2) == pytest.approx(-1j)

    def test_sqrt_of_four(self):
        assert pow_cut(4, 0.5, -PI) == pytest.approx(0.5)

    def test_negative_base(self):
        # log_{-pi/2}(-2) = ln 2 + i*pi, so (-2)^{-1} = -1/2 on this branch
        assert pow_cut(-2, 1, -PI / 2) == pytest.approx(-0.5)


nonzero_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
).filter(lambda z: abs(z) > 1e-6)

angles = st.floats(-2 * PI, 2 * PI - 1e-9, allow_nan=False)


@given(nonzero_complex, angles)
def test_log_cut_inverts_exp(lam, theta):
    try:
        w = log_cut(lam, theta)
    except OnCutError:
        return
    assert cmath.exp(w) == pytest.approx(lam, rel=1e-12, abs=1e-12)
    assert theta < w.imag < theta + TAU


@given(nonzero_complex, angles, angles)
def test_log_cut_angle_difference_is_zero_or_full_turn(lam, t1, t2):
    lo, hi = sorted((t1, t2))
    if hi - lo >= TAU:
        return
    try:
        wl = log_cut(lam, lo)
        wh = log_cut(lam, hi)
    except OnCutError:
        return
    diff = wh - wl
    assert diff.real == pytest.approx(0.0, abs=1e-12)
    crossed = lo < wl.imag <= hi
    expected = TAU if crossed else 0.0
    assert diff.imag == pytest.approx(expected, abs=1e-9)


@given(nonzero_complex, angles)
def test_pow_cut_at_zero_exponent(lam, theta):
    try:
        assert pow_cut(lam, 0, theta) == 1
    except OnCutError:
        pass


@given(
    nonzero_complex,
    angles,
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_pow_cut_exponent_additivity(lam, theta, s1, s2):
    try:
        lhs = pow_cut(lam, s1 + s2, theta)
        rhs = pow_cut(lam, s1, theta) * pow_cut(lam, s2, theta)
    except OnCutError:
        return
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def _reference_log_cut(lam: complex, theta: float) -> complex:
    """The cut logarithm written out in one piece, as it stood before its polar core was split off."""
    if lam == 0:
        raise ZeroInputError("log_cut requires a nonzero argument")
    th = CutAngle(theta).normalized
    arg = math.atan2(lam.imag, lam.real)
    if ang_dist(arg, th) == 0.0:
        raise OnCutError(f"{lam} lies on the cut ray at angle {th}")
    k = math.ceil((th - arg) / TAU)
    alpha = arg + TAU * k
    if alpha <= th:
        alpha += TAU
    elif alpha > th + TAU:
        alpha -= TAU
    return complex(math.log(abs(lam)), alpha)


def _outcome(fn, *args):
    """A result's bits, or the type and message of the error raised."""
    try:
        w = fn(*args)
    except (OnCutError, ZeroInputError) as exc:
        return type(exc), str(exc)
    return w.real.hex(), w.imag.hex()


def _polar_core(lam: complex, theta: float) -> complex:
    return complex(math.log(abs(lam)), branch_angle(lam, phase(lam), CutAngle(theta).normalized))


finite_nonzero = st.builds(
    complex,
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-1e300, 1e300, allow_nan=False),
).filter(lambda z: z != 0)
cuts = st.floats(-2 * PI, 2 * PI, allow_nan=False, exclude_max=True)


@st.composite
def _point_and_cut(draw):
    """A point and a cut in [-2*pi, 2*pi): on the point's ray, one ulp either side of it, or anywhere."""
    lam = draw(finite_nonzero)
    where = draw(st.sampled_from(("on", "below", "above", "away")))
    if where == "away":
        return lam, draw(cuts)
    arg = phase(lam)
    if where != "on":
        arg = math.nextafter(arg, -math.inf if where == "below" else math.inf)
    turns = [k for k in (-2, -1, 0, 1) if -2 * PI <= arg + k * TAU < 2 * PI]
    return lam, arg + draw(st.sampled_from(turns)) * TAU


@given(_point_and_cut())
def test_log_cut_is_log_modulus_plus_polar_core(point):
    lam, theta = point
    expected = _outcome(_reference_log_cut, lam, theta)
    assert _outcome(log_cut, lam, theta) == expected
    assert _outcome(_polar_core, lam, theta) == expected


def test_ang_dist_symmetry():
    assert ang_dist(-PI, PI) == pytest.approx(0.0)
    assert ang_dist(0.0, PI) == pytest.approx(PI)
    assert ang_dist(0.1, -0.2) == pytest.approx(0.3)
